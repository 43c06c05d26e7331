module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Color = Qe_color.Color
module Symbol = Qe_color.Symbol

type t = {
  graph : Graph.t;
  labeling : Labeling.t;
  bicolored : Bicolored.t;
  home_bases : int array;
  colors : Color.t array;
  symbols : (int, Symbol.t option) Hashtbl.t;
      (* one [Some sym] per symbol, shared by every arc that carries it *)
  symbol_ids : int Symbol.Tbl.t;
  entries : Symbol.t option array;
  agent_by_color : int Color.Tbl.t;
}

let make ?labeling ?colors graph ~black =
  if not (Qe_graph.Traverse.is_connected graph) then
    invalid_arg "World.make: disconnected graph";
  let bicolored = Bicolored.make graph ~black in
  let home_bases = Array.of_list (Bicolored.blacks bicolored) in
  let r = Array.length home_bases in
  let colors =
    match colors with
    | Some cs ->
        if List.length cs <> r then
          invalid_arg "World.make: need one color per home-base";
        (* distinctness *)
        List.iteri
          (fun i c ->
            List.iteri
              (fun j c' ->
                if i <> j && Color.equal c c' then
                  invalid_arg "World.make: agent colors must be distinct")
              cs)
          cs;
        Array.of_list cs
    | None -> Array.of_list (Qe_color.Palette.colors r)
  in
  let labeling =
    match labeling with Some l -> l | None -> Labeling.standard graph
  in
  if not (Graph.equal_structure (Labeling.graph labeling) graph) then
    invalid_arg "World.make: labeling is for a different graph";
  let symbols = Hashtbl.create 16 in
  let symbol_ids = Symbol.Tbl.create 16 in
  let off = (Graph.csr graph).Qe_graph.Csr.off in
  let entries = Array.make (Graph.m graph * 2) None in
  for u = 0 to Graph.n graph - 1 do
    for i = 0 to Graph.degree graph u - 1 do
      let s = Labeling.symbol labeling u i in
      if not (Hashtbl.mem symbols s) then begin
        let sym = Symbol.mint (Printf.sprintf "s%d" s) in
        Hashtbl.add symbols s (Some sym);
        Symbol.Tbl.add symbol_ids sym s
      end;
      entries.(off.(u) + i) <- Hashtbl.find symbols s
    done
  done;
  let agent_by_color = Color.Tbl.create r in
  Array.iteri (fun i c -> Color.Tbl.add agent_by_color c i) colors;
  {
    graph;
    labeling;
    bicolored;
    home_bases;
    colors;
    symbols;
    symbol_ids;
    entries;
    agent_by_color;
  }

let graph w = w.graph
let labeling w = w.labeling
let bicolored w = w.bicolored
let home_bases w = Array.to_list w.home_bases
let colors w = Array.to_list w.colors
let num_agents w = Array.length w.home_bases
let color_of_agent w i = w.colors.(i)
let home_of_agent w i = w.home_bases.(i)
let symbol_of w s = Option.get (Hashtbl.find w.symbols s)
let int_of_symbol w sym = Symbol.Tbl.find w.symbol_ids sym
let entry w arc = w.entries.(arc)
let agent_of_color w c = Color.Tbl.find_opt w.agent_by_color c
