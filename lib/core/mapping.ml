module Color = Qe_color.Color
module Symbol = Qe_color.Symbol
module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Sign = Qe_runtime.Sign
module Engine = Qe_runtime.Engine

let node_id_tag = "node-id"

module Identity = struct
  type t = { color : Color.t; body : string }

  let equal a b = Color.equal a.color b.color && String.equal a.body b.body
  let color t = t.color
  let body t = t.body
  let hash t = Color.hash t.color lxor Hashtbl.hash t.body
  let pp ppf t = Format.fprintf ppf "%a.%s" Color.pp t.color t.body

  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

(* Exploration-time record of one node. *)
type xnode = {
  xid : Identity.t;
  xports : Symbol.t array;  (* in this agent's presentation order *)
  xadj : (Identity.t * Symbol.t) option array;  (* far id, far entry symbol *)
  xhome : Color.t option;
  xorder : int;  (* discovery order = map node index *)
}

type t = {
  graph : Graph.t;
  labeling : Labeling.t;
  my_home : int;
  identities : Identity.t array;
  index_of : int Identity.Tbl.t;
  home_colors : Color.t option array;
  port_symbols : Symbol.t array array;  (* by graph port index *)
  bicolored : Bicolored.t;
}

let home_color_of_board board =
  List.find_map
    (fun s -> if Sign.has_tag Engine.home_tag s then Some s.Sign.color else None)
    board

let explore (ctx : Protocol.ctx) =
  let tbl : xnode Identity.Tbl.t = Identity.Tbl.create 32 in
  let seq = ref 0 in
  let order = ref 0 in
  let ensure_id (obs : Protocol.observation) =
    match List.find_opt (Sign.has_tag node_id_tag) obs.board with
    | Some s -> { Identity.color = s.Sign.color; body = s.Sign.body }
    | None ->
        let body = string_of_int !seq in
        incr seq;
        Script.post ~tag:node_id_tag ~body ();
        { Identity.color = ctx.color; body }
  in
  (* [visit obs id]: the agent stands at the yet-unrecorded node [id];
     records it, probes all ports, recursing into unseen neighbors.
     Invariant: returns with the agent back at [id]. *)
  let rec visit (obs : Protocol.observation) id =
    let deg = obs.degree in
    let node =
      {
        xid = id;
        xports = Array.of_list (Lazy.force obs.ports);
        xadj = Array.make deg None;
        xhome = home_color_of_board obs.board;
        xorder = !order;
      }
    in
    incr order;
    Identity.Tbl.add tbl id node;
    for i = 0 to deg - 1 do
      let s = node.xports.(i) in
      let obs' = Script.move s in
      let id' = ensure_id obs' in
      let back =
        match obs'.entry with
        | Some e -> e
        | None -> Script.halt (Protocol.Aborted "map: no entry symbol")
      in
      node.xadj.(i) <- Some (id', back);
      if not (Identity.Tbl.mem tbl id') then visit obs' id';
      ignore (Script.move back)
    done
  in
  let obs0 = Script.observe () in
  let id0 = ensure_id obs0 in
  (* re-observe in case we just posted the node-id (board changed) *)
  let obs0 = Script.observe () in
  visit obs0 id0;
  (* --- build the map --- *)
  let n = !order in
  let nodes = Array.make n None in
  Identity.Tbl.iter (fun _ x -> nodes.(x.xorder) <- Some x) tbl;
  let nodes =
    Array.map (function Some x -> x | None -> assert false) nodes
  in
  let index_of = Identity.Tbl.create n in
  Array.iteri (fun i x -> Identity.Tbl.add index_of x.xid i) nodes;
  let far u i =
    match nodes.(u).xadj.(i) with
    | Some (id', back) ->
        let v = Identity.Tbl.find index_of id' in
        (* the exploration port at v whose symbol is [back] and whose far
           end is [u] with symbol matching — for parallel edges we must
           match the port whose adjacency points back with our symbol *)
        let my_sym = nodes.(u).xports.(i) in
        let rec find j =
          if j >= Array.length nodes.(v).xports then
            failwith "map: dangling adjacency"
          else
            match nodes.(v).xadj.(j) with
            | Some (id_back, back_sym)
              when Symbol.equal nodes.(v).xports.(j) back
                   && Identity.equal id_back nodes.(u).xid
                   && Symbol.equal back_sym my_sym
                   && not (v = u && j = i) ->
                j
            | _ -> find (j + 1)
        in
        (v, find 0)
    | None -> assert false
  in
  (* Edge list: one entry per unordered dart pair, in scan order; remember
     the exploration ports of both endpoints. *)
  let edges = ref [] and edge_ports = ref [] in
  for u = 0 to n - 1 do
    Array.iteri
      (fun i _ ->
        let v, j = far u i in
        if (u, i) <= (v, j) then begin
          edges := (u, v) :: !edges;
          edge_ports := (i, j) :: !edge_ports
        end)
      nodes.(u).xadj
  done;
  let edges = List.rev !edges and edge_ports = Array.of_list (List.rev !edge_ports) in
  let graph = Graph.of_edges ~n edges in
  (* translate graph ports to exploration ports *)
  let port_symbols =
    Array.init n (fun u ->
        Array.make (Graph.degree graph u) (Symbol.mint "!"))
  in
  let seen_loop_first = Hashtbl.create 8 in
  for u = 0 to n - 1 do
    Graph.iter_darts graph u (fun gp _dst _dst_port edge ->
        let pi, pj = edge_ports.(edge) in
        let a, b = Graph.edge_endpoints graph edge in
        let xp =
          if a = b then begin
            (* loop: the first of the two graph ports carries pi *)
            if Hashtbl.mem seen_loop_first (edge, u) then pj
            else begin
              Hashtbl.add seen_loop_first (edge, u) ();
              pi
            end
          end
          else if u = a then pi
          else pj
        in
        port_symbols.(u).(gp) <- nodes.(u).xports.(xp))
  done;
  (* agent-local integer coding of symbols, for the labeling view *)
  let sym_codes = Symbol.Tbl.create 16 in
  let next_code = ref 0 in
  let code s =
    match Symbol.Tbl.find_opt sym_codes s with
    | Some c -> c
    | None ->
        let c = !next_code in
        incr next_code;
        Symbol.Tbl.add sym_codes s c;
        c
  in
  let labeling =
    Labeling.make graph (fun u gp -> code port_symbols.(u).(gp))
  in
  let home_colors = Array.map (fun x -> x.xhome) nodes in
  let blacks =
    List.filter
      (fun u -> home_colors.(u) <> None)
      (List.init n Fun.id)
  in
  let bicolored = Bicolored.make graph ~black:blacks in
  let identities = Array.map (fun x -> x.xid) nodes in
  {
    graph;
    labeling;
    my_home = 0;
    identities;
    index_of;
    home_colors;
    port_symbols;
    bicolored;
  }

let graph m = m.graph
let size m = Graph.n m.graph
let my_home m = m.my_home
let identity m u = m.identities.(u)
let home_color m u = m.home_colors.(u)

let home_bases m =
  List.filter
    (fun u -> m.home_colors.(u) <> None)
    (List.init (size m) Fun.id)

let home_of_color m c =
  let rec go = function
    | [] -> None
    | u :: tl -> (
        match m.home_colors.(u) with
        | Some c' when Color.equal c c' -> Some u
        | _ -> go tl)
  in
  go (home_bases m)

let bicolored m = m.bicolored
let symbol_at m u i = m.port_symbols.(u).(i)

let port_of_symbol m u s =
  let arr = m.port_symbols.(u) in
  let rec go i =
    if i >= Array.length arr then None
    else if Symbol.equal arr.(i) s then Some i
    else go (i + 1)
  in
  go 0

let labeling m = m.labeling
