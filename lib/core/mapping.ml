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

(* Exploration-time record of one node; nodes are numbered by discovery
   order, which is the map's node numbering. *)
type xnode = {
  xid : Identity.t;
  xports : Symbol.t array;  (* in this agent's presentation order *)
  xfar : int array;  (* discovery index of the far end of each port *)
  xback : Symbol.t array;  (* the far end's entry symbol of each port *)
  xhome : Color.t option;
}

type t = {
  graph : Graph.t;
  my_home : int;
  identities : Identity.t array;
  home_colors : Color.t option array;
  home_bases : int list;
  port_symbols : Symbol.t array;  (* by CSR arc: node offset + port *)
  bicolored : Bicolored.t;
}

let home_color_of_board board =
  List.find_map
    (fun s -> if Sign.has_tag Engine.home_tag s then Some s.Sign.color else None)
    board

(* [far_port nodes u i]: the exploration port at the far end [v] of port
   [i] of [u] that leads back: its symbol is [u]'s recorded entry symbol,
   and its own record points back at [u] through [i]'s symbol — for
   parallel edges and loops the port must match both ways. *)
let far_port nodes u i =
  let x = nodes.(u) in
  let v = x.xfar.(i) and back = x.xback.(i) and mine = x.xports.(i) in
  let y = nodes.(v) in
  let deg = Array.length y.xports in
  let j = ref 0 in
  while
    !j < deg
    && not
         (Symbol.equal y.xports.(!j) back
         && y.xfar.(!j) = u
         && Symbol.equal y.xback.(!j) mine
         && not (v = u && !j = i))
  do
    incr j
  done;
  if !j = deg then failwith "map: dangling adjacency";
  !j

(* The map from the exploration records, on int arrays only: one edge per
   unordered dart pair, in scan order ((u, i) before its far end (v, j)),
   each remembering the exploration ports of both endpoints. *)
let build nodes =
  let n = Array.length nodes in
  let darts =
    Array.fold_left (fun acc x -> acc + Array.length x.xports) 0 nodes
  in
  let m = darts / 2 in
  let eu = Array.make m 0 and ev = Array.make m 0 in
  let pi = Array.make m 0 and pj = Array.make m 0 in
  let e = ref 0 in
  for u = 0 to n - 1 do
    for i = 0 to Array.length nodes.(u).xports - 1 do
      let v = nodes.(u).xfar.(i) and j = far_port nodes u i in
      if u < v || (u = v && i <= j) then begin
        eu.(!e) <- u;
        ev.(!e) <- v;
        pi.(!e) <- i;
        pj.(!e) <- j;
        incr e
      end
    done
  done;
  let graph = Graph.of_csr (Qe_graph.Csr.of_endpoints ~n eu ev) in
  (* translate graph ports to exploration ports: a loop's two graph ports
     are consecutive, and the first (whose far port is the higher one)
     carries [pi] *)
  let c = Graph.csr graph in
  let port_symbols =
    if darts = 0 then [||] else Array.make darts nodes.(0).xports.(0)
  in
  for u = 0 to n - 1 do
    for a = c.off.(u) to c.off.(u + 1) - 1 do
      let e = c.edge.(a) in
      let xp =
        if eu.(e) = ev.(e) then
          if a - c.off.(u) < c.dst_port.(a) then pi.(e) else pj.(e)
        else if u = eu.(e) then pi.(e)
        else pj.(e)
      in
      port_symbols.(a) <- nodes.(u).xports.(xp)
    done
  done;
  let home_colors = Array.map (fun x -> x.xhome) nodes in
  let home_bases =
    List.filter (fun u -> Option.is_some home_colors.(u)) (List.init n Fun.id)
  in
  {
    graph;
    my_home = 0;
    identities = Array.map (fun x -> x.xid) nodes;
    home_colors;
    home_bases;
    port_symbols;
    bicolored = Bicolored.make graph ~black:home_bases;
  }

let explore (ctx : Protocol.ctx) =
  let index : int Identity.Tbl.t = Identity.Tbl.create 32 in
  let found = ref [] in  (* exploration records, newest first *)
  let order = ref 0 in
  let seq = ref 0 in
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
    let xports = Array.of_list (Lazy.force obs.ports) in
    let node =
      {
        xid = id;
        xports;
        xfar = Array.make deg (-1);
        xback = Array.copy xports;
        xhome = home_color_of_board obs.board;
      }
    in
    Identity.Tbl.add index id !order;
    incr order;
    found := node :: !found;
    for i = 0 to deg - 1 do
      let obs' = Script.move xports.(i) in
      let id' = ensure_id obs' in
      let back =
        match obs'.entry with
        | Some e -> e
        | None -> Script.halt (Protocol.Aborted "map: no entry symbol")
      in
      node.xback.(i) <- back;
      (match Identity.Tbl.find index id' with
      | v -> node.xfar.(i) <- v
      | exception Not_found ->
          node.xfar.(i) <- !order;
          visit obs' id');
      ignore (Script.move back)
    done
  in
  let obs0 = Script.observe () in
  let id0 = ensure_id obs0 in
  (* re-observe in case we just posted the node-id (board changed) *)
  let obs0 = Script.observe () in
  visit obs0 id0;
  build (Array.of_list (List.rev !found))

let graph m = m.graph
let size m = Graph.n m.graph
let my_home m = m.my_home
let identity m u = m.identities.(u)
let home_color m u = m.home_colors.(u)

let home_bases m = m.home_bases

let home_of_color m c =
  List.find_opt
    (fun u ->
      match m.home_colors.(u) with
      | Some c' -> Color.equal c c'
      | None -> false)
    m.home_bases

let bicolored m = m.bicolored
let symbol_at m u i =
  if i < 0 || i >= Graph.degree m.graph u then
    invalid_arg "Mapping.symbol_at: port out of range";
  m.port_symbols.((Graph.csr m.graph).off.(u) + i)

let port_of_symbol m u s =
  let off = (Graph.csr m.graph).off in
  let rec go a =
    if a >= off.(u + 1) then None
    else if Symbol.equal m.port_symbols.(a) s then Some (a - off.(u))
    else go (a + 1)
  in
  go off.(u)

(* agent-local integer coding of symbols, in order of first appearance *)
let labeling m =
  let codes = Symbol.Tbl.create 16 in
  let code s =
    match Symbol.Tbl.find_opt codes s with
    | Some c -> c
    | None ->
        let c = Symbol.Tbl.length codes in
        Symbol.Tbl.add codes s c;
        c
  in
  let off = (Graph.csr m.graph).off in
  Labeling.make m.graph (fun u i -> code m.port_symbols.(off.(u) + i))
