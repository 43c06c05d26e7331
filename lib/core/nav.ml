module Graph = Qe_graph.Graph
module Csr = Qe_graph.Csr
module Script = Qe_runtime.Script

(* Every [goto] runs its BFS in [via] and [queue], sized once to the map,
   so a walk allocates nothing. *)
type t = {
  map : Mapping.t;
  csr : Csr.t;
  mutable pos : int;
  via : int array;
      (* [via.(u)]: the port to take at [u] to get one step closer to the
         current target, -1 at the target *)
  queue : int array;
}

let create map =
  let g = Mapping.graph map in
  let n = Graph.n g in
  {
    map;
    csr = Graph.csr g;
    pos = Mapping.my_home map;
    via = Array.make n (-1);
    queue = Array.make n 0;
  }

let map t = t.map
let position t = t.pos
let observe (_ : t) = Script.observe ()

let step t port =
  let c = t.csr in
  let dst = c.Csr.dst.(c.Csr.off.(t.pos) + port) in
  let obs = Script.move (Mapping.symbol_at t.map t.pos port) in
  t.pos <- dst;
  obs

(* BFS from [target] into [t.via], so parents point toward it. *)
let bfs t target =
  let c = t.csr and q = t.queue and via = t.via in
  Array.fill via 0 (Array.length via) (-1);
  q.(0) <- target;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    for a = c.Csr.off.(v) to c.Csr.off.(v + 1) - 1 do
      let dst = c.Csr.dst.(a) in
      if dst <> target && via.(dst) < 0 then begin
        (* from dst, moving through its port dst_port reaches v *)
        via.(dst) <- c.Csr.dst_port.(a);
        q.(!tail) <- dst;
        incr tail
      end
    done
  done

let goto t target =
  if t.pos = target then Script.observe ()
  else begin
    bfs t target;
    let obs = ref (step t t.via.(t.pos)) in
    while t.pos <> target do
      obs := step t t.via.(t.pos)
    done;
    !obs
  end

let tour t f =
  let g = Mapping.graph t.map in
  let walk = Qe_graph.Traverse.closed_node_walk_array g t.pos in
  let seen = Array.make (Graph.n g) false in
  let apply obs =
    if not seen.(t.pos) then begin
      seen.(t.pos) <- true;
      f t.pos obs
    end
  in
  apply (Script.observe ());
  Array.iter (fun port -> apply (step t port)) walk

let wait_here (_ : t) pred =
  let rec loop obs =
    match pred obs with Some x -> x | None -> loop (Script.wait ())
  in
  loop (Script.observe ())
