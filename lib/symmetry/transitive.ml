module Graph = Qe_graph.Graph

(* A generator phi is an automorphism iff for every node u the multiset
   { phi(v) : v neighbor of u } equals the neighbor multiset of phi(u).
   The graph's memoized sorted adjacency is the right-hand side, so a
   check is O(m log d) with one degree-sized buffer — no Hashtbls, no
   dart records, no per-call copy of the adjacency. *)

let is_permutation n (phi : int array) =
  Array.length phi = n
  &&
  let seen = Array.make n false in
  let ok = ref true in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then ok := false else seen.(v) <- true)
    phi;
  !ok

let is_automorphism g (phi : int array) =
  let c = Graph.csr g in
  let n = c.Qe_graph.Csr.n in
  let off = c.Qe_graph.Csr.off and dst = c.Qe_graph.Csr.dst in
  is_permutation n phi
  &&
  (* sorted image of each node's neighbor slice vs the sorted neighbor
     slice at the image node *)
  let sorted = Graph.sorted_neighbors g in
  let buf = Array.make (Graph.max_degree g) 0 in
  let ok = ref true in
  let u = ref 0 in
  while !ok && !u < n do
    let lo = off.(!u) and hi = off.(!u + 1) in
    let v = phi.(!u) in
    if off.(v + 1) - off.(v) <> hi - lo then ok := false
    else begin
      for a = lo to hi - 1 do
        buf.(a - lo) <- phi.(dst.(a))
      done;
      Qe_graph.Csr.sort_range buf 0 (hi - lo);
      let b = ref off.(v) in
      for i = 0 to hi - lo - 1 do
        if buf.(i) <> sorted.(!b) then ok := false;
        incr b
      done
    end;
    incr u
  done;
  !ok

(* Orbit of node 0 under the first [k] generators: directed closure
   suffices because each generator has finite order, so its inverse is
   a power of it — if w is reachable, so is everything in its orbit. *)
let one_orbit n (gens : int array array) k =
  let reach = Array.make n false in
  let queue = Array.make n 0 in
  reach.(0) <- true;
  queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = 0 to k - 1 do
      let v = gens.(i).(u) in
      if not reach.(v) then begin
        reach.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail = n

(* The shortest prefix of verified automorphisms with one orbit: a
   prefix is only orbit-checked once each of its generators passed
   [is_automorphism], and the generators after it are never read. *)
let verify g (w : Graph.witness) =
  let n = Graph.n g and gens = w.Graph.w_gens in
  let rec go k =
    if one_orbit n gens k then Some { Graph.w_gens = Array.sub gens 0 k }
    else if k < Array.length gens && is_automorphism g gens.(k) then
      go (k + 1)
    else None
  in
  go 0

let certified g =
  match Graph.transitivity_witness g with
  | None -> None
  | Some w -> (
      match Graph.certified_witness g with
      | Some c -> c
      | None ->
          let c = verify g w in
          Graph.set_certified_witness g c;
          c)

(* One pass, one [bool] array: walk each unvisited node's cycle and
   compare its length with the first one's. *)
let uniform_cycle_length (phi : int array) =
  let n = Array.length phi in
  let seen = Array.make n false in
  let len = ref 0 and ok = ref (n > 0) and u = ref 0 in
  while !ok && !u < n do
    if not seen.(!u) then begin
      let l = ref 0 and v = ref !u in
      while not seen.(!v) do
        seen.(!v) <- true;
        v := phi.(!v);
        incr l
      done;
      if !v <> !u || (!len <> 0 && !l <> !len) then ok := false;
      len := !l
    end;
    incr u
  done;
  if !ok then Some !len else None

(* The deductive Unsolvable exhibit (DESIGN §14.3): a certified
   generator whose cycles share one length L >= 2. Every generator of
   the certified prefix already passed [is_automorphism], so this is an
   O(n) scan per generator. *)
let certified_regular g =
  match certified g with
  | None -> None
  | Some w ->
      Array.find_opt
        (fun phi ->
          match uniform_cycle_length phi with Some l -> l >= 2 | None -> false)
        w.Graph.w_gens
