module Graph = Qe_graph.Graph
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Jsonl = Qe_obs.Jsonl

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

(* The shortest prefix of verified automorphisms with one orbit, and
   how many generators were checked. The orbits of the first k
   generators are the components of the graph with edges u-phi(u) for
   those generators (each has finite order, so its inverse is a power of
   it): one union-find grows them as each generator passes
   [is_automorphism], O(n) near-constant finds per generator, and the
   generators after the prefix are never read. *)
let verify_counted g (w : Graph.witness) =
  let n = Graph.n g and gens = w.Graph.w_gens in
  let len = Array.length gens in
  let parent = Array.init n Fun.id in
  (* path halving, tail-recursive: a long chain cannot blow the stack *)
  let rec find u =
    let p = parent.(u) in
    if p = u then u
    else begin
      let gp = parent.(p) in
      parent.(u) <- gp;
      find gp
    end
  in
  let orbits = ref n in
  let join (phi : int array) =
    for u = 0 to n - 1 do
      let a = find u and b = find phi.(u) in
      if a <> b then begin
        parent.(a) <- b;
        decr orbits
      end
    done
  in
  let rec go k =
    if !orbits = 1 then (Some { Graph.w_gens = Array.sub gens 0 k }, k)
    else if k < len && is_automorphism g gens.(k) then begin
      join gens.(k);
      go (k + 1)
    end
    else (None, min (k + 1) len)
  in
  go 0

let verify g w = fst (verify_counted g w)

(* A first ask verifies, under a [transitive.certify] span when an
   ambient sink is installed; later asks read the cached verdict. *)
let certify g w =
  match Sink.ambient () with
  | None -> verify g w
  | Some sink ->
      let t = sink.Sink.spans in
      let span = Span.enter t "transitive.certify" in
      Fun.protect ~finally:(fun () -> ignore (Span.exit t span)) @@ fun () ->
      let c, checked = verify_counted g w in
      Span.add_attr span "checked" (Jsonl.Int checked);
      Span.add_attr span "prefix"
        (match c with
        | Some c -> Jsonl.Int (Array.length c.Graph.w_gens)
        | None -> Jsonl.Null);
      c

let certified g =
  match Graph.transitivity_witness g with
  | None -> None
  | Some w -> (
      match Graph.certified_witness g with
      | Some c -> c
      | None ->
          let c = certify g w in
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
