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

let is_identity phi =
  let id = ref true in
  Array.iteri (fun i v -> if i <> v then id := false) phi;
  !id

let is_fixed_point_free phi =
  let fpf = ref true in
  Array.iteri (fun i v -> if i = v then fpf := false) phi;
  !fpf

(* Orbit of node 0 under the claimed generators: directed closure
   suffices because each generator has finite order, so its inverse is
   a power of it — if w is reachable, so is everything in its orbit. *)
let one_orbit n gens =
  let reach = Array.make n false in
  let queue = Array.make n 0 in
  reach.(0) <- true;
  queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    List.iter
      (fun (phi : int array) ->
        let v = phi.(u) in
        if not reach.(v) then begin
          reach.(v) <- true;
          queue.(!tail) <- v;
          incr tail
        end)
      gens
  done;
  !tail = n

let verify g (w : Graph.witness) =
  let n = Graph.n g in
  let gens = Array.to_list w.Graph.w_gens in
  List.for_all (is_automorphism g) gens && one_orbit n gens

let certified g =
  match Graph.transitivity_witness g with
  | None -> None
  | Some w -> (
      match Graph.witness_verdict g with
      | Some true -> Some w
      | Some false -> None
      | None ->
          let ok = verify g w in
          Graph.set_witness_verdict g ok;
          if ok then Some w else None)

(* Regular (Cayley) provenance of the translation family, checked on a
   deterministic sample: sharp transitivity (λ_w(0) = w, fixed-point
   freeness, automorphism) on a handful of spread-out targets and
   closure (λ_u ∘ λ_v = λ_{λ_u(v)}) on their consecutive pairs. Full
   verification would be O(n·m) and defeat the fast path — and each
   oracle call can itself cost O(n·d) for presentation-backed groups, so
   the sample makes only a linear number of them. The sample plus the
   differential tests against the regular-subgroup search on small
   instances is the trust argument (DESIGN §14). Consumers only ever
   draw POSITIVE conclusions from this — a failed check falls back to
   the search. The outcome is memoized on the graph next to the witness
   verdict, so the probes run once per graph. *)
let check_regular g =
  match certified g with
  | None -> None
  | Some w ->
      let n = Graph.n g in
      if n < 2 then None
      else begin
        let tr = w.Graph.w_translation in
        let targets =
          List.sort_uniq compare
            (List.filter (fun v -> v >= 0 && v < n)
               [ 0; 1; 2; n / 3; n / 2; n - 1 ])
        in
        (* each probe translation is fetched from the oracle exactly once *)
        let probes = List.map (fun v -> (v, tr v)) targets in
        let check_one (v, (phi : int array)) =
          Array.length phi = n
          && phi.(0) = v
          && (v = 0 || is_fixed_point_free phi)
          && is_automorphism g phi
        in
        let compose a b = Array.init n (fun i -> a.(b.(i))) in
        let rec closure_chain = function
          | (_, lu) :: ((v', lv) :: _ as rest) ->
              compose lu lv = tr lu.(v') && closure_chain rest
          | _ -> true
        in
        if List.for_all check_one probes && closure_chain probes then
          (* the exhibit: a fully verified non-identity translation *)
          List.assoc_opt 1 probes
        else None
      end

let certified_regular g =
  match Graph.regular_exhibit g with
  | Some e -> e
  | None ->
      let e = check_regular g in
      Graph.set_regular_exhibit g e;
      e

let certified_translation g ~to_:v =
  match certified g with
  | None -> None
  | Some w ->
      let phi = w.Graph.w_translation v in
      (* the translation oracle is untrusted too: check this one map *)
      if
        Array.length phi = Graph.n g
        && phi.(0) = v
        && is_automorphism g phi
        && (v = 0 || is_fixed_point_free phi)
      then Some phi
      else None
