(* The instance-size frontier: the presentation-backed Cayley generator,
   the verified transitivity witness, and the Classes/Oracle fast paths.

   The contract under test is differential: on every Cayley family the
   fast path (verified witness + uniform placement) must produce exactly
   the partition the full automorphism search produces, and everything
   that is not a certified uniform Cayley instance must fall through to
   the full search. *)

module Graph = Qe_graph.Graph
module Families = Qe_graph.Families
module Bicolored = Qe_graph.Bicolored
module Labeling = Qe_graph.Labeling
module Group = Qe_group.Group
module Cayley = Qe_group.Cayley
module P = Qe_group.Presentation
module Classes = Qe_symmetry.Classes
module Transitive = Qe_symmetry.Transitive
module Oracle = Qe_elect.Oracle

let all_black g = Bicolored.make g ~black:(List.init (Graph.n g) Fun.id)

let partitions_agree n a b =
  Classes.num_classes a = Classes.num_classes b
  &&
  let map = Array.make (Classes.num_classes a) (-1) in
  let ok = ref true in
  for u = 0 to n - 1 do
    let ca = Classes.class_of_node a u and cb = Classes.class_of_node b u in
    if map.(ca) = -1 then map.(ca) <- cb else if map.(ca) <> cb then ok := false
  done;
  !ok

let check_fast_equals_slow name g =
  let b = all_black g in
  let fast = Classes.compute b in
  let slow = Classes.compute_slow b in
  Alcotest.(check bool) (name ^ ": fast path taken") true
    (Classes.used_fast_path fast);
  Alcotest.(check bool) (name ^ ": slow path is slow") false
    (Classes.used_fast_path slow);
  Alcotest.(check bool)
    (name ^ ": partitions agree")
    true
    (partitions_agree (Graph.n g) fast slow);
  Alcotest.(check int) (name ^ ": one class") 1 (Classes.num_classes fast);
  (* the paper-facing accessors agree too *)
  Alcotest.(check (list int))
    (name ^ ": sizes")
    (Classes.sizes slow) (Classes.sizes fast);
  Alcotest.(check int)
    (name ^ ": representative")
    (Classes.representative slow 0)
    (Classes.representative fast 0)

(* every table-backed Cayley family from the group layer *)
let test_families () =
  List.iter
    (fun (name, t) -> check_fast_equals_slow name t.P.graph)
    [
      ("ring 12", Cayley.ring 12);
      ("hypercube 3", Cayley.hypercube 3);
      ("torus 3x4", Cayley.torus 3 4);
      ("circulant 10 {1,3}", P.circulant 10 [ 1; 3 ]);
      ("star_graph 4", Cayley.star_graph 4);
      ("ccc 3", P.cube_connected_cycles 3);
    ]

(* presentation-backed instances take the same fast path *)
let test_presentation_instances () =
  List.iter
    (fun (name, (inst : P.instance)) -> check_fast_equals_slow name inst.P.graph)
    [
      ("P.circulant 24 {1,5}", P.circulant 24 [ 1; 5 ]);
      ("P.ccc 3", P.cube_connected_cycles 3);
      ("P.dihedral 9", P.cayley (P.dihedral 9) [ 9; 10 ]);
      ("P.wreath 3:3", P.cayley (P.wreath_shift ~base:3 3) [ 1; 3 ]);
    ]

(* non-transitive instances must fall through to the full search *)
let test_negatives () =
  List.iter
    (fun (name, g) ->
      let b = all_black g in
      let t = Classes.compute b in
      Alcotest.(check bool) (name ^ ": no fast path") false
        (Classes.used_fast_path t);
      Alcotest.(check bool)
        (name ^ ": matches slow")
        true
        (partitions_agree (Graph.n g) t (Classes.compute_slow b)))
    [
      ("path 5", Families.path 5);
      ("star 5", Families.star 5);
      ("binary tree 3", Families.binary_tree 3);
      ("wheel 6", Families.wheel 6);
    ]

(* a Cayley graph with a non-uniform placement is transitive but the
   translations only refine the true classes — must use the full search *)
let test_partial_placement () =
  let g = (Cayley.ring 8).P.graph in
  let b = Bicolored.make g ~black:[ 0 ] in
  let t = Classes.compute b in
  Alcotest.(check bool) "non-uniform: slow path" false
    (Classes.used_fast_path t);
  (* ring with one agent: classes are the distance spheres from node 0 *)
  Alcotest.(check int) "ring8 single agent classes" 5 (Classes.num_classes t)

(* the trust boundary: a bogus witness must be rejected, not believed *)
let test_bogus_witness_rejected () =
  let g = Families.cycle 6 in
  (* swap two adjacency images: not an automorphism *)
  let bad = [| 1; 0; 2; 3; 4; 5 |] in
  Graph.set_transitivity_witness g { Graph.w_gens = [| bad |] };
  Alcotest.(check bool) "bad generator rejected" true
    (Transitive.certified g = None);
  Alcotest.(check bool) "verdict cached as false" true
    (Graph.witness_verdict g = Some false);
  let b = all_black g in
  let t = Classes.compute b in
  Alcotest.(check bool) "classes fall back to slow path" false
    (Classes.used_fast_path t);
  Alcotest.(check int) "still one class" 1 (Classes.num_classes t)

(* (01)(234) on K5 moves every node, but its square fixes 0 and 1 while
   permuting their darts, so it preserves no labeling: transitivity
   certifies, the Unsolvable exhibit must not, and the verdict comes
   from the search *)
let test_unequal_cycles_rejected () =
  let g = Families.complete 5 in
  Graph.set_transitivity_witness g
    { Graph.w_gens = [| [| 1; 0; 3; 4; 2 |]; [| 2; 1; 0; 3; 4 |] |] };
  Alcotest.(check bool) "transitivity certifies" true
    (Transitive.certified g <> None);
  Alcotest.(check bool) "no exhibit" true
    (Transitive.certified_regular g = None);
  let b = all_black g in
  Alcotest.(check bool) "search finds a preserving translation" true
    (Oracle.translation_impossible b);
  Alcotest.(check bool) "predict unsolvable" true
    (Oracle.predict b = Oracle.Unsolvable)

let is_exhibit g phi =
  Transitive.is_automorphism g phi
  &&
  match Transitive.uniform_cycle_length phi with
  | Some l -> l >= 2
  | None -> false

let test_certified_regular_good () =
  List.iter
    (fun (name, g) ->
      match Transitive.certified_regular g with
      | None -> Alcotest.failf "%s: expected an exhibit" name
      | Some phi ->
          Alcotest.(check bool)
            (name ^ ": exhibit is an equal-cycle automorphism")
            true (is_exhibit g phi))
    [
      ("ring 12", (Cayley.ring 12).P.graph);
      ("P.ccc 4", (P.cube_connected_cycles 4).P.graph);
      ("star_graph 4", (Cayley.star_graph 4).P.graph);
    ]

(* certification keeps the shortest verified prefix with one orbit: a
   bogus generator after it is never read, one inside it rejects *)
let test_shortest_prefix () =
  let n = 6 in
  let rot = Array.init n (fun i -> (i + 1) mod n) in
  let bogus = [| 1; 0; 2; 3; 4; 5 |] in
  let g = Families.cycle n in
  Graph.set_transitivity_witness g { Graph.w_gens = [| rot; bogus |] };
  (match Transitive.certified g with
  | Some w ->
      Alcotest.(check int) "prefix of one" 1 (Array.length w.Graph.w_gens)
  | None -> Alcotest.fail "[rotation; bogus] should certify");
  (match Transitive.certified_regular g with
  | Some phi ->
      Alcotest.(check bool) "exhibit is not the bogus map" true
        (phi <> bogus && is_exhibit g phi)
  | None -> Alcotest.fail "[rotation; bogus] should give an exhibit");
  let g = Families.cycle n in
  Graph.set_transitivity_witness g { Graph.w_gens = [| bogus; rot |] };
  Alcotest.(check bool) "[bogus; rotation] rejected" true
    (Transitive.certified g = None);
  Alcotest.(check bool) "no exhibit" true
    (Transitive.certified_regular g = None)

(* the first ask on a graph verifies under one [transitive.certify]
   span; a second ask reads the cached verdict and records nothing *)
let test_certify_span () =
  let certify_spans g =
    let sink = Qe_obs.Sink.create () in
    let c = Qe_obs.Sink.with_ambient sink (fun () -> Transitive.certified g) in
    (c, Qe_obs.Span.roots sink.Qe_obs.Sink.spans)
  in
  let attrs (s : Qe_obs.Span.closed) = s.attrs in
  let g = (P.circulant 12 [ 1; 5 ]).P.graph in
  (match certify_spans g with
  | Some w, [ s ] ->
      let k = Array.length w.Graph.w_gens in
      Alcotest.(check string) "name" "transitive.certify" s.name;
      Alcotest.(check bool) "checked and prefix" true
        (attrs s
        = [ ("checked", Qe_obs.Jsonl.Int k); ("prefix", Qe_obs.Jsonl.Int k) ])
  | None, _ -> Alcotest.fail "circulant 12 should certify"
  | _, roots ->
      Alcotest.failf "expected one span, got %d" (List.length roots));
  Alcotest.(check int) "second ask: no span" 0
    (List.length (snd (certify_spans g)));
  let g = Families.cycle 6 in
  Graph.set_transitivity_witness g
    { Graph.w_gens = [| [| 1; 0; 2; 3; 4; 5 |] |] };
  match certify_spans g with
  | None, [ s ] ->
      Alcotest.(check bool) "rejected: one checked, no prefix" true
        (attrs s
        = [ ("checked", Qe_obs.Jsonl.Int 1); ("prefix", Qe_obs.Jsonl.Null) ])
  | _ -> Alcotest.fail "a bogus witness should be rejected under one span"

(* the union-find prefix search against the per-prefix orbit BFS it
   replaced, on shuffled Cayley witnesses with one bogus generator
   spliced in at a random position *)
let prop_verify_vs_bfs =
  let bfs_one_orbit n (gens : int array array) k =
    let reach = Array.make n false and queue = Queue.create () in
    reach.(0) <- true;
    Queue.add 0 queue;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      for i = 0 to k - 1 do
        let v = gens.(i).(u) in
        if not reach.(v) then begin
          reach.(v) <- true;
          incr count;
          Queue.add v queue
        end
      done
    done;
    !count = n
  in
  QCheck.Test.make ~name:"verify = per-prefix orbit BFS" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (fam, seed) ->
      let rng = Random.State.make [| seed |] in
      let g =
        match fam with
        | 0 -> (Cayley.hypercube (2 + Random.State.int rng 4)).P.graph
        | 1 ->
            (Cayley.torus (3 + Random.State.int rng 4)
               (3 + Random.State.int rng 4))
              .P.graph
        | 2 -> (P.cube_connected_cycles (3 + Random.State.int rng 2)).P.graph
        | _ -> (P.circulant (8 + Random.State.int rng 20) [ 1; 2; 3 ]).P.graph
      in
      let n = Graph.n g in
      let w = Option.get (Graph.transitivity_witness g) in
      let gens = Array.copy w.Graph.w_gens in
      for i = Array.length gens - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = gens.(i) in
        gens.(i) <- gens.(j);
        gens.(j) <- t
      done;
      let bogus = Array.init n (fun u -> if u < 2 then 1 - u else u) in
      let at = Random.State.int rng (Array.length gens + 1) in
      let gens =
        Array.concat
          [
            Array.sub gens 0 at;
            [| bogus |];
            Array.sub gens at (Array.length gens - at);
          ]
      in
      let expected =
        let rec go k =
          if bfs_one_orbit n gens k then Some k
          else if
            k < Array.length gens && Transitive.is_automorphism g gens.(k)
          then go (k + 1)
          else None
        in
        go 0
      in
      Option.map
        (fun c -> Array.length c.Graph.w_gens)
        (Transitive.verify g { Graph.w_gens = gens })
      = expected)

(* the certified prefix is memoized on the graph; attaching a new witness
   must drop it, in both directions *)
let test_new_witness_reverified () =
  let g = Families.complete 5 in
  let semiregular = { Graph.w_gens = [| [| 1; 2; 3; 4; 0 |] |] } in
  let unequal =
    { Graph.w_gens = [| [| 1; 0; 3; 4; 2 |]; [| 2; 1; 0; 3; 4 |] |] }
  in
  Graph.set_transitivity_witness g semiregular;
  Alcotest.(check bool) "semiregular set gives an exhibit" true
    (Transitive.certified_regular g <> None);
  Alcotest.(check bool) "verification memoized" true
    (Graph.witness_verdict g = Some true);
  Graph.set_transitivity_witness g unequal;
  Alcotest.(check bool) "new witness drops the verdict" true
    (Graph.witness_verdict g = None);
  Alcotest.(check bool) "unequal cycles give none" true
    (Transitive.certified_regular g = None);
  Alcotest.(check bool) "still certified transitive" true
    (Graph.witness_verdict g = Some true);
  Graph.set_transitivity_witness g semiregular;
  Alcotest.(check bool) "semiregular set gives an exhibit again" true
    (Transitive.certified_regular g <> None)

(* reference for the cycle scan: the full cycle decomposition *)
let naive_cycle_lengths (phi : int array) =
  let n = Array.length phi in
  let seen = Array.make n false in
  List.filter_map
    (fun u ->
      if seen.(u) then None
      else begin
        let rec walk v l =
          seen.(v) <- true;
          if phi.(v) = u then l else walk phi.(v) (l + 1)
        in
        Some (walk u 1)
      end)
    (List.init n Fun.id)

let prop_cycle_scan_naive =
  QCheck.Test.make ~name:"cycle scan = naive decomposition" ~count:500
    QCheck.(triple (int_range 1 12) (int_bound 3) (int_bound 1_000_000))
    (fun (n, kind, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done
      in
      let phi =
        match kind with
        | 0 -> Array.init n Fun.id
        | 1 ->
            (* cycles of one length L dividing n, on a shuffled order *)
            let divisors = List.filter (fun l -> n mod l = 0) (List.init n succ) in
            let l = List.nth divisors (Random.State.int rng (List.length divisors)) in
            let order = Array.init n Fun.id in
            shuffle order;
            let phi = Array.make n 0 in
            Array.iteri
              (fun i u ->
                let next = if (i + 1) mod l = 0 then i + 1 - l else i + 1 in
                phi.(u) <- order.(next))
              order;
            phi
        | 2 ->
            (* fixed points next to one longer cycle *)
            let phi = Array.init n Fun.id in
            let k = Random.State.int rng n in
            for i = 0 to k do
              phi.(i) <- (if i = k then 0 else i + 1)
            done;
            phi
        | _ ->
            let a = Array.init n Fun.id in
            shuffle a;
            a
      in
      let expected =
        match List.sort_uniq compare (naive_cycle_lengths phi) with
        | [ l ] -> Some l
        | _ -> None
      in
      Transitive.uniform_cycle_length phi = expected)

(* whenever the witness fires on a small Cayley instance, the
   regular-subgroup search and the natural-labeling check agree *)
let test_witness_vs_search () =
  let built =
    [
      (Cayley.ring 12).P.graph;
      (Cayley.hypercube 3).P.graph;
      (Cayley.torus 3 4).P.graph;
      (P.circulant 10 [ 1; 3 ]).P.graph;
      (P.circulant 12 [ 1; 5 ]).P.graph;
      (P.cayley (P.dihedral 5) [ 5; 6 ]).P.graph;
    ]
  in
  (* zoo topologies carry no witness until recognition attaches one *)
  let recognized =
    List.filter_map
      (fun (i : Qe_elect.Campaign.instance) ->
        let g = i.Qe_elect.Campaign.graph in
        if Graph.n g > 12 then None
        else
          match Qe_symmetry.Cayley_detect.recognize g with
          | Qe_symmetry.Cayley_detect.Cayley _ -> Some g
          | _ -> None)
      (Qe_elect.Campaign.cayley_zoo ())
  in
  Alcotest.(check bool) "zoo recognitions found" true (recognized <> []);
  List.iteri
    (fun i g ->
      let b = all_black g in
      let name = Printf.sprintf "instance %d (n=%d)" i (Graph.n g) in
      match Transitive.certified_regular g with
      | None -> Alcotest.failf "%s: Cayley witness gave no exhibit" name
      | Some _ ->
          Alcotest.(check bool) (name ^ ": search agrees") true
            (Qe_symmetry.Cayley_detect.exists_preserving_translation g
               ~black:(Bicolored.blacks b));
          Alcotest.(check bool) (name ^ ": natural labeling agrees") true
            (Oracle.symmetric_labeling_exists b))
    (built @ recognized)

(* the reference for [is_automorphism]: phi is a permutation mapping the
   edge multiset onto itself *)
let naive_automorphism g (phi : int array) =
  let n = Graph.n g in
  let norm (u, v) = (min u v, max u v) in
  Array.length phi = n
  && List.sort_uniq compare (Array.to_list phi) = List.init n Fun.id
  && List.sort compare (List.map norm (Graph.edges g))
     = List.sort compare
         (List.map (fun (u, v) -> norm (phi.(u), phi.(v))) (Graph.edges g))

let prop_is_automorphism_naive =
  QCheck.Test.make
    ~name:"is_automorphism = naive edge-multiset check" ~count:300
    QCheck.(triple (int_bound 11) (int_bound 3) (int_bound 1_000_000))
    (fun (which, kind, seed) ->
      let rng = Random.State.make [| seed |] in
      let g =
        match which with
        | 0 -> (Cayley.ring 6).P.graph
        | 1 -> (Cayley.hypercube 3).P.graph
        | 2 -> (P.circulant 8 [ 1; 3 ]).P.graph
        | 3 -> (P.cube_connected_cycles 3).P.graph
        | 4 -> (Cayley.torus 3 4).P.graph
        | 5 -> Families.petersen ()
        | 6 -> Families.star 4
        | 7 -> Families.complete 4
        | 8 -> Families.wheel 5
        | 9 -> Families.path 4
        | _ ->
            (* a random multigraph with loops and parallel edges *)
            let n = 2 + Random.State.int rng 4 in
            Graph.of_edges ~n
              (List.init (1 + Random.State.int rng 7) (fun _ ->
                   (Random.State.int rng n, Random.State.int rng n)))
      in
      let n = Graph.n g in
      let phi =
        match (kind, Graph.transitivity_witness g) with
        | 0, _ ->
            let a = Array.init n Fun.id in
            for i = n - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let t = a.(i) in
              a.(i) <- a.(j);
              a.(j) <- t
            done;
            a
        | 1, Some w ->
            w.Graph.w_gens.(Random.State.int rng (Array.length w.Graph.w_gens))
        | 2, _ when n > 1 ->
            (* not a permutation *)
            Array.init n (fun i -> if i = 0 then 1 else i)
        | _ ->
            let a = Array.init n Fun.id in
            let i = Random.State.int rng n and j = Random.State.int rng n in
            a.(i) <- j;
            a.(j) <- i;
            a
      in
      Transitive.is_automorphism g phi = naive_automorphism g phi)

(* the oracle's witness fast path must agree with its own slow path *)
let test_oracle_fast_path () =
  (* uniform all-black on Cayley instances: provably unsolvable *)
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool)
        (name ^ ": predict unsolvable")
        true
        (Oracle.predict (all_black g) = Oracle.Unsolvable))
    [
      ("ring 6", (Cayley.ring 6).P.graph);
      ("P.circulant 18 {1,5}", (P.circulant 18 [ 1; 5 ]).P.graph);
    ];
  (* the same structure without a witness takes the subgroup search and
     must land on the same verdict (structural cache key is shared, so
     compare across distinct structures) *)
  Alcotest.(check bool) "unwitnessed cycle agrees" true
    (Oracle.predict (all_black (Families.cycle 14)) = Oracle.Unsolvable);
  (* the witness's rotation moves a lone agent: not an exhibit *)
  Alcotest.(check bool) "non-uniform placement ignores the witness" true
    (Oracle.predict (Bicolored.make (Cayley.ring 8).P.graph ~black:[ 0 ])
    = Oracle.Solvable)

(* ---------- presentations vs their defining formulas ---------- *)

let check_same_group name (p : P.t) ~order ~mul ~inv =
  Alcotest.(check int) (name ^ ": order") order (P.order p);
  for a = 0 to order - 1 do
    Alcotest.(check int) (Printf.sprintf "%s: inv %d" name a) (inv a) (P.inv p a);
    for b = 0 to order - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: mul %d %d" name a b)
        (mul a b) (P.mul p a b)
    done
  done

let md k a = ((a mod k) + k) mod k

(* [P.wreath_shift] rotates and xors in O(1); pin it to the definition,
   digit by digit: (w, i)·(w', i') = (w + shift_i w', i + i') and
   (w, i)⁻¹ = (shift_{-i} (-w), -i), where digit j of shift_i w is digit
   (j - i) mod d of w. *)
let rec ipow b k = if k = 0 then 1 else b * ipow b (k - 1)

let wreath_reference ~base d =
  let decode x =
    let w = x / d in
    (Array.init d (fun j -> w / ipow base j mod base), x mod d)
  in
  let encode (digits, i) =
    (Array.fold_right (fun dg acc -> (acc * base) + dg) digits 0 * d) + i
  in
  let shift w i = Array.init d (fun j -> w.(md d (j - i))) in
  let mul x y =
    let w, i = decode x and w', i' = decode y in
    let s = shift w' i in
    encode (Array.init d (fun j -> md base (w.(j) + s.(j))), md d (i + i'))
  in
  let inv x =
    let w, i = decode x in
    encode (shift (Array.map (fun dg -> md base (-dg)) w) (-i), md d (-i))
  in
  (mul, inv)

(* Every construction against its defining formula, on every pair. *)
let test_presentation_vs_group () =
  check_same_group "Z12" (P.cyclic 12) ~order:12
    ~mul:(fun a b -> (a + b) mod 12)
    ~inv:(fun a -> md 12 (-a));
  (* (a, b) = 4a + b, componentwise *)
  check_same_group "Z3xZ4"
    (P.product (P.cyclic 3) (P.cyclic 4))
    ~order:12
    ~mul:(fun x y -> (md 3 ((x / 4) + (y / 4)) * 4) + md 4 (x + y))
    ~inv:(fun x -> (md 3 (-(x / 4)) * 4) + md 4 (-x));
  check_same_group "Z2^3" (P.power (P.cyclic 2) 3) ~order:8 ~mul:( lxor )
    ~inv:Fun.id;
  (* base-3 digits, added digit by digit *)
  let digits3 f x y =
    List.fold_left
      (fun acc j -> acc + (f (x / ipow 3 j mod 3) (y / ipow 3 j mod 3) * ipow 3 j))
      0 [ 0; 1; 2 ]
  in
  check_same_group "Z3^3" (P.power (P.cyclic 3) 3) ~order:27
    ~mul:(digits3 (fun a b -> md 3 (a + b)))
    ~inv:(fun x -> digits3 (fun a _ -> md 3 (-a)) x 0);
  (* s^j r^i is j*n + i, and r^i s = s r^-i:
     s^j r^i · s^j' r^i' = s^(j+j') r^((-1)^j' i + i') *)
  let n = 6 in
  let decode x = (x / n, x mod n) in
  let encode j i = (md 2 j * n) + md n i in
  check_same_group "D6" (P.dihedral n) ~order:(2 * n)
    ~mul:(fun x y ->
      let j, i = decode x and j', i' = decode y in
      encode (j + j') ((if j' = 0 then i else -i) + i'))
    ~inv:(fun x ->
      let j, i = decode x in
      encode j (if j = 0 then -i else i));
  let mul, inv = wreath_reference ~base:2 3 in
  check_same_group "Z2wrZ3" (P.semidirect_shift 3) ~order:24 ~mul ~inv;
  let mul, inv = wreath_reference ~base:3 2 in
  check_same_group "Z3wrZ2" (P.wreath_shift ~base:3 2) ~order:18 ~mul ~inv

let prop_wreath_vs_digits =
  let gen =
    QCheck.Gen.(
      bool >>= fun two ->
      let base, dmax = if two then (2, 20) else (3, 12) in
      int_range 1 dmax >>= fun d ->
      let order = ipow base d * d in
      pair (int_bound (order - 1)) (int_bound (order - 1)) >|= fun (x, y) ->
      (base, d, x, y))
  in
  QCheck.Test.make ~name:"wreath_shift mul/inv = digit loops" ~count:1000
    (QCheck.make
       ~print:(fun (b, d, x, y) -> Printf.sprintf "base %d, d %d, x %d, y %d" b d x y)
       gen)
    (fun (base, d, x, y) ->
      let p = P.wreath_shift ~base d in
      let mul, inv = wreath_reference ~base d in
      P.mul p x y = mul x y && P.inv p x = inv x)

(* [P.power] decodes all digits in one loop (an [lxor] at order 2); pin
   it to the k-fold [P.product] it flattens *)
let prop_power_vs_product =
  let factors =
    [| ("Z2", P.cyclic 2); ("Z3", P.cyclic 3); ("D3", P.dihedral 3); ("Z5", P.cyclic 5) |]
  in
  let gen =
    QCheck.Gen.(
      int_bound (Array.length factors - 1) >>= fun f ->
      int_range 1 20 >>= fun k ->
      let order = ipow (P.order (snd factors.(f))) k in
      pair (int_bound (order - 1)) (int_bound (order - 1)) >|= fun (x, y) ->
      (f, k, x, y))
  in
  QCheck.Test.make ~name:"power mul/inv = folded product" ~count:1000
    (QCheck.make
       ~print:(fun (f, k, x, y) ->
         Printf.sprintf "%s^%d, x %d, y %d" (fst factors.(f)) k x y)
       gen)
    (fun (f, k, x, y) ->
      let g = snd factors.(f) in
      let flat = P.power g k in
      let folded = List.fold_left (fun acc _ -> P.product acc g) g (List.init (k - 1) Fun.id) in
      P.order flat = P.order folded
      && P.mul flat x y = P.mul folded x y
      && P.inv flat x = P.inv folded x)

(* The streamed generator against a reference that lists every edge
   {a, a·s} from a multiplication table, in the same emitting order,
   builds through [Graph.of_edges] and labels each dart with u⁻¹v read
   off the table. *)
let test_presentation_cayley_vs_table () =
  let check name (inst : P.instance) (p : P.t) gens =
    let n = P.order p in
    let table = Array.init n (fun a -> Array.init n (P.mul p a)) in
    let inv a = Option.get (Array.find_index (( = ) 0) table.(a)) in
    let connection = List.sort_uniq compare (gens @ List.map inv gens) in
    let involution s = table.(s).(s) = 0 in
    let edges =
      List.concat_map
        (fun s ->
          if involution s || s < inv s then
            List.filter_map
              (fun a ->
                let b = table.(a).(s) in
                if involution s && b < a then None else Some (a, b))
              (List.init n Fun.id)
          else [])
        connection
    in
    let g = Graph.of_edges ~n edges in
    Alcotest.(check bool) (name ^ ": same structure") true
      (Graph.equal_structure g inst.graph);
    for u = 0 to n - 1 do
      Graph.iter_darts g u (fun i v _ _ ->
          Alcotest.(check int)
            (Printf.sprintf "%s: symbol at %d.%d" name u i)
            table.(inv u).(v)
            (Labeling.symbol inst.labeling u i))
    done;
    Alcotest.(check (list int)) (name ^ ": connection set") connection
      inst.connection
  in
  check "ring 12" (Cayley.ring 12) (P.cyclic 12) [ 1 ];
  check "circulant 10 {1,3}" (P.circulant 10 [ 1; 3 ]) (P.cyclic 10) [ 1; 3 ];
  check "ccc 3" (P.cube_connected_cycles 3) (P.semidirect_shift 3) [ 1; 3 ];
  check "star 4" (Cayley.star_graph 4) (Group.symmetric 4)
    [ Group.of_permutation [| 1; 0; 2; 3 |]; Group.of_permutation [| 2; 1; 0; 3 |];
      Group.of_permutation [| 3; 1; 2; 0 |] ];
  check "dihedral 5" (Cayley.dihedral_cayley 5) (P.dihedral 5) [ 5; 6 ]

(* Labels come from the emitting generator, not from group arithmetic:
   pin every dart's label to u⁻¹v computed independently — by table
   arithmetic ([Cayley.port_generator]) on table-backed groups, by the
   presentation's own [mul]/[inv] on the arithmetic families. *)
let test_labels_vs_arithmetic () =
  let check_darts name g label expected =
    for u = 0 to Graph.n g - 1 do
      Graph.iter_darts g u (fun i v _ _ ->
          Alcotest.(check int)
            (Printf.sprintf "%s: symbol at %d.%d" name u i)
            (expected u i v) (label u i))
    done
  in
  List.iter
    (fun (name, c) ->
      check_darts name c.P.graph
        (Labeling.symbol c.P.labeling)
        (fun u i _ -> Cayley.port_generator c u i))
    [
      (* a 4-cycle and a transposition: a non-involution and its inverse *)
      ( "S4",
        P.cayley (Group.symmetric 4)
          [ Group.of_permutation [| 1; 2; 3; 0 |]; Group.of_permutation [| 1; 0; 2; 3 |] ] );
      ("Q8", P.cayley (Group.quaternion ()) [ 2; 4 ]);
      (* a rotation and a reflection *)
      ("D6", P.cayley (P.dihedral 6) [ 1; 6 ]);
      ("ccc 3", P.cube_connected_cycles 3);
    ];
  List.iter
    (fun (name, (inst : P.instance)) ->
      let p = inst.P.group in
      check_darts name inst.P.graph
        (Labeling.symbol inst.P.labeling)
        (fun u _ v -> P.mul p (P.inv p u) v))
    [
      ("ccc:10", P.cube_connected_cycles 10);
      ("wreath:3:5", P.cayley (P.wreath_shift ~base:3 5) [ 1; 5 ]);
      ("torus:30x20", P.cayley (P.product (P.cyclic 30) (P.cyclic 20)) [ 20; 1 ]);
      ("dihedral:50", P.cayley (P.dihedral 50) [ 50; 51 ]);
      ( "hypercube:8",
        P.cayley (P.power (P.cyclic 2) 8) (List.init 8 (fun i -> 1 lsl i)) );
    ]

(* under an ambient sink, generation is one [gen.cayley] span whose
   children are its stages, in order *)
let test_generation_spans () =
  let sink = Qe_obs.Sink.create () in
  let inst = Qe_obs.Sink.with_ambient sink (fun () -> P.circulant 12 [ 1; 5 ]) in
  match Qe_obs.Span.roots sink.Qe_obs.Sink.spans with
  | [ root ] ->
      let open Qe_obs.Span in
      Alcotest.(check string) "root" "gen.cayley" root.name;
      Alcotest.(check bool) "n and m" true
        (root.attrs
        = [
            ("n", Qe_obs.Jsonl.Int (Graph.n inst.P.graph));
            ("m", Qe_obs.Jsonl.Int (Graph.m inst.P.graph));
          ]);
      Alcotest.(check (list string)) "stages"
        [ "gen.edges"; "gen.csr"; "gen.connected"; "gen.labeling"; "gen.witness" ]
        (List.map (fun c -> c.name) root.children);
      Alcotest.(check bool) "stages are leaves" true
        (List.for_all (fun c -> c.children = []) root.children)
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

let test_presentation_validation () =
  Alcotest.check_raises "identity generator" (Invalid_argument
    "Presentation.cayley: generator out of range (or identity)")
    (fun () -> ignore (P.cayley (P.cyclic 6) [ 0 ]));
  Alcotest.check_raises "non-generating set" (Invalid_argument
    "Presentation.cayley: set does not generate the group")
    (fun () -> ignore (P.cayley (P.cyclic 6) [ 2 ]));
  Alcotest.(check int) "elt_order" 3 (P.elt_order (P.cyclic 6) 2);
  Alcotest.(check bool) "involution" true (P.is_involution (P.cyclic 6) 3)

(* an order past max_int is refused by the constructor, before any
   graph is built, instead of wrapping *)
let test_order_overflow () =
  let refused ctor f =
    Alcotest.check_raises ctor
      (Invalid_argument (ctor ^ ": group order exceeds max_int"))
      (fun () -> ignore (f () : P.t))
  in
  refused "Presentation.power" (fun () -> P.power (P.cyclic 2) 63);
  refused "Presentation.power" (fun () -> P.power (P.cyclic 2) 62);
  refused "Presentation.product" (fun () ->
      P.product (P.cyclic ((1 lsl 32) + 1)) (P.cyclic ((1 lsl 32) + 1)));
  refused "Presentation.wreath_shift" (fun () -> P.wreath_shift ~base:2 57);
  refused "Presentation.wreath_shift" (fun () -> P.wreath_shift ~base:3 40);
  Alcotest.(check int) "2^61 fits" (1 lsl 61) (P.order (P.power (P.cyclic 2) 61));
  Alcotest.(check int) "2^56 * 56 fits" ((1 lsl 56) * 56)
    (P.order (P.wreath_shift ~base:2 56))

(* a 5*10^4-node instance streams, classifies and predicts — the smoke
   version of the CI frontier job *)
let test_big_smoke () =
  let inst = P.circulant 50_000 [ 1; 3; 9 ] in
  let g = inst.P.graph in
  Alcotest.(check int) "n" 50_000 (Graph.n g);
  Alcotest.(check int) "m" 150_000 (Graph.m g);
  let b = all_black g in
  let t = Classes.compute b in
  Alcotest.(check bool) "fast path" true (Classes.used_fast_path t);
  Alcotest.(check int) "one class" 1 (Classes.num_classes t);
  Alcotest.(check bool) "predict unsolvable" true
    (Oracle.predict b = Oracle.Unsolvable)

(* ---------- qcheck: random family, fast = slow ---------- *)

let prop_fast_equals_slow =
  QCheck.Test.make ~name:"fast path = full search on random Cayley instances"
    ~count:40
    QCheck.(pair (int_bound 5) (int_bound 1_000_000))
    (fun (fam, seed) ->
      let pick k lo hi = lo + (seed / (k + 1) mod (hi - lo + 1)) in
      let g =
        match fam with
        | 0 -> (Cayley.ring (pick 1 3 16)).P.graph
        | 1 -> (Cayley.hypercube (pick 2 2 4)).P.graph
        | 2 -> (Cayley.torus (pick 3 3 5) (pick 4 3 5)).P.graph
        | 3 ->
            let n = pick 5 5 14 in
            let j = 1 + (pick 6 0 (max 1 (n / 2) - 1)) in
            let jumps = if j mod n = 0 || j = 1 then [ 1 ] else [ 1; j ] in
            (P.circulant n jumps).P.graph
        | 4 -> (Cayley.star_graph (pick 7 3 4)).P.graph
        | _ -> (P.cube_connected_cycles 3).P.graph
      in
      let b = all_black g in
      let fast = Classes.compute b in
      Classes.used_fast_path fast
      && partitions_agree (Graph.n g) fast (Classes.compute_slow b))

let () =
  Alcotest.run "frontier"
    [
      ( "fast-path",
        [
          Alcotest.test_case "cayley families" `Quick test_families;
          Alcotest.test_case "presentation instances" `Quick
            test_presentation_instances;
          Alcotest.test_case "non-transitive negatives" `Quick test_negatives;
          Alcotest.test_case "partial placement" `Quick test_partial_placement;
          QCheck_alcotest.to_alcotest prop_fast_equals_slow;
        ] );
      ( "witness",
        [
          Alcotest.test_case "bogus witness rejected" `Quick
            test_bogus_witness_rejected;
          Alcotest.test_case "unequal cycle lengths rejected" `Quick
            test_unequal_cycles_rejected;
          Alcotest.test_case "regular certificates" `Quick
            test_certified_regular_good;
          Alcotest.test_case "oracle fast path" `Quick test_oracle_fast_path;
          Alcotest.test_case "a new witness is re-verified" `Quick
            test_new_witness_reverified;
          QCheck_alcotest.to_alcotest prop_is_automorphism_naive;
          Alcotest.test_case "shortest verified prefix" `Quick
            test_shortest_prefix;
          QCheck_alcotest.to_alcotest prop_cycle_scan_naive;
          Alcotest.test_case "witness agrees with the search" `Quick
            test_witness_vs_search;
          Alcotest.test_case "certification span" `Quick test_certify_span;
          QCheck_alcotest.to_alcotest prop_verify_vs_bfs;
        ] );
      ( "presentation",
        [
          Alcotest.test_case "vs table groups" `Quick test_presentation_vs_group;
          Alcotest.test_case "cayley vs table builder" `Quick
            test_presentation_cayley_vs_table;
          Alcotest.test_case "labels = group arithmetic" `Quick
            test_labels_vs_arithmetic;
          QCheck_alcotest.to_alcotest prop_wreath_vs_digits;
          QCheck_alcotest.to_alcotest prop_power_vs_product;
          Alcotest.test_case "generation spans" `Quick test_generation_spans;
          Alcotest.test_case "validation" `Quick test_presentation_validation;
          Alcotest.test_case "order overflow rejected" `Quick test_order_overflow;
        ] );
      ("smoke", [ Alcotest.test_case "50k circulant" `Quick test_big_smoke ]);
    ]
