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
module Genset = Qe_group.Genset
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
    (fun (name, t) -> check_fast_equals_slow name (Cayley.graph t))
    [
      ("ring 12", Cayley.ring 12);
      ("hypercube 3", Cayley.hypercube 3);
      ("torus 3x4", Cayley.torus 3 4);
      ("circulant 10 {1,3}", Cayley.circulant 10 [ 1; 3 ]);
      ("star_graph 4", Cayley.star_graph 4);
      ("ccc 3", Cayley.cube_connected_cycles 3);
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
  let g = Cayley.graph (Cayley.ring 8) in
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
  Graph.set_transitivity_witness g
    { Graph.w_gens = [| bad |]; w_translation = (fun _ -> bad) };
  Alcotest.(check bool) "bad generator rejected" true
    (Transitive.certified g = None);
  Alcotest.(check bool) "verdict cached as false" true
    (Graph.witness_verdict g = Some false);
  let b = all_black g in
  let t = Classes.compute b in
  Alcotest.(check bool) "classes fall back to slow path" false
    (Classes.used_fast_path t);
  Alcotest.(check int) "still one class" 1 (Classes.num_classes t)

(* a witness whose generators verify but whose translation oracle is
   junk: transitivity certifies, regular provenance must not *)
let test_bogus_translation_oracle () =
  let n = 6 in
  let g = Families.cycle 6 in
  let rot = Array.init n (fun i -> (i + 1) mod n) in
  Graph.set_transitivity_witness g
    {
      Graph.w_gens = [| rot |];
      (* ignores the target: λ_w(0) <> w for w <> 1 *)
      w_translation = (fun _ -> rot);
    };
  Alcotest.(check bool) "transitivity certifies" true
    (Transitive.certified g <> None);
  Alcotest.(check bool) "regular provenance rejected" true
    (Transitive.certified_regular g = None);
  Alcotest.(check bool) "translation to 2 rejected" true
    (Transitive.certified_translation g ~to_:2 = None);
  Alcotest.(check bool) "translation to 1 verifies" true
    (Transitive.certified_translation g ~to_:1 <> None)

let test_certified_regular_good () =
  List.iter
    (fun (name, g) ->
      match Transitive.certified_regular g with
      | None -> Alcotest.failf "%s: expected regular certificate" name
      | Some phi ->
          Alcotest.(check bool)
            (name ^ ": exhibit is fpf automorphism")
            true
            (Transitive.is_automorphism g phi
            && Transitive.is_fixed_point_free phi))
    [
      ("ring 12", Cayley.graph (Cayley.ring 12));
      ("P.ccc 4", (P.cube_connected_cycles 4).P.graph);
      ("star_graph 4", Cayley.graph (Cayley.star_graph 4));
    ]

(* the regular exhibit is memoized on the graph; attaching a new witness
   must drop it, in both directions *)
let test_exhibit_invalidated () =
  let n = 6 in
  let g = Families.cycle n in
  let shift v = Array.init n (fun i -> (i + v) mod n) in
  let good = { Graph.w_gens = [| shift 1 |]; w_translation = shift } in
  let junk = { Graph.w_gens = [| shift 1 |]; w_translation = (fun _ -> shift 1) } in
  Graph.set_transitivity_witness g good;
  Alcotest.(check bool) "honest oracle certifies" true
    (Transitive.certified_regular g <> None);
  Alcotest.(check bool) "exhibit memoized" true
    (Graph.regular_exhibit g = Some (Transitive.certified_regular g));
  Graph.set_transitivity_witness g junk;
  Alcotest.(check bool) "new witness drops the exhibit" true
    (Graph.regular_exhibit g = None);
  Alcotest.(check bool) "junk oracle rejected" true
    (Transitive.certified_regular g = None);
  Alcotest.(check bool) "rejection memoized" true
    (Graph.regular_exhibit g = Some None);
  Graph.set_transitivity_witness g good;
  Alcotest.(check bool) "honest witness certifies again" true
    (Transitive.certified_regular g <> None)

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
        | 0 -> Cayley.graph (Cayley.ring 6)
        | 1 -> Cayley.graph (Cayley.hypercube 3)
        | 2 -> (P.circulant 8 [ 1; 3 ]).P.graph
        | 3 -> (P.cube_connected_cycles 3).P.graph
        | 4 -> Cayley.graph (Cayley.torus 3 4)
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
        | 1, Some w -> w.Graph.w_translation (Random.State.int rng n)
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
      ("ring 6", Cayley.graph (Cayley.ring 6));
      ("P.circulant 18 {1,5}", (P.circulant 18 [ 1; 5 ]).P.graph);
    ];
  (* the same structure without a witness takes the subgroup search and
     must land on the same verdict (structural cache key is shared, so
     compare across distinct structures) *)
  Alcotest.(check bool) "unwitnessed cycle agrees" true
    (Oracle.predict (all_black (Families.cycle 14)) = Oracle.Unsolvable)

(* ---------- presentation/group differentials ---------- *)

let check_same_group name (p : P.t) (g : Group.t) =
  Alcotest.(check int) (name ^ ": order") (Group.order g) (P.order p);
  let n = Group.order g in
  for a = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: inv %d" name a)
      (Group.inv g a) (P.inv p a);
    for b = 0 to n - 1 do
      Alcotest.(check int)
        (Printf.sprintf "%s: mul %d %d" name a b)
        (Group.mul g a b) (P.mul p a b)
    done
  done

let test_presentation_vs_group () =
  check_same_group "Z12" (P.cyclic 12) (Group.cyclic 12);
  check_same_group "Z3xZ4"
    (P.product (P.cyclic 3) (P.cyclic 4))
    (Group.product (Group.cyclic 3) (Group.cyclic 4));
  check_same_group "Z2^3" (P.power (P.cyclic 2) 3) (Group.power (Group.cyclic 2) 3);
  check_same_group "D6" (P.dihedral 6) (Group.dihedral 6);
  check_same_group "Z2wrZ3" (P.semidirect_shift 3) (Group.semidirect_shift 3);
  check_same_group "Z2wrZ4 via wreath"
    (P.wreath_shift ~base:2 4)
    (Group.semidirect_shift 4)

(* the streamed CSR generator must be structurally identical to the
   table-backed edge-list builder, labels included *)
let test_presentation_cayley_vs_table () =
  let pairs =
    [
      ("ring 12", (P.circulant 12 [ 1 ]), Cayley.ring 12);
      ("circulant 10 {1,3}", (P.circulant 10 [ 1; 3 ]), Cayley.circulant 10 [ 1; 3 ]);
      ("ccc 3", (P.cube_connected_cycles 3), Cayley.cube_connected_cycles 3);
    ]
  in
  List.iter
    (fun (name, (inst : P.instance), table) ->
      let gp = inst.P.graph and gt = Cayley.graph table in
      Alcotest.(check bool) (name ^ ": same structure") true
        (Graph.equal_structure gp gt);
      for u = 0 to Graph.n gp - 1 do
        for i = 0 to Graph.degree gp u - 1 do
          Alcotest.(check int)
            (Printf.sprintf "%s: symbol at %d.%d" name u i)
            (Labeling.symbol (Cayley.labeling table) u i)
            (Labeling.symbol inst.P.labeling u i)
        done
      done;
      Alcotest.(check (list int))
        (name ^ ": connection set")
        (List.sort_uniq compare
           (List.concat_map
              (fun s -> [ s; Group.inv (Cayley.group table) s ])
              (Genset.elements (Cayley.genset table))))
        inst.P.connection)
    pairs

let test_presentation_validation () =
  Alcotest.check_raises "identity generator" (Invalid_argument
    "Presentation.cayley: generator out of range (or identity)")
    (fun () -> ignore (P.cayley (P.cyclic 6) [ 0 ]));
  Alcotest.check_raises "non-generating set" (Invalid_argument
    "Presentation.cayley: set does not generate the group")
    (fun () -> ignore (P.cayley (P.cyclic 6) [ 2 ]));
  Alcotest.(check bool) "generates accepts" true (P.generates (P.cyclic 6) [ 5 ]);
  Alcotest.(check bool) "generates rejects" false
    (P.generates (P.cyclic 6) [ 2; 4 ]);
  Alcotest.(check int) "elt_order" 3 (P.elt_order (P.cyclic 6) 2);
  Alcotest.(check bool) "involution" true (P.is_involution (P.cyclic 6) 3)

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
        | 0 -> Cayley.graph (Cayley.ring (pick 1 3 16))
        | 1 -> Cayley.graph (Cayley.hypercube (pick 2 2 4))
        | 2 -> Cayley.graph (Cayley.torus (pick 3 3 5) (pick 4 3 5))
        | 3 ->
            let n = pick 5 5 14 in
            let j = 1 + (pick 6 0 (max 1 (n / 2) - 1)) in
            let jumps = if j mod n = 0 || j = 1 then [ 1 ] else [ 1; j ] in
            Cayley.graph (Cayley.circulant n jumps)
        | 4 -> Cayley.graph (Cayley.star_graph (pick 7 3 4))
        | _ -> Cayley.graph (Cayley.cube_connected_cycles 3)
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
          Alcotest.test_case "bogus translation oracle" `Quick
            test_bogus_translation_oracle;
          Alcotest.test_case "regular certificates" `Quick
            test_certified_regular_good;
          Alcotest.test_case "oracle fast path" `Quick test_oracle_fast_path;
          Alcotest.test_case "new witness drops the exhibit" `Quick
            test_exhibit_invalidated;
          QCheck_alcotest.to_alcotest prop_is_automorphism_naive;
        ] );
      ( "presentation",
        [
          Alcotest.test_case "vs table groups" `Quick test_presentation_vs_group;
          Alcotest.test_case "cayley vs table builder" `Quick
            test_presentation_cayley_vs_table;
          Alcotest.test_case "validation" `Quick test_presentation_validation;
        ] );
      ("smoke", [ Alcotest.test_case "50k circulant" `Quick test_big_smoke ]);
    ]
