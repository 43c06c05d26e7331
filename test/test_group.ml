module Group = Qe_group.Group
module P = Qe_group.Presentation
module Cayley = Qe_group.Cayley
module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Traverse = Qe_graph.Traverse
module Families = Qe_graph.Families

let group_axioms g =
  let n = P.order g in
  Alcotest.(check bool) "identity" true
    (List.for_all (fun a -> P.mul g 0 a = a && P.mul g a 0 = a)
       (Group.elements g));
  Alcotest.(check bool) "inverses" true
    (List.for_all
       (fun a -> P.mul g a (P.inv g a) = 0
                 && P.mul g (P.inv g a) a = 0)
       (Group.elements g));
  (* spot-check associativity beyond the constructor's own validation *)
  let st = Random.State.make [| n; 99 |] in
  for _ = 1 to 500 do
    let a = Random.State.int st n
    and b = Random.State.int st n
    and c = Random.State.int st n in
    Alcotest.(check int) "assoc" (P.mul g (P.mul g a b) c)
      (P.mul g a (P.mul g b c))
  done

let test_cyclic () =
  let g = P.cyclic 6 in
  group_axioms g;
  Alcotest.(check int) "order" 6 (P.order g);
  Alcotest.(check int) "2+5" 1 (P.mul g 2 5);
  Alcotest.(check int) "inv 2" 4 (P.inv g 2);
  Alcotest.(check bool) "abelian" true (Group.is_abelian g);
  Alcotest.(check int) "elt order of 2 in Z6" 3 (P.elt_order g 2);
  Alcotest.(check int) "elt order of 1" 6 (P.elt_order g 1)

let test_product () =
  let g = P.product (P.cyclic 2) (P.cyclic 3) in
  group_axioms g;
  Alcotest.(check int) "order" 6 (P.order g);
  Alcotest.(check bool) "abelian" true (Group.is_abelian g);
  (* Z2 x Z3 is cyclic of order 6: has an element of order 6 *)
  Alcotest.(check bool) "has order-6 element" true
    (List.exists (fun a -> P.elt_order g a = 6) (Group.elements g))

let test_power () =
  let g = P.power (P.cyclic 2) 4 in
  group_axioms g;
  Alcotest.(check int) "order 16" 16 (P.order g);
  Alcotest.(check bool) "every element involutive" true
    (List.for_all (fun a -> a = 0 || P.is_involution g a)
       (Group.elements g));
  (* xor structure: mul = lxor under our encoding *)
  Alcotest.(check int) "5 * 3 = 6" 6 (P.mul g 5 3)

let test_dihedral () =
  let g = P.dihedral 5 in
  group_axioms g;
  Alcotest.(check int) "order 10" 10 (P.order g);
  Alcotest.(check bool) "non-abelian" false (Group.is_abelian g);
  (* reflections are involutions *)
  Alcotest.(check bool) "reflections involutive" true
    (List.for_all (fun i -> P.is_involution g (5 + i))
       [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check int) "rotation order" 5 (P.elt_order g 1)

let test_symmetric () =
  let g = Group.symmetric 4 in
  group_axioms g;
  Alcotest.(check int) "order 24" 24 (P.order g);
  Alcotest.(check bool) "non-abelian" false (Group.is_abelian g);
  let orders = List.map (P.elt_order g) (Group.elements g) in
  Alcotest.(check int) "max element order in S4" 4
    (List.fold_left max 1 orders)

let test_quaternion () =
  let g = Group.quaternion () in
  group_axioms g;
  Alcotest.(check int) "order 8" 8 (P.order g);
  Alcotest.(check bool) "non-abelian" false (Group.is_abelian g);
  (* exactly one involution: -1 *)
  let invs = List.filter (P.is_involution g) (Group.elements g) in
  Alcotest.(check int) "single involution" 1 (List.length invs)

let test_semidirect () =
  let g = P.semidirect_shift 3 in
  group_axioms g;
  Alcotest.(check int) "order 24" 24 (P.order g);
  Alcotest.(check bool) "non-abelian" false (Group.is_abelian g)

let test_closure_generates () =
  let g = P.cyclic 12 in
  let generates s = List.length (Group.closure g s) = P.order g in
  Alcotest.(check (list int)) "closure of 4" [ 0; 4; 8 ] (Group.closure g [ 4 ]);
  Alcotest.(check bool) "5 generates Z12" true (generates [ 5 ]);
  Alcotest.(check bool) "4 does not" false (generates [ 4 ]);
  Alcotest.(check bool) "4 and 6 give the even residues" false
    (generates [ 4; 6 ]);
  Alcotest.(check (list int)) "closure of {4,6}" [ 0; 2; 4; 6; 8; 10 ]
    (Group.closure g [ 4; 6 ]);
  Alcotest.(check bool) "3 and 4 do" true (generates [ 3; 4 ])

let test_bad_tables () =
  Alcotest.(check bool) "non-associative rejected" true
    (try
       (* a small magma that is not associative *)
       ignore
         (P.of_mul_table
            [| [| 0; 1; 2 |]; [| 1; 2; 2 |]; [| 2; 0; 1 |] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad identity rejected" true
    (try
       ignore (P.of_mul_table [| [| 1; 0 |]; [| 0; 1 |] |]);
       false
     with Invalid_argument _ -> true)

(* Every constructor that rejects its argument says which constructor
   and why, naming the offending value: [<Module>.<ctor>: <reason>] with
   the value quoted in the reason. *)
let test_constructor_errors () =
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
    go 0
  in
  let cases =
    [
      ("Families.path", "0", fun () -> ignore (Families.path 0));
      ("Families.cycle", "2", fun () -> ignore (Families.cycle 2));
      ("Families.complete", "0", fun () -> ignore (Families.complete 0));
      ( "Families.complete_bipartite", "0",
        fun () -> ignore (Families.complete_bipartite 3 0) );
      ("Families.star", "0", fun () -> ignore (Families.star 0));
      ("Families.hypercube", "0", fun () -> ignore (Families.hypercube 0));
      ("Families.grid", "1x1", fun () -> ignore (Families.grid 1 1));
      ("Families.torus", "2x5", fun () -> ignore (Families.torus 2 5));
      ("Families.circulant", "2", fun () -> ignore (Families.circulant 2 [ 1 ]));
      ("Families.circulant", "6", fun () -> ignore (Families.circulant 10 [ 6 ]));
      ( "Families.cube_connected_cycles", "2",
        fun () -> ignore (Families.cube_connected_cycles 2) );
      ("Families.binary_tree", "-1", fun () -> ignore (Families.binary_tree (-1)));
      ("Families.wheel", "2", fun () -> ignore (Families.wheel 2));
      ( "Families.generalized_petersen", "k = 4",
        fun () -> ignore (Families.generalized_petersen 8 4) );
      ("Families.kneser", "n = 4", fun () -> ignore (Families.kneser 4 2));
      ( "Families.complete_multipartite", "[2; 0]",
        fun () -> ignore (Families.complete_multipartite [ 2; 0 ]) );
      ("Families.double_star", "0", fun () -> ignore (Families.double_star 0 2));
      ( "Families.random_connected", "0",
        fun () -> ignore (Families.random_connected ~seed:1 ~n:0 ~extra_edges:0) );
      ( "Families.random_connected", "-3",
        fun () -> ignore (Families.random_connected ~seed:1 ~n:5 ~extra_edges:(-3)) );
      (* node counts past max_int are refused before any allocation *)
      ("Families.binary_tree", "70", fun () -> ignore (Families.binary_tree 70));
      ("Families.binary_tree", "62", fun () -> ignore (Families.binary_tree 62));
      ("Families.hypercube", "62", fun () -> ignore (Families.hypercube 62));
      ("Families.hypercube", "64", fun () -> ignore (Families.hypercube 64));
      ( "Families.cube_connected_cycles", "57",
        fun () -> ignore (Families.cube_connected_cycles 57) );
      ( "Families.cube_connected_cycles", "64",
        fun () -> ignore (Families.cube_connected_cycles 64) );
      ( "Families.grid", "4294967296x4294967296",
        fun () -> ignore (Families.grid (1 lsl 32) (1 lsl 32)) );
      ( "Families.torus", "3x" ^ string_of_int max_int,
        fun () -> ignore (Families.torus 3 max_int) );
      ("Presentation.cyclic", "0", fun () -> ignore (P.cyclic 0));
      ("Presentation.power", "0", fun () -> ignore (P.power (P.cyclic 2) 0));
      ("Presentation.dihedral", "0", fun () -> ignore (P.dihedral 0));
      ( "Presentation.wreath_shift", "1",
        fun () -> ignore (P.wreath_shift ~base:1 3) );
      ( "Presentation.cube_connected_cycles", "2",
        fun () -> ignore (P.cube_connected_cycles 2) );
    ]
  in
  List.iter
    (fun (ctor, value, build) ->
      match build () with
      | () -> Alcotest.failf "%s accepted an invalid argument" ctor
      | exception Invalid_argument msg ->
          let prefix = ctor ^ ": " in
          Alcotest.(check bool)
            (Printf.sprintf "%S is %s<reason>" msg prefix)
            true
            (String.starts_with ~prefix msg
            && String.length msg > String.length prefix);
          Alcotest.(check bool)
            (Printf.sprintf "%S names the value %s" msg value)
            true
            (contains (String.sub msg (String.length prefix)
                         (String.length msg - String.length prefix))
               value))
    cases

(* [Presentation.cayley] normalizes the generating set: inverses added,
   the identity, out-of-range and non-generating sets rejected *)
let test_genset () =
  let g = P.cyclic 8 in
  Alcotest.(check (list int)) "inverse added" [ 1; 7 ]
    (P.cayley g [ 1 ]).connection;
  let rejected gens =
    try ignore (P.cayley g gens); false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "identity rejected" true (rejected [ 0 ]);
  Alcotest.(check bool) "out of range rejected" true (rejected [ 8 ]);
  Alcotest.(check bool) "empty set rejected" true (rejected []);
  Alcotest.(check bool) "non-generating rejected" true (rejected [ 2 ]);
  let full = (Cayley.complete 8).connection in
  Alcotest.(check int) "full genset size" 7 (List.length full);
  Alcotest.(check (list int)) "involutions of Z8" [ 4 ]
    (List.filter (P.is_involution g) full)

(* --- Cayley graphs --- *)

let isomorphic_check_counts c expected_n expected_m =
  Alcotest.(check int) "nodes" expected_n (Graph.n c.P.graph);
  Alcotest.(check int) "edges" expected_m (Graph.m c.P.graph)

let test_cayley_ring () =
  let c = Cayley.ring 7 in
  isomorphic_check_counts c 7 7;
  Alcotest.(check bool) "connected" true
    (Traverse.is_connected c.P.graph);
  for u = 0 to 6 do
    Alcotest.(check int) "2-regular" 2 (Graph.degree c.P.graph u)
  done

let test_cayley_hypercube () =
  let c = Cayley.hypercube 4 in
  isomorphic_check_counts c 16 32;
  Alcotest.(check int) "diameter 4" 4 (Traverse.diameter c.P.graph)

let test_cayley_complete () =
  let c = Cayley.complete 6 in
  isomorphic_check_counts c 6 15;
  Alcotest.(check int) "diameter 1" 1 (Traverse.diameter c.P.graph)

let test_cayley_torus_circulant_ccc () =
  isomorphic_check_counts (Cayley.torus 3 4) 12 24;
  isomorphic_check_counts (P.circulant 10 [ 1; 3 ]) 10 20;
  isomorphic_check_counts (P.cube_connected_cycles 3) 24 36;
  isomorphic_check_counts (Cayley.dihedral_cayley 4) 8 8;
  isomorphic_check_counts (Cayley.star_graph 4) 24 36

let test_cayley_labeling_natural () =
  let c = Cayley.hypercube 3 in
  let g = c.P.graph and l = c.P.labeling in
  let grp = c.P.group in
  (* symbol on port (u, i) is the generator u^-1 * v *)
  for u = 0 to Graph.n g - 1 do
    for i = 0 to Graph.degree g u - 1 do
      let v = (Graph.dart g u i).dst in
      Alcotest.(check int) "natural label"
        (P.mul grp (P.inv grp u) v)
        (Labeling.symbol l u i);
      Alcotest.(check int) "port_generator agrees"
        (Labeling.symbol l u i) (Cayley.port_generator c u i)
    done
  done;
  Alcotest.(check bool) "labeling valid" true (Labeling.check l)

(* S_4 and Q_8 have no arithmetic constructor: their groups are tables
   ([Presentation.of_mul_table]) behind the same closures. *)
let test_cayley_table_only_groups () =
  List.iter
    (fun (name, c) ->
      let g = c.P.graph and grp = c.P.group in
      for u = 0 to Graph.n g - 1 do
        Graph.iter_darts g u (fun i v _ _ ->
            Alcotest.(check int)
              (Printf.sprintf "%s: symbol at %d.%d is u^-1 v" name u i)
              (P.mul grp (P.inv grp u) v)
              (Labeling.symbol c.P.labeling u i))
      done;
      Alcotest.(check bool) (name ^ ": witness certified") true
        (Qe_symmetry.Transitive.certified g <> None);
      Alcotest.(check bool) (name ^ ": connected") true
        (Traverse.is_connected g))
    [
      ("star 4", Cayley.star_graph 4);
      (* i = 2 and j = 4 in the quaternion encoding *)
      ("quaternion", P.cayley (Group.quaternion ()) [ 2; 4 ]);
    ]

let test_translations_are_automorphisms () =
  List.iter
    (fun c ->
      let grp = c.P.group in
      List.iter
        (fun gamma ->
          Alcotest.(check bool) "translation is automorphism" true
            (Qe_symmetry.Transitive.is_automorphism c.P.graph
               (Array.init (P.order grp) (Cayley.translation c gamma)));
          Alcotest.(check bool) "translation preserves labels" true
            (Cayley.translation_preserves_labeling c gamma))
        (Group.elements grp))
    [ Cayley.ring 6; Cayley.hypercube 3; Cayley.dihedral_cayley 3 ]

let test_translation_classes_cycle () =
  (* The paper's example: even cycle, two antipodal agents. *)
  let c = Cayley.ring 8 in
  let classes = Cayley.translation_classes c ~black:[ 0; 4 ] in
  let sizes = List.sort compare (List.map List.length classes) in
  Alcotest.(check (list int)) "all classes of size 2"
    [ 2; 2; 2; 2 ] sizes;
  (* gcd = 2: election impossible *)
  let preserving = Cayley.color_preserving_translations c ~black:[ 0; 4 ] in
  Alcotest.(check (list int)) "preserving translations" [ 0; 4 ] preserving

let test_translation_classes_asymmetric () =
  (* Two agents at distance 1 and 3 on C8: only the identity preserves the
     placement, so classes are singletons and gcd = 1. *)
  let c = Cayley.ring 8 in
  let classes = Cayley.translation_classes c ~black:[ 0; 1; 4 ] in
  Alcotest.(check int) "8 singleton classes" 8 (List.length classes);
  List.iter
    (fun cl -> Alcotest.(check int) "singleton" 1 (List.length cl))
    classes

let test_translation_classes_hypercube () =
  let c = Cayley.hypercube 3 in
  (* complementary pair 0 and 7 = 111: translation by 7 preserves it *)
  let classes = Cayley.translation_classes c ~black:[ 0; 7 ] in
  let sizes = List.sort compare (List.map List.length classes) in
  Alcotest.(check (list int)) "four classes of 2" [ 2; 2; 2; 2 ] sizes

let test_cayley_structure_matches_families () =
  (* Cayley constructions should be isomorphic to the direct constructions;
     cheap necessary conditions: same degree sequence, connectivity,
     diameter. *)
  let compare_basic name a b =
    Alcotest.(check int) (name ^ " n") (Graph.n a) (Graph.n b);
    Alcotest.(check int) (name ^ " m") (Graph.m a) (Graph.m b);
    let degs g =
      List.sort compare (List.init (Graph.n g) (Graph.degree g))
    in
    Alcotest.(check (list int)) (name ^ " degrees") (degs a) (degs b);
    Alcotest.(check int) (name ^ " diameter") (Traverse.diameter a)
      (Traverse.diameter b)
  in
  compare_basic "ring" (Cayley.ring 9).P.graph (Families.cycle 9);
  compare_basic "hypercube"
    (Cayley.hypercube 4).P.graph
    (Families.hypercube 4);
  compare_basic "complete"
    (Cayley.complete 7).P.graph
    (Families.complete 7);
  compare_basic "torus" (Cayley.torus 3 5).P.graph (Families.torus 3 5);
  compare_basic "ccc"
    (P.cube_connected_cycles 3).P.graph
    (Families.cube_connected_cycles 3)

let prop_translation_class_sizes_divide =
  QCheck.Test.make ~name:"translation classes have equal size per orbit type"
    ~count:50
    QCheck.(pair (int_range 3 12) (int_range 1 3))
    (fun (n, k) ->
      let c = Cayley.ring n in
      let black = List.init (min k n) (fun i -> i * (n / (min k n))) in
      let black = List.sort_uniq compare black in
      let classes = Cayley.translation_classes c ~black in
      (* classes partition the nodes *)
      List.length (List.concat classes) = n
      && List.for_all (fun cl -> cl <> []) classes)

let prop_genset_closed_under_inverse =
  QCheck.Test.make ~name:"genset closed under inverse" ~count:50
    (QCheck.int_range 3 20)
    (fun n ->
      let g = P.cyclic n in
      let s = (P.cayley g [ 1 ]).connection in
      List.for_all (fun x -> List.mem (P.inv g x) s) s)

(* --- generation golden --- *)

(* Every Cayley builder, digested: the edge list in id order, each
   node's port order, every label and the witness generators. The
   recorded digests pin generation byte for byte across refactors. *)
let cayley_golden_path = "data/cayley_golden.txt"

let generation_digest name g l =
  let buf = Buffer.create 4096 in
  let add = Printf.bprintf in
  for e = 0 to Graph.m g - 1 do
    let u, v = Graph.edge_endpoints g e in
    add buf "e%d %d;" u v
  done;
  for u = 0 to Graph.n g - 1 do
    add buf "\n%d:" u;
    Graph.iter_darts g u (fun i v _ _ ->
        add buf " %d/%d" v (Labeling.symbol l u i))
  done;
  (match Graph.transitivity_witness g with
  | None -> add buf "\nno witness"
  | Some w ->
      Array.iter
        (fun phi ->
          add buf "\nw";
          Array.iter (add buf " %d") phi)
        w.Graph.w_gens);
  Printf.sprintf "%s %d %d %s" name (Graph.n g) (Graph.m g)
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let cayley_golden_lines () =
  List.map
    (fun (name, (c : P.instance)) -> generation_digest name c.graph c.labeling)
    [
      ("ring 5", Cayley.ring 5);
      ("ring 8", Cayley.ring 8);
      ("hypercube 3", Cayley.hypercube 3);
      ("hypercube 5", Cayley.hypercube 5);
      ("complete 4", Cayley.complete 4);
      ("complete 7", Cayley.complete 7);
      ("torus 3x3", Cayley.torus 3 3);
      ("torus 4x6", Cayley.torus 4 6);
      ("circulant 10 {1,3}", P.circulant 10 [ 1; 3 ]);
      ("circulant 24 {2,3,8}", P.circulant 24 [ 2; 3; 8 ]);
      ("star_graph 3", Cayley.star_graph 3);
      ("star_graph 5", Cayley.star_graph 5);
      ("ccc 3", P.cube_connected_cycles 3);
      ("ccc 5", P.cube_connected_cycles 5);
      ("dihedral_cayley 3", Cayley.dihedral_cayley 3);
      ("dihedral_cayley 8", Cayley.dihedral_cayley 8);
      ("P.circulant 24 {1,5}", P.circulant 24 [ 1; 5 ]);
      ("P.circulant 31 {1,4,9}", P.circulant 31 [ 1; 4; 9 ]);
      ("P.ccc 3", P.cube_connected_cycles 3);
      ("P.ccc 6", P.cube_connected_cycles 6);
      ("product Z4xZ6", P.cayley (P.product (P.cyclic 4) (P.cyclic 6)) [ 6; 1 ]);
      ( "product D3xZ5",
        P.cayley (P.product (P.dihedral 3) (P.cyclic 5)) [ 5; 15; 1 ] );
      ("power Z3^4", P.cayley (P.power (P.cyclic 3) 4) [ 1; 3; 9; 27 ]);
      ("power D3^2", P.cayley (P.power (P.dihedral 3) 2) [ 1; 3; 6; 18 ]);
      ( "power hypercube:10",
        P.cayley (P.power (P.cyclic 2) 10) (List.init 10 (fun i -> 1 lsl i)) );
      ("dihedral D7 {r,s}", P.cayley (P.dihedral 7) [ 1; 7 ]);
      ("wreath 3:3", P.cayley (P.wreath_shift ~base:3 3) [ 1; 3 ]);
      (* the frontier --spec families, built as the CLI builds them *)
      ("spec circulant:60:1+3+9", P.circulant 60 [ 1; 3; 9 ]);
      ("spec ccc:5", P.cube_connected_cycles 5);
      ("spec hypercube:6", Cayley.hypercube 6);
      ("spec torus:5x7", Cayley.torus 5 7);
      ("spec dihedral:20", Cayley.dihedral_cayley 20);
      ("spec wreath:3:4", P.cayley (P.wreath_shift ~base:3 4) [ 1; 4 ]);
    ]

let test_cayley_golden () =
  let expected =
    In_channel.with_open_text cayley_golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check (list string)) "digests" expected (cayley_golden_lines ())

let () =
  Alcotest.run "group"
    [
      ( "groups",
        [
          Alcotest.test_case "cyclic" `Quick test_cyclic;
          Alcotest.test_case "product" `Quick test_product;
          Alcotest.test_case "power" `Quick test_power;
          Alcotest.test_case "dihedral" `Quick test_dihedral;
          Alcotest.test_case "symmetric" `Quick test_symmetric;
          Alcotest.test_case "quaternion" `Quick test_quaternion;
          Alcotest.test_case "semidirect shift" `Quick test_semidirect;
          Alcotest.test_case "closure and generates" `Quick
            test_closure_generates;
          Alcotest.test_case "bad tables rejected" `Quick test_bad_tables;
          Alcotest.test_case "constructor errors name the reason" `Quick
            test_constructor_errors;
        ] );
      ( "genset",
        [
          Alcotest.test_case "normalization" `Quick test_genset;
          QCheck_alcotest.to_alcotest prop_genset_closed_under_inverse;
        ] );
      ( "cayley",
        [
          Alcotest.test_case "ring" `Quick test_cayley_ring;
          Alcotest.test_case "hypercube" `Quick test_cayley_hypercube;
          Alcotest.test_case "complete" `Quick test_cayley_complete;
          Alcotest.test_case "torus/circulant/ccc/star" `Quick
            test_cayley_torus_circulant_ccc;
          Alcotest.test_case "natural labeling" `Quick
            test_cayley_labeling_natural;
          Alcotest.test_case "matches direct families" `Quick
            test_cayley_structure_matches_families;
          Alcotest.test_case "table-only groups" `Quick
            test_cayley_table_only_groups;
        ] );
      ("group", [ Alcotest.test_case "cayley golden" `Quick test_cayley_golden ]);
      ( "translations",
        [
          Alcotest.test_case "are automorphisms" `Quick
            test_translations_are_automorphisms;
          Alcotest.test_case "classes: antipodal cycle" `Quick
            test_translation_classes_cycle;
          Alcotest.test_case "classes: asymmetric" `Quick
            test_translation_classes_asymmetric;
          Alcotest.test_case "classes: hypercube" `Quick
            test_translation_classes_hypercube;
          QCheck_alcotest.to_alcotest prop_translation_class_sizes_divide;
        ] );
    ]
