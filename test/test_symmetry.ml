module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Families = Qe_graph.Families
module Cdigraph = Qe_symmetry.Cdigraph
module Refine = Qe_symmetry.Refine
module Canon = Qe_symmetry.Canon
module Brute = Qe_symmetry.Brute
module Aut = Qe_symmetry.Aut
module Classes = Qe_symmetry.Classes
module View = Qe_symmetry.View
module Label_equiv = Qe_symmetry.Label_equiv
module Cayley_detect = Qe_symmetry.Cayley_detect
module Refine_labeling = Qe_symmetry.Refine_labeling
module GCayley = Qe_group.Cayley
module P = Qe_group.Presentation
module Campaign = Qe_elect.Campaign

let random_cdigraph st =
  let n = 2 + Random.State.int st 5 in
  let colors = Array.init n (fun _ -> Random.State.int st 2) in
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < 0.4 then
        arcs :=
          { Cdigraph.src = u; dst = v; color = Random.State.int st 2 }
          :: !arcs
    done
  done;
  Cdigraph.make ~n ~node_color:(fun u -> colors.(u)) !arcs

let random_permutation st n =
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* --- Cdigraph CSR coherence --- *)

(* the flat CSR the refiner consumes and the list accessors must
   describe the same sorted adjacency, both directions *)
let prop_cdigraph_csr_coherent =
  QCheck.Test.make ~name:"cdigraph csr = out_arcs/in_arcs" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xc5a; seed |] in
      let g = random_cdigraph st in
      let c = Cdigraph.csr g in
      let n = Cdigraph.n g in
      let slice off endpoint col u =
        List.init
          (off.(u + 1) - off.(u))
          (fun i -> (endpoint.(off.(u) + i), col.(off.(u) + i)))
      in
      let ok = ref true in
      for u = 0 to n - 1 do
        if
          slice c.Cdigraph.out_off c.Cdigraph.out_dst c.Cdigraph.out_col u
          <> Cdigraph.out_arcs g u
          || slice c.Cdigraph.in_off c.Cdigraph.in_src c.Cdigraph.in_col u
             <> Cdigraph.in_arcs g u
        then ok := false
      done;
      !ok)

(* --- Canonical labeling vs brute force --- *)

let test_canon_invariant_under_relabeling () =
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 40 do
    let g = random_cdigraph st in
    let perm = random_permutation st (Cdigraph.n g) in
    let g' = Cdigraph.relabel g perm in
    Alcotest.(check string) "certificate invariant" (Canon.certificate g)
      (Canon.certificate g')
  done

let test_canon_agrees_with_brute () =
  let st = Random.State.make [| 22 |] in
  for _ = 1 to 30 do
    let a = random_cdigraph st and b = random_cdigraph st in
    Alcotest.(check bool) "iso decision matches brute force"
      (Brute.isomorphic a b) (Canon.isomorphic a b)
  done

let test_canon_orbits_match_brute () =
  let st = Random.State.make [| 33 |] in
  for _ = 1 to 30 do
    let g = random_cdigraph st in
    Alcotest.(check (array int)) "orbits match brute force"
      (Brute.orbits g) ((Canon.run g).orbits)
  done

let test_canon_distinguishes_non_isomorphic () =
  let c6 = Cdigraph.of_graph (Families.cycle 6) in
  let two_triangles =
    Cdigraph.of_graph
      (Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ])
  in
  Alcotest.(check bool) "C6 vs 2xC3" false
    (Canon.isomorphic c6 two_triangles);
  (* same degree sequence, non-isomorphic: C6 vs 2 triangles is the classic
     1-WL-indistinguishable pair, so this exercises the backtracking. *)
  Alcotest.(check bool) "brute agrees" false
    (Brute.isomorphic c6 two_triangles)

let test_canonical_form_equal_for_isomorphic () =
  let st = Random.State.make [| 44 |] in
  for _ = 1 to 20 do
    let g = random_cdigraph st in
    let perm = random_permutation st (Cdigraph.n g) in
    let g' = Cdigraph.relabel g perm in
    Alcotest.(check bool) "canonical forms equal" true
      (Cdigraph.equal (Canon.canonical_form g) (Canon.canonical_form g'))
  done

(* --- Automorphism groups of known graphs --- *)

let aut_order g = Aut.group_order (Cdigraph.of_graph g)

let test_known_aut_orders () =
  Alcotest.(check int) "Aut(C5) = D5 (order 10)" 10
    (aut_order (Families.cycle 5));
  Alcotest.(check int) "Aut(C6) = D6 (order 12)" 12
    (aut_order (Families.cycle 6));
  Alcotest.(check int) "Aut(P3) order 2" 2 (aut_order (Families.path 3));
  Alcotest.(check int) "Aut(K4) = S4 (24)" 24 (aut_order (Families.complete 4));
  Alcotest.(check int) "Aut(K5) = S5 (120)" 120
    (aut_order (Families.complete 5));
  Alcotest.(check int) "Aut(Q3) order 48" 48
    (aut_order (Families.hypercube 3));
  Alcotest.(check int) "Aut(Petersen) = S5 (120)" 120
    (aut_order (Families.petersen ()));
  Alcotest.(check int) "Aut(K3,3) order 72" 72
    (aut_order (Families.complete_bipartite 3 3));
  Alcotest.(check int) "Aut(star K1,4) = S4 (24)" 24
    (aut_order (Families.star 4))

let test_vertex_transitivity () =
  let vt g = Aut.is_vertex_transitive (Cdigraph.of_graph g) in
  Alcotest.(check bool) "cycle vt" true (vt (Families.cycle 7));
  Alcotest.(check bool) "petersen vt" true (vt (Families.petersen ()));
  Alcotest.(check bool) "hypercube vt" true (vt (Families.hypercube 3));
  Alcotest.(check bool) "ccc3 vt" true
    (vt (Families.cube_connected_cycles 3));
  Alcotest.(check bool) "path not vt" false (vt (Families.path 4));
  Alcotest.(check bool) "star not vt" false (vt (Families.star 3));
  Alcotest.(check bool) "grid not vt" false (vt (Families.grid 2 3));
  Alcotest.(check bool) "wheel not vt" false (vt (Families.wheel 5))

let test_refine_rounds_bound () =
  (* Norris: stabilisation within n - 1 rounds. *)
  List.iter
    (fun g ->
      let dg = Cdigraph.of_graph g in
      Alcotest.(check bool) "rounds <= n-1" true
        (Refine.rounds_to_stability dg <= Graph.n g - 1))
    [
      Families.path 7;
      Families.cycle 9;
      Families.petersen ();
      Families.binary_tree 3;
      Families.random_connected ~seed:3 ~n:15 ~extra_edges:5;
    ]

(* --- Surrounding classes (Section 3) --- *)

let sorted_sizes classes = List.sort compare (List.map List.length classes)

let test_classes_cycle_antipodal () =
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let t = Classes.compute b in
  Alcotest.(check int) "one black class" 1 (Classes.num_black_classes t);
  Alcotest.(check (list int)) "sizes [2;4]" [ 2; 4 ]
    (sorted_sizes (Classes.classes t));
  Alcotest.(check int) "gcd 2" 2 (Classes.gcd_sizes t)

let test_classes_cycle_adjacent () =
  (* adjacent agents on C6 break rotational symmetry but keep a
     reflection *)
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 1 ] in
  let t = Classes.compute b in
  Alcotest.(check int) "gcd 2" 2 (Classes.gcd_sizes t);
  (* reflection through the 0-1 edge identifies nodes pairwise: classes
     {0,1}, {2,5}, {3,4} *)
  Alcotest.(check (list int)) "sizes" [ 2; 2; 2 ]
    (sorted_sizes (Classes.classes t))

let test_classes_path_end () =
  (* asymmetric: agent at one end of a path — everything rigid *)
  let b = Bicolored.make (Families.path 4) ~black:[ 0 ] in
  let t = Classes.compute b in
  Alcotest.(check int) "4 singleton classes" 4 (Classes.num_classes t);
  Alcotest.(check int) "gcd 1" 1 (Classes.gcd_sizes t)

let test_classes_match_aut_orbits () =
  (* the classes are the automorphism orbits, in some order (the
     kernel-independent cross-checks, against surroundings and Brute,
     are the "match surrounding certificates" and "brute orbits"
     cases) *)
  let instances =
    [
      (Families.cycle 6, [ 0; 3 ]);
      (Families.cycle 6, [ 0; 1 ]);
      (Families.cycle 8, [ 0; 2 ]);
      (Families.petersen (), [ 0; 1 ]);
      (Families.hypercube 3, [ 0; 7 ]);
      (Families.path 5, [ 1 ]);
      (Families.binary_tree 2, [ 0 ]);
      (Families.complete 5, [ 0; 1 ]);
    ]
  in
  List.iter
    (fun (g, black) ->
      let b = Bicolored.make g ~black in
      let from_surroundings =
        List.sort compare
          (List.map (List.sort compare) (Classes.classes (Classes.compute b)))
      in
      let from_orbits =
        List.sort compare (Aut.orbit_partition (Cdigraph.of_bicolored b))
      in
      Alcotest.(check bool) "classes = orbits" true
        (from_surroundings = from_orbits))
    instances

let test_classes_black_first_ordering () =
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let t = Classes.compute b in
  let cls = Classes.classes t in
  Alcotest.(check (list (list int))) "black class first" [ [ 0; 3 ]; [ 1; 2; 4; 5 ] ] cls

let test_classes_petersen_paper () =
  (* The paper's Figure 5: two adjacent home-bases on Petersen give classes
     of sizes 2, 4, 4 and gcd 2. *)
  let b = Bicolored.make (Families.petersen ()) ~black:[ 0; 1 ] in
  let t = Classes.compute b in
  Alcotest.(check (list int)) "sizes 2,4,4" [ 2; 4; 4 ]
    (sorted_sizes (Classes.classes t));
  Alcotest.(check int) "gcd 2" 2 (Classes.gcd_sizes t)

(* --- The class order: one canonical run, isomorphism-invariant --- *)

let surrounding_cert b u = Canon.certificate (Cdigraph.of_surrounding b u)

(* a partition as a canonical value: sorted classes, each sorted *)
let as_partition cls = List.sort compare (List.map (List.sort compare) cls)

let classes_partition b = as_partition (Classes.classes (Classes.compute b))

let group_by key n =
  let tbl = Hashtbl.create 16 in
  for u = n - 1 downto 0 do
    let k = key u in
    Hashtbl.replace tbl k (u :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
  done;
  as_partition (Hashtbl.fold (fun _ c acc -> c :: acc) tbl [])

let zoo_instances () =
  List.map
    (fun i -> Bicolored.make i.Campaign.graph ~black:i.Campaign.black)
    (Campaign.zoo () @ Campaign.cayley_zoo ())

let seeded_agents st n =
  let k = 1 + Random.State.int st (min 3 n) in
  List.sort_uniq compare (List.init k (fun _ -> Random.State.int st n))

let renumber_graph g p =
  Graph.of_edges ~n:(Graph.n g)
    (List.map (fun (u, v) -> (p.(u), p.(v))) (Graph.edges g))

(* Lemma 3.1 needs every agent to read the same ordered classes off its
   own numbering of the map: renumbering by π must map the class list
   to π of it, class for class and in the same order. *)
let prop_class_order_renumber_invariant =
  let zoo = Array.of_list (Campaign.cayley_zoo ()) in
  QCheck.Test.make ~name:"class order renumber-invariant" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xc1a; seed |] in
      let g =
        if seed mod 3 = 0 then
          zoo.(Random.State.int st (Array.length zoo)).Campaign.graph
        else
          Families.random_connected ~seed
            ~n:(5 + Random.State.int st 56)
            ~extra_edges:(Random.State.int st 12)
      in
      let n = Graph.n g in
      let black = seeded_agents st n in
      let p = random_permutation st n in
      let classes g black = Classes.classes (Classes.compute (Bicolored.make g ~black)) in
      let image =
        List.map (fun c -> List.sort compare (List.map (fun u -> p.(u)) c))
      in
      classes (renumber_graph g p) (List.map (fun u -> p.(u)) black)
      = image (classes g black))

let canon_runs sink =
  match
    Qe_obs.Metrics.find
      (Qe_obs.Metrics.snapshot sink.Qe_obs.Sink.metrics)
      "canon.runs"
  with
  | Some (Qe_obs.Metrics.Counter c) -> Some c
  | _ -> None

let test_classes_one_canonical_run () =
  let b = Bicolored.make (Families.circulant 60 [ 1; 3; 9 ]) ~black:[ 0; 1; 5 ] in
  let sink = Qe_obs.Sink.create () in
  let t = Qe_obs.Sink.with_ambient sink (fun () -> Classes.compute_slow b) in
  Alcotest.(check bool) "non-uniform: many classes" true
    (Classes.num_classes t > 1);
  Alcotest.(check (option int)) "canon.runs" (Some 1)
    (canon_runs sink)

(* Lemma 3.1's first claim: u ~ v iff S(u) ≅ S(v). The one-run
   partition must equal the grouping by surrounding certificates. *)
let test_classes_match_surroundings () =
  List.iter
    (fun b ->
      let n = Graph.n (Bicolored.graph b) in
      Alcotest.(check bool) "classes = surrounding-certificate groups" true
        (classes_partition b = group_by (surrounding_cert b) n))
    (zoo_instances ())

(* ... and the true automorphism orbits, by brute force, on <= 8 nodes:
   the zoo's small instances and random bicoloured graphs. *)
let prop_classes_match_brute_8 =
  let small =
    List.filter (fun b -> Graph.n (Bicolored.graph b) <= 8) (zoo_instances ())
  in
  QCheck.Test.make ~name:"classes = brute orbits (n <= 8)" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xc1b; seed |] in
      let b =
        if seed mod 4 = 0 then
          List.nth small (Random.State.int st (List.length small))
        else
          let n = 3 + Random.State.int st 6 in
          let g =
            Families.random_connected ~seed ~n
              ~extra_edges:(Random.State.int st 6)
          in
          Bicolored.make g ~black:(seeded_agents st n)
      in
      let brute = Brute.orbits (Cdigraph.of_bicolored b) in
      classes_partition b
      = group_by (fun u -> brute.(u)) (Graph.n (Bicolored.graph b)))

let test_gcd_all () =
  Alcotest.(check int) "gcd of []" 0 (Classes.gcd_all []);
  Alcotest.(check int) "gcd [6;4]" 2 (Classes.gcd_all [ 6; 4 ]);
  Alcotest.(check int) "gcd [5;3]" 1 (Classes.gcd_all [ 5; 3 ]);
  Alcotest.(check int) "gcd [8]" 8 (Classes.gcd_all [ 8 ])

(* --- Views (Figure 2) --- *)

let test_figure2_views_quantitative () =
  let _, l = Families.figure2_path () in
  (* All three views are pairwise distinct. *)
  Alcotest.(check bool) "x vs y" false (View.equal_views l 0 1);
  Alcotest.(check bool) "x vs z" false (View.equal_views l 0 2);
  Alcotest.(check bool) "y vs z" false (View.equal_views l 1 2);
  Alcotest.(check int) "three singleton classes" 3
    (List.length (View.classes l));
  Alcotest.(check int) "sigma 1" 1 (View.sigma l)

let test_figure2c_views_equal_but_not_label_equiv () =
  let _, l = Families.figure2c () in
  (* All nodes share the same view... *)
  Alcotest.(check bool) "x ~view y" true (View.equal_views l 0 1);
  Alcotest.(check bool) "x ~view z" true (View.equal_views l 0 2);
  Alcotest.(check int) "one view class" 1 (List.length (View.classes l));
  Alcotest.(check int) "sigma 3" 3 (View.sigma l);
  (* ...but no two are label-equivalent: the converse of Equation 1
     fails. *)
  Alcotest.(check bool) "x ~lab y fails" false (Label_equiv.equivalent l 0 1);
  Alcotest.(check bool) "x ~lab z fails" false (Label_equiv.equivalent l 0 2);
  Alcotest.(check int) "three label classes" 3
    (List.length (Label_equiv.classes l))

let test_view_tree_explicit () =
  let _, l = Families.figure2_path () in
  let tx = View.tree l ~depth:2 0 in
  Alcotest.(check int) "x has one child" 1 (List.length tx.View.children);
  let ty = View.tree l ~depth:2 1 in
  Alcotest.(check int) "y has two children" 2 (List.length ty.View.children);
  Alcotest.(check bool) "depth-0 trees all equal" true
    (View.equal_trees (View.tree l ~depth:0 0) (View.tree l ~depth:0 2))

let test_views_symmetric_ring () =
  (* Symmetric standard-labeled even ring: sigma = n (all views equal)
     under the rotation-invariant labeling where each node labels its
     clockwise port 0 and counterclockwise port 1. *)
  let g = Families.cycle 6 in
  let l = Labeling.standard g in
  (* standard labeling of our cycle construction: port 0 at node u is the
     edge to (u+1) mod n except at node 0... just check classes have equal
     sizes and sigma divides n. *)
  let s = View.sigma l in
  Alcotest.(check bool) "sigma divides n" true (6 mod s = 0)

let test_equal_views_depth_monotone () =
  let g = Families.cycle 8 in
  let l = Labeling.shuffled ~seed:3 g in
  for x = 0 to 7 do
    for y = 0 to 7 do
      (* if views are equal at full depth they are equal at lower depth *)
      if View.equal_views l x y then
        Alcotest.(check bool) "equal at depth 3" true
          (View.equal_views_to_depth l ~depth:3 x y)
    done
  done

(* --- Label equivalence (Lemma 2.1, Equation 1) --- *)

let test_lemma21_same_size () =
  (* label-equivalence classes all have the same size, for natural Cayley
     labelings with various placements *)
  let cases =
    [
      (GCayley.ring 8, [ 0; 4 ]);
      (GCayley.ring 8, [ 0; 1 ]);
      (GCayley.ring 9, [ 0; 3; 6 ]);
      (GCayley.hypercube 3, [ 0; 7 ]);
      (GCayley.torus 3 3, [ 0; 4; 8 ]);
    ]
  in
  List.iter
    (fun (c, black) ->
      let b = Bicolored.make c.P.graph ~black in
      let classes = Label_equiv.classes ~placement:b c.P.labeling in
      Alcotest.(check bool) "all same size" true
        (Label_equiv.all_same_size classes))
    cases

let test_equation1 () =
  List.iter
    (fun (l, placement) ->
      Alcotest.(check bool) "~lab implies ~view" true
        (Label_equiv.implies_same_view ?placement l))
    [
      (snd (Families.figure2_path ()), None);
      (snd (Families.figure2c ()), None);
      ((GCayley.ring 8).P.labeling, None);
      ( (GCayley.ring 8).P.labeling,
        Some (Bicolored.make (GCayley.ring 8).P.graph ~black:[ 0; 4 ])
      );
    ]

let test_natural_labeling_label_classes_are_translation_classes () =
  (* Free-action consequence: for the natural Cayley labeling, the
     label-preserving color-preserving automorphisms are exactly the
     placement-preserving translations. *)
  let cases =
    [ (GCayley.ring 8, [ 0; 4 ]); (GCayley.hypercube 3, [ 0; 7 ]);
      (GCayley.ring 12, [ 0; 2; 6; 8 ]) ]
  in
  List.iter
    (fun (c, black) ->
      let b = Bicolored.make c.P.graph ~black in
      let lab_classes =
        List.sort compare
          (List.map (List.sort compare)
             (Label_equiv.classes ~placement:b c.P.labeling))
      in
      let tr_classes =
        List.sort compare
          (List.map (List.sort compare)
             (GCayley.translation_classes c ~black))
      in
      Alcotest.(check bool) "label classes = translation classes" true
        (lab_classes = tr_classes))
    cases

(* --- Cayley recognition --- *)

let test_recognize_positive () =
  List.iter
    (fun (name, g) ->
      match Cayley_detect.recognize g with
      | Cayley_detect.Cayley r ->
          Alcotest.(check bool) (name ^ " verified") true
            (Cayley_detect.verify g r)
      | Cayley_detect.Not_cayley ->
          Alcotest.failf "%s wrongly declared not Cayley" name
      | Cayley_detect.Unknown msg -> Alcotest.failf "%s unknown: %s" name msg)
    [
      ("C7", Families.cycle 7);
      ("C8", Families.cycle 8);
      ("K5", Families.complete 5);
      ("Q3", Families.hypercube 3);
      ("torus 3x3", Families.torus 3 3);
      ("circulant 10 {1,3}", Families.circulant 10 [ 1; 3 ]);
      ("K3,3", Families.complete_bipartite 3 3);
      ("prism C3xK2", Families.circulant 6 [ 2; 3 ]);
    ]

let test_recognize_negative () =
  List.iter
    (fun (name, g) ->
      match Cayley_detect.recognize g with
      | Cayley_detect.Not_cayley -> ()
      | Cayley_detect.Cayley _ ->
          Alcotest.failf "%s wrongly declared Cayley" name
      | Cayley_detect.Unknown msg -> Alcotest.failf "%s unknown: %s" name msg)
    [
      ("Petersen", Families.petersen ());
      ("path P4", Families.path 4);
      ("star K1,3", Families.star 3);
      ("wheel W5", Families.wheel 5);
      ("grid 2x3", Families.grid 2 3);
    ]

let test_recognition_translation_classes () =
  match Cayley_detect.recognize (Families.cycle 8) with
  | Cayley_detect.Cayley r ->
      let classes = Cayley_detect.translation_classes r ~black:[ 0; 4 ] in
      Alcotest.(check (list int)) "sizes all 2" [ 2; 2; 2; 2 ]
        (sorted_sizes classes)
  | _ -> Alcotest.fail "C8 must be Cayley"

let test_recognition_deterministic () =
  (* Two runs on the same graph recover the identical regular subgroup —
     agents must agree. *)
  let g = Families.hypercube 3 in
  match (Cayley_detect.recognize g, Cayley_detect.recognize g) with
  | Cayley_detect.Cayley a, Cayley_detect.Cayley b ->
      Alcotest.(check bool) "same translations" true
        (a.translations = b.translations);
      Alcotest.(check (list int)) "same generators" a.generators b.generators
  | _ -> Alcotest.fail "Q3 must be Cayley"

(* One recognition is one canonical search: its orbits decide vertex
   transitivity and its generators are closed into the group. *)
let test_recognition_one_canonical_run () =
  let before = Qe_symmetry.Artifact_cache.enabled () in
  Qe_symmetry.Artifact_cache.set_enabled false;
  let sink = Qe_obs.Sink.create () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Qe_symmetry.Artifact_cache.set_enabled before)
      (fun () ->
        Qe_obs.Sink.with_ambient sink (fun () ->
            Cayley_detect.recognize (Families.cycle 8)))
  in
  (match outcome with
  | Cayley_detect.Cayley r ->
      Alcotest.(check bool) "C8 verified" true
        (Cayley_detect.verify (Families.cycle 8) r)
  | _ -> Alcotest.fail "C8 must be Cayley");
  Alcotest.(check (option int)) "canon.runs" (Some 1)
    (canon_runs sink)

(* --- Theorem 4.1 marking process --- *)

let test_refine_labeling_c8_antipodal () =
  let t = Refine_labeling.run (GCayley.ring 8) ~black:[ 0; 4 ] in
  Alcotest.(check int) "gcd 2" 2 t.Refine_labeling.gcd;
  Alcotest.(check bool) "monotone" true (Refine_labeling.monotone_refinement t);
  Alcotest.(check bool) "translations preserved" true
    (Refine_labeling.translations_always_refine t);
  Alcotest.(check bool) "final sizes" true
    (Refine_labeling.all_final_size_gcd t);
  Alcotest.(check bool) "final = translation classes" true
    (Refine_labeling.final_equals_translation_classes t);
  (* the ~ classes of C8 with antipodal blacks are NOT uniform (reflections
     merge), so at least one marking step is required *)
  Alcotest.(check bool) "at least one step" true
    (List.length t.Refine_labeling.steps >= 1)

let test_refine_labeling_various () =
  List.iter
    (fun (c, black, expected_gcd) ->
      let t = Refine_labeling.run c ~black in
      Alcotest.(check int) "gcd" expected_gcd t.Refine_labeling.gcd;
      Alcotest.(check bool) "monotone" true
        (Refine_labeling.monotone_refinement t);
      Alcotest.(check bool) "translations preserved" true
        (Refine_labeling.translations_always_refine t);
      Alcotest.(check bool) "final sizes" true
        (Refine_labeling.all_final_size_gcd t);
      Alcotest.(check bool) "final = translation classes" true
        (Refine_labeling.final_equals_translation_classes t))
    [
      (GCayley.ring 8, [ 0; 4 ], 2);
      (GCayley.ring 8, [ 0; 1 ], 1);
      (GCayley.ring 12, [ 0; 4; 8 ], 3);
      (GCayley.ring 12, [ 0; 2; 6; 8 ], 2);
      (GCayley.hypercube 3, [ 0; 7 ], 2);
      (GCayley.torus 3 3, [ 0 ], 1);
      (GCayley.hypercube 2, [ 0; 1; 2; 3 ], 4);
    ]

(* --- Surroundings --- *)

let test_surrounding_root_indegree () =
  (* u is the unique node with in-degree 0 in S(u) (for simple graphs
     where u has no equidistant neighbors... in general u always has
     in-degree 0 since d(u,u)=0 <= d(u,y) strictly less for neighbors). *)
  let b = Bicolored.make (Families.petersen ()) ~black:[ 0 ] in
  for u = 0 to 9 do
    let s = Cdigraph.of_surrounding b u in
    Alcotest.(check (list (pair int int))) "root has no in-arcs" []
      (Cdigraph.in_arcs s u)
  done

let test_surrounding_iso_iff_equivalent () =
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let t = Classes.compute b in
  (* S(u) ≅ S(v) by surrounding certificates, and the classes agree *)
  let equivalent u v =
    let iso = String.equal (surrounding_cert b u) (surrounding_cert b v) in
    Alcotest.(check bool) "same class iff iso surroundings" iso
      (Classes.class_of_node t u = Classes.class_of_node t v);
    iso
  in
  (* 1 and 2 are equivalent (reflection+rotation), 0 and 1 are not (colors
     differ) *)
  Alcotest.(check bool) "1 ~ 2" true (equivalent 1 2);
  Alcotest.(check bool) "0 !~ 1" false (equivalent 0 1);
  Alcotest.(check bool) "0 ~ 3" true (equivalent 0 3)

(* --- Differential tests: worklist refiner vs the reference 1-WL round --- *)

(* The naive reference refiner (the pre-worklist implementation, kept
   verbatim): per-round global re-signature with tuple keys and
   polymorphic compare. The production refiner must agree with it. *)
module Naive = struct
  let rank_assign keys =
    let distinct = List.sort_uniq compare (Array.to_list keys) in
    let index = Hashtbl.create (List.length distinct) in
    List.iteri (fun i k -> Hashtbl.add index k i) distinct;
    Array.map (fun k -> Hashtbl.find index k) keys

  let step g p =
    let signature u =
      let outs =
        List.sort compare
          (List.map (fun (v, c) -> (c, p.(v))) (Cdigraph.out_arcs g u))
      in
      let ins =
        List.sort compare
          (List.map (fun (v, c) -> (c, p.(v))) (Cdigraph.in_arcs g u))
      in
      (p.(u), outs, ins)
    in
    rank_assign (Array.init (Cdigraph.n g) signature)

  let num_cells p = Array.fold_left (fun acc c -> max acc (c + 1)) 0 p

  let fixpoint g p0 =
    let rec go p =
      let p' = step g p in
      if num_cells p' = num_cells p then p else go p'
    in
    go p0
end

(* Same cells, possibly different invariant numbering: compare kernels by
   renumbering cells in order of first occurrence. *)
let kernel p =
  let next = ref 0 in
  let map = Hashtbl.create 8 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt map c with
      | Some r -> r
      | None ->
          let r = !next in
          incr next;
          Hashtbl.add map c r;
          r)
    p

let random_start st g =
  (* initial partition, with a couple of random individualizations so the
     differential tests also exercise mid-search partitions *)
  let p = ref (Refine.initial g) in
  for _ = 1 to Random.State.int st 3 do
    p := Refine.split !p (Random.State.int st (Cdigraph.n g))
  done;
  !p

let prop_step_matches_naive =
  QCheck.Test.make ~name:"worklist step = reference step (exact)" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_cdigraph st in
      let p = random_start st g in
      Refine.step g p = Naive.step g p)

let prop_fixpoint_matches_naive =
  QCheck.Test.make ~name:"worklist fixpoint = reference fixpoint (cells)"
    ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_cdigraph st in
      let p = random_start st g in
      kernel (Refine.fixpoint g p) = kernel (Naive.fixpoint g p))

(* The invariant numbering itself, not just the cells: renaming the
   nodes by a random pi renames the fixpoint and nothing else,
   [fixpoint (pi g) (pi p) = fixpoint g p o pi^-1]. Graphs reach ~300
   nodes with two node colours, so the initial cells are large: half are
   sparse random digraphs, half coloured circulants with a few stray
   arcs, whose refinement peels long chains of distance spheres off one
   or two individualized nodes. *)
let random_big_cell_cdigraph st =
  let n = 20 + Random.State.int st 280 in
  let colors = Array.init n (fun _ -> Random.State.int st 2) in
  let arc u v = { Cdigraph.src = u; dst = v; color = Random.State.int st 2 } in
  let rnd () = Random.State.int st n in
  let arcs =
    if Random.State.bool st then
      List.init (n + rnd ()) (fun _ -> arc (rnd ()) (rnd ()))
    else begin
      let jumps = List.init (1 + Random.State.int st 3) (fun _ -> 1 + rnd ()) in
      List.concat_map
        (fun j ->
          let c = Random.State.int st 2 in
          List.init n (fun u ->
              { Cdigraph.src = u; dst = (u + j) mod n; color = c }))
        jumps
      @ List.init (Random.State.int st 4) (fun _ -> arc (rnd ()) (rnd ()))
    end
  in
  let arcs = List.filter (fun a -> a.Cdigraph.src <> a.Cdigraph.dst) arcs in
  Cdigraph.make ~n ~node_color:(fun u -> colors.(u)) arcs

let prop_fixpoint_numbering_exact =
  QCheck.Test.make ~name:"fixpoint numbering exactly invariant under relabeling"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_big_cell_cdigraph st in
      let n = Cdigraph.n g in
      let p = random_start st g in
      let pi = random_permutation st n in
      let p' = Array.make n 0 in
      Array.iteri (fun u c -> p'.(pi.(u)) <- c) p;
      let q = Refine.fixpoint g p
      and q' = Refine.fixpoint (Cdigraph.relabel g pi) p' in
      Array.for_all Fun.id (Array.init n (fun u -> q'.(pi.(u)) = q.(u))))

(* The canonical search's step skips the intact cells of an equitable
   partition as splitters; the result must be the full fixpoint's,
   numbering included, from every node of the graph *)
let prop_individualize_exact =
  QCheck.Test.make ~name:"individualize = fixpoint after split (exact)"
    ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_big_cell_cdigraph st in
      let p = Refine.fixpoint g (random_start st g) in
      List.for_all
        (fun u ->
          Refine.individualize g p u = Refine.fixpoint g (Refine.split p u))
        (List.init (Cdigraph.n g) Fun.id))

(* Splitting sorts only the touched members of a cell, so peeling a
   10^4-node circulant into distance spheres from a 3-agent placement is
   quasi-linear. A whole-cell sort is quadratic here: on a 2-core
   container it measured about 600-680 ms against 4-9 ms, on either side
   of the 250 ms gate (best of three runs). *)
let test_refine_quasi_linear () =
  let g =
    Cdigraph.of_bicolored
      (Bicolored.make (Families.circulant 10_000 [ 1; 3; 9 ]) ~black:[ 0; 1; 5 ])
  in
  let best = ref max_int and cells = ref 0 in
  for _ = 1 to 3 do
    let t0 = Qe_obs.Clock.now_ns () in
    let p = Refine.equitable g in
    best := min !best (Qe_obs.Clock.now_ns () - t0);
    cells := Refine.num_cells p
  done;
  Alcotest.(check int) "discrete" 10_000 !cells;
  if !best > 250_000_000 then
    Alcotest.failf "Refine.equitable took %d ms (gate 250 ms)"
      (!best / 1_000_000)

(* --- Differential tests: Canon vs Brute on graphs up to 8 nodes --- *)

let random_cdigraph_upto st nmax =
  let n = 2 + Random.State.int st (nmax - 1) in
  let colors = Array.init n (fun _ -> Random.State.int st 2) in
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < 0.4 then
        arcs :=
          { Cdigraph.src = u; dst = v; color = Random.State.int st 2 }
          :: !arcs
    done
  done;
  Cdigraph.make ~n ~node_color:(fun u -> colors.(u)) !arcs

let prop_canon_iso_matches_brute_8 =
  QCheck.Test.make ~name:"canon iso decision = brute (n <= 8)" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let a = random_cdigraph_upto st 8 in
      (* half the time an actual relabeling, half an independent graph *)
      let b =
        if Random.State.bool st then
          Cdigraph.relabel a (random_permutation st (Cdigraph.n a))
        else random_cdigraph_upto st 8
      in
      Brute.isomorphic a b = Canon.isomorphic a b)

let prop_canon_orbits_match_brute_8 =
  QCheck.Test.make ~name:"canon orbits = brute orbits (n <= 8)" ~count:30
    QCheck.(int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_cdigraph_upto st 8 in
      Brute.orbits g = (Canon.run g).orbits)

let prop_canon_random_relabel =
  QCheck.Test.make ~name:"random digraphs: certificate iso-invariant"
    ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_cdigraph st in
      let perm = random_permutation st (Cdigraph.n g) in
      String.equal (Canon.certificate g)
        (Canon.certificate (Cdigraph.relabel g perm)))

(* --- Kernel properties over richer palettes (n <= 12, up to three node
   and three arc colours) --- *)

let random_palette_cdigraph st =
  let n = 2 + Random.State.int st 11 in
  let kc = 1 + Random.State.int st 3 in
  let colors = Array.init n (fun _ -> Random.State.int st kc) in
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Random.State.float st 1.0 < 0.35 then
        arcs :=
          { Cdigraph.src = u; dst = v; color = Random.State.int st 3 }
          :: !arcs
    done
  done;
  Cdigraph.make ~n ~node_color:(fun u -> colors.(u)) !arcs

(* A random strictly increasing map over 0..k-1 — relabels the color
   palette without changing the relative order the kernel keys on. *)
let monotone_map st k =
  let m = Array.make (max 1 k) 0 in
  let v = ref (Random.State.int st 3) in
  for c = 0 to k - 1 do
    m.(c) <- !v;
    v := !v + 1 + Random.State.int st 3
  done;
  fun c -> m.(c)

let recolor st g =
  let n = Cdigraph.n g in
  let max_nc =
    Array.fold_left max 0 (Array.init n (Cdigraph.node_color g))
  in
  let max_ac =
    List.fold_left (fun a (r : Cdigraph.arc) -> max a r.color) 0
      (Cdigraph.arcs g)
  in
  let fn = monotone_map st (max_nc + 1) in
  let fa = monotone_map st (max_ac + 1) in
  Cdigraph.make ~n
    ~node_color:(fun u -> fn (Cdigraph.node_color g u))
    (List.map
       (fun (r : Cdigraph.arc) -> { r with Cdigraph.color = fa r.color })
       (Cdigraph.arcs g))

let prop_renumber =
  QCheck.Test.make ~name:"certificate renumber-invariant"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca0; seed |] in
      let g = random_palette_cdigraph st in
      let g' = Cdigraph.relabel g (random_permutation st (Cdigraph.n g)) in
      String.equal (Canon.run g).Canon.certificate
        (Canon.run g').Canon.certificate)

let prop_recolor =
  QCheck.Test.make
    ~name:"labeling recolour-invariant"
    ~count:1000
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca1; seed |] in
      let g = random_palette_cdigraph st in
      let g' = recolor st g in
      let a = Canon.run g and b = Canon.run g' in
      a.Canon.canonical_labeling = b.Canon.canonical_labeling
      && a.Canon.orbits = b.Canon.orbits
      && a.Canon.leaves_visited = b.Canon.leaves_visited)

(* The leaf budget is exact: a search that needs [leaves] leaves
   completes under that budget and raises one leaf short of it. *)
let prop_budget_boundary =
  QCheck.Test.make ~name:"budget boundary at leaves-1" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0xca4; seed |] in
      let g = random_palette_cdigraph st in
      let leaves = (Canon.run g).Canon.leaves_visited in
      let raises budget =
        match Canon.run ~max_leaves:budget g with
        | (_ : Canon.result) -> false
        | exception Canon.Budget_exceeded -> true
      in
      QCheck.assume (leaves > 1);
      raises (leaves - 1) && not (raises leaves))

(* --- Golden corpus: zoo fingerprints are pinned --- *)

let golden_path = "data/canon_golden.txt"

let read_golden () =
  In_channel.with_open_text golden_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Some
               ( String.sub line 0 i,
                 String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

let test_golden_corpus () =
  let module Campaign = Qe_elect.Campaign in
  let golden = read_golden () in
  Alcotest.(check bool) "corpus is non-empty" true (List.length golden > 50);
  let zoo = Campaign.zoo () @ Campaign.cayley_zoo () in
  List.iter
    (fun (i : Campaign.instance) ->
      match List.assoc_opt i.Campaign.name golden with
      | None ->
          Alcotest.failf
            "%s missing from %s (regenerate with `qelect selftest \
             --write-golden`)"
            i.Campaign.name golden_path
      | Some fp ->
          Alcotest.(check string)
            (i.Campaign.name ^ " fingerprint")
            fp
            (Qe_symmetry.Artifact_cache.fingerprint (Campaign.bicolored i)))
    zoo;
  Alcotest.(check int) "corpus covers exactly the zoo" (List.length zoo)
    (List.length golden)

let prop_aut_group_closed =
  QCheck.Test.make ~name:"automorphism group closed under composition"
    ~count:20
    QCheck.(int_bound 10_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let g = random_cdigraph st in
      let autos = Aut.group g in
      let compose a b = Array.init (Array.length a) (fun i -> a.(b.(i))) in
      List.for_all
        (fun a ->
          List.for_all (fun b -> List.mem (compose a b) autos) autos)
        (match autos with _ :: _ :: _ -> autos | _ -> autos))

let () =
  Alcotest.run "symmetry"
    [
      ( "canon",
        [
          Alcotest.test_case "invariant under relabeling" `Quick
            test_canon_invariant_under_relabeling;
          Alcotest.test_case "agrees with brute force" `Quick
            test_canon_agrees_with_brute;
          Alcotest.test_case "orbits match brute force" `Quick
            test_canon_orbits_match_brute;
          Alcotest.test_case "C6 vs two triangles" `Quick
            test_canon_distinguishes_non_isomorphic;
          Alcotest.test_case "canonical forms equal" `Quick
            test_canonical_form_equal_for_isomorphic;
          QCheck_alcotest.to_alcotest prop_canon_random_relabel;
          QCheck_alcotest.to_alcotest prop_canon_iso_matches_brute_8;
          QCheck_alcotest.to_alcotest prop_canon_orbits_match_brute_8;
          QCheck_alcotest.to_alcotest prop_renumber;
          QCheck_alcotest.to_alcotest prop_recolor;
          QCheck_alcotest.to_alcotest prop_budget_boundary;
        ] );
      ( "golden",
        [
          Alcotest.test_case "zoo fingerprints pinned" `Quick
            test_golden_corpus;
        ] );
      ( "refine",
        [
          QCheck_alcotest.to_alcotest prop_step_matches_naive;
          QCheck_alcotest.to_alcotest prop_fixpoint_matches_naive;
          QCheck_alcotest.to_alcotest prop_cdigraph_csr_coherent;
          QCheck_alcotest.to_alcotest prop_fixpoint_numbering_exact;
          QCheck_alcotest.to_alcotest prop_individualize_exact;
          Alcotest.test_case "quasi-linear on 10^4 nodes" `Quick
            test_refine_quasi_linear;
        ] );
      ( "aut",
        [
          Alcotest.test_case "known group orders" `Quick
            test_known_aut_orders;
          Alcotest.test_case "vertex transitivity" `Quick
            test_vertex_transitivity;
          Alcotest.test_case "refinement rounds bound" `Quick
            test_refine_rounds_bound;
          QCheck_alcotest.to_alcotest prop_aut_group_closed;
        ] );
      ( "classes",
        [
          Alcotest.test_case "cycle antipodal" `Quick
            test_classes_cycle_antipodal;
          Alcotest.test_case "cycle adjacent" `Quick
            test_classes_cycle_adjacent;
          Alcotest.test_case "path end" `Quick test_classes_path_end;
          Alcotest.test_case "match automorphism orbits" `Quick
            test_classes_match_aut_orbits;
          Alcotest.test_case "black classes first" `Quick
            test_classes_black_first_ordering;
          Alcotest.test_case "petersen (paper fig 5)" `Quick
            test_classes_petersen_paper;
          Alcotest.test_case "gcd helper" `Quick test_gcd_all;
          QCheck_alcotest.to_alcotest prop_class_order_renumber_invariant;
          Alcotest.test_case "one canonical run" `Quick
            test_classes_one_canonical_run;
          Alcotest.test_case "match surrounding certificates" `Quick
            test_classes_match_surroundings;
          QCheck_alcotest.to_alcotest prop_classes_match_brute_8;
        ] );
      ( "views",
        [
          Alcotest.test_case "figure 2 quantitative" `Quick
            test_figure2_views_quantitative;
          Alcotest.test_case "figure 2c qualitative" `Quick
            test_figure2c_views_equal_but_not_label_equiv;
          Alcotest.test_case "explicit trees" `Quick test_view_tree_explicit;
          Alcotest.test_case "symmetric ring sigma" `Quick
            test_views_symmetric_ring;
          Alcotest.test_case "depth monotonicity" `Quick
            test_equal_views_depth_monotone;
        ] );
      ( "label_equiv",
        [
          Alcotest.test_case "lemma 2.1 same sizes" `Quick
            test_lemma21_same_size;
          Alcotest.test_case "equation 1" `Quick test_equation1;
          Alcotest.test_case "natural labeling = translation classes" `Quick
            test_natural_labeling_label_classes_are_translation_classes;
        ] );
      ( "cayley_detect",
        [
          Alcotest.test_case "positives verified" `Quick
            test_recognize_positive;
          Alcotest.test_case "negatives" `Quick test_recognize_negative;
          Alcotest.test_case "translation classes" `Quick
            test_recognition_translation_classes;
          Alcotest.test_case "deterministic" `Quick
            test_recognition_deterministic;
          Alcotest.test_case "one canonical run" `Quick
            test_recognition_one_canonical_run;
        ] );
      ( "refine_labeling",
        [
          Alcotest.test_case "C8 antipodal" `Quick
            test_refine_labeling_c8_antipodal;
          Alcotest.test_case "sweep" `Quick test_refine_labeling_various;
        ] );
      ( "surroundings",
        [
          Alcotest.test_case "root in-degree 0" `Quick
            test_surrounding_root_indegree;
          Alcotest.test_case "iso iff equivalent" `Quick
            test_surrounding_iso_iff_equivalent;
        ] );
    ]
