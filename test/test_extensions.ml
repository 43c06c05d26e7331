module Graph = Qe_graph.Graph
module Families = Qe_graph.Families
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Canon = Qe_symmetry.Canon
module Cdigraph = Qe_symmetry.Cdigraph
module View = Qe_symmetry.View
module MP = Qe_runtime.Message_passing
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Gathering = Qe_elect.Gathering
module Mark_race = Qe_elect.Mark_race
module Oracle = Qe_elect.Oracle
module P = Qe_group.Presentation

(* --- new graph families --- *)

let test_generalized_petersen () =
  let gp52 = Families.generalized_petersen 5 2 in
  Alcotest.(check bool) "GP(5,2) is the Petersen graph" true
    (Canon.isomorphic (Cdigraph.of_graph gp52)
       (Cdigraph.of_graph (Families.petersen ())));
  let gp = Families.dodecahedron () in
  Alcotest.(check int) "GP(10,2) nodes" 20 (Graph.n gp);
  Alcotest.(check int) "GP(10,2) edges" 30 (Graph.m gp);
  for u = 0 to Graph.n gp - 1 do
    Alcotest.(check int) "cubic" 3 (Graph.degree gp u)
  done;
  Alcotest.(check bool) "connected" true
    (Qe_graph.Traverse.is_connected (Families.desargues ()));
  Alcotest.(check bool) "GP rejects k >= n/2" true
    (try ignore (Families.generalized_petersen 6 3); false
     with Invalid_argument _ -> true)

let test_gp_cayleyness () =
  (* Möbius–Kantor is Cayley; dodecahedron and Desargues are
     vertex-transitive but not Cayley *)
  Alcotest.(check bool) "GP(8,3) Cayley" true
    (Oracle.is_cayley (Families.moebius_kantor ()));
  Alcotest.(check bool) "GP(10,2) not Cayley" false
    (Oracle.is_cayley (Families.dodecahedron ()));
  Alcotest.(check bool) "GP(10,3) not Cayley" false
    (Oracle.is_cayley (Families.desargues ()));
  let vt g =
    Qe_symmetry.Aut.is_vertex_transitive (Cdigraph.of_graph g)
  in
  Alcotest.(check bool) "GP(10,2) vertex-transitive" true
    (vt (Families.dodecahedron ()));
  Alcotest.(check bool) "GP(10,3) vertex-transitive" true
    (vt (Families.desargues ()))

let test_kneser () =
  let k52 = Families.kneser 5 2 in
  Alcotest.(check int) "K(5,2) has 10 nodes" 10 (Graph.n k52);
  Alcotest.(check bool) "K(5,2) is Petersen" true
    (Canon.isomorphic (Cdigraph.of_graph k52)
       (Cdigraph.of_graph (Families.petersen ())));
  let k72 = Families.kneser 7 2 in
  Alcotest.(check int) "K(7,2) has 21 nodes" 21 (Graph.n k72);
  for u = 0 to 20 do
    Alcotest.(check int) "K(7,2) is 10-regular" 10 (Graph.degree k72 u)
  done

let test_complete_multipartite () =
  let g = Families.complete_multipartite [ 2; 2; 2 ] in
  Alcotest.(check int) "K(2,2,2) nodes" 6 (Graph.n g);
  Alcotest.(check int) "K(2,2,2) edges" 12 (Graph.m g);
  (* octahedron = circulant C6{1,2} *)
  Alcotest.(check bool) "octahedron" true
    (Canon.isomorphic (Cdigraph.of_graph g)
       (Cdigraph.of_graph (Families.circulant 6 [ 1; 2 ])));
  let kb = Families.complete_multipartite [ 3; 4 ] in
  Alcotest.(check bool) "K(3,4) bipartite form" true
    (Canon.isomorphic (Cdigraph.of_graph kb)
       (Cdigraph.of_graph (Families.complete_bipartite 3 4)))

(* --- message passing / YK views --- *)

let test_view_election_matches_sigma () =
  List.iter
    (fun (name, l) ->
      let sigma = View.sigma l in
      let o = MP.View_election.run l in
      let elected = MP.unique_leader o <> None in
      Alcotest.(check bool) name (sigma = 1) elected)
    [
      ("path5", Labeling.standard (Families.path 5));
      ("C6 std", Labeling.standard (Families.cycle 6));
      ("C6 natural", (Qe_group.Cayley.ring 6).P.labeling);
      ("C5 shuffled", Labeling.shuffled ~seed:3 (Families.cycle 5));
      ("petersen", Labeling.standard (Families.petersen ()));
      ("Q3 natural", (Qe_group.Cayley.hypercube 3).P.labeling);
      ("tree", Labeling.standard (Families.binary_tree 2));
      ("fig2c", snd (Families.figure2c ()));
    ]

let test_view_election_undecided_unanimous () =
  (* when sigma > 1 every processor must detect it *)
  let l = (Qe_group.Cayley.ring 6).P.labeling in
  let o = MP.View_election.run l in
  Array.iter
    (fun v -> Alcotest.(check bool) "undecided" true (v = MP.Undecided))
    o.MP.verdicts

let test_flooding_max () =
  List.iter
    (fun g ->
      let o = MP.Flooding_max.run (Labeling.standard g) in
      match MP.unique_leader o with
      | Some leader ->
          Alcotest.(check int) "max id wins" (Graph.n g - 1) leader
      | None -> Alcotest.fail "flooding must elect")
    [ Families.cycle 7; Families.petersen (); Families.binary_tree 3 ];
  (* custom ids *)
  let ids = [| 5; 9; 1; 3 |] in
  let o = MP.Flooding_max.run ~ids (Labeling.standard (Families.cycle 4)) in
  Alcotest.(check (option int)) "holder of 9" (Some 1) (MP.unique_leader o)

let test_async_flooding_order_independent () =
  (* whoever holds the max id wins under every delivery order *)
  List.iter
    (fun g ->
      let n = Graph.n g in
      List.iter
        (fun seed ->
          let o = MP.Async_flooding.run ~seed (Labeling.standard g) in
          Alcotest.(check (option int))
            (Printf.sprintf "seed %d" seed)
            (Some (n - 1))
            (MP.unique_leader o))
        [ 0; 1; 2; 3; 4 ])
    [ Families.cycle 7; Families.petersen (); Families.binary_tree 3 ];
  (* custom ids: the holder of the max id wins regardless of position *)
  let ids = [| 4; 17; 3; 9; 2 |] in
  let o = MP.Async_flooding.run ~seed:6 ~ids (Labeling.standard (Families.cycle 5)) in
  Alcotest.(check (option int)) "holder of 17" (Some 1) (MP.unique_leader o)

let prop_view_election_sigma =
  QCheck.Test.make ~name:"view election elects iff sigma=1 (random labelings)"
    ~count:25
    QCheck.(pair (int_bound 1000) (int_range 3 8))
    (fun (seed, n) ->
      let g = Families.cycle n in
      let l = Labeling.shuffled ~seed g in
      let sigma = View.sigma l in
      let elected = MP.unique_leader (MP.View_election.run l) <> None in
      (sigma = 1) = elected)

(* --- gathering --- *)

let test_gathering_success () =
  List.iter
    (fun (g, black) ->
      let w = World.make g ~black in
      let r = Engine.run ~seed:3 w Gathering.protocol in
      (match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.fail "gathering: election failed");
      Alcotest.(check bool) "all co-located" true (Gathering.gathered r))
    [
      (Families.cycle 5, [ 0; 1 ]);
      (Families.cycle 7, [ 0; 1; 3 ]);
      (Families.star 4, [ 1; 2; 3; 4 ]);
      (Families.petersen (), [ 4 ]);
      (Families.path 5, [ 0; 2; 3 ]);
    ]

let test_gathering_unsolvable () =
  let w = World.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let r = Engine.run w Gathering.protocol in
  Alcotest.(check bool) "reports failure" true
    (r.Engine.outcome = Engine.Declared_unsolvable);
  Alcotest.(check bool) "not gathered" false (Gathering.gathered r)

let test_gathering_meets_at_leader_home () =
  let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
  let r = Engine.run ~seed:9 w Gathering.protocol in
  match r.Engine.outcome with
  | Engine.Elected leader ->
      let leader_home =
        match World.agent_of_color w leader with
        | Some i -> World.home_of_agent w i
        | None -> Alcotest.fail "unknown leader"
      in
      List.iter
        (fun (_, loc) ->
          Alcotest.(check int) "at leader home" leader_home loc)
        r.Engine.final_locations
  | _ -> Alcotest.fail "expected election"

(* --- mark-race --- *)

let test_mark_race_petersen_always () =
  List.iter
    (fun seed ->
      let w = World.make (Families.petersen ()) ~black:[ 0; 1 ] in
      let r =
        Engine.run ~strategy:(Engine.Random_fair seed) ~seed w
          Mark_race.protocol
      in
      match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "seed %d: mark-race lost on Petersen" seed)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_mark_race_never_inconsistent () =
  (* on any two-agent instance, both agents reach consistent verdicts *)
  List.iter
    (fun (g, black) ->
      List.iter
        (fun seed ->
          let w = World.make g ~black in
          let r =
            Engine.run ~strategy:(Engine.Random_fair seed) ~seed w
              Mark_race.protocol
          in
          match r.Engine.outcome with
          | Engine.Elected _ | Engine.Declared_unsolvable -> ()
          | Engine.Inconsistent { reason; _ } ->
              Alcotest.failf "inconsistent: %s" reason
          | _ -> Alcotest.fail "deadlock/limit")
        [ 0; 1; 2 ])
    [
      (Families.complete 4, [ 0; 1 ]);
      (Families.cycle 8, [ 0; 4 ]);
      (Families.dodecahedron (), [ 0; 1 ]);
      (Families.complete 2, [ 0; 1 ]);
      (Families.path 4, [ 0; 3 ]);
    ]

let test_mark_race_gives_up_when_provably_impossible_and_symmetric () =
  (* K2 and C6-antipodal leave no singleton orbit whatever the marks *)
  List.iter
    (fun (g, black) ->
      List.iter
        (fun seed ->
          let w = World.make g ~black in
          let r =
            Engine.run ~strategy:(Engine.Random_fair seed) ~seed w
              Mark_race.protocol
          in
          Alcotest.(check bool) "gives up" true
            (r.Engine.outcome = Engine.Declared_unsolvable))
        [ 0; 1; 2; 3 ])
    [ (Families.complete 2, [ 0; 1 ]); (Families.cycle 6, [ 0; 3 ]) ]

(* --- random-instance conformance property --- *)

let prop_elect_conforms_on_random_instances =
  QCheck.Test.make
    ~name:"ELECT conforms to the gcd prediction on random instances"
    ~count:30
    QCheck.(triple (int_bound 10_000) (int_range 2 8) (int_range 1 3))
    (fun (seed, n, r) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:(n / 2) in
      let st = Random.State.make [| seed; 77 |] in
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Random.State.int st n in
          if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
      in
      let black = List.sort compare (pick [] (min r n)) in
      let b = Bicolored.make g ~black in
      let expected = Oracle.gcd_classes b = 1 in
      let w = World.make g ~black in
      let result = Engine.run ~seed w Qe_elect.Elect.protocol in
      match result.Engine.outcome with
      | Engine.Elected _ -> expected
      | Engine.Declared_unsolvable -> not expected
      | _ -> false)

let test_elect_and_cayley_variant_observably_equal () =
  (* both protocols elect exactly on gcd = 1 instances, so their outcomes
     coincide everywhere (the Cayley variant just also PROVES
     impossibility before giving up) *)
  List.iter
    (fun inst ->
      let g = inst.Qe_elect.Campaign.graph
      and black = inst.Qe_elect.Campaign.black in
      let run proto =
        let w = World.make g ~black in
        match (Engine.run ~seed:2 w proto).Engine.outcome with
        | Engine.Elected _ -> `E
        | Engine.Declared_unsolvable -> `U
        | _ -> `Bad
      in
      Alcotest.(check bool)
        (inst.Qe_elect.Campaign.name ^ " same observable")
        true
        (run Qe_elect.Elect.protocol
        = run Qe_elect.Elect_cayley.protocol))
    (Qe_elect.Campaign.cayley_zoo ())

(* Random Cayley instances: random catalog group, random generating set,
   random placement — the Theorem 4.1 conformance beyond the fixed zoo. *)
let prop_cayley_fuzzing =
  QCheck.Test.make ~name:"elect-cayley conforms on random Cayley instances"
    ~count:20
    (QCheck.int_bound 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xca11e |] in
      let groups =
        [|
          P.cyclic (5 + Random.State.int st 8);
          P.dihedral (3 + Random.State.int st 3);
          P.product (P.cyclic 2) (P.cyclic (3 + Random.State.int st 3));
          Qe_group.Group.quaternion ();
        |]
      in
      let grp = groups.(Random.State.int st (Array.length groups)) in
      let n = P.order grp in
      (* a random generating set: add random non-identity elements until
         the set generates *)
      let rec build gens =
        if gens <> [] && List.length (Qe_group.Group.closure grp gens) = n then
          gens
        else build ((1 + Random.State.int st (n - 1)) :: gens)
      in
      let g = (P.cayley grp (build [])).graph in
      (* a random placement of 1..3 agents *)
      let r = 1 + Random.State.int st (min 3 n) in
      let rec pick acc k =
        if k = 0 then acc
        else
          let v = Random.State.int st n in
          if List.mem v acc then pick acc k else pick (v :: acc) (k - 1)
      in
      let black = List.sort compare (pick [] r) in
      let b = Bicolored.make g ~black in
      let expected = Oracle.gcd_classes b = 1 in
      let w = World.make g ~black in
      match (Engine.run ~seed w Qe_elect.Elect_cayley.protocol).Engine.outcome
      with
      | Engine.Elected _ -> expected
      | Engine.Declared_unsolvable -> not expected
      | _ -> false)

let prop_canonical_form_idempotent =
  QCheck.Test.make ~name:"canonical form is idempotent" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 7))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:2 in
      let dg = Cdigraph.of_graph g in
      let c1 = Canon.canonical_form dg in
      let c2 = Canon.canonical_form c1 in
      Cdigraph.equal c1 c2)

let prop_aut_order_divides_factorial =
  QCheck.Test.make ~name:"automorphism group order divides n!" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:2 in
      let order = Qe_symmetry.Aut.group_order (Cdigraph.of_graph g) in
      let rec fact k = if k <= 1 then 1 else k * fact (k - 1) in
      fact n mod order = 0)

let () =
  Alcotest.run "extensions"
    [
      ( "families",
        [
          Alcotest.test_case "generalized petersen" `Quick
            test_generalized_petersen;
          Alcotest.test_case "GP cayleyness" `Slow test_gp_cayleyness;
          Alcotest.test_case "kneser" `Quick test_kneser;
          Alcotest.test_case "complete multipartite" `Quick
            test_complete_multipartite;
        ] );
      ( "message-passing",
        [
          Alcotest.test_case "view election matches sigma" `Quick
            test_view_election_matches_sigma;
          Alcotest.test_case "undecided unanimously" `Quick
            test_view_election_undecided_unanimous;
          Alcotest.test_case "flooding max" `Quick test_flooding_max;
          Alcotest.test_case "async flooding order-independent" `Quick
            test_async_flooding_order_independent;
          QCheck_alcotest.to_alcotest prop_view_election_sigma;
        ] );
      ( "gathering",
        [
          Alcotest.test_case "gathers on solvable" `Quick
            test_gathering_success;
          Alcotest.test_case "fails on unsolvable" `Quick
            test_gathering_unsolvable;
          Alcotest.test_case "meets at leader home" `Quick
            test_gathering_meets_at_leader_home;
        ] );
      ( "mark-race",
        [
          Alcotest.test_case "petersen always elects" `Quick
            test_mark_race_petersen_always;
          Alcotest.test_case "never inconsistent" `Slow
            test_mark_race_never_inconsistent;
          Alcotest.test_case "gives up on full symmetry" `Quick
            test_mark_race_gives_up_when_provably_impossible_and_symmetric;
        ] );
      ( "properties",
        [
          Alcotest.test_case "elect = elect-cayley observably" `Slow
            test_elect_and_cayley_variant_observably_equal;
          QCheck_alcotest.to_alcotest prop_cayley_fuzzing;
          QCheck_alcotest.to_alcotest prop_elect_conforms_on_random_instances;
          QCheck_alcotest.to_alcotest prop_canonical_form_idempotent;
          QCheck_alcotest.to_alcotest prop_aut_order_divides_factorial;
        ] );
    ]
