module Graph = Qe_graph.Graph
module Families = Qe_graph.Families
module Bicolored = Qe_graph.Bicolored
module Color = Qe_color.Color
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Protocol = Qe_runtime.Protocol
module Mapping = Qe_elect.Mapping
module Elect = Qe_elect.Elect
module Elect_cayley = Qe_elect.Elect_cayley
module Quantitative = Qe_elect.Quantitative
module Petersen_adhoc = Qe_elect.Petersen_adhoc
module Oracle = Qe_elect.Oracle
module Campaign = Qe_elect.Campaign

(* --- MAP-DRAWING ----------------------------------------------------- *)

(* Run [Mapping.explore] inside the engine and smuggle the maps out
   through a closure. *)
let draw_maps ?seed g black =
  let maps = ref [] in
  let probe =
    {
      Protocol.name = "map-probe";
      quantitative = false;
      main =
        (fun ctx ->
          let m = Mapping.explore ctx in
          maps := (ctx.Protocol.color, m) :: !maps;
          Protocol.Leader);
    }
  in
  let w = World.make g ~black in
  let r = Engine.run ?seed w probe in
  ignore r;
  (w, List.rev !maps)

let degree_multiset g =
  List.sort compare (List.init (Graph.n g) (Graph.degree g))

let test_map_reconstruction () =
  List.iter
    (fun (g, black) ->
      let _, maps = draw_maps g black in
      Alcotest.(check int) "every agent drew a map" (List.length black)
        (List.length maps);
      List.iter
        (fun (_, m) ->
          let h = Mapping.graph m in
          Alcotest.(check int) "node count" (Graph.n g) (Graph.n h);
          Alcotest.(check int) "edge count" (Graph.m g) (Graph.m h);
          Alcotest.(check (list int)) "degree multiset" (degree_multiset g)
            (degree_multiset h);
          Alcotest.(check int) "home count" (List.length black)
            (List.length (Mapping.home_bases m));
          Alcotest.(check bool) "map is connected" true
            (Qe_graph.Traverse.is_connected h);
          Alcotest.(check bool) "labeling valid" true
            (Qe_graph.Labeling.check (Mapping.labeling m)))
        maps)
    [
      (Families.cycle 6, [ 0; 3 ]);
      (Families.petersen (), [ 0; 1 ]);
      (Families.hypercube 3, [ 0; 7 ]);
      (Families.path 5, [ 0; 2 ]);
      (Families.complete 4, [ 0; 1; 2 ]);
      (fst (Families.figure2c ()), [ 0 ]);
      (Families.random_connected ~seed:3 ~n:10 ~extra_edges:5, [ 0; 5 ]);
    ]

let test_map_is_isomorphic () =
  (* the reconstructed map must be isomorphic to the real bicolored
     instance, not just statistically similar *)
  List.iter
    (fun (g, black) ->
      let _, maps = draw_maps g black in
      let real =
        Qe_symmetry.Canon.certificate
          (Qe_symmetry.Cdigraph.of_bicolored (Bicolored.make g ~black))
      in
      List.iter
        (fun (_, m) ->
          let drawn =
            Qe_symmetry.Canon.certificate
              (Qe_symmetry.Cdigraph.of_bicolored (Mapping.bicolored m))
          in
          Alcotest.(check string) "bicolored certificate" real drawn)
        maps)
    [
      (Families.cycle 6, [ 0; 3 ]);
      (Families.petersen (), [ 0; 1 ]);
      (Families.binary_tree 2, [ 0; 3 ]);
      (fst (Families.figure2c ()), [ 0 ]);
    ]

let test_map_agents_agree_on_identities () =
  let g = Families.cycle 8 in
  let w, maps = draw_maps g [ 0; 2; 5 ] in
  ignore w;
  (* all agents see the same set of (identity of home, color) pairs *)
  let homes_of m =
    List.map
      (fun h ->
        ( (let id = Mapping.identity m h in
           (Color.Internal.to_int (Mapping.Identity.color id),
            Mapping.Identity.body id)),
          Color.Internal.to_int (Option.get (Mapping.home_color m h)) ))
      (Mapping.home_bases m)
    |> List.sort compare
  in
  match maps with
  | (_, first) :: rest ->
      let reference = homes_of first in
      List.iter
        (fun (_, m) ->
          Alcotest.(check bool) "same home identities" true
            (homes_of m = reference))
        rest
  | [] -> Alcotest.fail "no maps"

let test_map_move_cost () =
  (* exploration costs at most 4 moves per edge *)
  let g = Families.petersen () in
  let probe =
    {
      Protocol.name = "map-cost";
      quantitative = false;
      main =
        (fun ctx ->
          ignore (Mapping.explore ctx);
          Protocol.Leader);
    }
  in
  let w = World.make g ~black:[ 0 ] in
  let r = Engine.run w probe in
  Alcotest.(check bool) "<= 4m moves" true
    (r.Engine.total_moves <= 4 * Graph.m g)

(* --- protocol conformance (Theorem 3.1) ------------------------------ *)

let strategies3 =
  [
    ("round-robin", Engine.Round_robin);
    ("random", Engine.Random_fair 0);
    ("synchronous", Engine.Synchronous);
  ]

(* a fresh sweep's full records; a quarantined task would silently
   shrink the matrix, so it fails the test instead *)
let sweep_records ?seeds ?strategies ~expected proto instances =
  let rows, summary =
    Campaign.sweep ?seeds ?strategies ~expected proto instances
  in
  Alcotest.(check (list (pair int string)))
    "nothing quarantined" [] summary.Campaign.h_quarantined;
  List.filter_map (fun r -> r.Campaign.s_record) rows

let test_elect_conformance () =
  let records =
    sweep_records ~seeds:[ 0; 1 ] ~strategies:strategies3
      ~expected:Campaign.elect_expected Elect.protocol (Campaign.zoo ())
  in
  let ok, total = Campaign.conformance_rate records in
  List.iter
    (fun r ->
      if not r.Campaign.conforms then
        Alcotest.failf "elect non-conforming: %s/%s/seed%d"
          r.Campaign.inst.Campaign.name r.Campaign.strategy_name
          r.Campaign.seed)
    records;
  Alcotest.(check int) "all conform" total ok

let test_elect_cayley_conformance () =
  let records =
    sweep_records ~seeds:[ 0 ] ~strategies:strategies3
      ~expected:Campaign.elect_expected Elect_cayley.protocol
      (Campaign.cayley_zoo ())
  in
  let ok, total = Campaign.conformance_rate records in
  Alcotest.(check int) "all conform" total ok

let test_quantitative_universal () =
  let records =
    sweep_records ~seeds:[ 0 ] ~strategies:strategies3
      ~expected:(fun _ -> true)
      Quantitative.protocol (Campaign.zoo ())
  in
  let ok, total = Campaign.conformance_rate records in
  Alcotest.(check int) "elects everywhere" total ok

let test_elect_unanimous_verdicts () =
  (* in a failure, every agent must report failure *)
  let w = World.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let r = Engine.run ~seed:5 w Elect.protocol in
  Alcotest.(check bool) "unsolvable" true
    (r.Engine.outcome = Engine.Declared_unsolvable);
  List.iter
    (fun (_, v) ->
      Alcotest.(check bool) "verdict failed" true (v = Protocol.Election_failed))
    r.Engine.verdicts

let test_elect_partial_wake () =
  (* only one agent awake initially: map drawing must wake the rest *)
  List.iter
    (fun awake ->
      let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
      let r = Engine.run ~awake w Elect.protocol in
      match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "partial wake failed")
    [ [ 0 ]; [ 1 ] ]

let test_elect_single_agent () =
  let w = World.make (Families.petersen ()) ~black:[ 4 ] in
  let r = Engine.run w Elect.protocol in
  match r.Engine.outcome with
  | Engine.Elected c ->
      Alcotest.(check bool) "the agent itself" true
        (Color.equal c (World.color_of_agent w 0))
  | _ -> Alcotest.fail "single agent must self-elect"

let test_elect_adversarial_labelings () =
  (* ELECT must behave identically under any edge labeling *)
  List.iter
    (fun seed ->
      let g = Families.cycle 6 in
      let labeling = Qe_graph.Labeling.shuffled ~seed g in
      let w = World.make ~labeling g ~black:[ 0; 2 ] in
      let r = Engine.run ~seed w Elect.protocol in
      (* C6 with blacks {0,2}: reflection through 1 preserves; classes
         {0,2},{1},{3,5},{4}: gcd 1 -> elected *)
      match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "labeling seed %d broke ELECT" seed)
    [ 0; 1; 2; 3; 4 ]

let test_elect_move_complexity_bound () =
  (* Theorem 3.1: O(r |E|) moves. Check a generous concrete constant on
     the suite: moves <= 40 * r * |E|. *)
  let records =
    sweep_records ~seeds:[ 0 ]
      ~strategies:[ ("random", Engine.Random_fair 0) ]
      ~expected:Campaign.elect_expected Elect.protocol (Campaign.zoo ())
  in
  List.iter
    (fun r ->
      let bound = 40 * r.Campaign.agents * r.Campaign.edges in
      if r.Campaign.moves > bound then
        Alcotest.failf "%s: %d moves > 40 r|E| = %d"
          r.Campaign.inst.Campaign.name r.Campaign.moves bound)
    records

(* Theorem 3.1's cost law across a 10x size step: with agents {0, 1, 5},
   moves and whiteboard accesses per r|E| stay under one constant (they
   read 4.2-4.7 on both families at both sizes). *)
let test_elect_cost_law_at_scale () =
  let c = 5.0 in
  List.iter
    (fun (name, g) ->
      let w = World.make g ~black:[ 0; 1; 5 ] in
      let r = Engine.run w Elect.protocol in
      (match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | o -> Alcotest.failf "%s: %a" name Engine.pp_outcome o);
      let re = float_of_int (3 * Graph.m g) in
      List.iter
        (fun (what, count) ->
          let ratio = float_of_int count /. re in
          if ratio > c then
            Alcotest.failf "%s: %s/(r|E|) = %.2f > %.1f" name what ratio c)
        [
          ("moves", r.Engine.total_moves);
          ("accesses", r.Engine.total_accesses);
        ])
    [
      ("circulant:1000:1,3,9", Families.circulant 1000 [ 1; 3; 9 ]);
      ("circulant:10000:1,3,9", Families.circulant 10000 [ 1; 3; 9 ]);
      ("torus:32x32", Families.torus 32 32);
      ("torus:100x100", Families.torus 100 100);
    ]

let test_elect_deep_euclid_chains () =
  (* Fibonacci double stars force the maximum number of AGENT-REDUCE
     rounds (subtractive Euclid on coprime neighbors), including
     searcher/waiter swaps; unequal multipartite parts exercise multi-round
     NODE-REDUCE in both directions. *)
  let leaves a b =
    List.init a (fun i -> 2 + i) @ List.init b (fun i -> 2 + a + i)
  in
  List.iter
    (fun (name, g, black, expect_elect) ->
      List.iter
        (fun seed ->
          let w = World.make g ~black in
          let r = Engine.run ~seed w Elect.protocol in
          let got =
            match r.Engine.outcome with
            | Engine.Elected _ -> true
            | Engine.Declared_unsolvable -> false
            | _ -> Alcotest.failf "%s seed %d: bad outcome" name seed
          in
          Alcotest.(check bool) (Printf.sprintf "%s seed %d" name seed)
            expect_elect got)
        [ 0; 1 ])
    [
      ("dstar 5,3", Families.double_star 5 3, leaves 5 3, true);
      ("dstar 8,5", Families.double_star 8 5, leaves 8 5, true);
      ( "K(4,6,9)",
        Families.complete_multipartite [ 4; 6; 9 ],
        [ 0; 1; 2; 3 ],
        true );
      ( "K(4,6,8)",
        Families.complete_multipartite [ 4; 6; 8 ],
        [ 0; 1; 2; 3 ],
        false );
    ]

let test_elect_early_exit_skips_waiting_classes () =
  (* A triple star: three hubs in a path carrying 2, 3 and 4 leaves, all
     leaves home-bases. Three black classes; the gcd hits 1 after the
     first AGENT-REDUCE, so the third class is never activated — its
     agents must still terminate via the leader broadcast. *)
  let hubs = [ (0, 1); (1, 2) ] in
  let leaves =
    List.concat
      [
        List.init 2 (fun i -> (0, 3 + i));
        List.init 3 (fun i -> (1, 5 + i));
        List.init 4 (fun i -> (2, 8 + i));
      ]
  in
  let g = Graph.of_edges ~n:12 (hubs @ leaves) in
  let black = List.init 9 (fun i -> 3 + i) in
  let b = Bicolored.make g ~black in
  let classes = Qe_symmetry.Classes.compute b in
  Alcotest.(check int) "three black classes" 3
    (Qe_symmetry.Classes.num_black_classes classes);
  Alcotest.(check int) "gcd 1" 1 (Qe_symmetry.Classes.gcd_sizes classes);
  List.iter
    (fun seed ->
      let w = World.make g ~black in
      let r = Engine.run ~seed w Elect.protocol in
      (match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "seed %d: no leader" seed);
      (* everyone terminated with a proper verdict *)
      Alcotest.(check int) "nine verdicts" 9 (List.length r.Engine.verdicts))
    [ 0; 1; 2 ]

let test_elect_late_joiner_class_activation () =
  (* Leaf counts 6, 10, 15: every pairwise gcd exceeds 1 but the triple
     gcd is 1, so regardless of how [≺] orders the three black classes,
     the first AGENT-REDUCE leaves d > 1 and the third class must be
     woken through the act/ph activation machinery before the election
     can finish. *)
  let hubs = [ (0, 1); (1, 2) ] in
  let leaf_edges =
    List.concat
      [
        List.init 6 (fun i -> (0, 3 + i));
        List.init 10 (fun i -> (1, 9 + i));
        List.init 15 (fun i -> (2, 19 + i));
      ]
  in
  let g = Graph.of_edges ~n:34 (hubs @ leaf_edges) in
  let black = List.init 31 (fun i -> 3 + i) in
  let b = Bicolored.make g ~black in
  let classes = Qe_symmetry.Classes.compute b in
  Alcotest.(check int) "three black classes" 3
    (Qe_symmetry.Classes.num_black_classes classes);
  let w = World.make g ~black in
  let r = Engine.run ~seed:1 w Elect.protocol in
  match r.Engine.outcome with
  | Engine.Elected _ -> ()
  | _ -> Alcotest.fail "expected election through the activation path"

(* --- Petersen (Figure 5) --------------------------------------------- *)

let test_petersen_elect_fails_adhoc_succeeds () =
  let g = Families.petersen () in
  let b = Bicolored.make g ~black:[ 0; 1 ] in
  Alcotest.(check int) "gcd 2" 2 (Oracle.gcd_classes b);
  let w1 = World.make g ~black:[ 0; 1 ] in
  let r1 = Engine.run ~seed:1 w1 Elect.protocol in
  Alcotest.(check bool) "ELECT reports failure" true
    (r1.Engine.outcome = Engine.Declared_unsolvable);
  List.iter
    (fun (sname, strat) ->
      let w2 = World.make g ~black:[ 0; 1 ] in
      let r2 = Engine.run ~strategy:strat ~seed:2 w2 Petersen_adhoc.protocol in
      match r2.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "ad-hoc failed under %s" sname)
    Campaign.strategies

let test_petersen_adhoc_all_pairs () =
  (* works for any pair of adjacent home-bases (vertex-transitivity) *)
  let g = Families.petersen () in
  List.iter
    (fun (u, v) ->
      let w = World.make g ~black:[ min u v; max u v ] in
      let r = Engine.run ~seed:7 w Petersen_adhoc.protocol in
      match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | _ -> Alcotest.failf "pair (%d,%d) failed" u v)
    [ (0, 1); (2, 3); (5, 7); (4, 9); (1, 6) ]

let test_petersen_adhoc_rejects_wrong_instance () =
  let w = World.make (Families.petersen ()) ~black:[ 0; 2 ] in
  let r = Engine.run w Petersen_adhoc.protocol in
  match r.Engine.outcome with
  | Engine.Inconsistent _ -> ()
  | _ -> Alcotest.fail "non-adjacent pair must abort"

(* --- Oracle ----------------------------------------------------------- *)

let test_oracle_predictions () =
  let check name g black expected =
    let b = Bicolored.make g ~black in
    let got = Format.asprintf "%a" Oracle.pp_prediction (Oracle.predict b) in
    Alcotest.(check string) name expected got
  in
  check "K2" (Families.complete 2) [ 0; 1 ] "unsolvable";
  check "C6 antipodal" (Families.cycle 6) [ 0; 3 ] "unsolvable";
  check "C6 adjacent" (Families.cycle 6) [ 0; 1 ] "unsolvable";
  check "C5 adjacent" (Families.cycle 5) [ 0; 1 ] "solvable";
  check "K4 pair" (Families.complete 4) [ 0; 1 ] "unsolvable";
  check "petersen adjacent" (Families.petersen ()) [ 0; 1 ] "frontier";
  check "path asym" (Families.path 4) [ 0; 2 ] "solvable";
  check "Q3 antipodal" (Families.hypercube 3) [ 0; 7 ] "unsolvable";
  check "single agent" (Families.cycle 7) [ 3 ] "solvable"

let test_oracle_cross_check () =
  (* translation_impossible must coincide with the labeling-based check
     (Theorem 4.1's construction measured through Theorem 2.1's lens) *)
  List.iter
    (fun inst ->
      let b = Campaign.bicolored inst in
      Alcotest.(check bool)
        ("cross-check " ^ inst.Campaign.name)
        (Oracle.translation_impossible b)
        (Oracle.symmetric_labeling_exists b))
    (List.filter
       (fun i -> Graph.n i.Campaign.graph <= 12)
       (Campaign.cayley_zoo ()))

(* [predict] reads the gcd before the regular-subgroup search. Pin that
   order to the old search-first one: on every small Cayley zoo graph
   and a seeded sample of 1-3-agent placements, gcd = 1 never meets a
   placement-preserving translation (Theorems 3.1 and 4.1), so both
   orders give the same verdict. *)
let test_oracle_gcd_first () =
  let search_first b =
    let g = Bicolored.graph b in
    let witnessed =
      Bicolored.num_blacks b = Graph.n g
      && Option.is_some (Qe_symmetry.Transitive.certified_regular g)
    in
    if witnessed || Oracle.translation_impossible b then Oracle.Unsolvable
    else if Oracle.gcd_classes b = 1 then Oracle.Solvable
    else Oracle.Frontier
  in
  let st = Random.State.make [| 22 |] in
  List.iter
    (fun inst ->
      let g = inst.Campaign.graph in
      let n = Graph.n g in
      let sample () =
        let k = 1 + Random.State.int st (min 3 n) in
        let rec pick acc =
          if List.length acc = k then acc
          else
            let u = Random.State.int st n in
            pick (if List.mem u acc then acc else u :: acc)
        in
        pick []
      in
      List.iter
        (fun black ->
          let b = Bicolored.make g ~black in
          let what =
            Printf.sprintf "%s {%s}" inst.Campaign.name
              (String.concat "," (List.map string_of_int black))
          in
          if Oracle.gcd_classes b = 1 then
            Alcotest.(check bool)
              (what ^ ": gcd 1 => no preserving translation")
              false
              (Oracle.translation_impossible b);
          Alcotest.(check bool)
            (what ^ ": gcd-first = search-first")
            true
            (Oracle.predict b = search_first b))
        (inst.Campaign.black :: List.init 6 (fun _ -> sample ())))
    (List.filter
       (fun i -> Graph.n i.Campaign.graph <= 12)
       (Campaign.cayley_zoo ()))

(* A gcd = 1 placement never pays for the search: a cold [predict] makes
   no [oracle.translation] lookup, so [hypercube 7], whose Aut(Q_7) is
   above the subgroup search's cap, answers instead of raising. *)
let test_oracle_gcd_skips_search () =
  let module Cache = Qe_symmetry.Artifact_cache in
  let translation_lookups () =
    match
      List.find_opt
        (fun s -> s.Cache.kind = "oracle.translation")
        (Cache.stats ())
    with
    | Some s -> s.Cache.hits + s.Cache.misses
    | None -> 0
  in
  let b = Bicolored.make (Families.cycle 7) ~black:[ 0; 1; 3 ] in
  Cache.clear ();
  Cache.reset_stats ();
  Alcotest.(check bool) "C7 {0,1,3} solvable" true
    (Oracle.predict b = Oracle.Solvable);
  Alcotest.(check int) "no oracle.translation lookup" 0
    (translation_lookups ());
  let q7 = Bicolored.make (Families.hypercube 7) ~black:[ 0; 1; 3 ] in
  Alcotest.(check bool) "Q7 {0,1,3} solvable" true
    (Oracle.predict q7 = Oracle.Solvable);
  Alcotest.(check int) "still no oracle.translation lookup" 0
    (translation_lookups ())

let test_oracle_cayley_detection () =
  List.iter
    (fun inst ->
      Alcotest.(check bool)
        ("cayley? " ^ inst.Campaign.name)
        inst.Campaign.cayley
        (Oracle.is_cayley inst.Campaign.graph))
    (List.filter (fun i -> Graph.n i.Campaign.graph <= 16) (Campaign.zoo ()))

let test_campaign_zoo_sane () =
  List.iter
    (fun inst ->
      Alcotest.(check bool)
        (inst.Campaign.name ^ " connected")
        true
        (Qe_graph.Traverse.is_connected inst.Campaign.graph);
      List.iter
        (fun u ->
          Alcotest.(check bool) "black in range" true
            (u >= 0 && u < Graph.n inst.Campaign.graph))
        inst.Campaign.black)
    (Campaign.zoo () @ Campaign.cayley_zoo ())

(* --- Figure 1 transformation ------------------------------------------ *)

let test_mailbox_discipline () =
  (* the same ELECT runs unchanged under the message-passing (mailbox)
     scheduler and produces the same outcome *)
  List.iter
    (fun (g, black, expect_elect) ->
      let w = World.make g ~black in
      let r = Engine.run ~strategy:Engine.Fifo_mailbox ~seed:4 w Elect.protocol in
      let got =
        match r.Engine.outcome with
        | Engine.Elected _ -> true
        | Engine.Declared_unsolvable -> false
        | _ -> Alcotest.fail "unexpected outcome under mailbox"
      in
      Alcotest.(check bool) "mailbox outcome" expect_elect got)
    [
      (Families.cycle 5, [ 0; 1 ], true);
      (Families.cycle 6, [ 0; 3 ], false);
      (Families.path 4, [ 0; 2 ], true);
    ]

(* --- navigation and allocation ---------------------------------------- *)

(* BFS distances from [src] in [g]. *)
let bfs_dist g src =
  let dist = Array.make (Graph.n g) max_int in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_darts g v (fun _port dst _dst_port _edge ->
        if dist.(dst) = max_int then begin
          dist.(dst) <- dist.(v) + 1;
          Queue.add dst q
        end)
  done;
  dist

(* Over every zoo graph, a lone agent draws its map, then [Nav.goto]s
   every map node in turn and home again, twice: each walk ends on its
   target, and the walks together take exactly the sum of the
   shortest-path distances (the moves past an explore-only run). *)
let test_goto_shortest () =
  List.iter
    (fun (inst : Campaign.instance) ->
      let g = inst.graph in
      let home = List.hd inst.black in
      let expected = ref 0 in
      let walker =
        {
          Protocol.name = "goto-walker";
          quantitative = false;
          main =
            (fun ctx ->
              let m = Mapping.explore ctx in
              let h = Mapping.graph m in
              let nav = Qe_elect.Nav.create m in
              let targets =
                List.init (Graph.n h) Fun.id @ [ Mapping.my_home m ]
              in
              List.iter
                (fun v ->
                  let from = Qe_elect.Nav.position nav in
                  expected := !expected + (bfs_dist h from).(v);
                  ignore (Qe_elect.Nav.goto nav v);
                  if Qe_elect.Nav.position nav <> v then
                    Alcotest.failf "%s: goto %d ended at %d" inst.name v
                      (Qe_elect.Nav.position nav))
                (targets @ targets);
              Protocol.Leader);
        }
      in
      let explore_only =
        {
          Protocol.name = "map-probe";
          quantitative = false;
          main =
            (fun ctx ->
              ignore (Mapping.explore ctx);
              Protocol.Leader);
        }
      in
      let moves p = (Engine.run (World.make g ~black:[ home ]) p).Engine.total_moves in
      let walked = moves walker - moves explore_only in
      Alcotest.(check int) (inst.name ^ ": goto moves") !expected walked)
    (Campaign.zoo ())

(* A zoo pass as the benchmark runs it (45 instances x 5 strategies x
   seeds 5-9, warm cache) stays under 32k words per ELECT run; the
   parent of the allocation work took 46 345, and this tree about 17k. *)
let test_zoo_allocation () =
  let insts = Array.of_list (Campaign.zoo ()) in
  let expected = Array.map Campaign.elect_expected insts in
  let pass () =
    let runs = ref 0 in
    Array.iteri
      (fun i inst ->
        List.iter
          (fun strategy ->
            for seed = 5 to 9 do
              ignore
                (Campaign.run_one ~strategy ~seed ~expected_elected:expected.(i)
                   inst Elect.protocol);
              incr runs
            done)
          Campaign.strategies)
      insts;
    !runs
  in
  ignore (pass ());
  let mi0, pr0, ma0 = Gc.counters () in
  let runs = pass () in
  let mi1, pr1, ma1 = Gc.counters () in
  let words = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0) in
  Alcotest.(check int) "runs" 1125 runs;
  let per_run = words /. float runs in
  if per_run > 32_000. then
    Alcotest.failf "%.0f words per zoo run (pin: <= 32000)" per_run

let () =
  Alcotest.run "elect"
    [
      ( "mapping",
        [
          Alcotest.test_case "reconstruction" `Quick test_map_reconstruction;
          Alcotest.test_case "isomorphic to truth" `Quick
            test_map_is_isomorphic;
          Alcotest.test_case "agents agree on identities" `Quick
            test_map_agents_agree_on_identities;
          Alcotest.test_case "move cost <= 4m" `Quick test_map_move_cost;
          Alcotest.test_case "goto walks shortest paths" `Quick
            test_goto_shortest;
          Alcotest.test_case "zoo allocation pin" `Quick test_zoo_allocation;
        ] );
      ( "elect",
        [
          Alcotest.test_case "theorem 3.1 conformance" `Slow
            test_elect_conformance;
          Alcotest.test_case "unanimous failure verdicts" `Quick
            test_elect_unanimous_verdicts;
          Alcotest.test_case "partial wake" `Quick test_elect_partial_wake;
          Alcotest.test_case "single agent" `Quick test_elect_single_agent;
          Alcotest.test_case "adversarial labelings" `Quick
            test_elect_adversarial_labelings;
          Alcotest.test_case "move complexity O(r|E|)" `Slow
            test_elect_move_complexity_bound;
          Alcotest.test_case "cost law across a 10x step" `Slow
            test_elect_cost_law_at_scale;
          Alcotest.test_case "deep Euclid chains" `Slow
            test_elect_deep_euclid_chains;
          Alcotest.test_case "early exit skips waiting classes" `Quick
            test_elect_early_exit_skips_waiting_classes;
          Alcotest.test_case "late joiner class activation" `Slow
            test_elect_late_joiner_class_activation;
        ] );
      ( "elect-cayley",
        [
          Alcotest.test_case "theorem 4.1 conformance" `Slow
            test_elect_cayley_conformance;
        ] );
      ( "quantitative",
        [
          Alcotest.test_case "universal" `Slow test_quantitative_universal;
        ] );
      ( "petersen",
        [
          Alcotest.test_case "figure 5: ELECT fails, ad-hoc elects" `Quick
            test_petersen_elect_fails_adhoc_succeeds;
          Alcotest.test_case "all adjacent pairs" `Quick
            test_petersen_adhoc_all_pairs;
          Alcotest.test_case "rejects wrong instances" `Quick
            test_petersen_adhoc_rejects_wrong_instance;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "predictions" `Quick test_oracle_predictions;
          Alcotest.test_case "thm 4.1 labeling cross-check" `Slow
            test_oracle_cross_check;
          Alcotest.test_case "gcd first = search first" `Quick
            test_oracle_gcd_first;
          Alcotest.test_case "gcd = 1 skips the search" `Quick
            test_oracle_gcd_skips_search;
          Alcotest.test_case "cayley detection" `Quick
            test_oracle_cayley_detection;
          Alcotest.test_case "zoo sanity" `Quick test_campaign_zoo_sane;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "mailbox discipline" `Quick
            test_mailbox_discipline;
        ] );
    ]
