(* Depth tests: edge cases, algebraic laws and cross-checks that go beyond
   the per-module basics. Grouped by the module they stress. *)

module Color = Qe_color.Color
module Symbol = Qe_color.Symbol
module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Traverse = Qe_graph.Traverse
module Families = Qe_graph.Families
module Group = Qe_group.Group
module P = Qe_group.Presentation
module GCayley = Qe_group.Cayley
module Cdigraph = Qe_symmetry.Cdigraph
module Refine = Qe_symmetry.Refine
module Canon = Qe_symmetry.Canon
module Aut = Qe_symmetry.Aut
module Classes = Qe_symmetry.Classes
module View = Qe_symmetry.View
module Covering = Qe_symmetry.Covering
module Cayley_detect = Qe_symmetry.Cayley_detect
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Sign = Qe_runtime.Sign

(* ---------- color ---------- *)

let test_token_pp_and_names () =
  let c = Color.mint "rouge" in
  Alcotest.(check string) "pp shows name" "rouge"
    (Format.asprintf "%a" Color.pp c);
  Alcotest.(check int) "mint_many empty" 0 (List.length (Color.mint_many [||]))

let test_internal_compare_orders_by_minting () =
  let a = Color.mint "a" in
  let b = Color.mint "b" in
  Alcotest.(check bool) "a < b" true (Color.Internal.compare a b < 0);
  Alcotest.(check int) "a = a" 0 (Color.Internal.compare a a)

(* ---------- graph ---------- *)

let test_dart_errors () =
  let g = Families.cycle 4 in
  Alcotest.(check bool) "port out of range" true
    (try ignore (Graph.dart g 0 5); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative port" true
    (try ignore (Graph.dart g 0 (-1)); false with Invalid_argument _ -> true)

let test_edge_endpoints_and_fold () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check (pair int int)) "edge 1" (1, 2) (Graph.edge_endpoints g 1);
  let darts = ref 0 in
  for u = 0 to Graph.n g - 1 do
    Graph.iter_darts g u (fun _ _ _ _ -> incr darts)
  done;
  Alcotest.(check int) "6 darts" 6 !darts;
  Alcotest.(check bool) "structure equality" true
    (Graph.equal_structure g (Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]));
  Alcotest.(check bool) "different edge order differs" false
    (Graph.equal_structure g (Graph.of_edges ~n:3 [ (1, 2); (0, 1); (2, 0) ]))

let test_max_degree () =
  Alcotest.(check int) "star max degree" 5 (Graph.max_degree (Families.star 5));
  Alcotest.(check int) "cycle max degree" 2
    (Graph.max_degree (Families.cycle 9))

let girth g =
  (* shortest cycle via BFS from each node *)
  let n = Graph.n g in
  let best = ref max_int in
  for s = 0 to n - 1 do
    let dist = Array.make n max_int in
    let parent_edge = Array.make n (-1) in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      Graph.iter_darts g u (fun _ dst _ edge ->
          if dist.(dst) = max_int then begin
            dist.(dst) <- dist.(u) + 1;
            parent_edge.(dst) <- edge;
            Queue.add dst q
          end
          else if parent_edge.(u) <> edge then
            best := min !best (dist.(u) + dist.(dst) + 1))
    done
  done;
  !best

let test_girths () =
  Alcotest.(check int) "petersen girth 5" 5 (girth (Families.petersen ()));
  Alcotest.(check int) "dodecahedron girth 5" 5
    (girth (Families.dodecahedron ()));
  Alcotest.(check int) "desargues girth 6" 6 (girth (Families.desargues ()));
  Alcotest.(check int) "moebius-kantor girth 6" 6
    (girth (Families.moebius_kantor ()));
  Alcotest.(check int) "K4 girth 3" 3 (girth (Families.complete 4));
  Alcotest.(check int) "Q3 girth 4" 4 (girth (Families.hypercube 3))

let test_walk_nodes () =
  let g = Families.path 3 in
  Alcotest.(check (list int)) "walk nodes" [ 0; 1; 2 ]
    (Traverse.walk_nodes g 0 [ 0; 1 ]);
  Alcotest.(check bool) "illegal walk" true
    (try ignore (Traverse.walk_nodes g 0 [ 7 ]); false
     with Invalid_argument _ -> true)

let prop_eccentricity_bounds =
  QCheck.Test.make ~name:"ecc <= diameter <= 2*radius" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 25))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:3 in
      let eccs = List.init n (Traverse.eccentricity g) in
      let dia = Traverse.diameter g in
      let radius = List.fold_left min max_int eccs in
      List.for_all (fun e -> e <= dia) eccs && dia <= 2 * radius)

let prop_dfs_covers =
  QCheck.Test.make ~name:"dfs preorder covers every node from any start"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_range 2 15))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:2 in
      List.for_all
        (fun s -> List.length (Traverse.dfs_preorder g s) = n)
        [ 0; n / 2; n - 1 ])

let prop_kneser_regular =
  QCheck.Test.make ~name:"kneser graphs are regular of degree C(n-k,k)"
    ~count:10
    (QCheck.int_range 5 9)
    (fun n ->
      let k = 2 in
      let g = Families.kneser n k in
      let choose a b =
        let rec go acc a b = if b = 0 then acc else go (acc * a / b) (a - 1) (b - 1) in
        (* compute C(a,b) carefully *)
        ignore (go, a, b);
        let num = ref 1 and den = ref 1 in
        for i = 0 to b - 1 do
          num := !num * (a - i);
          den := !den * (i + 1)
        done;
        !num / !den
      in
      let expected = choose (n - k) k in
      List.for_all
        (fun v -> Graph.degree g v = expected)
        (List.init (Graph.n g) Fun.id))

(* ---------- group ---------- *)

(* powers and conjugates, from the group's own [mul] and [inv] *)
let test_pow_and_conjugate () =
  let pow g a k = List.fold_left (fun x _ -> P.mul g x a) 0 (List.init k Fun.id) in
  let g = P.cyclic 10 in
  Alcotest.(check int) "3^4 = 12 mod 10" 2 (pow g 3 4);
  Alcotest.(check int) "x^0 = e" 0 (pow g 7 0);
  let d = P.dihedral 4 in
  (* conjugating a rotation by a reflection inverts it *)
  let r = 1 and s = 4 in
  Alcotest.(check int) "s r s^-1 = r^-1" (P.inv d r)
    (P.mul d (P.mul d s r) (P.inv d s))

let test_quaternion_element_orders () =
  let q = Group.quaternion () in
  let orders = List.sort compare (List.map (P.elt_order q) (Group.elements q)) in
  Alcotest.(check (list int)) "orders 1,2,4x6" [ 1; 2; 4; 4; 4; 4; 4; 4 ] orders

let test_semidirect_degenerate () =
  let g = P.semidirect_shift 1 in
  Alcotest.(check int) "Z2^1 : Z1 has order 2" 2 (P.order g);
  Alcotest.(check bool) "abelian" true (Group.is_abelian g)

let test_dihedral_small () =
  Alcotest.(check int) "D1 order 2" 2 (P.order (P.dihedral 1));
  Alcotest.(check bool) "D2 abelian (klein)" true
    (Group.is_abelian (P.dihedral 2));
  Alcotest.(check bool) "D3 not abelian" false
    (Group.is_abelian (P.dihedral 3))

let prop_elt_order_divides_group_order =
  QCheck.Test.make ~name:"element order divides group order" ~count:30
    (QCheck.int_range 2 12)
    (fun n ->
      let g = P.dihedral n in
      List.for_all
        (fun a -> P.order g mod P.elt_order g a = 0)
        (Group.elements g))

let prop_closure_is_subgroup =
  QCheck.Test.make ~name:"closure is closed under mul and inv" ~count:30
    QCheck.(pair (int_range 2 16) (int_range 1 15))
    (fun (n, x) ->
      let g = P.cyclic n in
      let x = x mod n in
      QCheck.assume (x <> 0);
      let h = Group.closure g [ x ] in
      List.for_all
        (fun a ->
          List.mem (P.inv g a) h
          && List.for_all (fun b -> List.mem (P.mul g a b) h) h)
        h)

let test_genset_partition () =
  let g = P.cyclic 12 in
  let s = (P.cayley g [ 1; 6 ]).connection in
  let inv, non = List.partition (P.is_involution g) s in
  Alcotest.(check (list int)) "involutions" [ 6 ] inv;
  Alcotest.(check (list int)) "non-involutions" [ 1; 11 ] non;
  Alcotest.(check int) "partition" (List.length s)
    (List.length inv + List.length non)

(* ---------- symmetry: cdigraph / refine / canon ---------- *)

let test_cdigraph_validation () =
  Alcotest.(check bool) "bad endpoint" true
    (try
       ignore
         (Cdigraph.make ~n:2 ~node_color:(fun _ -> 0)
            [ { Cdigraph.src = 0; dst = 5; color = 0 } ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative color" true
    (try
       ignore
         (Cdigraph.make ~n:2 ~node_color:(fun _ -> 0)
            [ { Cdigraph.src = 0; dst = 1; color = -1 } ]);
       false
     with Invalid_argument _ -> true)

let test_relabel_identity () =
  let g = Cdigraph.of_graph (Families.cycle 5) in
  let id = Array.init 5 Fun.id in
  Alcotest.(check bool) "identity relabel" true
    (Cdigraph.equal g (Cdigraph.relabel g id))

let test_refine_split () =
  let g = Cdigraph.of_graph (Families.cycle 6) in
  let p0 = Refine.initial g in
  Alcotest.(check int) "one cell initially" 1 (Refine.num_cells p0);
  let p1 = Refine.split p0 2 in
  Alcotest.(check int) "two cells after split" 2 (Refine.num_cells p1);
  Alcotest.(check bool) "singleton holds node 2" true
    (Refine.cell_members p1 |> Array.to_list
    |> List.exists (fun c -> c = [ 2 ]));
  let p2 = Refine.fixpoint g p1 in
  (* individualizing one node of C6 splits by distance: cells
     {2},{1,3},{0,4},{5} *)
  Alcotest.(check int) "distance cells" 4 (Refine.num_cells p2)

let test_canon_budget () =
  Alcotest.check_raises "budget exceeded" Canon.Budget_exceeded (fun () ->
      ignore (Canon.run ~max_leaves:1 (Cdigraph.of_graph (Families.complete 5))))

let test_aut_too_large () =
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore (Aut.group ~cap:2 (Cdigraph.of_graph (Families.complete 5)));
       false
     with Aut.Too_large -> true)

let test_surrounding_orientation () =
  (* arcs never point strictly toward the root *)
  let b = Bicolored.make (Families.cycle 7) ~black:[ 0 ] in
  let s = Cdigraph.of_surrounding b 0 in
  let dist = Traverse.bfs_distances (Families.cycle 7) 0 in
  List.iter
    (fun (a : Cdigraph.arc) ->
      Alcotest.(check bool) "non-decreasing distance" true
        (dist.(a.src) <= dist.(a.dst)))
    (Cdigraph.arcs s)

let test_classes_wheel_and_complete () =
  (* wheel: hub is its own class *)
  let b = Bicolored.make (Families.wheel 5) ~black:[ 0 ] in
  let t = Classes.compute b in
  Alcotest.(check bool) "hub is a singleton class" true
    (List.exists (fun c -> c = [ 5 ]) (Classes.classes t));
  (* complete graph with j agents: classes are blacks and whites *)
  let b2 = Bicolored.make (Families.complete 5) ~black:[ 0; 1 ] in
  let t2 = Classes.compute b2 in
  Alcotest.(check (list (list int))) "two classes"
    [ [ 0; 1 ]; [ 2; 3; 4 ] ]
    (Classes.classes t2)

let test_class_accessors () =
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let t = Classes.compute b in
  Alcotest.(check int) "node 0 in class 0" 0 (Classes.class_of_node t 0);
  Alcotest.(check int) "node 1 in class 1" 1 (Classes.class_of_node t 1);
  Alcotest.(check bool) "certificates distinct" true
    (let cert i =
       Canon.certificate
         (Cdigraph.of_surrounding b (Classes.representative t i))
     in
     cert 0 <> cert 1)

(* ---------- symmetry: views / covering ---------- *)

let prop_view_equality_is_equivalence =
  QCheck.Test.make ~name:"view equality is an equivalence relation"
    ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 3 8))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:2 in
      let l = Labeling.shuffled ~seed g in
      let nodes = List.init n Fun.id in
      List.for_all
        (fun x ->
          View.equal_views l x x
          && List.for_all
               (fun y -> View.equal_views l x y = View.equal_views l y x)
               nodes)
        nodes)

let test_covering_minimum_bases () =
  let check ?placement name l expected_degree expected_base =
    let t = Covering.minimum_base ?placement l in
    Alcotest.(check int) (name ^ " degree") expected_degree t.Covering.degree;
    Alcotest.(check int) (name ^ " base size") expected_base
      (Cdigraph.n t.Covering.base);
    Alcotest.(check bool) (name ^ " covering") true
      (Covering.is_covering_map ?placement l t)
  in
  check "path5" (Labeling.standard (Families.path 5)) 1 5;
  check "K2" (Labeling.standard (Families.complete 2)) 2 1;
  check "C6 natural" (GCayley.ring 6).P.labeling 6 1;
  check "Q3 natural" (GCayley.hypercube 3).P.labeling 8 1;
  check "fig2c" (snd (Families.figure2c ())) 3 1;
  let b = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ] in
  check ~placement:b "C6 nat + placement" (GCayley.ring 6).P.labeling
    2 3

let test_covering_degree_times_base () =
  List.iter
    (fun (name, l) ->
      let t = Covering.minimum_base l in
      Alcotest.(check int) name
        (Graph.n (Labeling.graph l))
        (t.Covering.degree * Cdigraph.n t.Covering.base))
    [
      ("C8 natural", (GCayley.ring 8).P.labeling);
      ("petersen std", Labeling.standard (Families.petersen ()));
      ("torus natural", (GCayley.torus 3 3).P.labeling);
    ]

let prop_covering_property_random =
  QCheck.Test.make ~name:"minimum base is always a covering" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 2 10))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:3 in
      let l = Labeling.shuffled ~seed g in
      let t = Covering.minimum_base l in
      Covering.is_covering_map l t)

(* ---------- symmetry: regular subgroups ---------- *)

let test_regular_subgroup_counts () =
  (* C4: rotations (Z4) and the fixed-point-free klein group *)
  Alcotest.(check int) "C4 has 2 regular subgroups" 2
    (List.length (Cayley_detect.all_regular_subgroups (Families.cycle 4)));
  (* K4: three cyclic Z4's and one klein V *)
  Alcotest.(check int) "K4 has 4 regular subgroups" 4
    (List.length (Cayley_detect.all_regular_subgroups (Families.complete 4)));
  (* Petersen: none *)
  Alcotest.(check int) "petersen has none" 0
    (List.length (Cayley_detect.all_regular_subgroups (Families.petersen ())));
  (* odd prime cycle: only the rotations *)
  Alcotest.(check int) "C5 has 1" 1
    (List.length (Cayley_detect.all_regular_subgroups (Families.cycle 5)))

let test_all_regular_subgroups_are_valid () =
  List.iter
    (fun g ->
      List.iter
        (fun translations ->
          let n = Graph.n g in
          (* regular: row w maps 0 to w; closed: composition lands in the
             set *)
          Array.iteri
            (fun w phi ->
              Alcotest.(check int) "regular" w phi.(0);
              ignore w)
            translations;
          let as_list = Array.to_list translations in
          Array.iter
            (fun phi ->
              Array.iter
                (fun psi ->
                  let comp = Array.init n (fun i -> phi.(psi.(i))) in
                  Alcotest.(check bool) "closed" true
                    (List.mem comp as_list))
                translations)
            translations)
        (Cayley_detect.all_regular_subgroups g))
    [ Families.cycle 6; Families.complete 4; Families.hypercube 3 ]

(* ---------- runtime ---------- *)

let test_engine_event_stream () =
  let w = World.make (Families.path 2) ~black:[ 0 ] in
  let events = ref [] in
  let proto =
    {
      Protocol.name = "eventful";
      quantitative = false;
      main =
        (fun _ctx ->
          Script.post ~tag:"x" ();
          let obs = Script.observe () in
          (match Lazy.force obs.Protocol.ports with
          | p :: _ -> ignore (Script.move p)
          | [] -> ());
          ignore (Script.erase ~tag:"x");
          Protocol.Leader);
    }
  in
  let r =
    Engine.run ~on_event:(fun e -> events := e :: !events) w proto
  in
  let events = List.rev !events in
  let count p = List.length (List.filter p events) in
  Alcotest.(check int) "one post event" 1
    (count (function Engine.Posted _ -> true | _ -> false));
  Alcotest.(check int) "one move event" 1
    (count (function Engine.Moved _ -> true | _ -> false));
  Alcotest.(check int) "one erase event" 1
    (count (function Engine.Erased _ -> true | _ -> false));
  Alcotest.(check int) "one halt event" 1
    (count (function Engine.Halted _ -> true | _ -> false));
  Alcotest.(check int) "moves agree with stats" r.Engine.total_moves
    (count (function Engine.Moved _ -> true | _ -> false))

let test_engine_deterministic_event_traces () =
  let trace seed =
    let w = World.make (Families.cycle 5) ~black:[ 0; 2 ] in
    let events = ref [] in
    let on_event e =
      events :=
        (match e with
        | Engine.Moved { from_node; to_node; _ } ->
            Printf.sprintf "m%d-%d" from_node to_node
        | Engine.Posted { node; tag; _ } -> Printf.sprintf "p%d:%s" node tag
        | Engine.Erased { node; tag; _ } -> Printf.sprintf "e%d:%s" node tag
        | Engine.Woke _ -> "w"
        | Engine.Halted _ -> "h"
        | _ -> "fault")
        :: !events
    in
    ignore (Engine.run ~seed ~on_event w Qe_elect.Elect.protocol);
    List.rev !events
  in
  Alcotest.(check bool) "same seed, same trace" true (trace 7 = trace 7);
  (* different seeds usually differ; do not assert (could coincide) *)
  ignore (trace 8)

let test_world_accessors () =
  let g = Families.cycle 4 in
  let w = World.make g ~black:[ 1; 3 ] in
  Alcotest.(check (list int)) "home bases" [ 1; 3 ] (World.home_bases w);
  Alcotest.(check int) "num agents" 2 (World.num_agents w);
  Alcotest.(check int) "home of agent 0" 1 (World.home_of_agent w 0);
  let c = World.color_of_agent w 1 in
  Alcotest.(check (option int)) "agent of color" (Some 1)
    (World.agent_of_color w c);
  let sym = World.symbol_of w 0 in
  Alcotest.(check int) "symbol roundtrip" 0 (World.int_of_symbol w sym)

let test_engine_awake_validation () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  (* an empty awake set is a legal (if hopeless) configuration: nobody
     can ever run, and the engine reports that as a clean deadlock *)
  let r = Engine.run ~awake:[] w Qe_elect.Elect.protocol in
  Alcotest.(check bool) "empty awake deadlocks" true
    (r.Engine.outcome = Engine.Deadlock);
  let w2 = World.make (Families.cycle 4) ~black:[ 0 ] in
  Alcotest.(check bool) "out of range awake rejected" true
    (try
       ignore (Engine.run ~awake:[ 5 ] w2 Qe_elect.Elect.protocol);
       false
     with Invalid_argument _ -> true)

let test_presentation_order_varies_between_agents () =
  (* two agents visiting the same node may see different port orders;
     verify at least one node/seed shows a difference *)
  let g = Families.complete 4 in
  let seen = ref [] in
  let proto =
    {
      Protocol.name = "order-probe";
      quantitative = false;
      main =
        (fun _ctx ->
          let obs = Script.observe () in
          seen :=
            List.map Qe_color.Symbol.name (Lazy.force obs.Protocol.ports)
            :: !seen;
          Protocol.Leader);
    }
  in
  (* both agents observe their own home; use same home via... different
     homes have different ports, so instead check across seeds on one
     agent *)
  ignore proto;
  let order seed =
    let w = World.make g ~black:[ 0 ] in
    let out = ref [] in
    let p =
      {
        Protocol.name = "order-probe";
        quantitative = false;
        main =
          (fun _ctx ->
            let obs = Script.observe () in
            out :=
              List.map Qe_color.Symbol.name (Lazy.force obs.Protocol.ports);
            Protocol.Leader);
      }
    in
    ignore (Engine.run ~seed w p);
    !out
  in
  let orders = List.map order [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let distinct = List.sort_uniq compare orders in
  Alcotest.(check bool) "orders vary across seeds" true
    (List.length distinct > 1)

(* ---------- elect: labeling adversaries ---------- *)

let prop_elect_labeling_adversary =
  QCheck.Test.make
    ~name:"ELECT conforms under adversarial labelings" ~count:20
    QCheck.(pair (int_bound 10_000) (int_range 0 4))
    (fun (seed, which) ->
      let g, black =
        List.nth
          [
            (Families.cycle 6, [ 0; 2 ]);
            (Families.cycle 6, [ 0; 3 ]);
            (Families.path 5, [ 0; 2 ]);
            (Families.complete 4, [ 0; 1; 2 ]);
            (Families.petersen (), [ 0; 5 ]);
          ]
          which
      in
      let labeling = Labeling.shuffled ~seed g in
      let b = Bicolored.make g ~black in
      let expected = Classes.gcd_sizes (Classes.compute b) = 1 in
      let w = World.make ~labeling g ~black in
      let r = Engine.run ~seed w Qe_elect.Elect.protocol in
      match r.Engine.outcome with
      | Engine.Elected _ -> expected
      | Engine.Declared_unsolvable -> not expected
      | _ -> false)

let test_elect_stats_consistency () =
  let w = World.make (Families.cycle 7) ~black:[ 0; 1; 3 ] in
  let r = Engine.run ~seed:4 w Qe_elect.Elect.protocol in
  let sum_moves =
    List.fold_left (fun acc (_, s) -> acc + s.Engine.moves) 0 r.Engine.per_agent
  in
  Alcotest.(check int) "per-agent moves sum to total" r.Engine.total_moves
    sum_moves;
  let sum_acc =
    List.fold_left
      (fun acc (_, s) -> acc + s.Engine.posts + s.Engine.erases + s.Engine.reads)
      0 r.Engine.per_agent
  in
  Alcotest.(check int) "accesses sum" r.Engine.total_accesses sum_acc

let () =
  Alcotest.run "depth"
    [
      ( "color",
        [
          Alcotest.test_case "pp and names" `Quick test_token_pp_and_names;
          Alcotest.test_case "internal compare" `Quick
            test_internal_compare_orders_by_minting;
        ] );
      ( "graph",
        [
          Alcotest.test_case "dart errors" `Quick test_dart_errors;
          Alcotest.test_case "endpoints and folds" `Quick
            test_edge_endpoints_and_fold;
          Alcotest.test_case "max degree" `Quick test_max_degree;
          Alcotest.test_case "girths" `Quick test_girths;
          Alcotest.test_case "walk nodes" `Quick test_walk_nodes;
          QCheck_alcotest.to_alcotest prop_eccentricity_bounds;
          QCheck_alcotest.to_alcotest prop_dfs_covers;
          QCheck_alcotest.to_alcotest prop_kneser_regular;
        ] );
      ( "group",
        [
          Alcotest.test_case "pow and conjugate" `Quick
            test_pow_and_conjugate;
          Alcotest.test_case "quaternion orders" `Quick
            test_quaternion_element_orders;
          Alcotest.test_case "semidirect degenerate" `Quick
            test_semidirect_degenerate;
          Alcotest.test_case "small dihedral" `Quick test_dihedral_small;
          Alcotest.test_case "genset partition" `Quick test_genset_partition;
          QCheck_alcotest.to_alcotest prop_elt_order_divides_group_order;
          QCheck_alcotest.to_alcotest prop_closure_is_subgroup;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "cdigraph validation" `Quick
            test_cdigraph_validation;
          Alcotest.test_case "relabel identity" `Quick test_relabel_identity;
          Alcotest.test_case "refine split" `Quick test_refine_split;
          Alcotest.test_case "canon budget" `Quick test_canon_budget;
          Alcotest.test_case "aut cap" `Quick test_aut_too_large;
          Alcotest.test_case "surrounding orientation" `Quick
            test_surrounding_orientation;
          Alcotest.test_case "wheel and complete classes" `Quick
            test_classes_wheel_and_complete;
          Alcotest.test_case "class accessors" `Quick test_class_accessors;
        ] );
      ( "views+covering",
        [
          QCheck_alcotest.to_alcotest prop_view_equality_is_equivalence;
          Alcotest.test_case "minimum bases" `Quick
            test_covering_minimum_bases;
          Alcotest.test_case "degree x base = n" `Quick
            test_covering_degree_times_base;
          QCheck_alcotest.to_alcotest prop_covering_property_random;
        ] );
      ( "regular-subgroups",
        [
          Alcotest.test_case "counts" `Slow test_regular_subgroup_counts;
          Alcotest.test_case "validity" `Slow
            test_all_regular_subgroups_are_valid;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "event stream" `Quick test_engine_event_stream;
          Alcotest.test_case "deterministic traces" `Quick
            test_engine_deterministic_event_traces;
          Alcotest.test_case "world accessors" `Quick test_world_accessors;
          Alcotest.test_case "awake validation" `Quick
            test_engine_awake_validation;
          Alcotest.test_case "presentation order varies" `Quick
            test_presentation_order_varies_between_agents;
        ] );
      ( "elect",
        [
          QCheck_alcotest.to_alcotest prop_elect_labeling_adversary;
          Alcotest.test_case "stats consistency" `Quick
            test_elect_stats_consistency;
        ] );
    ]
