(* Tooling layer: serialization, traces, group identification. *)

module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Families = Qe_graph.Families
module Serial = Qe_graph.Serial
module Group = Qe_group.Group
module P = Qe_group.Presentation
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Trace = Qe_runtime.Trace

(* --- serialization --- *)

let test_serial_roundtrip_basic () =
  let g = Families.petersen () in
  let l = Labeling.shuffled ~seed:4 g in
  let text = Serial.to_string ~labeling:l ~black:[ 0; 1 ] g in
  let inst = Serial.of_string text in
  Alcotest.(check bool) "same structure" true
    (Graph.equal_structure g inst.Serial.graph);
  Alcotest.(check (list int)) "agents" [ 0; 1 ] inst.Serial.black;
  match inst.Serial.labeling with
  | None -> Alcotest.fail "labeling lost"
  | Some l' ->
      for u = 0 to Graph.n g - 1 do
        Alcotest.(check (list int)) "symbols"
          (Array.to_list (Labeling.symbols_at l u))
          (Array.to_list (Labeling.symbols_at l' u))
      done

let test_serial_no_optional_sections () =
  let g = Families.cycle 4 in
  let inst = Serial.of_string (Serial.to_string g) in
  Alcotest.(check bool) "no labeling" true (inst.Serial.labeling = None);
  Alcotest.(check (list int)) "no agents" [] inst.Serial.black

let test_serial_comments_and_blanks () =
  let text =
    "# a comment\n\
     qelect-instance v1\n\n\
     nodes 3   # inline comment\n\
     edges\n\
     0 1\n\n\
     1 2\n\
     agents 0 2\n"
  in
  let inst = Serial.of_string text in
  Alcotest.(check int) "nodes" 3 (Graph.n inst.Serial.graph);
  Alcotest.(check int) "edges" 2 (Graph.m inst.Serial.graph);
  Alcotest.(check (list int)) "agents" [ 0; 2 ] inst.Serial.black

let test_serial_errors () =
  let expect_failure name text =
    Alcotest.(check bool) name true
      (try ignore (Serial.of_string text); false with Failure _ -> true)
  in
  expect_failure "bad header" "something else\nnodes 2\n";
  expect_failure "empty" "";
  expect_failure "bad edge" "qelect-instance v1\nnodes 2\nedges\n0 x\n";
  expect_failure "missing nodes" "qelect-instance v1\nedges\n";
  expect_failure "labeling arity"
    "qelect-instance v1\nnodes 2\nedges\n0 1\nlabeling\n0: 1 2\n1: 1\n"

let test_serial_file_roundtrip () =
  let g = Families.hypercube 3 in
  let path = Filename.temp_file "qelect" ".qelect" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serial.save ~path ~black:[ 0; 7 ] g;
      let inst = Serial.load ~path in
      Alcotest.(check bool) "same structure" true
        (Graph.equal_structure g inst.Serial.graph);
      Alcotest.(check (list int)) "agents" [ 0; 7 ] inst.Serial.black)

let prop_serial_roundtrip_random =
  QCheck.Test.make ~name:"serialization roundtrips random instances"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 15))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:4 in
      let l = Labeling.shuffled ~seed g in
      let black = [ 0; n - 1 ] |> List.sort_uniq compare in
      let inst = Serial.of_string (Serial.to_string ~labeling:l ~black g) in
      Graph.equal_structure g inst.Serial.graph
      && inst.Serial.black = black
      &&
      match inst.Serial.labeling with
      | None -> false
      | Some l' ->
          List.for_all
            (fun u ->
              Labeling.symbols_at l u = Labeling.symbols_at l' u)
            (List.init n Fun.id))

(* --- traces --- *)

let test_trace_consistency () =
  let w = World.make (Families.cycle 6) ~black:[ 0; 2 ] in
  let trace, cb = Trace.recorder () in
  let r = Engine.run ~seed:1 ~on_event:cb w Qe_elect.Elect.protocol in
  let total_by_trace =
    List.fold_left
      (fun acc (c, _) -> acc + Trace.moves_of trace c)
      0 r.Engine.per_agent
  in
  Alcotest.(check int) "trace moves = stats moves" r.Engine.total_moves
    total_by_trace;
  Alcotest.(check int) "halts = agents" 2
    (List.length
       (List.filter
          (function Engine.Halted _ -> true | _ -> false)
          (Trace.events trace)))

let test_trace_tag_histogram () =
  let w = World.make (Families.cycle 5) ~black:[ 0; 1 ] in
  let trace, cb = Trace.recorder () in
  ignore (Engine.run ~seed:1 ~on_event:cb w Qe_elect.Elect.protocol);
  let hist = Trace.tag_histogram trace in
  Alcotest.(check bool) "node-id posts present" true
    (List.mem_assoc "node-id" hist);
  Alcotest.(check int) "node-id posted once per node" 5
    (List.assoc "node-id" hist);
  Alcotest.(check bool) "election outcome tag present" true
    (List.mem_assoc "leader" hist || List.mem_assoc "failed" hist)

let test_trace_timeline_and_summary () =
  let w = World.make (Families.path 2) ~black:[ 0 ] in
  let trace, cb = Trace.recorder () in
  ignore (Engine.run ~on_event:cb w Qe_elect.Elect.protocol);
  let tl = Trace.timeline ~limit:3 trace in
  Alcotest.(check bool) "timeline truncates" true
    (String.length tl > 0
    &&
    let lines = String.split_on_char '\n' tl in
    List.exists
      (fun l ->
        let rec contains i =
          i + 4 <= String.length l
          && (String.sub l i 4 = "more" || contains (i + 1))
        in
        contains 0)
      lines);
  Alcotest.(check bool) "summary mentions moves" true
    (let s = Trace.summary trace in
     String.length s > 0)

let test_trace_nodes_touched () =
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let trace, cb = Trace.recorder () in
  ignore (Engine.run ~on_event:cb w Qe_elect.Elect.protocol);
  (* map drawing posts a node-id everywhere; leader tour posts too *)
  Alcotest.(check (list int)) "all nodes touched" [ 0; 1; 2; 3 ]
    (Trace.nodes_touched trace)

(* --- group identification --- *)

let test_alternating () =
  let a4 = Group.alternating 4 in
  Alcotest.(check int) "A4 order 12" 12 (P.order a4);
  Alcotest.(check bool) "A4 not abelian" false (Group.is_abelian a4);
  Alcotest.(check int) "A5 order 60" 60 (P.order (Group.alternating 5));
  Alcotest.(check int) "A3 = Z3" 3 (P.order (Group.alternating 3));
  Alcotest.(check bool) "A4 has no order-6 element" false
    (List.exists (fun a -> P.elt_order a4 a = 6) (Group.elements a4))

let test_find_isomorphism () =
  (* classic isomorphic pairs *)
  let check_iso name g h expected =
    Alcotest.(check bool) name expected (Group.isomorphic g h)
  in
  check_iso "Z6 = Z2xZ3" (P.cyclic 6)
    (P.product (P.cyclic 2) (P.cyclic 3))
    true;
  check_iso "D3 = S3" (P.dihedral 3) (Group.symmetric 3) true;
  check_iso "Z4 != Z2xZ2" (P.cyclic 4)
    (P.product (P.cyclic 2) (P.cyclic 2))
    false;
  check_iso "Q8 != D4" (Group.quaternion ()) (P.dihedral 4) false;
  check_iso "A4 != D6" (Group.alternating 4) (P.dihedral 6) false;
  check_iso "Z2^2:Z2 = D4" (P.semidirect_shift 2) (P.dihedral 4) true;
  (* the returned map is a genuine isomorphism *)
  match
    Group.find_isomorphism (P.dihedral 3) (Group.symmetric 3)
  with
  | None -> Alcotest.fail "expected an isomorphism"
  | Some phi ->
      let g = P.dihedral 3 and h = Group.symmetric 3 in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check int) "homomorphism"
                phi.(P.mul g a b)
                (P.mul h phi.(a) phi.(b)))
            (Group.elements g))
        (Group.elements g)

let test_identify () =
  let check name g expected =
    Alcotest.(check (option string)) name expected (Group.identify g)
  in
  check "Z6" (P.cyclic 6) (Some "Z6");
  check "Z2xZ3 is Z6" (P.product (P.cyclic 2) (P.cyclic 3))
    (Some "Z6");
  check "klein" (P.product (P.cyclic 2) (P.cyclic 2))
    (Some "Z2xZ2");
  check "D5" (P.dihedral 5) (Some "D5");
  check "Q8" (Group.quaternion ()) (Some "Q8");
  check "A4" (Group.alternating 4) (Some "A4");
  check "S4" (Group.symmetric 4) (Some "S4");
  check "shift D4" (P.semidirect_shift 2) (Some "D4");
  check "too big" (Group.symmetric 5) None

let test_identify_recovered_groups () =
  (* recognition + identification end to end *)
  let identify_graph g =
    match Qe_symmetry.Cayley_detect.recognize g with
    | Qe_symmetry.Cayley_detect.Cayley r ->
        Group.identify r.Qe_symmetry.Cayley_detect.group
    | _ -> None
  in
  Alcotest.(check (option string)) "C8" (Some "Z8")
    (identify_graph (Families.cycle 8));
  Alcotest.(check (option string)) "K4 (first subgroup found)" (Some "Z4")
    (identify_graph (Families.complete 4));
  (* Q3 is a Cayley graph of more than one group; whichever regular
     subgroup the deterministic search returns must be a known order-8
     group *)
  match identify_graph (Families.hypercube 3) with
  | Some ("Z8" | "Z2xZ4" | "Z2xZ2xZ2" | "D4" | "Q8") -> ()
  | other ->
      Alcotest.failf "unexpected Q3 group: %s"
        (Option.value ~default:"none" other)

let prop_isomorphic_reflexive =
  QCheck.Test.make ~name:"every catalog-size group is isomorphic to itself"
    ~count:15
    (QCheck.int_range 2 16)
    (fun n -> Group.isomorphic (P.dihedral n) (P.dihedral n))

let () =
  Alcotest.run "tools"
    [
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip_basic;
          Alcotest.test_case "optional sections" `Quick
            test_serial_no_optional_sections;
          Alcotest.test_case "comments and blanks" `Quick
            test_serial_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "file roundtrip" `Quick
            test_serial_file_roundtrip;
          QCheck_alcotest.to_alcotest prop_serial_roundtrip_random;
        ] );
      ( "trace",
        [
          Alcotest.test_case "consistency with stats" `Quick
            test_trace_consistency;
          Alcotest.test_case "tag histogram" `Quick test_trace_tag_histogram;
          Alcotest.test_case "timeline and summary" `Quick
            test_trace_timeline_and_summary;
          Alcotest.test_case "nodes touched" `Quick test_trace_nodes_touched;
        ] );
      ( "group-id",
        [
          Alcotest.test_case "alternating groups" `Quick test_alternating;
          Alcotest.test_case "find isomorphism" `Quick test_find_isomorphism;
          Alcotest.test_case "identify catalog" `Quick test_identify;
          Alcotest.test_case "identify recovered groups" `Quick
            test_identify_recovered_groups;
          QCheck_alcotest.to_alcotest prop_isomorphic_reflexive;
        ] );
    ]
