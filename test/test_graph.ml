module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Traverse = Qe_graph.Traverse
module Families = Qe_graph.Families
module Dot = Qe_graph.Dot

let check_handshake g =
  (* Every dart's reverse dart points back. *)
  for u = 0 to Graph.n g - 1 do
    Graph.iter_darts g u (fun i dst dst_port edge ->
        let back = Graph.dart g dst dst_port in
        Alcotest.(check int) "reverse dst" u back.dst;
        Alcotest.(check int) "reverse port" i back.dst_port;
        Alcotest.(check int) "same edge" edge back.edge)
  done

let degree_sum g =
  let s = ref 0 in
  for u = 0 to Graph.n g - 1 do
    s := !s + Graph.degree g u
  done;
  !s

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check int) "deg 0" 1 (Graph.degree g 0);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1);
  Alcotest.(check (list int)) "neighbors of 1" [ 0; 2 ] (Graph.neighbors g 1);
  check_handshake g

let test_loop_and_multi () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (0, 1); (1, 1) ] in
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check int) "deg 0" 2 (Graph.degree g 0);
  Alcotest.(check int) "loop adds 2 ports" 4 (Graph.degree g 1);
  Alcotest.(check bool) "not simple" false (Graph.is_simple g);
  check_handshake g

let test_of_edges_invalid () =
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Graph.of_edges: endpoint 5 out of range")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 5) ]));
  Alcotest.check_raises "n = 0" (Invalid_argument "Graph.of_edges: n must be positive")
    (fun () -> ignore (Graph.of_edges ~n:0 []))

let test_handshake_families () =
  List.iter check_handshake
    [
      Families.cycle 7;
      Families.complete 6;
      Families.hypercube 4;
      Families.petersen ();
      Families.torus 3 4;
      Families.cube_connected_cycles 3;
      Families.circulant 10 [ 2; 5 ];
      fst (Families.figure2c ());
    ]

let test_degree_regularity () =
  let check_regular name g d =
    for u = 0 to Graph.n g - 1 do
      Alcotest.(check int) (name ^ " regular") d (Graph.degree g u)
    done
  in
  check_regular "cycle" (Families.cycle 9) 2;
  check_regular "K6" (Families.complete 6) 5;
  check_regular "Q4" (Families.hypercube 4) 4;
  check_regular "petersen" (Families.petersen ()) 3;
  check_regular "torus" (Families.torus 4 5) 4;
  check_regular "ccc3" (Families.cube_connected_cycles 3) 3;
  check_regular "circulant" (Families.circulant 11 [ 1; 3 ]) 4;
  (* jump n/2 gives a single matching edge *)
  check_regular "circulant with half jump" (Families.circulant 8 [ 1; 4 ]) 3

let test_counts () =
  Alcotest.(check int) "Q4 nodes" 16 (Graph.n (Families.hypercube 4));
  Alcotest.(check int) "Q4 edges" 32 (Graph.m (Families.hypercube 4));
  Alcotest.(check int) "petersen edges" 15 (Graph.m (Families.petersen ()));
  Alcotest.(check int) "ccc3 nodes" 24
    (Graph.n (Families.cube_connected_cycles 3));
  Alcotest.(check int) "ccc3 edges" 36
    (Graph.m (Families.cube_connected_cycles 3));
  Alcotest.(check int) "K7 edges" 21 (Graph.m (Families.complete 7));
  Alcotest.(check int) "binary tree h=3 nodes" 15
    (Graph.n (Families.binary_tree 3));
  Alcotest.(check int) "wheel nodes" 7 (Graph.n (Families.wheel 6))

let test_distances () =
  let g = Families.cycle 10 in
  let d = Traverse.bfs_distances g 0 in
  Alcotest.(check int) "opposite" 5 d.(5);
  Alcotest.(check int) "adjacent" 1 d.(1);
  Alcotest.(check int) "wrap" 1 d.(9);
  Alcotest.(check int) "cycle diameter" 5 (Traverse.diameter g);
  Alcotest.(check int) "Q4 diameter" 4 (Traverse.diameter (Families.hypercube 4));
  Alcotest.(check int) "petersen diameter" 2
    (Traverse.diameter (Families.petersen ()));
  Alcotest.(check int) "path ecc from end" 4
    (Traverse.eccentricity (Families.path 5) 0)

let test_connectivity () =
  Alcotest.(check bool) "cycle connected" true
    (Traverse.is_connected (Families.cycle 5));
  let disconnected = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "two components" false
    (Traverse.is_connected disconnected)

let test_dfs_preorder () =
  let g = Families.path 4 in
  Alcotest.(check (list int)) "path preorder" [ 0; 1; 2; 3 ]
    (Traverse.dfs_preorder g 0);
  Alcotest.(check (list int)) "from middle" [ 1; 0; 2; 3 ]
    (Traverse.dfs_preorder g 1)

let test_closed_node_walk () =
  List.iter
    (fun g ->
      let walk = Traverse.closed_node_walk g 0 in
      Alcotest.(check int) "walk length 2(n-1) on a tree walk"
        (2 * (Graph.n g - 1))
        (List.length walk);
      Alcotest.(check int) "closed" 0 (Traverse.walk_endpoint g 0 walk);
      let visited = List.sort_uniq compare (Traverse.walk_nodes g 0 walk) in
      Alcotest.(check int) "visits all nodes" (Graph.n g)
        (List.length visited))
    [
      Families.cycle 8;
      Families.petersen ();
      Families.hypercube 3;
      Families.binary_tree 3;
      fst (Families.figure2c ());
    ]

let test_closed_edge_walk () =
  List.iter
    (fun g ->
      let walk = Traverse.closed_edge_walk g 0 in
      Alcotest.(check int) "walk length 2m" (2 * Graph.m g)
        (List.length walk);
      Alcotest.(check int) "closed" 0 (Traverse.walk_endpoint g 0 walk);
      (* every edge crossed exactly twice *)
      let crossings = Array.make (Graph.m g) 0 in
      let rec go u = function
        | [] -> ()
        | i :: tl ->
            let d = Graph.dart g u i in
            crossings.(d.edge) <- crossings.(d.edge) + 1;
            go d.dst tl
      in
      go 0 walk;
      Array.iteri
        (fun e c ->
          Alcotest.(check int) (Printf.sprintf "edge %d crossed twice" e) 2 c)
        crossings)
    [
      Families.cycle 8;
      Families.petersen ();
      Families.hypercube 3;
      Families.complete 5;
      fst (Families.figure2c ());
      Families.random_connected ~seed:7 ~n:20 ~extra_edges:15;
    ]

let test_labeling_standard () =
  let g = Families.cycle 5 in
  let l = Labeling.standard g in
  Alcotest.(check bool) "valid" true (Labeling.check l);
  Alcotest.(check int) "port 0 symbol" 0 (Labeling.symbol l 0 0);
  Alcotest.(check int) "port 1 symbol" 1 (Labeling.symbol l 0 1);
  Alcotest.(check (option int)) "find port" (Some 1)
    (Labeling.port_of_symbol l 0 1);
  Alcotest.(check (option int)) "missing symbol" None
    (Labeling.port_of_symbol l 0 9)

let test_labeling_shuffled () =
  List.iter
    (fun seed ->
      let g = Families.hypercube 3 in
      let l = Labeling.shuffled ~seed g in
      Alcotest.(check bool) "valid" true (Labeling.check l))
    [ 0; 1; 2; 42; 1337 ];
  (* deterministic in seed *)
  let g = Families.petersen () in
  let a = Labeling.shuffled ~seed:5 g and b = Labeling.shuffled ~seed:5 g in
  for u = 0 to Graph.n g - 1 do
    Alcotest.(check (list int)) "same labels"
      (Array.to_list (Labeling.symbols_at a u))
      (Array.to_list (Labeling.symbols_at b u))
  done

let test_labeling_rejects_clash () =
  let g = Families.cycle 4 in
  Alcotest.(check bool) "clash rejected" true
    (try
       ignore (Labeling.make g (fun _ _ -> 7));
       false
     with Invalid_argument _ -> true)

let test_bicolored () =
  let g = Families.cycle 6 in
  let b = Bicolored.make g ~black:[ 0; 3 ] in
  Alcotest.(check (list int)) "blacks" [ 0; 3 ] (Bicolored.blacks b);
  Alcotest.(check int) "count" 2 (Bicolored.num_blacks b);
  Alcotest.(check int) "black color" 1 (Bicolored.node_color b 0);
  Alcotest.(check int) "white color" 0 (Bicolored.node_color b 1);
  let c = Bicolored.complement b in
  Alcotest.(check (list int)) "complement" [ 1; 2; 4; 5 ] (Bicolored.blacks c);
  Alcotest.(check bool) "dup rejected" true
    (try
       ignore (Bicolored.make g ~black:[ 1; 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Bicolored.make g ~black:[]);
       false
     with Invalid_argument _ -> true)

let test_figure2_instances () =
  let g, l = Qe_graph.Families.figure2_path () in
  Alcotest.(check int) "path n" 3 (Graph.n g);
  Alcotest.(check int) "l_x(xy)" 1 (Labeling.symbol l 0 0);
  Alcotest.(check int) "l_y(xy)" 1 (Labeling.symbol l 1 0);
  Alcotest.(check int) "l_y(yz)" 2 (Labeling.symbol l 1 1);
  Alcotest.(check int) "l_z(yz)" 1 (Labeling.symbol l 2 0);
  let g2, l2 = Families.figure2c () in
  Alcotest.(check int) "fig2c n" 3 (Graph.n g2);
  Alcotest.(check int) "fig2c m" 6 (Graph.m g2);
  Alcotest.(check bool) "fig2c labeled" true (Labeling.check l2);
  for u = 0 to 2 do
    Alcotest.(check int) "fig2c 4-regular" 4 (Graph.degree g2 u)
  done

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_output () =
  let g = Families.cycle 3 in
  let s = Dot.graph g in
  Alcotest.(check bool) "mentions edge" true (contains s "0 -- 1");
  let b = Bicolored.make g ~black:[ 1 ] in
  let s2 = Dot.bicolored ~labeling:(Labeling.standard g) b in
  Alcotest.(check bool) "black filled" true (contains s2 "fillcolor=black");
  Alcotest.(check bool) "has labels" true (contains s2 "taillabel")

let prop_random_connected =
  QCheck.Test.make ~name:"random_connected is connected and simple" ~count:60
    QCheck.(triple (int_bound 1000) (int_range 1 40) (int_bound 30))
    (fun (seed, n, extra) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:extra in
      Traverse.is_connected g && Graph.is_simple g && Graph.n g = n)

(* Byte-for-byte pins of the two generators whose inner loops dedupe
   edges: one digest over the edge lists of many seeds and sizes, dense
   [extra_edges] (saturating small graphs) and circulants with repeated
   jumps and with a jump j where 2j = n. *)
let edges_digest graphs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun g ->
      Printf.bprintf buf "n=%d:" (Graph.n g);
      List.iter (fun (u, v) -> Printf.bprintf buf "%d-%d," u v) (Graph.edges g);
      Buffer.add_char buf ';')
    graphs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_random_connected_pinned () =
  let graphs =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun seed ->
            List.map
              (fun extra_edges ->
                Families.random_connected ~seed ~n ~extra_edges)
              (if n <= 60 then [ 0; 30; n * n ] else [ 0; 30; n ]))
          (List.init 51 Fun.id))
      [ 1; 2; 5; 60; 200; 1000 ]
  in
  Alcotest.(check string) "random_connected digest"
    "550e9954b3b0c98954ac8c53a0bca652" (edges_digest graphs)

let test_circulant_pinned () =
  let small =
    List.concat_map
      (fun n ->
        let half = n / 2 in
        List.map
          (fun jumps -> Families.circulant n jumps)
          [
            [ 1 ];
            [ 1; 2 ];
            List.init half (fun i -> i + 1);
            [ half; 1 ];
            [ 2; 1; 2; 1 ];
            [ half; half ];
          ])
      (List.init 37 (fun i -> i + 4))
  in
  let large =
    [
      Families.circulant 60 [ 1; 5; 17 ];
      Families.circulant 1000 [ 1; 500; 3 ];
      Families.circulant 1001 [ 500; 1; 9 ];
    ]
  in
  Alcotest.(check string) "circulant digest"
    "f0754c62ce946cf361ae10545a12a0f6" (edges_digest (small @ large))

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:60
    QCheck.(pair (int_bound 1000) (int_range 2 30))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:(n / 2) in
      degree_sum g = 2 * Graph.m g)

(* the CSR view and the allocation-free iterators must describe exactly
   the dart structure the record-based accessors expose *)
let test_csr_iterators () =
  List.iter
    (fun g ->
      let c = Graph.csr g in
      Alcotest.(check int) "csr n" (Graph.n g) c.Qe_graph.Csr.n;
      Alcotest.(check int) "csr m" (Graph.m g) c.Qe_graph.Csr.m;
      for u = 0 to Graph.n g - 1 do
        let from_record =
          List.init (Graph.degree g u) (fun i ->
              let d = Graph.dart g u i in
              (i, d.dst, d.dst_port, d.edge))
        in
        let from_iter = ref [] in
        Graph.iter_darts g u (fun p dst dst_port edge ->
            from_iter := (p, dst, dst_port, edge) :: !from_iter);
        Alcotest.(check bool) "iter_darts = dart" true
          (List.rev !from_iter = from_record);
        let from_fold =
          Graph.fold_darts_at g u ~init:[]
            ~f:(fun acc p dst dst_port edge -> (p, dst, dst_port, edge) :: acc)
        in
        Alcotest.(check bool) "fold_darts_at = dart" true
          (List.rev from_fold = from_record);
        let from_csr =
          Qe_graph.Csr.fold_darts c u ~init:[]
            ~f:(fun acc p dst dst_port edge -> (p, dst, dst_port, edge) :: acc)
        in
        Alcotest.(check bool) "Csr.fold_darts = dart" true
          (List.rev from_csr = from_record)
      done)
    [
      Families.cycle 8;
      Families.petersen ();
      Graph.of_edges ~n:2 [ (0, 1); (0, 1); (1, 1) ];
      fst (Families.figure2c ());
    ]

let test_walk_arrays () =
  List.iter
    (fun g ->
      for s = 0 to min 2 (Graph.n g - 1) do
        Alcotest.(check (list int)) "node walk array = list"
          (Traverse.closed_node_walk g s)
          (Array.to_list (Traverse.closed_node_walk_array g s));
        Alcotest.(check (list int)) "edge walk array = list"
          (Traverse.closed_edge_walk g s)
          (Array.to_list (Traverse.closed_edge_walk_array g s))
      done)
    [
      Families.cycle 8;
      Families.petersen ();
      Families.binary_tree 3;
      Graph.of_edges ~n:3 [ (0, 1); (1, 2); (1, 1); (0, 2); (0, 1) ];
    ]

let prop_walk_endpoint_closed =
  QCheck.Test.make ~name:"closed walks are closed from any start" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 2 20))
    (fun (seed, n) ->
      let g = Families.random_connected ~seed ~n ~extra_edges:3 in
      List.for_all
        (fun src ->
          Traverse.walk_endpoint g src (Traverse.closed_edge_walk g src) = src
          && Traverse.walk_endpoint g src (Traverse.closed_node_walk g src)
             = src)
        [ 0; n / 2; n - 1 ])

(* ---------- serial: total decoding ---------- *)

module Serial = Qe_graph.Serial

(* [of_string_result] must be total: whatever the bytes, it returns
   [Ok] or a typed [Error] — never an escaping exception (the historical
   crashes were [Invalid_argument] leaking from [Graph.of_edges] on
   out-of-range endpoints and from [Labeling.make] on duplicate
   symbols). *)
let decode_total text =
  match Serial.of_string_result text with
  | Ok _ | Error _ -> true
  | exception e ->
      Alcotest.failf "of_string_result raised %s on %S"
        (Printexc.to_string e) text

let sample_text =
  let g = Families.cycle 5 in
  Serial.to_string ~labeling:(Labeling.standard g) ~black:[ 0; 2 ] g

let test_serial_roundtrip () =
  match Serial.of_string_result sample_text with
  | Error e ->
      Alcotest.failf "round-trip failed: %s" (Format.asprintf "%a" Serial.pp_error e)
  | Ok i ->
      Alcotest.(check int) "n" 5 (Graph.n i.Serial.graph);
      Alcotest.(check int) "m" 5 (Graph.m i.Serial.graph);
      Alcotest.(check (list int)) "agents" [ 0; 2 ] i.Serial.black;
      Alcotest.(check bool) "labeling kept" true (i.Serial.labeling <> None)

let test_serial_typed_errors () =
  let cases =
    [
      (* header / shape *)
      ("", "empty");
      ("qelect-instance v2\nnodes 3\n", "bad header");
      ("qelect-instance v1\nedges\n0 1\n", "missing node count");
      ("qelect-instance v1\nnodes 0\n", "bad node count");
      ("qelect-instance v1\nnodes x\n", "bad node count");
      ("qelect-instance v1\nnodes 3\nwat\n", "junk line");
      (* the Graph.of_edges crash: endpoints out of range *)
      ("qelect-instance v1\nnodes 3\nedges\n0 9\n", "endpoint high");
      ("qelect-instance v1\nnodes 3\nedges\n-1 1\n", "endpoint negative");
      (* agents out of range / duplicated *)
      ("qelect-instance v1\nnodes 3\nedges\n0 1\nagents 7\n", "agent high");
      ("qelect-instance v1\nnodes 3\nedges\n0 1\nagents 0 0\n", "dup agent");
      ("qelect-instance v1\nnodes 3\nedges\n0 1\nagents z\n", "bad agent");
      (* labeling rows violating the port/symbol invariants *)
      ( "qelect-instance v1\nnodes 2\nedges\n0 1\nlabeling\n0: 1 2\n1: 1\n",
        "wrong arity" );
      ( "qelect-instance v1\nnodes 3\nedges\n0 1\n0 2\nlabeling\n0: 1 1\n1: \
         1\n2: 1\n",
        "duplicate symbols (Labeling.make)" );
      ("qelect-instance v1\nnodes 2\nedges\n0 1\nlabeling\n9: 1\n", "bad node");
      (* outside Graph's contract: 2K_2 is not a connected network *)
      ("qelect-instance v1\nnodes 4\nedges\n0 1\n2 3\nagents 0\n", "2K_2");
      ("qelect-instance v1\nnodes 2\n", "no edges");
    ]
  in
  List.iter
    (fun (text, what) ->
      match Serial.of_string_result text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted %S" what text
      | exception e ->
          Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    cases;
  (match
     Serial.of_string_result
       "qelect-instance v1\nnodes 4\nedges\n0 1\n2 3\nagents 0\n"
   with
  | Error e ->
      Alcotest.(check int) "disconnected: no single line" 0 e.Serial.line;
      Alcotest.(check string) "disconnected: reason" "graph is disconnected"
        e.Serial.reason
  | Ok _ -> Alcotest.fail "2K_2 accepted");
  (* the legacy raising decoder keeps its Failure contract *)
  Alcotest.(check bool) "of_string raises Failure" true
    (try
       ignore (Serial.of_string "qelect-instance v1\nnodes 3\nedges\n0 9\n");
       false
     with Failure _ -> true)

let prop_serial_truncation_total =
  QCheck.Test.make ~name:"decode of any truncation never raises"
    ~count:(String.length sample_text)
    QCheck.(int_bound (String.length sample_text - 1))
    (fun len -> decode_total (String.sub sample_text 0 len))

let prop_serial_corruption_total =
  QCheck.Test.make ~name:"decode of corrupted bytes never raises" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| 0x5e6; seed |] in
      let b = Bytes.of_string sample_text in
      let flips = 1 + Random.State.int st 6 in
      for _ = 1 to flips do
        let i = Random.State.int st (Bytes.length b) in
        let c =
          match Random.State.int st 4 with
          | 0 -> Char.chr (Random.State.int st 256)
          | 1 -> '-'
          | 2 -> Char.chr (Char.code '0' + Random.State.int st 10)
          | _ -> '\n'
        in
        Bytes.set b i c
      done;
      decode_total (Bytes.to_string b))

let () =
  Alcotest.run "graph"
    [
      ( "serial",
        [
          Alcotest.test_case "round-trip" `Quick test_serial_roundtrip;
          Alcotest.test_case "malformed inputs are typed errors" `Quick
            test_serial_typed_errors;
          QCheck_alcotest.to_alcotest prop_serial_truncation_total;
          QCheck_alcotest.to_alcotest prop_serial_corruption_total;
        ] );
      ( "structure",
        [
          Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
          Alcotest.test_case "loops and multi-edges" `Quick
            test_loop_and_multi;
          Alcotest.test_case "invalid input" `Quick test_of_edges_invalid;
          Alcotest.test_case "handshake across families" `Quick
            test_handshake_families;
          Alcotest.test_case "csr iterators" `Quick test_csr_iterators;
          Alcotest.test_case "walk arrays" `Quick test_walk_arrays;
          QCheck_alcotest.to_alcotest prop_degree_sum;
        ] );
      ( "families",
        [
          Alcotest.test_case "regularity" `Quick test_degree_regularity;
          Alcotest.test_case "node and edge counts" `Quick test_counts;
          Alcotest.test_case "figure 2 instances" `Quick
            test_figure2_instances;
          QCheck_alcotest.to_alcotest prop_random_connected;
          Alcotest.test_case "random_connected pinned" `Quick
            test_random_connected_pinned;
          Alcotest.test_case "circulant pinned" `Quick test_circulant_pinned;
        ] );
      ( "traverse",
        [
          Alcotest.test_case "bfs distances" `Quick test_distances;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "dfs preorder" `Quick test_dfs_preorder;
          Alcotest.test_case "closed node walk" `Quick test_closed_node_walk;
          Alcotest.test_case "closed edge walk" `Quick test_closed_edge_walk;
          QCheck_alcotest.to_alcotest prop_walk_endpoint_closed;
        ] );
      ( "labeling",
        [
          Alcotest.test_case "standard" `Quick test_labeling_standard;
          Alcotest.test_case "shuffled" `Quick test_labeling_shuffled;
          Alcotest.test_case "clash rejected" `Quick
            test_labeling_rejects_clash;
        ] );
      ( "bicolored",
        [ Alcotest.test_case "placement" `Quick test_bicolored ] );
      ("dot", [ Alcotest.test_case "output" `Quick test_dot_output ]);
    ]
