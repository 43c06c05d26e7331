module Metrics = Qe_obs.Metrics
module Jsonl = Qe_obs.Jsonl
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Sink = Qe_obs.Sink
module Clock = Qe_obs.Clock
module Families = Qe_graph.Families
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine

(* --- clock --- *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "positive" true (a > 0)

(* --- metrics --- *)

let test_counter_gauge_hist () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check int) "same instrument" 5
    (Metrics.value (Metrics.counter r "c"));
  let g = Metrics.gauge r "g" in
  Metrics.set g 7;
  Metrics.record_max g 3;
  Alcotest.(check int) "record_max keeps max" 7 (Metrics.gauge_value g);
  Metrics.record_max g 11;
  Alcotest.(check int) "record_max raises" 11 (Metrics.gauge_value g);
  let h = Metrics.histogram ~buckets:[| 1; 10; 100 |] r "h" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 10; 11; 1000 ];
  (match Metrics.find (Metrics.snapshot r) "h" with
  | Some (Metrics.Hist { bounds; counts; sum; count; lo; hi }) ->
      Alcotest.(check (array int)) "bounds" [| 1; 10; 100 |] bounds;
      Alcotest.(check (array int)) "counts" [| 2; 2; 1; 1 |] counts;
      Alcotest.(check int) "sum" 1024 sum;
      Alcotest.(check int) "count" 6 count;
      Alcotest.(check int) "lo" 0 lo;
      Alcotest.(check int) "hi" 1000 hi
  | _ -> Alcotest.fail "histogram sample missing");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.gauge: c is not a gauge") (fun () ->
      ignore (Metrics.gauge r "c"))

let test_snapshot_sorted_and_diff () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "z.count") 10;
  Metrics.add (Metrics.counter r "a.count") 3;
  Metrics.set (Metrics.gauge r "m.hwm") 5;
  let before = Metrics.snapshot r in
  Alcotest.(check (list string))
    "sorted by name"
    [ "a.count"; "m.hwm"; "z.count" ]
    (List.map fst before);
  Metrics.add (Metrics.counter r "z.count") 7;
  Metrics.set (Metrics.gauge r "m.hwm") 2;
  Metrics.incr (Metrics.counter r "fresh");
  let after = Metrics.snapshot r in
  let d = Metrics.diff ~after ~before in
  Alcotest.(check bool)
    "interval counter" true
    (Metrics.find d "z.count" = Some (Metrics.Counter 7));
  Alcotest.(check bool)
    "untouched counter" true
    (Metrics.find d "a.count" = Some (Metrics.Counter 0));
  Alcotest.(check bool)
    "after-only counter counts from 0" true
    (Metrics.find d "fresh" = Some (Metrics.Counter 1));
  Alcotest.(check bool)
    "gauge keeps after value" true
    (Metrics.find d "m.hwm" = Some (Metrics.Gauge 2))

let test_merge () =
  let mk c g =
    let r = Metrics.create () in
    Metrics.add (Metrics.counter r "n") c;
    Metrics.record_max (Metrics.gauge r "hwm") g;
    Metrics.observe (Metrics.histogram r "h") c;
    Metrics.snapshot r
  in
  let m = Metrics.merge (mk 3 10) (mk 5 7) in
  Alcotest.(check bool)
    "counters add" true
    (Metrics.find m "n" = Some (Metrics.Counter 8));
  Alcotest.(check bool)
    "gauges max" true
    (Metrics.find m "hwm" = Some (Metrics.Gauge 10));
  (match Metrics.find m "h" with
  | Some (Metrics.Hist { sum; count; _ }) ->
      Alcotest.(check int) "hist sums add" 8 sum;
      Alcotest.(check int) "hist counts add" 2 count
  | _ -> Alcotest.fail "merged histogram missing");
  (* one-sided names survive a merge *)
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "only");
  let m = Metrics.merge (mk 1 1) (Metrics.snapshot r) in
  Alcotest.(check bool)
    "one-sided name kept" true
    (Metrics.find m "only" = Some (Metrics.Counter 1))

let test_apply () =
  let mk c g =
    let r = Metrics.create () in
    Metrics.add (Metrics.counter r "n") c;
    Metrics.record_max (Metrics.gauge r "hwm") g;
    Metrics.observe (Metrics.histogram r "h") c;
    r
  in
  (* applying a snapshot to a fresh registry reproduces it *)
  let snap = Metrics.snapshot (mk 3 10) in
  let fresh = Metrics.create () in
  Metrics.apply fresh snap;
  Alcotest.(check bool) "apply to fresh = copy" true
    (Metrics.snapshot fresh = snap);
  (* applying into a live registry behaves like merge *)
  let dst = mk 5 7 in
  Metrics.apply dst snap;
  Alcotest.(check bool)
    "apply into live = merge" true
    (Metrics.snapshot dst = Metrics.merge (Metrics.snapshot (mk 5 7)) snap)

let test_diff_of_merge_roundtrip () =
  (* diff ~after:(merge a b) ~before:a recovers b's counters *)
  let mk c =
    let r = Metrics.create () in
    Metrics.add (Metrics.counter r "n") c;
    Metrics.snapshot r
  in
  let a = mk 11 and b = mk 31 in
  let d = Metrics.diff ~after:(Metrics.merge a b) ~before:a in
  Alcotest.(check bool)
    "counter algebra" true
    (Metrics.find d "n" = Some (Metrics.Counter 31))

(* --- jsonl --- *)

let test_jsonl_parse_units () =
  let ok s v =
    match Jsonl.of_string s with
    | Ok got ->
        Alcotest.(check string) ("parse " ^ s) (Jsonl.to_string v)
          (Jsonl.to_string got)
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "null" Jsonl.Null;
  ok "true" (Jsonl.Bool true);
  ok "-42" (Jsonl.Int (-42));
  ok "1.5" (Jsonl.Float 1.5);
  ok "1e3" (Jsonl.Float 1000.);
  ok {|"aA\n"|} (Jsonl.String "aA\n");
  ok {|[1,[],{"k":null}]|}
    (Jsonl.List [ Jsonl.Int 1; Jsonl.List []; Jsonl.Obj [ ("k", Jsonl.Null) ] ]);
  ok {| { "a" : 1 , "b" : [ true ] } |}
    (Jsonl.Obj [ ("a", Jsonl.Int 1); ("b", Jsonl.List [ Jsonl.Bool true ]) ]);
  List.iter
    (fun s ->
      match Jsonl.of_string s with
      | Ok _ -> Alcotest.fail ("should reject: " ^ s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let test_jsonl_float_roundtrip () =
  List.iter
    (fun f ->
      match Jsonl.of_string (Jsonl.to_string (Jsonl.Float f)) with
      | Ok (Jsonl.Float g) ->
          Alcotest.(check (float 0.)) (string_of_float f) f g
      | Ok _ -> Alcotest.failf "%g did not come back as a float" f
      | Error e -> Alcotest.fail e)
    [ 1.0; -0.5; 3.14159; 1e100; 1e-7; 0.1; float_of_int max_int *. 4. ];
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Jsonl.to_string: non-finite float") (fun () ->
      ignore (Jsonl.to_string (Jsonl.Float Float.nan)))

(* qcheck generator for JSON values; strings are arbitrary bytes, floats
   are dyadic rationals (exactly representable, so decode is exact) *)
let gen_value =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Jsonl.Null;
        map (fun b -> Jsonl.Bool b) bool;
        map (fun i -> Jsonl.Int i) int;
        map (fun n -> Jsonl.Float (float_of_int n /. 16.)) (int_bound 100_000);
        map (fun s -> Jsonl.String s) (string_size (int_bound 12));
      ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n = 0 then leaf
          else
            frequency
              [
                (2, leaf);
                ( 1,
                  map (fun l -> Jsonl.List l)
                    (list_size (int_bound 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun kvs -> Jsonl.Obj kvs)
                    (list_size (int_bound 4)
                       (pair (string_size (int_bound 6)) (self (n / 2)))) );
              ])
        (min n 6))

let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl to_string |> of_string = id" ~count:500
    (QCheck.make gen_value) (fun v ->
      match Jsonl.of_string (Jsonl.to_string v) with
      | Ok v' -> v' = v
      | Error e -> QCheck.Test.fail_reportf "parse error: %s" e)

(* --- spans --- *)

let test_span_tree () =
  let t = Span.tracer () in
  let root = Span.enter t "root" ~attrs:[ ("k", Jsonl.Int 1) ] in
  let child = Span.enter t "child" in
  Span.add_attr child "n" (Jsonl.Int 2);
  ignore (Span.exit t child);
  let closed = Span.exit t root in
  Alcotest.(check string) "root name" "root" closed.Span.name;
  Alcotest.(check int) "one child" 1 (List.length closed.Span.children);
  let c = List.hd closed.Span.children in
  Alcotest.(check bool) "attr attached" true
    (List.mem_assoc "n" c.Span.attrs);
  Alcotest.(check bool) "durations nest" true
    (c.Span.dur_ns <= closed.Span.dur_ns);
  Alcotest.(check int) "root completed" 1 (List.length (Span.roots t));
  let flame = Span.flame closed in
  let contains sub =
    let n = String.length flame and m = String.length sub in
    let rec go i = i + m <= n && (String.sub flame i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "flame mentions both" true
    (contains "root" && contains "child")

let test_span_misuse_raises () =
  let t = Span.tracer () in
  let a = Span.enter t "a" in
  let _b = Span.enter t "b" in
  (try
     ignore (Span.exit t a);
     Alcotest.fail "out-of-order exit should raise"
   with Invalid_argument _ -> ());
  (* with_span is exception-safe: the span still closes *)
  let t = Span.tracer () in
  (try Span.with_span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "closed despite raise" 1 (List.length (Span.roots t))

(* --- export --- *)

let gen_attrs =
  QCheck.Gen.(
    list_size (int_bound 5)
      (pair (string_size (int_bound 8)) (gen_value |> map Fun.id)))

let gen_event =
  QCheck.Gen.(
    map2
      (fun (seq, name) attrs -> { Export.seq; name; attrs })
      (pair (int_bound 100_000) (string_size (int_bound 10)))
      gen_attrs)

let gen_span =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          map
            (fun (((name, start_ns), dur_ns), (attrs, children)) ->
              { Span.name; start_ns; dur_ns; attrs; children })
            (pair
               (pair
                  (pair (string_size (int_bound 8)) (int_bound 1_000_000))
                  (int_bound 1_000_000))
               (pair gen_attrs
                  (if n = 0 then return []
                   else list_size (int_bound 3) (self (n / 2))))))
        (min n 4))

let gen_snapshot =
  let open QCheck.Gen in
  let sample =
    oneof
      [
        map (fun n -> Metrics.Counter n) (int_bound 1_000_000);
        map (fun n -> Metrics.Gauge n) (int_bound 1_000_000);
        map
          (fun ((counts, sum), (a, b)) ->
            let k = Array.length counts - 1 in
            let bounds = Array.init k (fun i -> 1 lsl i) in
            let count = Array.fold_left ( + ) 0 counts in
            let lo = if count = 0 then 0 else min a b in
            let hi = if count = 0 then 0 else max a b in
            Metrics.Hist { bounds; counts; sum; count; lo; hi })
          (pair
             (pair
                (array_size (int_range 1 5) (int_bound 100))
                (int_bound 10_000))
             (pair (int_bound 10_000) (int_bound 10_000)));
      ]
  in
  (* snapshots are sorted, name-unique assoc lists *)
  map
    (fun kvs ->
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) kvs
      |> List.sort (fun (a, _) (b, _) -> compare a b))
    (list_size (int_bound 6) (pair (string_size (int_bound 8)) sample))

let gen_line =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (producer, attrs) -> Export.Meta { producer; attrs })
          (pair (string_size (int_bound 10)) gen_attrs);
        map (fun e -> Export.Event e) gen_event;
        map (fun s -> Export.Span_tree s) gen_span;
        map (fun s -> Export.Metric_snapshot s) gen_snapshot;
      ])

let prop_export_roundtrip =
  QCheck.Test.make ~name:"export to_json |> of_json = id" ~count:300
    (QCheck.make gen_line) (fun l ->
      match Export.of_json (Export.to_json l) with
      | Ok l' -> l' = l
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_export_line_roundtrip =
  QCheck.Test.make ~name:"export via printed line = id" ~count:300
    (QCheck.make gen_line) (fun l ->
      match Export.of_line (Jsonl.to_string (Export.to_json l)) with
      | Ok l' -> l' = l
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let test_export_rejects () =
  let reject s =
    match Export.of_line s with
    | Ok _ -> Alcotest.fail ("should reject: " ^ s)
    | Error _ -> ()
  in
  reject {|{"kind":"wibble"}|};
  reject {|{"schema":"qelect-trace","version":999,"kind":"meta","producer":"x","attrs":{}}|};
  reject {|{"kind":"event","seq":"not-an-int","name":"x","attrs":{}}|};
  reject "[1,2,3]"

let test_export_file_roundtrip () =
  let path = Filename.temp_file "qe_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let lines =
        [
          Export.Meta { producer = "test"; attrs = [ ("k", Jsonl.Int 1) ] };
          Export.Event { seq = 1; name = "moved"; attrs = [] };
          Export.Metric_snapshot [ ("n", Metrics.Counter 3) ];
        ]
      in
      Out_channel.with_open_text path (fun oc ->
          List.iter (Export.write oc) lines;
          output_string oc "\n" (* blank lines are skipped *));
      match Export.read_file path with
      | Ok got -> Alcotest.(check bool) "all lines back" true (got = lines)
      | Error e -> Alcotest.fail e)

(* --- sink --- *)

let test_ambient_scoping () =
  Alcotest.(check bool) "no ambient by default" true (Sink.ambient () = None);
  let outer = Sink.create () and inner = Sink.create () in
  Sink.with_ambient outer (fun () ->
      Alcotest.(check bool) "outer installed" true
        (Sink.ambient () == Some outer |> fun _ ->
         match Sink.ambient () with Some s -> s == outer | None -> false);
      Sink.with_ambient inner (fun () ->
          Alcotest.(check bool) "nested shadows" true
            (match Sink.ambient () with Some s -> s == inner | None -> false));
      Alcotest.(check bool) "restored after nest" true
        (match Sink.ambient () with Some s -> s == outer | None -> false));
  Alcotest.(check bool) "restored at exit" true (Sink.ambient () = None);
  (try Sink.with_ambient outer (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check bool) "restored on raise" true (Sink.ambient () = None)

(* --- engine integration --- *)

let run_traced () =
  let buf = Buffer.create 4096 in
  let sink =
    Sink.create
      ~on_line:(fun l ->
        Buffer.add_string buf (Jsonl.to_string (Export.to_json l));
        Buffer.add_char buf '\n')
      ()
  in
  let w = World.make (Families.cycle 8) ~black:[ 0; 4 ] in
  let r =
    Sink.with_ambient sink (fun () ->
        Engine.run ~strategy:(Engine.Random_fair 0) ~seed:0 ~obs:sink w
          Qe_elect.Elect.protocol)
  in
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match Export.of_line s with
           | Ok l -> l
           | Error e -> Alcotest.fail (e ^ ": " ^ s))
  in
  (r, lines, sink)

let counter_of snap name =
  match Metrics.find snap name with
  | Some (Metrics.Counter n) -> n
  | _ -> Alcotest.fail ("missing counter " ^ name)

let test_engine_trace_totals () =
  let r, lines, _ = run_traced () in
  (match lines with
  | Export.Meta { producer; _ } :: _ ->
      Alcotest.(check string) "meta first" "qelect.engine" producer
  | _ -> Alcotest.fail "first line is not meta");
  let snap =
    match
      List.filter_map
        (function Export.Metric_snapshot s -> Some s | _ -> None)
        lines
    with
    | [ s ] -> s
    | l -> Alcotest.failf "expected 1 metrics line, got %d" (List.length l)
  in
  (* the acceptance bar: trace totals match the engine result exactly *)
  Alcotest.(check int) "moves" r.Engine.total_moves
    (counter_of snap "engine.moves");
  Alcotest.(check int) "accesses" r.Engine.total_accesses
    (counter_of snap "engine.posts"
    + counter_of snap "engine.erases"
    + counter_of snap "engine.reads");
  Alcotest.(check int) "turns" r.Engine.scheduler_turns
    (counter_of snap "engine.turns");
  let moved_events =
    List.length
      (List.filter
         (function
           | Export.Event { name = "moved"; _ } -> true | _ -> false)
         lines)
  in
  Alcotest.(check int) "one moved event per move" r.Engine.total_moves
    moved_events;
  (* kernel counters flowed through the ambient sink *)
  Alcotest.(check bool) "canon work captured" true
    (counter_of snap "canon.runs" > 0);
  Alcotest.(check bool) "refine work captured" true
    (counter_of snap "refine.fixpoints" > 0)

let test_engine_span_tree () =
  let _, lines, _ = run_traced () in
  match
    List.filter_map
      (function Export.Span_tree s -> Some s | _ -> None)
      lines
  with
  | [ root ] ->
      Alcotest.(check string) "root span" "engine.run" root.Span.name;
      Alcotest.(check (list string))
        "phases"
        [ "setup"; "schedule"; "collect" ]
        (List.map (fun c -> c.Span.name) root.Span.children);
      Alcotest.(check bool) "turns attr closed onto root" true
        (List.mem_assoc "turns" root.Span.attrs)
  | l -> Alcotest.failf "expected 1 span tree, got %d" (List.length l)

let test_event_seq_numbering () =
  let _, lines, _ = run_traced () in
  let seqs =
    List.filter_map
      (function Export.Event e -> Some e.Export.seq | _ -> None)
      lines
  in
  Alcotest.(check (list int)) "1..n with no gaps"
    (List.init (List.length seqs) (fun i -> i + 1))
    seqs

let test_wall_time () =
  let w = World.make (Families.cycle 6) ~black:[ 0; 3 ] in
  let r = Engine.run ~seed:0 w Qe_elect.Elect.protocol in
  Alcotest.(check bool) "wall_time_ns positive" true (r.Engine.wall_time_ns > 0)

let test_disabled_probe_is_silent () =
  (* no sink anywhere: nothing observable, and canon still works *)
  let g =
    Qe_symmetry.Cdigraph.of_graph (Qe_graph.Families.petersen ())
  in
  let r = Qe_symmetry.Canon.run g in
  Alcotest.(check bool) "leaves counted" true
    (r.Qe_symmetry.Canon.leaves_visited > 0)

let test_canon_telemetry_matches_result () =
  let sink = Sink.create () in
  let g = Qe_symmetry.Cdigraph.of_graph (Qe_graph.Families.hypercube 3) in
  let r = Sink.with_ambient sink (fun () -> Qe_symmetry.Canon.run g) in
  let snap = Metrics.snapshot sink.Sink.metrics in
  Alcotest.(check int) "canon.leaves = leaves_visited"
    r.Qe_symmetry.Canon.leaves_visited
    (counter_of snap "canon.leaves");
  Alcotest.(check int) "generators counted"
    (List.length r.Qe_symmetry.Canon.generators)
    (counter_of snap "canon.generators");
  Alcotest.(check bool) "nodes >= leaves" true
    (counter_of snap "canon.nodes" >= counter_of snap "canon.leaves")

(* [sweep ~live] with the CLI's --metrics-port accumulator: a
   mutex-guarded merge of every task's snapshot. One sweep per instance
   gives the per-instance snapshots; their merge is the total. *)
let test_campaign_observed_sweep () =
  let module Campaign = Qe_elect.Campaign in
  let instances =
    List.filter
      (fun i -> i.Campaign.name = "C5/adjacent" || i.Campaign.name = "C6/antipodal")
      (Campaign.zoo ())
  in
  let observe inst =
    let acc = ref [] and m = Mutex.create () in
    let push snap =
      Mutex.lock m;
      acc := Metrics.merge !acc snap;
      Mutex.unlock m
    in
    let rows, _ =
      Campaign.sweep ~seeds:[ 0 ]
        ~strategies:[ ("round-robin", Engine.Round_robin) ]
        ~live:push ~expected:Campaign.elect_expected Qe_elect.Elect.protocol
        [ inst ]
    in
    (List.filter_map (fun r -> r.Campaign.s_record) rows, !acc)
  in
  let per_instance = List.map observe instances in
  let records = List.concat_map fst per_instance in
  let total =
    List.fold_left (fun acc (_, s) -> Metrics.merge acc s) [] per_instance
  in
  Alcotest.(check int) "2 records" 2 (List.length records);
  Alcotest.(check int) "2 per-instance snapshots" 2
    (List.length (List.filter (fun (_, s) -> s <> []) per_instance));
  let total_moves = counter_of total "engine.moves" in
  let sum_records =
    List.fold_left (fun acc r -> acc + r.Campaign.moves) 0 records
  in
  Alcotest.(check int) "total merges instance counters" sum_records
    total_moves;
  List.iter
    (fun r ->
      Alcotest.(check bool) "wall_ns threaded" true (r.Campaign.wall_ns > 0))
    records

(* --- trace satellite --- *)

let test_tag_prefix () =
  Alcotest.(check string) "colon tag" "sync"
    (Qe_runtime.Trace.tag_prefix "sync:3:abc");
  Alcotest.(check string) "colon-free tag is its own prefix" "home-base"
    (Qe_runtime.Trace.tag_prefix "home-base");
  Alcotest.(check string) "empty" "" (Qe_runtime.Trace.tag_prefix "")

let test_summary_verdicts () =
  let w = World.make (Families.cycle 6) ~black:[ 0; 2 ] in
  let trace, cb = Qe_runtime.Trace.recorder () in
  ignore (Engine.run ~seed:0 ~on_event:cb w Qe_elect.Elect.protocol);
  let leaders, defeated, failed, aborted =
    Qe_runtime.Trace.verdict_counts trace
  in
  Alcotest.(check int) "one leader" 1 leaders;
  Alcotest.(check int) "one defeated" 1 defeated;
  Alcotest.(check int) "none failed" 0 failed;
  Alcotest.(check int) "none aborted" 0 aborted;
  let s = Qe_runtime.Trace.summary trace in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary names the verdicts" true
    (contains "1 leader, 1 defeated");
  Alcotest.(check bool) "summary has tag histogram" true
    (contains "posts by tag:")

(* --- quantiles --- *)

let sample_of r name =
  match Metrics.find (Metrics.snapshot r) name with
  | Some s -> s
  | None -> Alcotest.fail (name ^ ": sample missing")

let test_quantile_estimates () =
  let r = Metrics.create () in
  let h = Metrics.latency r "one_latency" in
  Alcotest.(check bool) "empty hist has no quantile" true
    (Metrics.quantile (sample_of r "one_latency") 0.5 = None);
  Metrics.observe h 5_000;
  let s = sample_of r "one_latency" in
  List.iter
    (fun q ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "single value exact at q=%g" q)
        (Some 5_000.) (Metrics.quantile s q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  Alcotest.(check bool) "q out of range" true (Metrics.quantile s 1.5 = None);
  Alcotest.(check bool) "counters have no quantile" true
    (Metrics.quantile (Metrics.Counter 3) 0.5 = None);
  (* uniform 1..1000 over the power-of-two buckets: the documented
     worst case is one bucket ratio (2x); interpolation does better *)
  let u = Metrics.latency r "uniform_latency" in
  for v = 1 to 1000 do
    Metrics.observe u v
  done;
  let s = sample_of r "uniform_latency" in
  List.iter
    (fun (q, exact) ->
      match Metrics.quantile s q with
      | None -> Alcotest.fail "quantile missing"
      | Some est ->
          Alcotest.(check bool)
            (Printf.sprintf "q=%g estimate %.0f within 2x of %.0f" q est exact)
            true
            (est >= exact /. 2. && est <= exact *. 2.))
    [ (0.5, 500.); (0.9, 900.); (0.99, 990.) ];
  Alcotest.(check (option (float 0.))) "p0 clamps to lo" (Some 1.)
    (Metrics.quantile s 0.0);
  Alcotest.(check (option (float 0.))) "p100 clamps to hi" (Some 1000.)
    (Metrics.quantile s 1.0)

let test_hist_extremes_combine () =
  let r1 = Metrics.create () in
  let r2 = Metrics.create () in
  List.iter (Metrics.observe (Metrics.latency r1 "x_latency")) [ 100; 900 ];
  List.iter (Metrics.observe (Metrics.latency r2 "x_latency")) [ 30; 500 ];
  let m =
    Metrics.merge (Metrics.snapshot r1) (Metrics.snapshot r2)
  in
  (match Metrics.find m "x_latency" with
  | Some (Metrics.Hist { lo; hi; count; _ }) ->
      Alcotest.(check int) "merged count" 4 count;
      Alcotest.(check int) "merged lo" 30 lo;
      Alcotest.(check int) "merged hi" 900 hi
  | _ -> Alcotest.fail "merged histogram missing");
  let before = Metrics.snapshot r1 in
  Metrics.observe (Metrics.latency r1 "x_latency") 5;
  let d = Metrics.diff ~after:(Metrics.snapshot r1) ~before in
  match Metrics.find d "x_latency" with
  | Some (Metrics.Hist { lo; hi; count; _ }) ->
      Alcotest.(check int) "diff count" 1 count;
      (* interval readings keep the after snapshot's envelope *)
      Alcotest.(check int) "diff lo" 5 lo;
      Alcotest.(check int) "diff hi" 900 hi
  | _ -> Alcotest.fail "diffed histogram missing"

(* --- v2 trace back-compat: histograms without lo/hi decode as 0 --- *)

let test_decode_v2_histogram () =
  let line =
    {|{"kind":"metrics","samples":[{"name":"h","type":"histogram","bounds":[1,2],"counts":[1,0,1],"sum":4,"count":2}]}|}
  in
  match Export.of_line line with
  | Ok (Export.Metric_snapshot [ ("h", Metrics.Hist h) ]) ->
      Alcotest.(check int) "count" 2 h.count;
      Alcotest.(check int) "lo defaults to 0" 0 h.lo;
      Alcotest.(check int) "hi defaults to 0" 0 h.hi
  | Ok _ -> Alcotest.fail "unexpected decode shape"
  | Error e -> Alcotest.fail ("v2 line rejected: " ^ e)

(* --- openmetrics --- *)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let check_contains out needle =
  Alcotest.(check bool) ("renders " ^ needle) true (contains out needle)

let test_openmetrics_render () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "engine.moves") 5;
  Metrics.set (Metrics.gauge r "9queue-depth") 3;
  let h = Metrics.histogram ~buckets:[| 1; 10 |] r "wb.size" in
  List.iter (Metrics.observe h) [ 0; 5; 100 ];
  let l = Metrics.latency r "step_latency" in
  List.iter (Metrics.observe l) [ 100; 200; 400 ];
  let out = Qe_obs.Openmetrics.render (Metrics.snapshot r) in
  check_contains out "# HELP engine_moves qelect engine.moves\n";
  check_contains out "# TYPE engine_moves counter\n";
  check_contains out "engine_moves_total 5\n";
  (* leading digit and '-' both sanitize to '_' *)
  check_contains out "# TYPE _queue_depth gauge\n";
  check_contains out "_queue_depth 3\n";
  (* cumulative buckets plus the +Inf catch-all *)
  check_contains out "wb_size_bucket{le=\"1\"} 1\n";
  check_contains out "wb_size_bucket{le=\"10\"} 2\n";
  check_contains out "wb_size_bucket{le=\"+Inf\"} 3\n";
  check_contains out "wb_size_sum 105\n";
  check_contains out "wb_size_count 3\n";
  (* latency histograms ride with a quantile summary family *)
  check_contains out "# TYPE step_latency histogram\n";
  check_contains out "# TYPE step_latency_quantiles summary\n";
  (* p50 of {100, 200, 400}: rank 2 tops out bucket (128, 256] -> 256,
     within the documented one-bucket-ratio error of the exact 200 *)
  check_contains out "step_latency_quantiles{quantile=\"0.5\"} 256\n";
  check_contains out "step_latency_quantiles_count 3\n";
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length out >= 6 && String.sub out (String.length out - 6) 6 = "# EOF\n");
  (* non-latency histograms get no quantile family *)
  Alcotest.(check bool) "no summary for plain hist" false
    (contains out "wb_size_quantiles");
  Alcotest.(check string) "sanitize keeps legal bytes" "cache_hit_classes"
    (Qe_obs.Openmetrics.sanitize "cache.hit.classes");
  Alcotest.(check string) "sanitize leading digit" "_9to5_rate:x"
    (Qe_obs.Openmetrics.sanitize "99to5 rate:x")

(* --- expose --- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        "GET " ^ path ^ " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let bytes = Bytes.create 4096 in
      let rec loop () =
        let n = Unix.read fd bytes 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf bytes 0 n;
          loop ()
        end
      in
      (try loop () with Unix.Unix_error _ -> ());
      Buffer.contents buf)

let test_expose_scrape () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "e2e.hits") 3;
  let flaky () = failwith "down" in
  let srv =
    Qe_obs.Expose.start ~port:0
      ~sources:[ (fun () -> Metrics.snapshot r); flaky ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> Qe_obs.Expose.stop srv)
    (fun () ->
      let port = Qe_obs.Expose.port srv in
      Alcotest.(check bool) "kernel assigned a port" true (port > 0);
      let resp = http_get port "/metrics" in
      Alcotest.(check bool) "200" true
        (String.length resp >= 12 && String.sub resp 0 12 = "HTTP/1.1 200");
      check_contains resp "application/openmetrics-text";
      check_contains resp "e2e_hits_total 3\n";
      check_contains resp "# EOF\n";
      let again = http_get port "/metrics" in
      check_contains again "e2e_hits_total 3\n";
      check_contains (http_get port "/healthz") "ok";
      let nf = http_get port "/nope" in
      Alcotest.(check bool) "404" true (contains nf "404"));
  (* stop is idempotent *)
  Qe_obs.Expose.stop srv

(* A scrape must survive hostile clients: a slow-loris trickling its
   header is cut off at the read deadline (408), connections beyond the
   cap are answered 503 immediately instead of queueing behind the
   stalled ones, and a legitimate request split across packets still
   completes. *)
let test_expose_hardening () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "hard.hits") 1;
  let srv =
    Qe_obs.Expose.start ~port:0 ~read_deadline_ns:700_000_000 ~max_conns:1
      ~sources:[ (fun () -> Metrics.snapshot r) ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> Qe_obs.Expose.stop srv)
    (fun () ->
      let port = Qe_obs.Expose.port srv in
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let read_all fd =
        let buf = Buffer.create 256 in
        let bytes = Bytes.create 4096 in
        let rec loop () =
          let n = Unix.read fd bytes 0 4096 in
          if n > 0 then begin
            Buffer.add_subbytes buf bytes 0 n;
            loop ()
          end
        in
        (try loop () with Unix.Unix_error _ -> ());
        Buffer.contents buf
      in
      (* slow-loris: open, trickle half a request line, never finish *)
      let loris = connect () in
      ignore (Unix.write_substring loris "GET /met" 0 8);
      Unix.sleepf 0.15;
      (* the loris holds the only serviced slot until its deadline
         (still ~0.5 s away), so a second connection must be turned away
         with 503, not parked *)
      let extra = connect () in
      let extra_resp = read_all extra in
      Alcotest.(check bool) "over-cap connection gets 503" true
        (contains extra_resp "503");
      Unix.close extra;
      let loris_resp = read_all loris in
      Alcotest.(check bool) "slow-loris gets 408" true
        (contains loris_resp "408");
      Unix.close loris;
      (* a split-packet but honest request still completes *)
      let slow = connect () in
      ignore (Unix.write_substring slow "GET /healthz HT" 0 15);
      Unix.sleepf 0.05;
      let rest = "TP/1.1\r\n\r\n" in
      ignore (Unix.write_substring slow rest 0 (String.length rest));
      let resp = read_all slow in
      Unix.close slow;
      Alcotest.(check bool) "split request answered 200" true
        (contains resp "200");
      (* and the endpoint is still alive for a normal scrape *)
      check_contains (http_get port "/metrics") "hard_hits_total 1\n")

(* --- chrome export --- *)

let test_chrome_export () =
  let span ?(attrs = []) ?(children = []) name start_ns dur_ns =
    { Span.name; start_ns; dur_ns; attrs; children }
  in
  let lines =
    [
      Export.Meta { producer = "test"; attrs = [] };
      Export.Event { seq = 1; name = "moved"; attrs = [] };
      Export.Event
        {
          seq = 0;
          name = "cache.l1.hit";
          attrs = [ ("kind", Jsonl.String "classes"); ("t_ns", Jsonl.Int 500) ];
        };
      Export.Span_tree
        (span "engine.run" 100 900
           ~children:[ span "engine.turn" 150 200 ]);
      Export.Span_tree
        (span "pool.batch" 1000 5000
           ~attrs:[ ("domain", Jsonl.Int 1); ("tasks", Jsonl.Int 2) ]
           ~children:
             [
               span "pool.task" 1000 2000 ~attrs:[ ("idx", Jsonl.Int 0) ];
               span "pool.idle" 3000 3000;
             ]);
      Export.Metric_snapshot [ ("n", Metrics.Counter 1) ];
    ]
  in
  let j = Qe_obs.Chrome.of_lines lines in
  (* the export must be valid JSON end to end *)
  (match Jsonl.of_string (Jsonl.to_string j) with
  | Ok j' -> Alcotest.(check bool) "json roundtrip" true (j' = j)
  | Error e -> Alcotest.fail ("invalid JSON: " ^ e));
  let events =
    match j with
    | Jsonl.Obj [ ("traceEvents", Jsonl.List evs) ] -> evs
    | _ -> Alcotest.fail "expected {traceEvents: [...]}"
  in
  let str k e = Option.bind (Jsonl.member k e) Jsonl.to_str in
  let int k e = Option.bind (Jsonl.member k e) Jsonl.to_int in
  let phases tid =
    List.filter_map
      (fun e ->
        if int "tid" e = Some tid then
          match str "ph" e with
          | Some ("B" | "E" | "i" as p) -> Some p
          | _ -> None
        else None)
      events
  in
  (* lane 0: engine span (B,E,B,E nested) and the cache-hit instant *)
  let lane0 = phases 0 in
  Alcotest.(check int) "lane 0 B count" 2
    (List.length (List.filter (( = ) "B") lane0));
  Alcotest.(check int) "lane 0 E count" 2
    (List.length (List.filter (( = ) "E") lane0));
  Alcotest.(check int) "lane 0 instants" 1
    (List.length (List.filter (( = ) "i") lane0));
  (* lane 2 = pool domain 1: batch + task + idle *)
  let lane2 = phases 2 in
  Alcotest.(check int) "pool lane B count" 3
    (List.length (List.filter (( = ) "B") lane2));
  Alcotest.(check int) "pool lane E count" 3
    (List.length (List.filter (( = ) "E") lane2));
  (* the seq-only engine event has no wall-clock extent: skipped *)
  Alcotest.(check bool) "logical events skipped" false
    (List.exists (fun e -> str "name" e = Some "moved") events);
  (* lanes are named *)
  Alcotest.(check bool) "thread_name metadata" true
    (List.exists (fun e -> str "ph" e = Some "M") events);
  (* timestamps are microseconds *)
  Alcotest.(check bool) "ts in us" true
    (List.exists
       (fun e ->
         str "name" e = Some "engine.run"
         && (match Jsonl.member "ts" e with
            | Some (Jsonl.Float f) -> f = 0.1
            | _ -> false))
       events)

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_counter_gauge_hist;
          Alcotest.test_case "snapshot+diff" `Quick
            test_snapshot_sorted_and_diff;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "diff of merge" `Quick
            test_diff_of_merge_roundtrip;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "parser units" `Quick test_jsonl_parse_units;
          Alcotest.test_case "float roundtrip" `Quick
            test_jsonl_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
        ] );
      ( "span",
        [
          Alcotest.test_case "tree building" `Quick test_span_tree;
          Alcotest.test_case "misuse raises" `Quick test_span_misuse_raises;
        ] );
      ( "export",
        [
          QCheck_alcotest.to_alcotest prop_export_roundtrip;
          QCheck_alcotest.to_alcotest prop_export_line_roundtrip;
          Alcotest.test_case "rejects bad input" `Quick test_export_rejects;
          Alcotest.test_case "file roundtrip" `Quick
            test_export_file_roundtrip;
        ] );
      ( "sink",
        [ Alcotest.test_case "ambient scoping" `Quick test_ambient_scoping ] );
      ( "quantiles",
        [
          Alcotest.test_case "estimates" `Quick test_quantile_estimates;
          Alcotest.test_case "extremes combine" `Quick
            test_hist_extremes_combine;
          Alcotest.test_case "v2 histogram decodes" `Quick
            test_decode_v2_histogram;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "render" `Quick test_openmetrics_render ] );
      ( "expose",
        [
          Alcotest.test_case "scrape endpoint" `Quick test_expose_scrape;
          Alcotest.test_case "hostile clients" `Quick test_expose_hardening;
        ] );
      ( "chrome",
        [ Alcotest.test_case "trace export" `Quick test_chrome_export ] );
      ( "engine",
        [
          Alcotest.test_case "trace totals = result" `Quick
            test_engine_trace_totals;
          Alcotest.test_case "span tree shape" `Quick test_engine_span_tree;
          Alcotest.test_case "event seq numbering" `Quick
            test_event_seq_numbering;
          Alcotest.test_case "wall time" `Quick test_wall_time;
          Alcotest.test_case "disabled probes silent" `Quick
            test_disabled_probe_is_silent;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "canon telemetry = result" `Quick
            test_canon_telemetry_matches_result;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "observed sweep" `Quick
            test_campaign_observed_sweep;
        ] );
      ( "trace",
        [
          Alcotest.test_case "tag_prefix" `Quick test_tag_prefix;
          Alcotest.test_case "summary verdicts" `Quick test_summary_verdicts;
        ] );
    ]
