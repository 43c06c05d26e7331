(* Catapult / Chrome Trace Event Format ("traceEvents") exporter.

   Lane model: pid 1 is the qelect process; tid 0 is the main domain,
   tid d+1 is supervisor worker d (span trees rooted at a span carrying
   a "domain" attribute land in that worker's lane, which is how the
   per-worker pool.batch trees render side by side). Span trees become
   nested B/E pairs; trace events carrying a "t_ns" attribute (the
   cache's hit markers) become instant events. Timestamps are the
   monotonic span clock, nanoseconds scaled to the microseconds the
   format expects. *)

let pid = 1

let ts_us ns = Jsonl.Float (float_of_int ns /. 1000.)

let lane_of_attrs attrs =
  match List.assoc_opt "domain" attrs with
  | Some (Jsonl.Int d) -> d + 1
  | _ -> 0

let rec span_events ~tid (s : Span.closed) acc =
  let b =
    Jsonl.Obj
      [
        ("name", Jsonl.String s.Span.name);
        ("cat", Jsonl.String "span");
        ("ph", Jsonl.String "B");
        ("ts", ts_us s.Span.start_ns);
        ("pid", Jsonl.Int pid);
        ("tid", Jsonl.Int tid);
        ("args", Jsonl.Obj s.Span.attrs);
      ]
  in
  let e =
    Jsonl.Obj
      [
        ("name", Jsonl.String s.Span.name);
        ("ph", Jsonl.String "E");
        ("ts", ts_us (s.Span.start_ns + s.Span.dur_ns));
        ("pid", Jsonl.Int pid);
        ("tid", Jsonl.Int tid);
      ]
  in
  let acc = b :: acc in
  let acc = List.fold_left (fun acc c -> span_events ~tid c acc) acc s.children in
  e :: acc

let instant_of_event (ev : Export.event) =
  match List.assoc_opt "t_ns" ev.attrs with
  | Some (Jsonl.Int t) ->
      Some
        (Jsonl.Obj
           [
             ("name", Jsonl.String ev.name);
             ("cat", Jsonl.String "event");
             ("ph", Jsonl.String "i");
             ("ts", ts_us t);
             ("pid", Jsonl.Int pid);
             ("tid", Jsonl.Int (lane_of_attrs ev.attrs));
             ("s", Jsonl.String "t");
             ("args", Jsonl.Obj ev.attrs);
           ])
  | _ -> None

let metadata name args tid =
  Jsonl.Obj
    [
      ("name", Jsonl.String name);
      ("ph", Jsonl.String "M");
      ("pid", Jsonl.Int pid);
      ("tid", Jsonl.Int tid);
      ("args", Jsonl.Obj args);
    ]

module Iset = Set.Make (Int)

let of_lines lines =
  let tids = ref Iset.empty in
  let use tid =
    tids := Iset.add tid !tids;
    tid
  in
  let rev_events =
    List.fold_left
      (fun acc line ->
        match (line : Export.line) with
        | Export.Span_tree s -> span_events ~tid:(use (lane_of_attrs s.attrs)) s acc
        | Export.Event ev -> (
            match instant_of_event ev with
            | Some j ->
                ignore (use (lane_of_attrs ev.attrs));
                j :: acc
            | None -> acc)
        | Export.Meta _ | Export.Metric_snapshot _ -> acc)
      [] lines
  in
  let meta =
    metadata "process_name" [ ("name", Jsonl.String "qelect") ] 0
    :: List.map
         (fun tid ->
           let label = if tid = 0 then "main" else Printf.sprintf "domain %d" (tid - 1) in
           metadata "thread_name" [ ("name", Jsonl.String label) ] tid)
         (Iset.elements !tids)
  in
  Jsonl.Obj [ ("traceEvents", Jsonl.List (meta @ List.rev rev_events)) ]

let write_file path lines =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Jsonl.to_string (of_lines lines));
      Out_channel.output_char oc '\n')
