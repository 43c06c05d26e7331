module Color = Qe_color.Color

type t = { mutable rev_events : Engine.event list; mutable count : int }

let recorder () =
  let t = { rev_events = []; count = 0 } in
  ( t,
    fun e ->
      t.rev_events <- e :: t.rev_events;
      t.count <- t.count + 1 )

let events t = List.rev t.rev_events
let length t = t.count

let moves_of t c =
  List.length
    (List.filter
       (function
         | Engine.Moved { agent; _ } -> Color.equal agent c
         | _ -> false)
       t.rev_events)

let tag_prefix tag =
  match String.index_opt tag ':' with
  | Some i -> String.sub tag 0 i
  | None -> tag

let tag_histogram t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Engine.Posted { tag; _ } ->
          let p = tag_prefix tag in
          Hashtbl.replace tbl p
            (1 + try Hashtbl.find tbl p with Not_found -> 0)
      | _ -> ())
    t.rev_events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         if a <> b then compare b a else compare ka kb)

let nodes_touched t =
  List.filter_map
    (function Engine.Posted { node; _ } -> Some node | _ -> None)
    t.rev_events
  |> List.sort_uniq compare

let timeline ?limit t =
  let buf = Buffer.create 1024 in
  let all = events t in
  let all =
    match limit with
    | None -> all
    | Some k -> List.filteri (fun i _ -> i < k) all
  in
  List.iteri
    (fun i e ->
      Buffer.add_string buf
        (Format.asprintf "%4d  %a\n" (i + 1) Engine.pp_event e))
    all;
  (match limit with
  | Some k when t.count > k ->
      Buffer.add_string buf
        (Printf.sprintf "      ... %d more events\n" (t.count - k))
  | _ -> ());
  Buffer.contents buf

let verdict_counts t =
  let leaders = ref 0 and defeated = ref 0 and failed = ref 0
  and aborted = ref 0 in
  List.iter
    (function
      | Engine.Halted { verdict; _ } -> (
          match verdict with
          | Protocol.Leader -> incr leaders
          | Protocol.Defeated -> incr defeated
          | Protocol.Election_failed -> incr failed
          | Protocol.Aborted _ -> incr aborted)
      | _ -> ())
    t.rev_events;
  (!leaders, !defeated, !failed, !aborted)

let summary t =
  let count p = List.length (List.filter p t.rev_events) in
  let wakes = count (function Engine.Woke _ -> true | _ -> false) in
  let moves = count (function Engine.Moved _ -> true | _ -> false) in
  let posts = count (function Engine.Posted _ -> true | _ -> false) in
  let erases = count (function Engine.Erased _ -> true | _ -> false) in
  let halts = count (function Engine.Halted _ -> true | _ -> false) in
  let leaders, defeated, failed, aborted = verdict_counts t in
  let verdicts =
    [ (leaders, "leader"); (defeated, "defeated"); (failed, "failed");
      (aborted, "aborted") ]
    |> List.filter (fun (n, _) -> n > 0)
    |> List.map (fun (n, what) -> Printf.sprintf "%d %s" n what)
    |> String.concat ", "
  in
  let verdicts = if verdicts = "" then "none" else verdicts in
  let hist =
    tag_histogram t
    |> List.map (fun (tag, n) -> Printf.sprintf "%s=%d" tag n)
    |> String.concat ", "
  in
  Printf.sprintf
    "%d events: %d wakes, %d moves, %d posts, %d erases, %d halts (%s); \
     posts by tag: %s"
    t.count wakes moves posts erases halts verdicts hist
