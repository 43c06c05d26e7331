module Graph = Qe_graph.Graph
module Csr = Qe_graph.Csr
module Labeling = Qe_graph.Labeling
module Color = Qe_color.Color
module Symbol = Qe_color.Symbol
module FKind = Qe_fault.Kind
module FPlan = Qe_fault.Plan
module FInj = Qe_fault.Injector
module Watchdog = Qe_fault.Watchdog

type strategy =
  | Round_robin
  | Random_fair of int
  | Lifo
  | Fifo_mailbox
  | Synchronous

let strategy_name = function
  | Round_robin -> "round-robin"
  | Random_fair _ -> "random"
  | Lifo -> "lifo"
  | Fifo_mailbox -> "fifo-mailbox"
  | Synchronous -> "synchronous"

type agent_stats = {
  moves : int;
  posts : int;
  erases : int;
  reads : int;
  turns : int;
}

type inconsistency = {
  reason : string;
  conflicting : (Color.t * Protocol.verdict) list;
}

type outcome =
  | Elected of Color.t
  | Declared_unsolvable
  | Deadlock
  | Step_limit
  | Timeout of Watchdog.reason
  | Inconsistent of inconsistency

type result = {
  outcome : outcome;
  verdicts : (Color.t * Protocol.verdict) list;
  per_agent : (Color.t * agent_stats) list;
  final_locations : (Color.t * int) list;
  total_moves : int;
  total_accesses : int;
  scheduler_turns : int;
  wall_time_ns : int;
  faults_injected : (FKind.t * int) list;
}

let home_tag = "home-base"

type status =
  | Asleep
  | Ready_start  (* runnable; starts its protocol from scratch *)
  | Ready_resume of (Protocol.observation, unit) Effect.Deep.continuation
      (* runnable; resumes after a move *)
  | Waiting of (Protocol.observation, unit) Effect.Deep.continuation * int
  | Finished of Protocol.verdict

type agent = {
  idx : int;
  color : Color.t;
  home : int;
  mutable loc : int;
  mutable entry : Symbol.t option;
  mutable status : status;
  mutable runnable : bool;
      (* dirty bit kept in sync with [status] and board revisions so the
         scheduler never rescans the whiteboards *)
  mutable last_enabled : int;
  mutable wake_due : int;
      (* scheduler turn at which a fault-delayed wake is delivered;
         -1 = no delayed wake pending *)
  mutable moves : int;
  mutable posts : int;
  mutable erases : int;
  mutable reads : int;
  mutable turns : int;
  mutable erased : int;  (* the count the pending [Erase] resumes with *)
}

type event =
  | Woke of { agent : Color.t }
  | Moved of { agent : Color.t; from_node : int; to_node : int }
  | Posted of { agent : Color.t; node : int; tag : string }
  | Erased of { agent : Color.t; node : int; tag : string; count : int }
  | Halted of { agent : Color.t; verdict : Protocol.verdict }
  | Crashed of { agent : Color.t; node : int }
  | Sign_lost of { agent : Color.t; node : int; tag : string }
  | Sign_duplicated of { agent : Color.t; node : int; tag : string }
  | Wake_delayed of { agent : Color.t; until_turn : int }
  | Stuttered of { agent : Color.t }

let pp_event ppf = function
  | Woke { agent } -> Format.fprintf ppf "%a wakes" Color.pp agent
  | Moved { agent; from_node; to_node } ->
      Format.fprintf ppf "%a moves %d -> %d" Color.pp agent from_node to_node
  | Posted { agent; node; tag } ->
      Format.fprintf ppf "%a posts %s at %d" Color.pp agent tag node
  | Erased { agent; node; tag; count } ->
      Format.fprintf ppf "%a erases %dx %s at %d" Color.pp agent count tag
        node
  | Halted { agent; verdict } ->
      Format.fprintf ppf "%a halts: %a" Color.pp agent Protocol.pp_verdict
        verdict
  | Crashed { agent; node } ->
      Format.fprintf ppf "%a crash-restarts at %d" Color.pp agent node
  | Sign_lost { agent; node; tag } ->
      Format.fprintf ppf "FAULT: %a's post %s at %d is lost" Color.pp agent
        tag node
  | Sign_duplicated { agent; node; tag } ->
      Format.fprintf ppf "FAULT: %a's post %s at %d is duplicated" Color.pp
        agent tag node
  | Wake_delayed { agent; until_turn } ->
      Format.fprintf ppf "FAULT: %a's wake delayed until turn %d" Color.pp
        agent until_turn
  | Stuttered { agent } ->
      Format.fprintf ppf "FAULT: %a's turn stutters" Color.pp agent

type state = {
  world : World.t;
  csr : Csr.t;
  labeling : Labeling.t;
  boards : Whiteboard.t array;
  agents : agent array;
  seed : int;
  listening : bool;
      (* whether anyone consumes events: every event below is built
         under [if st.listening], so a run nobody watches allocates
         none *)
  on_event : event -> unit;
  faults : FInj.t option;
  mutable clock : int;  (* bumps on every enablement change *)
  mutable num_runnable : int;
  mutable picks : int;  (* scheduler picks — drives Lifo fairness *)
  mutable wakes : int;  (* sleepers woken by a visiting agent's sign *)
  mutable turns : int;  (* scheduler turns so far *)
  mutable delayed_pending : int;  (* agents with a fault-delayed wake *)
  mutable progress_turn : int;
      (* last turn with whiteboard-revision progress — the livelock
         watchdog's reference point *)
}

let set_runnable st a b =
  if a.runnable <> b then begin
    a.runnable <- b;
    st.num_runnable <- (st.num_runnable + if b then 1 else -1)
  end

let enable st a resume_status =
  st.clock <- st.clock + 1;
  a.last_enabled <- st.clock;
  a.status <- resume_status;
  set_runnable st a true

(* Agent-specific presentation order of the ports at a node. *)
let presentation_order st a node =
  let deg = Graph.degree (World.graph st.world) node in
  let perm = Array.init deg Fun.id in
  let rng = Random.State.make [| st.seed; 0x9e11; a.idx; node |] in
  for i = deg - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* Built on first read: only MAP-DRAWING reads the ports, once per newly
   visited node, while every other observation (barrier waits, tours,
   navigation steps) discards them. [node] is captured by value, so a
   late force still answers for the node the observation was taken at. *)
let make_obs st a =
  a.reads <- a.reads + 1;
  let node = a.loc in
  {
    Protocol.degree = Graph.degree (World.graph st.world) node;
    ports =
      lazy
        (let labeling = World.labeling st.world in
         Array.fold_right
           (fun i acc ->
             World.symbol_of st.world (Labeling.symbol labeling node i) :: acc)
           (presentation_order st a node)
           []);
    entry = a.entry;
    board = Whiteboard.signs st.boards.(node);
  }

let wake_sleepers_at st node =
  for i = 0 to Array.length st.agents - 1 do
    let b = st.agents.(i) in
    match b.status with
    | Asleep when b.home = node -> (
        match st.faults with
        | Some _ when b.wake_due >= 0 ->
            (* a delayed wake is already pending; this wake is absorbed
               into it *)
            ()
        | Some inj when FInj.arm inj FKind.Delayed_wake ->
            b.wake_due <- st.turns + FInj.wake_delay inj;
            st.delayed_pending <- st.delayed_pending + 1;
            if st.listening then
              st.on_event
                (Wake_delayed { agent = b.color; until_turn = b.wake_due })
        | _ ->
            st.wakes <- st.wakes + 1;
            if st.listening then st.on_event (Woke { agent = b.color });
            enable st b Ready_start)
    | _ -> ()
  done

(* Deliver fault-delayed wakes that have come due ([force] delivers all of
   them — the adversary may not delay a wake forever, so a scheduler with
   nothing else to run releases the backlog instead of reporting a
   spurious deadlock). *)
let release_due_wakes st ~force =
  for i = 0 to Array.length st.agents - 1 do
    let b = st.agents.(i) in
    if b.wake_due >= 0 && (force || b.wake_due <= st.turns) then begin
      b.wake_due <- -1;
      st.delayed_pending <- st.delayed_pending - 1;
      match b.status with
      | Asleep ->
          st.wakes <- st.wakes + 1;
          if st.listening then st.on_event (Woke { agent = b.color });
          enable st b Ready_start
      | _ -> ()
    end
  done

(* A board-revision bump makes every agent waiting on that board runnable;
   marking them here (rather than re-checking revisions in the scheduler)
   is what lets [pick_agent] trust the dirty bits. *)
let wake_waiters_at st node =
  let rev_now = Whiteboard.revision st.boards.(node) in
  for i = 0 to Array.length st.agents - 1 do
    let b = st.agents.(i) in
    match b.status with
    | Waiting (_, rev) when b.loc = node && rev_now > rev ->
        set_runnable st b true
    | _ -> ()
  done

let post_sign st a tag body =
  Whiteboard.post st.boards.(a.loc) { Sign.color = a.color; tag; body };
  st.progress_turn <- st.turns

let do_post st a tag body =
  a.posts <- a.posts + 1;
  match st.faults with
  | None ->
      post_sign st a tag body;
      if st.listening then
        st.on_event (Posted { agent = a.color; node = a.loc; tag });
      wake_sleepers_at st a.loc;
      wake_waiters_at st a.loc
  | Some inj ->
      if FInj.arm inj FKind.Sign_loss then
        (* dropped on the floor: no revision bump, no wake-ups; the agent
           believes it posted *)
        (if st.listening then
           st.on_event (Sign_lost { agent = a.color; node = a.loc; tag }))
      else begin
        post_sign st a tag body;
        if st.listening then
          st.on_event (Posted { agent = a.color; node = a.loc; tag });
        if FInj.arm inj FKind.Sign_dup then begin
          post_sign st a tag body;
          if st.listening then
            st.on_event
              (Sign_duplicated { agent = a.color; node = a.loc; tag })
        end;
        wake_sleepers_at st a.loc;
        wake_waiters_at st a.loc
      end

let do_erase st a tag =
  a.erases <- a.erases + 1;
  let count = Whiteboard.erase st.boards.(a.loc) ~color:a.color ~tag in
  if st.listening then
    st.on_event (Erased { agent = a.color; node = a.loc; tag; count });
  if count > 0 then begin
    st.progress_turn <- st.turns;
    wake_waiters_at st a.loc
  end;
  count

(* The move reads the CSR arrays directly and takes the entry from the
   world's preallocated options: a move allocates nothing, and its event
   only when someone listens. *)
let do_move st a sym =
  match World.int_of_symbol st.world sym with
  | exception Not_found -> Error "moved through an unknown symbol"
  | s ->
      let csr = st.csr and from_node = a.loc in
      let lo = csr.Csr.off.(from_node) in
      let deg = csr.Csr.off.(from_node + 1) - lo in
      let port = ref 0 in
      while !port < deg && Labeling.symbol st.labeling from_node !port <> s do
        incr port
      done;
      if !port = deg then Error "moved through a symbol absent from this node"
      else begin
        let arc = lo + !port in
        let dst = csr.Csr.dst.(arc) in
        a.loc <- dst;
        a.entry <- World.entry st.world (csr.Csr.off.(dst) + csr.Csr.dst_port.(arc));
        a.moves <- a.moves + 1;
        if st.listening then
          st.on_event (Moved { agent = a.color; from_node; to_node = dst });
        Ok ()
      end

let finish st a v =
  a.status <- Finished v;
  set_runnable st a false;
  if st.listening then st.on_event (Halted { agent = a.color; verdict = v })

(* The handlers for the payload-free resumptions are allocated once per
   start, not once per effect: [effc] performs a post, erase or move on
   the spot and returns one of them, so the common effects allocate no
   closure. *)
let start_agent st a (proto : Protocol.t) =
  let ctx =
    {
      Protocol.color = a.color;
      rank = (if proto.quantitative then Some a.idx else None);
    }
  in
  let open Effect.Deep in
  let on_observe =
    Some
      (fun (k : (Protocol.observation, unit) continuation) ->
        continue k (make_obs st a))
  in
  let on_moved =
    Some
      (fun (k : (Protocol.observation, unit) continuation) ->
        enable st a (Ready_resume k))
  in
  let on_wait =
    Some
      (fun (k : (Protocol.observation, unit) continuation) ->
        a.status <- Waiting (k, Whiteboard.revision st.boards.(a.loc));
        set_runnable st a false)
  in
  let on_posted = Some (fun (k : (unit, unit) continuation) -> continue k ()) in
  let on_erased =
    Some (fun (k : (int, unit) continuation) -> continue k a.erased)
  in
  match_with
    (fun () ->
      let v = proto.main ctx in
      finish st a v)
    ()
    {
      retc = Fun.id;
      exnc =
        (fun e -> finish st a (Aborted (Printexc.to_string e)));
      effc =
        (fun (type b) (eff : b Effect.t) :
             ((b, unit) continuation -> unit) option ->
          match eff with
          | Script.Internal.Observe -> on_observe
          | Script.Internal.Post (tag, body) ->
              do_post st a tag body;
              on_posted
          | Script.Internal.Erase tag ->
              a.erased <- do_erase st a tag;
              on_erased
          | Script.Internal.Move sym -> (
              match do_move st a sym with
              | Ok () -> on_moved
              | Error msg -> Some (fun _ -> finish st a (Aborted msg)))
          | Script.Internal.Wait -> on_wait
          | Script.Internal.Halt v -> Some (fun _ -> finish st a v)
          | _ -> None);
    }

(* placeholder replaced by the real verdict inside start_agent / the
   resumed continuation *)
let mark_running st a =
  a.status <- Finished (Aborted "re-entered");
  set_runnable st a false

let take_turn st proto (a : agent) =
  a.turns <- a.turns + 1;
  match a.status with
  | Ready_start ->
      mark_running st a;
      start_agent st a proto
  | Ready_resume k | Waiting (k, _) ->
      mark_running st a;
      Effect.Deep.continue k (make_obs st a)
  | Asleep | Finished _ -> assert false

(* The picked agent loses its coroutine state: the pending continuation is
   dropped (its fiber is reclaimed by the GC, never resumed) and the agent
   restarts its protocol from scratch, amnesiac, at its current node. *)
let crash_restart st a =
  a.entry <- None;
  enable st a Ready_start;
  if st.listening then st.on_event (Crashed { agent = a.color; node = a.loc })

(* Crash-restart only fires on agents that actually hold coroutine state;
   "crashing" an agent that has not started yet is a no-op restart. *)
let crashable a =
  match a.status with Ready_resume _ | Waiting _ -> true | _ -> false

(* Allocation-free selection: the dirty bits plus [num_runnable] replace
   the per-turn candidates list; every strategy is a bounded scan of the
   agents array, returning the picked agent's index, or -1 when none is
   runnable. *)
let pick_agent st strategy rr_cursor rng =
  let agents = st.agents in
  let n = Array.length agents in
  if st.num_runnable = 0 then -1
  else begin
    st.picks <- st.picks + 1;
    match strategy with
    | Round_robin ->
        let i = ref (!rr_cursor mod n) in
        while not agents.(!i).runnable do
          i := (!i + 1) mod n
        done;
        rr_cursor := (!i + 1) mod n;
        !i
    | Random_fair _ ->
        (* the r-th runnable agent, in index order *)
        let r = ref (Random.State.int rng st.num_runnable) and i = ref 0 in
        while not agents.(!i).runnable || !r > 0 do
          if agents.(!i).runnable then decr r;
          incr i
        done;
        !i
    | Lifo ->
        (* Most-recently-enabled first, with a fairness injection: every
           16th pick goes to the oldest-enabled agent instead, so no
           agent starves (the model assumes fair scheduling). Ties go to
           the lowest index. *)
        let oldest_wins = st.picks mod 16 = 0 in
        let best = ref (-1) in
        for i = 0 to n - 1 do
          let a = agents.(i) in
          if a.runnable then
            if !best < 0 then best := i
            else
              let b = agents.(!best) in
              if
                if oldest_wins then a.last_enabled < b.last_enabled
                else a.last_enabled > b.last_enabled
              then best := i
        done;
        !best
    | Fifo_mailbox ->
        let best = ref (-1) in
        for i = 0 to n - 1 do
          let a = agents.(i) in
          if a.runnable
             && (!best < 0 || a.last_enabled < agents.(!best).last_enabled)
          then best := i
        done;
        !best
    | Synchronous ->
        (* handled by the round loop in [run]; fallback here *)
        let i = ref 0 in
        while not agents.(!i).runnable do
          incr i
        done;
        !i
  end

let collect_result st ~max_turns_hit ~timeout wall_time_ns =
  let verdicts =
    Array.to_list st.agents
    |> List.map (fun a ->
           ( a.color,
             match a.status with
             | Finished v -> v
             | Asleep -> Protocol.Aborted "asleep (never woken)"
             | _ -> Protocol.Aborted "still running" ))
  in
  let all_done =
    Array.for_all
      (fun a -> match a.status with Finished _ -> true | _ -> false)
      st.agents
  in
  let outcome =
    match timeout with
    | Some reason -> Timeout reason
    | None ->
        if max_turns_hit then Step_limit
        else if not all_done then Deadlock
        else
          let leaders =
            List.filter (fun (_, v) -> v = Protocol.Leader) verdicts
          in
          let failed =
            List.filter (fun (_, v) -> v = Protocol.Election_failed) verdicts
          in
          let aborted =
            List.filter
              (fun (_, v) ->
                match v with Protocol.Aborted _ -> true | _ -> false)
              verdicts
          in
          match (leaders, failed, aborted) with
          | _, _, _ :: _ ->
              Inconsistent
                {
                  reason =
                    Printf.sprintf "%d agents aborted" (List.length aborted);
                  conflicting = aborted;
                }
          | [ (c, _) ], [], [] -> Elected c
          | [], fs, [] when List.length fs = Array.length st.agents ->
              Declared_unsolvable
          | _ ->
              Inconsistent
                {
                  reason =
                    Printf.sprintf "%d leaders, %d failed"
                      (List.length leaders) (List.length failed);
                  conflicting = leaders @ failed;
                }
  in
  let per_agent =
    Array.to_list st.agents
    |> List.map (fun a ->
           ( a.color,
             {
               moves = a.moves;
               posts = a.posts;
               erases = a.erases;
               reads = a.reads;
               turns = a.turns;
             } ))
  in
  let total_moves =
    Array.fold_left (fun acc a -> acc + a.moves) 0 st.agents
  in
  let total_accesses =
    Array.fold_left (fun acc a -> acc + a.posts + a.erases + a.reads) 0
      st.agents
  in
  let final_locations =
    Array.to_list st.agents |> List.map (fun a -> (a.color, a.loc))
  in
  let faults_injected =
    match st.faults with None -> [] | Some inj -> FInj.fired inj
  in
  { outcome; verdicts; per_agent; final_locations; total_moves;
    total_accesses; scheduler_turns = st.turns; wall_time_ns;
    faults_injected }

let pp_outcome ppf = function
  | Elected c -> Format.fprintf ppf "elected %s" (Color.name c)
  | Declared_unsolvable ->
      Format.pp_print_string ppf "all agents report: unsolvable"
  | Deadlock -> Format.pp_print_string ppf "deadlock"
  | Step_limit -> Format.pp_print_string ppf "step limit exceeded"
  | Timeout r ->
      Format.fprintf ppf "watchdog timeout (%s)" (Watchdog.reason_name r)
  | Inconsistent { reason; conflicting } ->
      Format.fprintf ppf "inconsistent verdicts: %s" reason;
      if conflicting <> [] then
        Format.fprintf ppf " [%s]"
          (String.concat "; "
             (List.map
                (fun (c, v) ->
                  Printf.sprintf "%s: %s" (Color.name c)
                    (Protocol.verdict_to_string v))
                conflicting))

let outcome_to_string o = Format.asprintf "%a" pp_outcome o

(* ---------- telemetry (Qe_obs) ---------- *)

module Obs = struct
  module Sink = Qe_obs.Sink
  module Metrics = Qe_obs.Metrics
  module Span = Qe_obs.Span
  module Export = Qe_obs.Export
  module J = Qe_obs.Jsonl

  let export_event seq e =
    let agent c = ("agent", J.String (Color.name c)) in
    match e with
    | Woke { agent = a } -> { Export.seq; name = "woke"; attrs = [ agent a ] }
    | Moved { agent = a; from_node; to_node } ->
        { Export.seq; name = "moved";
          attrs = [ agent a; ("from", J.Int from_node); ("to", J.Int to_node) ] }
    | Posted { agent = a; node; tag } ->
        { Export.seq; name = "posted";
          attrs = [ agent a; ("node", J.Int node); ("tag", J.String tag) ] }
    | Erased { agent = a; node; tag; count } ->
        { Export.seq; name = "erased";
          attrs =
            [ agent a; ("node", J.Int node); ("tag", J.String tag);
              ("count", J.Int count) ] }
    | Halted { agent = a; verdict } ->
        { Export.seq; name = "halted";
          attrs =
            [ agent a; ("verdict", J.String (Protocol.verdict_to_string verdict)) ] }
    | Crashed { agent = a; node } ->
        { Export.seq; name = "crashed";
          attrs = [ agent a; ("node", J.Int node) ] }
    | Sign_lost { agent = a; node; tag } ->
        { Export.seq; name = "sign-lost";
          attrs = [ agent a; ("node", J.Int node); ("tag", J.String tag) ] }
    | Sign_duplicated { agent = a; node; tag } ->
        { Export.seq; name = "sign-dup";
          attrs = [ agent a; ("node", J.Int node); ("tag", J.String tag) ] }
    | Wake_delayed { agent = a; until_turn } ->
        { Export.seq; name = "wake-delayed";
          attrs = [ agent a; ("until", J.Int until_turn) ] }
    | Stuttered { agent = a } ->
        { Export.seq; name = "stuttered"; attrs = [ agent a ] }

  (* Per-run/per-agent counters, recorded once at the end of [run] from
     the engine's own accounting (identical totals, zero hot-path
     cost). *)
  let record_metrics sink st strategy turns =
    let m = sink.Sink.metrics in
    let c name = Metrics.counter m name in
    let total get = Array.fold_left (fun acc a -> acc + get a) 0 st.agents in
    Metrics.incr (c "engine.runs");
    Metrics.add (c "engine.moves") (total (fun a -> a.moves));
    Metrics.add (c "engine.posts") (total (fun a -> a.posts));
    Metrics.add (c "engine.erases") (total (fun a -> a.erases));
    Metrics.add (c "engine.reads") (total (fun a -> a.reads));
    Metrics.add (c "engine.turns") turns;
    Metrics.add (c "engine.wakes") st.wakes;
    Metrics.add (c "engine.picks") st.picks;
    Metrics.add (c ("engine.picks." ^ strategy_name strategy)) st.picks;
    (match st.faults with
    | None -> ()
    | Some inj ->
        Metrics.add (c "fault.injected") (FInj.total inj);
        List.iter
          (fun (k, n) ->
            Metrics.add (c ("fault.injected." ^ FKind.name k)) n)
          (FInj.fired inj));
    let per_agent = Metrics.histogram m "engine.agent.moves" in
    Array.iter
      (fun a ->
        Metrics.observe per_agent a.moves;
        let pfx = "engine.agent." ^ Color.name a.color in
        Metrics.add (c (pfx ^ ".moves")) a.moves;
        Metrics.add (c (pfx ^ ".posts")) a.posts;
        Metrics.add (c (pfx ^ ".erases")) a.erases;
        Metrics.add (c (pfx ^ ".reads")) a.reads;
        Metrics.add (c (pfx ^ ".turns")) a.turns)
      st.agents
end

let run ?strategy ?(seed = 0) ?(max_turns = 2_000_000) ?awake
    ?on_event ?obs ?faults ?watchdog world proto =
  let t0 = Qe_obs.Clock.now_ns () in
  let strategy =
    match strategy with Some s -> s | None -> Random_fair seed
  in
  let g = World.graph world in
  (* Telemetry. With [obs = None] (the default) every probe below is an
     untaken [match] branch — the scheduler hot loop is untouched either
     way, since events stream through the existing [on_event] hook and
     counters are read off the engine's own accounting after the run. *)
  let span name =
    match obs with
    | None -> None
    | Some s -> Some (s.Obs.Sink.spans, Obs.Span.enter s.Obs.Sink.spans name)
  in
  let close sp =
    match sp with
    | None -> None
    | Some (tr, sp) -> Some (Obs.Span.exit tr sp)
  in
  (match obs with
  | None -> ()
  | Some s ->
      Obs.Sink.emit s
        (Obs.Export.Meta
           {
             producer = "qelect.engine";
             attrs =
               [
                 ("protocol", Obs.J.String proto.Protocol.name);
                 ("strategy", Obs.J.String (strategy_name strategy));
                 ("seed", Obs.J.Int seed);
                 ("nodes", Obs.J.Int (Graph.n g));
                 ("agents", Obs.J.Int (World.num_agents world));
               ]
               @ (match faults with
                 | None -> []
                 | Some p ->
                     [ ("fault_seed", Obs.J.Int p.FPlan.seed);
                       ("fault_plan", Obs.J.String (FPlan.summary p)) ]);
           }));
  let root = span "engine.run" in
  let listening, on_event =
    match (obs, on_event) with
    | Some ({ on_line = Some _; _ } as s), _ ->
        let user = Option.value on_event ~default:ignore in
        let seq = ref 0 in
        ( true,
          fun e ->
            user e;
            incr seq;
            Obs.Sink.emit s (Obs.Export.Event (Obs.export_event !seq e)) )
    | _, Some f -> (true, f)
    | _, None -> (false, ignore)
  in
  let setup_span = span "setup" in
  let boards = Array.init (Graph.n g) (fun _ -> Whiteboard.create ()) in
  let agents =
    Array.init (World.num_agents world) (fun i ->
        {
          idx = i;
          color = World.color_of_agent world i;
          home = World.home_of_agent world i;
          loc = World.home_of_agent world i;
          entry = None;
          status = Asleep;
          runnable = false;
          last_enabled = 0;
          wake_due = -1;
          moves = 0;
          posts = 0;
          erases = 0;
          reads = 0;
          turns = 0;
          erased = 0;
        })
  in
  let st =
    { world; csr = Graph.csr g; labeling = World.labeling world; boards;
      agents; seed; listening; on_event;
      faults = Option.map FInj.create faults;
      clock = 0; num_runnable = 0; picks = 0; wakes = 0; turns = 0;
      delayed_pending = 0; progress_turn = 0 }
  in
  (* The environment marks every home-base with a sign of the owner's
     color before anything runs. These environment marks are not agent
     posts, so sign faults never touch them. *)
  Array.iter
    (fun a ->
      Whiteboard.post boards.(a.home)
        (Sign.make ~color:a.color ~tag:home_tag ()))
    agents;
  let awake =
    match awake with
    | Some l -> l
    | None -> List.init (Array.length agents) Fun.id
  in
  (* An empty awake set is legal: nothing can ever run, so the scheduler
     loop exits immediately and the run reports a clean [Deadlock]. *)
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length agents then
        invalid_arg "Engine.run: awake index out of range";
      enable st agents.(i) Ready_start)
    awake;
  ignore (close setup_span);
  let loop_span = span "schedule" in
  let rng =
    match strategy with
    | Random_fair s -> Random.State.make [| s; 0xfa12 |]
    | _ -> Random.State.make [| seed |]
  in
  let rr_cursor = ref 0 in
  let max_hit = ref false in
  let timeout = ref None in
  (* One watchdog probe per scheduler iteration; with [watchdog = None]
     it is a single untaken match branch. The wall clock is only read
     every 256 turns. *)
  let watchdog_fired () =
    match watchdog with
    | None -> false
    | Some wd ->
        (match wd.Watchdog.turn_budget with
        | Some b when st.turns >= b ->
            timeout := Some Watchdog.Turn_budget
        | _ -> ());
        (match wd.Watchdog.livelock_window with
        | Some w when st.turns - st.progress_turn >= w ->
            timeout := Some Watchdog.Livelock
        | _ -> ());
        (match wd.Watchdog.wall_ns with
        | Some ns
          when st.turns land 255 = 0 && Qe_obs.Clock.now_ns () - t0 > ns ->
            timeout := Some Watchdog.Wall_clock
        | _ -> ());
        !timeout <> None
  in
  (* One scheduler turn for [a], with fault injection when a plan is
     armed: a stutter consumes the turn without running the agent; a
     crash-restart discards the agent's coroutine state. *)
  let step a =
    st.turns <- st.turns + 1;
    if st.turns > max_turns then max_hit := true
    else
      match st.faults with
      | None -> take_turn st proto a
      | Some inj ->
          if FInj.arm inj FKind.Turn_stutter then begin
            if st.listening then st.on_event (Stuttered { agent = a.color })
          end
          else if crashable a && FInj.arm inj FKind.Crash_restart then
            crash_restart st a
          else take_turn st proto a
  in
  (match strategy with
  | Synchronous ->
      (* a round is the agents runnable at its start, in index order *)
      let round = Array.make (Array.length agents) 0 in
      let continue_running = ref true in
      while !continue_running && not !max_hit && !timeout = None do
        if st.delayed_pending > 0 then release_due_wakes st ~force:false;
        if not (watchdog_fired ()) then begin
          let len = ref 0 in
          for i = 0 to Array.length agents - 1 do
            if agents.(i).runnable then begin
              round.(!len) <- i;
              incr len
            end
          done;
          if !len = 0 then begin
            if st.delayed_pending > 0 then release_due_wakes st ~force:true
            else continue_running := false
          end
          else
            for k = 0 to !len - 1 do
              let a = agents.(round.(k)) in
              if a.runnable && not !max_hit && !timeout = None then step a
            done
        end
      done
  | _ ->
      let continue_running = ref true in
      while !continue_running && not !max_hit && !timeout = None do
        if st.delayed_pending > 0 then release_due_wakes st ~force:false;
        if not (watchdog_fired ()) then
          let i = pick_agent st strategy rr_cursor rng in
          if i >= 0 then step agents.(i)
          else if st.delayed_pending > 0 then release_due_wakes st ~force:true
          else continue_running := false
      done);
  ignore (close loop_span);
  let collect_span = span "collect" in
  let result =
    collect_result st ~max_turns_hit:!max_hit ~timeout:!timeout
      (Qe_obs.Clock.now_ns () - t0)
  in
  ignore (close collect_span);
  (match obs with
  | None -> ()
  | Some s ->
      Obs.record_metrics s st strategy st.turns;
      Obs.Metrics.observe
        (Obs.Metrics.latency s.Obs.Sink.metrics "engine.run_latency")
        result.wall_time_ns;
      (match root with
      | Some (tr, sp) ->
          Obs.Span.add_attr sp "turns" (Obs.J.Int st.turns);
          Obs.Span.add_attr sp "moves" (Obs.J.Int result.total_moves);
          let closed = Obs.Span.exit tr sp in
          Obs.Sink.emit s (Obs.Export.Span_tree closed)
      | None -> ());
      Obs.Sink.emit s
        (Obs.Export.Metric_snapshot (Obs.Metrics.snapshot s.Obs.Sink.metrics)));
  result
