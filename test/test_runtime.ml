module Families = Qe_graph.Families
module Color = Qe_color.Color
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Sign = Qe_runtime.Sign
module Whiteboard = Qe_runtime.Whiteboard
module Campaign = Qe_elect.Campaign

let strategies =
  [
    ("round-robin", Engine.Round_robin);
    ("random", Engine.Random_fair 7);
    ("lifo", Engine.Lifo);
    ("fifo-mailbox", Engine.Fifo_mailbox);
    ("synchronous", Engine.Synchronous);
  ]

(* --- tiny protocols used as engine probes --- *)

let solo_leader =
  {
    Protocol.name = "solo-leader";
    quantitative = false;
    main = (fun _ctx -> Protocol.Leader);
  }

(* Agents sit on the leaves of a star; whoever writes first at the center
   wins. Exercises atomic visits / mutual exclusion. *)
let star_race =
  {
    Protocol.name = "star-race";
    quantitative = false;
    main =
      (fun ctx ->
        let obs = Script.observe () in
        match Lazy.force obs.Protocol.ports with
        | [ p ] ->
            let center = Script.move p in
            if
              List.exists
                (fun s -> Sign.has_tag "claim" s && not (Sign.by ctx.color s))
                center.Protocol.board
            then Protocol.Defeated
            else begin
              Script.post ~tag:"claim" ();
              Protocol.Leader
            end
        | _ -> Protocol.Aborted "expected to start on a leaf");
  }

(* Two agents on K2; only agent at index 0 is awake. It pings the other
   node; the sleeper wakes, sees a foreign ping, and concedes. *)
let wake_chain =
  {
    Protocol.name = "wake-chain";
    quantitative = false;
    main =
      (fun ctx ->
        let obs = Script.observe () in
        let foreign_ping =
          List.exists
            (fun s -> Sign.has_tag "ping" s && not (Sign.by ctx.color s))
            obs.Protocol.board
        in
        if foreign_ping then Protocol.Defeated
        else
          match Lazy.force obs.Protocol.ports with
          | p :: _ ->
              let _ = Script.move p in
              Script.post ~tag:"ping" ();
              Protocol.Leader
          | [] -> Protocol.Aborted "isolated node");
  }

(* rank-branching (quantitative) protocol exercising wait/wakeup *)
let wait_handshake =
  {
    Protocol.name = "wait-handshake";
    quantitative = true;
    main =
      (fun ctx ->
        match ctx.rank with
        | Some 0 ->
            (* wait at home until someone posts *)
            let rec loop obs =
              if
                List.exists
                  (fun s ->
                    Sign.has_tag "visit" s && not (Sign.by ctx.color s))
                  obs.Protocol.board
              then Protocol.Leader
              else loop (Script.wait ())
            in
            loop (Script.observe ())
        | Some _ ->
            let obs = Script.observe () in
            let deliver ports =
              match ports with
              | [] -> Protocol.Aborted "no ports"
              | p :: _ ->
                  let there = Script.move p in
                  let has_home =
                    List.exists (Sign.has_tag Engine.home_tag)
                      there.Protocol.board
                  in
                  ignore has_home;
                  Script.post ~tag:"visit" ();
                  Protocol.Defeated
            in
            deliver (Lazy.force obs.Protocol.ports)
        | None -> Protocol.Aborted "expected rank");
  }

(* Starvation probe for the Lifo strategy: agent 1 ping-pongs forever (every
   move re-enables it, so it is always the most recently enabled), agent 0
   just wants one turn to halt. Without the every-16th-pick fairness
   injection agent 0 would never be scheduled. *)
let lifo_starvation_probe =
  {
    Protocol.name = "lifo-starvation-probe";
    quantitative = true;
    main =
      (fun ctx ->
        match ctx.rank with
        | Some 0 ->
            ignore (Script.observe ());
            Protocol.Defeated
        | Some _ ->
            let rec go (obs : Protocol.observation) =
              match Lazy.force obs.Protocol.ports with
              | p :: _ -> go (Script.move p)
              | [] -> Protocol.Aborted "isolated node"
            in
            go (Script.observe ())
        | None -> Protocol.Aborted "expected rank");
  }

(* walk around a cycle exactly [laps] times by always leaving through the
   port we did not come in through *)
let cycle_walker laps =
  {
    Protocol.name = "cycle-walker";
    quantitative = false;
    main =
      (fun _ctx ->
        let n_steps = ref 0 in
        let obs = ref (Script.observe ()) in
        (* first step: arbitrary port *)
        (match Lazy.force !obs.Protocol.ports with
        | p :: _ ->
            obs := Script.move p;
            incr n_steps
        | [] -> ignore (Script.halt (Protocol.Aborted "no ports")));
        while !n_steps < laps do
          let entry =
            match !obs.Protocol.entry with
            | Some e -> e
            | None -> Script.halt (Protocol.Aborted "no entry")
          in
          let out =
            List.find
              (fun p -> not (Qe_color.Symbol.equal p entry))
              (Lazy.force !obs.Protocol.ports)
          in
          obs := Script.move out;
          incr n_steps
        done;
        Protocol.Leader);
  }

let home_roundtrip =
  {
    Protocol.name = "home-roundtrip";
    quantitative = false;
    main =
      (fun ctx ->
        Script.post ~tag:"mark" ();
        let obs = Script.observe () in
        match Lazy.force obs.Protocol.ports with
        | p :: _ -> (
            let there = Script.move p in
            match there.Protocol.entry with
            | Some back ->
                let home = Script.move back in
                if
                  List.exists
                    (fun s -> Sign.has_tag "mark" s && Sign.by ctx.color s)
                    home.Protocol.board
                then Protocol.Leader
                else Protocol.Election_failed
            | None -> Protocol.Aborted "no entry symbol")
        | [] -> Protocol.Aborted "no ports");
  }

let forever_waiter =
  {
    Protocol.name = "forever-waiter";
    quantitative = false;
    main =
      (fun _ctx ->
        let rec loop () =
          let _ = Script.wait () in
          loop ()
        in
        loop ());
  }

let forever_mover =
  {
    Protocol.name = "forever-mover";
    quantitative = false;
    main =
      (fun _ctx ->
        let rec loop obs =
          match Lazy.force obs.Protocol.ports with
          | p :: _ -> loop (Script.move p)
          | [] -> Protocol.Aborted "no ports"
        in
        loop (Script.observe ()));
  }

let illegal_mover other_world_symbol =
  {
    Protocol.name = "illegal-mover";
    quantitative = false;
    main =
      (fun _ctx ->
        let _ = Script.move other_world_symbol in
        Protocol.Leader);
  }

(* --- tests --- *)

let test_solo () =
  List.iter
    (fun (name, strat) ->
      let w = World.make (Families.cycle 3) ~black:[ 0 ] in
      let r = Engine.run ~strategy:strat w solo_leader in
      match r.Engine.outcome with
      | Engine.Elected c ->
          Alcotest.(check bool)
            (name ^ ": winner color") true
            (Color.equal c (World.color_of_agent w 0))
      | _ -> Alcotest.failf "%s: expected election" name)
    strategies

let test_star_race () =
  List.iter
    (fun (name, strat) ->
      let w = World.make (Families.star 4) ~black:[ 1; 2; 3; 4 ] in
      let r = Engine.run ~strategy:strat ~seed:3 w star_race in
      (match r.Engine.outcome with
      | Engine.Elected _ -> ()
      | o ->
          Alcotest.failf "%s: expected election, got %s" name
            (Engine.outcome_to_string o));
      (* exactly one leader verdict *)
      let leaders =
        List.filter (fun (_, v) -> v = Protocol.Leader) r.Engine.verdicts
      in
      Alcotest.(check int) (name ^ ": one leader") 1 (List.length leaders))
    strategies

let test_wake_chain () =
  let w = World.make (Families.path 2) ~black:[ 0; 1 ] in
  let r = Engine.run ~strategy:Engine.Round_robin ~awake:[ 0 ] w wake_chain in
  (match r.Engine.outcome with
  | Engine.Elected c ->
      Alcotest.(check bool) "awake agent wins" true
        (Color.equal c (World.color_of_agent w 0))
  | _ -> Alcotest.fail "expected election");
  (* the sleeper really did run (it produced a verdict) *)
  Alcotest.(check int) "two verdicts" 2 (List.length r.Engine.verdicts)

let test_wait_handshake () =
  let w = World.make (Families.path 2) ~black:[ 0; 1 ] in
  let r = Engine.run ~strategy:Engine.Round_robin w wait_handshake in
  match r.Engine.outcome with
  | Engine.Elected c ->
      Alcotest.(check bool) "waiter wins" true
        (Color.equal c (World.color_of_agent w 0))
  | _ -> Alcotest.fail "expected election"

let test_cycle_walk_counts_moves () =
  let n = 8 and laps = 3 in
  let w = World.make (Families.cycle n) ~black:[ 0 ] in
  let r = Engine.run w (cycle_walker (laps * n)) in
  Alcotest.(check int) "moves counted" (laps * n) r.Engine.total_moves;
  match r.Engine.outcome with
  | Engine.Elected _ -> ()
  | _ -> Alcotest.fail "walker should finish"

let test_home_roundtrip () =
  (* entry symbols must lead back; exercised across several graphs and
     seeds (different port presentations) *)
  List.iter
    (fun g ->
      List.iter
        (fun seed ->
          let w = World.make g ~black:[ 0 ] in
          let r = Engine.run ~seed w home_roundtrip in
          match r.Engine.outcome with
          | Engine.Elected _ -> ()
          | _ -> Alcotest.fail "roundtrip failed")
        [ 0; 1; 2; 3 ])
    [ Families.cycle 5; Families.petersen (); Families.complete 4 ]

let test_deadlock_detected () =
  List.iter
    (fun (name, strat) ->
      let w = World.make (Families.cycle 4) ~black:[ 0; 2 ] in
      let r = Engine.run ~strategy:strat w forever_waiter in
      Alcotest.(check bool) (name ^ ": deadlock") true
        (r.Engine.outcome = Engine.Deadlock))
    strategies

let test_step_limit () =
  List.iter
    (fun (name, strat) ->
      let w = World.make (Families.cycle 4) ~black:[ 0 ] in
      let r = Engine.run ~strategy:strat ~max_turns:50 w forever_mover in
      Alcotest.(check bool) (name ^ ": step limit") true
        (r.Engine.outcome = Engine.Step_limit))
    strategies

let test_empty_awake_deadlocks () =
  (* nobody can ever run: a clean, immediate Deadlock — not a hang, not
     an error *)
  List.iter
    (fun (name, strat) ->
      let w = World.make (Families.cycle 4) ~black:[ 0; 2 ] in
      let r = Engine.run ~strategy:strat ~awake:[] w solo_leader in
      Alcotest.(check bool) (name ^ ": deadlock") true
        (r.Engine.outcome = Engine.Deadlock);
      Alcotest.(check int) (name ^ ": no turns") 0 r.Engine.scheduler_turns;
      List.iter
        (fun (_, v) ->
          match v with
          | Protocol.Aborted msg ->
              Alcotest.(check string) (name ^ ": asleep verdict")
                "asleep (never woken)" msg
          | _ -> Alcotest.failf "%s: expected asleep verdicts" name)
        r.Engine.verdicts)
    strategies

let test_single_agent_edge_cases () =
  (* one agent, one node, zero edges: trivially elected *)
  let w = World.make (Families.path 1) ~black:[ 0 ] in
  let r = Engine.run w solo_leader in
  Alcotest.(check bool) "1-node world elects" true
    (match r.Engine.outcome with Engine.Elected _ -> true | _ -> false);
  (* a single sleeping agent can never be woken (no visitor exists) *)
  let w = World.make (Families.path 1) ~black:[ 0 ] in
  let r = Engine.run ~awake:[] w solo_leader in
  Alcotest.(check bool) "single sleeper deadlocks" true
    (r.Engine.outcome = Engine.Deadlock);
  (* a single waiting agent deadlocks rather than spinning *)
  let w = World.make (Families.cycle 3) ~black:[ 0 ] in
  let r = Engine.run w forever_waiter in
  Alcotest.(check bool) "single waiter deadlocks" true
    (r.Engine.outcome = Engine.Deadlock)

let test_illegal_move_aborts () =
  let alien = Qe_color.Symbol.mint "alien" in
  let w = World.make (Families.cycle 4) ~black:[ 0 ] in
  let r = Engine.run w (illegal_mover alien) in
  match r.Engine.outcome with
  | Engine.Inconsistent { reason; conflicting } ->
      (* the payload carries the conflicting verdicts, not just prose *)
      Alcotest.(check string) "reason" "1 agents aborted" reason;
      Alcotest.(check int) "one conflicting verdict" 1
        (List.length conflicting);
      List.iter
        (fun (_, v) ->
          match v with
          | Protocol.Aborted _ -> ()
          | _ -> Alcotest.fail "conflicting verdict should be the abort")
        conflicting
  | _ -> Alcotest.fail "expected abort to surface as Inconsistent"

let test_determinism () =
  let run () =
    let w = World.make (Families.star 4) ~black:[ 1; 2; 3; 4 ] in
    let r = Engine.run ~strategy:(Engine.Random_fair 42) w star_race in
    match r.Engine.outcome with
    | Engine.Elected c -> Color.name c
    | _ -> "none"
  in
  (* Colors are fresh each run, so compare by name position instead:
     rerun twice and check the same agent index wins. *)
  let winner_index () =
    let w = World.make (Families.star 4) ~black:[ 1; 2; 3; 4 ] in
    let r = Engine.run ~strategy:(Engine.Random_fair 42) w star_race in
    match r.Engine.outcome with
    | Engine.Elected c -> (
        match World.agent_of_color w c with Some i -> i | None -> -1)
    | _ -> -1
  in
  ignore (run ());
  Alcotest.(check int) "same winner under same seed" (winner_index ())
    (winner_index ())

let test_stats_accesses () =
  let w = World.make (Families.path 2) ~black:[ 0 ] in
  let proto =
    {
      Protocol.name = "poster";
      quantitative = false;
      main =
        (fun _ctx ->
          Script.post ~tag:"a" ();
          Script.post ~tag:"b" ();
          let _ = Script.observe () in
          let n = Script.erase ~tag:"a" in
          if n = 1 then Protocol.Leader else Protocol.Election_failed);
    }
  in
  let r = Engine.run w proto in
  Alcotest.(check bool) "elected" true
    (match r.Engine.outcome with Engine.Elected _ -> true | _ -> false);
  (* 2 posts + 1 erase + 1 read = 4 accesses *)
  Alcotest.(check int) "accesses" 4 r.Engine.total_accesses;
  Alcotest.(check int) "no moves" 0 r.Engine.total_moves

let test_whiteboard_unit () =
  let wb = Whiteboard.create () in
  let c = Color.mint "t" in
  Alcotest.(check int) "empty" 0 (Whiteboard.size wb);
  Whiteboard.post wb (Sign.make ~color:c ~tag:"x" ~body:"1" ());
  Whiteboard.post wb (Sign.make ~color:c ~tag:"y" ());
  Alcotest.(check int) "two signs" 2 (Whiteboard.size wb);
  Alcotest.(check int) "rev 2" 2 (Whiteboard.revision wb);
  Alcotest.(check int) "find x" 1 (List.length (Whiteboard.find wb ~tag:"x"));
  let erased = Whiteboard.erase wb ~color:c ~tag:"x" in
  Alcotest.(check int) "erased one" 1 erased;
  Alcotest.(check int) "rev 3" 3 (Whiteboard.revision wb);
  let erased2 = Whiteboard.erase wb ~color:c ~tag:"x" in
  Alcotest.(check int) "nothing left" 0 erased2;
  Alcotest.(check int) "rev still 3" 3 (Whiteboard.revision wb)

let test_world_validation () =
  Alcotest.(check bool) "disconnected rejected" true
    (try
       ignore
         (World.make
            (Qe_graph.Graph.of_edges ~n:4 [ (0, 1); (2, 3) ])
            ~black:[ 0 ]);
       false
     with Invalid_argument _ -> true);
  let c = Color.mint "dup" in
  Alcotest.(check bool) "duplicate colors rejected" true
    (try
       ignore
         (World.make (Families.path 2) ~black:[ 0; 1 ] ~colors:[ c; c ]);
       false
     with Invalid_argument _ -> true)

let test_mailbox_strategy_same_outcome () =
  (* Figure 1: the same protocol gives the same outcome under the
     message-passing (mailbox) discipline. *)
  let outcome strat =
    let w = World.make (Families.star 3) ~black:[ 1; 2; 3 ] in
    let r = Engine.run ~strategy:strat ~seed:1 w star_race in
    match r.Engine.outcome with Engine.Elected _ -> true | _ -> false
  in
  Alcotest.(check bool) "random elects" true
    (outcome (Engine.Random_fair 1));
  Alcotest.(check bool) "mailbox elects" true (outcome Engine.Fifo_mailbox)

let test_lifo_no_starvation () =
  let w = World.make (Families.complete 2) ~black:[ 0; 1 ] in
  let r =
    Engine.run ~strategy:Engine.Lifo ~max_turns:200 w lifo_starvation_probe
  in
  (* the mover never halts, so the run ends at the step limit... *)
  Alcotest.(check bool) "run hits the step limit" true
    (r.Engine.outcome = Engine.Step_limit);
  (* ...but the fairness injection must have given the other agent its
     turn well before that *)
  Alcotest.(check bool) "every agent got a turn" true
    (List.for_all
       (fun ((_ : Color.t), (st : Engine.agent_stats)) -> st.turns > 0)
       r.Engine.per_agent);
  Alcotest.(check bool) "starved agent halted" true
    (List.exists (fun (_, v) -> v = Protocol.Defeated) r.Engine.verdicts)

(* An observation's ports are built on first read, from the node where
   it was taken: forced after the agent moved on, and forced twice, they
   are the list an immediate force gives. *)
let test_ports_forced_late () =
  let w = World.make (Families.path 3) ~black:[ 0 ] in
  let now = ref [] and late = ref [] and again = ref [] and there = ref [] in
  let probe =
    {
      Protocol.name = "late-force";
      quantitative = false;
      main =
        (fun _ctx ->
          let unforced = Script.observe () in
          now := Lazy.force (Script.observe ()).Protocol.ports;
          let next = Script.move (List.hd !now) in
          late := Lazy.force unforced.Protocol.ports;
          again := Lazy.force unforced.Protocol.ports;
          there := Lazy.force next.Protocol.ports;
          Protocol.Leader);
    }
  in
  ignore (Engine.run ~seed:3 w probe);
  let names = List.map Qe_color.Symbol.name in
  let home_symbols =
    let l = World.labeling w in
    List.init
      (Qe_graph.Graph.degree (World.graph w) 0)
      (fun i ->
        Qe_color.Symbol.name
          (World.symbol_of w (Qe_graph.Labeling.symbol l 0 i)))
  in
  Alcotest.(check (list string)) "late = immediate" (names !now) (names !late);
  Alcotest.(check (list string)) "twice = once" (names !late) (names !again);
  Alcotest.(check (list string)) "the home's ports" home_symbols
    (List.sort compare (names !late));
  Alcotest.(check int) "the next node has its own" 2 (List.length !there)

(* ELECT on every zoo instance under every strategy and two seeds: the
   [on_event] stream and every result field but [wall_time_ns],
   digested, must match the recorded golden run for run. *)
let engine_golden_path = "data/engine_golden.txt"

let engine_digest (inst : Campaign.instance) (sname, strategy) seed =
  let strategy =
    match strategy with Engine.Random_fair _ -> Engine.Random_fair seed | s -> s
  in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let on_event e = Format.fprintf ppf "%a\n" Engine.pp_event e in
  let world = World.make inst.graph ~black:inst.black in
  let r = Engine.run ~strategy ~seed ~on_event world Qe_elect.Elect.protocol in
  Format.fprintf ppf "outcome %a\n" Engine.pp_outcome r.outcome;
  List.iter
    (fun (c, v) -> Format.fprintf ppf "%a=%a;" Color.pp c Protocol.pp_verdict v)
    r.verdicts;
  List.iter
    (fun (c, (s : Engine.agent_stats)) ->
      Format.fprintf ppf "%a:%d,%d,%d,%d,%d;" Color.pp c s.moves s.posts
        s.erases s.reads s.turns)
    r.per_agent;
  List.iter (fun (c, u) -> Format.fprintf ppf "%a>%d;" Color.pp c u)
    r.final_locations;
  List.iter
    (fun (k, n) -> Format.fprintf ppf "%a*%d;" Qe_fault.Kind.pp k n)
    r.faults_injected;
  Format.fprintf ppf "\n%d %d %d@." r.total_moves r.total_accesses
    r.scheduler_turns;
  Printf.sprintf "%s %s %d %s" inst.name sname seed
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_engine_golden () =
  let expected =
    In_channel.with_open_text engine_golden_path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let actual =
    List.concat_map
      (fun inst ->
        List.concat_map
          (fun st -> List.map (engine_digest inst st) [ 0; 1 ])
          Campaign.strategies)
      (Campaign.zoo ())
  in
  Alcotest.(check int) "runs" 450 (List.length actual);
  Alcotest.(check (list string)) "digests" expected actual

(* Words allocated by [f], minor and direct-major allocations both. *)
let allocated_words f =
  let mi0, pr0, ma0 = Gc.counters () in
  let r = f () in
  let mi1, pr1, ma1 = Gc.counters () in
  (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0), r)

(* A walker that steps back through its entry port on every move: the
   engine's own cost per move, since it reads no ports. The engine
   allocates no dart record, entry option, event or handler closure per
   move; what is left is the effect, the continuation and the
   observation (about 20 words on OCaml 5.1). *)
let test_walker_allocation () =
  let steps = 20_000 in
  let walker =
    {
      Protocol.name = "walker";
      quantitative = false;
      main =
        (fun _ ->
          let first = List.hd (Lazy.force (Script.observe ()).Protocol.ports) in
          let port = ref first in
          for _ = 1 to steps do
            port := Option.get (Script.move !port).Protocol.entry
          done;
          Protocol.Leader);
    }
  in
  let w = World.make (Families.cycle 8) ~black:[ 0 ] in
  ignore (Engine.run ~seed:1 w walker);
  let words, r = allocated_words (fun () -> Engine.run ~seed:1 w walker) in
  Alcotest.(check int) "moves" steps r.Engine.total_moves;
  let per_move = words /. float steps in
  if per_move > 48. then
    Alcotest.failf "%.1f words per move (pin: <= 48)" per_move

(* Events are built only for a listener; the run itself must not notice:
   with and without [on_event], every result field but the wall time is
   the same, calm and under a fault plan. *)
let test_listener_transparent () =
  let same_result (a : Engine.result) (b : Engine.result) =
    { a with wall_time_ns = 0 } = { b with wall_time_ns = 0 }
  in
  List.iter
    (fun (inst : Campaign.instance) ->
      List.iter
        (fun (sname, strategy) ->
          List.iter
            (fun faults ->
              let world = World.make inst.graph ~black:inst.black in
              let run ?on_event () =
                Engine.run ~strategy ~seed:4 ?on_event ?faults ~max_turns:100_000
                  world Qe_elect.Elect.protocol
              in
              let events = ref 0 in
              let heard = run ~on_event:(fun _ -> incr events) () in
              let silent = run () in
              if not (same_result heard silent) then
                Alcotest.failf "%s/%s%s: result differs without a listener"
                  inst.name sname
                  (if faults = None then "" else " (faults)");
              Alcotest.(check bool) "the listener heard events" true
                (!events > 0))
            [ None; Some (Qe_fault.Plan.chaos ~seed:3) ])
        strategies)
    (Campaign.zoo ())

let () =
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "solo leader" `Quick test_solo;
          Alcotest.test_case "star race" `Quick test_star_race;
          Alcotest.test_case "wake chain" `Quick test_wake_chain;
          Alcotest.test_case "wait handshake" `Quick test_wait_handshake;
          Alcotest.test_case "move counting" `Quick
            test_cycle_walk_counts_moves;
          Alcotest.test_case "entry roundtrip" `Quick test_home_roundtrip;
          Alcotest.test_case "deadlock (all strategies)" `Quick
            test_deadlock_detected;
          Alcotest.test_case "step limit (all strategies)" `Quick
            test_step_limit;
          Alcotest.test_case "empty awake set" `Quick
            test_empty_awake_deadlocks;
          Alcotest.test_case "single-agent edge cases" `Quick
            test_single_agent_edge_cases;
          Alcotest.test_case "illegal move" `Quick test_illegal_move_aborts;
          Alcotest.test_case "seeded determinism" `Quick test_determinism;
          Alcotest.test_case "access accounting" `Quick test_stats_accesses;
          Alcotest.test_case "mailbox = fig 1" `Quick
            test_mailbox_strategy_same_outcome;
          Alcotest.test_case "lifo fairness (no starvation)" `Quick
            test_lifo_no_starvation;
          Alcotest.test_case "ports forced late" `Quick
            test_ports_forced_late;
          Alcotest.test_case "golden ELECT runs (zoo x strategies x seeds)"
            `Quick test_engine_golden;
          Alcotest.test_case "walker allocation pin" `Quick
            test_walker_allocation;
          Alcotest.test_case "same run with or without a listener" `Quick
            test_listener_transparent;
        ] );
      ( "whiteboard",
        [ Alcotest.test_case "post/erase/revision" `Quick
            test_whiteboard_unit ] );
      ( "world",
        [ Alcotest.test_case "validation" `Quick test_world_validation ] );
    ]
