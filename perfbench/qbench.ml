(* The qelect benchmark: three seeded workloads, end-to-end metrics
   from an untraced run, per-layer metrics from a traced one. The
   workloads, metrics and the reasons behind them are described in
   README.md next to this file.

   Everything is driven in-process through the libraries' public
   functions, one client on one domain, closed loop. The last line of
   standard output is the result object
   [{"correct"; "attempted"; "failed"; "metrics"}]. *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Families = Qe_graph.Families
module Csr = Qe_graph.Csr
module Presentation = Qe_group.Presentation
module Cache = Qe_symmetry.Artifact_cache
module Classes = Qe_symmetry.Classes
module Transitive = Qe_symmetry.Transitive
module Cayley_detect = Qe_symmetry.Cayley_detect
module Cdigraph = Qe_symmetry.Cdigraph
module Refine = Qe_symmetry.Refine
module Canon = Qe_symmetry.Canon
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Campaign = Qe_elect.Campaign
module Oracle = Qe_elect.Oracle
module Elect = Qe_elect.Elect
module Span = Qe_obs.Span
module Sink = Qe_obs.Sink
module Metrics = Qe_obs.Metrics
module Jsonl = Qe_obs.Jsonl

let now = Qe_obs.Clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () - t0)

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest rank *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let ratio a b = if b = 0 then 0. else float a /. float b

(* ---------- options ---------- *)

let workload = ref ""
let seed = ref 0
let seconds = ref 10
let trace = ref 0

(* ---------- tracing ---------- *)

(* Spans are recorded only in the traced run, from this file, around the
   calls into each layer; the libraries get no ambient sink, so nothing
   they replay from the artifact cache can leak into the counts. *)
let tracer : Span.tracer option ref = ref None

let span name f =
  match !tracer with None -> f () | Some t -> Span.with_span t name f

(* Share of the measured loop's time used so far, in [0, 1]; 1 outside
   the loop, so that a traced pass does all its scheduled work. *)
let progress = ref (fun () -> 1.)

(* ---------- outcome accounting ---------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** outputs that contradicted their check *)
  errors : (string, int) Hashtbl.t;
}

let tally =
  { attempted = 0; failed = 0; wrong = 0; errors = Hashtbl.create 8 }

let note msg =
  let c = try Hashtbl.find tally.errors msg with Not_found -> 0 in
  Hashtbl.replace tally.errors msg (c + 1)

(* One checked item: [f] returns whether its output passed the check.
   An exception is a failed item, a failed check is a failed item and a
   wrong output. *)
let attempt what f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | true -> ()
  | false ->
      tally.failed <- tally.failed + 1;
      tally.wrong <- tally.wrong + 1;
      note ("wrong output: " ^ what)
  | exception e ->
      tally.failed <- tally.failed + 1;
      note (what ^ ": " ^ Printexc.to_string e)

(* A self-check of the benchmark itself; a failure makes [correct]
   false. *)
let self_check what ok =
  if not ok then begin
    tally.wrong <- tally.wrong + 1;
    note ("self-check failed: " ^ what)
  end

(* ---------- samples ---------- *)

(* A growable buffer of unboxed floats: per-run samples must not grow
   the heap the benchmark reports with the number of runs. *)
type floats = { mutable data : Float.Array.t; mutable len : int }

let floats () = { data = Float.Array.create 4096; len = 0 }

let push b x =
  if b.len = Float.Array.length b.data then begin
    let d = Float.Array.create (2 * b.len) in
    Float.Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  Float.Array.set b.data b.len x;
  b.len <- b.len + 1

let to_list b = List.init b.len (Float.Array.get b.data)

type samples = {
  mutable runs : int;
  run_ms : floats;
  mutable moves_re : float;  (** sum over runs of moves / (r·|E|) *)
  mutable accesses_re : float;
  mutable re_runs : int;  (** runs in those sums (r·|E| > 0) *)
  engine_ms : floats;  (** the engine's own wall time *)
  mutable turns : int;
  mutable engine_ns : int;
  mutable run_phase_ns : int;
  mutable cold_ms : (string * float) list;
  mutable warm_ms : (string * float) list;
  mutable outcomes : (Engine.outcome * int * int) list;
      (** (outcome, moves, turns) per run, newest first *)
}

let fresh_samples () =
  {
    runs = 0;
    run_ms = floats ();
    moves_re = 0.;
    accesses_re = 0.;
    re_runs = 0;
    engine_ms = floats ();
    turns = 0;
    engine_ns = 0;
    run_phase_ns = 0;
    cold_ms = [];
    warm_ms = [];
    outcomes = [];
  }

(* Run-for-run outcomes are kept only by the traced run, which compares
   its two passes; the measured loop would otherwise grow the heap it
   reports. *)
let keep_outcomes = ref false

let record_run s ~ns ~r ~m ~outcome ~moves ~accesses ~turns ~engine_ns =
  s.runs <- s.runs + 1;
  push s.run_ms (ms_of_ns ns);
  if r * m > 0 then begin
    let re = float (r * m) in
    s.moves_re <- s.moves_re +. (float moves /. re);
    s.accesses_re <- s.accesses_re +. (float accesses /. re);
    s.re_runs <- s.re_runs + 1
  end;
  push s.engine_ms (ms_of_ns engine_ns);
  s.turns <- s.turns + turns;
  s.engine_ns <- s.engine_ns + engine_ns;
  if !keep_outcomes then s.outcomes <- (outcome, moves, turns) :: s.outcomes

(* World.make + Engine.run of ELECT; returns the outcome. *)
let elect_run s ~graph ~black ~strategy ~seed =
  let res, ns =
    timed (fun () ->
        span "run" (fun () ->
            let world = span "world.make" (fun () -> World.make graph ~black) in
            span "engine.run" (fun () ->
                Engine.run ~strategy ~seed world Elect.protocol)))
  in
  record_run s ~ns ~r:(List.length black) ~m:(Graph.m graph)
    ~outcome:res.outcome ~moves:res.total_moves ~accesses:res.total_accesses
    ~turns:res.scheduler_turns ~engine_ns:res.wall_time_ns;
  res.outcome

(* ---------- cache lookups per verdict ---------- *)

let lookups () =
  List.fold_left (fun acc (st : Cache.stat) -> acc + st.hits + st.misses) 0
    (Cache.stats ())

let verdicts_seen = ref 0
let verdict_lookups = ref 0

(* The verdict [qelect analyze] computes: the classes, then the
   prediction. Lookups are counted only in the traced run. *)
let verdict b =
  let before = if !tracer = None then 0 else lookups () in
  let r =
    span "verdict" (fun () ->
        let cls = span "classes.compute" (fun () -> Classes.compute b) in
        let p = span "oracle.predict" (fun () -> Oracle.predict b) in
        (cls, p))
  in
  if !tracer <> None then begin
    incr verdicts_seen;
    verdict_lookups := !verdict_lookups + lookups () - before
  end;
  r

(* Theorem 3.1 and the oracle must agree: Solvable exactly when the
   class gcd is 1. *)
let verdict_consistent cls p =
  (p = Oracle.Solvable) = (Classes.gcd_sizes cls = 1)

(* Time [f], keep the sample only when it returns. *)
let timed_into store f =
  let r, ns = timed f in
  store (ms_of_ns ns);
  r

let cold s name x = s.cold_ms <- (name, x) :: s.cold_ms
let warm s name x = s.warm_ms <- (name, x) :: s.warm_ms

(* ---------- input digests ---------- *)

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

let graph_digest g =
  let c = Graph.csr g in
  digest (c.Csr.n, c.Csr.off, c.Csr.dst)

(* Distinct random nodes, in draw order. *)
let draw_distinct rng ~n k =
  let rec go acc =
    if List.length acc = k then List.rev acc
    else
      let u = Random.State.int rng n in
      if List.mem u acc then go acc else go (u :: acc)
  in
  go []

let rng_for seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* ---------- per-layer probes ---------- *)

(* Direct calls into each layer with the artifact cache out of the path,
   each kernel computation under its own fresh sink, so counts are the
   work of exactly that call. *)
type probe = {
  mutable csr_words : int;
  mutable key_ms : float list;
  mutable key_bytes : int list;
  mutable certify_ms : float list;
  mutable certified : int;
  mutable graphs : int;
  mutable classes_ms : float list;
  mutable fast : int;
  mutable class_counts : int list;
  mutable embed_ms : float list;
  mutable refine_ms : float list;
  mutable canon_ms : float list;
  mutable fixpoints : int;
  mutable canon_runs : int;
  mutable canon_leaves : int;
  mutable classes_calls : int;
  mutable translation_ms : float list;
  mutable cap_failures : int;
}

let fresh_probe () =
  {
    csr_words = 0;
    key_ms = [];
    key_bytes = [];
    certify_ms = [];
    certified = 0;
    graphs = 0;
    classes_ms = [];
    fast = 0;
    class_counts = [];
    embed_ms = [];
    refine_ms = [];
    canon_ms = [];
    fixpoints = 0;
    canon_runs = 0;
    canon_leaves = 0;
    classes_calls = 0;
    translation_ms = [];
    cap_failures = 0;
  }

let counter snap name =
  match Metrics.find snap name with Some (Metrics.Counter c) -> c | _ -> 0

(* Probe roles: [`Main] instances are the workload's own and get the
   layers on its product path; [`Search] instances also (or only) get the
   canonical search and the regular-subgroup search, which are not
   affordable at 10⁵ nodes, where the product path bypasses them. *)
type role = { main : bool; search : bool }

let probe_main pr b =
  let g = Bicolored.graph b in
  pr.csr_words <- pr.csr_words + Csr.words (Graph.csr g);
  let key, key_ns =
    span "cache.exact_key" (fun () -> timed (fun () -> Cache.exact_key b))
  in
  pr.key_ms <- ms_of_ns key_ns :: pr.key_ms;
  pr.key_bytes <- String.length key :: pr.key_bytes;
  let cert, cert_ns =
    span "transitive.certified_regular" (fun () ->
        timed (fun () -> Transitive.certified_regular g))
  in
  pr.graphs <- pr.graphs + 1;
  pr.certify_ms <- ms_of_ns cert_ns :: pr.certify_ms;
  if cert <> None then pr.certified <- pr.certified + 1;
  let sink = Sink.create () in
  let cls, cls_ns =
    span "classes.compute" (fun () ->
        Sink.with_ambient sink (fun () -> timed (fun () -> Classes.compute b)))
  in
  let snap = Metrics.snapshot sink.Sink.metrics in
  pr.classes_calls <- pr.classes_calls + 1;
  pr.classes_ms <- ms_of_ns cls_ns :: pr.classes_ms;
  if Classes.used_fast_path cls then pr.fast <- pr.fast + 1;
  pr.class_counts <- Classes.num_classes cls :: pr.class_counts;
  pr.fixpoints <- pr.fixpoints + counter snap "refine.fixpoints";
  pr.canon_runs <- pr.canon_runs + counter snap "canon.runs";
  pr.canon_leaves <- pr.canon_leaves + counter snap "canon.leaves";
  let cd, embed_ns =
    span "cdigraph.of_bicolored" (fun () ->
        timed (fun () -> Cdigraph.of_bicolored b))
  in
  pr.embed_ms <- ms_of_ns embed_ns :: pr.embed_ms;
  let _, refine_ns =
    span "refine.equitable" (fun () -> timed (fun () -> Refine.equitable cd))
  in
  pr.refine_ms <- ms_of_ns refine_ns :: pr.refine_ms

let probe_search pr b =
  let g = Bicolored.graph b in
  let cd = Cdigraph.of_bicolored b in
  let _, canon_ns = span "canon.run" (fun () -> timed (fun () -> Canon.run cd)) in
  pr.canon_ms <- ms_of_ns canon_ns :: pr.canon_ms;
  let t0 = now () in
  (match
     span "cayley_detect.exists_preserving_translation" (fun () ->
         Cayley_detect.exists_preserving_translation g
           ~black:(Bicolored.blacks b))
   with
  | (_ : bool) -> ()
  | exception Failure _ -> pr.cap_failures <- pr.cap_failures + 1);
  pr.translation_ms <- ms_of_ns (now () - t0) :: pr.translation_ms

(* The deterministic part of a probe: everything but the timings. *)
let probe_fingerprint pr =
  ( pr.key_bytes,
    pr.certified,
    pr.fast,
    pr.class_counts,
    pr.fixpoints,
    pr.canon_runs,
    pr.canon_leaves,
    pr.cap_failures )

let probe_all inputs =
  let pr = fresh_probe () in
  let was = Cache.enabled () in
  Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Cache.set_enabled was)
    (fun () ->
      span "layers" (fun () ->
          List.iter
            (fun (b, role) ->
              if role.main then probe_main pr b;
              if role.search then probe_search pr b)
            inputs));
  pr

(* ---------- workloads ---------- *)

type workload = {
  setup_reps : int;
      (** set-up is repeated this many times and [setup_s] is the
          median; the last build is the one measured *)
  setup : unit -> unit;
      (** build every instance and placement from the seed *)
  built_digest : unit -> string;
      (** digest of what the last [setup] built *)
  inputs_digest : int -> string;
      (** digest of the inputs a seed generates, without building them *)
  warm_up : unit -> unit;
      (** self-checks and cache fill after the last set-up; not timed *)
  complete : unit -> bool;
      (** whether the work scheduled over the measured loop is all done;
          the loop does not end before it is *)
  pass : samples -> unit;  (** one closed-loop pass over the inputs *)
  rewind : unit -> unit;  (** make the next pass repeat the first one *)
  probe_inputs : unit -> (Bicolored.t * role) list;
      (** [`main`] instances are the workload's own *)
}

(* Generation time and size since the last reset, which each set-up
   makes; [gen.ns_per_node] is read right after the last set-up. *)
let gen_ns = ref 0
let gen_nodes = ref 0

let generate f =
  let g, ns = timed f in
  gen_ns := !gen_ns + ns;
  gen_nodes := !gen_nodes + Graph.n g;
  g

let all_black g = List.init (Graph.n g) Fun.id
let main_role = { main = true; search = true }

(* --- zoo-conformance --- *)

(* 45 instances x 5 schedulers x 5 seeds = 1125 runs per pass. *)
let zoo_seeds = 5
(* [zoo_verdict_rounds] renumberings of every instance get a verdict.
   Their number is fixed because each leaves its renumbered instance in
   the cache, and the heap must not depend on speed; they are spread over
   the measured loop by time, so that their median samples the whole run
   as the runs' does. *)
let zoo_verdict_rounds = 8

(* The instance under a uniformly random renumbering of its nodes. *)
let relabel rng g black =
  let n = Graph.n g in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let g' =
    Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))
  in
  Bicolored.make g' ~black:(List.map (fun u -> perm.(u)) black)

let zoo_workload seed =
  let build seed =
    let insts = Array.of_list (Campaign.zoo ()) in
    let seeds = List.init zoo_seeds (fun j -> (seed * zoo_seeds) + j) in
    let tasks =
      Array.concat
        (List.init (Array.length insts) (fun i ->
             Array.of_list
               (List.concat_map
                  (fun strat -> List.map (fun s -> (i, strat, s)) seeds)
                  Campaign.strategies)))
    in
    (insts, tasks)
  in
  let describe (insts, tasks) =
    digest
      ( Array.map
          (fun (i : Campaign.instance) -> (i.name, Graph.edges i.graph, i.black))
          insts,
        Array.map (fun (i, (sname, _), s) -> (i, sname, s)) tasks )
  in
  let insts = ref [||] and tasks = ref [||] and expected = ref [||] in
  let bics = ref [||] in
  (* the instances, their task matrix and the reference answer every run
     is checked against *)
  let setup () =
    let (i, t), ns = timed (fun () -> build seed) in
    gen_ns := ns;
    gen_nodes := Array.fold_left (fun a (x : Campaign.instance) -> a + Graph.n x.graph) 0 i;
    insts := i;
    tasks := t;
    bics := Array.map Campaign.bicolored i;
    expected := Array.map Campaign.elect_expected i
  in
  (* A relabelled copy has a numbering this process has never seen, so
     its verdict is cold without clearing the cache the runs read. *)
  let relabel_rng = rng_for seed "zoo-relabel" in
  let verdicts_done = ref 0 in
  let verdicts_total () = zoo_verdict_rounds * Array.length !insts in
  let verdicts s =
    let due = int_of_float (ceil (!progress () *. float (verdicts_total ()))) in
    while !verdicts_done < due do
      let k = !verdicts_done mod Array.length !insts in
      let inst = !insts.(k) in
      let b = relabel relabel_rng inst.graph inst.black in
      attempt ("verdict " ^ inst.name) (fun () ->
          let cls, p = timed_into (cold s inst.name) (fun () -> verdict b) in
          let cls', p' = timed_into (warm s inst.name) (fun () -> verdict b) in
          verdict_consistent cls p && p = p'
          && Classes.num_classes cls = Classes.num_classes cls'
          && (p = Oracle.Solvable) = !expected.(k));
      incr verdicts_done
    done
  in
  let runs s =
    let t0 = now () in
    Array.iter
      (fun (i, strategy, rseed) ->
        let inst = !insts.(i) in
        attempt ("run " ^ inst.Campaign.name) (fun () ->
            let r, ns =
              timed (fun () ->
                  span "campaign.run_one" (fun () ->
                      Campaign.run_one ~strategy ~seed:rseed
                        ~expected_elected:!expected.(i) inst Elect.protocol))
            in
            record_run s ~ns ~r:r.agents ~m:r.edges ~outcome:r.outcome
              ~moves:r.moves ~accesses:r.accesses ~turns:r.turns
              ~engine_ns:r.wall_ns;
            r.conforms && Oracle.agrees r.prediction r.outcome))
      !tasks;
    s.run_phase_ns <- s.run_phase_ns + (now () - t0)
  in
  {
    setup_reps = 15;
    setup;
    built_digest = (fun () -> describe (!insts, !tasks));
    inputs_digest = (fun seed -> describe (build seed));
    (* fill the cache the way a sweep finds it *)
    warm_up = (fun () -> runs (fresh_samples ()));
    complete = (fun () -> !verdicts_done >= verdicts_total ());
    pass =
      (fun s ->
        verdicts s;
        runs s);
    rewind = (fun () -> verdicts_done := 0);
    probe_inputs =
      (fun () -> Array.to_list (Array.map (fun b -> (b, main_role)) !bics));
  }

(* --- elect-ladder --- *)

type ladder_item = {
  lname : string;
  b : Bicolored.t;
  strategy : Engine.strategy;
  rseed : int;
}

let ladder_agents = 3

(* Every pass takes the next round of placements, so the medians
   average over placements rather than repeating one. *)
let ladder_rounds = 32

let ladder_workload seed =
  (* the seed draws the random graphs, every placement and the scheduler
     seeds; the other topologies are fixed *)
  let build seed =
    let rng = rng_for seed "elect-ladder" in
    let fixed =
      List.map
        (fun (name, make) -> (name, generate make))
        [
          ("torus:6x8", fun () -> Families.torus 6 8);
          ("circulant:60:1+5+17", fun () -> Families.circulant 60 [ 1; 5; 17 ]);
          ("ccc:4", fun () -> Families.cube_connected_cycles 4);
          ("hypercube:7", fun () -> Families.hypercube 7);
          ("grid:8x8", fun () -> Families.grid 8 8);
          ("tree:5", fun () -> Families.binary_tree 5);
        ]
    in
    Array.init ladder_rounds (fun _ ->
        (* fresh sparse random graphs every round, like the placements *)
        let random n extra =
          let rseed = Random.State.bits rng in
          ( Printf.sprintf "random:%d+%d" n extra,
            generate (fun () ->
                Families.random_connected ~seed:rseed ~n ~extra_edges:extra) )
        in
        let randoms = [ random 60 30 ] in
        List.map
          (fun (lname, g) ->
            let black = draw_distinct rng ~n:(Graph.n g) ladder_agents in
            let _, strategy =
              List.nth Campaign.strategies
                (Random.State.int rng (List.length Campaign.strategies))
            in
            let rseed = Random.State.int rng 1_000_000 in
            { lname; b = Bicolored.make g ~black; strategy; rseed })
          (fixed @ randoms))
  in
  let describe rounds =
    digest
      (Array.map
         (List.map (fun it ->
              ( it.lname,
                Graph.edges (Bicolored.graph it.b),
                Bicolored.blacks it.b,
                Engine.strategy_name it.strategy,
                it.rseed )))
         rounds)
  in
  let rounds = ref [||] and passes = ref 0 in
  let pass s =
    (* every placement of a pass is new anyway; clearing keeps the heap
       from growing with the number of passes *)
    Cache.clear ();
    let items = !rounds.(!passes mod ladder_rounds) in
    incr passes;
    let t0 = now () in
    List.iter
      (fun it ->
        let predicted = ref None in
        attempt ("verdict " ^ it.lname) (fun () ->
            let cls, p =
              timed_into (cold s it.lname) (fun () -> verdict it.b)
            in
            predicted := Some p;
            let cls', p' =
              timed_into (warm s it.lname) (fun () -> verdict it.b)
            in
            verdict_consistent cls p && p = p'
            && Classes.num_classes cls = Classes.num_classes cls');
        attempt ("run " ^ it.lname) (fun () ->
            let outcome =
              elect_run s ~graph:(Bicolored.graph it.b) ~black:(Bicolored.blacks it.b)
                ~strategy:it.strategy ~seed:it.rseed
            in
            match !predicted with
            | Some p -> Oracle.agrees p outcome
            | None ->
                (* no verdict to compare with: hold the run to
                   Theorem 3.1 alone *)
                let elected = match outcome with Engine.Elected _ -> true | _ -> false in
                (elected || outcome = Engine.Declared_unsolvable)
                && elected = (Oracle.elect_prediction it.b = `Elects)))
      items;
    s.run_phase_ns <- s.run_phase_ns + (now () - t0)
  in
  {
    setup_reps = 21;
    setup =
      (fun () ->
        gen_ns := 0;
        gen_nodes := 0;
        rounds := build seed);
    built_digest = (fun () -> describe !rounds);
    inputs_digest = (fun seed -> describe (build seed));
    warm_up = ignore;
    complete = (fun () -> true);
    pass;
    rewind = (fun () -> passes := 0);
    probe_inputs =
      (fun () -> List.map (fun it -> (it.b, main_role)) !rounds.(0));
  }

(* --- frontier-uniform --- *)

let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

(* [k] distinct jumps in [1, n/2) coprime to [n]. *)
let draw_jumps rng ~n k =
  let rec go acc =
    if List.length acc = k then List.sort compare acc
    else
      let j = 1 + Random.State.int rng ((n / 2) - 1) in
      if gcd j n = 1 && not (List.mem j acc) then go (j :: acc) else go acc
  in
  go []

type fspec = Circulant of int * int list | Torus of int * int | Ccc of int

let fspec_name = function
  | Circulant (n, js) ->
      Printf.sprintf "circulant:%d:%s" n
        (String.concat "+" (List.map string_of_int js))
  | Torus (a, b) -> Printf.sprintf "torus:%dx%d" a b
  | Ccc d -> Printf.sprintf "ccc:%d" d

let fspec_build = function
  | Circulant (n, js) -> (Presentation.circulant n js).Presentation.graph
  | Torus (a, b) ->
      (Presentation.cayley
         (Presentation.product (Presentation.cyclic a) (Presentation.cyclic b))
         [ b; 1 ])
        .Presentation.graph
  | Ccc d -> (Presentation.cube_connected_cycles d).Presentation.graph

(* Largest rung on which the full search is still run as a reference. *)
let slow_check_limit = 4096

type frontier_inputs = {
  big : fspec list;  (** the ≈10⁵-node instances *)
  small : fspec list;  (** self-check rungs, at most [slow_check_limit] nodes *)
  tiny : fspec list;  (** rungs small enough to run ELECT on, one agent per node *)
  tiny_seeds : int array;  (** [tiny_seeds_per_strategy] per scheduler *)
}

(* Enough tiny-rung runs a pass that p99 is not a single run, and that
   the runs fill about a sixth of the pass. *)
let tiny_seeds_per_strategy = 16

let frontier_specs seed =
  let rng = rng_for seed "frontier-uniform" in
  let n = 100_000 in
  let circ = Circulant (n, draw_jumps rng ~n 3) in
  let a = 250 + Random.State.int rng 101 in
  let torus = Torus (a, (90_000 + (a / 2)) / a) in
  let sn = 1024 + Random.State.int rng 1024 in
  let small =
    [
      Circulant (sn, draw_jumps rng ~n:sn 3);
      (let a = 24 + Random.State.int rng 17 in
       Torus (a, 24 + Random.State.int rng 17));
      Ccc 7;
    ]
  in
  let tiny = [ Circulant (11, draw_jumps rng ~n:11 1); Torus (3, 4); Ccc 3 ] in
  let tiny_seeds =
    Array.init (tiny_seeds_per_strategy * List.length Campaign.strategies) (fun _ ->
        Random.State.int rng 1_000_000)
  in
  { big = [ circ; torus; Ccc 13 ]; small; tiny; tiny_seeds }

let frontier_workload seed =
  let spec = frontier_specs seed in
  let big = ref [] and small = ref [] and tiny = ref [] in
  let mk s =
    let g = generate (fun () -> fspec_build s) in
    (fspec_name s, Bicolored.make g ~black:(all_black g))
  in
  let build_all () =
    big := List.map mk spec.big;
    small := List.map mk spec.small;
    tiny := List.map mk spec.tiny
  in
  let describe_spec sp =
    digest
      ( List.map fspec_name (sp.big @ sp.small @ sp.tiny),
        sp.tiny_seeds )
  in
  let check_verdict (cls, p) = p = Oracle.Unsolvable && Classes.num_classes cls = 1 in
  (* ELECT itself only runs on the tiny uniform rungs: every agent must
     report failure. *)
  let tiny_runs s (name, b) =
    let t0 = now () in
    List.iteri
      (fun k (_, strategy) ->
        for j = 0 to tiny_seeds_per_strategy - 1 do
          attempt ("run " ^ name) (fun () ->
              let outcome =
                elect_run s ~graph:(Bicolored.graph b) ~black:(Bicolored.blacks b)
                  ~strategy ~seed:spec.tiny_seeds.((k * tiny_seeds_per_strategy) + j)
              in
              Oracle.agrees Oracle.Unsolvable outcome)
        done)
      Campaign.strategies;
    s.run_phase_ns <- s.run_phase_ns + (now () - t0)
  in
  let pass s =
    (* a cold verdict is on an instance this process has never seen: a
       pass takes the instances built before it and, at its end, builds
       those of the next pass, so every pass does the same work *)
    let instances = !big in
    big := [];
    (* each big instance is followed by the runs on one tiny rung, so the
       runs sample the whole loop rather than one stretch of each pass *)
    List.iter2
      (fun (name, b) rung ->
        Cache.clear ();
        (* start every cold verdict from the same collected heap: single
           samples otherwise swing with the GC's phase *)
        Gc.full_major ();
        attempt ("cold verdict " ^ name) (fun () ->
            check_verdict (timed_into (cold s name) (fun () -> verdict b)));
        attempt ("warm verdict " ^ name) (fun () ->
            check_verdict (timed_into (warm s name) (fun () -> verdict b)));
        (* the runs start on a collected heap too, or the major-GC slices
           of the verdict's garbage land in a few of them *)
        Cache.clear ();
        Gc.full_major ();
        tiny_runs s rung)
      instances !tiny;
    big := span "generate" (fun () -> List.map mk spec.big)
  in
  {
    setup_reps = 3;
    setup =
      (fun () ->
        gen_ns := 0;
        gen_nodes := 0;
        big := [];
        small := [];
        tiny := [];
        Gc.full_major ();
        build_all ());
    built_digest =
      (fun () ->
        digest
          (List.map
             (fun (name, b) -> (name, graph_digest (Bicolored.graph b)))
             (!big @ !small @ !tiny)));
    inputs_digest = (fun seed -> describe_spec (frontier_specs seed));
    warm_up =
      (fun () ->
        (* the fast path must give the partition the full search gives *)
        List.iter
          (fun (name, b) ->
            attempt ("self-check " ^ name) (fun () ->
                let fast = Classes.compute b and slow = Classes.compute_slow b in
                Graph.n (Bicolored.graph b) <= slow_check_limit
                && Classes.used_fast_path fast
                && Classes.num_classes fast = 1
                && Classes.num_classes slow = 1))
          !small);
    complete = (fun () -> true);
    pass;
    rewind = ignore;
    probe_inputs =
      (fun () ->
        List.map (fun (_, b) -> (b, { main = true; search = false })) !big
        @ List.map (fun (_, b) -> (b, { main = false; search = true })) !tiny);
  }

(* ---------- reporting ---------- *)

let metric name value unit = (name, Jsonl.Obj [ ("value", Jsonl.Float value); ("unit", Jsonl.String unit) ])

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end ~setup_s s =
  (* before any statistic allocates *)
  let heap = peak_heap_mb () in
  let run_ms = to_list s.run_ms in
  [
    metric "setup_s" setup_s "s";
    metric "runs_per_s" (float s.runs /. (float s.run_phase_ns /. 1e9)) "1/s";
    metric "run_p50_ms" (median run_ms) "ms";
    metric "run_p99_ms" (quantile 0.99 run_ms) "ms";
    metric "verdict_cold_ms" (median (List.map snd s.cold_ms)) "ms";
    metric "verdict_warm_ms" (median (List.map snd s.warm_ms)) "ms";
    metric "peak_heap_mb" heap "MB";
    metric "moves_per_rE" (s.moves_re /. float s.re_runs) "ratio";
    metric "accesses_per_rE" (s.accesses_re /. float s.re_runs) "ratio";
  ]

(* Self time of a span: its duration minus what its children cover. *)
let rec self_times acc (c : Span.closed) =
  let covered = List.fold_left (fun a (k : Span.closed) -> a + k.dur_ns) 0 c.children in
  let prev = try Hashtbl.find acc c.name with Not_found -> 0 in
  Hashtbl.replace acc c.name (prev + c.dur_ns - covered);
  List.iter (self_times acc) c.children

(* Spans that only group calls; their self time is the benchmark's own
   glue (checks, bookkeeping), i.e. what no layer accounts for. *)
let grouping = [ "pass"; "verdict"; "run" ]

let merged_l1_p50 stats =
  let bounds = Metrics.latency_buckets in
  let counts = Array.make (Array.length bounds + 1) 0 in
  let sum = ref 0 and count = ref 0 and lo = ref max_int and hi = ref 0 in
  List.iter
    (fun (st : Cache.stat) ->
      match st.l1_latency with
      | Metrics.Hist h when h.count > 0 && Array.length h.counts = Array.length counts ->
          Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) h.counts;
          sum := !sum + h.sum;
          count := !count + h.count;
          lo := min !lo h.lo;
          hi := max !hi h.hi
      | _ -> ())
    stats;
  if !count = 0 then 0.
  else
    match
      Metrics.quantile
        (Metrics.Hist { bounds; counts; sum = !sum; count = !count; lo = !lo; hi = !hi })
        0.5
    with
    | Some v -> v
    | None -> 0.

let outcome_key s =
  List.map (fun (o, moves, turns) -> (Engine.outcome_to_string o, moves, turns)) s.outcomes

let per_layer ~gen_ns_per_node ~untraced_ns ~traced_ns ~root (s : samples) stats pr =
  let misses kind =
    List.fold_left
      (fun a (st : Cache.stat) -> if st.kind = kind then a + st.misses else a)
      0 stats
  in
  let total_misses = List.fold_left (fun a (st : Cache.stat) -> a + st.misses) 0 stats in
  let selfs = Hashtbl.create 16 in
  self_times selfs root;
  let glue = List.fold_left (fun a n -> a + (try Hashtbl.find selfs n with Not_found -> 0)) 0 grouping in
  [
    metric "gen.ns_per_node" gen_ns_per_node "ns/node";
    metric "csr.words" (float pr.csr_words) "words";
    metric "cache.exact_key_ms" (median pr.key_ms) "ms";
    metric "cache.key_bytes" (mean (List.map float pr.key_bytes)) "B";
    metric "cache.lookups_per_verdict" (ratio !verdict_lookups !verdicts_seen) "count";
    metric "cache.hit_rate" (Cache.hit_rate stats) "ratio";
    metric "cache.l1_hit_p50_ns" (merged_l1_p50 stats) "ns";
    metric "cache.misses" (float total_misses) "count";
    metric "cache.misses.classes" (float (misses "classes")) "count";
    metric "cache.misses.elect.plan" (float (misses "elect.plan")) "count";
    metric "cache.misses.oracle.predict" (float (misses "oracle.predict")) "count";
    metric "cache.misses.oracle.translation" (float (misses "oracle.translation")) "count";
    metric "cache.misses.oracle.gcd" (float (misses "oracle.gcd")) "count";
    metric "transitive.certify_ms" (median pr.certify_ms) "ms";
    metric "transitive.certified_frac" (ratio pr.certified pr.graphs) "ratio";
    metric "classes.compute_ms" (median pr.classes_ms) "ms";
    metric "classes.fast_path_frac" (ratio pr.fast pr.classes_calls) "ratio";
    metric "cdigraph.embed_ms" (median pr.embed_ms) "ms";
    metric "refine.equitable_ms" (median pr.refine_ms) "ms";
    metric "refine.fixpoints" (ratio pr.fixpoints pr.classes_calls) "count";
    metric "canon.run_ms" (median pr.canon_ms) "ms";
    metric "canon.runs" (ratio pr.canon_runs pr.classes_calls) "count";
    metric "canon.leaves_per_run" (ratio pr.canon_leaves pr.canon_runs) "count";
    metric "cayley_detect.translation_ms" (median pr.translation_ms) "ms";
    metric "cayley_detect.cap_failures" (float pr.cap_failures) "count";
    metric "engine.run_ms" (median (to_list s.engine_ms)) "ms";
    metric "engine.turns" (ratio s.turns s.runs) "count";
    metric "engine.ns_per_turn" (ratio s.engine_ns s.turns) "ns";
    metric "trace.overhead_frac"
      (float (traced_ns - untraced_ns) /. float untraced_ns) "ratio";
    metric "trace.unattributed_frac" (ratio glue root.Span.dur_ns) "ratio";
  ]

(* ---------- main ---------- *)

let usage =
  "qbench --workload {zoo-conformance|elect-ladder|frontier-uniform} --seed N \
   --seconds S --trace {0|1}"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "{0|1} 1: traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match !workload with
    | "zoo-conformance" -> zoo_workload !seed
    | "elect-ladder" -> ladder_workload !seed
    | "frontier-uniform" -> frontier_workload !seed
    | other ->
        Printf.eprintf "unknown workload %S\n%s\n" other usage;
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let d = w.inputs_digest !seed in
  self_check "the same seed gives the same inputs" (d = w.inputs_digest !seed);
  self_check "another seed gives other inputs" (d <> w.inputs_digest (!seed + 1));
  (* set-up, repeated from a cleared cache; every build must be the
     same *)
  let setup_ms = ref [] and built = ref [] in
  Gc.full_major ();
  for _ = 1 to w.setup_reps do
    Cache.clear ();
    let (), ns = timed w.setup in
    setup_ms := ms_of_ns ns :: !setup_ms;
    built := w.built_digest () :: !built
  done;
  let setup_s = median !setup_ms /. 1e3 in
  let gen_ns_per_node = ratio !gen_ns !gen_nodes in
  self_check "every set-up builds the same inputs"
    (List.for_all (( = ) (List.hd !built)) !built);
  w.warm_up ();
  let metrics =
    if !trace = 0 then begin
      let s = fresh_samples () in
      Gc.full_major ();
      let start = now () in
      let deadline = start + (!seconds * 1_000_000_000) in
      progress :=
        (fun () -> Float.min 1. (float (now () - start) /. float (deadline - start)));
      (* whole passes keep the mix of runs fixed; stop at the pass
         boundary nearest the deadline *)
      let passes = ref 0 and last = ref 0 in
      while !passes = 0 || now () + (!last / 2) < deadline || not (w.complete ()) do
        let (), ns = timed (fun () -> w.pass s) in
        last := ns;
        incr passes
      done;
      end_to_end ~setup_s s
    end
    else begin
      (* one untraced pass, then the same pass traced: the difference is
         the tracing overhead, and the two must agree run for run *)
      keep_outcomes := true;
      let s0 = fresh_samples () in
      Gc.full_major ();
      let (), untraced_ns = timed (fun () -> w.pass s0) in
      w.rewind ();
      let t = Span.tracer () in
      tracer := Some t;
      Cache.reset_stats ();
      let s1 = fresh_samples () in
      Gc.full_major ();
      let (), traced_ns =
        timed (fun () -> Span.with_span t "pass" (fun () -> w.pass s1))
      in
      let stats = Cache.stats () in
      let root = List.hd (List.rev (Span.roots t)) in
      self_check "traced and untraced runs agree" (outcome_key s0 = outcome_key s1);
      let pr = probe_all (w.probe_inputs ()) in
      tracer := None;
      let pr' = probe_all (w.probe_inputs ()) in
      self_check "direct calls repeat exactly" (probe_fingerprint pr = probe_fingerprint pr');
      let out = Filename.concat "perfbench" "out" in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      Qe_obs.Chrome.write_file
        (Filename.concat out (Printf.sprintf "%s-seed%d.json" !workload !seed))
        (List.map (fun c -> Qe_obs.Export.Span_tree c) (Span.roots t));
      per_layer ~gen_ns_per_node ~untraced_ns ~traced_ns ~root s1 stats pr
    end
  in
  let correct = tally.wrong = 0 in
  Hashtbl.iter (fun msg c -> Printf.eprintf "%d x %s\n" c msg) tally.errors;
  Printf.printf "%s\n"
    (Jsonl.to_string
       (Jsonl.Obj
          [
            ("workload", Jsonl.String !workload);
            ("seed", Jsonl.Int !seed);
            ("fail_frac", Jsonl.Float (ratio tally.failed tally.attempted));
          ]));
  Printf.printf "%s\n%!"
    (Jsonl.to_string
       (Jsonl.Obj
          [
            ("correct", Jsonl.Bool correct);
            ("attempted", Jsonl.Int tally.attempted);
            ("failed", Jsonl.Int tally.failed);
            ("metrics", Jsonl.Obj metrics);
          ]))
