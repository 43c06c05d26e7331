(* The symmetry artifact cache (Qe_symmetry.Artifact_cache).

   Contracts under test:
   - keys: exact keys are numbering-sensitive, canonical fingerprints are
     numbering-blind (equal exactly on isomorphic instances);
   - memo: one computation per key, exceptions cached and re-raised,
     per-kind stats;
   - single-flight: 8 domains racing one cold key produce exactly one
     miss and one execution of the thunk;
   - accounting: on 1-4 domains every call is one hit or one miss, the
     misses are the distinct keys, and every hit is timed;
   - transparency: sweeps with the cache on and off produce the same
     records, and observed sweeps the same metric snapshots modulo the
     cache.* counters, at -j 1 and -j 4 — also after a warm-up with no
     listener, which stores no metric delta and leaves the observed
     sweep the hit and miss counts an observed warm-up does;
   - satellite regressions: Oracle.predict computes the classes exactly
     once (the classes.compute call-count metric) and counts the test
     that decided its verdict, and Elect plans carry a node_class index
     consistent with the class lists. *)

module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored
module Families = Qe_graph.Families
module Engine = Qe_runtime.Engine
module Campaign = Qe_elect.Campaign
module Oracle = Qe_elect.Oracle
module Elect = Qe_elect.Elect
module Cache = Qe_symmetry.Artifact_cache
module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink

let elect = Qe_elect.Elect.protocol

(* the whole binary runs with the cache in whatever state earlier tests
   left it; every test that toggles the switch restores it *)
let with_cache_enabled on f =
  let before = Cache.enabled () in
  Cache.set_enabled on;
  Fun.protect ~finally:(fun () -> Cache.set_enabled before) f

let latency_count (s : Cache.stat) =
  match s.Cache.l1_latency with Metrics.Hist { count; _ } -> count | _ -> -1

let stat_of kind =
  match List.find_opt (fun s -> s.Cache.kind = kind) (Cache.stats ()) with
  | Some s -> s
  | None -> Alcotest.failf "no stats row for kind %s" kind

(* ---------- keys ---------- *)

(* C6 under a shuffled numbering: same abstract instance, different
   identity certificate *)
let c6_antipodal () = Bicolored.make (Families.cycle 6) ~black:[ 0; 3 ]

let c6_antipodal_relabeled () =
  let p = [| 3; 1; 4; 0; 5; 2 |] in
  let edges = List.init 6 (fun i -> (p.(i), p.((i + 1) mod 6))) in
  Bicolored.make (Graph.of_edges ~n:6 edges) ~black:[ p.(0); p.(3) ]

let test_keys () =
  let b = c6_antipodal () and b' = c6_antipodal_relabeled () in
  Alcotest.(check bool)
    "exact keys are numbering-sensitive" false
    (Cache.exact_key b = Cache.exact_key b');
  Alcotest.(check string) "fingerprints are numbering-blind"
    (Cache.fingerprint b) (Cache.fingerprint b');
  let adjacent = Bicolored.make (Families.cycle 6) ~black:[ 0; 1 ] in
  Alcotest.(check bool)
    "different placements, different fingerprints" false
    (Cache.fingerprint b = Cache.fingerprint adjacent);
  Alcotest.(check bool)
    "exact_key is cheap and deterministic" true
    (Cache.exact_key b = Cache.exact_key (c6_antipodal ()))

(* The structural identity must have exactly the exact key's semantics:
   numbering- and placement-sensitive, blind to port order and edge ids.
   Each case pairs a random small instance with a seeded renumbering
   (node permutation, shuffled edge order, swapped endpoints — often the
   identity or an automorphism on these sizes), a recolouring, or a
   copy with only its ports reshuffled. *)
let random_instance rng =
  let n = 1 + Random.State.int rng 5 in
  let edges =
    List.init (Random.State.int rng 8) (fun _ ->
        (Random.State.int rng n, Random.State.int rng n))
  in
  let black = List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id) in
  (n, edges, if black = [] then [ Random.State.int rng n ] else black)

let shuffle rng l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))

let renumber rng ~identity (n, edges, black) =
  let perm =
    if identity then Array.init n Fun.id
    else Array.of_list (shuffle rng (List.init n Fun.id))
  in
  let edges =
    shuffle rng
      (List.map
         (fun (u, v) ->
           if Random.State.bool rng then (perm.(v), perm.(u))
           else (perm.(u), perm.(v)))
         edges)
  in
  (n, edges, List.map (fun u -> perm.(u)) black)

let recolour rng (n, edges, _) =
  let black = List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id) in
  (n, edges, if black = [] then [ 0 ] else black)

let build (n, edges, black) = Bicolored.make (Graph.of_edges ~n edges) ~black

let prop_key_matches_exact_key =
  QCheck.Test.make ~name:"identity equal iff exact_key equal" ~count:500
    QCheck.(pair (int_bound 2) (int_bound 1_000_000))
    (fun (variant, seed) ->
      let rng = Random.State.make [| seed |] in
      let spec = random_instance rng in
      let spec' =
        match variant with
        | 0 -> renumber rng ~identity:false spec
        | 1 -> renumber rng ~identity:true spec
        | _ -> recolour rng spec
      in
      let a = build spec and b = build spec' in
      let ka = Cache.key_of_bicolored a and kb = Cache.key_of_bicolored b in
      let same = Cache.exact_key a = Cache.exact_key b in
      Cache.Key.equal ka kb = same
      && Cache.Key.equal kb ka = same
      && ((not same) || Cache.Key.hash ka = Cache.Key.hash kb)
      && Cache.Key.equal ka (Cache.key_of_bicolored a))

(* The hash only picks a bucket: under a hash that sends every key to
   one bucket, equality alone must still keep distinct instances in
   distinct entries. The set includes pairs that differ only in
   adjacency (the two antipodal C6 numberings: same degrees, same
   colours) and only in colours (C6 with different placements). *)
module Colliding = Hashtbl.Make (struct
  type t = Cache.key

  let equal = Cache.Key.equal
  let hash _ = 0
end)

let test_forced_collisions () =
  let cycle6 black = Bicolored.make (Families.cycle 6) ~black in
  let instances =
    [
      c6_antipodal ();
      c6_antipodal_relabeled ();
      cycle6 [ 0; 1 ];
      cycle6 [ 0 ];
      cycle6 (List.init 6 Fun.id);
      Bicolored.make (Families.path 6) ~black:[ 0; 3 ];
      Bicolored.make (Families.star 5) ~black:[ 0; 3 ];
      Bicolored.make (Families.complete 4) ~black:[ 0 ];
      Bicolored.make (Families.cycle 4) ~black:[ 0 ];
    ]
  in
  let exact = List.map Cache.exact_key instances in
  Alcotest.(check int) "the instances are pairwise distinct"
    (List.length instances)
    (List.length (List.sort_uniq compare exact));
  let tbl = Colliding.create 8 in
  List.iteri
    (fun i b -> Colliding.replace tbl (Cache.key_of_bicolored b) i)
    instances;
  (* bare-graph keys never meet instance keys either *)
  Colliding.replace tbl (Cache.key_of_graph (Families.cycle 6)) (-1);
  Alcotest.(check int) "one entry per instance" (List.length instances + 1)
    (Colliding.length tbl);
  List.iteri
    (fun i b ->
      Alcotest.(check int)
        (Printf.sprintf "instance %d finds its own entry" i)
        i
        (Colliding.find tbl (Cache.key_of_bicolored b)))
    instances;
  (* a fresh structurally equal copy lands on the existing entry *)
  Colliding.replace tbl (Cache.key_of_bicolored (c6_antipodal ())) 100;
  Alcotest.(check int) "equal copy replaces, never adds"
    (List.length instances + 1)
    (Colliding.length tbl);
  Alcotest.(check int) "and is found by the original" 100
    (Colliding.find tbl (Cache.key_of_bicolored (List.hd instances)))

(* Eight domains ask for the identity of one shared instance that nobody
   has keyed yet: the memos race, and every domain must come back with
   the same identity — equal to that of an independently built copy. *)
let test_identity_hammer () =
  let build () =
    let g = (Qe_group.Presentation.circulant 10_000 [ 1; 3; 9 ]).graph in
    Bicolored.make g ~black:[ 0; 17; 4_242 ]
  in
  let shared = build () in
  let domains = 8 in
  let arrivals = Atomic.make 0 in
  let body () =
    Atomic.incr arrivals;
    while Atomic.get arrivals < domains do
      Domain.cpu_relax ()
    done;
    Cache.key_of_bicolored shared
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn body) in
  let mine = body () in
  let keys = mine :: List.map Domain.join ds in
  let reference = Cache.key_of_bicolored (build ()) in
  List.iteri
    (fun i k ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d: identity equals an independent copy's" i)
        true
        (Cache.Key.equal k reference
        && Cache.Key.hash k = Cache.Key.hash reference))
    keys

(* ---------- memo basics ---------- *)

(* Small fixed instances whose identities serve as memo keys; each call
   builds a fresh instance, so hits are found by structure, not by
   physical identity. *)
let key_a () = Cache.key_of_bicolored (Bicolored.make (Families.cycle 3) ~black:[ 0 ])

let key_bb () =
  Cache.key_of_bicolored (Bicolored.make (Families.cycle 3) ~black:[ 0; 1 ])

let basic_tbl : int Cache.table = Cache.create_table ~kind:"test.basic" ()

let test_memo_basics () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let computes = ref 0 in
  let get (k, v) =
    Cache.memo basic_tbl ~key:(k ()) (fun () ->
        incr computes;
        v)
  in
  let a = (key_a, 1) and bb = (key_bb, 2) in
  Alcotest.(check int) "first call computes" 1 (get a);
  Alcotest.(check int) "second call hits" 1 (get a);
  Alcotest.(check int) "distinct key computes" 2 (get bb);
  Alcotest.(check int) "one compute per key" 2 !computes;
  let s = stat_of "test.basic" in
  Alcotest.(check int) "misses" 2 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits;
  Cache.clear ();
  Alcotest.(check int) "clear drops entries" 1 (get a);
  Alcotest.(check int) "recompute after clear" 3 !computes;
  Alcotest.(check bool) "duplicate kind rejected" true
    (try
       ignore (Cache.create_table ~kind:"test.basic" () : int Cache.table);
       false
     with Invalid_argument _ -> true)

let test_disabled_bypasses () =
  with_cache_enabled false @@ fun () ->
  Cache.reset_stats ();
  let computes = ref 0 in
  let get () =
    Cache.memo basic_tbl ~key:(key_a ()) (fun () ->
        incr computes;
        0)
  in
  ignore (get ());
  ignore (get ());
  Alcotest.(check int) "disabled cache recomputes every call" 2 !computes;
  let s = stat_of "test.basic" in
  Alcotest.(check int) "no hits while disabled" 0 s.Cache.hits;
  Alcotest.(check int) "no misses while disabled" 0 s.Cache.misses

exception Boom

let err_tbl : unit Cache.table = Cache.create_table ~kind:"test.error" ()

let test_exception_caching () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let computes = ref 0 in
  let get () =
    Cache.memo err_tbl ~key:(key_a ()) (fun () ->
        incr computes;
        raise Boom)
  in
  Alcotest.check_raises "first call raises" Boom get;
  Alcotest.check_raises "hit re-raises the cached exception" Boom get;
  Alcotest.(check int) "the failing thunk ran once" 1 !computes

(* ---------- single-flight across domains ---------- *)

let hammer_tbl : int Cache.table = Cache.create_table ~kind:"test.hammer" ()

let test_single_flight_hammer () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let domains = 8 in
  let arrivals = Atomic.make 0 in
  let computes = Atomic.make 0 in
  let body () =
    (* every domain announces itself before calling memo, and the one
       that wins the flight spins until all have: the other seven are
       guaranteed to resolve this key while it is in flight or already
       published — never by computing it themselves *)
    Atomic.incr arrivals;
    Cache.memo hammer_tbl ~key:(key_a ()) (fun () ->
        Atomic.incr computes;
        while Atomic.get arrivals < domains do
          Domain.cpu_relax ()
        done;
        42)
  in
  let ds = List.init (domains - 1) (fun _ -> Domain.spawn body) in
  let mine = body () in
  let vals = mine :: List.map Domain.join ds in
  Alcotest.(check (list int))
    "every domain sees the one computed value"
    (List.init domains (fun _ -> 42))
    vals;
  Alcotest.(check int) "the thunk ran exactly once" 1 (Atomic.get computes);
  let s = stat_of "test.hammer" in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "seven hits" (domains - 1) s.Cache.hits;
  Alcotest.(check bool)
    "waits within [0, 7]" true
    (s.Cache.single_flight_waits >= 0
    && s.Cache.single_flight_waits <= domains - 1);
  Alcotest.(check int) "every hit is timed" (domains - 1) (latency_count s)

(* ---------- coherence across domains ---------- *)

let coherence_tbl : int Cache.table =
  Cache.create_table ~kind:"test.coherence" ()

let test_l1_coherence () =
  (* a value computed by one domain must be observed — never recomputed —
     by another, and [clear] must reach every domain. Every count below
     is deterministic:
       caller: compute (miss)            -> misses = 1
       worker: lookups 1,2,3 = hits      -> hits += 3
       caller: lookup        = hit       -> hits += 1 *)
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  Cache.reset_stats ();
  let computes = Atomic.make 0 in
  let get () =
    Cache.memo coherence_tbl ~key:(key_a ()) (fun () ->
        Atomic.incr computes;
        1729)
  in
  Alcotest.(check int) "caller computes" 1729 (get ());
  let worker = Domain.spawn (fun () -> (get (), get (), get ())) in
  let a, b, c = Domain.join worker in
  Alcotest.(check (list int))
    "other domain observes the published value"
    [ 1729; 1729; 1729 ] [ a; b; c ];
  Alcotest.(check int) "caller still warm" 1729 (get ());
  Alcotest.(check int) "the thunk ran exactly once" 1 (Atomic.get computes);
  let s = stat_of "test.coherence" in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "four hits" 4 s.Cache.hits;
  Cache.clear ();
  Alcotest.(check int) "recompute after clear" 1729 (get ());
  Alcotest.(check int) "clear reached the caller's entry" 2
    (Atomic.get computes)

(* ---------- exact accounting across domains ---------- *)

let accounting_tbl : int Cache.table =
  Cache.create_table ~kind:"test.accounting" ()

(* K keys, 1-4 domains, each replaying its own seeded index sequence:
   every call is exactly one hit or one miss (a single-flight waiter
   counts as the hit it ends in), every miss runs the thunk once per
   distinct key, and every hit lands in the latency histogram. *)
let prop_exact_accounting =
  QCheck.Test.make ~name:"exact accounting across 1-4 domains" ~count:20
    QCheck.(triple (int_range 1 4) (int_range 1 8) (int_bound 1_000_000))
    (fun (domains, k, seed) ->
      with_cache_enabled true @@ fun () ->
      Cache.clear ();
      Cache.reset_stats ();
      let rng = Random.State.make [| seed |] in
      let keys =
        Array.init k (fun i ->
            Cache.key_of_bicolored
              (Bicolored.make (Families.cycle (3 + i)) ~black:[ 0 ]))
      in
      let calls = 40 in
      let seqs =
        Array.init domains (fun _ ->
            Array.init calls (fun _ -> Random.State.int rng k))
      in
      let runs = Atomic.make 0 in
      let body seq () =
        Array.for_all
          (fun i ->
            Cache.memo accounting_tbl ~key:keys.(i) (fun () ->
                Atomic.incr runs;
                i)
            = i)
          seq
      in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (body seqs.(d + 1)))
      in
      let mine = body seqs.(0) () in
      let values_ok = List.for_all Domain.join spawned && mine in
      let distinct =
        List.length
          (List.sort_uniq compare (List.concat_map Array.to_list (Array.to_list seqs)))
      in
      let s = stat_of "test.accounting" in
      let leveled name =
        List.exists
          (fun c -> c = "l1" || c = "l2")
          (String.split_on_char '.' name)
      in
      values_ok
      && s.Cache.hits + s.Cache.misses = domains * calls
      && s.Cache.misses = distinct
      && Atomic.get runs = distinct
      && latency_count s = s.Cache.hits
      && not (List.exists (fun (n, _) -> leveled n) (Cache.metrics_snapshot ())))

(* ---------- differential: cached vs --no-cache sweeps ---------- *)

let small_zoo () =
  List.filter
    (fun i ->
      List.mem i.Campaign.name
        [ "C5/adjacent"; "path4/asym"; "star3/leaves"; "K4/pair" ])
    (Campaign.zoo ())

let two_strategies =
  [ ("random", Engine.Random_fair 0); ("synchronous", Engine.Synchronous) ]

(* id-free normal form: everything except wall_ns and mint ids *)
let norm (r : Campaign.record) =
  ( ( r.Campaign.inst.Campaign.name,
      r.Campaign.strategy_name,
      r.Campaign.seed ),
    ( Engine.outcome_to_string r.Campaign.outcome,
      r.Campaign.elected,
      r.Campaign.conforms,
      r.Campaign.gcd ),
    (r.Campaign.moves, r.Campaign.accesses, r.Campaign.turns) )

let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

let prop_sweep_differential =
  QCheck.Test.make ~name:"cached sweep = --no-cache sweep (-j 1/4)" ~count:3
    QCheck.(pair (int_bound 1_000) (oneofl [ 1; 4 ]))
    (fun (seed, jobs) ->
      let seeds = [ seed; seed + 1 ] in
      let go () =
        Campaign.sweep ~seeds ~strategies:two_strategies ~jobs
          ~expected:Campaign.elect_expected elect (small_zoo ())
        |> fst
        |> List.filter_map (fun r -> Option.map norm r.Campaign.s_record)
      in
      let cached = with_cache_enabled true go in
      let uncached = with_cache_enabled false go in
      cached = uncached)

(* [sweep ~live] into the CLI's mutex-guarded merge accumulator, one
   sweep per instance: records, per-instance snapshots (latency
   stripped — wall clock) and their merged total *)
let observed_per_instance jobs =
  let per =
    List.map
      (fun inst ->
        let acc = ref [] and m = Mutex.create () in
        let push snap =
          Mutex.lock m;
          acc := Qe_obs.Metrics.merge !acc snap;
          Mutex.unlock m
        in
        let rows, _ =
          Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies ~jobs
            ~live:push ~expected:Campaign.elect_expected elect [ inst ]
        in
        ( List.filter_map (fun r -> r.Campaign.s_record) rows,
          ( inst.Campaign.name,
            List.filter
              (fun (name, _) -> not (Qe_obs.Metrics.is_latency name))
              !acc ) ))
      (small_zoo ())
  in
  ( List.concat_map fst per,
    List.map snd per,
    List.fold_left
      (fun acc (_, (_, s)) -> Qe_obs.Metrics.merge acc s)
      [] per )

let test_observed_sweep_differential () =
  List.iter
    (fun jobs ->
      let observe cache =
        with_cache_enabled cache (fun () -> observed_per_instance jobs)
      in
      let rc, pc, tc = observe true in
      let ru, pu, tu = observe false in
      Alcotest.(check bool)
        (Printf.sprintf "same records at -j %d" jobs)
        true
        (List.map norm rc = List.map norm ru);
      Alcotest.(check bool)
        (Printf.sprintf "uncached snapshots carry no cache.* (-j %d)" jobs)
        true
        (List.for_all (fun (_, s) -> strip_cache s = s) pu);
      (* the cached run's snapshots must be the uncached ones plus only
         cache.* counters: metric-delta replay hides the memoization *)
      Alcotest.(check bool)
        (Printf.sprintf "same per-instance snapshots modulo cache.* (-j %d)"
           jobs)
        true
        (List.map (fun (k, s) -> (k, strip_cache s)) pc = pu);
      Alcotest.(check bool)
        (Printf.sprintf "same merged total modulo cache.* (-j %d)" jobs)
        true
        (strip_cache tc = tu))
    [ 1; 4 ]

(* the checks of [test_observed_sweep_differential], on a cached run
   and an uncached one *)
let check_same_observed jobs (rc, pc, tc) (ru, pu, tu) =
  Alcotest.(check bool)
    (Printf.sprintf "same records at -j %d" jobs)
    true
    (List.map norm rc = List.map norm ru);
  Alcotest.(check bool)
    (Printf.sprintf "same per-instance snapshots modulo cache.* (-j %d)" jobs)
    true
    (List.map (fun (k, s) -> (k, strip_cache s)) pc = pu);
  Alcotest.(check bool)
    (Printf.sprintf "same merged total modulo cache.* (-j %d)" jobs)
    true
    (strip_cache tc = tu)

(* A warm-up with no listener stores no metric deltas; an observed sweep
   after it must still read exactly what an uncached one does, modulo
   cache.*, and count exactly the hits and misses it counts after an
   observed warm-up: the first listening hit on each entry recomputes
   its delta with nested lookups kept off the tables. *)
let warmed_then_observed ~observed jobs =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  if observed then ignore (observed_per_instance jobs)
  else
    ignore
      (Campaign.sweep ~seeds:[ 0; 1 ] ~strategies:two_strategies ~jobs
         ~expected:Campaign.elect_expected elect (small_zoo ()));
  Cache.reset_stats ();
  let r = observed_per_instance jobs in
  ( r,
    List.map (fun s -> (s.Cache.kind, s.Cache.hits, s.Cache.misses))
      (Cache.stats ()) )

let test_unobserved_warm_up () =
  List.iter
    (fun jobs ->
      let cached, counts = warmed_then_observed ~observed:false jobs in
      let _, observed_counts = warmed_then_observed ~observed:true jobs in
      check_same_observed jobs cached
        (with_cache_enabled false (fun () -> observed_per_instance jobs));
      Alcotest.(check (list (triple string int int)))
        (Printf.sprintf "hits and misses as after an observed warm-up (-j %d)"
           jobs)
        observed_counts counts)
    [ 1; 4 ]

let test_chaos_differential () =
  let go () =
    let r, _ =
      Campaign.chaos_sweep ~seeds:1 ~strategies:two_strategies ~jobs:2
        ~expected:Campaign.elect_expected elect (small_zoo ())
    in
    ( List.map
        (fun (c : Campaign.chaos_record) ->
          ( c.Campaign.c_inst.Campaign.name,
            c.Campaign.c_strategy,
            c.Campaign.c_plan_kind,
            Engine.outcome_to_string c.Campaign.c_outcome,
            c.Campaign.c_leaders,
            c.Campaign.c_turns,
            List.length c.Campaign.c_violations ))
        r.Campaign.c_records,
      r.Campaign.c_outcomes,
      r.Campaign.c_faults_fired )
  in
  let cached = with_cache_enabled true go in
  let uncached = with_cache_enabled false go in
  Alcotest.(check bool) "chaos campaign unchanged by the cache" true
    (cached = uncached)

(* ---------- satellite regressions ---------- *)

(* Oracle.predict must compute the equivalence classes exactly once —
   the classes.compute counter is bumped by Classes.compute itself and
   (on hits) replayed by the cache, so it counts logical computations
   either way *)
let counted name f =
  let sink = Sink.create () in
  Sink.with_ambient sink f;
  match Metrics.find (Metrics.snapshot sink.Sink.metrics) name with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let classes_computes = counted "classes.compute"

let test_predict_computes_classes_once () =
  let b = Bicolored.make (Families.wheel 6) ~black:[ 0; 2; 4 ] in
  with_cache_enabled false (fun () ->
      Alcotest.(check int) "uncached predict: one classes.compute" 1
        (classes_computes (fun () -> ignore (Oracle.predict b))));
  with_cache_enabled true (fun () ->
      Cache.clear ();
      Alcotest.(check int) "cold predict: one classes.compute" 1
        (classes_computes (fun () -> ignore (Oracle.predict b)));
      Alcotest.(check int) "warm predict replays the same single count" 1
        (classes_computes (fun () -> ignore (Oracle.predict b))))

(* Oracle.predict names the test that decided its verdict; a gcd = 1
   placement is decided by the gcd, once per logical call, whether the
   verdict is computed, cached cold or replayed warm *)
let test_predict_counts_deciding_test () =
  let b = Bicolored.make (Families.cycle 5) ~black:[ 0; 1 ] in
  let deciders () =
    List.map
      (fun by ->
        counted ("oracle.predict." ^ by) (fun () -> ignore (Oracle.predict b)))
      [ "witness"; "gcd"; "search" ]
  in
  let expect what = Alcotest.(check (list int)) what [ 0; 1; 0 ] in
  with_cache_enabled false (fun () -> expect "uncached" (deciders ()));
  with_cache_enabled true (fun () ->
      Cache.clear ();
      expect "cold: gcd decides once" (deciders ());
      expect "warm: the hit replays it" (deciders ()))

let test_plan_node_class () =
  List.iter
    (fun (i : Campaign.instance) ->
      let b = Campaign.bicolored i in
      let plan = Elect.make_plan b in
      let n = Graph.n i.Campaign.graph in
      Alcotest.(check int)
        (i.Campaign.name ^ ": node_class covers every node")
        n
        (Array.length plan.Elect.node_class);
      Array.iteri
        (fun u c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: node %d in classes.(%d)" i.Campaign.name u c)
            true
            (List.mem u (List.nth plan.Elect.classes c)))
        plan.Elect.node_class)
    (small_zoo ())

(* The instance under a seeded renumbering of its nodes: an identity
   the cache has never seen. *)
let renumbered rng (i : Campaign.instance) =
  let n = Graph.n i.Campaign.graph in
  let p = Array.of_list (shuffle rng (List.init n Fun.id)) in
  Bicolored.make
    (Graph.of_edges ~n
       (List.map (fun (u, v) -> (p.(u), p.(v))) (Graph.edges i.Campaign.graph)))
    ~black:(List.map (fun u -> p.(u)) i.Campaign.black)

(* A cold verdict with nothing listening keeps its values and keys in
   the cache, but no metric delta beside them. *)
let test_no_listener_keeps_no_delta () =
  with_cache_enabled true @@ fun () ->
  Cache.clear ();
  let zoo = Array.of_list (Campaign.zoo ()) in
  let rng = Random.State.make [| 31 |] in
  let verdicts = 360 in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for k = 0 to verdicts - 1 do
    let b = renumbered rng zoo.(k mod Array.length zoo) in
    ignore (Cache.classes b : Qe_symmetry.Classes.t);
    ignore (Oracle.predict b : Oracle.prediction)
  done;
  let per_verdict = (live () - before) / verdicts in
  if per_verdict > 200 then
    Alcotest.failf "%d live words per cold verdict (at most 200)" per_verdict

(* every cache miss is computed under a [cache.compute] span on the
   caller's tracer: an ELECT run on a fresh cache shows each agent's
   plan inside [engine.run] *)
let test_miss_spans () =
  let g = Families.circulant 300 [ 1; 3; 9 ] in
  let world = Qe_runtime.World.make g ~black:[ 0; 1; 5 ] in
  let sink = Sink.create () in
  with_cache_enabled true (fun () ->
      Cache.clear ();
      ignore
        (Sink.with_ambient sink (fun () -> Engine.run ~obs:sink world elect)));
  let rec count (c : Qe_obs.Span.closed) =
    List.fold_left
      (fun acc child -> acc + count child)
      (if
         c.name = "cache.compute"
         && List.assoc_opt "kind" c.attrs
            = Some (Qe_obs.Jsonl.String "elect.plan")
       then 1
       else 0)
      c.children
  in
  match Qe_obs.Span.roots sink.Sink.spans with
  | [ root ] ->
      Alcotest.(check string) "root" "engine.run" root.name;
      Alcotest.(check int) "one plan span per agent" 3 (count root)
  | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)

let () =
  Alcotest.run "cache"
    [
      ( "keys",
        [
          Alcotest.test_case "exact vs fingerprint" `Quick test_keys;
          QCheck_alcotest.to_alcotest prop_key_matches_exact_key;
          Alcotest.test_case "forced hash collisions" `Quick
            test_forced_collisions;
          Alcotest.test_case "identity hammer (8 domains)" `Quick
            test_identity_hammer;
        ] );
      ( "memo",
        [
          Alcotest.test_case "basics + stats" `Quick test_memo_basics;
          Alcotest.test_case "disabled bypass" `Quick test_disabled_bypasses;
          Alcotest.test_case "exception caching" `Quick test_exception_caching;
          Alcotest.test_case "single-flight hammer (8 domains)" `Quick
            test_single_flight_hammer;
          Alcotest.test_case "L1 coherence across domains" `Quick
            test_l1_coherence;
          QCheck_alcotest.to_alcotest prop_exact_accounting;
          Alcotest.test_case "no listener keeps no delta" `Quick
            test_no_listener_keeps_no_delta;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_sweep_differential;
          Alcotest.test_case "observed_sweep modulo cache.*" `Quick
            test_observed_sweep_differential;
          Alcotest.test_case "unobserved warm-up, observed replay" `Quick
            test_unobserved_warm_up;
          Alcotest.test_case "chaos_sweep" `Quick test_chaos_differential;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "predict computes classes once" `Quick
            test_predict_computes_classes_once;
          Alcotest.test_case "predict counts its deciding test" `Quick
            test_predict_counts_deciding_test;
          Alcotest.test_case "plan node_class index" `Quick
            test_plan_node_class;
          Alcotest.test_case "miss spans under engine.run" `Quick
            test_miss_spans;
        ] );
    ]
