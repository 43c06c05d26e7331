module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl
module Graph = Qe_graph.Graph
module Bicolored = Qe_graph.Bicolored

(* ---------- global switch ---------- *)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---------- sink plumbing ---------- *)

let bump name =
  match Sink.ambient () with
  | None -> ()
  | Some s -> Metrics.incr (Metrics.counter s.Sink.metrics name)

let replay delta =
  if delta <> [] then
    match Sink.ambient () with
    | None -> ()
    | Some s -> Metrics.apply s.Sink.metrics delta

(* Stored deltas must never carry cache counters: a nested memo records
   its own cache.hit/miss into the outer computation's scratch sink, and
   replaying those on every outer hit would double-count them. *)
let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

(* ---------- domain-private latency tallies ---------- *)

(* Hit latencies are tallied whether or not a sink is installed, so
   `--stats` and the scrape endpoint can quote quantiles for any run.
   Like the L1 hit cells, each domain owns a private tally (plain
   mutable fields, no sharing on the hot path); stats pool them with
   the same tolerance for racy reads as every other cache counter. *)
type lhist = {
  lh_counts : int array;  (* length = |latency_buckets| + 1 *)
  mutable lh_sum : int;
  mutable lh_count : int;
  mutable lh_lo : int;
  mutable lh_hi : int;
}

let lhist () =
  {
    lh_counts = Array.make (Array.length Metrics.latency_buckets + 1) 0;
    lh_sum = 0;
    lh_count = 0;
    lh_lo = 0;
    lh_hi = 0;
  }

let lh_observe lh v =
  let bounds = Metrics.latency_buckets in
  let nb = Array.length bounds in
  let idx =
    if v > bounds.(nb - 1) then nb
    else begin
      let lo = ref 0 and hi = ref (nb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if bounds.(mid) < v then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  in
  lh.lh_counts.(idx) <- lh.lh_counts.(idx) + 1;
  lh.lh_sum <- lh.lh_sum + v;
  if lh.lh_count = 0 then begin
    lh.lh_lo <- v;
    lh.lh_hi <- v
  end
  else begin
    if v < lh.lh_lo then lh.lh_lo <- v;
    if v > lh.lh_hi then lh.lh_hi <- v
  end;
  lh.lh_count <- lh.lh_count + 1

let lh_reset lh =
  Array.fill lh.lh_counts 0 (Array.length lh.lh_counts) 0;
  lh.lh_sum <- 0;
  lh.lh_count <- 0;
  lh.lh_lo <- 0;
  lh.lh_hi <- 0

let lh_sample lh =
  Metrics.Hist
    {
      bounds = Array.copy Metrics.latency_buckets;
      counts = Array.copy lh.lh_counts;
      sum = lh.lh_sum;
      count = lh.lh_count;
      lo = lh.lh_lo;
      hi = lh.lh_hi;
    }

(* pooled read across domains' private tallies *)
let lh_pool samples =
  List.fold_left
    (fun acc lh -> Metrics.merge acc [ ("h", lh_sample lh) ])
    [ ("h", lh_sample (lhist ())) ]
    samples
  |> fun merged ->
  match merged with [ (_, s) ] -> s | _ -> assert false

(* ---------- keys ---------- *)

(* The identity arrays are the instance's own memoized ones, so a key
   retains a few flat arrays shared by every table, never a string of
   its own; [colors] is [[||]] for a bare graph. *)
type key = {
  hash : int;
  off : int array;
  adj : int array;
  colors : bool array;
}

module Key = struct
  type t = key

  (* Physical equality first (the same instance asking again), then the
     arrays themselves — never the hash, which only picks the bucket: a
     collision costs one comparison and can never serve another
     instance's value. *)
  let equal a b =
    a == b
    || Array.length a.off = Array.length b.off
       && (a.colors == b.colors || a.colors = b.colors)
       && (a.off == b.off || a.off = b.off)
       && (a.adj == b.adj || a.adj = b.adj)

  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

let make_key g ~hash ~colors =
  {
    hash;
    off = (Graph.csr g).Qe_graph.Csr.off;
    adj = Graph.sorted_neighbors g;
    colors;
  }

let key_of_graph g = make_key g ~hash:(Graph.structure_hash g) ~colors:[||]

let key_of_bicolored b =
  make_key (Bicolored.graph b) ~hash:(Bicolored.identity_hash b)
    ~colors:(Bicolored.black_array b)

(* ---------- sharded single-flight tables ---------- *)

let num_shards = 32 (* power of two: shard = hash land (num_shards - 1) *)

(* Bumped by [clear]; every per-domain L1 checks it on entry and flushes
   lazily on mismatch, so [clear] never has to reach into other domains'
   local state. *)
let generation = Atomic.make 0

type 'a entry =
  | Ready of ('a, exn) result * Metrics.snapshot
      (** value (or deterministic failure) + the kernel-metric delta its
          computation recorded, replayed on every lookup *)
  | In_flight of flight

and flight = {
  fl_m : Mutex.t;
  fl_cv : Condition.t;
  mutable fl_done : bool;
}

type 'a shard = { m : Mutex.t; tbl : 'a entry Tbl.t }

(* Domain-local first level: a plain hashtable of settled entries, no
   mutex anywhere on its path. Populated from L2 hits and own computes;
   never holds an In_flight. [l1_hits] is this domain's private cell,
   registered in the owning table so stats can pool across domains
   without putting a shared counter on the hot path. *)
type 'a l1 = {
  mutable l1_gen : int;
  l1_tbl : (('a, exn) result * Metrics.snapshot) Tbl.t;
  l1_hits : int Atomic.t;
  l1_lat : lhist;  (* this domain's L1 hit latencies *)
  l2_lat : lhist;  (* this domain's L2 hit latencies (incl. waits) *)
}

type 'a table = {
  kind : string;
  shards : 'a shard array;
  hits : int Atomic.t;  (* L2 hits only; stats add the pooled L1 cells *)
  misses : int Atomic.t;
  waits : int Atomic.t;
  l1_key : 'a l1 Domain.DLS.key;
  l1_cells : (int Atomic.t * lhist * lhist) list ref;
      (* one triple (hit cell, L1 tally, L2 tally) per domain *)
  l1_cells_m : Mutex.t;
}

type stat = {
  kind : string;
  hits : int;
  l1_hits : int;
  misses : int;
  single_flight_waits : int;
  l1_latency : Metrics.sample;
  l2_latency : Metrics.sample;
}

(* Registry of every table, type-erased to the operations clear/stats/
   reset need. Guarded by its own mutex: tables are created at
   module-init time, but [clear]/[stats] may race with domain spawn. *)
type reg_entry = {
  r_kind : string;
  r_clear : unit -> unit;
  r_stat : unit -> stat;
  r_reset : unit -> unit;
}

let registry : reg_entry list ref = ref []
let registry_m = Mutex.create ()

let create_table ~kind () =
  let l1_cells = ref [] in
  let l1_cells_m = Mutex.create () in
  let l1_key =
    (* runs on a domain's first lookup in this table: fresh local
       hashtable, hit cell registered for pooled stats (cells of dead
       domains stay registered — their hits remain part of the
       process-global story, like every other cache counter) *)
    Domain.DLS.new_key (fun () ->
        let cell = Atomic.make 0 in
        let l1_lat = lhist () and l2_lat = lhist () in
        Mutex.lock l1_cells_m;
        l1_cells := (cell, l1_lat, l2_lat) :: !l1_cells;
        Mutex.unlock l1_cells_m;
        { l1_gen = -1; l1_tbl = Tbl.create 64; l1_hits = cell;
          l1_lat; l2_lat })
  in
  let t =
    {
      kind;
      shards =
        Array.init num_shards (fun _ ->
            { m = Mutex.create (); tbl = Tbl.create 16 });
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      waits = Atomic.make 0;
      l1_key;
      l1_cells;
      l1_cells_m;
    }
  in
  let clear_t () =
    Array.iter
      (fun s ->
        Mutex.lock s.m;
        (* drop only settled entries: a racing computer will still
           publish its Ready over the In_flight it owns *)
        Tbl.filter_map_inplace
          (fun _ e -> match e with Ready _ -> None | In_flight _ -> Some e)
          s.tbl;
        Mutex.unlock s.m)
      t.shards
  in
  let cells () =
    Mutex.lock t.l1_cells_m;
    let cs = !(t.l1_cells) in
    Mutex.unlock t.l1_cells_m;
    cs
  in
  let stat_t () =
    let cs = cells () in
    let l1 = List.fold_left (fun acc (c, _, _) -> acc + Atomic.get c) 0 cs in
    {
      kind = t.kind;
      hits = Atomic.get t.hits + l1;
      l1_hits = l1;
      misses = Atomic.get t.misses;
      single_flight_waits = Atomic.get t.waits;
      l1_latency = lh_pool (List.map (fun (_, a, _) -> a) cs);
      l2_latency = lh_pool (List.map (fun (_, _, b) -> b) cs);
    }
  in
  let reset_t () =
    Atomic.set t.hits 0;
    Atomic.set t.misses 0;
    Atomic.set t.waits 0;
    List.iter
      (fun (c, a, b) ->
        Atomic.set c 0;
        lh_reset a;
        lh_reset b)
      (cells ())
  in
  Mutex.lock registry_m;
  let dup = List.exists (fun e -> e.r_kind = kind) !registry in
  if dup then begin
    Mutex.unlock registry_m;
    invalid_arg ("Artifact_cache.create_table: duplicate kind " ^ kind)
  end;
  registry :=
    { r_kind = kind; r_clear = clear_t; r_stat = stat_t; r_reset = reset_t }
    :: !registry;
  Mutex.unlock registry_m;
  t

let with_registry f =
  Mutex.lock registry_m;
  let entries = !registry in
  Mutex.unlock registry_m;
  f entries

let clear () =
  with_registry (List.iter (fun e -> e.r_clear ()));
  (* per-domain L1s flush themselves on the next lookup *)
  Atomic.incr generation
let reset_stats () = with_registry (List.iter (fun e -> e.r_reset ()))

let stats () =
  with_registry (List.map (fun e -> e.r_stat ()))
  |> List.sort (fun a b -> String.compare a.kind b.kind)

let hit_rate rows =
  let h = List.fold_left (fun a r -> a + r.hits) 0 rows in
  let m = List.fold_left (fun a r -> a + r.misses) 0 rows in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let metrics_snapshot () =
  let rows = stats () in
  let waits =
    List.fold_left (fun a r -> a + r.single_flight_waits) 0 rows
  in
  List.concat_map
    (fun r ->
      [
        ("cache.hit." ^ r.kind, Metrics.Counter r.hits);
        ("cache.l1.hit." ^ r.kind, Metrics.Counter r.l1_hits);
        ("cache.miss." ^ r.kind, Metrics.Counter r.misses);
        ("cache." ^ r.kind ^ ".l1.hit_latency", r.l1_latency);
        ("cache." ^ r.kind ^ ".l2.hit_latency", r.l2_latency);
      ])
    rows
  @ [ ("cache.single_flight_wait", Metrics.Counter waits) ]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let publish shard key fl res delta =
  Mutex.lock shard.m;
  Tbl.replace shard.tbl key (Ready (res, delta));
  Mutex.unlock shard.m;
  Mutex.lock fl.fl_m;
  fl.fl_done <- true;
  Condition.broadcast fl.fl_cv;
  Mutex.unlock fl.fl_m

(* L1/L2 hits become timestamped trace events only when the sink opted
   in (run --trace-out): they carry wall-clock attrs and no sequence
   number, so determinism-checked streams must not see them. *)
let hit_event kind level t_ns =
  match Sink.ambient () with
  | Some s when s.Sink.cache_events && s.Sink.on_line <> None ->
      Sink.emit s
        (Export.Event
           {
             seq = 0;
             name = "cache." ^ level ^ ".hit";
             attrs = [ ("kind", J.String kind); ("t_ns", J.Int t_ns) ];
           })
  | _ -> ()

let memo t ~key compute =
  if not (enabled ()) then compute ()
  else begin
    let t0 = Clock.now_ns () in
    (* L1: this domain's private table — no lock, no shared write on a
       hit beyond the domain's own stat cell. The warm path of a sweep
       lives entirely here. *)
    let l1 = Domain.DLS.get t.l1_key in
    let gen = Atomic.get generation in
    if l1.l1_gen <> gen then begin
      Tbl.reset l1.l1_tbl;
      l1.l1_gen <- gen
    end;
    match Tbl.find_opt l1.l1_tbl key with
    | Some (res, delta) ->
        Atomic.incr l1.l1_hits;
        bump ("cache.hit." ^ t.kind);
        bump ("cache.l1.hit." ^ t.kind);
        replay delta;
        lh_observe l1.l1_lat (Clock.now_ns () - t0);
        hit_event t.kind "l1" t0;
        (match res with Ok v -> v | Error e -> raise e)
    | None ->
        (* L2: shared shards, single-flight on a genuine cold miss. Any
           settled entry found here is copied into the L1 so this domain
           never takes the shard lock for this key again. *)
        let shard = t.shards.(key.hash land (num_shards - 1)) in
        let rec lookup () =
          Mutex.lock shard.m;
          match Tbl.find_opt shard.tbl key with
          | Some (Ready (res, delta)) ->
              Mutex.unlock shard.m;
              Tbl.replace l1.l1_tbl key (res, delta);
              Atomic.incr t.hits;
              bump ("cache.hit." ^ t.kind);
              replay delta;
              (* includes any single-flight wait this lookup sat through *)
              lh_observe l1.l2_lat (Clock.now_ns () - t0);
              hit_event t.kind "l2" t0;
              (match res with Ok v -> v | Error e -> raise e)
          | Some (In_flight fl) ->
              Mutex.unlock shard.m;
              Atomic.incr t.waits;
              bump "cache.single_flight_wait";
              let wait () =
                Mutex.lock fl.fl_m;
                while not fl.fl_done do
                  Condition.wait fl.fl_cv fl.fl_m
                done;
                Mutex.unlock fl.fl_m
              in
              (match Sink.ambient () with
              | None -> wait ()
              | Some s ->
                  let w0 = Clock.now_ns () in
                  Span.with_span
                    ~attrs:[ ("kind", J.String t.kind) ]
                    s.Sink.spans "cache.wait" wait;
                  Metrics.observe
                    (Metrics.latency s.Sink.metrics "cache.wait_latency")
                    (Clock.now_ns () - w0));
              lookup ()
          | None ->
              let fl =
                { fl_m = Mutex.create (); fl_cv = Condition.create ();
                  fl_done = false }
              in
              Tbl.replace shard.tbl key (In_flight fl);
              Mutex.unlock shard.m;
              Atomic.incr t.misses;
              bump ("cache.miss." ^ t.kind);
              (* compute under a scratch sink so the kernel delta can be
                 stored and replayed on every future hit — metric
                 placement is then identical to the uncached
                 computation *)
              let scratch = Sink.create () in
              let res =
                match Sink.with_ambient scratch compute with
                | v -> Ok v
                | exception e -> Error e
              in
              let delta =
                strip_cache (Metrics.snapshot scratch.Sink.metrics)
              in
              publish shard key fl res delta;
              Tbl.replace l1.l1_tbl key (res, delta);
              replay delta;
              (match res with Ok v -> v | Error e -> raise e)
        in
        lookup ()
  end

(* ---------- cached artifacts ---------- *)

let exact_key b = Cdigraph.certificate_of_identity (Cdigraph.of_bicolored b)

let classes_tbl : Classes.t table = create_table ~kind:"classes" ()
let fingerprint_tbl : string table = create_table ~kind:"certificate" ()

let classes b =
  memo classes_tbl ~key:(key_of_bicolored b) (fun () -> Classes.compute b)

let fingerprint_uncached b =
  let r = Canon.run (Cdigraph.of_bicolored b) in
  (* black-node orbit signature: sorted sizes of the orbits that
     contain home-bases, an isomorphism invariant of the placement *)
  let reps =
    List.sort_uniq compare
      (List.map (fun u -> r.Canon.orbits.(u)) (Bicolored.blacks b))
  in
  let size_of rep =
    let n = Array.length r.Canon.orbits in
    let c = ref 0 in
    for u = 0 to n - 1 do
      if r.Canon.orbits.(u) = rep then incr c
    done;
    !c
  in
  let sig_ = List.sort compare (List.map size_of reps) in
  r.Canon.certificate ^ "#black-orbits:"
  ^ String.concat "," (List.map string_of_int sig_)

let fingerprint b =
  memo fingerprint_tbl ~key:(key_of_bicolored b) (fun () ->
      fingerprint_uncached b)
