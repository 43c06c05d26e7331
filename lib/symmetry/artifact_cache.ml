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

let bump s name = Metrics.incr (Metrics.counter s.Sink.metrics name)
let replay s delta = if delta <> [] then Metrics.apply s.Sink.metrics delta

(* Stored deltas must never carry cache counters: a nested memo records
   its own cache.hit/miss into the outer computation's scratch sink, and
   replaying those on every outer hit would double-count them. *)
let strip_cache snap =
  List.filter
    (fun (name, _) -> not (String.starts_with ~prefix:"cache." name))
    snap

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

type 'a entry =
  | Ready of ('a, exn) result * Metrics.snapshot option
      (** value (or deterministic failure) + the kernel-metric delta its
          computation recorded, replayed on every listening lookup;
          [None] until a listener first needs it *)
  | In_flight of flight

and flight = {
  fl_m : Mutex.t;
  fl_cv : Condition.t;
  mutable fl_done : bool;
}

(* Every field below is read and written under [m] only, so the counts
   are exact at any job count. Hit latencies are tallied whether or not
   a sink is installed, so `--stats` and the scrape endpoint can quote
   quantiles for any run; [lat] lives in the shard's own registry
   [reg], which [reset_stats] replaces. *)
type 'a shard = {
  m : Mutex.t;
  tbl : 'a entry Tbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable waits : int;
  mutable reg : Metrics.registry;
  mutable lat : Metrics.histogram;
}

(* The counter names are built once per table, not on every lookup. *)
type 'a table = {
  kind : string;
  hit_name : string;  (* "cache.hit.<kind>" *)
  miss_name : string;  (* "cache.miss.<kind>" *)
  shards : 'a shard array;
}

type stat = {
  kind : string;
  hits : int;
  misses : int;
  single_flight_waits : int;
  l1_latency : Metrics.sample;
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

(* a registry holding one empty hit-latency histogram *)
let fresh_latency () =
  let reg = Metrics.create () in
  (reg, Metrics.latency reg "hit_latency")

let reset_shard (s : _ shard) =
  let reg, lat = fresh_latency () in
  s.hits <- 0;
  s.misses <- 0;
  s.waits <- 0;
  s.reg <- reg;
  s.lat <- lat

let create_table ~kind () =
  let shard () =
    let reg, lat = fresh_latency () in
    { m = Mutex.create (); tbl = Tbl.create 16; hits = 0; misses = 0;
      waits = 0; reg; lat }
  in
  let t =
    {
      kind;
      hit_name = "cache.hit." ^ kind;
      miss_name = "cache.miss." ^ kind;
      shards = Array.init num_shards (fun _ -> shard ());
    }
  in
  let clear_t () =
    Array.iter
      (fun s ->
        Mutex.protect s.m @@ fun () ->
        (* drop only settled entries: a racing computer will still
           publish its Ready over the In_flight it owns *)
        Tbl.filter_map_inplace
          (fun _ e -> match e with Ready _ -> None | In_flight _ -> Some e)
          s.tbl)
      t.shards
  in
  let stat_t () =
    let hits = ref 0 and misses = ref 0 and waits = ref 0 and lat = ref [] in
    Array.iter
      (fun s ->
        Mutex.protect s.m @@ fun () ->
        hits := !hits + s.hits;
        misses := !misses + s.misses;
        waits := !waits + s.waits;
        lat := Metrics.merge !lat (Metrics.snapshot s.reg))
      t.shards;
    { kind; hits = !hits; misses = !misses; single_flight_waits = !waits;
      l1_latency = List.assoc "hit_latency" !lat }
  in
  let reset_t () =
    Array.iter (fun s -> Mutex.protect s.m (fun () -> reset_shard s)) t.shards
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

let clear () = with_registry (List.iter (fun e -> e.r_clear ()))
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
        ("cache.miss." ^ r.kind, Metrics.Counter r.misses);
        ("cache." ^ r.kind ^ ".hit_latency", r.l1_latency);
      ])
    rows
  @ [ ("cache.single_flight_wait", Metrics.Counter waits) ]
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let publish shard key fl res delta =
  Mutex.protect shard.m (fun () ->
      Tbl.replace shard.tbl key (Ready (res, delta)));
  Mutex.lock fl.fl_m;
  fl.fl_done <- true;
  Condition.broadcast fl.fl_cv;
  Mutex.unlock fl.fl_m

(* Hits become timestamped trace events only when the sink opted in
   (run --trace-out): they carry wall-clock attrs and no sequence
   number, so determinism-checked streams must not see them. *)
let hit_event s kind t_ns =
  if s.Sink.cache_events && s.Sink.on_line <> None then
    Sink.emit s
      (Export.Event
         {
           seq = 0;
           name = "cache.hit";
           attrs = [ ("kind", J.String kind); ("t_ns", J.Int t_ns) ];
         })

let unwrap = function Ok v -> v | Error e -> raise e

let run compute = match compute () with v -> Ok v | exception e -> Error e

(* [compute] under a private scratch sink: its result and the
   kernel-metric delta it recorded. *)
let in_scratch compute =
  let scratch = Sink.create () in
  let res = Sink.with_ambient scratch (fun () -> run compute) in
  (res, strip_cache (Metrics.snapshot scratch.Sink.metrics))

(* True on a domain while a listening hit recomputes the delta of an
   entry published without one. Nested lookups then run their
   computation directly, as with the cache disabled: they touch no table
   and no count, and the delta is the uncached one, which
   [cache/differential] pins equal to the cached one modulo cache.*. *)
let recomputing = Domain.DLS.new_key (fun () -> false)

let delta_of compute =
  Domain.DLS.set recomputing true;
  let _, delta = in_scratch compute in
  Domain.DLS.set recomputing false;
  delta

let memo t ~key compute =
  if not (enabled ()) || Domain.DLS.get recomputing then compute ()
  else begin
    let t0 = Clock.now_ns () in
    let sink = Sink.ambient () in
    let shard = t.shards.(key.hash land (num_shards - 1)) in
    let rec lookup () =
      Mutex.lock shard.m;
      match Tbl.find_opt shard.tbl key with
      | Some (Ready (res, delta) as entry) ->
          shard.hits <- shard.hits + 1;
          (* includes any single-flight wait this lookup sat through *)
          Metrics.observe shard.lat (Clock.now_ns () - t0);
          Mutex.unlock shard.m;
          (match sink with
          | None -> ()
          | Some s ->
              bump s t.hit_name;
              let delta =
                match delta with
                | Some d -> d
                | None ->
                    (* the first listener on this entry pays for its
                       delta; keep it unless the entry was replaced *)
                    let d = delta_of compute in
                    Mutex.protect shard.m (fun () ->
                        match Tbl.find_opt shard.tbl key with
                        | Some e when e == entry ->
                            Tbl.replace shard.tbl key (Ready (res, Some d))
                        | _ -> ());
                    d
              in
              replay s delta;
              hit_event s t.kind t0);
          unwrap res
      | Some (In_flight fl) ->
          shard.waits <- shard.waits + 1;
          Mutex.unlock shard.m;
          let wait () =
            Mutex.lock fl.fl_m;
            while not fl.fl_done do
              Condition.wait fl.fl_cv fl.fl_m
            done;
            Mutex.unlock fl.fl_m
          in
          (match sink with
          | None -> wait ()
          | Some s ->
              bump s "cache.single_flight_wait";
              let w0 = Clock.now_ns () in
              Span.with_span
                ~attrs:[ ("kind", J.String t.kind) ]
                s.Sink.spans "cache.wait" wait;
              Metrics.observe
                (Metrics.latency s.Sink.metrics "cache.wait_latency")
                (Clock.now_ns () - w0));
          lookup ()
      | None -> (
          let fl =
            { fl_m = Mutex.create (); fl_cv = Condition.create ();
              fl_done = false }
          in
          Tbl.replace shard.tbl key (In_flight fl);
          shard.misses <- shard.misses + 1;
          Mutex.unlock shard.m;
          match sink with
          | None ->
              (* nothing listens: no scratch sink, no delta to keep *)
              let res = run compute in
              publish shard key fl res None;
              unwrap res
          | Some s ->
              bump s t.miss_name;
              (* compute under a scratch sink so the kernel delta can be
                 stored and replayed on every listening hit — metric
                 placement is then identical to the uncached
                 computation. The caller's tracer gets one
                 [cache.compute] span around it, so a miss shows where
                 it sits in the caller's span tree. *)
              let res, delta =
                Span.with_span
                  ~attrs:[ ("kind", J.String t.kind) ]
                  s.Sink.spans "cache.compute"
                  (fun () -> in_scratch compute)
              in
              publish shard key fl res (Some delta);
              replay s delta;
              unwrap res)
    in
    lookup ()
  end

(* ---------- cached artifacts ---------- *)

let exact_key b = Cdigraph.certificate_of_identity (Cdigraph.of_bicolored b)

let classes_tbl : Classes.t table = create_table ~kind:"classes" ()

let classes b =
  memo classes_tbl ~key:(key_of_bicolored b) (fun () -> Classes.compute b)

let fingerprint b =
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
