(* A fixed pool of domains chewing on one batch at a time.

   Scheduling is size-aware and self-balancing (each participant owns a
   queue of indices, assigned largest-weight-first, and steals from the
   others when its own runs dry), determinism is structural: results
   land in the slot of their input index and errors are reported by
   smallest index, so nothing the caller can observe depends on which
   domain ran what, or when. *)

module Metrics = Qe_obs.Metrics
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Export = Qe_obs.Export
module Clock = Qe_obs.Clock
module J = Qe_obs.Jsonl

type batch = {
  run : int -> int -> unit;
      (* [run i self]: stores its own result/error; never raises.
         [self] is the participant id, recorded for the trace lanes. *)
  queues : int array array;  (* queues.(w): indices owned by participant w *)
  pos : int Atomic.t array;  (* next unclaimed slot of queues.(w) *)
  steals : int Atomic.t;  (* indices run by a non-owner *)
  drained : int array;  (* ns timestamp at which participant w ran dry *)
  mutable active : int;  (* participants (workers + caller) still in *)
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t list;  (* jobs - 1 spawned domains *)
  m : Mutex.t;
  have_work : Condition.t;
  batch_done : Condition.t;
  mutable batch : batch option;
  mutable epoch : int;  (* bumped when a batch is published *)
  mutable stop : bool;
}

let default_jobs () = max 1 (min (Domain.recommended_domain_count ()) 16)

(* ---------- process-wide scheduler totals ----------

   [run] batches use transient pools, so per-pool counters
   would be gone before a bench could read them. These accumulate across
   every pool of the process (like [Artifact_cache.stats]); the same
   numbers are also added to the ambient sink as [pool.*] counters at
   the end of each batch, on the caller's domain. *)

let g_tasks = Atomic.make 0
let g_batches = Atomic.make 0
let g_steals = Atomic.make 0
let g_idle_ns = Atomic.make 0

(* process-wide latency distributions (task run time, per-participant
   idle tails), folded in once per batch on the caller's domain — the
   mutex is never on a task's path *)
let g_reg = ref (Metrics.create ())
let g_reg_m = Mutex.create ()

type totals = { tasks : int; batches : int; steals : int; idle_ns : int }

let totals () =
  {
    tasks = Atomic.get g_tasks;
    batches = Atomic.get g_batches;
    steals = Atomic.get g_steals;
    idle_ns = Atomic.get g_idle_ns;
  }

let reset_totals () =
  Atomic.set g_tasks 0;
  Atomic.set g_batches 0;
  Atomic.set g_steals 0;
  Atomic.set g_idle_ns 0;
  Mutex.lock g_reg_m;
  g_reg := Metrics.create ();
  Mutex.unlock g_reg_m

let metrics_snapshot () =
  let t = totals () in
  let counters =
    [
      ("pool.batches", Metrics.Counter t.batches);
      ("pool.idle_ns", Metrics.Counter t.idle_ns);
      ("pool.steal", Metrics.Counter t.steals);
      ("pool.tasks", Metrics.Counter t.tasks);
    ]
  in
  Mutex.lock g_reg_m;
  let hists = Metrics.snapshot !g_reg in
  Mutex.unlock g_reg_m;
  Metrics.merge counters hists

(* ---------- size-aware assignment ----------

   Largest-processing-time-first: indices sorted by decreasing weight
   (ties by index) are dealt one at a time to the least-loaded queue
   (ties to the lowest id). With uniform weights this degrades to a
   round-robin deal; with honest weights one torus6x6 lands alone in a
   queue instead of serializing a chunk of small instances behind it.
   The deal is a pure function of (len, weights, jobs) — scheduling
   stays irrelevant to the results either way, this only shrinks the
   idle tail stealing has to mop up. *)

let assign ~jobs ~weights len =
  let order = Array.init len Fun.id in
  Array.sort
    (fun a b ->
      if weights.(a) <> weights.(b) then compare weights.(b) weights.(a)
      else compare a b)
    order;
  let load = Array.make jobs 0 in
  let rev_queues = Array.make jobs [] in
  Array.iter
    (fun i ->
      let w = ref 0 in
      for k = 1 to jobs - 1 do
        if load.(k) < load.(!w) then w := k
      done;
      rev_queues.(!w) <- i :: rev_queues.(!w);
      load.(!w) <- load.(!w) + weights.(i))
    order;
  Array.map (fun l -> Array.of_list (List.rev l)) rev_queues

(* ---------- claiming and stealing ----------

   Each queue has its own atomic cursor: the owner claims off it
   uncontended; thieves hit it only once the owner's work is the only
   work left. A queue never refills, so one sweep over every victim
   (draining each to empty before moving on) proves there is nothing
   left to run — an idle participant costs one failed fetch_and_add per
   queue, it never spins. *)

let chew b ~self =
  let take w =
    let q = b.queues.(w) in
    let i = Atomic.fetch_and_add b.pos.(w) 1 in
    if i < Array.length q then Some q.(i) else None
  in
  let rec drain_own () =
    match take self with
    | Some i ->
        b.run i self;
        drain_own ()
    | None -> ()
  in
  drain_own ();
  let parts = Array.length b.queues in
  let stolen = ref 0 in
  for off = 1 to parts - 1 do
    let v = (self + off) mod parts in
    let draining = ref true in
    while !draining do
      match take v with
      | Some i ->
          incr stolen;
          b.run i self
      | None -> draining := false
    done
  done;
  if !stolen > 0 then ignore (Atomic.fetch_and_add b.steals !stolen);
  (* written before the active-count decrement under the pool mutex, so
     the caller's post-batch read is properly synchronized *)
  b.drained.(self) <- Clock.now_ns ()

let rec worker_loop t ~self ~seen =
  Mutex.lock t.m;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.have_work t.m
  done;
  if t.stop then Mutex.unlock t.m
  else begin
    let epoch = t.epoch in
    let b = Option.get t.batch in
    Mutex.unlock t.m;
    chew b ~self;
    Mutex.lock t.m;
    b.active <- b.active - 1;
    if b.active = 0 then Condition.broadcast t.batch_done;
    Mutex.unlock t.m;
    worker_loop t ~self ~seen:epoch
  end

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j -> max 1 (min j 64)
  in
  let t =
    {
      jobs;
      workers = [];
      m = Mutex.create ();
      have_work = Condition.create ();
      batch_done = Condition.create ();
      batch = None;
      epoch = 0;
      stop = false;
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~self:(i + 1) ~seen:0));
  t

let jobs t = t.jobs

let map t ?weight ~f arr =
  let len = Array.length arr in
  if len = 0 then [||]
  else if t.jobs = 1 || len = 1 then Array.mapi f arr
  else begin
    let results = Array.make len None in
    let errors = Array.make len None in
    (* per-task wall-clock envelope and runner id, for the latency
       histograms and the per-domain trace lanes; the post-barrier mutex
       synchronization makes the plain stores safe to read below *)
    let t_beg = Array.make len 0 in
    let t_fin = Array.make len 0 in
    let runner = Array.make len (-1) in
    let run i self =
      t_beg.(i) <- Clock.now_ns ();
      (match f i arr.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some e);
      t_fin.(i) <- Clock.now_ns ();
      runner.(i) <- self
    in
    let weights =
      match weight with
      | None -> Array.make len 1
      | Some w -> Array.init len (fun i -> max 1 (w i arr.(i)))
    in
    let b =
      {
        run;
        queues = assign ~jobs:t.jobs ~weights len;
        pos = Array.init t.jobs (fun _ -> Atomic.make 0);
        steals = Atomic.make 0;
        drained = Array.make t.jobs 0;
        active = t.jobs;
      }
    in
    let t_pub = Clock.now_ns () in
    Mutex.lock t.m;
    if t.stop then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map: pool is shut down"
    end;
    if t.batch <> None then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.map: pool is already running a batch"
    end;
    t.batch <- Some b;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    (* the caller is a worker too *)
    chew b ~self:0;
    Mutex.lock t.m;
    b.active <- b.active - 1;
    while b.active > 0 do
      Condition.wait t.batch_done t.m
    done;
    t.batch <- None;
    Mutex.unlock t.m;
    (* every worker's stores happen-before the final mutex
       synchronization above, so plain array reads are safe here *)
    let t_end = Clock.now_ns () in
    let idle =
      (* per-participant gap between running dry and the batch barrier:
         the imbalance stealing could not hide *)
      Array.fold_left (fun acc d -> acc + max 0 (t_end - d)) 0 b.drained
    in
    let steals = Atomic.get b.steals in
    ignore (Atomic.fetch_and_add g_tasks len);
    ignore (Atomic.fetch_and_add g_batches 1);
    ignore (Atomic.fetch_and_add g_steals steals);
    ignore (Atomic.fetch_and_add g_idle_ns idle);
    let observe_latencies m =
      let ht = Metrics.latency m "pool.task_latency" in
      for i = 0 to len - 1 do
        Metrics.observe ht (t_fin.(i) - t_beg.(i))
      done;
      let hi = Metrics.latency m "pool.idle_latency" in
      Array.iter
        (fun d ->
          let gap = t_end - d in
          if gap > 0 then Metrics.observe hi gap)
        b.drained
    in
    Mutex.lock g_reg_m;
    observe_latencies !g_reg;
    Mutex.unlock g_reg_m;
    (match Sink.ambient () with
    | None -> ()
    | Some s ->
        let m = s.Sink.metrics in
        Metrics.add (Metrics.counter m "pool.tasks") len;
        Metrics.incr (Metrics.counter m "pool.batches");
        Metrics.add (Metrics.counter m "pool.steal") steals;
        Metrics.add (Metrics.counter m "pool.idle_ns") idle;
        observe_latencies m;
        (* one [pool.batch] span tree per participant: its tasks in
           start order (stolen ones flagged), then the idle tail it
           spent blocked on the barrier — the per-domain lanes of the
           Chrome-trace export *)
        let owner = Array.make len 0 in
        Array.iteri
          (fun w q -> Array.iter (fun i -> owner.(i) <- w) q)
          b.queues;
        let by_runner = Array.make t.jobs [] in
        for i = len - 1 downto 0 do
          let w = runner.(i) in
          if w >= 0 then by_runner.(w) <- i :: by_runner.(w)
        done;
        Array.iteri
          (fun w is ->
            let is = List.sort (fun a c -> compare t_beg.(a) t_beg.(c)) is in
            let tasks =
              List.map
                (fun i ->
                  {
                    Span.name = "pool.task";
                    start_ns = t_beg.(i);
                    dur_ns = t_fin.(i) - t_beg.(i);
                    attrs =
                      [
                        ("idx", J.Int i); ("stolen", J.Bool (owner.(i) <> w));
                      ];
                    children = [];
                  })
                is
            in
            let tail =
              let gap = t_end - b.drained.(w) in
              if gap <= 0 then []
              else
                [
                  {
                    Span.name = "pool.idle";
                    start_ns = b.drained.(w);
                    dur_ns = gap;
                    attrs = [];
                    children = [];
                  };
                ]
            in
            let stolen =
              List.length (List.filter (fun i -> owner.(i) <> w) is)
            in
            let root =
              {
                Span.name = "pool.batch";
                start_ns = t_pub;
                dur_ns = t_end - t_pub;
                attrs =
                  [
                    ("domain", J.Int w);
                    ("tasks", J.Int (List.length is));
                    ("stolen", J.Int stolen);
                  ];
                children = tasks @ tail;
              }
            in
            Span.add_root s.Sink.spans root;
            Sink.emit s (Export.Span_tree root))
          by_runner);
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map Option.get results
  end

let shutdown t =
  Mutex.lock t.m;
  if t.stop then Mutex.unlock t.m
  else begin
    t.stop <- true;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run ?(jobs = 1) ?weight ~f arr =
  let len = Array.length arr in
  if jobs <= 1 || len <= 1 then Array.mapi f arr
  else
    (* never spawn more domains than there are items to run *)
    with_pool ~jobs:(min jobs len) (fun t -> map t ?weight ~f arr)
