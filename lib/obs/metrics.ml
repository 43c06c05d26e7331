type counter = { mutable c : int }
type gauge = { mutable g : int }

type histogram = {
  bounds : int array;  (* ascending upper bounds *)
  buckets : int array;  (* length bounds + 1; last = overflow *)
  mutable sum : int;
  mutable count : int;
  mutable lo : int;  (* min observed; 0 when count = 0 *)
  mutable hi : int;  (* max observed; 0 when count = 0 *)
}

type instrument = C of counter | G of gauge | H of histogram

type registry = { tbl : (string, instrument) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let default_buckets = Array.init 10 (fun i -> 1 lsl (2 * i))
(* 1, 4, 16, ..., 4^9 = 262144 *)

let latency_buckets = Array.init 31 (fun i -> 1 lsl (i + 6))
(* 64 ns, 128 ns, ..., 2^36 ns ~ 68.7 s: log-scale with ratio 2, sized
   for monotonic-clock nanoseconds from sub-microsecond kernel stages up
   to minute-long campaign phases. *)

let is_latency name =
  String.length name > 8
  && String.sub name (String.length name - 8) 8 = "_latency"

let counter r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (C c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c = 0 } in
      Hashtbl.add r.tbl name (C c);
      c

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let gauge r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (G g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { g = 0 } in
      Hashtbl.add r.tbl name (G g);
      g

let set g v = g.g <- v
let record_max g v = if v > g.g then g.g <- v
let gauge_value g = g.g

let histogram ?(buckets = default_buckets) r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (H h) ->
      (* physical checks first: a latency histogram shares its bounds *)
      if h.bounds != buckets && buckets != default_buckets && h.bounds <> buckets
      then
        invalid_arg ("Metrics.histogram: " ^ name ^ " re-registered with different buckets");
      h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let ok = ref true in
      Array.iteri
        (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
        buckets;
      if (not !ok) || Array.length buckets = 0 then
        invalid_arg "Metrics.histogram: bounds must be strictly ascending";
      let h =
        {
          (* the module's own bound arrays are never written, so every
             histogram on them shares them; a caller's array is copied *)
          bounds =
            (if buckets == default_buckets || buckets == latency_buckets then
               buckets
             else Array.copy buckets);
          buckets = Array.make (Array.length buckets + 1) 0;
          sum = 0;
          count = 0;
          lo = 0;
          hi = 0;
        }
      in
      Hashtbl.add r.tbl name (H h);
      h

let latency r name = histogram ~buckets:latency_buckets r name

let observe h v =
  let bounds = h.bounds in
  let nb = Array.length bounds in
  (* first bucket whose bound >= v, else the overflow bucket *)
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
  h.buckets.(idx) <- h.buckets.(idx) + 1;
  h.sum <- h.sum + v;
  if h.count = 0 then begin
    h.lo <- v;
    h.hi <- v
  end
  else begin
    if v < h.lo then h.lo <- v;
    if v > h.hi then h.hi <- v
  end;
  h.count <- h.count + 1

(* ---------- snapshots ---------- *)

type sample =
  | Counter of int
  | Gauge of int
  | Hist of {
      bounds : int array;
      counts : int array;
      sum : int;
      count : int;
      lo : int;
      hi : int;
    }

type snapshot = (string * sample) list

(* A histogram's [bounds] never change after it is registered, so every
   snapshot shares the live array instead of copying it: a cache entry's
   stored metric delta then costs only its counts (its latency bounds
   are the one [latency_buckets] array). *)
let snapshot r =
  Hashtbl.fold
    (fun name inst acc ->
      let s =
        match inst with
        | C c -> Counter c.c
        | G g -> Gauge g.g
        | H h ->
            Hist
              {
                bounds = h.bounds;
                counts = Array.copy h.buckets;
                sum = h.sum;
                count = h.count;
                lo = h.lo;
                hi = h.hi;
              }
      in
      (name, s) :: acc)
    r.tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find snap name = List.assoc_opt name snap

let quantile s q =
  match s with
  | Counter _ | Gauge _ -> None
  | Hist h ->
      if h.count = 0 || q < 0. || q > 1. then None
      else begin
        (* rank of the q-quantile observation, 1-based (nearest-rank) *)
        let rank = max 1 (int_of_float (ceil (q *. float_of_int h.count))) in
        let nb = Array.length h.bounds in
        let i = ref 0 and cum = ref 0 in
        while !cum + h.counts.(!i) < rank do
          cum := !cum + h.counts.(!i);
          i := !i + 1
        done;
        let bucket_lo = if !i = 0 then 0. else float_of_int h.bounds.(!i - 1) in
        let bucket_hi =
          if !i < nb then float_of_int h.bounds.(!i)
          else if h.hi > 0 then float_of_int h.hi
          else 2. *. float_of_int h.bounds.(nb - 1)
        in
        let in_bucket = h.counts.(!i) in
        let frac =
          if in_bucket = 0 then 0.
          else float_of_int (rank - !cum) /. float_of_int in_bucket
        in
        let est = bucket_lo +. (frac *. (bucket_hi -. bucket_lo)) in
        (* the recorded extremes tighten the bucket-resolution estimate;
           lo/hi read 0 on snapshots decoded from pre-v3 traces, where
           no tightening is possible *)
        let est = if h.hi > 0 then min est (float_of_int h.hi) else est in
        let est = if h.lo > 0 then max est (float_of_int h.lo) else est in
        Some est
      end

let combine ~counter ~gauge ~hist ~range a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (counter x y)
  | Gauge x, Gauge y -> Gauge (gauge x y)
  | Hist hx, Hist hy ->
      if hx.bounds <> hy.bounds then
        invalid_arg "Metrics: histogram bounds mismatch";
      let count = hist hx.count hy.count in
      let lo, hi =
        if count = 0 then (0, 0)
        else
          range
            (hx.count, hx.lo, hx.hi)
            (hy.count, hy.lo, hy.hi)
      in
      Hist
        {
          bounds = hx.bounds;
          counts = Array.init (Array.length hx.counts) (fun i ->
              hist hx.counts.(i) hy.counts.(i));
          sum = hist hx.sum hy.sum;
          count;
          lo;
          hi;
        }
  | _ -> invalid_arg "Metrics: sample kind mismatch"

(* walk two name-sorted snapshots together *)
let rec zip f only_a only_b a b =
  match (a, b) with
  | [], rest -> List.filter_map only_b rest
  | rest, [] -> List.filter_map only_a rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c = 0 then (ka, f va vb) :: zip f only_a only_b ta tb
      else if c < 0 then
        match only_a (ka, va) with
        | Some kv -> kv :: zip f only_a only_b ta b
        | None -> zip f only_a only_b ta b
      else
        match only_b (kb, vb) with
        | Some kv -> kv :: zip f only_a only_b a tb
        | None -> zip f only_a only_b a tb

let diff ~after ~before =
  zip
    (combine ~counter:( - ) ~gauge:(fun a _ -> a) ~hist:( - )
       (* min/max over only the interval are unrecoverable; the [after]
          extremes are the tightest sound envelope *)
       ~range:(fun (_, lo_a, hi_a) _ -> (lo_a, hi_a)))
    (fun kv -> Some kv) (* new since [before]: counts from 0 *)
    (fun _ -> None) (* gone: dropped *)
    after before

let merge a b =
  zip
    (combine ~counter:( + ) ~gauge:max ~hist:( + )
       ~range:(fun (ca, lo_a, hi_a) (cb, lo_b, hi_b) ->
         if ca = 0 then (lo_b, hi_b)
         else if cb = 0 then (lo_a, hi_a)
         else (min lo_a lo_b, max hi_a hi_b)))
    (fun kv -> Some kv)
    (fun kv -> Some kv)
    a b

let apply r snap =
  List.iter
    (fun (name, s) ->
      match s with
      | Counter v -> add (counter r name) v
      | Gauge v -> record_max (gauge r name) v
      | Hist h ->
          let dst = histogram ~buckets:h.bounds r name in
          Array.iteri
            (fun i c -> dst.buckets.(i) <- dst.buckets.(i) + c)
            h.counts;
          dst.sum <- dst.sum + h.sum;
          if h.count > 0 then
            if dst.count = 0 then begin
              dst.lo <- h.lo;
              dst.hi <- h.hi
            end
            else begin
              if h.lo < dst.lo then dst.lo <- h.lo;
              if h.hi > dst.hi then dst.hi <- h.hi
            end;
          dst.count <- dst.count + h.count)
    snap

let render snap =
  let buf = Buffer.create 512 in
  let width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 10 snap
  in
  List.iter
    (fun (name, s) ->
      let pad = String.make (width - String.length name) ' ' in
      match s with
      | Counter v -> Printf.bprintf buf "%s%s  %d\n" name pad v
      | Gauge v -> Printf.bprintf buf "%s%s  %d (gauge)\n" name pad v
      | Hist h ->
          let mean =
            if h.count = 0 then 0. else float_of_int h.sum /. float_of_int h.count
          in
          Printf.bprintf buf "%s%s  count=%d sum=%d mean=%.1f" name pad
            h.count h.sum mean;
          Array.iteri
            (fun i c ->
              if c > 0 then
                if i < Array.length h.bounds then
                  Printf.bprintf buf " le%d=%d" h.bounds.(i) c
                else Printf.bprintf buf " inf=%d" c)
            h.counts;
          Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf
