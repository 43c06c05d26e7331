type partition = int array

(* The CSR adjacency now lives inside Cdigraph itself — built once at
   construction, shared by every domain (immutable after construction,
   so no per-domain cache or rebuild is needed). *)
let csr_of = Cdigraph.csr

(* ------------------------------------------------------------------ *)
(* Small int utilities (monomorphic — no polymorphic compare anywhere
   on the hot path). *)

let rec sort_sub (a : int array) lo hi =
  (* sort a.(lo..hi-1) ascending; insertion sort under 16, else
     median-of-ends quicksort *)
  if hi - lo < 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    let pivot =
      let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
      if x < y then if y < z then y else max x z
      else if x < z then x
      else max y z
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_sub a lo (!j + 1);
    sort_sub a !i hi
  end

let rec sort_sub_by (a : int array) (key : int array) lo hi =
  (* sort a.(lo..hi-1) ascending by key.(a.(i)) *)
  if hi - lo < 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let kx = key.(x) in
      let j = ref (i - 1) in
      while !j >= lo && key.(a.(!j)) > kx do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    let pivot =
      let x = key.(a.(lo)) and y = key.(a.(mid)) and z = key.(a.(hi - 1)) in
      if x < y then if y < z then y else max x z
      else if x < z then x
      else max y z
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while key.(a.(!i)) < pivot do incr i done;
      while key.(a.(!j)) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_sub_by a key lo (!j + 1);
    sort_sub_by a key !i hi
  end

let uniform_by (a : int array) (key : int array) lo hi =
  (* do a.(lo..hi-1) all have the same key? *)
  let k0 = key.(a.(lo)) in
  let j = ref (lo + 1) in
  while !j < hi && key.(a.(!j)) = k0 do incr j done;
  !j >= hi

(* ------------------------------------------------------------------ *)
(* Scratch workspace, grown on demand and reused across calls. *)

type ws = {
  mutable elements : int array;   (* nodes in partition order *)
  mutable cell_of : int array;    (* node -> start index of its cell *)
  mutable pos : int array;        (* node -> its index in [elements] *)
  mutable cell_len : int array;   (* start index -> cell length *)
  mutable on_stack : bool array;  (* start index -> queued as splitter? *)
  mutable clean : bool array;     (* start index -> intact equitable cell? *)
  mutable stack : int array;      (* worklist of cell start indices *)
  mutable cnt : int array;        (* node -> count w.r.t. current group *)
  mutable touched : int array;    (* nodes with nonzero cnt *)
  mutable tcells : int array;     (* starts of cells containing touched *)
  mutable tcount : int array;     (* start index -> touched members *)
  mutable tnext : int array;      (* start index -> next tail slot to fill *)
  mutable arcbuf : int array;     (* packed (color, node) incident arcs *)
}

(* One workspace per domain: refine may run concurrently on the pool's
   domains (one engine run each), and shared scratch arrays would race. *)
let ws_key : ws Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        elements = [||];
        cell_of = [||];
        pos = [||];
        cell_len = [||];
        on_stack = [||];
        clean = [||];
        stack = [||];
        cnt = [||];
        touched = [||];
        tcells = [||];
        tcount = [||];
        tnext = [||];
        arcbuf = [||];
      })

let ensure_ws ws n marcs =
  if Array.length ws.elements < n then begin
    ws.elements <- Array.make n 0;
    ws.cell_of <- Array.make n 0;
    ws.pos <- Array.make n 0;
    ws.cell_len <- Array.make n 0;
    ws.on_stack <- Array.make n false;
    ws.clean <- Array.make n false;
    ws.stack <- Array.make n 0;
    ws.cnt <- Array.make n 0;
    ws.touched <- Array.make n 0;
    ws.tcells <- Array.make n 0;
    ws.tcount <- Array.make n 0;
    ws.tnext <- Array.make n 0
  end;
  if Array.length ws.arcbuf < marcs then ws.arcbuf <- Array.make (max 1 marcs) 0

(* ------------------------------------------------------------------ *)

let num_cells p =
  Array.fold_left (fun acc c -> max acc (c + 1)) 0 p

(* The worklist refiner. Maintains an ordered partition as contiguous
   segments of [elements]; a cell is identified by the start index of
   its segment. Processing splitter cell S splits every cell whose
   members see S unequally, one (direction, arc color) group at a time
   (equitability is a per-(direction, color) condition, so sequential
   splitting refines exactly as the combined signature does). Fragments
   of a split cell are ordered by ascending count — an
   isomorphism-invariant rule, so the final cell numbering is invariant
   like the old global-signature numbering was. Worklist discipline is
   Hopcroft's: a split cell that is still queued is replaced by all its
   fragments; otherwise all fragments but the largest are queued
   (counts against the parent are the sum of counts against the
   fragments, so the last fragment's splits are implied).

   Splitting pays only for the touched members of a cell. Once a color
   group's counts are in, [tcount] holds each touched cell's number of
   touched members; in a partly touched cell every touched member still
   in front is swapped ([pos] finds it, [tnext] walks the tail) into an
   untouched slot of the tail, and [split_cell] sorts only that tail.
   The untouched members stay in front as the count-0 fragment, which
   ascending-count order puts first anyway, so the fragments, the
   largest-fragment choice, the pushes and therefore the numbering are
   those of a whole-cell sort; only the order of members inside a
   fragment differs, and nothing reads it. A cell is scanned for uniform
   counts only when every member is touched. The work per splitter is
   thus bounded by its incident arcs (times a log for the sorts), and
   Hopcroft's rule makes the whole refinement O(m log² n) instead of
   quadratic on graphs peeled into distance spheres. For the same
   reason a one-color arc buffer is not sorted at all, and a symmetric
   digraph skips the out-arc pass of a splitter: it would repeat the
   in-arc counts its cells were just split by.

   [fresh] is -1, or, when [p0] is [split p u] of an equitable [p], the
   id [p.(u)] of the new cell {u} (the rest of u's old cell follows it):
   every other cell starts clean (see [individualize]). *)
let refine_worklist ~fresh (csr : Cdigraph.csr) (p0 : partition) :
    partition =
  let {
    Cdigraph.n;
    out_off;
    out_dst;
    out_col;
    in_off;
    in_src;
    in_col;
    symmetric;
  } =
    csr
  in
  let ws = Domain.DLS.get ws_key in
  ensure_ws ws n (Array.length out_dst + Array.length in_src);
  let elements = ws.elements
  and cell_of = ws.cell_of
  and pos = ws.pos
  and cell_len = ws.cell_len
  and on_stack = ws.on_stack
  and clean = ws.clean
  and stack = ws.stack
  and cnt = ws.cnt
  and touched = ws.touched
  and tcells = ws.tcells
  and tcount = ws.tcount
  and tnext = ws.tnext in
  let sp = ref 0 in
  (* telemetry tallies — two plain int cells, recorded into the ambient
     sink (if any) only on exit *)
  let splitters = ref 0 in
  let queue_hwm = ref 0 in
  let push s =
    if not on_stack.(s) then begin
      on_stack.(s) <- true;
      stack.(!sp) <- s;
      incr sp;
      if !sp > !queue_hwm then queue_hwm := !sp
    end
  in
  (* --- seed the ordered partition from p0 (dense ids, invariant) --- *)
  let k0 = num_cells p0 in
  for c = 0 to k0 - 1 do
    cnt.(c) <- 0
  done;
  Array.iter (fun c -> cnt.(c) <- cnt.(c) + 1) p0;
  (* prefix sums -> cell start per id, then place nodes *)
  let acc = ref 0 in
  for c = 0 to k0 - 1 do
    let sz = cnt.(c) in
    cnt.(c) <- !acc;
    acc := !acc + sz
  done;
  for u = 0 to n - 1 do
    let c = p0.(u) in
    let pos = cnt.(c) in
    elements.(pos) <- u;
    cnt.(c) <- pos + 1
  done;
  for c = 0 to k0 - 1 do
    cnt.(c) <- 0
  done;
  let i = ref 0 in
  while !i < n do
    let s = !i in
    let c = p0.(elements.(s)) in
    let j = ref s in
    while !j < n && p0.(elements.(!j)) = c do
      cell_of.(elements.(!j)) <- s;
      pos.(elements.(!j)) <- !j;
      incr j
    done;
    cell_len.(s) <- !j - s;
    on_stack.(s) <- false;
    clean.(s) <- fresh >= 0 && c <> fresh && c <> fresh + 1;
    push s;
    i := !j
  done;
  (* --- split one cell by the counts currently in [cnt]; its touched
     members are the [tcount] last ones --- *)
  let split_cell s =
    let len = cell_len.(s) in
    let lo = s + len - tcount.(s) in
    tcount.(s) <- 0;
    let hi = s + len in
    (* no split when every member is touched with one count *)
    if len > 1 && (lo > s || not (uniform_by elements cnt s hi)) then begin
      sort_sub_by elements cnt lo hi;
      (* fragment boundaries; fragments ordered by ascending count, the
         untouched (count-0) members [s, lo) first *)
      let was_queued = on_stack.(s) in
      clean.(s) <- false;
      let largest = ref s and largest_len = ref (lo - s) in
      if lo > s then cell_len.(s) <- lo - s;
      let f = ref lo in
      while !f < hi do
        let kv = cnt.(elements.(!f)) in
        let e = ref !f in
        while !e < hi && cnt.(elements.(!e)) = kv do
          let u = elements.(!e) in
          cell_of.(u) <- !f;
          pos.(u) <- !e;
          incr e
        done;
        cell_len.(!f) <- !e - !f;
        on_stack.(!f) <- !f = s && was_queued;
        clean.(!f) <- false;
        if !e - !f > !largest_len then begin
          largest := !f;
          largest_len := !e - !f
        end;
        f := !e
      done;
      let f = ref s in
      while !f < hi do
        if was_queued || !f <> !largest then push !f;
        f := !f + cell_len.(!f)
      done
    end
  in
  (* --- process one direction of arcs incident to the splitter ---
     [nb] packed (color * n + node) entries are in arcbuf. *)
  let process_buffer nb =
    if nb > 0 then begin
      let arcbuf = ws.arcbuf in
      (* color groups must come in ascending color order; the order
         inside a group only reorders members within fragments, so a
         one-color buffer needs no sort *)
      let kmin = ref arcbuf.(0) and kmax = ref arcbuf.(0) in
      for j = 1 to nb - 1 do
        let x = arcbuf.(j) in
        if x < !kmin then kmin := x else if x > !kmax then kmax := x
      done;
      if !kmin / n <> !kmax / n then sort_sub arcbuf 0 nb;
      let i = ref 0 in
      while !i < nb do
        let base = arcbuf.(!i) / n * n in
        (* accumulate counts for this color group *)
        let nt = ref 0 in
        while !i < nb && arcbuf.(!i) < base + n do
          let u = arcbuf.(!i) - base in
          if cnt.(u) = 0 then begin
            touched.(!nt) <- u;
            incr nt
          end;
          cnt.(u) <- cnt.(u) + 1;
          incr i
        done;
        (* collect affected cells and count their touched members *)
        let ntc = ref 0 in
        for j = 0 to !nt - 1 do
          let s = cell_of.(touched.(j)) in
          if tcount.(s) = 0 then begin
            tcells.(!ntc) <- s;
            incr ntc
          end;
          tcount.(s) <- tcount.(s) + 1
        done;
        (* in a partly touched cell, swap each touched member still in
           front into an untouched slot of the tail (on an equitable
           partition every touched cell is wholly touched: no swaps) *)
        let partial = ref false in
        for j = 0 to !ntc - 1 do
          let s = tcells.(j) in
          let lo = s + cell_len.(s) - tcount.(s) in
          tnext.(s) <- lo;
          if lo > s then partial := true
        done;
        if !partial then
          for j = 0 to !nt - 1 do
            let u = touched.(j) in
            let s = cell_of.(u) in
            let pu = pos.(u) in
            if pu < s + cell_len.(s) - tcount.(s) then begin
              let k = ref tnext.(s) in
              while cnt.(elements.(!k)) <> 0 do incr k done;
              let w = elements.(!k) in
              elements.(pu) <- w;
              pos.(w) <- pu;
              elements.(!k) <- u;
              pos.(u) <- !k;
              tnext.(s) <- !k + 1
            end
          done;
        (* split in start order (for invariance) *)
        sort_sub tcells 0 !ntc;
        for j = 0 to !ntc - 1 do
          split_cell tcells.(j)
        done;
        for j = 0 to !nt - 1 do
          cnt.(touched.(j)) <- 0
        done
      done
    end
  in
  (* --- main loop --- *)
  let arcbuf = ws.arcbuf in
  while !sp > 0 do
    decr sp;
    incr splitters;
    let s = stack.(!sp) in
    on_stack.(s) <- false;
    (* a clean splitter is an intact cell of an equitable input *)
    if not clean.(s) then begin
      let len = cell_len.(s) in
      (* nodes with out-arcs INTO the splitter (walk its in-arcs) *)
      let nb = ref 0 in
      for j = s to s + len - 1 do
        let v = elements.(j) in
        for a = in_off.(v) to in_off.(v + 1) - 1 do
          arcbuf.(!nb) <- (in_col.(a) * n) + in_src.(a);
          incr nb
        done
      done;
      process_buffer !nb;
      (* nodes with in-arcs FROM the splitter (walk its out-arcs); on a
         symmetric digraph these are the counts just split by, so no cell
         can split again *)
      if not symmetric then begin
        nb := 0;
        for j = s to s + len - 1 do
          let v = elements.(j) in
          for a = out_off.(v) to out_off.(v + 1) - 1 do
            arcbuf.(!nb) <- (out_col.(a) * n) + out_dst.(a);
            incr nb
          done
        done;
        process_buffer !nb
      end
    end
  done;
  (* --- emit dense invariant cell ids, left to right --- *)
  let p = Array.make n 0 in
  let idx = ref (-1) in
  let i = ref 0 in
  while !i < n do
    incr idx;
    let len = cell_len.(!i) in
    for j = !i to !i + len - 1 do
      p.(elements.(j)) <- !idx
    done;
    i := !i + len
  done;
  (match Qe_obs.Sink.ambient () with
  | None -> ()
  | Some s ->
      let m = s.Qe_obs.Sink.metrics in
      Qe_obs.Metrics.incr (Qe_obs.Metrics.counter m "refine.fixpoints");
      Qe_obs.Metrics.add
        (Qe_obs.Metrics.counter m "refine.splitters")
        !splitters;
      Qe_obs.Metrics.record_max
        (Qe_obs.Metrics.gauge m "refine.queue_hwm")
        !queue_hwm;
      Qe_obs.Metrics.observe
        (Qe_obs.Metrics.histogram m "refine.cells")
        (!idx + 1));
  p

(* ------------------------------------------------------------------ *)
(* The public API. *)

let rank_dense (keys : int array) : partition =
  (* dense ranks of int keys (ascending); replaces the old
     rank_assign + Hashtbl on the remaining cold paths *)
  let n = Array.length keys in
  let sorted = Array.copy keys in
  sort_sub sorted 0 n;
  (* unique in place *)
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || sorted.(i) <> sorted.(!k - 1) then begin
      sorted.(!k) <- sorted.(i);
      incr k
    end
  done;
  let rank key =
    let lo = ref 0 and hi = ref (!k - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) < key then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  Array.map rank keys

let initial g =
  rank_dense (Array.init (Cdigraph.n g) (Cdigraph.node_color g))

(* One global 1-WL round, semantically identical to the historical
   implementation (new cells ordered by (old cell, out-signature,
   in-signature)), but on packed int arrays with monomorphic compares
   instead of tuple lists under polymorphic [compare]. Kept as the
   reference round for View depth queries and as the differential
   baseline for the worklist refiner. *)
let step g p =
  let {
    Cdigraph.n;
    out_off;
    out_dst;
    out_col;
    in_off;
    in_src;
    in_col;
    symmetric = _;
  } =
    csr_of g
  in
  let k = num_cells p in
  (* signature of u: [| p.(u); sorted out keys; -1; sorted in keys |]
     where key = color * k + p.(target); -1 separates so that a
     prefix-shorter out-list sorts first, as the old list compare did *)
  let sigs =
    Array.init n (fun u ->
        let od = out_off.(u + 1) - out_off.(u) in
        let id = in_off.(u + 1) - in_off.(u) in
        let s = Array.make (od + id + 2) (-1) in
        s.(0) <- p.(u);
        for a = 0 to od - 1 do
          let b = out_off.(u) + a in
          s.(1 + a) <- (out_col.(b) * k) + p.(out_dst.(b))
        done;
        sort_sub s 1 (1 + od);
        for a = 0 to id - 1 do
          let b = in_off.(u) + a in
          s.(2 + od + a) <- (in_col.(b) * k) + p.(in_src.(b))
        done;
        sort_sub s (2 + od) (2 + od + id);
        s)
  in
  let cmp u v =
    let su = sigs.(u) and sv = sigs.(v) in
    let lu = Array.length su and lv = Array.length sv in
    let l = min lu lv in
    let rec go i =
      if i = l then Stdlib.compare lu lv
      else if su.(i) <> sv.(i) then Stdlib.compare su.(i) sv.(i)
      else go (i + 1)
    in
    go 0
  in
  let order = Array.init n Fun.id in
  Array.sort cmp order;
  let p' = Array.make n 0 in
  let rank = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && cmp order.(i - 1) order.(i) <> 0 then incr rank;
    p'.(order.(i)) <- !rank
  done;
  p'

let refine ~fresh g p0 =
  match Qe_obs.Sink.ambient () with
  | None -> refine_worklist ~fresh (csr_of g) p0
  | Some s ->
      let t0 = Qe_obs.Clock.now_ns () in
      let p = refine_worklist ~fresh (csr_of g) p0 in
      Qe_obs.Metrics.observe
        (Qe_obs.Metrics.latency s.Qe_obs.Sink.metrics "refine.fixpoint_latency")
        (Qe_obs.Clock.now_ns () - t0);
      p

let fixpoint g p0 = refine ~fresh:(-1) g p0
let equitable g = fixpoint g (initial g)

let split p u =
  (* u gets a cell of its own, ordered just before its old cellmates;
     cells renumbered densely preserving order. *)
  let n = Array.length p in
  let c = p.(u) in
  let alone = ref true in
  for v = 0 to n - 1 do
    if v <> u && p.(v) = c then alone := false
  done;
  if !alone then Array.copy p
  else
    Array.init n (fun v ->
        if v = u then c
        else if p.(v) < c then p.(v)
        else p.(v) + 1)

(* [fixpoint g (split p u)] for an equitable [p]. Every cell of [p]
   other than [u]'s old one stays marked clean while it is intact: all
   members of any cell see it equally (that is [p]'s equitability, and
   finer cells inherit it), so popping it could split nothing and is
   skipped. The pops, the pushes and the numbering are those of
   [fixpoint]. *)
let individualize g p u = refine ~fresh:p.(u) g (split p u)

let cell_members p =
  let k = num_cells p in
  let cells = Array.make k [] in
  for u = Array.length p - 1 downto 0 do
    cells.(p.(u)) <- u :: cells.(p.(u))
  done;
  cells

let first_non_singleton p =
  (* members (ascending) of the lowest-id cell with >= 2 members, or []
     if the partition is discrete — O(n), no per-cell lists *)
  let n = Array.length p in
  let count = Array.make n 0 in
  Array.iter (fun c -> count.(c) <- count.(c) + 1) p;
  let rec find c = if c >= n then -1 else if count.(c) >= 2 then c else find (c + 1) in
  let c = find 0 in
  if c < 0 then []
  else begin
    let members = ref [] in
    for u = n - 1 downto 0 do
      if p.(u) = c then members := u :: !members
    done;
    !members
  end

let is_discrete p = num_cells p = Array.length p

let rounds_to_stability g =
  let rec go p rounds =
    let p' = step g p in
    if num_cells p' = num_cells p then rounds else go p' (rounds + 1)
  in
  go (initial g) 0
