exception Budget_exceeded

type result = {
  certificate : string;
  canonical_labeling : int array;
  generators : int array list;
  orbits : int array;
  leaves_visited : int;
}

(* Union-find over nodes, used for orbit bookkeeping. *)
module Uf = struct
  let create n = Array.init n Fun.id

  let rec find uf x = if uf.(x) = x then x else begin
    let r = find uf uf.(x) in
    uf.(x) <- r;
    r
  end

  let union uf x y =
    let rx = find uf x and ry = find uf y in
    if rx <> ry then
      (* keep the smaller node as representative *)
      if rx < ry then uf.(ry) <- rx else uf.(rx) <- ry
end

(* Growable int buffer for the best invariant path. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 256 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1
end

let rec sort_sub (a : int array) lo hi =
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

let compare_int_arrays (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let l = min la lb in
  let rec go i =
    if i = l then Stdlib.compare la lb
    else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

(* The string form prefixes n, m and kcol so certificates stay
   injective across graphs. *)
let certificate_string ~n ~m ~kcol (cert_ints : int array) =
  let buf = Buffer.create (16 + (8 * Array.length cert_ints)) in
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int m);
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int kcol);
  Buffer.add_char buf '|';
  Array.iter
    (fun x ->
      Buffer.add_string buf (string_of_int x);
      Buffer.add_char buf ',')
    cert_ints;
  Buffer.contents buf

let run ?(max_leaves = 200_000) g =
  (* Flat arc arrays, zero-copy: the digraph stores them and the
     search only reads them. *)
  let n = Cdigraph.n g in
  let m = Cdigraph.num_arcs g in
  let asrc, adst, acol = Cdigraph.arcs_arrays g in
  let kcol = 1 + Array.fold_left max 0 acol in
  let colors = Cdigraph.node_colors_array g in
  (* Leaf certificate as an int array: node colors in canonical order,
     then arcs packed as ((src' * n + dst') * kcol + color), sorted.
     Leaves of the same graph compare lexicographically; the string form
     (built once at the end) prefixes n, m and kcol so certificates stay
     injective across graphs. *)
  let cert_len = n + m in
  let scratch = Array.make (max 1 cert_len) 0 in
  let leaf_cert p =
    for u = 0 to n - 1 do
      scratch.(p.(u)) <- colors.(u)
    done;
    for i = 0 to m - 1 do
      scratch.(n + i) <- ((((p.(asrc.(i)) * n) + p.(adst.(i))) * kcol) + acol.(i))
    done;
    sort_sub scratch n cert_len;
    scratch
  in
  (* --- search state --- *)
  let best_cert = ref None in
  let best_label = ref [||] in
  let generators = ref [] in
  let uf = Uf.create n in
  let leaves = ref 0 in
  (* telemetry tallies — plain ints, flushed to the ambient sink on exit *)
  let nodes = ref 0 in
  let prune_orbit = ref 0 in
  let prune_invariant = ref 0 in
  (* Best invariant path: the concatenated per-level invariants
     ([num cells; cell sizes...] per tree node) of the most promising
     root-to-leaf prefix found so far. A node whose level invariant is
     lexicographically greater than the recorded one cannot contain the
     canonical leaf and is pruned; a node with a smaller one truncates
     the record, invalidates the best leaf and starts refilling. The
     invariant is isomorphism-invariant, so the surviving minimal leaf —
     and hence the certificate — still is too. *)
  let best_path = Ibuf.create () in
  let seg = Array.make (n + 1) 0 in
  let sizes = Array.make (max 1 n) 0 in
  let level_invariant p =
    (* fills [seg] with [k; size_1; ...; size_k]; returns its length *)
    Array.fill sizes 0 n 0;
    let k = ref 0 in
    Array.iter
      (fun c ->
        sizes.(c) <- sizes.(c) + 1;
        if c + 1 > !k then k := c + 1)
      p;
    seg.(0) <- !k;
    for c = 0 to !k - 1 do
      seg.(c + 1) <- sizes.(c)
    done;
    !k + 1
  in
  (* Composition: automorphism mapping node u to the node v such that
     best.(v) = current.(u). *)
  let automorphism_of_leaves p_best p_cur =
    let inv_best = Array.make n (-1) in
    Array.iteri (fun v pos -> inv_best.(pos) <- v) p_best;
    Array.init n (fun u -> inv_best.(p_cur.(u)))
  in
  let record_automorphism phi =
    let is_id = ref true in
    Array.iteri (fun u v -> if u <> v then is_id := false) phi;
    if not !is_id then begin
      generators := phi :: !generators;
      Array.iteri (fun u v -> Uf.union uf u v) phi
    end
  in
  (* Orbit pruning: candidate [v] may be skipped when its orbit under the
     subgroup stabilizing [prefix] pointwise meets an already-tried node
     (orbit membership is symmetric, so one BFS from [v] suffices).
     Scratch arrays are generation-stamped to avoid clearing. *)
  let seen = Array.make (max 1 n) (-1) in
  let bfsq = Array.make (max 1 n) 0 in
  let stamp = ref 0 in
  let orbit_meets_tried prefix tried v =
    match tried with
    | [] -> false
    | _ ->
        let stab_gens =
          List.filter
            (fun phi -> List.for_all (fun w -> phi.(w) = w) prefix)
            !generators
        in
        incr stamp;
        let s = !stamp in
        seen.(v) <- s;
        bfsq.(0) <- v;
        let head = ref 0 and tail = ref 1 in
        let hit = ref false in
        while (not !hit) && !head < !tail do
          let y = bfsq.(!head) in
          incr head;
          if List.mem y tried then hit := true
          else
            List.iter
              (fun phi ->
                let z = phi.(y) in
                if seen.(z) <> s then begin
                  seen.(z) <- s;
                  bfsq.(!tail) <- z;
                  incr tail
                end)
              stab_gens
        done;
        !hit
  in
  (* [off] is this node's offset into the best invariant path; returns
     the child offset, or -1 to prune the subtree. *)
  let check_invariant off seglen =
    if off = best_path.Ibuf.len then begin
      (* new territory (an ancestor truncated, or first descent) *)
      for i = 0 to seglen - 1 do
        Ibuf.push best_path seg.(i)
      done;
      off + seglen
    end
    else begin
      let stored = best_path.Ibuf.a in
      let limit = min best_path.Ibuf.len (off + seglen) in
      let rec cmp i =
        if off + i >= limit then 0
        else if seg.(i) <> stored.(off + i) then
          Stdlib.compare seg.(i) stored.(off + i)
        else cmp (i + 1)
      in
      let c = cmp 0 in
      if c > 0 then -1
      else if c = 0 then off + seglen
      else begin
        (* strictly better branch: re-anchor the record here *)
        best_path.Ibuf.len <- off;
        for i = 0 to seglen - 1 do
          Ibuf.push best_path seg.(i)
        done;
        best_cert := None;
        off + seglen
      end
    end
  in
  let rec search p prefix off =
    incr nodes;
    let seglen = level_invariant p in
    let off' = check_invariant off seglen in
    if off' < 0 then incr prune_invariant
    else begin
      if Refine.is_discrete p then begin
        incr leaves;
        if !leaves > max_leaves then raise Budget_exceeded;
        let cert = leaf_cert p in
        match !best_cert with
        | None ->
            best_cert := Some (Array.copy cert);
            best_label := Array.copy p
        | Some bc ->
            let cmp = compare_int_arrays cert bc in
            if cmp < 0 then begin
              best_cert := Some (Array.copy cert);
              best_label := Array.copy p
            end
            else if cmp = 0 then
              record_automorphism (automorphism_of_leaves !best_label p)
      end
      else begin
        (* Target: the first non-singleton cell. *)
        let target = Refine.first_non_singleton p in
        let tried = ref [] in
        List.iter
          (fun v ->
            if orbit_meets_tried prefix !tried v then incr prune_orbit
            else begin
              tried := v :: !tried;
              let p' = Refine.fixpoint g (Refine.split p v) in
              search p' (v :: prefix) off'
            end)
          target
      end
    end
  in
  let t_start =
    match Qe_obs.Sink.ambient () with
    | Some _ -> Qe_obs.Clock.now_ns ()
    | None -> 0
  in
  let flush_telemetry () =
    match Qe_obs.Sink.ambient () with
    | None -> ()
    | Some s ->
        let open Qe_obs.Metrics in
        let m = s.Qe_obs.Sink.metrics in
        incr (counter m "canon.runs");
        add (counter m "canon.nodes") !nodes;
        add (counter m "canon.leaves") !leaves;
        add (counter m "canon.prune.orbit") !prune_orbit;
        add (counter m "canon.prune.invariant") !prune_invariant;
        add (counter m "canon.generators") (List.length !generators);
        observe (histogram m "canon.leaves_per_run") !leaves;
        if t_start <> 0 then
          observe
            (latency m "canon.run_latency")
            (Qe_obs.Clock.now_ns () - t_start)
  in
  (try search (Refine.equitable g) [] 0
   with e ->
     flush_telemetry ();
     raise e);
  flush_telemetry ();
  let cert_ints =
    match !best_cert with Some c -> c | None -> assert false
  in
  let certificate = certificate_string ~n ~m ~kcol cert_ints in
  let orbits = Array.init n (fun u -> Uf.find uf u) in
  {
    certificate;
    canonical_labeling = !best_label;
    generators = !generators;
    orbits;
    leaves_visited = !leaves;
  }

let certificate ?max_leaves g = (run ?max_leaves g).certificate

let canonical_form ?max_leaves g =
  Cdigraph.relabel g (run ?max_leaves g).canonical_labeling

let isomorphic ?max_leaves a b =
  Cdigraph.n a = Cdigraph.n b
  && Cdigraph.num_arcs a = Cdigraph.num_arcs b
  && String.equal (certificate ?max_leaves a) (certificate ?max_leaves b)
