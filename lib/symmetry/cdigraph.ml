module Graph = Qe_graph.Graph
module Csr = Qe_graph.Csr
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module Traverse = Qe_graph.Traverse

type arc = { src : int; dst : int; color : int }

type csr = {
  n : int;
  out_off : int array;
  out_dst : int array;
  out_col : int array;
  in_off : int array;
  in_src : int array;
  in_col : int array;
  symmetric : bool;
}

type t = {
  n : int;
  node_colors : int array;
  (* insertion-order arc arrays — the identity-preserving view *)
  asrc : int array;
  adst : int array;
  acol : int array;
  (* sorted flat adjacency — the view refinement iterates *)
  csr : csr;
}

(* Lexicographic quicksort of the paired slices [lo, hi) of two int
   arrays — sorts (key.(i), aux.(i)) pairs in place without boxing. *)
let rec sort2 (key : int array) (aux : int array) lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi - 1 do
      let k = key.(i) and x = aux.(i) in
      let j = ref (i - 1) in
      while
        !j >= lo && (key.(!j) > k || (key.(!j) = k && aux.(!j) > x))
      do
        key.(!j + 1) <- key.(!j);
        aux.(!j + 1) <- aux.(!j);
        decr j
      done;
      key.(!j + 1) <- k;
      aux.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    (* median-of-3 pivot on (key, aux) pairs *)
    let pk, pa =
      let xk = key.(lo) and xa = aux.(lo) in
      let yk = key.(mid) and ya = aux.(mid) in
      let zk = key.(hi - 1) and za = aux.(hi - 1) in
      let lt ak aa bk ba = ak < bk || (ak = bk && aa < ba) in
      if lt xk xa yk ya then
        if lt yk ya zk za then (yk, ya)
        else if lt xk xa zk za then (zk, za)
        else (xk, xa)
      else if lt xk xa zk za then (xk, xa)
      else if lt yk ya zk za then (zk, za)
      else (yk, ya)
    in
    let lt_p k a = k < pk || (k = pk && a < pa) in
    let gt_p k a = k > pk || (k = pk && a > pa) in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while lt_p key.(!i) aux.(!i) do incr i done;
      while gt_p key.(!j) aux.(!j) do decr j done;
      if !i <= !j then begin
        let tk = key.(!i) and ta = aux.(!i) in
        key.(!i) <- key.(!j);
        aux.(!i) <- aux.(!j);
        key.(!j) <- tk;
        aux.(!j) <- ta;
        incr i;
        decr j
      end
    done;
    sort2 key aux lo (!j + 1);
    sort2 key aux !i hi
  end

let build_csr ~n asrc adst acol =
  let m = Array.length asrc in
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    out_off.(asrc.(i) + 1) <- out_off.(asrc.(i) + 1) + 1;
    in_off.(adst.(i) + 1) <- in_off.(adst.(i) + 1) + 1
  done;
  for u = 0 to n - 1 do
    out_off.(u + 1) <- out_off.(u + 1) + out_off.(u);
    in_off.(u + 1) <- in_off.(u + 1) + in_off.(u)
  done;
  let out_dst = Array.make m 0 and out_col = Array.make m 0 in
  let in_src = Array.make m 0 and in_col = Array.make m 0 in
  let onext = Array.sub out_off 0 n and inext = Array.sub in_off 0 n in
  for i = 0 to m - 1 do
    let s = asrc.(i) and d = adst.(i) and c = acol.(i) in
    let os = onext.(s) in
    onext.(s) <- os + 1;
    out_dst.(os) <- d;
    out_col.(os) <- c;
    let is = inext.(d) in
    inext.(d) <- is + 1;
    in_src.(is) <- s;
    in_col.(is) <- c
  done;
  for u = 0 to n - 1 do
    sort2 out_dst out_col out_off.(u) out_off.(u + 1);
    sort2 in_src in_col in_off.(u) in_off.(u + 1)
  done;
  let symmetric = out_off = in_off && out_dst = in_src && out_col = in_col in
  { n; out_off; out_dst; out_col; in_off; in_src; in_col; symmetric }

(* Primary constructor: takes ownership of the arrays (no copies). *)
let make_arrays ~n ~node_colors asrc adst acol =
  if n <= 0 then invalid_arg "Cdigraph.make: n must be positive";
  let m = Array.length asrc in
  if Array.length adst <> m || Array.length acol <> m then
    invalid_arg "Cdigraph.make: arc arrays differ in length";
  for i = 0 to m - 1 do
    let s = asrc.(i) and d = adst.(i) in
    if s < 0 || s >= n || d < 0 || d >= n then
      invalid_arg "Cdigraph.make: arc endpoint out of range";
    if acol.(i) < 0 then invalid_arg "Cdigraph.make: negative arc color"
  done;
  if Array.length node_colors <> n then
    invalid_arg "Cdigraph.make: node color array of wrong length";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Cdigraph.make: negative node color")
    node_colors;
  { n; node_colors; asrc; adst; acol; csr = build_csr ~n asrc adst acol }

let make ~n ~node_color arc_list =
  if n <= 0 then invalid_arg "Cdigraph.make: n must be positive";
  let m = List.length arc_list in
  let asrc = Array.make m 0
  and adst = Array.make m 0
  and acol = Array.make m 0 in
  List.iteri
    (fun i a ->
      asrc.(i) <- a.src;
      adst.(i) <- a.dst;
      acol.(i) <- a.color)
    arc_list;
  let node_colors = Array.init n node_color in
  make_arrays ~n ~node_colors asrc adst acol

let n g = g.n
let node_color g u = g.node_colors.(u)
let node_colors_array g = g.node_colors
let csr g = g.csr
let arcs_arrays g = (g.asrc, g.adst, g.acol)

let arcs g =
  let rec go i =
    if i >= Array.length g.asrc then []
    else { src = g.asrc.(i); dst = g.adst.(i); color = g.acol.(i) } :: go (i + 1)
  in
  go 0

let slice_pairs a b lo hi =
  let rec go i = if i >= hi then [] else (a.(i), b.(i)) :: go (i + 1) in
  go lo

let out_arcs g u =
  slice_pairs g.csr.out_dst g.csr.out_col g.csr.out_off.(u)
    g.csr.out_off.(u + 1)

let in_arcs g u =
  slice_pairs g.csr.in_src g.csr.in_col g.csr.in_off.(u) g.csr.in_off.(u + 1)

let num_arcs g = Array.length g.asrc

let relabel g perm =
  let m = num_arcs g in
  let asrc = Array.make m 0 and adst = Array.make m 0 in
  for i = 0 to m - 1 do
    asrc.(i) <- perm.(g.asrc.(i));
    adst.(i) <- perm.(g.adst.(i))
  done;
  let node_colors = Array.make g.n 0 in
  Array.iteri (fun old nw -> node_colors.(nw) <- g.node_colors.(old)) perm;
  make_arrays ~n:g.n ~node_colors asrc adst (Array.copy g.acol)

(* Arc index permutation sorting (src, dst, color) lexicographically —
   the order-independent arc view behind [equal] and the identity
   certificate. *)
let sorted_arc_index g =
  let m = num_arcs g in
  let idx = Array.init m Fun.id in
  let cmp i j =
    if g.asrc.(i) <> g.asrc.(j) then compare g.asrc.(i) g.asrc.(j)
    else if g.adst.(i) <> g.adst.(j) then compare g.adst.(i) g.adst.(j)
    else compare g.acol.(i) g.acol.(j)
  in
  Array.sort cmp idx;
  idx

let equal a b =
  a.n = b.n && a.node_colors = b.node_colors
  && num_arcs a = num_arcs b
  &&
  let ia = sorted_arc_index a and ib = sorted_arc_index b in
  let m = num_arcs a in
  let rec go i =
    i >= m
    || a.asrc.(ia.(i)) = b.asrc.(ib.(i))
       && a.adst.(ia.(i)) = b.adst.(ib.(i))
       && a.acol.(ia.(i)) = b.acol.(ib.(i))
       && go (i + 1)
  in
  go 0

let certificate_of_identity g =
  let buf = Buffer.create (16 + (8 * g.n)) in
  Buffer.add_string buf (string_of_int g.n);
  Buffer.add_char buf '|';
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf ',')
    g.node_colors;
  Buffer.add_char buf '|';
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int g.asrc.(i));
      Buffer.add_char buf '>';
      Buffer.add_string buf (string_of_int g.adst.(i));
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int g.acol.(i));
      Buffer.add_char buf ';')
    (sorted_arc_index g);
  Buffer.contents buf

(* --- Embeddings --- *)
(* All embeddings stream the graph's CSR darts straight into flat arc
   arrays: no intermediate lists, no per-node structures. *)

let of_graph ?node_color g =
  let n = Graph.n g in
  let na = 2 * Graph.m g in
  let asrc = Array.make na 0 and adst = Array.make na 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    Graph.iter_darts g u (fun _ d _ _ ->
        asrc.(!k) <- u;
        adst.(!k) <- d;
        incr k)
  done;
  let node_colors =
    match node_color with
    | None -> Array.make n 0
    | Some f -> Array.init n f
  in
  make_arrays ~n ~node_colors asrc adst (Array.make na 0)

let of_bicolored b =
  of_graph ~node_color:(Bicolored.node_color b) (Bicolored.graph b)

let pair_encode a b = ((a + b) * (a + b + 1) / 2) + b

let of_labeled ?node_color l =
  let g = Labeling.graph l in
  let n = Graph.n g in
  let na = 2 * Graph.m g in
  let asrc = Array.make na 0
  and adst = Array.make na 0
  and acol = Array.make na 0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    Graph.iter_darts g u (fun i d dp _ ->
        let near = Labeling.symbol l u i in
        let far = Labeling.symbol l d dp in
        asrc.(!k) <- u;
        adst.(!k) <- d;
        acol.(!k) <- pair_encode near far;
        incr k)
  done;
  let node_colors =
    match node_color with
    | None -> Array.make n 0
    | Some f -> Array.init n f
  in
  make_arrays ~n ~node_colors asrc adst acol

let of_surrounding b u =
  let g = Bicolored.graph b in
  let n = Graph.n g in
  let dist = Traverse.bfs_distances g u in
  let count = ref 0 in
  for x = 0 to n - 1 do
    Graph.iter_darts g x (fun _ d _ _ ->
        if dist.(x) <= dist.(d) then incr count)
  done;
  let na = !count in
  let asrc = Array.make na 0 and adst = Array.make na 0 in
  let k = ref 0 in
  for x = 0 to n - 1 do
    Graph.iter_darts g x (fun _ d _ _ ->
        if dist.(x) <= dist.(d) then begin
          asrc.(!k) <- x;
          adst.(!k) <- d;
          incr k
        end)
  done;
  let node_colors = Array.init n (Bicolored.node_color b) in
  make_arrays ~n ~node_colors asrc adst (Array.make na 0)

let pp ppf g =
  Format.fprintf ppf "@[<v>cdigraph n=%d arcs=%d@," g.n (num_arcs g);
  for i = 0 to num_arcs g - 1 do
    Format.fprintf ppf "  %d ->%d (c%d)@," g.asrc.(i) g.adst.(i) g.acol.(i)
  done;
  Format.fprintf ppf "@]"
