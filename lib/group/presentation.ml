module Graph = Qe_graph.Graph
module Csr = Qe_graph.Csr
module Labeling = Qe_graph.Labeling
module Traverse = Qe_graph.Traverse
module Sink = Qe_obs.Sink
module Span = Qe_obs.Span
module Jsonl = Qe_obs.Jsonl

(* A group is its order plus multiplication/inverse closures over the
   elements [0 .. order-1], element 0 the identity. Constructions
   compose arithmetically (mixed-radix encodings) and scale to 10^5-10^6
   elements; a table backs a group only where the input is a table. *)
type t = {
  order : int;
  mul : int -> int -> int;
  inv : int -> int;
  name : string;
}

let order p = p.order
let name p = p.name
let mul p = p.mul
let inv p = p.inv
let is_involution p s = s <> 0 && p.mul s s = 0

let elt_order p a =
  let rec go x k = if x = 0 then k else go (p.mul x a) (k + 1) in
  if a = 0 then 1 else go a 1

let of_mul_table ?(name = "G") table =
  let n = Array.length table in
  if n = 0 then invalid_arg "Presentation.of_mul_table: empty table";
  Array.iter
    (fun row ->
      if Array.length row <> n then
        invalid_arg "Presentation.of_mul_table: table not square";
      Array.iter
        (fun x ->
          if x < 0 || x >= n then
            invalid_arg "Presentation.of_mul_table: entry out of range")
        row)
    table;
  for a = 0 to n - 1 do
    if table.(0).(a) <> a || table.(a).(0) <> a then
      invalid_arg "Presentation.of_mul_table: element 0 is not the identity"
  done;
  let assoc a b c =
    if table.(table.(a).(b)).(c) <> table.(a).(table.(b).(c)) then
      invalid_arg "Presentation.of_mul_table: not associative"
  in
  if n <= 256 then
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        for c = 0 to n - 1 do
          assoc a b c
        done
      done
    done
  else begin
    (* Exhaustive checking is O(n^3); for large tables spot-check a
       deterministic sample instead (the check guards against typos in
       hand-built tables). *)
    let st = Random.State.make [| n; 0x5eed |] in
    for _ = 1 to 2_000_000 do
      assoc (Random.State.int st n) (Random.State.int st n)
        (Random.State.int st n)
    done
  end;
  let inv_table = Array.make n (-1) in
  for a = 0 to n - 1 do
    for b = 0 to n - 1 do
      if table.(a).(b) = 0 then inv_table.(a) <- b
    done
  done;
  Array.iteri
    (fun a i ->
      if i < 0 then
        invalid_arg
          (Printf.sprintf
             "Presentation.of_mul_table: element %d has no inverse" a))
    inv_table;
  {
    order = n;
    mul = (fun a b -> table.(a).(b));
    inv = (fun a -> inv_table.(a));
    name;
  }

(* [a * b], or [Invalid_argument] naming [ctor] when it exceeds max_int *)
let checked_mul ctor a b =
  if a > max_int / b then
    invalid_arg (ctor ^ ": group order exceeds max_int");
  a * b

(* [Invalid_argument "Presentation.<ctor>: <reason>"], formatted only
   on rejection *)
let reject ctor fmt =
  Printf.ksprintf
    (fun why -> invalid_arg ("Presentation." ^ ctor ^ ": " ^ why))
    fmt

let cyclic n =
  if n < 1 then reject "cyclic" "n must be >= 1 (got %d)" n;
  {
    order = n;
    mul = (fun a b -> (a + b) mod n);
    inv = (fun a -> (n - a) mod n);
    name = Printf.sprintf "Z%d" n;
  }

(* (a, b) encoded as a * |h| + b *)
let product g h =
  let oh = h.order in
  {
    order = checked_mul "Presentation.product" g.order oh;
    mul =
      (fun x y ->
        (g.mul (x / oh) (y / oh) * oh) + h.mul (x mod oh) (y mod oh));
    inv = (fun x -> (g.inv (x / oh) * oh) + h.inv (x mod oh));
    name = g.name ^ "x" ^ h.name;
  }

(* The k-fold product in one mixed-radix loop, digit j (from the least
   significant) the factor k-1-j: the same encoding as folding [product],
   without k levels of nested closures. A group of order 2 has one table,
   so its power multiplies by [lxor]. *)
let power g k =
  if k < 1 then reject "power" "k must be >= 1 (got %d)" k;
  let og = g.order in
  let order = ref 1 in
  for _ = 1 to k do
    order := checked_mul "Presentation.power" !order og
  done;
  let name = String.concat "x" (List.init k (fun _ -> g.name)) in
  if og = 2 then { order = !order; mul = ( lxor ); inv = Fun.id; name }
  else
    (* [f] applied digit by digit *)
    let digitwise f x y =
      let r = ref 0 and x = ref x and y = ref y and place = ref 1 in
      for _ = 1 to k do
        r := !r + (f (!x mod og) (!y mod og) * !place);
        x := !x / og;
        y := !y / og;
        place := !place * og
      done;
      !r
    in
    {
      order = !order;
      mul = digitwise g.mul;
      inv = (fun x -> digitwise (fun a _ -> g.inv a) x 0);
      name;
    }

let dihedral n =
  if n < 1 then reject "dihedral" "n must be >= 1 (got %d)" n;
  (* rotations r^i are 0..n-1, reflections s*r^i are n..2n-1 *)
  let md x = ((x mod n) + n) mod n in
  let mul x y =
    match (x < n, y < n) with
    | true, true -> md (x + y)
    | true, false -> n + md (y - n - x)
    | false, true -> n + md (x - n + y)
    | false, false -> md (y - x)
  in
  let inv x = if x < n then md (-x) else x in
  { order = 2 * n; mul; inv; name = Printf.sprintf "D%d" n }

(* Z_base^d ⋊ Z_d with the cyclic coordinate shift — the wreath-like
   product Z_base ≀ Z_d. Element (w, i) is encoded [w * d + i] with [w]
   a base-[base] digit vector; for [base = 2] its Cayley graph on
   [{shift, flip_0}] is CCC_d. *)
let wreath_shift ~base d =
  if base < 2 then
    reject "wreath_shift" "base must be >= 2 (got %d)" base;
  if d < 1 then reject "wreath_shift" "d must be >= 1 (got %d)" d;
  let pow_base = Array.make (d + 1) 1 in
  for i = 1 to d do
    pow_base.(i) <- checked_mul "Presentation.wreath_shift" pow_base.(i - 1) base
  done;
  let order = checked_mul "Presentation.wreath_shift" pow_base.(d) d in
  (* digit b of shift_i(w) is digit ((b - i) mod d) of w: a rotation of
     the digit string up by i places, so the low d - i digits move up
     and the top i wrap around to the bottom *)
  let shift w i =
    ((w mod pow_base.(d - i)) * pow_base.(i)) + (w / pow_base.(d - i))
  in
  (* digit-wise addition mod [base]: xor in base 2, where every vector
     is its own negative *)
  let add, neg =
    if base = 2 then (( lxor ), Fun.id)
    else
      let digit w b = w / pow_base.(b) mod base in
      ( (fun w w' ->
          let r = ref 0 in
          for b = 0 to d - 1 do
            r := !r + ((digit w b + digit w' b) mod base * pow_base.(b))
          done;
          !r),
        fun w ->
          let r = ref 0 in
          for b = 0 to d - 1 do
            r := !r + ((base - digit w b) mod base * pow_base.(b))
          done;
          !r )
  in
  let mul x y =
    let w = x / d and i = x mod d in
    let w' = y / d and i' = y mod d in
    ((add w (shift w' i)) * d) + ((i + i') mod d)
  in
  let inv x =
    let w = x / d and i = x mod d in
    let i' = (d - i) mod d in
    (shift (neg w) i' * d) + i'
  in
  { order; mul; inv; name = Printf.sprintf "Z%d^%d:Z%d" base d d }

let semidirect_shift d = wreath_shift ~base:2 d

(* ------------------------------------------------------------------ *)
(* The large-instance generator: a Cayley graph streamed straight into
   CSR — no edge lists, no per-node tables — with the natural labeling
   (port toward v at u carries u⁻¹v) and a transitivity witness (left
   translations) registered on the graph. *)

type instance = {
  graph : Graph.t;
  labeling : Labeling.t;
  connection : int list;
  group : t;
}

let cayley p gens =
  if gens = [] then invalid_arg "Presentation.cayley: empty generating set";
  List.iter
    (fun s ->
      if s <= 0 || s >= p.order then
        invalid_arg "Presentation.cayley: generator out of range (or identity)")
    gens;
  let connection =
    List.sort_uniq compare
      (List.concat_map (fun s -> [ s; p.inv s ]) gens)
  in
  let n = p.order in
  (* Each unordered edge {a, a*s} is listed exactly once, per generator in
     sorted connection order: involutions from their smaller endpoint,
     non-involutions via the smaller of {s, s⁻¹}. Each such generator
     emits one block of consecutive edge ids: n/2 for an involution (it
     pairs the nodes perfectly), n otherwise. *)
  let emitted =
    Array.of_list
      (List.filter (fun s -> is_involution p s || s < p.inv s) connection)
  in
  let block_len s = if is_involution p s then n / 2 else n in
  let block_start = Array.make (Array.length emitted + 1) 0 in
  Array.iteri
    (fun k s -> block_start.(k + 1) <- block_start.(k) + block_len s)
    emitted;
  let m = block_start.(Array.length emitted) in
  (* generation spans, under an ambient sink only: without one, the
     cost is this one probe *)
  let tracer = Option.map (fun sink -> sink.Sink.spans) (Sink.ambient ()) in
  let stage ?attrs name f =
    match tracer with None -> f () | Some t -> Span.with_span ?attrs t name f
  in
  stage ~attrs:[ ("n", Jsonl.Int n); ("m", Jsonl.Int m) ] "gen.cayley"
  @@ fun () ->
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  stage "gen.edges" (fun () ->
      Array.iteri
        (fun k s ->
          let e = ref block_start.(k) in
          let involution = is_involution p s in
          for a = 0 to n - 1 do
            let b = p.mul a s in
            if (not involution) || a < b then begin
              edge_u.(!e) <- a;
              edge_v.(!e) <- b;
              incr e
            end
          done;
          assert (!e = block_start.(k + 1)))
        emitted);
  let csr = stage "gen.csr" (fun () -> Csr.of_endpoints ~n edge_u edge_v) in
  let graph = Graph.of_csr csr in
  (* A Cayley graph is connected iff its connection set generates the
     group: one BFS over the built CSR checks generation. *)
  if not (stage "gen.connected" (fun () -> Traverse.is_connected graph)) then
    invalid_arg "Presentation.cayley: set does not generate the group";
  (* port symbol = the generator this dart follows, u⁻¹v: edge {a, a·s}
     reads s at a and s⁻¹ at a·s, and its id names its block, so the
     label needs no group arithmetic *)
  let emitted_inv = Array.map p.inv emitted in
  let block_of e =
    let rec go lo hi =
      (* block_start.(lo) <= e < block_start.(hi) *)
      if hi - lo = 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if block_start.(mid) <= e then go mid hi else go lo mid
    in
    go 0 (Array.length emitted)
  in
  let labeling =
    stage "gen.labeling" (fun () ->
        Labeling.make graph (fun u i ->
            let e = csr.Csr.edge.(csr.Csr.off.(u) + i) in
            let k = block_of e in
            if csr.Csr.edge_u.(e) = u then emitted.(k) else emitted_inv.(k)))
  in
  stage "gen.witness" (fun () ->
      Graph.set_transitivity_witness graph
        {
          Graph.w_gens =
            Array.of_list
              (List.map
                 (fun s -> Array.init n (fun a -> p.mul s a))
                 connection);
        });
  { graph; labeling; connection; group = p }

let circulant n jumps =
  Qe_graph.Families.circulant_range ~ctor:"Presentation.circulant" n jumps;
  cayley (cyclic n) jumps

let cube_connected_cycles d =
  if d < 3 then reject "cube_connected_cycles" "d must be >= 3 (got %d)" d;
  cayley (semidirect_shift d) [ 1; d ]
