module Graph = Qe_graph.Graph
module Csr = Qe_graph.Csr
module Labeling = Qe_graph.Labeling
module Traverse = Qe_graph.Traverse

(* Implicit groups: order + multiplication/inverse closures instead of
   the O(n^2) table {!Group.t} stores. Element encodings agree with the
   corresponding {!Group} constructions wherever both exist (verified in
   the test suite), so small presentations are drop-in table
   replacements and large ones scale to 10^5-10^6 elements. *)
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

let of_group g =
  {
    order = Group.order g;
    mul = Group.mul g;
    inv = Group.inv g;
    name = Group.name g;
  }

let cyclic n =
  if n < 1 then invalid_arg "Presentation.cyclic";
  {
    order = n;
    mul = (fun a b -> (a + b) mod n);
    inv = (fun a -> (n - a) mod n);
    name = Printf.sprintf "Z%d" n;
  }

(* (a, b) encoded as a * |h| + b — identical to {!Group.product}. *)
let product g h =
  let oh = h.order in
  {
    order = g.order * oh;
    mul =
      (fun x y ->
        (g.mul (x / oh) (y / oh) * oh) + h.mul (x mod oh) (y mod oh));
    inv = (fun x -> (g.inv (x / oh) * oh) + h.inv (x mod oh));
    name = g.name ^ "x" ^ h.name;
  }

let power g k =
  if k < 1 then invalid_arg "Presentation.power";
  let rec go acc k = if k = 0 then acc else go (product acc g) (k - 1) in
  go g (k - 1)

let dihedral n =
  if n < 1 then invalid_arg "Presentation.dihedral";
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
   a base-[base] digit vector; for [base = 2] this is bit-for-bit
   {!Group.semidirect_shift} (whose Cayley graph is CCC_d). *)
let wreath_shift ~base d =
  if base < 2 then invalid_arg "Presentation.wreath_shift: base must be >= 2";
  if d < 1 then invalid_arg "Presentation.wreath_shift: d must be >= 1";
  let pow_base = Array.make (d + 1) 1 in
  for i = 1 to d do
    pow_base.(i) <- pow_base.(i - 1) * base
  done;
  let nw = pow_base.(d) in
  let digit w b = w / pow_base.(b) mod base in
  (* digit b of shift_i(w) is digit ((b - i) mod d) of w *)
  let shift w i =
    if i = 0 then w
    else begin
      let r = ref 0 in
      for b = 0 to d - 1 do
        let src = (((b - i) mod d) + d) mod d in
        r := !r + (digit w src * pow_base.(b))
      done;
      !r
    end
  in
  let add w w' =
    let r = ref 0 in
    for b = 0 to d - 1 do
      r := !r + ((digit w b + digit w' b) mod base * pow_base.(b))
    done;
    !r
  in
  let neg w =
    let r = ref 0 in
    for b = 0 to d - 1 do
      r := !r + ((base - digit w b) mod base * pow_base.(b))
    done;
    !r
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
  {
    order = nw * d;
    mul;
    inv;
    name = Printf.sprintf "Z%d^%d:Z%d" base d d;
  }

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
     non-involutions via the smaller of {s, s⁻¹}. *)
  let invol = List.filter (is_involution p) connection in
  let canon =
    List.filter (fun s -> (not (is_involution p s)) && s < p.inv s) connection
  in
  (* each involution pairs nodes perfectly: n/2 edges *)
  let m = (List.length invol * n / 2) + (List.length canon * n) in
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  let k = ref 0 in
  List.iter
    (fun s ->
      if is_involution p s then
        for a = 0 to n - 1 do
          let b = p.mul a s in
          if a < b then begin
            edge_u.(!k) <- a;
            edge_v.(!k) <- b;
            incr k
          end
        done
      else if s < p.inv s then
        for a = 0 to n - 1 do
          edge_u.(!k) <- a;
          edge_v.(!k) <- p.mul a s;
          incr k
        done)
    connection;
  assert (!k = m);
  let csr = Csr.of_endpoints ~n edge_u edge_v in
  let graph = Graph.of_csr csr in
  (* A Cayley graph is connected iff its connection set generates the
     group: one BFS over the built CSR checks generation. *)
  if not (Traverse.is_connected graph) then
    invalid_arg "Presentation.cayley: set does not generate the group";
  (* port symbol = the generator this dart follows: u⁻¹ v *)
  let labeling =
    Labeling.make graph (fun u i ->
        p.mul (p.inv u) csr.Csr.dst.(csr.Csr.off.(u) + i))
  in
  Graph.set_transitivity_witness graph
    {
      Graph.w_gens =
        Array.of_list
          (List.map
             (fun s -> Array.init n (fun a -> p.mul s a))
             connection);
    };
  { graph; labeling; connection; group = p }

let circulant n jumps = cayley (cyclic n) jumps

let cube_connected_cycles d =
  if d < 3 then
    invalid_arg "Presentation.cube_connected_cycles: need d >= 3";
  cayley (semidirect_shift d) [ 1; d ]
