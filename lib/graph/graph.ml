type dart = { dst : int; dst_port : int; edge : int }

type witness = { w_gens : int array array }

type identity = { sorted_dst : int array; hash : int }

type t = {
  csr : Csr.t;
  identity : identity option Atomic.t;
  mutable witness : witness option;
  mutable certified : witness option option;
}

let of_csr csr =
  {
    csr;
    identity = Atomic.make None;
    witness = None;
    certified = None;
  }

let of_edges ~n edges =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let check u =
    if u < 0 || u >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: endpoint %d out of range" u)
  in
  List.iter (fun (u, v) -> check u; check v) edges;
  let m = List.length edges in
  let edge_u = Array.make m 0 and edge_v = Array.make m 0 in
  List.iteri
    (fun e (u, v) ->
      edge_u.(e) <- u;
      edge_v.(e) <- v)
    edges;
  of_csr (Csr.of_endpoints ~n edge_u edge_v)

let csr g = g.csr
let n g = g.csr.Csr.n
let m g = g.csr.Csr.m
let degree g u = Csr.degree g.csr u
let max_degree g = Csr.max_degree g.csr

let dart g u i =
  if i < 0 || i >= degree g u then invalid_arg "Graph.dart: port out of range";
  let a = g.csr.Csr.off.(u) + i in
  {
    dst = g.csr.Csr.dst.(a);
    dst_port = g.csr.Csr.dst_port.(a);
    edge = g.csr.Csr.edge.(a);
  }

let iter_darts g u f = Csr.iter_darts g.csr u f
let fold_darts_at g u ~init ~f = Csr.fold_darts g.csr u ~init ~f

let neighbors g u =
  let lo = g.csr.Csr.off.(u) and hi = g.csr.Csr.off.(u + 1) in
  let rec go a = if a >= hi then [] else g.csr.Csr.dst.(a) :: go (a + 1) in
  go lo

let edges g =
  let m = g.csr.Csr.m in
  let rec go e =
    if e >= m then []
    else (g.csr.Csr.edge_u.(e), g.csr.Csr.edge_v.(e)) :: go (e + 1)
  in
  go 0

let edge_endpoints g e = (g.csr.Csr.edge_u.(e), g.csr.Csr.edge_v.(e))

let is_simple g =
  let ok = ref true in
  let eu = g.csr.Csr.edge_u and ev = g.csr.Csr.edge_v in
  Array.iteri (fun e u -> if u = ev.(e) then ok := false) eu;
  if !ok then begin
    let seen = Hashtbl.create (2 * m g) in
    Array.iteri
      (fun e u ->
        let v = ev.(e) in
        let key = (min u v, max u v) in
        if Hashtbl.mem seen key then ok := false else Hashtbl.add seen key ())
      eu
  end;
  !ok

let equal_structure a b =
  a.csr.Csr.n = b.csr.Csr.n
  && a.csr.Csr.edge_u = b.csr.Csr.edge_u
  && a.csr.Csr.edge_v = b.csr.Csr.edge_v

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d@," (n g) (m g);
  Array.iteri
    (fun e u -> Format.fprintf ppf "  e%d: %d -- %d@," e u g.csr.Csr.edge_v.(e))
    g.csr.Csr.edge_u;
  Format.fprintf ppf "@]"

(* ---------- structural identity ---------- *)

let hash_mix h x =
  let h = (h lxor x) * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

let compute_identity (c : Csr.t) =
  let sorted = Array.copy c.Csr.dst in
  let off = c.Csr.off in
  for u = 0 to c.Csr.n - 1 do
    Csr.sort_range sorted off.(u) off.(u + 1)
  done;
  let h = ref (hash_mix 0 c.Csr.n) in
  for i = 0 to Array.length off - 1 do
    h := hash_mix !h off.(i)
  done;
  for i = 0 to Array.length sorted - 1 do
    h := hash_mix !h sorted.(i)
  done;
  { sorted_dst = sorted; hash = !h land max_int }

(* Computed on first use, never at construction, and published through
   an Atomic rather than a [Lazy.t] (which raises when two domains force
   it at once): racing domains may each compute it, the first to publish
   wins, and every later reader sees that one physical array, fully
   filled. *)
let identity g =
  match Atomic.get g.identity with
  | Some id -> id
  | None ->
      let id = compute_identity g.csr in
      if Atomic.compare_and_set g.identity None (Some id) then id
      else Option.get (Atomic.get g.identity)

let sorted_neighbors g = (identity g).sorted_dst
let structure_hash g = (identity g).hash

(* Witnesses are set at construction time (before a graph is shared
   across domains); the certified-witness cache is an idempotent
   single-word write of an immutable value, so a benign race re-verifies
   at worst. *)
let set_transitivity_witness g w =
  g.witness <- Some w;
  g.certified <- None

let transitivity_witness g = g.witness
let certified_witness g = g.certified
let set_certified_witness g c = g.certified <- Some c
let witness_verdict g = Option.map Option.is_some g.certified
