(** Compressed-sparse-row adjacency for undirected multigraphs with ports.

    This is the single flat representation the whole pipeline shares:
    {!Graph} wraps it, {!Traverse} walks it, and the symmetry stack
    ({!Qe_symmetry.Cdigraph}, refinement, classes) derives its directed
    views from it. All six arrays are plain [int array]s, so a graph of
    [n] nodes and [m] edges costs exactly [n + 1 + 3·2m + 2m] words of
    adjacency — no per-node boxes, lists, or Hashtbls anywhere.

    Layout: the darts of node [u] occupy slots [off.(u) .. off.(u+1)-1]
    in port order; slot [a] holds the opposite endpoint [dst.(a)], the
    port this edge occupies at that endpoint [dst_port.(a)], and the
    global edge id [edge.(a)]. [edge_u]/[edge_v] give each edge's
    endpoints as written at build time (so {!Graph.edges} round-trips). *)

type t = private {
  n : int;  (** number of nodes *)
  m : int;  (** number of edges (a loop counts once) *)
  off : int array;  (** length [n+1]; dart slice bounds per node *)
  dst : int array;  (** length [2m]; opposite endpoint per dart *)
  dst_port : int array;  (** length [2m]; port of this edge at [dst] *)
  edge : int array;  (** length [2m]; global edge id per dart *)
  edge_u : int array;  (** length [m]; first endpoint, build order *)
  edge_v : int array;  (** length [m]; second endpoint, build order *)
}

val of_endpoints : n:int -> int array -> int array -> t
(** [of_endpoints ~n edge_u edge_v] builds the CSR adjacency by two
    counting-sort passes. Edge ids follow array order; ports per node are
    assigned in order of appearance; a loop [(u, u)] occupies two
    consecutive ports — identical semantics to {!Graph.of_edges}. The
    endpoint arrays are retained (not copied): callers must not mutate
    them afterwards.
    @raise Invalid_argument on out-of-range endpoints, [n <= 0], or
    mismatched array lengths. *)

val n : t -> int
val m : t -> int
val degree : t -> int -> int
val max_degree : t -> int

val iter_darts : t -> int -> (int -> int -> int -> int -> unit) -> unit
(** [iter_darts t u f] calls [f port dst dst_port edge] for every dart of
    [u] in port order. Allocation-free. *)

val fold_darts :
  t -> int -> init:'a -> f:('a -> int -> int -> int -> int -> 'a) -> 'a
(** Folding variant of {!iter_darts}: [f acc port dst dst_port edge]. *)

val sort_range : int array -> int -> int -> unit
(** [sort_range a lo hi] sorts the slice [a.(lo) .. a.(hi-1)] ascending
    in place: insertion sort on degree-sized slices, [Array.sort] above
    16 elements. *)

val words : t -> int
(** Approximate heap footprint in words (arrays + headers) — used by the
    frontier bench to report memory per node. *)
