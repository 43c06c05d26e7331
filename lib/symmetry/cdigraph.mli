(** Colored digraphs — the common currency of the symmetry engine.

    Nodes carry integer colors (e.g. black/white of a placement); arcs carry
    integer colors (e.g. edge labels). Undirected edges are represented by
    two opposite arcs. Parallel arcs are allowed. Every structure the paper
    reasons about — bicolored graphs, surroundings (Definition 3.1),
    edge-labeled graphs — embeds here, so one canonical-labeling engine
    serves them all. *)

type t

type arc = { src : int; dst : int; color : int }

type csr = private {
  n : int;
  out_off : int array;  (** length [n+1] *)
  out_dst : int array;  (** out-neighbors, sorted by (dst, color) per node *)
  out_col : int array;
  in_off : int array;
  in_src : int array;  (** in-neighbors, sorted by (src, color) per node *)
  in_col : int array;
}
(** The sorted flat adjacency every digraph carries from construction —
    refinement and traversal iterate these arrays directly; there is no
    per-call rebuild or per-domain cache. *)

val make : n:int -> node_color:(int -> int) -> arc list -> t
(** @raise Invalid_argument on out-of-range endpoints or negative colors. *)

val make_arrays :
  n:int -> node_colors:int array -> int array -> int array -> int array -> t
(** [make_arrays ~n ~node_colors asrc adst acol] is {!make} from flat
    arrays (src, dst, color per arc, insertion order). Takes ownership of
    the arrays — callers must not mutate them afterwards. This is the
    allocation-bounded constructor large embeddings stream into. *)

val n : t -> int
val node_color : t -> int -> int

val node_colors_array : t -> int array
(** The node-color array itself (not a copy) — read-only by convention. *)

val csr : t -> csr
(** O(1), no copy. *)

val arcs : t -> arc list
(** All arcs, in insertion order. Allocates — compat shim; hot paths use
    {!csr} or {!arcs_arrays}. *)

val arcs_arrays : t -> int array * int array * int array
(** [(asrc, adst, acol)] in insertion order, zero-copy — the shape
    {!Canon.run} consumes. Read-only by convention. *)

val out_arcs : t -> int -> (int * int) list
(** [(dst, color)] pairs, sorted. *)

val in_arcs : t -> int -> (int * int) list
(** [(src, color)] pairs, sorted. *)

val num_arcs : t -> int

val relabel : t -> int array -> t
(** [relabel g perm] renames node [u] to [perm.(u)]. *)

val equal : t -> t -> bool
(** Structural equality after sorting arcs — equal iff identical colored
    digraphs (same numbering). *)

val certificate_of_identity : t -> string
(** A string that determines the colored digraph up to nothing (i.e. under
    its current numbering); two digraphs are identical iff certificates are
    equal. Building block for canonical certificates. *)

(** {1 Embeddings} *)

val of_graph : ?node_color:(int -> int) -> Qe_graph.Graph.t -> t
(** Undirected graph as a digraph: one arc each way per edge, arc color 0.
    Default node color 0. *)

val of_bicolored : Qe_graph.Bicolored.t -> t
(** Node colors 1 = home-base, 0 = empty. *)

val of_labeled :
  ?node_color:(int -> int) -> Qe_graph.Labeling.t -> t
(** Edge-labeled graph: the arc [u -> v] over edge [e] has color
    [pair(l_u(e), l_v(e))] (injectively paired), so label-preserving
    automorphisms of the labeled graph are exactly the automorphisms of
    this digraph. *)

val of_surrounding : Qe_graph.Bicolored.t -> int -> t
(** The surrounding [S(u)] of Definition 3.1: same nodes as [G], node
    colors from the placement, and an arc [(x, y)] for each edge [{x, y}]
    with [d(u, x) <= d(u, y)] (both arcs when distances are equal). *)

val pp : Format.formatter -> t -> unit
