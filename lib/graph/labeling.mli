(** Edge labelings of anonymous networks.

    A labeling assigns to every dart (node, port) a symbol, such that the
    symbols at any one node are pairwise distinct. Symbols are represented
    by integers {e inside the library} (the simulator wraps them in opaque
    {!Qe_color.Symbol.t} values before protocols see them). Two darts with
    the same integer carry the same symbol — symbol identity is global, as
    in the paper, even though distinctness is only required per node. *)

type t
(** A labeling of a specific graph. *)

val make : Graph.t -> (int -> int -> int) -> t
(** [make g f] labels port [i] of node [u] with symbol [f u i].
    @raise Invalid_argument if two ports of one node get equal symbols. *)

val standard : Graph.t -> t
(** Port [i] gets symbol [i] — the classical [1..deg] labeling of the
    anonymous-network literature (quantitative flavor). *)

val shuffled : seed:int -> Graph.t -> t
(** A pseudo-random labeling: per node, a random injection into a global
    symbol pool. Models an adversarially chosen qualitative labeling. *)

val symbol : t -> int -> int -> int
(** [symbol l u i] is the symbol of port [i] at node [u]. *)

val port_of_symbol : t -> int -> int -> int option
(** [port_of_symbol l u s] finds the port of [u] labeled [s], if any. *)

val graph : t -> Graph.t

val symbols_at : t -> int -> int array
(** Symbols at a node, indexed by port. Fresh array. *)

val check : t -> bool
(** Re-validates per-node distinctness (always true for values built by this
    module; useful in property tests). *)

val pp : Format.formatter -> t -> unit
