(** A concrete election instance: anonymous network, edge labeling,
    placement, agent colors.

    The world holds the simulator-side truth (integer node ids, integer
    symbols); agents only ever see the opaque {!Qe_color.Symbol.t} wrappers
    and whiteboard contents, never node ids. *)

type t

val make :
  ?labeling:Qe_graph.Labeling.t ->
  ?colors:Qe_color.Color.t list ->
  Qe_graph.Graph.t ->
  black:int list ->
  t
(** Defaults: standard labeling; fresh palette colors, one per home-base.
    @raise Invalid_argument if the graph is disconnected, the placement is
    empty/duplicated, or the color count mismatches. *)

val graph : t -> Qe_graph.Graph.t
val labeling : t -> Qe_graph.Labeling.t
val bicolored : t -> Qe_graph.Bicolored.t
val home_bases : t -> int list
val colors : t -> Qe_color.Color.t list
(** In the same order as {!home_bases}. *)

val num_agents : t -> int
val color_of_agent : t -> int -> Qe_color.Color.t
val home_of_agent : t -> int -> int

val symbol_of : t -> int -> Qe_color.Symbol.t
(** The opaque symbol wrapping an integer labeling symbol; equal integers
    give equal symbols (same alphabet across the graph). *)

val int_of_symbol : t -> Qe_color.Symbol.t -> int
(** Engine-side inverse of {!symbol_of}. *)

val entry : t -> int -> Qe_color.Symbol.t option
(** [entry w a]: [Some] of the symbol on CSR arc [a] (port [a - off.(u)]
    of its node [u]), the entry an agent sees after arriving through
    that port. Preallocated: every arc carrying one symbol returns the
    same value, so a move allocates no option. *)

val agent_of_color : t -> Qe_color.Color.t -> int option
