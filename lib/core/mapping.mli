(** MAP-DRAWING: an agent explores the network and draws a map.

    Node identities come from the whiteboards: the first agent to visit a
    node posts a ["node-id"] sign (its own color plus a private sequence
    number); every later visitor reads the same sign. Distinct agent colors
    make these identities globally unambiguous — exactly why the paper
    notes map drawing "requires the distinctness of the agents' colors".
    All agents therefore agree on node identities, while the map's integer
    node numbering stays agent-local (any class computation downstream is
    isomorphism-invariant, so local numberings are harmless).

    Exploration is a DFS from the home-base that crosses every edge twice
    (once per direction), marking-free thanks to entry ports, and wakes
    every sleeping agent it passes (posting at an untagged node changes the
    board of a home-base). *)

module Identity : sig
  type t
  (** A node identity: the tagging agent's color plus its sequence body. *)

  val equal : t -> t -> bool
  val color : t -> Qe_color.Color.t
  val body : t -> string
  val pp : Format.formatter -> t -> unit
end

type t
(** A completed map, owned by one agent. *)

val explore : Qe_runtime.Protocol.ctx -> t
(** Runs MAP-DRAWING from the current (home) node. Must be the agent's
    first action. Uses only {!Qe_runtime.Script} operations. *)

(** {1 Reading the map} *)

val graph : t -> Qe_graph.Graph.t
(** The reconstructed anonymous network, in agent-local numbering. *)

val size : t -> int
val my_home : t -> int
(** The agent's home-base, as a map node. *)

val identity : t -> int -> Identity.t

val home_color : t -> int -> Qe_color.Color.t option
(** The color of the agent based at a map node, if it is a home-base. *)

val home_bases : t -> int list
(** Map nodes carrying home-base marks, ascending. *)

val home_of_color : t -> Qe_color.Color.t -> int option

val bicolored : t -> Qe_graph.Bicolored.t
(** The bicolored instance [(G, p)] in map numbering. *)

val symbol_at : t -> int -> int -> Qe_color.Symbol.t
(** [symbol_at m u i]: the opaque symbol on port [i] of map node [u]. *)

val port_of_symbol : t -> int -> Qe_color.Symbol.t -> int option

val labeling : t -> Qe_graph.Labeling.t
(** The edge labeling in the agent's own encoding of the symbols (stable
    for this agent; other agents may encode differently). *)
