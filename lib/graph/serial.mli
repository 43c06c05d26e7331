(** A small textual format for election instances, so experiments can be
    saved, shared and replayed.

    {v
    qelect-instance v1
    nodes 5
    edges
    0 1
    1 2
    ...
    labeling          # optional: one line per node, symbols by port
    0: 0 1
    ...
    agents 0 3        # optional home-bases
    v}

    Lines starting with [#] and blank lines are ignored; a [#] inside a
    line starts a comment. *)

type instance = {
  graph : Graph.t;
  labeling : Labeling.t option;
  black : int list;  (** empty when the file declares no agents *)
}

type error = { line : int; reason : string }
(** [line] is 1-based; [0] means the problem is not tied to a single
    line (missing node count, bad header, cross-line inconsistency). *)

val pp_error : Format.formatter -> error -> unit

val to_string : ?labeling:Labeling.t -> ?black:int list -> Graph.t -> string

val of_string_result : string -> (instance, error) result
(** Total decoder: any malformed input — including out-of-range edge
    endpoints or agent ids, duplicate agents, a disconnected graph
    ([{line = 0; reason = "graph is disconnected"}]), and labeling rows
    that violate the per-node port/symbol invariants — yields [Error],
    never an escaping exception. *)

val of_string : string -> instance
(** @raise Failure with a line-numbered message on malformed input
    (thin wrapper over {!of_string_result}). *)

val save : path:string -> ?labeling:Labeling.t -> ?black:int list -> Graph.t -> unit
val load : path:string -> instance
