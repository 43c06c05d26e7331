(** The instance language: every graph, Cayley-instance and agent-list
    string, parsed from one table of families.

    A spec is a family name, then its fields separated by [':'], e.g.
    [cycle:8], [torus:3x4], [circulant:10:1+3] or [wreath:3:4]. A list
    field (a circulant's jumps, an agent list) separates its integers by
    [','] or ['+'], which survives shells and CI YAML unquoted.

    Two errors can come out of a parse. A malformed string (an unknown
    family, a wrong field count or shape, a field that is not an integer)
    raises {!Error}. A well-formed spec whose size its family refuses
    raises the builder's own [Invalid_argument], which names the
    constructor and the reason (e.g. [Families.cycle: n must be >= 3 (got
    2)], [Presentation.power: group order exceeds max_int]). *)

exception Error of string
(** The message names the string it came from, e.g.
    [circulant:abc:1: "abc" is not an integer]. *)

val forms : string list
(** Every family's usage, in table order: [petersen], [cycle:N], ...,
    [circulant:N:J1+J2+...], [random:SEED:N:EXTRA], [dihedral:N],
    [wreath:BASE:D]. The family name is the part before the first [':']. *)

val cayley_forms : string list
(** The usages of the families with a Cayley builder: hypercube, ccc,
    torus, circulant, dihedral and wreath. *)

val graph : string -> Qe_graph.Graph.t
(** The graph a spec names, for every family. Where a family has a direct
    builder in {!Qe_graph.Families} it is used; dihedral and wreath have
    only a Cayley builder, whose graph is returned.
    @raise Error on a malformed spec; the unknown-family message lists
    {!forms}. *)

val cayley : string -> Presentation.instance
(** The Cayley instance a spec names, with its natural labeling and
    transitivity witness: [hypercube:D], [ccc:D], [torus:AxB] (sides
    [>= 3]), [circulant:N:J1+J2+...] (jumps in [[1, N/2]]), [dihedral:N]
    and [wreath:BASE:D] ([Z_BASE ≀ Z_D] on the shift and the first
    coordinate bump; base 2 is CCC_D).
    @raise Error on a malformed spec, or one naming any other family
    (the message lists {!cayley_forms}). *)

val agents : string -> int list
(** A home-base list, e.g. [0,1,5]. A bad entry is reported against the
    [--agents] option that carries it: [--agents 0,x: "x" is not an
    integer]. *)
