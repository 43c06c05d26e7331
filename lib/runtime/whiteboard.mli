(** Per-node whiteboards.

    Local storage where agents read, write and erase colored signs. The
    engine grants access in mutual exclusion (a whole node visit is
    atomic). The revision counter lets waiting agents sleep until the
    board changes. *)

type t

val create : unit -> t
val signs : t -> Sign.t list
(** Current signs, oldest first. *)

val post : t -> Sign.t -> unit
val erase : t -> color:Qe_color.Color.t -> tag:string -> int
(** Removes all signs of that color and tag; returns how many were
    erased. *)

val find : t -> tag:string -> Sign.t list
val revision : t -> int
(** Bumped by every successful {!post} and non-empty {!erase}. *)

val size : t -> int
