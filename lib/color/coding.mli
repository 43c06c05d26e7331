(** First-seen coding of incomparable symbols.

    The paper (Section 2, Figure 2 discussion) describes the only encoding an
    agent can produce without an order: "code [i] the i-th symbol met so
    far". Two agents walking mirror-image paths may produce identical codes
    from different symbol sequences — the reason sorting views fails in the
    qualitative world. *)

val code : equal:('a -> 'a -> bool) -> 'a list -> int list
(** [code ~equal xs] assigns 1 to the first distinct element of [xs], 2 to
    the second, etc., and replays the assignment over the sequence.
    E.g. [code [a; b; c; a] = [1; 2; 3; 1]]. *)

val code_symbols : Symbol.t list -> int list
(** {!code} specialised to port-label symbols. *)

val same_coding : equal:('a -> 'a -> bool) -> 'a list -> 'a list -> bool
(** [same_coding ~equal xs ys] holds iff the two sequences produce the same
    first-seen code — i.e. they are indistinguishable to a qualitative
    observer. *)
