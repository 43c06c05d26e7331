(** Ready-made palettes of colors and symbols for examples and tests. *)

val colors : int -> Color.t list
(** [colors n] mints [n] fresh distinct colors with friendly names
    ("crimson", "teal", ... — 40 of them, cycling and numbering past the
    palette size). *)

val symbols : int -> Symbol.t list
(** [symbols n] mints [n] fresh distinct symbols with glyph-like names
    ("*", "o", "#", ... — 40 of them, cycling likewise). *)
