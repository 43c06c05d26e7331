type observation = {
  degree : int;
  ports : Qe_color.Symbol.t list Lazy.t;
  entry : Qe_color.Symbol.t option;
  board : Sign.t list;
}

type verdict = Leader | Defeated | Election_failed | Aborted of string

type ctx = { color : Qe_color.Color.t; rank : int option }

type t = { name : string; quantitative : bool; main : ctx -> verdict }

let verdict_to_string = function
  | Leader -> "leader"
  | Defeated -> "defeated"
  | Election_failed -> "election-failed"
  | Aborted msg -> "aborted: " ^ msg

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)
