module Protocol = Qe_runtime.Protocol
module Cayley_detect = Qe_symmetry.Cayley_detect
module Cache = Qe_symmetry.Artifact_cache

(* Both per-run map analyses are pure functions of the drawn map, and
   the map numbering is deterministic per (instance, home) — so they are
   memoized like the oracle predicates. Recognition dominates the cost
   of an elect-cayley run; translation testing shares Oracle's table. *)
let recognize_tbl : Cayley_detect.outcome Cache.table =
  Cache.create_table ~kind:"cayley.recognize" ()

let recognize g =
  Cache.memo recognize_tbl ~key:(Cache.key_of_graph g) (fun () ->
      Cayley_detect.recognize g)

let locally_impossible g ~black =
  Oracle.translation_impossible (Qe_graph.Bicolored.make g ~black)

let main (ctx : Protocol.ctx) =
  let map = Mapping.explore ctx in
  let g = Mapping.graph map in
  match recognize g with
  | Cayley_detect.Cayley _ ->
      if locally_impossible g ~black:(Mapping.home_bases map) then
        (* Theorem 4.1: a placement-preserving translation exists, so an
           adversarial labeling with non-trivial label-equivalence classes
           exists, and election is impossible. Every agent reaches this
           same conclusion from its own map — no coordination needed. *)
        Protocol.Election_failed
      else Elect.run_on_map Elect.generic_plan ctx map
  | Cayley_detect.Not_cayley ->
      (* outside the theorem's class: behave as generic ELECT *)
      Elect.run_on_map Elect.generic_plan ctx map
  | Cayley_detect.Unknown msg ->
      Protocol.Aborted ("cayley recognition exceeded budget: " ^ msg)

let protocol =
  { Protocol.name = "elect-cayley"; quantitative = false; main }
