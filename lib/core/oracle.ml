module Bicolored = Qe_graph.Bicolored
module Graph = Qe_graph.Graph
module Classes = Qe_symmetry.Classes
module Cayley_detect = Qe_symmetry.Cayley_detect
module Label_equiv = Qe_symmetry.Label_equiv
module Cache = Qe_symmetry.Artifact_cache
module Engine = Qe_runtime.Engine

type prediction = Solvable | Unsolvable | Frontier

(* Every oracle predicate is a pure function of the bicolored instance.
   The expensive ones route through an {!Qe_symmetry.Artifact_cache}
   table keyed by the instance's structural identity; the gcd is an
   O(#classes) fold over the cached [Cache.classes] entry, which
   [predict] shares. *)
let predict_tbl : prediction Cache.table =
  Cache.create_table ~kind:"oracle.predict" ()

let translation_tbl : bool Cache.table =
  Cache.create_table ~kind:"oracle.translation" ()

let gcd_classes b = Classes.gcd_sizes (Cache.classes b)

let elect_prediction b =
  if gcd_classes b = 1 then `Elects else `Reports_failure

(* Theorem 4.1 by exhaustive regular-subgroup search: it proves Cayley
   provenance as well as impossibility, so its table holds only search
   results. *)
let translation_impossible b =
  Cache.memo translation_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      Cayley_detect.exists_preserving_translation (Bicolored.graph b)
        ~black:(Bicolored.blacks b))

let symmetric_labeling_exists b =
  let g = Bicolored.graph b in
  let subgroups = Cayley_detect.all_regular_subgroups g in
  List.exists
    (fun translations ->
      (* rebuild the group and its natural labeling, then measure the
         label-equivalence classes *)
      let group =
        Qe_group.Presentation.of_mul_table ~name:"oracle" translations
      in
      let labeling =
        Qe_graph.Labeling.make g (fun u i ->
            let v = (Graph.dart g u i).dst in
            Qe_group.Presentation.(mul group (inv group u) v))
      in
      Label_equiv.max_class_size ~placement:b labeling > 1)
    subgroups

(* Theorem 2.1, deductively and in O(n) at the 10⁵-node frontier: on the
   uniform placement, a certified witness generator whose cycles all
   share one length L >= 2 is a placement-preserving automorphism that
   lifts to a free action on darts, so it preserves a labeling in which
   every node has a twin (DESIGN §14.3). No exhibit decides nothing:
   [predict] falls through to the search. The witness is not part of
   the cache key; it can only turn a verdict the search cannot prove
   into a proved Unsolvable, and on the graphs that carry one (Cayley
   builders, [Cayley_detect]) the search agrees. *)
let witnessed_unsolvable b =
  let g = Bicolored.graph b in
  Bicolored.num_blacks b = Graph.n g
  && Option.is_some (Qe_symmetry.Transitive.certified_regular g)

(* Cheapest decisive test first. gcd = 1 means ELECT elects (Theorem
   3.1), so no placement-preserving translation can exist (Theorem 4.1)
   and the search could only agree: it runs only when gcd > 1. The
   counter names the test that decided; it is recorded inside the memo
   thunk, so a cache hit replays it. *)
let predict b =
  Cache.memo predict_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      let decided by verdict =
        (match Qe_obs.Sink.ambient () with
        | None -> ()
        | Some s ->
            Qe_obs.Metrics.incr
              (Qe_obs.Metrics.counter s.Qe_obs.Sink.metrics
                 ("oracle.predict." ^ by)));
        verdict
      in
      if witnessed_unsolvable b then decided "witness" Unsolvable
      else if gcd_classes b = 1 then decided "gcd" Solvable
      else if translation_impossible b then decided "search" Unsolvable
      else decided "search" Frontier)

let is_cayley g =
  match Cayley_detect.recognize g with
  | Cayley_detect.Cayley _ -> true
  | Cayley_detect.Not_cayley -> false
  | Cayley_detect.Unknown msg -> failwith ("Oracle.is_cayley: " ^ msg)

let agrees prediction outcome =
  match (prediction, outcome) with
  | Solvable, Engine.Elected _ -> true
  | (Unsolvable | Frontier), Engine.Declared_unsolvable -> true
  | _ -> false

let pp_prediction ppf = function
  | Solvable -> Format.pp_print_string ppf "solvable"
  | Unsolvable -> Format.pp_print_string ppf "unsolvable"
  | Frontier -> Format.pp_print_string ppf "frontier"
