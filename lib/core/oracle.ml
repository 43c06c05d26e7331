module Bicolored = Qe_graph.Bicolored
module Graph = Qe_graph.Graph
module Classes = Qe_symmetry.Classes
module Cayley_detect = Qe_symmetry.Cayley_detect
module Label_equiv = Qe_symmetry.Label_equiv
module Cache = Qe_symmetry.Artifact_cache
module Engine = Qe_runtime.Engine

type prediction = Solvable | Unsolvable | Frontier

(* Every oracle predicate is a pure function of the bicolored instance,
   so each routes through an {!Qe_symmetry.Artifact_cache} table keyed
   by the instance's structural identity. The [gcd]/[predict]
   computations share one [Classes.compute] through the nested
   [Cache.classes] entry — the historical double computation inside
   [predict] collapses to a single cached one. *)
let gcd_tbl : int Cache.table = Cache.create_table ~kind:"oracle.gcd" ()

let predict_tbl : prediction Cache.table =
  Cache.create_table ~kind:"oracle.predict" ()

let translation_tbl : bool Cache.table =
  Cache.create_table ~kind:"oracle.translation" ()

let symlab_tbl : bool Cache.table =
  Cache.create_table ~kind:"oracle.symlab" ()

let gcd_classes b =
  Cache.memo gcd_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      Classes.gcd_sizes (Cache.classes b))

let elect_prediction b =
  if gcd_classes b = 1 then `Elects else `Reports_failure

(* Fast positive evidence for [translation_impossible], usable at the
   10⁵-node frontier where the regular-subgroup search is hopeless.
   When the uniform all-black placement sits on a graph whose attached
   transitivity witness passes {!Qe_symmetry.Transitive.certified_regular}
   — a verified non-identity, fixed-point-free translation drawn from a
   sample-checked regular family — that translation preserves the
   (all-black) placement, which is exactly the search's success
   condition. Only [Some true] ever comes from here: anything
   inconclusive falls through to the exhaustive search, so negative
   answers keep their original meaning. *)
let translation_impossible_fast b =
  let g = Bicolored.graph b in
  let n = Graph.n g in
  if n < 2 || Bicolored.num_blacks b <> n then None
  else
    match Qe_symmetry.Transitive.certified_regular g with
    | Some _phi -> Some true
    | None -> None

let translation_impossible b =
  Cache.memo translation_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      match translation_impossible_fast b with
      | Some verdict -> verdict
      | None ->
          Cayley_detect.exists_preserving_translation (Bicolored.graph b)
            ~black:(Bicolored.blacks b))

let symmetric_labeling_exists b =
  Cache.memo symlab_tbl ~key:(Cache.key_of_bicolored b) @@ fun () ->
  let g = Bicolored.graph b in
  let subgroups = Cayley_detect.all_regular_subgroups g in
  List.exists
    (fun translations ->
      (* rebuild the group and its natural labeling, then measure the
         label-equivalence classes *)
      let n = Graph.n g in
      let table =
        Array.init n (fun u -> Array.init n (fun w -> translations.(u).(w)))
      in
      let group = Qe_group.Group.of_mul_table ~name:"oracle" table in
      let labeling =
        Qe_graph.Labeling.make g (fun u i ->
            let v = (Graph.dart g u i).dst in
            Qe_group.Group.mul group (Qe_group.Group.inv group u) v)
      in
      Label_equiv.max_class_size ~placement:b labeling > 1)
    subgroups

let predict b =
  Cache.memo predict_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      if translation_impossible b then Unsolvable
      else if gcd_classes b = 1 then Solvable
      else Frontier)

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
