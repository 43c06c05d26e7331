module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling

type t = {
  genset : Genset.t;
  graph : Graph.t;
  labeling : Labeling.t;
}

(* The one builder: [Presentation.cayley] over the table-backed group,
   which also attaches the natural labeling and the left-translation
   witness. *)
let make genset =
  let inst =
    Presentation.cayley
      (Presentation.of_group (Genset.group genset))
      (Genset.elements genset)
  in
  { genset; graph = inst.graph; labeling = inst.labeling }

let graph t = t.graph
let labeling t = t.labeling
let group t = Genset.group t.genset
let genset t = t.genset

let port_generator t u i =
  let d = Graph.dart t.graph u i in
  Group.mul (group t) (Group.inv (group t) u) d.dst

let translation t gamma a = Group.mul (group t) gamma a

let is_automorphism t f =
  let g = t.graph in
  let n = Graph.n g in
  let image = Array.init n f in
  let is_perm =
    let seen = Array.make n false in
    Array.for_all
      (fun v -> v >= 0 && v < n && not seen.(v) && (seen.(v) <- true; true))
      image
  in
  is_perm
  &&
  (* Compare edge multisets between images. *)
  let count tbl key delta =
    let cur = try Hashtbl.find tbl key with Not_found -> 0 in
    Hashtbl.replace tbl key (cur + delta)
  in
  let tbl = Hashtbl.create (2 * Graph.m g) in
  List.iter
    (fun (u, v) ->
      count tbl (min u v, max u v) 1;
      let fu = image.(u) and fv = image.(v) in
      count tbl (min fu fv, max fu fv) (-1))
    (Graph.edges g);
  Hashtbl.fold (fun _ c acc -> acc && c = 0) tbl true

let translation_preserves_labeling t gamma =
  let g = t.graph in
  let grp = group t in
  let ok = ref true in
  for u = 0 to Graph.n g - 1 do
    for i = 0 to Graph.degree g u - 1 do
      let v = (Graph.dart g u i).dst in
      let s = Group.mul grp (Group.inv grp u) v in
      let gu = Group.mul grp gamma u and gv = Group.mul grp gamma v in
      let s' = Group.mul grp (Group.inv grp gu) gv in
      if s <> s' then ok := false
    done
  done;
  !ok

let color_preserving_translations t ~black =
  let grp = group t in
  let is_black = Array.make (Group.order grp) false in
  List.iter (fun b -> is_black.(b) <- true) black;
  List.filter
    (fun gamma ->
      List.for_all (fun b -> is_black.(Group.mul grp gamma b)) black)
    (Group.elements grp)

let translation_classes t ~black =
  let grp = group t in
  let ts = color_preserving_translations t ~black in
  let n = Group.order grp in
  let assigned = Array.make n false in
  let classes = ref [] in
  for u = 0 to n - 1 do
    if not assigned.(u) then begin
      let orbit =
        List.sort_uniq compare (List.map (fun gamma -> Group.mul grp gamma u) ts)
      in
      List.iter (fun v -> assigned.(v) <- true) orbit;
      classes := orbit :: !classes
    end
  done;
  List.rev !classes

(* --- Standard networks --- *)

let ring n = make (Genset.make (Group.cyclic n) [ 1 ])

let hypercube d =
  let grp = Group.power (Group.cyclic 2) d in
  (* In the iterated product the first factor is most significant, so the
     unit vectors are the powers of two. *)
  make (Genset.make grp (List.init d (fun i -> 1 lsl i)))

let complete n = make (Genset.all_non_identity (Group.cyclic n))

let torus a b =
  if a < 3 || b < 3 then invalid_arg "Cayley.torus: sides must be >= 3";
  let grp = Group.product (Group.cyclic a) (Group.cyclic b) in
  make (Genset.make grp [ b (* (1,0) *); 1 (* (0,1) *) ])

let circulant n jumps = make (Genset.make (Group.cyclic n) jumps)

let star_graph k =
  if k < 3 || k > 6 then invalid_arg "Cayley.star_graph: need 3 <= k <= 6";
  let grp = Group.symmetric k in
  (* Generators are the transpositions (0 i); find them by their one-line
     notation name. *)
  let transposition i =
    let p = Array.init k Fun.id in
    p.(0) <- i;
    p.(i) <- 0;
    let nm = String.concat "" (Array.to_list (Array.map string_of_int p)) in
    let rec find a =
      if a >= Group.order grp then failwith "transposition not found"
      else if Group.elt_name grp a = nm then a
      else find (a + 1)
    in
    find 0
  in
  make (Genset.make grp (List.init (k - 1) (fun i -> transposition (i + 1))))

let cube_connected_cycles d =
  if d < 3 then invalid_arg "Cayley.cube_connected_cycles: need d >= 3";
  let grp = Group.semidirect_shift d in
  (* shift = (0,1) has element id 1; flip_0 = (e_0, 0) has id d. *)
  make (Genset.make grp [ 1; d ])

let dihedral_cayley n =
  if n < 2 then invalid_arg "Cayley.dihedral_cayley: need n >= 2";
  let grp = Group.dihedral n in
  make (Genset.make grp [ n; n + 1 ])
