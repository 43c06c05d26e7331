module Graph = Qe_graph.Graph
module P = Presentation

type t = P.instance

let port_generator (t : t) u i =
  let d = Graph.dart t.graph u i in
  P.mul t.group (P.inv t.group u) d.dst

let translation (t : t) gamma a = P.mul t.group gamma a

let translation_preserves_labeling (t : t) gamma =
  let g = t.graph and grp = t.group in
  let ok = ref true in
  for u = 0 to Graph.n g - 1 do
    for i = 0 to Graph.degree g u - 1 do
      let v = (Graph.dart g u i).dst in
      let s = P.mul grp (P.inv grp u) v in
      let gu = P.mul grp gamma u and gv = P.mul grp gamma v in
      let s' = P.mul grp (P.inv grp gu) gv in
      if s <> s' then ok := false
    done
  done;
  !ok

let color_preserving_translations (t : t) ~black =
  let grp = t.group in
  let is_black = Array.make (P.order grp) false in
  List.iter (fun b -> is_black.(b) <- true) black;
  List.filter
    (fun gamma -> List.for_all (fun b -> is_black.(P.mul grp gamma b)) black)
    (List.init (P.order grp) Fun.id)

let translation_classes (t : t) ~black =
  let grp = t.group in
  let ts = color_preserving_translations t ~black in
  let n = P.order grp in
  let assigned = Array.make n false in
  let classes = ref [] in
  for u = 0 to n - 1 do
    if not assigned.(u) then begin
      let orbit =
        List.sort_uniq compare (List.map (fun gamma -> P.mul grp gamma u) ts)
      in
      List.iter (fun v -> assigned.(v) <- true) orbit;
      classes := orbit :: !classes
    end
  done;
  List.rev !classes

(* --- Standard networks --- *)

let ring n = P.cayley (P.cyclic n) [ 1 ]

(* In the iterated product the first factor is most significant, so the
   unit vectors are the powers of two. *)
let hypercube d = P.cayley (P.power (P.cyclic 2) d) (List.init d (fun i -> 1 lsl i))

let complete n = P.cayley (P.cyclic n) (List.init (n - 1) succ)

let torus a b =
  if a < 3 || b < 3 then
    invalid_arg
      (Printf.sprintf "Cayley.torus: sides must be >= 3 (got %dx%d)" a b);
  P.cayley (P.product (P.cyclic a) (P.cyclic b)) [ b (* (1,0) *); 1 (* (0,1) *) ]

let star_graph k =
  if k < 3 || k > 6 then
    invalid_arg
      (Printf.sprintf "Cayley.star_graph: need 3 <= k <= 6 (got %d)" k);
  (* the transpositions (0 i) *)
  let transposition i =
    let p = Array.init k Fun.id in
    p.(0) <- i;
    p.(i) <- 0;
    Group.of_permutation p
  in
  P.cayley (Group.symmetric k) (List.init (k - 1) (fun i -> transposition (i + 1)))

let dihedral_cayley n =
  if n < 2 then
    invalid_arg
      (Printf.sprintf "Cayley.dihedral_cayley: need n >= 2 (got %d)" n);
  P.cayley (P.dihedral n) [ n; n + 1 ]
