module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored

type tree = { color : int; children : ((int * int) * tree) list }

let node_color_of ?placement () =
  match placement with
  | None -> fun _ -> 0
  | Some b -> Bicolored.node_color b

let classes ?placement l =
  let node_color = node_color_of ?placement () in
  let dg = Cdigraph.of_labeled ~node_color l in
  let p = Refine.equitable dg in
  Refine.cell_members p |> Array.to_list |> List.filter (fun c -> c <> [])

let sigma ?placement l =
  let cls = classes ?placement l in
  match List.sort_uniq compare (List.map List.length cls) with
  | [ s ] -> s
  | sizes ->
      failwith
        (Printf.sprintf "View.sigma: unequal class sizes {%s}"
           (String.concat "," (List.map string_of_int sizes)))

let rec tree ?placement l ~depth v =
  let node_color = node_color_of ?placement () in
  let g = Labeling.graph l in
  if depth = 0 then { color = node_color v; children = [] }
  else
    let children =
      Graph.fold_darts_at g v ~init:[] ~f:(fun acc i dst dst_port _ ->
          let near = Labeling.symbol l v i in
          let far = Labeling.symbol l dst dst_port in
          ((near, far), tree ?placement l ~depth:(depth - 1) dst) :: acc)
      (* back to port order, which the stable sort keeps for equal keys *)
      |> List.rev
      |> List.sort (fun (k1, _) (k2, _) -> compare k1 k2)
    in
    { color = node_color v; children }

let rec equal_trees a b =
  a.color = b.color
  && List.length a.children = List.length b.children
  && List.for_all2
       (fun (k1, t1) (k2, t2) -> k1 = k2 && equal_trees t1 t2)
       a.children b.children

let equal_views_to_depth ?placement l ~depth x y =
  (* One refinement round distinguishes exactly what one more level of the
     view tree distinguishes, so [depth] rounds decide depth-[depth]
     view equality without materialising the tree. *)
  let node_color = node_color_of ?placement () in
  let dg = Cdigraph.of_labeled ~node_color l in
  let rec go p k = if k = 0 then p else go (Refine.step dg p) (k - 1) in
  let p = go (Refine.initial dg) depth in
  p.(x) = p.(y)

let equal_views ?placement l x y =
  let n = Graph.n (Labeling.graph l) in
  equal_views_to_depth ?placement l ~depth:(n - 1) x y

let max_sigma_sampled ?placement ?(attempts = 30) g =
  let candidates =
    (None, Labeling.standard g)
    :: List.init attempts (fun seed -> (Some seed, Labeling.shuffled ~seed g))
  in
  List.fold_left
    (fun (best, witness) (seed, l) ->
      let s = sigma ?placement l in
      if s > best then (s, seed) else (best, witness))
    (1, None) candidates
