module Cayley = Qe_group.Cayley
module P = Qe_group.Presentation
module Graph = Qe_graph.Graph

type step = {
  marked_class : int list;
  generator : int;
  classes_after : int list list;
}

type trace = {
  translation_classes : int list list;
  initial_classes : int list list;
  steps : step list;
  final_classes : int list list;
  gcd : int;
}

let rec gcd2 a b = if b = 0 then a else gcd2 b (a mod b)

let gcd_sizes classes =
  List.fold_left (fun acc c -> gcd2 acc (List.length c)) 0 classes

let normalize classes = List.sort compare (List.map (List.sort compare) classes)

let run ?max_leaves c ~black =
  let grp = c.P.group and g = c.P.graph in
  let n = P.order grp in
  let is_black = Array.make n false in
  List.iter (fun b -> is_black.(b) <- true) black;
  let translation_classes =
    List.map (List.sort compare) (Cayley.translation_classes c ~black)
  in
  let d = gcd_sizes translation_classes in
  let target = normalize translation_classes in
  (* marked.(a) = generators marked at a; marking a translation class TC
     with s marks every {t, t*s}, t in TC, at both extremities. *)
  let marked = Array.make n [] in
  let is_marked a s = List.mem s marked.(a) in
  let mark_class tc s =
    List.iter
      (fun a ->
        if not (is_marked a s) then begin
          marked.(a) <- s :: marked.(a);
          let b = P.mul grp a s in
          marked.(b) <- P.inv grp s :: marked.(b)
        end)
      tc
  in
  let pseudo_classes () =
    let arcs = ref [] in
    for u = 0 to n - 1 do
      Graph.iter_darts g u (fun i dst _ _ ->
          let s = Cayley.port_generator c u i in
          let color = if is_marked u s then 1 + s else 0 in
          arcs := { Cdigraph.src = u; dst; color } :: !arcs)
    done;
    let dg =
      Cdigraph.make ~n ~node_color:(fun u -> if is_black.(u) then 1 else 0)
        !arcs
    in
    Aut.orbit_partition ?max_leaves dg
  in
  let gens = c.P.connection in
  let class_of classes a = List.find (fun cl -> List.mem a cl) classes in
  let initial_classes = pseudo_classes () in
  let steps = ref [] in
  let rec loop classes iter =
    if normalize classes = target then classes
    else if iter > n * List.length gens then
      failwith "Refine_labeling: marking process failed to terminate"
    else begin
      (* candidate marks: (translation class, generator) not yet marked *)
      let candidates =
        List.concat_map
          (fun tc ->
            List.filter_map
              (fun s ->
                match tc with
                | a :: _ when not (is_marked a s) -> Some (tc, s)
                | _ -> None)
              gens)
          translation_classes
      in
      if candidates = [] then
        failwith
          "Refine_labeling: everything marked but pseudo classes above \
           translation classes";
      (* prefer the paper's move: a mark whose source and destination
         pseudo classes have different sizes *)
      let score (tc, s) =
        match tc with
        | a :: _ ->
            let ca = class_of classes a in
            let cb = class_of classes (P.mul grp a s) in
            if List.length ca <> List.length cb then 0 else 1
        | [] -> 1
      in
      let tc, s =
        List.fold_left
          (fun best cand ->
            match best with
            | None -> Some cand
            | Some b -> if score cand < score b then Some cand else Some b)
          None candidates
        |> Option.get
      in
      mark_class tc s;
      let classes' = pseudo_classes () in
      steps := { marked_class = tc; generator = s; classes_after = classes' }
               :: !steps;
      loop classes' (iter + 1)
    end
  in
  let final_classes = loop initial_classes 0 in
  if not (List.for_all (fun cl -> List.length cl = d) final_classes) then
    failwith "Refine_labeling: final classes are not all of size gcd";
  {
    translation_classes;
    initial_classes;
    steps = List.rev !steps;
    final_classes;
    gcd = d;
  }

let refines fine coarse =
  (* every class of [fine] is inside one class of [coarse] *)
  List.for_all
    (fun fc ->
      match fc with
      | [] -> true
      | x :: _ ->
          let host = List.find_opt (fun cc -> List.mem x cc) coarse in
          (match host with
          | None -> false
          | Some cc -> List.for_all (fun y -> List.mem y cc) fc))
    fine

let monotone_refinement t =
  let rec go prev = function
    | [] -> true
    | s :: rest -> refines s.classes_after prev && go s.classes_after rest
  in
  go t.initial_classes t.steps

let translations_always_refine t =
  refines t.translation_classes t.initial_classes
  && List.for_all
       (fun s -> refines t.translation_classes s.classes_after)
       t.steps

let all_final_size_gcd t =
  List.for_all (fun cl -> List.length cl = t.gcd) t.final_classes

let final_equals_translation_classes t =
  normalize t.final_classes = normalize t.translation_classes
