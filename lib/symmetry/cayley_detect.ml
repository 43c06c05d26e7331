module Graph = Qe_graph.Graph

type recognition = {
  group : Qe_group.Group.t;
  generators : int list;
  translations : int array array;
}

type outcome = Cayley of recognition | Not_cayley | Unknown of string

let fixed_point_free phi =
  let fpf = ref true in
  Array.iteri (fun i v -> if i = v && Array.length phi > 1 then fpf := false) phi;
  !fpf
  ||
  (* identity is allowed *)
  let id = ref true in
  Array.iteri (fun i v -> if i <> v then id := false) phi;
  !id

(* Backtracking search for a sharply transitive set of automorphisms
   containing the identity, closed under composition. [chosen.(w)] is the
   automorphism mapping the base vertex 0 to [w]. Constraint: for assigned
   u, w: chosen(u) o chosen(w) maps 0 to chosen(u).(w), so it must equal
   chosen.(chosen(u).(w)) — we propagate these forced assignments. *)
let find_regular_subgroup n candidates =
  let chosen : int array option array = Array.make n None in
  let assigned = ref [] in
  (* trail for undo *)
  let trail = ref [] in
  let set w phi =
    chosen.(w) <- Some phi;
    assigned := w :: !assigned;
    trail := w :: !trail
  in
  let undo_to mark =
    while !trail != mark do
      match !trail with
      | [] -> assert false
      | w :: tl ->
          chosen.(w) <- None;
          (match !assigned with
          | w' :: tl' when w' = w -> assigned := tl'
          | _ -> assert false);
          trail := tl
    done
  in
  let compose a b = Array.init n (fun i -> a.(b.(i))) in
  (* Try to assign phi at w, propagating products; false on conflict. *)
  let rec assign w phi =
    match chosen.(w) with
    | Some existing -> existing = phi
    | None ->
        if not (fixed_point_free phi) then false
        else begin
          set w phi;
          (* propagate closure with every currently assigned element *)
          let rec products = function
            | [] -> true
            | u :: rest -> (
                match chosen.(u) with
                | None -> products rest
                | Some psi ->
                    (* psi o phi maps 0 to psi(w); phi o psi maps 0 to
                       phi(u) *)
                    assign psi.(w) (compose psi phi)
                    && assign phi.(u) (compose phi psi)
                    && products rest)
          in
          products !assigned
        end
  in
  let identity = Array.init n Fun.id in
  let stop = ref false in
  let rec search on_solution =
    if not !stop then begin
      (* next unassigned node *)
      let rec next w =
        if w >= n then None
        else if chosen.(w) = None then Some w
        else next (w + 1)
      in
      match next 0 with
      | None ->
          on_solution
            (Array.init n (fun w ->
                 match chosen.(w) with Some phi -> phi | None -> assert false))
      | Some w ->
          List.iter
            (fun phi ->
              if not !stop then begin
                let mark = !trail in
                if assign w phi then search on_solution;
                undo_to mark
              end)
            candidates.(w)
    end
  in
  if not (assign 0 identity) then `No_solutions
  else `Enumerate (fun ~limit ->
      let found = ref [] and count = ref 0 in
      stop := false;
      search (fun sol ->
          found := sol :: !found;
          incr count;
          if !count >= limit then stop := true);
      List.rev !found)

(* Candidate translations per target node: fixed-point-free automorphisms
   mapping the base vertex 0 there. One canonical run gives both the
   orbits (is the graph vertex-transitive?) and the generators the
   automorphism group is closed from. *)
let candidates_of ?(max_aut = 50_000) ?max_leaves g =
  let n = Graph.n g in
  let r = Canon.run ?max_leaves (Cdigraph.of_graph g) in
  if Array.exists (fun o -> o <> 0) r.Canon.orbits then `Not_vt
  else
    match Aut.close ~cap:max_aut n r.Canon.generators with
    | exception Aut.Too_large -> `Too_large
    | autos ->
        let candidates = Array.make n [] in
        List.iter
          (fun phi ->
            if fixed_point_free phi then
              candidates.(phi.(0)) <- phi :: candidates.(phi.(0)))
          autos;
        candidates.(0) <- [ Array.init n Fun.id ];
        `Candidates candidates

let recognize ?(max_aut = 50_000) ?max_leaves g =
  let n = Graph.n g in
  if n = 1 then
    (* K_1 is Cay(trivial group, {}) degenerately; treat explicitly. *)
    Cayley
      {
        group = Qe_group.Group.cyclic 1;
        generators = [];
        translations = [| [| 0 |] |];
      }
  else
    match candidates_of ~max_aut ?max_leaves g with
    | `Not_vt -> Not_cayley
    | `Too_large ->
        Unknown (Printf.sprintf "automorphism group above cap %d" max_aut)
    | `Candidates candidates -> (
        if Array.exists (fun c -> c = []) candidates then Not_cayley
        else
          match
            match find_regular_subgroup n candidates with
            | `No_solutions -> None
            | `Enumerate enum -> (
                match enum ~limit:1 with
                | [] -> None
                | sol :: _ -> Some sol)
          with
          | None -> Not_cayley
          | Some translations ->
              (* group table: e_u * e_w = translation mapping 0 to
                 translations.(u).(w) *)
              let table =
                Array.init n (fun u ->
                    Array.init n (fun w -> translations.(u).(w)))
              in
              let group = Qe_group.Group.of_mul_table ~name:"recovered" table in
              let generators = List.sort compare (Graph.neighbors g 0) in
              (* the recognized regular subgroup doubles as a
                 transitivity witness for downstream fast paths *)
              Graph.set_transitivity_witness g
                {
                  Graph.w_gens =
                    Array.of_list (List.map (fun v -> translations.(v)) generators);
                };
              Cayley { group; generators; translations })

let is_cayley ?max_aut ?max_leaves g =
  match recognize ?max_aut ?max_leaves g with
  | Cayley _ -> true
  | Not_cayley -> false
  | Unknown msg -> failwith ("Cayley_detect.is_cayley: " ^ msg)

let translation_classes r ~black =
  let n = Array.length r.translations in
  let is_black = Array.make n false in
  List.iter (fun b -> is_black.(b) <- true) black;
  let preserving =
    Array.to_list r.translations
    |> List.filter (fun phi ->
           List.for_all (fun b -> is_black.(phi.(b))) black)
  in
  let assigned = Array.make n false in
  let classes = ref [] in
  for u = 0 to n - 1 do
    if not assigned.(u) then begin
      let orbit =
        List.sort_uniq compare (List.map (fun phi -> phi.(u)) preserving)
      in
      List.iter (fun v -> assigned.(v) <- true) orbit;
      classes := orbit :: !classes
    end
  done;
  List.rev !classes

let verify g r =
  let n = Graph.n g in
  Array.length r.translations = n
  && Qe_group.Group.order r.group = n
  && (* each translation is an automorphism of g *)
  Array.for_all
    (fun phi ->
      let count tbl key delta =
        let cur = try Hashtbl.find tbl key with Not_found -> 0 in
        Hashtbl.replace tbl key (cur + delta)
      in
      let tbl = Hashtbl.create (2 * Graph.m g) in
      List.iter
        (fun (u, v) ->
          count tbl (min u v, max u v) 1;
          count tbl (min phi.(u) phi.(v), max phi.(u) phi.(v)) (-1))
        (Graph.edges g);
      Hashtbl.fold (fun _ c acc -> acc && c = 0) tbl true)
    r.translations
  && (* regularity: w-th translation maps 0 to w *)
  Array.for_all Fun.id (Array.init n (fun w -> r.translations.(w).(0) = w))
  && (* table matches composition *)
  Array.for_all Fun.id
    (Array.init n (fun u ->
         Array.for_all Fun.id
           (Array.init n (fun w ->
                let composed =
                  Array.init n (fun i -> r.translations.(u).(r.translations.(w).(i)))
                in
                composed = r.translations.(Qe_group.Group.mul r.group u w)))))

let all_regular_subgroups ?max_aut ?max_leaves ?(limit = 10_000) g =
  let n = Graph.n g in
  if n = 1 then [ [| [| 0 |] |] ]
  else
    match candidates_of ?max_aut ?max_leaves g with
    | `Not_vt -> []
    | `Too_large ->
        failwith
          "Cayley_detect.all_regular_subgroups: automorphism group above cap"
    | `Candidates candidates -> (
        if Array.exists (fun c -> c = []) candidates then []
        else
          match find_regular_subgroup n candidates with
          | `No_solutions -> []
          | `Enumerate enum -> enum ~limit)

let exists_preserving_translation ?max_aut ?max_leaves g ~black =
  let n = Graph.n g in
  let is_black = Array.make n false in
  List.iter (fun b -> is_black.(b) <- true) black;
  let preserves phi = List.for_all (fun b -> is_black.(phi.(b))) black in
  let is_id phi =
    let id = ref true in
    Array.iteri (fun i v -> if i <> v then id := false) phi;
    !id
  in
  List.exists
    (fun subgroup ->
      Array.exists (fun phi -> (not (is_id phi)) && preserves phi) subgroup)
    (all_regular_subgroups ?max_aut ?max_leaves g)
