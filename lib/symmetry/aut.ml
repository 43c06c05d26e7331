exception Too_large

let generators ?max_leaves g = (Canon.run ?max_leaves g).generators

let compose a b = Array.init (Array.length a) (fun i -> a.(b.(i)))

let close ?(cap = 100_000) n gens =
  let identity = Array.init n Fun.id in
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen identity ();
  let order = ref [ identity ] in
  let q = Queue.create () in
  Queue.add identity q;
  while not (Queue.is_empty q) do
    let phi = Queue.pop q in
    List.iter
      (fun gen ->
        let psi = compose gen phi in
        if not (Hashtbl.mem seen psi) then begin
          if Hashtbl.length seen >= cap then raise Too_large;
          Hashtbl.add seen psi ();
          order := psi :: !order;
          Queue.add psi q
        end)
      gens
  done;
  identity :: List.filter (fun p -> p <> identity) (List.rev !order)

let group ?max_leaves ?cap g =
  close ?cap (Cdigraph.n g) (generators ?max_leaves g)

let group_order ?max_leaves ?cap g = List.length (group ?max_leaves ?cap g)

let orbits ?max_leaves g = (Canon.run ?max_leaves g).orbits

let orbit_partition ?max_leaves g =
  let reps = orbits ?max_leaves g in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun u r ->
      let cur = try Hashtbl.find tbl r with Not_found -> [] in
      Hashtbl.replace tbl r (u :: cur))
    reps;
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) tbl []
  |> List.sort compare

let equivalent ?max_leaves g u v =
  let reps = orbits ?max_leaves g in
  reps.(u) = reps.(v)

let is_vertex_transitive ?max_leaves g =
  let reps = orbits ?max_leaves g in
  Array.for_all (fun r -> r = reps.(0)) reps
