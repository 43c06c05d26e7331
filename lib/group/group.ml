module P = Presentation

type t = P.t

let elements g = List.init (P.order g) Fun.id

let is_abelian g =
  List.for_all
    (fun a -> List.for_all (fun b -> P.mul g a b = P.mul g b a) (elements g))
    (elements g)

let closure g gens =
  let seen = Array.make (P.order g) false in
  seen.(0) <- true;
  let q = Queue.create () in
  Queue.add 0 q;
  while not (Queue.is_empty q) do
    let a = Queue.pop q in
    List.iter
      (fun s ->
        List.iter
          (fun b ->
            if not seen.(b) then begin
              seen.(b) <- true;
              Queue.add b q
            end)
          [ P.mul g a s; P.mul g a (P.inv g s) ])
      gens
  done;
  List.filter (fun a -> seen.(a)) (elements g)

let permutation_group ~name ~k keep =
  (* Enumerate permutations of [0..k-1] (identity first), keep those
     accepted by [keep], and build the table by composition. *)
  let rec perms avail =
    if avail = [] then [ [] ]
    else
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) avail in
          List.map (fun p -> x :: p) (perms rest))
        (List.sort compare avail)
  in
  let all = perms (List.init k Fun.id) in
  let all =
    Array.of_list
      (List.filter keep (List.map Array.of_list all))
  in
  (* Identity is the sorted permutation, first in lexicographic order and
     always kept (even permutation). *)
  assert (all.(0) = Array.init k Fun.id);
  let index = Hashtbl.create (Array.length all) in
  Array.iteri (fun i p -> Hashtbl.add index p i) all;
  let compose p q = Array.init k (fun i -> p.(q.(i))) in
  let n = Array.length all in
  let table =
    Array.init n (fun a ->
        Array.init n (fun b -> Hashtbl.find index (compose all.(a) all.(b))))
  in
  P.of_mul_table ~name table

let symmetric k =
  if k < 1 || k > 6 then invalid_arg "Group.symmetric: need 1 <= k <= 6";
  permutation_group ~name:(Printf.sprintf "S%d" k) ~k (fun _ -> true)

let of_permutation p =
  (* Lehmer code: each entry counts the later, smaller entries, a digit
     of the rank in the factorial number system *)
  let k = Array.length p in
  let rank = ref 0 in
  for i = 0 to k - 1 do
    let smaller = ref 0 in
    for j = i + 1 to k - 1 do
      if p.(j) < p.(i) then incr smaller
    done;
    rank := (!rank * (k - i)) + !smaller
  done;
  !rank

let parity p =
  (* number of inversions mod 2 *)
  let n = Array.length p in
  let inv = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if p.(i) > p.(j) then incr inv
    done
  done;
  !inv land 1

let alternating k =
  if k < 2 || k > 6 then invalid_arg "Group.alternating: need 2 <= k <= 6";
  permutation_group ~name:(Printf.sprintf "A%d" k) ~k (fun p -> parity p = 0)

let quaternion () =
  (* Elements: 1, -1, i, -i, j, -j, k, -k as 0..7. Encoded via sign (bit 0)
     and axis (bits 1-2): axis 0 = 1, 1 = i, 2 = j, 3 = k. *)
  let enc axis sign = (axis * 2) + sign in
  let mul_q (a_ax, a_s) (b_ax, b_s) =
    (* quaternion unit multiplication: table over axes with a sign *)
    let ax, s =
      match (a_ax, b_ax) with
      | 0, b -> (b, 0)
      | a, 0 -> (a, 0)
      | 1, 1 -> (0, 1)
      | 2, 2 -> (0, 1)
      | 3, 3 -> (0, 1)
      | 1, 2 -> (3, 0)
      | 2, 1 -> (3, 1)
      | 2, 3 -> (1, 0)
      | 3, 2 -> (1, 1)
      | 3, 1 -> (2, 0)
      | 1, 3 -> (2, 1)
      | _ -> assert false
    in
    (ax, (s + a_s + b_s) mod 2)
  in
  let table =
    Array.init 8 (fun x ->
        Array.init 8 (fun y ->
            let ax, s = mul_q (x / 2, x mod 2) (y / 2, y mod 2) in
            enc ax s))
  in
  P.of_mul_table ~name:"Q8" table

(* greedy generating set: repeatedly adjoin the smallest element outside
   the closure *)
let greedy_generators g =
  let rec go gens covered =
    if List.length covered = P.order g then List.rev gens
    else
      let x =
        List.find (fun a -> not (List.mem a covered)) (elements g)
      in
      go (x :: gens) (closure g (x :: gens))
  in
  go [] (closure g [])

let order_profile g =
  List.sort compare (List.map (P.elt_order g) (elements g))

let find_isomorphism g h =
  if P.order g <> P.order h then None
  else if order_profile g <> order_profile h then None
  else if is_abelian g <> is_abelian h then None
  else begin
    let n = P.order g in
    let gens = greedy_generators g in
    (* candidates per generator: elements of h with the same order *)
    let candidates =
      List.map
        (fun s ->
          let os = P.elt_order g s in
          List.filter (fun x -> P.elt_order h x = os) (elements h))
        gens
    in
    (* given generator images, extend to the full map by BFS over words;
       the BFS construction makes the map a homomorphism whenever it is
       consistent *)
    let extend images =
      let map = Array.make n (-1) in
      map.(0) <- 0;
      let q = Queue.create () in
      Queue.add 0 q;
      let ok = ref true in
      while !ok && not (Queue.is_empty q) do
        let x = Queue.pop q in
        List.iter2
          (fun s img ->
            let y = P.mul g x s in
            let fy = P.mul h map.(x) img in
            if map.(y) = -1 then begin
              map.(y) <- fy;
              Queue.add y q
            end
            else if map.(y) <> fy then ok := false)
          gens images
      done;
      if not !ok then None
      else begin
        (* bijective? *)
        let seen = Array.make n false in
        let bij = ref true in
        Array.iter
          (fun v ->
            if v < 0 || seen.(v) then bij := false else seen.(v) <- true)
          map;
        if !bij then Some map else None
      end
    in
    let rec search chosen = function
      | [] -> extend (List.rev chosen)
      | cands :: rest ->
          List.fold_left
            (fun acc c ->
              match acc with
              | Some _ -> acc
              | None -> search (c :: chosen) rest)
            None cands
    in
    search [] candidates
  end

let isomorphic g h = find_isomorphism g h <> None

let catalog =
  lazy
    (let entries = ref [] in
     let add name g = entries := (name, g) :: !entries in
     (* cyclics first so that aliases resolve to the cyclic name *)
     for n = 1 to 24 do
       add (Printf.sprintf "Z%d" n) (P.cyclic n)
     done;
     (* abelian products (order <= 24) *)
     List.iter
       (fun factors ->
         let name =
           String.concat "x" (List.map (Printf.sprintf "Z%d") factors)
         in
         let grp =
           List.fold_left
             (fun acc f -> P.product acc (P.cyclic f))
             (P.cyclic (List.hd factors))
             (List.tl factors)
         in
         add name grp)
       [
         [ 2; 2 ]; [ 2; 4 ]; [ 2; 2; 2 ]; [ 3; 3 ]; [ 2; 6 ]; [ 2; 8 ];
         [ 4; 4 ]; [ 2; 2; 4 ]; [ 2; 2; 2; 2 ]; [ 2; 10 ]; [ 3; 6 ];
         [ 2; 12 ]; [ 2; 2; 6 ]; [ 4; 5 ];
       ];
     (* dihedral *)
     for k = 3 to 12 do
       add (Printf.sprintf "D%d" k) (P.dihedral k)
     done;
     add "Q8" (quaternion ());
     add "A4" (alternating 4);
     add "S4" (symmetric 4);
     add "Z2^2:Z2" (P.semidirect_shift 2);
     add "Z2^3:Z3" (P.semidirect_shift 3);
     add "Z3xZ2^2" (P.product (P.cyclic 3) (P.product (P.cyclic 2) (P.cyclic 2)));
     List.rev !entries)

let identify g =
  if P.order g > 24 then None
  else
    List.find_map
      (fun (name, h) ->
        if P.order h = P.order g && isomorphic g h then Some name else None)
      (Lazy.force catalog)

