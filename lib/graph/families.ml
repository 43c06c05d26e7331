(* [Invalid_argument "Families.<ctor>: <reason>"]; the message is
   formatted only when a constructor rejects its argument *)
let reject ctor fmt =
  Printf.ksprintf
    (fun why -> invalid_arg ("Families." ^ ctor ^ ": " ^ why))
    fmt

(* The size guard, checked before any loop or allocation: a node count
   past [max_int] would wrap to a small or negative [n]. The tests are
   overflow-safe: [2^d] fits iff [d < Sys.int_size - 1], and [a * b]
   (both >= 1) iff [a <= max_int / b]. *)
let too_many ctor fmt =
  reject ctor ("node count exceeds max_int (got " ^^ fmt ^^ ")")

let path n =
  if n < 1 then reject "path" "n must be >= 1 (got %d)" n;
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then reject "cycle" "n must be >= 3 (got %d)" n;
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  if n < 1 then reject "complete" "n must be >= 1 (got %d)" n;
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n (List.rev !edges)

let complete_bipartite a b =
  if a < 1 || b < 1 then
    reject "complete_bipartite" "both sides must be >= 1 (got %d, %d)" a b;
  let edges = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n:(a + b) (List.rev !edges)

let star k =
  if k < 1 then reject "star" "k must be >= 1 (got %d)" k;
  Graph.of_edges ~n:(k + 1) (List.init k (fun i -> (0, i + 1)))

let hypercube d =
  if d < 1 then reject "hypercube" "d must be >= 1 (got %d)" d;
  if d >= Sys.int_size - 1 then too_many "hypercube" "2^%d" d;
  let n = 1 lsl d in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for b = 0 to d - 1 do
      let v = u lxor (1 lsl b) in
      if u < v then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n (List.rev !edges)

let grid a b =
  if a < 1 || b < 1 || (a = 1 && b = 1) then
    reject "grid" "sides must be >= 1 with at least 2 nodes (got %dx%d)" a b;
  if a > max_int / b then too_many "grid" "%dx%d" a b;
  let id i j = (i * b) + j in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      if j + 1 < b then edges := (id i j, id i (j + 1)) :: !edges;
      if i + 1 < a then edges := (id i j, id (i + 1) j) :: !edges
    done
  done;
  Graph.of_edges ~n:(a * b) (List.rev !edges)

let torus a b =
  if a < 3 || b < 3 then reject "torus" "sides must be >= 3 (got %dx%d)" a b;
  if a > max_int / b then too_many "torus" "%dx%d" a b;
  let id i j = (i * b) + j in
  let edges = ref [] in
  for i = 0 to a - 1 do
    for j = 0 to b - 1 do
      edges := (id i j, id i ((j + 1) mod b)) :: !edges;
      edges := (id i j, id ((i + 1) mod a) j) :: !edges
    done
  done;
  Graph.of_edges ~n:(a * b) (List.rev !edges)

let circulant n jumps =
  if n < 3 then reject "circulant" "n must be >= 3 (got %d)" n;
  List.iter
    (fun j ->
      if j < 1 || 2 * j > n then
        reject "circulant" "jump %d out of range [1, %d] for n = %d" j
          (n / 2) n)
    jumps;
  let seen = Hashtbl.create 16 in
  let edges = ref [] in
  List.iter
    (fun j ->
      for i = 0 to n - 1 do
        let v = (i + j) mod n in
        let key = (min i v, max i v) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          edges := key :: !edges
        end
      done)
    jumps;
  Graph.of_edges ~n (List.rev !edges)

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  Graph.of_edges ~n:10 (outer @ inner @ spokes)

let cube_connected_cycles d =
  if d < 3 then reject "cube_connected_cycles" "d must be >= 3 (got %d)" d;
  if d >= Sys.int_size - 1 || d > max_int / (1 lsl d) then
    too_many "cube_connected_cycles" "%d * 2^%d" d d;
  let id w i = (w * d) + i in
  let edges = ref [] in
  for w = 0 to (1 lsl d) - 1 do
    for i = 0 to d - 1 do
      edges := (id w i, id w ((i + 1) mod d)) :: !edges;
      let w' = w lxor (1 lsl i) in
      if w < w' then edges := (id w i, id w' i) :: !edges
    done
  done;
  Graph.of_edges ~n:(d * (1 lsl d)) (List.rev !edges)

let binary_tree h =
  if h < 0 then reject "binary_tree" "h must be >= 0 (got %d)" h;
  if h >= Sys.int_size - 1 then too_many "binary_tree" "2^(%d + 1) - 1" h;
  let n = (1 lsl (h + 1)) - 1 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    let l = (2 * u) + 1 and r = (2 * u) + 2 in
    if l < n then edges := (u, l) :: !edges;
    if r < n then edges := (u, r) :: !edges
  done;
  Graph.of_edges ~n (List.rev !edges)

let wheel k =
  if k < 3 then reject "wheel" "k must be >= 3 (got %d)" k;
  let rim = List.init k (fun i -> (i, (i + 1) mod k)) in
  let spokes = List.init k (fun i -> (i, k)) in
  Graph.of_edges ~n:(k + 1) (rim @ spokes)

let generalized_petersen n k =
  if n < 3 || k < 1 || 2 * k >= n then
    reject "generalized_petersen"
      "need n >= 3 and 1 <= k < n/2 (got n = %d, k = %d)" n k;
  let outer = List.init n (fun i -> (i, (i + 1) mod n)) in
  let inner = List.init n (fun i -> (n + i, n + ((i + k) mod n))) in
  (* dedupe inner edges when k = n/2 is excluded, so all are distinct *)
  let spokes = List.init n (fun i -> (i, n + i)) in
  Graph.of_edges ~n:(2 * n) (outer @ inner @ spokes)

let moebius_kantor () = generalized_petersen 8 3
let dodecahedron () = generalized_petersen 10 2
let desargues () = generalized_petersen 10 3

let kneser n k =
  if k < 1 || n < (2 * k) + 1 then
    reject "kneser" "need k >= 1 and n >= 2k + 1 (got n = %d, k = %d)" n k;
  (* enumerate k-subsets as sorted int lists *)
  let rec subsets from size =
    if size = 0 then [ [] ]
    else if from >= n then []
    else
      List.map (fun s -> from :: s) (subsets (from + 1) (size - 1))
      @ subsets (from + 1) size
  in
  let nodes = Array.of_list (subsets 0 k) in
  let nn = Array.length nodes in
  if nn > 5000 then reject "kneser" "%d subsets exceed the cap of 5000" nn;
  let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a in
  let edges = ref [] in
  for i = 0 to nn - 1 do
    for j = i + 1 to nn - 1 do
      if disjoint nodes.(i) nodes.(j) then edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges ~n:nn (List.rev !edges)

let complete_multipartite sizes =
  if sizes = [] || List.exists (fun s -> s < 1) sizes then
    reject "complete_multipartite"
      "need at least one part, each of size >= 1 (got [%s])"
      (String.concat "; " (List.map string_of_int sizes));
  let n = List.fold_left ( + ) 0 sizes in
  (* group id per node *)
  let group = Array.make n 0 in
  let _ =
    List.fold_left
      (fun (g, offset) s ->
        for i = offset to offset + s - 1 do
          group.(i) <- g
        done;
        (g + 1, offset + s))
      (0, 0) sizes
  in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if group.(u) <> group.(v) then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n (List.rev !edges)

let double_star a b =
  if a < 1 || b < 1 then
    reject "double_star" "both leaf counts must be >= 1 (got %d, %d)" a b;
  let n = 2 + a + b in
  let edges =
    ((0, 1) :: List.init a (fun i -> (0, 2 + i)))
    @ List.init b (fun i -> (1, 2 + a + i))
  in
  Graph.of_edges ~n edges

let random_connected ~seed ~n ~extra_edges =
  if n < 1 then
    reject "random_connected" "n must be >= 1 (got %d)" n;
  if extra_edges < 0 then
    reject "random_connected" "extra_edges must be >= 0 (got %d)" extra_edges;
  let st = Random.State.make [| seed; n; extra_edges |] in
  (* Random tree: attach each node (in a shuffled order) to a random earlier
     node of that order. *)
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let seen = Hashtbl.create (2 * n) in
  let edges = ref [] in
  let add u v =
    let key = (min u v, max u v) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      edges := key :: !edges;
      true
    end
    else false
  in
  for i = 1 to n - 1 do
    let parent = order.(Random.State.int st i) in
    ignore (add order.(i) parent)
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  let max_extra = (n * (n - 1) / 2) - (n - 1) in
  let target = min extra_edges max_extra in
  while !added < target && !attempts < 100 * (target + 1) do
    incr attempts;
    let u = Random.State.int st n and v = Random.State.int st n in
    if add u v then incr added
  done;
  Graph.of_edges ~n (List.rev !edges)

let figure2_path () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let table = [| [| 1 |]; [| 1; 2 |]; [| 1 |] |] in
  (g, Labeling.make g (fun u i -> table.(u).(i)))

let figure2c () =
  (* Edge order: ring xy, yz, zx; then e1, e2 (both x--y); then the loop at
     z. Port order per node follows edge order, so:
       x(0): ring-xy, ring-zx, e1, e2          -> labels 1 2 3 4
       y(1): ring-xy, ring-yz, e1, e2          -> labels 2 1 4 3
       z(2): ring-yz, ring-zx, loop, loop      -> labels 2 1 3 4 *)
  let g =
    Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0); (0, 1); (0, 1); (2, 2) ]
  in
  let table = [| [| 1; 2; 3; 4 |]; [| 2; 1; 4; 3 |]; [| 2; 1; 3; 4 |] |] in
  (g, Labeling.make g (fun u i -> table.(u).(i)))
