type t = { graph : Graph.t; table : int array array }

(* One scratch buffer reused across nodes (sorted prefix + adjacent
   scan) — validating a 10^5-node labeling allocates O(max_degree), not
   a Hashtbl per node. *)
let validate g table =
  let scratch = Array.make (max 1 (Graph.max_degree g)) 0 in
  for u = 0 to Graph.n g - 1 do
    let syms = table.(u) in
    let len = Array.length syms in
    Array.blit syms 0 scratch 0 len;
    (* insertion sort of the prefix: degrees are small *)
    for i = 1 to len - 1 do
      let x = scratch.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && scratch.(!j) > x do
        scratch.(!j + 1) <- scratch.(!j);
        decr j
      done;
      scratch.(!j + 1) <- x
    done;
    for i = 0 to len - 2 do
      if scratch.(i) = scratch.(i + 1) then
        invalid_arg
          (Printf.sprintf "Labeling: node %d carries symbol %d on two ports" u
             scratch.(i))
    done
  done

let make g f =
  let table = Array.init (Graph.n g) (fun u -> Array.init (Graph.degree g u) (f u)) in
  validate g table;
  { graph = g; table }

let standard g = make g (fun _ i -> i)

let shuffled ~seed g =
  let st = Random.State.make [| seed; Graph.n g; Graph.m g |] in
  (* Draw, per node, [deg] distinct symbols from a pool that is a few times
     larger than the max degree, so symbols repeat across nodes (as symbols
     from one alphabet would) while staying distinct within a node. *)
  let pool = max 4 (4 * Graph.max_degree g) in
  let table =
    Array.init (Graph.n g) (fun u ->
        let deg = Graph.degree g u in
        let chosen = Hashtbl.create 8 in
        Array.init deg (fun _ ->
            let rec draw () =
              let s = Random.State.int st pool in
              if Hashtbl.mem chosen s then draw ()
              else begin
                Hashtbl.add chosen s ();
                s
              end
            in
            draw ()))
  in
  { graph = g; table }

let symbol l u i = l.table.(u).(i)

let port_of_symbol l u s =
  let syms = l.table.(u) in
  let rec go i =
    if i >= Array.length syms then None
    else if syms.(i) = s then Some i
    else go (i + 1)
  in
  go 0

let graph l = l.graph

let symbols_at l u = Array.copy l.table.(u)

let check l =
  try
    validate l.graph l.table;
    true
  with Invalid_argument _ -> false

let pp ppf l =
  Format.fprintf ppf "@[<v>labeling@,";
  Array.iteri
    (fun u syms ->
      Format.fprintf ppf "  node %d: %s@," u
        (String.concat " "
           (Array.to_list (Array.map string_of_int syms))))
    l.table;
  Format.fprintf ppf "@]"
