(* [hash] is -1 until the first {!identity_hash}; the memo is a
   single-word write of an immediate, so racing domains at worst compute
   it twice. *)
type t = { graph : Graph.t; black : bool array; mutable hash : int }

let make graph ~black =
  let n = Graph.n graph in
  if black = [] then invalid_arg "Bicolored.make: empty placement";
  let arr = Array.make n false in
  List.iter
    (fun u ->
      if u < 0 || u >= n then invalid_arg "Bicolored.make: node out of range";
      if arr.(u) then invalid_arg "Bicolored.make: duplicate home-base";
      arr.(u) <- true)
    black;
  { graph; black = arr; hash = -1 }

let graph t = t.graph
let black_array t = t.black

let identity_hash t =
  if t.hash >= 0 then t.hash
  else begin
    let h = ref (Graph.structure_hash t.graph) in
    Array.iter (fun b -> h := Graph.hash_mix !h (Bool.to_int b)) t.black;
    let h = !h land max_int in
    t.hash <- h;
    h
  end

let is_black t u = t.black.(u)

let blacks t =
  let acc = ref [] in
  for u = Graph.n t.graph - 1 downto 0 do
    if t.black.(u) then acc := u :: !acc
  done;
  !acc

let num_blacks t = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.black
let node_color t u = if t.black.(u) then 1 else 0

let complement t =
  let whites =
    List.filter (fun u -> not t.black.(u)) (List.init (Graph.n t.graph) Fun.id)
  in
  make t.graph ~black:whites

let pp ppf t =
  Format.fprintf ppf "(%a, blacks=%s)" Graph.pp t.graph
    (String.concat "," (List.map string_of_int (blacks t)))
