let code ~equal xs =
  (* [seen] holds distinct elements in first-appearance order; the code of an
     element is 1 + its index in [seen]. *)
  let rec index_of x i = function
    | [] -> None
    | y :: tl -> if equal x y then Some i else index_of x (i + 1) tl
  in
  let rec go seen nseen acc = function
    | [] -> List.rev acc
    | x :: tl -> (
        match index_of x 0 seen with
        | Some i -> go seen nseen ((i + 1) :: acc) tl
        | None -> go (seen @ [ x ]) (nseen + 1) ((nseen + 1) :: acc) tl)
  in
  go [] 0 [] xs

let code_symbols ss = code ~equal:Symbol.equal ss

let same_coding ~equal xs ys =
  List.length xs = List.length ys && code ~equal xs = code ~equal ys
