type t = { mutable signs : Sign.t list; mutable revision : int }

let create () = { signs = []; revision = 0 }
let signs t = List.rev t.signs

let post t s =
  t.signs <- s :: t.signs;
  t.revision <- t.revision + 1

let erase t ~color ~tag =
  let keep, gone =
    List.partition
      (fun s -> not (Sign.by color s && Sign.has_tag tag s))
      t.signs
  in
  let n = List.length gone in
  if n > 0 then begin
    t.signs <- keep;
    t.revision <- t.revision + 1
  end;
  n

let find t ~tag = List.filter (Sign.has_tag tag) (signs t)

let revision t = t.revision
let size t = List.length t.signs
