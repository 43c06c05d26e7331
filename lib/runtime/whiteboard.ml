(* [signs] is kept newest first, so a post is O(1); [fwd] caches the
   oldest-first list readers get, valid while [fwd_rev] = [revision]:
   an agent that observes an unchanged board (a barrier wait, a step of
   a walk) gets the same list without a [List.rev]. *)
type t = {
  mutable signs : Sign.t list;
  mutable revision : int;
  mutable fwd : Sign.t list;
  mutable fwd_rev : int;
}

let create () = { signs = []; revision = 0; fwd = []; fwd_rev = 0 }

let signs t =
  if t.fwd_rev <> t.revision then begin
    t.fwd <- List.rev t.signs;
    t.fwd_rev <- t.revision
  end;
  t.fwd

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
