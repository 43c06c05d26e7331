module Bicolored = Qe_graph.Bicolored
module Graph = Qe_graph.Graph

(* Classes as flat arrays: members of class [i] occupy
   [members.(off.(i) .. off.(i+1)-1)], ascending. *)
type t = {
  off : int array;
  members : int array;
  node_class : int array;
  num_black : int;
  fast : bool;
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let gcd_all = List.fold_left gcd 0

(* The classes are the orbits of the color-preserving automorphisms
   (equivalently: nodes with isomorphic surroundings — Lemma 3.1's first
   claim, cross-checked in the test suite). One canonical run finds the
   orbits and, in the same labeling, the order [≺]: black classes first,
   then by each orbit's least canonical position, largest first (the
   direction that keeps ELECT's moves lowest on the zoo; see classes.mli
   for why any such key is isomorphism-invariant). *)
let compute_slow ?max_leaves b =
  let n = Graph.n (Bicolored.graph b) in
  let { Canon.orbits; canonical_labeling = pos; _ } =
    Canon.run ?max_leaves (Cdigraph.of_bicolored b)
  in
  (* each orbit's least canonical position, kept at its representative
     (the smallest member, so [orbits.(r) = r]) *)
  let least = Array.make n max_int in
  Array.iteri (fun u r -> least.(r) <- min least.(r) pos.(u)) orbits;
  let reps =
    Array.of_seq
      (Seq.filter (fun u -> orbits.(u) = u) (Seq.init n Fun.id))
  in
  (* a class is uniformly colored, so its representative's color decides *)
  let black r = Bicolored.is_black b r in
  Array.sort
    (fun r s ->
      if black r <> black s then compare (black s) (black r)
      else compare least.(s) least.(r))
    reps;
  let k = Array.length reps in
  let num_black =
    Array.fold_left (fun acc r -> if black r then acc + 1 else acc) 0 reps
  in
  let rep_class = Array.make n (-1) in
  Array.iteri (fun i r -> rep_class.(r) <- i) reps;
  (* counting sort of members into class order, ascending node ids *)
  let node_class = Array.init n (fun u -> rep_class.(orbits.(u))) in
  let off = Array.make (k + 1) 0 in
  Array.iter (fun i -> off.(i + 1) <- off.(i + 1) + 1) node_class;
  for i = 0 to k - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let members = Array.make n 0 in
  let next = Array.sub off 0 k in
  Array.iteri
    (fun u i ->
      members.(next.(i)) <- u;
      next.(i) <- next.(i) + 1)
    node_class;
  { off; members; node_class; num_black; fast = false }

(* Fast path: a verified vertex-transitivity certificate plus the
   uniform all-black placement pins the answer with no search at all —
   one orbit of color-preserving automorphisms means exactly one class
   containing every node. For any non-uniform placement translations
   only refine the true classes (the full group may pair nodes no
   translation does), so we fall through to the search. *)
let compute_fast b =
  let g = Bicolored.graph b in
  let n = Graph.n g in
  if Bicolored.num_blacks b <> n then None
  else
    match Transitive.certified g with
    | None -> None
    | Some _ ->
        Some
          {
            off = [| 0; n |];
            members = Array.init n Fun.id;
            node_class = Array.make n 0;
            num_black = 1;
            fast = true;
          }

let compute ?max_leaves b =
  let t_start =
    match Qe_obs.Sink.ambient () with
    | Some s ->
        Qe_obs.Metrics.incr
          (Qe_obs.Metrics.counter s.Qe_obs.Sink.metrics "classes.compute");
        Qe_obs.Clock.now_ns ()
    | None -> 0
  in
  let result, path =
    match compute_fast b with
    | Some t -> (t, "classes.fast_path")
    | None -> (compute_slow ?max_leaves b, "classes.slow_path")
  in
  (if t_start <> 0 then
     match Qe_obs.Sink.ambient () with
     | Some s ->
         Qe_obs.Metrics.incr
           (Qe_obs.Metrics.counter s.Qe_obs.Sink.metrics path);
         Qe_obs.Metrics.observe
           (Qe_obs.Metrics.latency s.Qe_obs.Sink.metrics
              "classes.compute_latency")
           (Qe_obs.Clock.now_ns () - t_start)
     | None -> ());
  result

let num_classes t = Array.length t.off - 1
let num_black_classes t = t.num_black
let used_fast_path t = t.fast
let class_of_node t u = t.node_class.(u)
let representative t i = t.members.(t.off.(i))
let size t i = t.off.(i + 1) - t.off.(i)

let members_of_class t i =
  let rec go j =
    if j >= t.off.(i + 1) then [] else t.members.(j) :: go (j + 1)
  in
  go t.off.(i)

let classes t = List.init (num_classes t) (members_of_class t)
let sizes t = List.init (num_classes t) (size t)
let gcd_sizes t = gcd_all (sizes t)

let pp ppf t =
  Format.fprintf ppf "@[<v>%d classes (%d black):@," (num_classes t)
    t.num_black;
  for i = 0 to num_classes t - 1 do
    Format.fprintf ppf "  C%d (%s): {%s}@," (i + 1)
      (if i < t.num_black then "black" else "white")
      (String.concat "," (List.map string_of_int (members_of_class t i)))
  done;
  Format.fprintf ppf "@]"
