module Graph = Qe_graph.Graph
module Labeling = Qe_graph.Labeling

type verdict = Leader | Defeated | Undecided

type outcome = { verdicts : verdict array; rounds : int; messages : int }

let unique_leader o =
  let leaders = ref [] in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      match v with
      | Leader -> leaders := i :: !leaders
      | Defeated -> ()
      | Undecided -> ok := false)
    o.verdicts;
  match (!ok, !leaders) with true, [ l ] -> Some l | _ -> None

(* Hash-consed view DAG. A view node is (root color, sorted children),
   each child keyed by the ordered pair of edge labels (near, far). Equal
   ids are equal views; interning is canonical because children are
   interned bottom-up. *)
module Vdag = struct
  type key = int * ((int * int) * int) list

  type t = {
    intern_tbl : (key, int) Hashtbl.t;
    mutable nodes : key array;  (* id -> key *)
    mutable count : int;
    mutable depth : int array;  (* id -> view depth *)
    cmp_memo : (int * int, int) Hashtbl.t;
  }

  let create () =
    {
      intern_tbl = Hashtbl.create 256;
      nodes = Array.make 64 (0, []);
      count = 0;
      depth = Array.make 64 0;
      cmp_memo = Hashtbl.create 256;
    }

  let grow t =
    if t.count >= Array.length t.nodes then begin
      let nodes = Array.make (2 * Array.length t.nodes) (0, []) in
      Array.blit t.nodes 0 nodes 0 t.count;
      t.nodes <- nodes;
      let depth = Array.make (2 * Array.length t.depth) 0 in
      Array.blit t.depth 0 depth 0 t.count;
      t.depth <- depth
    end

  let intern t key =
    match Hashtbl.find_opt t.intern_tbl key with
    | Some id -> id
    | None ->
        grow t;
        let id = t.count in
        t.count <- t.count + 1;
        t.nodes.(id) <- key;
        let _, children = key in
        t.depth.(id) <-
          1 + List.fold_left (fun acc (_, c) -> max acc t.depth.(c)) (-1) children;
        Hashtbl.add t.intern_tbl key id;
        id

  let key t id = t.nodes.(id)

  (* total order on views: by color, then children lexicographically
     (label pairs, then recursive view order) *)
  let rec compare_ids t a b =
    if a = b then 0
    else
      match Hashtbl.find_opt t.cmp_memo (a, b) with
      | Some c -> c
      | None ->
          let ca, cha = key t a and cb, chb = key t b in
          let rec cmp_children x y =
            match (x, y) with
            | [], [] -> 0
            | [], _ -> -1
            | _, [] -> 1
            | (la, va) :: ta, (lb, vb) :: tb ->
                let c = compare la lb in
                if c <> 0 then c
                else
                  let c = compare_ids t va vb in
                  if c <> 0 then c else cmp_children ta tb
          in
          let c =
            let c0 = compare ca cb in
            if c0 <> 0 then c0 else cmp_children cha chb
          in
          Hashtbl.add t.cmp_memo (a, b) c;
          c

  (* truncation of a view to a smaller depth *)
  let truncate t id d =
    let memo = Hashtbl.create 64 in
    let rec go id d =
      match Hashtbl.find_opt memo (id, d) with
      | Some x -> x
      | None ->
          let color, children = key t id in
          let x =
            if d = 0 then intern t (color, [])
            else
              intern t
                ( color,
                  List.map (fun (lab, c) -> (lab, go c (d - 1))) children )
          in
          Hashtbl.add memo (id, d) x;
          x
    in
    go id d

  (* all sub-views within [steps] hops of the root, as a set of ids;
     tracks the best remaining budget per id so shared sub-DAGs are
     expanded as deep as any path allows *)
  let reachable t id steps =
    let best = Hashtbl.create 64 in
    let rec go id steps =
      let known = try Hashtbl.find best id with Not_found -> -1 in
      if steps > known then begin
        Hashtbl.replace best id steps;
        if steps > 0 then
          let _, children = key t id in
          List.iter (fun (_, c) -> go c (steps - 1)) children
      end
    in
    go id steps;
    Hashtbl.fold (fun k _ acc -> k :: acc) best []
end

(* One synchronous view-growing round: every processor sends its current
   view id through every port and rebuilds from what it receives. *)
let grow_views dag l ids =
  let g = Labeling.graph l in
  let next =
    Array.mapi
      (fun v _ ->
        let children =
          Graph.fold_darts_at g v ~init:[] ~f:(fun acc i dst dst_port _ ->
              let near = Labeling.symbol l v i in
              let far = Labeling.symbol l dst dst_port in
              ((near, far), ids.(dst)) :: acc)
          |> List.sort compare
        in
        Vdag.intern dag (0, children))
      ids
  in
  next

module View_election = struct
  let run l =
    let g = Labeling.graph l in
    let n = Graph.n g in
    let dag = Vdag.create () in
    let ids = ref (Array.init n (fun _ -> Vdag.intern dag (0, []))) in
    let messages = ref 0 in
    let rounds = 2 * (n - 1) in
    for _ = 1 to rounds do
      ids := grow_views dag l !ids;
      messages := !messages + (2 * Graph.m g)
    done;
    (* local decision at each processor *)
    let verdicts =
      Array.init n (fun v ->
          let full = !ids.(v) in
          let all_views =
            Vdag.reachable dag full (n - 1)
            |> List.filter (fun id -> dag.Vdag.depth.(id) >= n - 1)
            |> List.map (fun id -> Vdag.truncate dag id (n - 1))
            |> List.sort_uniq compare
          in
          let my_view = Vdag.truncate dag full (n - 1) in
          let distinct = List.length all_views in
          (* YK: all view classes have equal size sigma = n / #views *)
          if n mod distinct <> 0 then Undecided
          else
            let sigma = n / distinct in
            if sigma > 1 then Undecided
            else
              let maximal =
                List.for_all
                  (fun other -> Vdag.compare_ids dag my_view other >= 0)
                  all_views
              in
              if maximal then Leader else Defeated)
    in
    { verdicts; rounds; messages = !messages }
end

module Flooding_max = struct
  let run ?ids l =
    let g = Labeling.graph l in
    let n = Graph.n g in
    let ids = match ids with Some a -> Array.copy a | None -> Array.init n Fun.id in
    let best = Array.copy ids in
    let messages = ref 0 in
    for _ = 1 to n do
      let next = Array.copy best in
      for v = 0 to n - 1 do
        Graph.iter_darts g v (fun _ dst _ _ ->
            incr messages;
            if best.(v) > next.(dst) then next.(dst) <- best.(v))
      done;
      Array.blit next 0 best 0 n
    done;
    let verdicts =
      Array.init n (fun v -> if best.(v) = ids.(v) then Leader else Defeated)
    in
    { verdicts; rounds = n; messages = !messages }
end

module Async_flooding = struct
  let run ?(seed = 0) ?ids l =
    let g = Labeling.graph l in
    let n = Graph.n g in
    let ids =
      match ids with Some a -> Array.copy a | None -> Array.init n Fun.id
    in
    let best = Array.copy ids in
    let st = Random.State.make [| seed; 0xa5 |] in
    (* the bag of in-flight messages: (destination, payload) *)
    let bag = ref [] in
    let bag_size = ref 0 in
    let send_all v payload =
      Graph.iter_darts g v (fun _ dst _ _ ->
          bag := (dst, payload) :: !bag;
          incr bag_size)
    in
    for v = 0 to n - 1 do
      send_all v ids.(v)
    done;
    let messages = ref 0 in
    let deliveries = ref 0 in
    while !bag_size > 0 do
      (* adversarial pick: remove a random element of the bag *)
      let i = Random.State.int st !bag_size in
      let rec extract k acc = function
        | [] -> assert false
        | m :: rest ->
            if k = i then (m, List.rev_append acc rest)
            else extract (k + 1) (m :: acc) rest
      in
      let (dst, payload), rest = extract 0 [] !bag in
      bag := rest;
      decr bag_size;
      incr messages;
      incr deliveries;
      if payload > best.(dst) then begin
        best.(dst) <- payload;
        send_all dst payload
      end
    done;
    let verdicts =
      Array.init n (fun v -> if best.(v) = ids.(v) then Leader else Defeated)
    in
    { verdicts; rounds = !deliveries; messages = !messages }
end
