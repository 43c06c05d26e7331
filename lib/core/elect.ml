module Color = Qe_color.Color
module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Sign = Qe_runtime.Sign
module Classes = Qe_symmetry.Classes

(* ---- whiteboard tag schema ---- *)

let t_phase p = Printf.sprintf "ph:%d" p
let t_sync label = "sync:" ^ label
let t_act p = Printf.sprintf "act:%d" p
let t_match p j = Printf.sprintf "match:%d:%d" p j
let t_match_prefix p = Printf.sprintf "match:%d:" p
let t_over p j = Printf.sprintf "over:%d:%d" p j
let t_over_prefix p = Printf.sprintf "over:%d:" p
let t_acq p j = Printf.sprintf "acq:%d:%d" p j
let t_own p j = Printf.sprintf "own:%d:%d" p j
let t_leader = "leader"
let t_failed = "failed"

(* a = q*b + rho with 0 < rho <= b (the paper's division convention) *)
let div_pos a b =
  let q = (a - 1) / b in
  (q, a - (q * b))

type plan = {
  classes : int list list;
  num_black : int;
  node_class : int array;
}

let plan_of_classes t ~n =
  {
    classes = Classes.classes t;
    num_black = Classes.num_black_classes t;
    node_class = Array.init n (Classes.class_of_node t);
  }

module Cache = Qe_symmetry.Artifact_cache

let plan_tbl : plan Cache.table = Cache.create_table ~kind:"elect.plan" ()

let make_plan b =
  Cache.memo plan_tbl ~key:(Cache.key_of_bicolored b) (fun () ->
      plan_of_classes (Cache.classes b)
        ~n:(Qe_graph.Graph.n (Qe_graph.Bicolored.graph b)))

let generic_plan map = make_plan (Mapping.bicolored map)

(* ---- the protocol body ---- *)

let run_on_map plan_of (ctx : Protocol.ctx) map =
  let nav = Nav.create map in
  let plan = plan_of map in
  let classes = Array.of_list plan.classes in
  let ell = plan.num_black in
  let k = Array.length classes in
  let me = Mapping.my_home map in
  let owner h =
    match Mapping.home_color map h with
    | Some c -> c
    | None -> failwith "elect: expected a home-base"
  in
  let my_class = plan.node_class.(me) in

  (* -- board predicates -- *)
  let signs_with_tag tag board = List.filter (Sign.has_tag tag) board in
  let board_has tag (obs : Protocol.observation) =
    signs_with_tag tag obs.board <> []
  in
  let board_has_foreign tag (obs : Protocol.observation) =
    List.exists
      (fun s -> Sign.has_tag tag s && not (Sign.by ctx.color s))
      obs.board
  in
  let board_has_prefix prefix (obs : Protocol.observation) =
    List.exists (fun s -> String.starts_with ~prefix s.Sign.tag) obs.board
  in

  (* -- movement helpers -- *)
  let go_home () = ignore (Nav.goto nav me) in

  (* Barrier among the known set [homes]: post a sync sign at my own home,
     then visit every other member's home and wait for its sync sign. *)
  let barrier label homes =
    go_home ();
    Script.post ~tag:(t_sync label) ();
    List.iter
      (fun h ->
        if h <> me then begin
          ignore (Nav.goto nav h);
          let c = owner h in
          Nav.wait_here nav (fun (o : Protocol.observation) ->
              if
                List.exists
                  (fun s -> Sign.has_tag (t_sync label) s && Sign.by c s)
                  o.board
              then Some ()
              else None)
        end)
      homes;
    go_home ()
  in

  let broadcast tag =
    Nav.tour nav (fun _ _ -> Script.post ~tag ())
  in

  (* One tour reading every whiteboard; returns lookup by map node. *)
  let collect_boards () =
    let n = Qe_graph.Graph.n (Mapping.graph map) in
    let boards = Array.make n [] in
    Nav.tour nav (fun u obs -> boards.(u) <- obs.Protocol.board);
    boards
  in

  (* -- AGENT-REDUCE ---------------------------------------------------- *)

  (* Replay the size/membership evolution of an agent phase from initial
     sets and the per-round matched sets. Returns the sets entering round
     [upto] (rounds are 1-based; [upto = 1] returns the initial sets). *)
  let replay p s0 w0 boards upto =
    let matched_in j w =
      List.filter (fun h -> signs_with_tag (t_match p j) boards.(h) <> []) w
    in
    let rec go s w j =
      if j >= upto then (s, w)
      else
        let pj = matched_in j w in
        let w' = List.filter (fun h -> not (List.mem h pj)) w in
        if List.length w - List.length s >= List.length s then go s w' (j + 1)
        else go w' s (j + 1)
    in
    go s0 w0 1
  in

  (* Wait at home for the final announcement. *)
  let passive_wait () =
    go_home ();
    Nav.wait_here nav (fun obs ->
        if board_has_foreign t_leader obs then Some Protocol.Defeated
        else if board_has t_failed obs then Some Protocol.Election_failed
        else None)
  in

  (* Searcher and waiter sides of an agent phase. Both return either
     [`Active d] — the phase finished and I am one of the [d] survivors —
     or [`Verdict v] — my run ends passively with verdict [v]. *)
  let rec searcher_rounds p s0 w0 s w j =
    if List.length s = List.length w then
      if List.mem me s then `Active s else `Verdict (passive_wait ())
    else begin
      barrier (Printf.sprintf "p%dr%ds" p j) s;
      (* matching tour: visit waiter homes in my own order; claim the
         first unmatched one (atomic visit ⇒ mutual exclusion) *)
      let matched = ref false in
      List.iter
        (fun h ->
          if not !matched then begin
            let obs = Nav.goto nav h in
            if not (board_has (t_match p j) obs) then begin
              Script.post ~tag:(t_match p j) ();
              matched := true
            end
          end)
        w;
      if not !matched then
        failwith "elect: searcher found no unmatched waiter (impossible)";
      barrier (Printf.sprintf "p%dr%dd" p j) s;
      let boards = collect_boards () in
      let s', w' = replay p s0 w0 boards (j + 1) in
      let swap = List.length w - List.length s < List.length s in
      if swap then begin
        (* the next searchers are the unmatched waiters: wake them *)
        List.iter
          (fun h ->
            ignore (Nav.goto nav h);
            Script.post ~tag:(t_over p j) ())
          s';
        go_home ();
        waiter_loop p s0 w0 (j + 1)
      end
      else searcher_rounds p s0 w0 s' w' (j + 1)
    end

  and waiter_loop p s0 w0 min_round =
    go_home ();
    (* the tag prefixes only depend on [p]: build them once, not on every
       observation the wait predicate sees *)
    let match_prefix = t_match_prefix p in
    let over_prefix = t_over_prefix p in
    let over_len = String.length over_prefix in
    let next_event =
      Nav.wait_here nav (fun obs ->
          if board_has_foreign t_leader obs then
            Some (`Verdict Protocol.Defeated)
          else if board_has t_failed obs then
            Some (`Verdict Protocol.Election_failed)
          else if board_has_prefix match_prefix obs then Some `Matched
          else
            (* an "over" sign for a round >= min_round promotes me *)
            let round_over =
              List.filter_map
                (fun s ->
                  if String.starts_with ~prefix:over_prefix s.Sign.tag then
                    int_of_string_opt
                      (String.sub s.Sign.tag over_len
                         (String.length s.Sign.tag - over_len))
                  else None)
                obs.board
              |> List.filter (fun j -> j + 1 >= min_round)
              |> List.fold_left max (-1)
            in
            if round_over >= 0 then Some (`Promoted (round_over + 1))
            else None)
    in
    match next_event with
    | `Verdict v -> `Verdict v
    | `Matched -> `Verdict (passive_wait ())
    | `Promoted j ->
        let boards = collect_boards () in
        let s, w = replay p s0 w0 boards j in
        searcher_rounds p s0 w0 s w j
  in

  let run_agent_phase p d cls =
    let s0, w0 =
      if List.length d <= List.length cls then (d, cls) else (cls, d)
    in
    if List.mem me s0 then searcher_rounds p s0 w0 s0 w0 1
    else waiter_loop p s0 w0 1
  in

  (* -- NODE-REDUCE ----------------------------------------------------- *)

  let run_node_phase p d cls =
    let rec rounds j d selected =
      let a = List.length d and b = List.length selected in
      if a = b then `Active d
      else begin
        barrier (Printf.sprintf "p%dr%dn" p j) d;
        if a > b then begin
          (* more agents than nodes: acquire one node each, quota q per
             node; acquirers retire *)
          let q, _rho = div_pos a b in
          let acquired = ref false in
          List.iter
            (fun u ->
              let obs = Nav.goto nav u in
              if
                (not !acquired)
                && List.length (signs_with_tag (t_acq p j) obs.board) < q
              then begin
                Script.post ~tag:(t_acq p j) ();
                acquired := true
              end)
            selected;
          barrier (Printf.sprintf "p%dr%dnd" p j) d;
          let boards = collect_boards () in
          let acquirer_homes =
            List.concat_map
              (fun u ->
                List.filter_map
                  (fun s -> Mapping.home_of_color map s.Sign.color)
                  (signs_with_tag (t_acq p j) boards.(u)))
              selected
            |> List.sort_uniq compare
          in
          if !acquired then `Verdict (passive_wait ())
          else
            rounds (j + 1)
              (List.filter (fun h -> not (List.mem h acquirer_homes)) d)
              selected
        end
        else begin
          (* more nodes than agents: own q nodes each; unowned nodes stay
             selected *)
          let q, _rho = div_pos b a in
          let owned = ref 0 in
          List.iter
            (fun u ->
              let obs = Nav.goto nav u in
              if !owned < q && not (board_has (t_own p j) obs) then begin
                Script.post ~tag:(t_own p j) ();
                incr owned
              end)
            selected;
          barrier (Printf.sprintf "p%dr%dnd" p j) d;
          let boards = collect_boards () in
          let selected' =
            List.filter
              (fun u -> signs_with_tag (t_own p j) boards.(u) = [])
              selected
          in
          rounds (j + 1) d selected'
        end
      end
    in
    rounds 1 d cls
  in

  (* -- stage drivers ---------------------------------------------------- *)

  (* Run phases from [p] with active set [d] (which I belong to). *)
  let rec stages p d =
    if List.length d = 1 then `Active d
    else if p > k - 1 then `Active d
    else if p <= ell - 1 then begin
      (* agent phase p merges class C_{p+1} = classes.(p): the current
         actives advertise themselves at their homes (so the joining class
         can reconstruct the active set), synchronize, then wake the class
         with a whole-network broadcast *)
      go_home ();
      Script.post ~tag:(t_act p) ();
      barrier (Printf.sprintf "p%dpre" p) d;
      broadcast (t_phase p);
      match run_agent_phase p d classes.(p) with
      | `Active d' -> stages (p + 1) d'
      | `Verdict v -> `Verdict v
    end
    else begin
      match run_node_phase p d classes.(p) with
      | `Active d' -> stages (p + 1) d'
      | `Verdict v -> `Verdict v
    end
  in

  let outcome =
    if my_class = 0 then stages 1 classes.(0)
    else if my_class = 1 && ell >= 2 then begin
      (* phase-1 co-participant from C_2: joins the first AGENT-REDUCE
         directly. If C_1 is a singleton there is no phase 1 at all — its
         agent is the leader — so just await the announcement. *)
      if List.length classes.(0) = 1 then `Verdict (passive_wait ())
      else
        match run_agent_phase 1 classes.(0) classes.(1) with
        | `Active d' -> stages 2 d'
        | `Verdict v -> `Verdict v
    end
    else begin
      (* late joiner: my class C_{mc+1} activates at phase mc *)
      let activation_phase = my_class in
      go_home ();
      let event =
        Nav.wait_here nav (fun obs ->
            if board_has_foreign t_leader obs then
              Some (`Verdict Protocol.Defeated)
            else if board_has t_failed obs then
              Some (`Verdict Protocol.Election_failed)
            else if board_has (t_phase activation_phase) obs then
              Some `Engage
            else None)
      in
      match event with
      | `Verdict v -> `Verdict v
      | `Engage ->
          let boards = collect_boards () in
          let d =
            List.filter
              (fun h ->
                List.exists
                  (fun s ->
                    Sign.has_tag (t_act activation_phase) s
                    && Sign.by (owner h) s)
                  boards.(h))
              (Mapping.home_bases map)
          in
          (match run_agent_phase activation_phase d classes.(activation_phase)
           with
          | `Active d' -> stages (activation_phase + 1) d'
          | `Verdict v -> `Verdict v)
    end
  in
  match outcome with
  | `Verdict v -> v
  | `Active d ->
      if List.length d = 1 then begin
        broadcast t_leader;
        Protocol.Leader
      end
      else begin
        broadcast t_failed;
        Protocol.Election_failed
      end

let run_with_plan plan_of (ctx : Protocol.ctx) =
  run_on_map plan_of ctx (Mapping.explore ctx)

let protocol =
  {
    Protocol.name = "elect";
    quantitative = false;
    main = run_with_plan generic_plan;
  }
