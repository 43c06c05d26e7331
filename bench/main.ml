(* Benchmark & experiment harness.

   One section per table/figure/theorem of the paper (see DESIGN.md §4 for
   the experiment index), plus Bechamel micro-benchmarks. Running with no
   arguments executes everything; passing section names (e.g. `table1
   figure5`) runs a subset. *)

module Graph = Qe_graph.Graph
module Families = Qe_graph.Families
module Labeling = Qe_graph.Labeling
module Bicolored = Qe_graph.Bicolored
module GCayley = Qe_group.Cayley
module View = Qe_symmetry.View
module Label_equiv = Qe_symmetry.Label_equiv
module Refine_labeling = Qe_symmetry.Refine_labeling
module Coding = Qe_color.Coding
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine
module Elect = Qe_elect.Elect
module Elect_cayley = Qe_elect.Elect_cayley
module Quantitative = Qe_elect.Quantitative
module Petersen_adhoc = Qe_elect.Petersen_adhoc
module Anonymous_demo = Qe_elect.Anonymous_demo
module Oracle = Qe_elect.Oracle
module Campaign = Qe_elect.Campaign

(* A fresh sweep's full records. A quarantined task would silently
   shrink the matrix under every number a section reports, so it fails
   the bench instead. *)
let sweep_records ?seeds ?strategies ?jobs ?live ~expected proto instances =
  let rows, summary =
    Campaign.sweep ?seeds ?strategies ?jobs ?live ~expected proto instances
  in
  if summary.Campaign.h_quarantined <> [] then
    failwith
      (Printf.sprintf "FAIL: %d sweep task(s) quarantined"
         (List.length summary.Campaign.h_quarantined));
  List.filter_map (fun r -> r.Campaign.s_record) rows

(* ---------- pretty printing ---------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let line cells =
    String.concat "  "
      (List.map2
         (fun w c -> c ^ String.make (w - String.length c) ' ')
         widths cells)
  in
  print_endline (line headers);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (line r)) rows

let outcome_str = function
  | Engine.Elected _ -> "elected"
  | Engine.Declared_unsolvable -> "reports-failure"
  | Engine.Deadlock -> "deadlock"
  | Engine.Step_limit -> "step-limit"
  | Engine.Timeout r -> "timeout(" ^ Qe_fault.Watchdog.reason_name r ^ ")"
  | Engine.Inconsistent { reason; _ } -> "no-leader(" ^ reason ^ ")"

let run_simple ?(strategy = Engine.Random_fair 0) ?(seed = 0) g black proto =
  let w = World.make g ~black in
  Engine.run ~strategy ~seed w proto

(* ---------- Table 1: the possibility matrix ---------- *)

let table1 () =
  section "Table 1: election in anonymous networks (paper's summary matrix)";
  (* anonymous agents: demonstrate failure on symmetric instances *)
  let anon_k2 =
    run_simple ~strategy:Engine.Synchronous (Families.complete 2) [ 0; 1 ]
      Anonymous_demo.protocol
  in
  let anon_ring =
    run_simple ~strategy:Engine.Synchronous (Families.cycle 6) [ 0; 3 ]
      Anonymous_demo.protocol
  in
  let anon_solo = run_simple (Families.cycle 6) [ 0 ] Anonymous_demo.protocol in
  let anon_fails =
    (match anon_k2.Engine.outcome with Engine.Elected _ -> false | _ -> true)
    && (match anon_ring.Engine.outcome with
       | Engine.Elected _ -> false
       | _ -> true)
  in
  (* qualitative, universal: K2 is unsolvable, so no universal protocol *)
  let k2_unsolvable =
    Oracle.predict (Bicolored.make (Families.complete 2) ~black:[ 0; 1 ])
    = Oracle.Unsolvable
  in
  (* qualitative, effectual on Cayley: ELECT-translation conformance *)
  let cayley_records =
    sweep_records ~seeds:[ 0 ]
      ~strategies:[ ("random", Engine.Random_fair 0) ]
      ~expected:Campaign.elect_expected Elect_cayley.protocol
      (Campaign.cayley_zoo ())
  in
  let cayley_ok, cayley_total = Campaign.conformance_rate cayley_records in
  (* qualitative, effectual on arbitrary: the Petersen frontier *)
  let petersen_elect =
    run_simple (Families.petersen ()) [ 0; 1 ] Elect.protocol
  in
  let petersen_adhoc =
    run_simple (Families.petersen ()) [ 0; 1 ] Petersen_adhoc.protocol
  in
  (* quantitative: universal election everywhere *)
  let quant_records =
    sweep_records ~seeds:[ 0 ]
      ~strategies:[ ("random", Engine.Random_fair 0) ]
      ~expected:(fun _ -> true)
      Quantitative.protocol (Campaign.zoo ())
  in
  let quant_ok, quant_total = Campaign.conformance_rate quant_records in
  print_table
    [ "agents"; "universal"; "effectual/arbitrary"; "effectual/Cayley"; "paper" ]
    [
      [
        "anonymous";
        (if anon_fails then "No (measured)" else "BUG");
        "No";
        "No";
        "No / No / No";
      ];
      [
        "qualitative";
        (if k2_unsolvable then "No (K2 unsolvable)" else "BUG");
        "?  (Petersen frontier)";
        Printf.sprintf "Yes (%d/%d conform)" cayley_ok cayley_total;
        "No / ? / Yes";
      ];
      [
        "quantitative";
        Printf.sprintf "Yes (%d/%d elect)" quant_ok quant_total;
        "Yes";
        "Yes";
        "Yes / Yes / Yes";
      ];
    ];
  Printf.printf
    "\nevidence: anonymous on K2 -> %s; anonymous on C6 antipodal -> %s;\n\
     anonymous solo agent -> %s;\n\
     ELECT on Petersen/adjacent -> %s; ad-hoc on Petersen/adjacent -> %s\n"
    (outcome_str anon_k2.Engine.outcome)
    (outcome_str anon_ring.Engine.outcome)
    (outcome_str anon_solo.Engine.outcome)
    (outcome_str petersen_elect.Engine.outcome)
    (outcome_str petersen_adhoc.Engine.outcome)

(* ---------- Figure 2: quantitative vs qualitative labeling ---------- *)

let figure2 () =
  section "Figure 2(a,b): the 3-node path — ordering views needs an order";
  let _, l = Families.figure2_path () in
  let names = [| "x"; "y"; "z" |] in
  let rows =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a < b then
              Some
                [
                  Printf.sprintf "V(%s) vs V(%s)" names.(a) names.(b);
                  string_of_bool (View.equal_views l a b);
                ]
            else None)
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  Printf.printf
    "quantitative world: views compared (all distinct => ordering works)\n";
  print_table [ "pair"; "equal views?" ] rows;
  Printf.printf "\nsigma_l = %d (all view classes are singletons)\n"
    (View.sigma l);
  (* the qualitative trap: first-seen codings collide *)
  let star = Qe_color.Symbol.mint "*"
  and circ = Qe_color.Symbol.mint "o"
  and bullet = Qe_color.Symbol.mint "." in
  let from_x = [ star; circ; bullet; star ] in
  let from_z = [ star; bullet; circ; star ] in
  Printf.printf
    "\nqualitative world: agent at x reads *,o,.,* -> code %s\n\
    \                   agent at z reads *,.,o,* -> code %s\n\
     codes collide: %b (so sorting coded views cannot elect)\n"
    (String.concat "," (List.map string_of_int (Coding.code_symbols from_x)))
    (String.concat "," (List.map string_of_int (Coding.code_symbols from_z)))
    (Coding.same_coding ~equal:Qe_color.Symbol.equal from_x from_z)

let figure2c () =
  section
    "Figure 2(c): same views, yet not label-equivalent (converse of Eq. 1 \
     fails)";
  let _, l = Families.figure2c () in
  let view_classes = View.classes l in
  let label_classes = Label_equiv.classes l in
  print_table
    [ "relation"; "classes"; "sizes" ]
    [
      [
        "~view";
        string_of_int (List.length view_classes);
        String.concat ","
          (List.map (fun c -> string_of_int (List.length c)) view_classes);
      ];
      [
        "~lab";
        string_of_int (List.length label_classes);
        String.concat ","
          (List.map (fun c -> string_of_int (List.length c)) label_classes);
      ];
    ];
  Printf.printf
    "\nall three nodes share one view (sigma = %d) but form three singleton\n\
     label-equivalence classes — exactly the paper's counterexample.\n"
    (View.sigma l)

(* ---------- Figure 5: the Petersen counterexample ---------- *)

let figure5 () =
  section "Figure 5: Petersen graph, two adjacent agents";
  let g = Families.petersen () in
  let b = Bicolored.make g ~black:[ 0; 1 ] in
  let classes = Qe_symmetry.Classes.compute b in
  let sizes = Qe_symmetry.Classes.sizes classes in
  Printf.printf "equivalence class sizes: %s  (paper: 2, 4, 4)\n"
    (String.concat ", " (List.map string_of_int sizes));
  Printf.printf "gcd = %d  => protocol ELECT gives up\n"
    (Qe_symmetry.Classes.gcd_sizes classes);
  (* every edge-labeling keeps label-equivalence classes trivial *)
  let max_over_labelings =
    List.fold_left
      (fun acc seed ->
        let l =
          if seed < 0 then Labeling.standard g else Labeling.shuffled ~seed g
        in
        max acc (Label_equiv.max_class_size ~placement:b l))
      1
      (-1 :: List.init 25 Fun.id)
  in
  Printf.printf
    "max label-equivalence class size over 26 labelings: %d (paper: every \
     labeling gives 1)\n"
    max_over_labelings;
  Printf.printf
    "Petersen is Cayley: %b (paper: vertex-transitive, not Cayley)\n"
    (Oracle.is_cayley g);
  let rows =
    List.map
      (fun (name, proto) ->
        let r = run_simple g [ 0; 1 ] proto in
        [
          name;
          outcome_str r.Engine.outcome;
          string_of_int r.Engine.total_moves;
        ])
      [
        ("ELECT", Elect.protocol);
        ("ELECT-cayley", Elect_cayley.protocol);
        ("ad-hoc (Section 4)", Petersen_adhoc.protocol);
        ("quantitative baseline", Quantitative.protocol);
      ]
  in
  print_endline "";
  print_table [ "protocol"; "outcome"; "moves" ] rows;
  Printf.printf
    "\nELECT is not effectual on arbitrary graphs: the ad-hoc protocol \
     elects\nwhere ELECT reports failure.\n"

(* ---------- Theorem 2.1: the necessary condition ---------- *)

let thm21 () =
  section
    "Theorem 2.1: label-equivalence classes > 1 under some labeling => \
     election impossible";
  let cases =
    [
      ("C8 antipodal", GCayley.ring 8, [ 0; 4 ]);
      ("C12 thirds", GCayley.ring 12, [ 0; 4; 8 ]);
      ("Q3 antipodal", GCayley.hypercube 3, [ 0; 7 ]);
      ("T33 diagonal", GCayley.torus 3 3, [ 0; 4; 8 ]);
      ("K4 pair (as Q2)", GCayley.hypercube 2, [ 0; 1 ]);
    ]
  in
  let rows =
    List.map
      (fun (name, (c : GCayley.t), black) ->
        let g = c.graph and l = c.labeling in
        let b = Bicolored.make g ~black in
        let d = Label_equiv.max_class_size ~placement:b l in
        let sigma = View.sigma ~placement:b l in
        let r = run_simple g black Elect.protocol in
        [
          name;
          string_of_int d;
          string_of_int sigma;
          outcome_str r.Engine.outcome;
          string_of_bool (d > 1 && sigma >= d);
        ])
      cases
  in
  print_table
    [
      "instance (natural labeling)"; "label-class size d"; "sigma_l";
      "ELECT outcome"; "d>1 & sigma>=d";
    ]
    rows;
  Printf.printf
    "\nEquation (1) in action: label classes embed into view classes, so\n\
     d > 1 forces sigma_l > 1 and Yamashita–Kameda rules out election.\n"

(* ---------- Theorem 3.1: correctness sweep ---------- *)

let thm31_correctness () =
  section
    "Theorem 3.1: ELECT elects iff gcd(|C_1|,...,|C_k|) = 1 (full sweep)";
  let records =
    sweep_records ~seeds:[ 0; 1 ] ~expected:Campaign.elect_expected
      Elect.protocol (Campaign.zoo ())
  in
  let by_family = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let fam = r.Campaign.inst.Campaign.family in
      let ok, total =
        try Hashtbl.find by_family fam with Not_found -> (0, 0)
      in
      Hashtbl.replace by_family fam
        ((ok + if r.Campaign.conforms then 1 else 0), total + 1))
    records;
  let rows =
    Hashtbl.fold
      (fun fam (ok, total) acc -> (fam, ok, total) :: acc)
      by_family []
    |> List.sort compare
    |> List.map (fun (fam, ok, total) ->
           [ fam; Printf.sprintf "%d/%d" ok total ])
  in
  print_table [ "family"; "conforming runs" ] rows;
  let ok, total = Campaign.conformance_rate records in
  Printf.printf
    "\ntotal: %d/%d runs match the gcd prediction (instances x 5 schedulers \
     x 2 seeds)\n"
    ok total

(* ---------- Theorem 3.1: move complexity ---------- *)

let thm31_complexity () =
  section "Theorem 3.1: moves and whiteboard accesses are O(r |E|)";
  let cases =
    [
      ("C6 r=2", Families.cycle 6, [ 0; 2 ]);
      ("C10 r=2", Families.cycle 10, [ 0; 2 ]);
      ("C14 r=2", Families.cycle 14, [ 0; 2 ]);
      ("C20 r=2", Families.cycle 20, [ 0; 2 ]);
      ("C26 r=2", Families.cycle 26, [ 0; 2 ]);
      ("C12 r=3", Families.cycle 12, [ 0; 1; 5 ]);
      ("C12 r=4", Families.cycle 12, [ 0; 1; 3; 7 ]);
      ("C12 r=6", Families.cycle 12, [ 0; 1; 2; 3; 4; 6 ]);
      ("K4 r=4", Families.complete 4, [ 0; 1; 2; 3 ]);
      ("K5 r=5", Families.complete 5, [ 0; 1; 2; 3; 4 ]);
      ("K6 r=6", Families.complete 6, [ 0; 1; 2; 3; 4; 5 ]);
      ("Q3 r=2", Families.hypercube 3, [ 0; 1 ]);
      ("Q4 r=2", Families.hypercube 4, [ 0; 1 ]);
      ("Q5 r=2", Families.hypercube 5, [ 0; 3 ]);
      ("petersen r=3", Families.petersen (), [ 0; 1; 2 ]);
      ("T34 r=3", Families.torus 3 4, [ 0; 5; 10 ]);
      ("T45 r=2", Families.torus 4 5, [ 0; 7 ]);
      ("C40 r=2", Families.cycle 40, [ 0; 3 ]);
      ("dstar8-5 r=13", Families.double_star 8 5,
        List.init 13 (fun i -> 2 + i));
    ]
  in
  let rows =
    List.map
      (fun (name, g, black) ->
        let r = run_simple g black Elect.protocol in
        let rm = List.length black * Graph.m g in
        [
          name;
          string_of_int (Graph.n g);
          string_of_int (Graph.m g);
          string_of_int (List.length black);
          string_of_int r.Engine.total_moves;
          Printf.sprintf "%.1f"
            (float_of_int r.Engine.total_moves /. float_of_int rm);
          string_of_int r.Engine.total_accesses;
          Printf.sprintf "%.1f"
            (float_of_int r.Engine.total_accesses /. float_of_int rm);
          outcome_str r.Engine.outcome;
        ])
      cases
  in
  print_table
    [
      "instance"; "n"; "m"; "r"; "moves"; "moves/(r m)"; "accesses";
      "acc/(r m)"; "outcome";
    ]
    rows;
  (* least-squares fit moves = c * (r m) through the origin *)
  let points =
    List.map
      (fun (_, g, black) ->
        let r = run_simple g black Elect.protocol in
        ( float_of_int (List.length black * Graph.m g),
          float_of_int r.Engine.total_moves ))
      cases
  in
  let sxy = List.fold_left (fun acc (x, y) -> acc +. (x *. y)) 0. points in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. (x *. x)) 0. points in
  let c = sxy /. sxx in
  let mean_y =
    List.fold_left (fun acc (_, y) -> acc +. y) 0. points
    /. float_of_int (List.length points)
  in
  let ss_res =
    List.fold_left
      (fun acc (x, y) -> acc +. (((c *. x) -. y) ** 2.))
      0. points
  in
  let ss_tot =
    List.fold_left (fun acc (_, y) -> acc +. ((y -. mean_y) ** 2.)) 0. points
  in
  Printf.printf
    "\nleast-squares fit through the origin: moves = %.2f x (r |E|), \
     R^2 = %.3f\n\
     — the O(r |E|) shape of Theorem 3.1 with a small measured constant.\n"
    c
    (1. -. (ss_res /. ss_tot))

(* ---------- Theorem 4.1: effectual on Cayley graphs ---------- *)

let thm41 () =
  section "Theorem 4.1: ELECT-translation is effectual on Cayley graphs";
  let rows =
    List.map
      (fun inst ->
        let b = Campaign.bicolored inst in
        let impossible = Oracle.translation_impossible b in
        let gcd = Oracle.gcd_classes b in
        let r =
          run_simple inst.Campaign.graph inst.Campaign.black
            Elect_cayley.protocol
        in
        let conforms =
          match r.Engine.outcome with
          | Engine.Elected _ -> gcd = 1
          | Engine.Declared_unsolvable -> gcd > 1
          | _ -> false
        in
        [
          inst.Campaign.name;
          string_of_int gcd;
          string_of_bool impossible;
          outcome_str r.Engine.outcome;
          string_of_bool conforms;
        ])
      (Campaign.cayley_zoo ())
  in
  print_table
    [
      "instance"; "gcd classes"; "translation-impossible"; "outcome";
      "conforms";
    ]
    rows;
  (* the constructive labeling of the proof *)
  print_endline "\nmarking process of the proof (executable construction):";
  let trows =
    List.map
      (fun (name, c, black) ->
        let t = Refine_labeling.run c ~black in
        [
          name;
          string_of_int t.Refine_labeling.gcd;
          string_of_int (List.length t.Refine_labeling.steps);
          string_of_bool (Refine_labeling.all_final_size_gcd t);
          string_of_bool (Refine_labeling.final_equals_translation_classes t);
        ])
      [
        ("C8 antipodal", GCayley.ring 8, [ 0; 4 ]);
        ("C8 adjacent", GCayley.ring 8, [ 0; 1 ]);
        ("C12 thirds", GCayley.ring 12, [ 0; 4; 8 ]);
        ("C12 two+two", GCayley.ring 12, [ 0; 2; 6; 8 ]);
        ("Q3 antipodal", GCayley.hypercube 3, [ 0; 7 ]);
        ("Q2 all", GCayley.hypercube 2, [ 0; 1; 2; 3 ]);
      ]
  in
  print_table
    [
      "instance"; "d = gcd"; "marking steps"; "final classes all size d";
      "= translation classes";
    ]
    trows

(* ---------- Figure 1: agents as messages ---------- *)

let figure1 () =
  section
    "Figure 1: the mobile protocol runs unchanged under a message-passing \
     discipline";
  let rows =
    List.map
      (fun (name, g, black) ->
        let random =
          run_simple ~strategy:(Engine.Random_fair 3) g black Elect.protocol
        in
        let mailbox =
          run_simple ~strategy:Engine.Fifo_mailbox g black Elect.protocol
        in
        [
          name;
          outcome_str random.Engine.outcome;
          outcome_str mailbox.Engine.outcome;
          string_of_bool
            (outcome_str random.Engine.outcome
            = outcome_str mailbox.Engine.outcome);
        ])
      [
        ("C5 adjacent", Families.cycle 5, [ 0; 1 ]);
        ("C6 antipodal", Families.cycle 6, [ 0; 3 ]);
        ("path4 asym", Families.path 4, [ 0; 2 ]);
        ("Q3 antipodal", Families.hypercube 3, [ 0; 7 ]);
        ("star3 leaves", Families.star 3, [ 1; 2; 3 ]);
      ]
  in
  print_table [ "instance"; "asynchronous"; "mailbox (Fig 1)"; "same" ] rows

(* ---------- the effectualness frontier (Open Problem 1) ---------- *)

let mark_race_frontier () =
  section
    "Mark-race: beyond ELECT — the mark-and-race protocol on two-agent \
     instances";
  print_endline
    "mark-race generalizes the Petersen ad-hoc protocol: mark a neighbor,\n\
     share marks via whiteboards, race at a canonically agreed\n\
     singleton-orbit node of the marked structure. Outcomes over 6 seeds\n\
     (adversarial port presentations): E = elected, f = gave up.\n";
  let cases =
    [
      ("petersen adjacent", Families.petersen (), [ 0; 1 ]);
      ("petersen distance-2", Families.petersen (), [ 0; 2 ]);
      ("dodecahedron GP(10,2)", Families.dodecahedron (), [ 0; 1 ]);
      ("desargues GP(10,3)", Families.desargues (), [ 0; 1 ]);
      ("moebius-kantor GP(8,3)", Families.moebius_kantor (), [ 0; 1 ]);
      ("C6 antipodal", Families.cycle 6, [ 0; 3 ]);
      ("C8 antipodal", Families.cycle 8, [ 0; 4 ]);
      ("K2", Families.complete 2, [ 0; 1 ]);
      ("K4 pair", Families.complete 4, [ 0; 1 ]);
      ("K5 pair", Families.complete 5, [ 0; 1 ]);
      ("path4 ends", Families.path 4, [ 0; 3 ]);
      ("Q3 antipodal", Families.hypercube 3, [ 0; 7 ]);
    ]
  in
  let rows =
    List.map
      (fun (name, g, black) ->
        let b = Bicolored.make g ~black in
        let outcomes =
          List.map
            (fun seed ->
              let r = run_simple ~seed ~strategy:(Engine.Random_fair seed) g
                  black Qe_elect.Mark_race.protocol in
              match r.Engine.outcome with
              | Engine.Elected _ -> "E"
              | Engine.Declared_unsolvable -> "f"
              | _ -> "!")
            [ 0; 1; 2; 3; 4; 5 ]
        in
        [
          name;
          string_of_int (Oracle.gcd_classes b);
          Format.asprintf "%a" Oracle.pp_prediction (Oracle.predict b);
          String.concat "" outcomes;
        ])
      cases
  in
  print_table [ "instance"; "gcd"; "oracle"; "mark-race x6 seeds" ] rows;
  print_endline
    "\nreading the table:\n\
     - on provably unsolvable instances the wins (if any) are adversary\n\
    \  luck — e.g. on C8-antipodal asymmetric mark placements break the\n\
    \  symmetry, colliding marks do on K4; a worst-case adversary picks\n\
    \  the symmetric presentation, so impossibility stands;\n\
     - Petersen elects on every seed (girth 5 forces an asymmetric mark\n\
    \  pattern), which is exactly the paper's Section 4 counterexample;\n\
     - dodecahedron/Desargues show the frontier is jagged — gcd > 1,\n\
    \  no impossibility proof, and mark-race wins only sometimes."

(* ---------- ablations ---------- *)

(* Lemma 3.1 taken literally: order surroundings by the brute-force
   min-over-permutations matrix word, instead of each orbit's least
   position in one canonical labeling. Only feasible for maps with <= 9
   nodes. *)
let brute_plan map =
  let b = Qe_elect.Mapping.bicolored map in
  let g = Qe_elect.Mapping.graph map in
  let n = Graph.n g in
  let tbl = Hashtbl.create n in
  for u = n - 1 downto 0 do
    let cert =
      Qe_symmetry.Brute.min_certificate (Qe_symmetry.Cdigraph.of_surrounding b u)
    in
    let cur = try Hashtbl.find tbl cert with Not_found -> [] in
    Hashtbl.replace tbl cert (u :: cur)
  done;
  let all = Hashtbl.fold (fun c members acc -> (c, members) :: acc) tbl [] in
  let is_black (_, members) =
    match members with
    | u :: _ -> Bicolored.is_black b u
    | [] -> false
  in
  let by_cert (c1, _) (c2, _) = String.compare c1 c2 in
  let blacks = List.sort by_cert (List.filter is_black all) in
  let whites =
    List.sort by_cert (List.filter (fun c -> not (is_black c)) all)
  in
  let classes = List.map snd (blacks @ whites) in
  let node_class = Array.make n (-1) in
  List.iteri
    (fun i members -> List.iter (fun u -> node_class.(u) <- i) members)
    classes;
  { Elect.classes; num_black = List.length blacks; node_class }

let elect_brute =
  {
    Qe_runtime.Protocol.name = "elect-brute-order";
    quantitative = false;
    main = Elect.run_with_plan brute_plan;
  }

let ablation () =
  section "Ablations";
  print_endline
    "1. class ordering: Lemma 3.1's brute-force min-permutation order vs\n\
     the canonical-position order, one canonical labeling for all classes\n\
     (n <= 9 instances; both are valid instances of the total order, so\n\
     outcomes must agree):\n";
  let small_cases =
    [
      ("C5 adjacent", Families.cycle 5, [ 0; 1 ]);
      ("C6 antipodal", Families.cycle 6, [ 0; 3 ]);
      ("C8 break", Families.cycle 8, [ 0; 1; 3 ]);
      ("path4 asym", Families.path 4, [ 0; 2 ]);
      ("K4 all", Families.complete 4, [ 0; 1; 2; 3 ]);
      ("Q3 antipodal", Families.hypercube 3, [ 0; 7 ]);
    ]
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows =
    List.map
      (fun (name, g, black) ->
        let r1, t1 =
          time (fun () -> run_simple g black Elect.protocol)
        in
        let r2, t2 = time (fun () -> run_simple g black elect_brute) in
        [
          name;
          outcome_str r1.Engine.outcome;
          outcome_str r2.Engine.outcome;
          string_of_bool
            (outcome_str r1.Engine.outcome = outcome_str r2.Engine.outcome);
          Printf.sprintf "%.1f ms" (1000. *. t1);
          Printf.sprintf "%.1f ms" (1000. *. t2);
        ])
      small_cases
  in
  print_table
    [ "instance"; "canonical order"; "brute order"; "same"; "t(canon)";
      "t(brute)" ]
    rows;
  print_endline
    "\n2. scheduler sensitivity: ELECT moves under each scheduler\n\
     (correctness is scheduler-independent; cost varies mildly):\n";
  let rows =
    List.map
      (fun (name, g, black) ->
        let per =
          List.map
            (fun (_, strat) ->
              let r = run_simple ~strategy:strat g black Elect.protocol in
              string_of_int r.Engine.total_moves)
            Campaign.strategies
        in
        name :: per)
      [
        ("C8 break", Families.cycle 8, [ 0; 1; 3 ]);
        ("Q3 antipodal", Families.hypercube 3, [ 0; 7 ]);
        ("petersen 3", Families.petersen (), [ 0; 1; 2 ]);
      ]
  in
  print_table
    ("instance" :: List.map fst Campaign.strategies)
    rows;
  print_endline
    "\n3. wake-up: all agents awake vs a single awake agent (MAP-DRAWING\n\
     must wake the rest; costs stay in the same regime):\n";
  let rows =
    List.map
      (fun (name, g, black) ->
        let w_all = World.make g ~black in
        let r_all = Engine.run ~seed:2 w_all Elect.protocol in
        let w_one = World.make g ~black in
        let r_one = Engine.run ~seed:2 ~awake:[ 0 ] w_one Elect.protocol in
        [
          name;
          outcome_str r_all.Engine.outcome;
          string_of_int r_all.Engine.total_moves;
          outcome_str r_one.Engine.outcome;
          string_of_int r_one.Engine.total_moves;
        ])
      [
        ("C7 triple", Families.cycle 7, [ 0; 1; 3 ]);
        ("C6 antipodal", Families.cycle 6, [ 0; 3 ]);
        ("star3", Families.star 3, [ 1; 2; 3 ]);
      ]
  in
  print_table
    [ "instance"; "all awake"; "moves"; "one awake"; "moves'" ]
    rows;
  print_endline
    "\n4. phase anatomy: ELECT's posted signs by tag prefix (from the\n\
     event trace) expose the protocol's phase structure — map drawing,\n\
     activation/sync traffic, matching races, the final announcement:\n";
  let rows =
    List.map
      (fun (name, g, black) ->
        let w = World.make g ~black in
        let trace, cb = Qe_runtime.Trace.recorder () in
        ignore (Engine.run ~seed:3 ~on_event:cb w Elect.protocol);
        let hist = Qe_runtime.Trace.tag_histogram trace in
        [
          name;
          String.concat ", "
            (List.map (fun (t, n) -> Printf.sprintf "%s=%d" t n) hist);
        ])
      [
        ("C8 break", Families.cycle 8, [ 0; 1; 3 ]);
        ("C6 antipodal", Families.cycle 6, [ 0; 3 ]);
        ( "doublestar 5,3",
          Families.double_star 5 3,
          List.init 8 (fun i -> 2 + i) );
      ]
  in
  print_table [ "instance"; "posts by tag" ] rows

(* ---------- YK substrate: view election on processor networks ---------- *)

let yk_views () =
  section
    "Yamashita–Kameda substrate: view election on anonymous processor \
     networks";
  print_endline
    "the message-passing world Theorem 2.1 reduces to: processors grow\n\
     views for 2(n-1) rounds and elect the unique maximal view; a unique\n\
     leader emerges iff sigma_l(G) = 1:\n";
  let module MP = Qe_runtime.Message_passing in
  let cases =
    [
      ("path5 standard", Labeling.standard (Families.path 5));
      ("C6 standard", Labeling.standard (Families.cycle 6));
      ("C6 natural (symmetric)", (GCayley.ring 6).labeling);
      ("petersen standard", Labeling.standard (Families.petersen ()));
      ("Q3 natural (symmetric)", (GCayley.hypercube 3).labeling);
      ("star4 standard", Labeling.standard (Families.star 4));
      ("figure 2(c)", snd (Families.figure2c ()));
    ]
  in
  let rows =
    List.map
      (fun (name, l) ->
        let sigma = View.sigma l in
        let o = MP.View_election.run l in
        let leader = MP.unique_leader o in
        [
          name;
          string_of_int sigma;
          (match leader with
          | Some v -> Printf.sprintf "processor %d" v
          | None -> "none (detected)");
          string_of_int o.MP.rounds;
          string_of_int o.MP.messages;
          string_of_bool ((sigma = 1) = (leader <> None));
        ])
      cases
  in
  print_table
    [ "labeled network"; "sigma_l"; "leader"; "rounds"; "messages";
      "matches YK" ]
    rows

(* ---------- symmetricity explorer ---------- *)

let sigma_explorer () =
  section
    "Symmetricity explorer: how adversarial can a labeling make the views?";
  print_endline
    "sigma(G) = max over labelings of sigma_l. Sampled lower bound over\n\
     the standard labeling + 30 random labelings (+ the natural Cayley\n\
     labeling where marked). Theorem 2.1 kicks in when some labeling's\n\
     label-equivalence classes exceed 1, which forces sigma_l > 1:\n";
  let rows =
    List.map
      (fun (name, g, black, natural) ->
        let placement = Bicolored.make g ~black in
        let best, witness = View.max_sigma_sampled ~placement g in
        let natural_sigma =
          match natural with
          | Some l -> string_of_int (View.sigma ~placement l)
          | None -> "-"
        in
        [
          name;
          string_of_int (View.sigma ~placement (Labeling.standard g));
          natural_sigma;
          string_of_int best;
          (match witness with
          | None -> "standard"
          | Some s -> Printf.sprintf "seed %d" s);
          string_of_int (Oracle.gcd_classes placement);
        ])
      [
        ( "C6 antipodal",
          Families.cycle 6,
          [ 0; 3 ],
          Some (GCayley.ring 6).labeling );
        ( "C8 antipodal",
          Families.cycle 8,
          [ 0; 4 ],
          Some (GCayley.ring 8).labeling );
        ( "Q3 antipodal",
          Families.hypercube 3,
          [ 0; 7 ],
          Some (GCayley.hypercube 3).labeling );
        ("petersen adjacent", Families.petersen (), [ 0; 1 ], None);
        ("path4 ends", Families.path 4, [ 0; 3 ], None);
        ("C5 adjacent", Families.cycle 5, [ 0; 1 ], None);
      ]
  in
  print_table
    [
      "instance"; "sigma std"; "sigma natural"; "max sampled"; "witness";
      "gcd classes";
    ]
    rows;
  print_endline
    "\ntwo lessons: (1) random labelings essentially never hit a\n\
     symmetric one — the adversary must CONSTRUCT it, which is exactly\n\
     what the natural Cayley labeling of the Theorem 4.1 proof does\n\
     (the 'sigma natural' column); (2) on Petersen no labeling at all\n\
     yields sigma > 1 (the paper: every labeling leaves singleton\n\
     label-equivalence classes), which is why no impossibility proof\n\
     applies there and the ad-hoc protocol can win."

(* ---------- tracked perf benchmark (Bechamel + BENCH_N.json) ---------- *)

(* Bumped once per PR that changes the perf landscape; the emitted
   BENCH_<n>.json files at the repo root form the tracked trajectory. *)
let bench_revision = 10

(* Sections deposit their numbers here and every write re-emits all of
   them, so `bench perf par-scaling cache` composes one complete
   BENCH_<n>.json instead of the last section clobbering the others. *)
let recorded_times : (string * float) list ref = ref []
let recorded_leaves : (string * int) list ref = ref []
let recorded_scaling : (string * float) list ref = ref []
let recorded_cache : (string * float) list ref = ref []
let recorded_exposition : (string * float) list ref = ref []
let recorded_resilience : (string * float) list ref = ref []
let recorded_frontier : (string * float) list ref = ref []

let write_bench_json path =
  let buf = Buffer.create 1024 in
  let entry fmt (name, v) = Printf.bprintf buf fmt name v in
  let obj fmt kvs =
    let first = ref true in
    List.iter
      (fun kv ->
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        Buffer.add_string buf "    ";
        entry fmt kv)
      kvs;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"schema\": \"qelect-bench-v1\",\n";
  Printf.bprintf buf "  \"revision\": %d,\n" bench_revision;
  Printf.bprintf buf "  \"unit\": \"ns_per_run\",\n";
  Buffer.add_string buf "  \"benchmarks\": {\n";
  obj "%S: %.1f" !recorded_times;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"leaves_visited\": {\n";
  obj "%S: %d" !recorded_leaves;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"par_scaling\": {\n";
  obj "%S: %.3f" !recorded_scaling;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"cache\": {\n";
  obj "%S: %.3f" !recorded_cache;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"exposition\": {\n";
  obj "%S: %.3f" !recorded_exposition;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"resilience\": {\n";
  obj "%S: %.3f" !recorded_resilience;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"frontier\": {\n";
  obj "%S: %.3f" !recorded_frontier;
  Buffer.add_string buf "  }\n}\n";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))

let perf () =
  section "Perf: symmetry kernel and runtime (Bechamel, monotonic clock)";
  let open Bechamel in
  let q4 = Qe_symmetry.Cdigraph.of_graph (Families.hypercube 4) in
  let pet = Qe_symmetry.Cdigraph.of_graph (Families.petersen ()) in
  let c32 = Qe_symmetry.Cdigraph.of_graph (Families.cycle 32) in
  let t66 = Qe_symmetry.Cdigraph.of_graph (Families.torus 6 6) in
  let t66_marked = Bicolored.make (Families.torus 6 6) ~black:[ 0; 7 ] in
  let c12_marked = Bicolored.make (Families.cycle 12) ~black:[ 0; 1; 5 ] in
  let cases =
    [
      ( "refine_equitable/Q4",
        fun () -> ignore (Qe_symmetry.Refine.equitable q4) );
      ( "refine_equitable/torus6x6",
        fun () -> ignore (Qe_symmetry.Refine.equitable t66) );
      ( "refine_equitable/petersen",
        fun () -> ignore (Qe_symmetry.Refine.equitable pet) );
      ( "refine_equitable/C32",
        fun () -> ignore (Qe_symmetry.Refine.equitable c32) );
      ( "canon_certificate/Q4",
        fun () -> ignore (Qe_symmetry.Canon.certificate q4) );
      ( "canon_certificate/petersen",
        fun () -> ignore (Qe_symmetry.Canon.certificate pet) );
      ( "canon_certificate/torus6x6",
        fun () -> ignore (Qe_symmetry.Canon.certificate t66) );
      ( "classes_compute/torus6x6",
        fun () -> ignore (Qe_symmetry.Classes.compute t66_marked) );
      ( "classes_compute/C12",
        fun () -> ignore (Qe_symmetry.Classes.compute c12_marked) );
      ( "elect/C8",
        fun () -> ignore (run_simple (Families.cycle 8) [ 0; 3 ] Elect.protocol)
      );
      ( "elect/petersen",
        fun () ->
          ignore (run_simple (Families.petersen ()) [ 0; 1 ] Elect.protocol) );
      ( "elect/Q4",
        fun () ->
          ignore (run_simple (Families.hypercube 4) [ 0; 1 ] Elect.protocol) );
      ( "elect/torus6x6",
        fun () ->
          ignore (run_simple (Families.torus 6 6) [ 0; 7 ] Elect.protocol) );
    ]
  in
  let tests =
    Test.make_grouped ~name:"perf"
      (List.map
         (fun (name, f) -> Test.make ~name (Staged.stage f))
         cases)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let strip name =
    match String.index_opt name '/' with
    | Some i when String.sub name 0 i = "perf" ->
        String.sub name (i + 1) (String.length name - i - 1)
    | _ -> name
  in
  let times = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] -> times := (strip name, t) :: !times
      | _ -> ())
    results;
  let times = List.sort compare !times in
  print_table [ "benchmark"; "time/run" ]
    (List.map
       (fun (name, t) -> [ name; Printf.sprintf "%11.0f ns" t ])
       times);
  (* search-tree sizes: the invariant-pruning half of the speedup *)
  let tri_c6 =
    (* two triangles then a 6-cycle: the branch with the smaller
       invariant comes first, so pruning cuts the later subtrees *)
    Qe_symmetry.Cdigraph.of_graph
      (Graph.of_edges ~n:12
         [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3);
           (6, 7); (7, 8); (8, 9); (9, 10); (10, 11); (11, 6) ])
  in
  let leaves =
    List.map
      (fun (name, g) ->
        (* read the count from the telemetry registry and cross-check it
           against the result field — the two paths must agree *)
        let sink = Qe_obs.Sink.create () in
        let r =
          Qe_obs.Sink.with_ambient sink (fun () -> Qe_symmetry.Canon.run g)
        in
        let snap = Qe_obs.Metrics.snapshot sink.Qe_obs.Sink.metrics in
        let counted =
          match Qe_obs.Metrics.find snap "canon.leaves" with
          | Some (Qe_obs.Metrics.Counter n) -> n
          | _ -> -1
        in
        if counted <> r.Qe_symmetry.Canon.leaves_visited then
          Printf.printf
            "WARNING %s: telemetry says %d leaves, result says %d\n" name
            counted r.Qe_symmetry.Canon.leaves_visited;
        (name, counted))
      [
        ("canon/Q4", q4); ("canon/petersen", pet); ("canon/torus6x6", t66);
        ("canon/2triangles+C6", tri_c6);
      ]
  in
  print_endline "";
  print_table [ "search"; "leaves visited" ]
    (List.map (fun (n, l) -> [ n; string_of_int l ]) leaves);
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  recorded_times := times;
  recorded_leaves := leaves;
  write_bench_json out;
  Printf.printf "\nwrote %s\n" out;
  (* trajectory check: compare against the previous tracked revision
     (crude line scrape — the file is ours and regular). Micro-bench
     noise across machines is real, so this prints deltas and only
     flags gross regressions; it never fails the run. *)
  let prev = Printf.sprintf "BENCH_%d.json" (bench_revision - 1) in
  if Sys.file_exists prev then begin
    let prev_times = ref [] in
    In_channel.with_open_text prev (fun ic ->
        try
          while true do
            let line = String.trim (input_line ic) in
            match String.index_opt line ':' with
            | Some i when String.length line > 2 && line.[0] = '"' ->
                let name = String.sub line 1 (i - 2) in
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                let v =
                  String.trim
                    (if String.length v > 0 && v.[String.length v - 1] = ','
                     then String.sub v 0 (String.length v - 1)
                     else v)
                in
                (match float_of_string_opt v with
                | Some f -> prev_times := (name, f) :: !prev_times
                | None -> ())
            | _ -> ()
          done
        with End_of_file -> ());
    Printf.printf "\nvs %s:\n" prev;
    List.iter
      (fun (name, t) ->
        match List.assoc_opt name !prev_times with
        | Some p when p > 0. ->
            let delta = 100. *. ((t /. p) -. 1.) in
            Printf.printf "  %-28s %+6.1f%%%s\n" name delta
              (if delta > 50. then "  <-- check" else "")
        | _ -> ())
      times
  end

(* ---------- obs overhead: the disabled sink must be free ---------- *)

let obs_overhead () =
  section "Obs overhead: telemetry off vs metrics+spans vs full JSONL stream";
  print_endline
    "the same ELECT run under three sink configurations. 'off' is the\n\
     default (no ?obs, no ambient sink): every probe is an untaken\n\
     branch or a single ref read, artifact-cache misses included (they\n\
     compute with no scratch sink and store no metric delta), so it\n\
     must sit within noise of the pre-telemetry baseline.\n";
  let open Bechamel in
  let g = Families.cycle 8 and black = [ 0; 3 ] in
  let run_with obs () =
    let w = World.make g ~black in
    ignore
      (Engine.run ~strategy:(Engine.Random_fair 0) ~seed:0 ?obs w
         Elect.protocol)
  in
  let metrics_sink = Qe_obs.Sink.create () in
  let stream_sink =
    (* a consumer that forces the encode without I/O: the cost measured
       is instrumentation + serialization, not the disk *)
    Qe_obs.Sink.create
      ~on_line:(fun l -> ignore (Qe_obs.Jsonl.to_string (Qe_obs.Export.to_json l)))
      ()
  in
  let ambient_run sink f () = Qe_obs.Sink.with_ambient sink f in
  let cases =
    [
      ("off", run_with None);
      ("metrics+spans", ambient_run metrics_sink (run_with (Some metrics_sink)));
      ("full-stream", ambient_run stream_sink (run_with (Some stream_sink)));
    ]
  in
  let tests =
    Test.make_grouped ~name:"obs"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let time_of want =
    Hashtbl.fold
      (fun name ols acc ->
        if name = "obs/" ^ want then
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Some t
          | _ -> acc
        else acc)
      results None
  in
  let base = time_of "off" in
  print_table
    [ "configuration"; "time/run"; "vs off" ]
    (List.map
       (fun (name, _) ->
         match (time_of name, base) with
         | Some t, Some b ->
             [
               name;
               Printf.sprintf "%11.0f ns" t;
               Printf.sprintf "%+.1f%%" (100. *. ((t /. b) -. 1.));
             ]
         | _ -> [ name; "?"; "?" ])
       cases)

(* ---------- fault overhead: the disabled injector must be free ---------- *)

let fault_overhead () =
  section "Fault overhead: no plan vs zero-rate plan vs chaos plan";
  print_endline
    "the same ELECT run under fault configurations. 'off' is the default\n\
     (no ?faults): every injection point is an untaken match branch, so\n\
     it must sit within noise of the pre-fault baseline. 'zero-rate'\n\
     arms a plan whose rates are all zero (the injector is consulted\n\
     never draws); 'chaos' actually perturbs the run.\n";
  let open Bechamel in
  let g = Families.cycle 8 and black = [ 0; 3 ] in
  let run_with faults () =
    let w = World.make g ~black in
    ignore
      (Engine.run ~strategy:(Engine.Random_fair 0) ~seed:0 ?faults w
         Elect.protocol)
  in
  let cases =
    [
      ("off", run_with None);
      ("zero-rate", run_with (Some (Qe_fault.Plan.make ~seed:0 ())));
      ("chaos", run_with (Some (Qe_fault.Plan.chaos ~seed:0)));
      ( "watchdog",
        fun () ->
          let w = World.make g ~black in
          ignore
            (Engine.run ~strategy:(Engine.Random_fair 0) ~seed:0
               ~watchdog:(Qe_fault.Watchdog.make ~turn_budget:500_000 ())
               w Elect.protocol) );
    ]
  in
  let tests =
    Test.make_grouped ~name:"fault"
      (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
      Toolkit.Instance.monotonic_clock raw
  in
  let time_of want =
    Hashtbl.fold
      (fun name ols acc ->
        if name = "fault/" ^ want then
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Some t
          | _ -> acc
        else acc)
      results None
  in
  let base = time_of "off" in
  print_table
    [ "configuration"; "time/run"; "vs off" ]
    (List.map
       (fun (name, _) ->
         match (time_of name, base) with
         | Some t, Some b ->
             [
               name;
               Printf.sprintf "%11.0f ns" t;
               Printf.sprintf "%+.1f%%" (100. *. ((t /. b) -. 1.));
             ]
         | _ -> [ name; "?"; "?" ])
       cases);
  (* assertion: an armed-but-silent plan may not tax the engine. The
     threshold is generous (micro-bench noise easily reaches tens of
     percent on loaded CI machines); a real regression from structural
     overhead would blow far past it. *)
  match (time_of "zero-rate", base) with
  | Some t, Some b when t > b *. 1.5 ->
      Printf.printf
        "\nFAIL: zero-rate fault plan costs %+.1f%% vs off (limit +50%%)\n"
        (100. *. ((t /. b) -. 1.));
      exit 1
  | _ -> print_endline "\nzero-rate plan within noise of off: OK"

(* ---------- par scaling: cold/warm sweeps across worker domains ---------- *)

(* The nontrivially-symmetric suite shared by the scaling and cache
   sections: real symmetry work per instance, sizes spread out enough
   that a straggler instance shows up in the scaling numbers. *)
let sym_suite () =
  [
    Campaign.instance ~name:"torus6x6/pair" ~family:"torus" ~cayley:true
      (Families.torus 6 6) ~black:[ 0; 7 ];
    Campaign.instance ~name:"Q4/pair" ~family:"hypercube" ~cayley:true
      (Families.hypercube 4) ~black:[ 0; 15 ];
    Campaign.instance ~name:"C12/break" ~family:"cycle" ~cayley:true
      (Families.cycle 12) ~black:[ 0; 1; 5 ];
    Campaign.instance ~name:"petersen/pair" ~family:"petersen" ~cayley:false
      (Families.petersen ()) ~black:[ 0; 1 ];
    Campaign.instance ~name:"circ12-15/pair" ~family:"circulant" ~cayley:true
      (Families.circulant 12 [ 1; 5 ])
      ~black:[ 0; 6 ];
  ]

let par_scaling () =
  section "Par scaling: cold and warm sweeps at -j 1, 2, 4, 8";
  print_endline
    "the same conformance sweep (symmetric suite x strategies x 8\n\
     seeds) on j supervised worker domains, twice per j: cold (artifact\n\
     cache just cleared — misses, single-flight) and warm (second sweep\n\
     — shared-shard hits). Per-layer telemetry per warm row:\n\
     single-flight waits from Cache.stats. Records are cross-checked\n\
     bit-identical (CSV minus wall_ns) against -j 1.\n";
  let module Cache = Qe_symmetry.Artifact_cache in
  let cores = Domain.recommended_domain_count () in
  let auto = Qe_par.Supervisor.resolve_jobs 0 in
  Printf.printf "cores (recommended_domain_count): %d, -j 0 resolves to %d\n\n"
    cores auto;
  recorded_scaling :=
    [ ("cores", float_of_int cores); ("auto-jobs", float_of_int auto) ];
  let suite = sym_suite () in
  let seeds = List.init 8 Fun.id in
  let sweep jobs () =
    sweep_records ~seeds ~jobs ~expected:Campaign.elect_expected
      Qe_elect.Elect.protocol suite
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Elected outcomes embed per-sweep mint ids, so cross-sweep records
     are compared through their stable CSV rendering minus the trailing
     wall_ns column *)
  let csv rs =
    List.map
      (fun r ->
        let row = Campaign.csv_row r in
        match String.rindex_opt row ',' with
        | Some i -> String.sub row 0 i
        | None -> row)
      rs
  in
  let waits () =
    List.fold_left
      (fun a (s : Cache.stat) -> a + s.Cache.single_flight_waits)
      0 (Cache.stats ())
  in
  Cache.set_enabled true;
  ignore (sweep 2 ()) (* warm up code + allocator, untimed *);
  let baseline = ref [] and fails = ref [] in
  let rows =
    List.map
      (fun jobs ->
        Cache.clear ();
        Cache.reset_stats ();
        let recs_cold, t_cold = time (sweep jobs) in
        let w0 = waits () in
        let recs_warm, t_warm = time (sweep jobs) in
        let w1 = waits () in
        if jobs = 1 then baseline := csv recs_warm
        else if csv recs_warm <> !baseline || csv recs_cold <> !baseline then
          fails := Printf.sprintf "j%d: records diverged from -j 1" jobs :: !fails;
        let j = Printf.sprintf "j%d" jobs in
        recorded_scaling :=
          !recorded_scaling
          @ [
              ("cold/" ^ j, t_cold *. 1e9);
              ("warm/" ^ j, t_warm *. 1e9);
              ("cache-waits/" ^ j, float_of_int (w1 - w0));
            ];
        (jobs, t_cold, t_warm, w1 - w0))
      [ 1; 2; 4; 8 ]
  in
  let _, cold1, warm1, _ = List.hd rows in
  let speedups =
    List.map
      (fun (jobs, t_cold, t_warm, waits) ->
        let su_cold = cold1 /. t_cold and su_warm = warm1 /. t_warm in
        if jobs > 1 then
          recorded_scaling :=
            !recorded_scaling
            @ [
                (Printf.sprintf "speedup-cold/j%d" jobs, su_cold);
                (Printf.sprintf "speedup-warm/j%d" jobs, su_warm);
              ];
        ( jobs,
          [
            Printf.sprintf "-j %d" jobs;
            Printf.sprintf "%7.3f s" t_cold;
            Printf.sprintf "%7.3f s" t_warm;
            Printf.sprintf "%.2fx" su_cold;
            Printf.sprintf "%.2fx" su_warm;
            string_of_int waits;
          ],
          su_warm ))
      rows
  in
  print_table
    [ "jobs"; "cold"; "warm"; "cold x"; "warm x"; "waits" ]
    (List.map (fun (_, r, _) -> r) speedups);
  Printf.printf
    "\n(%d runs per sweep: %d instances x %d strategies x 8 seeds)\n"
    (List.length suite * List.length Campaign.strategies * 8)
    (List.length suite)
    (List.length Campaign.strategies);
  (* the scaling gate: on a real multicore machine, warm parallel sweeps
     may not be slower than sequential. On a 1-core machine there is
     nothing to measure — skip loudly rather than gate on noise. *)
  if cores >= 2 then
    List.iter
      (fun (jobs, _, su_warm) ->
        if (jobs = 2 || jobs = 4) && su_warm < 1.0 then
          fails :=
            Printf.sprintf "j%d: warm speedup %.2fx < 1.0x on %d cores" jobs
              su_warm cores
            :: !fails)
      speedups
  else
    Printf.printf
      "\nSKIP scaling gate: only %d core(s) recommended — speedup \
       thresholds need >= 2\n"
      cores;
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  write_bench_json out;
  Printf.printf "wrote %s\n" out;
  if !fails <> [] then begin
    List.iter (fun m -> Printf.printf "FAIL: %s\n" m) !fails;
    exit 1
  end

(* ---------- artifact cache: cold vs warm vs disabled sweeps ---------- *)

let cache_bench () =
  section "Cache: multi-seed sweep with the symmetry artifact cache";
  print_endline
    "the same conformance sweep (strategies x 8 seeds) over a suite of\n\
     nontrivially-symmetric instances, three ways: cache disabled (every\n\
     run recomputes classes, certificates and oracle verdicts), cache\n\
     cold (first sweep after clear: misses populate it), cache warm\n\
     (second sweep: pure hits). Records are asserted identical across\n\
     all three — the cache may only change the clock.\n";
  let module Cache = Qe_symmetry.Artifact_cache in
  let suite = sym_suite () in
  let seeds = List.init 8 Fun.id in
  let sweep jobs () =
    sweep_records ~seeds ~jobs ~expected:Campaign.elect_expected
      Qe_elect.Elect.protocol suite
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let rows = ref [] and fails = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (* never leave the process-wide switch off for later sections *)
      Cache.set_enabled true;
      Cache.clear ();
      Cache.reset_stats ())
    (fun () ->
      List.iter
        (fun jobs ->
          Cache.set_enabled false;
          ignore (sweep jobs ()) (* warm up code + allocator, untimed *);
          let recs_off, t_off = time (sweep jobs) in
          Cache.set_enabled true;
          Cache.clear ();
          Cache.reset_stats ();
          let recs_cold, t_cold = time (sweep jobs) in
          let recs_warm, t_warm = time (sweep jobs) in
          let hit_rate = Cache.hit_rate (Cache.stats ()) in
          (* Elected outcomes embed per-sweep mint ids, so cross-sweep
             records are compared through their stable CSV rendering,
             minus the trailing wall_ns column (the clock is exactly
             what may change) *)
          let csv rs =
            List.map
              (fun r ->
                let row = Campaign.csv_row r in
                match String.rindex_opt row ',' with
                | Some i -> String.sub row 0 i
                | None -> row)
              rs
          in
          let same =
            csv recs_off = csv recs_cold && csv recs_cold = csv recs_warm
          in
          let j = Printf.sprintf "j%d" jobs in
          recorded_cache :=
            !recorded_cache
            @ [
                ("sweep-off/" ^ j, t_off *. 1e9);
                ("sweep-cold/" ^ j, t_cold *. 1e9);
                ("sweep-warm/" ^ j, t_warm *. 1e9);
                ("speedup-cold/" ^ j, t_off /. t_cold);
                ("speedup-warm/" ^ j, t_off /. t_warm);
              ];
          if jobs = 1 then
            recorded_cache :=
              !recorded_cache @ [ ("warm-hit-rate", 100. *. hit_rate) ];
          rows :=
            !rows
            @ [
                [
                  Printf.sprintf "-j %d" jobs;
                  Printf.sprintf "%7.3f s" t_off;
                  Printf.sprintf "%7.3f s" t_cold;
                  Printf.sprintf "%7.3f s" t_warm;
                  Printf.sprintf "%.2fx" (t_off /. t_warm);
                  Printf.sprintf "%.1f%%" (100. *. hit_rate);
                  string_of_bool same;
                ];
              ];
          if not same then fails := (j ^ ": records diverged") :: !fails;
          if t_off /. t_warm < 2.0 then
            fails :=
              Printf.sprintf "%s: warm speedup %.2fx < 2x" j (t_off /. t_warm)
              :: !fails)
        [ 1; 4 ]);
  print_table
    [ "jobs"; "no-cache"; "cold"; "warm"; "warm speedup"; "hit-rate"; "same records" ]
    !rows;
  Printf.printf "\n(%d runs per sweep: %d instances x %d strategies x 8 seeds)\n"
    (List.length suite * List.length Campaign.strategies * 8)
    (List.length suite)
    (List.length Campaign.strategies);
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  write_bench_json out;
  Printf.printf "wrote %s\n" out;
  if !fails <> [] then begin
    List.iter (fun m -> Printf.printf "FAIL: %s\n" m) !fails;
    exit 1
  end

(* ---------- exposition: render cost, quantile accuracy, live scrape ---------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let http_get port path =
  let open Unix in
  let sock = socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try close sock with _ -> ())
    (fun () ->
      connect sock (ADDR_INET (inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let rec drain () =
        let n = read sock chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
        end
      in
      drain ();
      Buffer.contents buf)

let exposition () =
  section "Exposition: OpenMetrics render, quantile accuracy, scrape under load";
  print_endline
    "the live observability plane, three ways: (1) render cost of a\n\
     realistic snapshot through Openmetrics.render (the per-scrape\n\
     price); (2) quantile estimation accuracy of the log-scale latency\n\
     histograms against exact nearest-rank quantiles of the raw samples\n\
     (the documented guarantee is one bucket ratio, 2x); (3) a live\n\
     scrape-under-load smoke: GET /metrics every 10 ms while a -j 4\n\
     sweep publishes through the same accumulator the CLI uses.\n";
  let fails = ref [] in
  (* 1. render cost over a real snapshot: observe a full pass over the
     symmetric suite so engine, kernel and latency families are all
     populated, then time the renderer alone *)
  let sink = Qe_obs.Sink.create () in
  Qe_obs.Sink.with_ambient sink (fun () ->
      List.iter
        (fun inst ->
          ignore
            (Campaign.run_one ~obs:sink
               ~expected_elected:(Campaign.elect_expected inst)
               inst Elect.protocol))
        (sym_suite ()));
  let snap = Qe_obs.Metrics.snapshot sink.Qe_obs.Sink.metrics in
  let body = Qe_obs.Openmetrics.render snap in
  let render_ns =
    let reps = 200 in
    let t0 = Qe_obs.Clock.now_ns () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (Qe_obs.Openmetrics.render snap))
    done;
    float_of_int (Qe_obs.Clock.now_ns () - t0) /. float_of_int reps
  in
  Printf.printf
    "render: %d metric families -> %d bytes in %.0f ns/scrape\n\n"
    (List.length snap) (String.length body) render_ns;
  recorded_exposition :=
    [
      ("render-ns", render_ns);
      ("render-bytes", float_of_int (String.length body));
      ("families", float_of_int (List.length snap));
    ];
  (* 2. quantile accuracy: latency-bucket histograms vs exact
     nearest-rank quantiles on the raw samples. The mli promises one
     bucket ratio worst case (2x) — gate exactly that. *)
  let distributions =
    let st = Random.State.make [| 0x5eed |] in
    [
      ("uniform", Array.init 4096 (fun _ -> 100 + Random.State.int st 999_900));
      ( "lognormal-ish",
        Array.init 4096 (fun _ ->
            int_of_float (exp (6. +. (Random.State.float st 8.)))) );
      ("constant", Array.make 4096 12_345);
    ]
  in
  let qs = [ 0.5; 0.9; 0.99 ] in
  let rows =
    List.map
      (fun (name, samples) ->
        let reg = Qe_obs.Metrics.create () in
        let h = Qe_obs.Metrics.latency reg "bench_latency" in
        Array.iter (fun v -> Qe_obs.Metrics.observe h v) samples;
        let s =
          match
            Qe_obs.Metrics.find (Qe_obs.Metrics.snapshot reg) "bench_latency"
          with
          | Some s -> s
          | None -> assert false
        in
        let sorted = Array.copy samples in
        Array.sort compare sorted;
        let exact q =
          let n = Array.length sorted in
          let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
          float_of_int sorted.(rank - 1)
        in
        let worst = ref 1.0 in
        let cells =
          List.map
            (fun q ->
              match Qe_obs.Metrics.quantile s q with
              | None -> "?"
              | Some est ->
                  let ex = exact q in
                  let factor = if est > ex then est /. ex else ex /. est in
                  worst := max !worst factor;
                  Printf.sprintf "%.0f/%.0f (%.2fx)" est ex factor)
            qs
        in
        recorded_exposition :=
          !recorded_exposition @ [ ("quantile-error/" ^ name, !worst) ];
        if !worst > 2.0 then
          fails :=
            Printf.sprintf "%s: quantile error %.2fx > 2x bucket guarantee"
              name !worst
            :: !fails;
        name :: cells @ [ Printf.sprintf "%.2fx" !worst ])
      distributions
  in
  print_table
    [ "distribution"; "p50 est/exact"; "p90 est/exact"; "p99 est/exact";
      "worst" ]
    rows;
  (* 3. scrape under load: the CLI's exact wiring — mutex-guarded
     accumulator fed by ~live, plus the process-wide cache and
     supervisor registries — scraped every 10 ms while a -j 4 sweep
     runs *)
  let acc = ref [] and acc_m = Mutex.create () in
  let push snap =
    Mutex.lock acc_m;
    (try acc := Qe_obs.Metrics.merge !acc snap with _ -> ());
    Mutex.unlock acc_m
  in
  let srv =
    Qe_obs.Expose.start ~port:0
      ~sources:
        [
          (fun () ->
            Mutex.lock acc_m;
            let s = !acc in
            Mutex.unlock acc_m;
            s);
          Qe_symmetry.Artifact_cache.metrics_snapshot;
          Qe_par.Supervisor.metrics_snapshot;
        ]
      ()
  in
  let port = Qe_obs.Expose.port srv in
  let finished = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            sweep_records ~seeds:(List.init 4 Fun.id) ~jobs:4 ~live:push
              ~expected:Campaign.elect_expected Elect.protocol (sym_suite ())))
  in
  let scrapes = ref 0 and bad = ref 0 in
  while not (Atomic.get finished) do
    (match try Some (http_get port "/metrics") with _ -> None with
    | Some resp ->
        incr scrapes;
        let ok =
          String.length resp > 15
          && String.sub resp 0 15 = "HTTP/1.1 200 OK"
          && contains resp "# EOF"
        in
        if not ok then incr bad
    | None -> incr scrapes; incr bad);
    Unix.sleepf 0.01
  done;
  let records = Domain.join worker in
  let final = http_get port "/metrics" in
  Qe_obs.Expose.stop srv;
  List.iter
    (fun family ->
      if not (contains final family) then
        fails :=
          Printf.sprintf "final scrape is missing the %s family" family
          :: !fails)
    [ "cache_"; "pool_"; "_latency"; "# EOF" ];
  (* the supervisor registry must report the supervised tasks, not just
     export zeroed families *)
  let supervised =
    List.find_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "pool_supervised_total"; v ] -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char '\n' final)
  in
  if not (match supervised with Some n -> n > 0 | None -> false) then
    fails := "final scrape has no non-zero pool_supervised_total" :: !fails;
  if !bad > 0 then
    fails :=
      Printf.sprintf "%d of %d mid-sweep scrapes malformed" !bad !scrapes
      :: !fails;
  Printf.printf
    "\nscrape under load: %d scrapes during a %d-record -j 4 sweep, %d \
     malformed; final scrape %d bytes\n"
    !scrapes (List.length records) !bad (String.length final);
  recorded_exposition :=
    !recorded_exposition
    @ [
        ("scrapes-under-load", float_of_int !scrapes);
        ("scrapes-malformed", float_of_int !bad);
        ("final-scrape-bytes", float_of_int (String.length final));
      ];
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  write_bench_json out;
  Printf.printf "wrote %s\n" out;
  if !fails <> [] then begin
    List.iter (fun m -> Printf.printf "FAIL: %s\n" m) !fails;
    exit 1
  end

(* ---------- resilience: the supervised harness must be free when calm ---------- *)

let resilience () =
  section
    "Resilience: supervised sweep overhead and self-healing under harness \
     chaos";
  print_endline
    "the same -j 4 sweep matrix three ways. 'plain' is a bare\n\
     unsupervised fan-out of Campaign.run_one over it (an atomic index\n\
     counter, 3 spawned domains plus the caller); 'supervised' is\n\
     Campaign.sweep with the self-healing harness armed (deadline +\n\
     retry + quarantine) and no faults, so its cost is one claim/settle\n\
     handshake per task and a 2 ms monitor poll — it must sit within\n\
     noise of plain. The chaos rows then inject task kills and show the\n\
     harness retrying everything to completion, and quarantining the\n\
     tasks a tighter attempt budget cannot save.\n";
  let module Supervisor = Qe_par.Supervisor in
  let module HChaos = Qe_par.Harness_chaos in
  let fails = ref [] in
  let suite = sym_suite () in
  let seeds = List.init 4 Fun.id in
  let strip_wall row =
    match String.rindex_opt row ',' with
    | Some i -> String.sub row 0 i
    | None -> row
  in
  let time f =
    let t0 = Qe_obs.Clock.now_ns () in
    let r = Sys.opaque_identity (f ()) in
    (float_of_int (Qe_obs.Clock.now_ns () - t0), r)
  in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* the matrix in the sweep's canonical order: instance, strategy, seed *)
  let matrix =
    Array.of_list
      (List.concat_map
         (fun inst ->
           List.concat_map
             (fun strat -> List.map (fun seed -> (inst, strat, seed)) seeds)
             Campaign.strategies)
         suite)
  in
  let plain () =
    let out = Array.make (Array.length matrix) None in
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length matrix then begin
        let inst, strategy, seed = matrix.(i) in
        out.(i) <-
          Some
            (Campaign.run_one ~strategy ~seed
               ~expected_elected:(Campaign.elect_expected inst)
               inst Elect.protocol);
        drain ()
      end
    in
    let doms = List.init 3 (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join doms;
    Array.to_list (Array.map Option.get out)
  in
  let policy =
    Supervisor.policy ~deadline_ns:30_000_000_000 ~max_attempts:3 ()
  in
  let hardened ?harness_chaos ?(policy = policy) () =
    Campaign.sweep ~seeds ~jobs:4 ~supervise:policy ?harness_chaos
      ~expected:Campaign.elect_expected Elect.protocol suite
  in
  (* warm the artifact cache once so every timed rep runs warm (the bare
     fan-out has no prewarm of its own) *)
  let baseline = plain () in
  let reps = 5 in
  let t_plain =
    median (List.init reps (fun _ -> fst (time plain)))
  in
  let t_hard, (rows, summary) =
    let timed = List.init reps (fun _ -> time (hardened ?harness_chaos:None)) in
    (median (List.map fst timed), snd (List.hd timed))
  in
  let ratio = t_hard /. t_plain in
  print_table
    [ "configuration"; "sweep wall"; "vs plain" ]
    [
      [ "plain"; Printf.sprintf "%8.1f ms" (t_plain /. 1e6); "1.00x" ];
      [
        "supervised";
        Printf.sprintf "%8.1f ms" (t_hard /. 1e6);
        Printf.sprintf "%.2fx" ratio;
      ];
    ];
  (* the supervised rows are the plain records, byte-for-byte modulo
     the wall_ns column *)
  let plain_rows = List.map (fun r -> strip_wall (Campaign.csv_row r)) baseline
  and hard_rows =
    List.map (fun (r : Campaign.sweep_row) -> strip_wall r.s_csv) rows
  in
  if plain_rows <> hard_rows then
    fails := "supervised sweep rows differ from plain sweep" :: !fails;
  if summary.Campaign.h_retries <> 0 || summary.Campaign.h_quarantined <> []
  then fails := "fault-free supervised sweep reported faults" :: !fails;
  (* generous for loaded CI boxes, same spirit as the fault-overhead
     gate: a structural regression (per-task domain spawn, busy monitor)
     costs integer multiples, not percents *)
  if ratio > 1.50 then
    fails :=
      Printf.sprintf "supervised overhead %.2fx > 1.50x over plain" ratio
      :: !fails;
  (* 2. self-healing: kill ~30%% of task attempts; every task must still
     complete (retries absorb the kills), and the output still matches *)
  let chaos = HChaos.make ~kill_rate:0.3 ~seed:42 () in
  let heal_policy = Supervisor.policy ~max_attempts:10 () in
  let rows_chaos, sum_chaos =
    hardened ~harness_chaos:chaos ~policy:heal_policy ()
  in
  Printf.printf
    "\nself-healing: kill_rate=0.3 -> %d/%d tasks completed after %d retries\n"
    sum_chaos.Campaign.h_ran sum_chaos.Campaign.h_tasks
    sum_chaos.Campaign.h_retries;
  if List.map (fun (r : Campaign.sweep_row) -> strip_wall r.s_csv) rows_chaos
     <> plain_rows
  then fails := "chaos-survivor rows differ from plain sweep" :: !fails;
  if sum_chaos.Campaign.h_retries = 0 then
    fails := "kill_rate=0.3 fired no retries" :: !fails;
  if sum_chaos.Campaign.h_quarantined <> [] then
    fails := "max_attempts=10 still quarantined a task" :: !fails;
  (* 3. quarantine: a two-attempt budget under heavier fire loses some
     tasks — but only those; the rest of the sweep completes *)
  let storm = HChaos.make ~kill_rate:0.5 ~seed:2 () in
  let tight = Supervisor.policy ~max_attempts:2 () in
  let rows_q, sum_q = hardened ~harness_chaos:storm ~policy:tight () in
  let quarantined = List.length sum_q.Campaign.h_quarantined in
  Printf.printf
    "quarantine: kill_rate=0.5, max_attempts=2 -> %d quarantined, %d/%d \
     completed\n"
    quarantined (List.length rows_q) sum_q.Campaign.h_tasks;
  if quarantined = 0 then
    fails := "storm quarantined nothing (seed drift?)" :: !fails;
  if List.length rows_q + quarantined <> sum_q.Campaign.h_tasks then
    fails := "quarantine lost rows beyond the quarantined tasks" :: !fails;
  recorded_resilience :=
    [
      ("plain-sweep-ms", t_plain /. 1e6);
      ("supervised-sweep-ms", t_hard /. 1e6);
      ("supervised-overhead", ratio);
      ("healed-retries", float_of_int sum_chaos.Campaign.h_retries);
      ("storm-quarantined", float_of_int quarantined);
      ("storm-completed", float_of_int (List.length rows_q));
    ];
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  write_bench_json out;
  Printf.printf "wrote %s\n" out;
  if !fails <> [] then begin
    List.iter (fun m -> Printf.printf "FAIL: %s\n" m) !fails;
    exit 1
  end

(* ---------- the instance-size frontier (CSR + transitivity fast path) ---------- *)

(* Macro-benchmark, not Bechamel: each rung runs once and reports
   ns/node for generation (presentation group streamed into CSR) and for
   the uniform all-black class computation (the transitivity fast path).
   The smallest rung is the hygiene gate — the fast path must agree with
   the full automorphism search partition-for-partition and be at least
   10x faster, or the section exits 1. *)
let frontier_bench () =
  section "Frontier: 10^5-node Cayley instances, CSR pipeline, fast path";
  let module P = Qe_group.Presentation in
  let module Classes = Qe_symmetry.Classes in
  let now = Qe_obs.Clock.now_ns in
  let partitions_agree n a b =
    Classes.num_classes a = Classes.num_classes b
    &&
    let map = Array.make (Classes.num_classes a) (-1) in
    let ok = ref true in
    for u = 0 to n - 1 do
      let ca = Classes.class_of_node a u and cb = Classes.class_of_node b u in
      if map.(ca) = -1 then map.(ca) <- cb
      else if map.(ca) <> cb then ok := false
    done;
    !ok
  in
  (* hygiene rung: small enough for the full search, big enough that the
     skipped search is measurable *)
  let gate_ok =
    let inst = P.circulant 256 [ 1; 3 ] in
    let g = inst.P.graph in
    let n = Graph.n g in
    let b = Bicolored.make g ~black:(List.init n Fun.id) in
    let t0 = now () in
    let fast = Qe_symmetry.Classes.compute b in
    let fast_ns = now () - t0 in
    let t1 = now () in
    let slow = Qe_symmetry.Classes.compute_slow b in
    let slow_ns = now () - t1 in
    let agree = partitions_agree n fast slow in
    let speedup = float_of_int slow_ns /. float_of_int (max 1 fast_ns) in
    Printf.printf
      "gate circulant:256:1,3 — fast %s (%d classes) vs full search: \
       partitions %s, %.1fx faster\n"
      (if Classes.used_fast_path fast then "path taken" else "PATH NOT TAKEN")
      (Classes.num_classes fast)
      (if agree then "agree" else "DISAGREE")
      speedup;
    recorded_frontier :=
      !recorded_frontier @ [ ("fastpath-speedup/circulant-256", speedup) ];
    Classes.used_fast_path fast && agree && speedup >= 10.
  in
  (* the size ladder: generation + classes, ns/node *)
  let ladder =
    [
      ("circulant-4096", fun () -> (P.circulant 4096 [ 1; 3 ]).P.graph);
      ("ccc-10", fun () -> (P.cube_connected_cycles 10).P.graph);
      ("ccc-13", fun () -> (P.cube_connected_cycles 13).P.graph);
      ( "circulant-100000",
        fun () -> (P.circulant 100_000 [ 1; 3; 9 ]).P.graph );
    ]
  in
  let rows =
    List.map
      (fun (name, build) ->
        let t0 = now () in
        let g = build () in
        let gen_ns = now () - t0 in
        let n = Graph.n g in
        let b = Bicolored.make g ~black:(List.init n Fun.id) in
        let t1 = now () in
        let cls = Qe_symmetry.Classes.compute b in
        let cls_ns = now () - t1 in
        let per ns = float_of_int ns /. float_of_int n in
        recorded_frontier :=
          !recorded_frontier
          @ [
              ("gen-ns-per-node/" ^ name, per gen_ns);
              ("classes-ns-per-node/" ^ name, per cls_ns);
            ];
        [
          name;
          string_of_int n;
          string_of_int (Graph.m g);
          Printf.sprintf "%.0f" (per gen_ns);
          Printf.sprintf "%.0f" (per cls_ns);
          (if Classes.used_fast_path cls then "fast" else "full");
          string_of_int (Classes.num_classes cls);
        ])
      ladder
  in
  print_table
    [ "instance"; "n"; "m"; "gen ns/node"; "classes ns/node"; "path"; "k" ]
    rows;
  let stat = Gc.quick_stat () in
  let peak_mb =
    float_of_int stat.Gc.top_heap_words
    *. float_of_int (Sys.word_size / 8)
    /. (1024. *. 1024.)
  in
  Printf.printf "peak major heap: %.1f MB\n" peak_mb;
  recorded_frontier := !recorded_frontier @ [ ("peak-heap-mb", peak_mb) ];
  let out = Printf.sprintf "BENCH_%d.json" bench_revision in
  write_bench_json out;
  Printf.printf "wrote %s\n" out;
  (* ns/node deltas against the previous tracked revision, where the
     keys exist (older revisions predate this section) *)
  let prev = Printf.sprintf "BENCH_%d.json" (bench_revision - 1) in
  if Sys.file_exists prev then begin
    let prev_vals = ref [] in
    In_channel.with_open_text prev (fun ic ->
        try
          while true do
            let line = String.trim (input_line ic) in
            match String.index_opt line ':' with
            | Some i when String.length line > 2 && line.[0] = '"' ->
                let name = String.sub line 1 (i - 2) in
                let v = String.sub line (i + 1) (String.length line - i - 1) in
                let v =
                  String.trim
                    (if String.length v > 0 && v.[String.length v - 1] = ','
                     then String.sub v 0 (String.length v - 1)
                     else v)
                in
                (match float_of_string_opt v with
                | Some f -> prev_vals := (name, f) :: !prev_vals
                | None -> ())
            | _ -> ()
          done
        with End_of_file -> ());
    let any = ref false in
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name !prev_vals with
        | Some p when p > 0. ->
            if not !any then Printf.printf "\nvs %s:\n" prev;
            any := true;
            Printf.printf "  %-36s %+6.1f%%\n" name (100. *. ((v /. p) -. 1.))
        | _ -> ())
      !recorded_frontier;
    if not !any then
      Printf.printf "(no frontier keys in %s — section is new this revision)\n"
        prev
  end;
  if not gate_ok then begin
    print_endline "FAIL: fast-path gate (agreement and >= 10x)";
    exit 1
  end

(* ---------- driver ---------- *)

let sections =
  [
    ("table1", table1);
    ("figure2", figure2);
    ("figure2c", figure2c);
    ("figure5", figure5);
    ("thm21", thm21);
    ("thm31_correctness", thm31_correctness);
    ("thm31_complexity", thm31_complexity);
    ("thm41", thm41);
    ("figure1", figure1);
    ("mark-race", mark_race_frontier);
    ("ablation", ablation);
    ("yk_views", yk_views);
    ("sigma_explorer", sigma_explorer);
    ("perf", perf);
    ("obs-overhead", obs_overhead);
    ("fault-overhead", fault_overhead);
    ("par-scaling", par_scaling);
    ("cache", cache_bench);
    ("exposition", exposition);
    ("resilience", resilience);
    ("frontier", frontier_bench);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (available: %s)\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
