(* A tour of Cayley graphs: build interconnection networks from their
   groups, recognize Cayley structure from bare topology, and run the
   effectual election of Theorem 4.1.

   Run with: dune exec examples/cayley_tour.exe *)

module Presentation = Qe_group.Presentation
module Cayley = Qe_group.Cayley
module Graph = Qe_graph.Graph
module Cayley_detect = Qe_symmetry.Cayley_detect
module World = Qe_runtime.World
module Engine = Qe_runtime.Engine

let networks =
  [
    ("ring C9", Cayley.ring 9, [ 0; 3 ]);
    ("hypercube Q3", Cayley.hypercube 3, [ 0; 7 ]);
    ("torus 3x4", Cayley.torus 3 4, [ 0; 7 ]);
    ("complete K5", Cayley.complete 5, [ 0; 1 ]);
    ("circulant C10{1,3}", Presentation.circulant 10 [ 1; 3 ], [ 0; 5 ]);
    ("CCC(3)", Presentation.cube_connected_cycles 3, [ 0; 11 ]);
    ("star graph ST4", Cayley.star_graph 4, [ 0; 9 ]);
    ("dihedral 2n-cycle D5", Cayley.dihedral_cayley 5, [ 0; 2 ]);
  ]

let () =
  print_endline "group          -> graph      (n, m, degree)";
  List.iter
    (fun (name, (c : Cayley.t), _) ->
      let g = c.graph in
      Printf.printf "  %-22s %s: n=%d m=%d deg=%d\n" name
        (Presentation.name c.group)
        (Graph.n g) (Graph.m g) (Graph.degree g 0))
    networks;

  print_endline "\nrecognition from bare topology (no group given):";
  List.iter
    (fun (name, (c : Cayley.t), _) ->
      let g = c.graph in
      if Graph.n g <= 24 then
        match Cayley_detect.recognize g with
        | Cayley_detect.Cayley r ->
            Printf.printf "  %-22s recognized, |S| = %d, verified: %b\n" name
              (List.length r.Cayley_detect.generators)
              (Cayley_detect.verify g r)
        | Cayley_detect.Not_cayley ->
            Printf.printf "  %-22s NOT recognized (bug!)\n" name
        | Cayley_detect.Unknown msg ->
            Printf.printf "  %-22s unknown: %s\n" name msg
      else Printf.printf "  %-22s skipped (too large for the demo)\n" name)
    networks;

  print_endline
    "\neffectual election (Theorem 4.1) with two agents per network.\n\
     The construction group's own translation classes are shown; the\n\
     protocol quantifies over ALL regular subgroups, so it can detect\n\
     impossibility even when this particular group's classes are trivial\n\
     (e.g. the 3x4 torus also carries a Z12 structure whose translation\n\
     by 6 can preserve the placement):";
  List.iter
    (fun (name, (c : Cayley.t), black) ->
      let g = c.graph in
      if Graph.n g <= 24 then begin
        let classes = Cayley.translation_classes c ~black in
        let class_size = List.length (List.hd classes) in
        let world = World.make g ~black in
        let r = Engine.run ~seed:11 world Qe_elect.Elect_cayley.protocol in
        Printf.printf
          "  %-22s %d classes of size %d under %s -> %s\n" name
          (List.length classes) class_size
          (Presentation.name c.group)
          (match r.Engine.outcome with
          | Engine.Elected _ -> "elected"
          | Engine.Declared_unsolvable -> "provably unsolvable"
          | _ -> "unexpected")
      end)
    networks
