type instance = {
  graph : Graph.t;
  labeling : Labeling.t option;
  black : int list;
}

type error = { line : int; reason : string }

let pp_error ppf e =
  if e.line > 0 then Format.fprintf ppf "line %d: %s" e.line e.reason
  else Format.pp_print_string ppf e.reason

let to_string ?labeling ?(black = []) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "qelect-instance v1\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" (Graph.n g));
  Buffer.add_string buf "edges\n";
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    (Graph.edges g);
  (match labeling with
  | None -> ()
  | Some l ->
      Buffer.add_string buf "labeling\n";
      for u = 0 to Graph.n g - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%d: %s\n" u
             (String.concat " "
                (Array.to_list
                   (Array.map string_of_int (Labeling.symbols_at l u)))))
      done);
  if black <> [] then
    Buffer.add_string buf
      (Printf.sprintf "agents %s\n"
         (String.concat " " (List.map string_of_int black)));
  Buffer.contents buf

(* Decoding is total: every malformed input — wrong header, junk lines,
   out-of-range edge endpoints or agent ids, a disconnected graph,
   truncated sections, labeling rows that violate the port-symbol
   invariants — comes back as [Error], never as an escaping exception. The internal [Parse]
   exception keeps the happy path readable; the outermost handler also
   converts anything a constructor might still raise (a totality
   backstop, not a routine path). *)
exception Parse of int * string

let of_string_result text =
  let fail lineno msg = raise (Parse (lineno, msg)) in
  let strip line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let parse () =
    let lines =
      String.split_on_char '\n' text
      |> List.mapi (fun i l -> (i + 1, strip l))
      |> List.filter (fun (_, l) -> l <> "")
    in
    match lines with
    | (_, header) :: rest when header = "qelect-instance v1" ->
        let n = ref (-1) in
        let edges = ref [] in
        let label_rows = ref [] in
        let black = ref [] in
        let black_line = ref 0 in
        let mode = ref `Preamble in
        List.iter
          (fun (lineno, line) ->
            let words =
              String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
            in
            match (words, !mode) with
            | [ "nodes"; v ], `Preamble -> (
                match int_of_string_opt v with
                | Some k when k > 0 -> n := k
                | _ -> fail lineno "bad node count")
            | [ "edges" ], _ -> mode := `Edges
            | [ "labeling" ], _ -> mode := `Labeling
            | "agents" :: rest, _ ->
                black_line := lineno;
                black :=
                  List.map
                    (fun w ->
                      match int_of_string_opt w with
                      | Some v -> v
                      | None -> fail lineno "bad agent id")
                    rest
            | [ a; b ], `Edges -> (
                match (int_of_string_opt a, int_of_string_opt b) with
                | Some u, Some v -> edges := (lineno, u, v) :: !edges
                | _ -> fail lineno "bad edge")
            | first :: syms, `Labeling
              when String.length first > 0
                   && first.[String.length first - 1] = ':' -> (
                let node = String.sub first 0 (String.length first - 1) in
                match int_of_string_opt node with
                | Some u ->
                    let row =
                      List.map
                        (fun w ->
                          match int_of_string_opt w with
                          | Some s -> s
                          | None -> fail lineno "bad symbol")
                        syms
                    in
                    label_rows := (lineno, u, row) :: !label_rows
                | None -> fail lineno "bad labeling node")
            | _, `Preamble -> fail lineno "expected 'nodes N'"
            | _ -> fail lineno "unparsable line")
          rest;
        if !n <= 0 then fail 0 "missing node count";
        List.iter
          (fun (lineno, u, v) ->
            if u < 0 || u >= !n || v < 0 || v >= !n then
              fail lineno "edge endpoint out of range")
          !edges;
        let seen_agents = Hashtbl.create 8 in
        List.iter
          (fun a ->
            if a < 0 || a >= !n then fail !black_line "agent id out of range";
            if Hashtbl.mem seen_agents a then
              fail !black_line "duplicate agent id";
            Hashtbl.add seen_agents a ())
          !black;
        let graph =
          Graph.of_edges ~n:!n
            (List.rev_map (fun (_, u, v) -> (u, v)) !edges)
        in
        (* [Graph]'s contract is a connected network; a disconnected
           file would reach the symmetry stack with nonsense verdicts
           and the engine with an exception *)
        if not (Traverse.is_connected graph) then
          fail 0 "graph is disconnected";
        let labeling =
          if !label_rows = [] then None
          else begin
            let table = Array.make !n [||] in
            List.iter
              (fun (lineno, u, row) ->
                if u < 0 || u >= !n then
                  fail lineno "labeling node out of range";
                table.(u) <- Array.of_list row)
              !label_rows;
            Array.iteri
              (fun u row ->
                if Array.length row <> Graph.degree graph u then
                  fail 0
                    (Printf.sprintf "node %d has %d symbols for %d ports" u
                       (Array.length row) (Graph.degree graph u)))
              table;
            Some (Labeling.make graph (fun u i -> table.(u).(i)))
          end
        in
        Ok { graph; labeling; black = !black }
    | (_, other) :: _ -> fail 0 ("bad header: " ^ other)
    | [] -> fail 0 "empty input"
  in
  match parse () with
  | ok -> ok
  | exception Parse (line, reason) -> Error { line; reason }
  | exception Invalid_argument reason -> Error { line = 0; reason }
  | exception Failure reason -> Error { line = 0; reason }

let of_string text =
  match of_string_result text with
  | Ok i -> i
  | Error { line; reason } ->
      if line > 0 then
        failwith (Printf.sprintf "Serial.of_string: line %d: %s" line reason)
      else failwith ("Serial.of_string: " ^ reason)

let save ~path ?labeling ?black g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?labeling ?black g))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
