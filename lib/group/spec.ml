module Families = Qe_graph.Families
module P = Presentation

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* The one integer reader (a bad field names itself and its spec) and the
   one list reader, for jump sets and agent lists alike. *)
let int spec s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> error "%s: %S is not an integer" spec s

let ints spec s =
  String.map (function '+' -> ',' | c -> c) s
  |> String.split_on_char ',' |> List.map (int spec)

let agents l = ints ("--agents " ^ l) l

(* The field shapes: [shape f spec fields] reads the fields after the
   family name into the builder [f], or is [None] on another shape. *)
let unit f _ = function [] -> Some (f ()) | _ -> None
let one f s = function [ a ] -> Some (f (int s a)) | _ -> None
let two f s = function [ a; b ] -> Some (f (int s a) (int s b)) | _ -> None
let dims f s = function [ d ] -> two f s (String.split_on_char 'x' d) | _ -> None
let jumps f s = function [ n; js ] -> Some (f (int s n) (ints s js)) | _ -> None
let three f s = function [ a; b; c ] -> Some (f (int s a) (int s b) (int s c)) | _ -> None

(* One row per family: its usage (the name is the part before the first
   ':'), its graph builder and, where it has one, its Cayley builder. *)
type row = {
  form : string;
  graph : string -> string list -> Qe_graph.Graph.t option;
  cayley : (string -> string list -> P.instance option) option;
}

let row ?cayley form graph = { form; graph; cayley }
let cayley_only form c =
  row ~cayley:c form (fun s a -> Option.map P.(fun i -> i.graph) (c s a))

let table =
  [
    row "petersen" (unit Families.petersen);
    row "cycle:N" (one Families.cycle);
    row "path:N" (one Families.path);
    row "complete:N" (one Families.complete);
    row "hypercube:D" (one Families.hypercube) ~cayley:(one Cayley.hypercube);
    row "star:K" (one Families.star);
    row "wheel:K" (one Families.wheel);
    row "tree:H" (one Families.binary_tree);
    row "ccc:D" (one Families.cube_connected_cycles)
      ~cayley:(one P.cube_connected_cycles);
    row "torus:AxB" (dims Families.torus) ~cayley:(dims Cayley.torus);
    row "grid:AxB" (dims Families.grid);
    row "circulant:N:J1+J2+..." (jumps Families.circulant) ~cayley:(jumps P.circulant);
    row "random:SEED:N:EXTRA"
      (three (fun seed n extra_edges -> Families.random_connected ~seed ~n ~extra_edges));
    cayley_only "dihedral:N" (one Cayley.dihedral_cayley);
    (* shift (0, 1) is element 1, bump (e_0, 0) element d: base 2 is CCC_d *)
    cayley_only "wreath:BASE:D"
      (two (fun base d -> P.cayley (P.wreath_shift ~base d) [ 1; d ]));
  ]

let name s = List.hd (String.split_on_char ':' s)
let forms = List.map (fun r -> r.form) table
let cayley_forms = List.filter_map (fun r -> Option.map (fun _ -> r.form) r.cayley) table
let find spec = List.find_opt (fun r -> name r.form = name spec) table

let build spec r b =
  match b spec (List.tl (String.split_on_char ':' spec)) with
  | Some x -> x
  | None -> error "%s: expected %s" spec r.form

let graph spec =
  match find spec with
  | Some r -> build spec r r.graph
  | None -> error "%s: unknown family (try %s)" spec (String.concat ", " forms)

let cayley spec =
  match find spec with
  | Some ({ cayley = Some c; _ } as r) -> build spec r c
  | _ -> error "%s: not a Cayley family (try %s)" spec (String.concat ", " cayley_forms)
