type t = {
  n : int;
  m : int;
  off : int array;
  dst : int array;
  dst_port : int array;
  edge : int array;
  edge_u : int array;
  edge_v : int array;
}

let check_endpoint ~n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Csr.of_endpoints: endpoint %d out of range" u)

(* Port semantics mirror [Graph.of_edges] exactly: edge ids in array
   order, ports per node in order of appearance, a loop (u, u) taking
   two consecutive ports pu < pv with cross-referencing dst_ports. *)
let of_endpoints ~n edge_u edge_v =
  if n <= 0 then invalid_arg "Csr.of_endpoints: n must be positive";
  let m = Array.length edge_u in
  if Array.length edge_v <> m then
    invalid_arg "Csr.of_endpoints: endpoint arrays differ in length";
  let off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    let u = edge_u.(e) and v = edge_v.(e) in
    check_endpoint ~n u;
    check_endpoint ~n v;
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let nd = 2 * m in
  let dst = Array.make nd 0 in
  let dst_port = Array.make nd 0 in
  let edge = Array.make nd 0 in
  let next = Array.sub off 0 n in
  for e = 0 to m - 1 do
    let u = edge_u.(e) and v = edge_v.(e) in
    let su = next.(u) in
    next.(u) <- su + 1;
    let sv = next.(v) in
    next.(v) <- sv + 1;
    let pu = su - off.(u) and pv = sv - off.(v) in
    dst.(su) <- v;
    dst_port.(su) <- pv;
    edge.(su) <- e;
    dst.(sv) <- u;
    dst_port.(sv) <- pu;
    edge.(sv) <- e
  done;
  { n; m; off; dst; dst_port; edge; edge_u; edge_v }

let n t = t.n
let m t = t.m
let degree t u = t.off.(u + 1) - t.off.(u)

let max_degree t =
  let best = ref 0 in
  for u = 0 to t.n - 1 do
    let d = degree t u in
    if d > !best then best := d
  done;
  !best

let iter_darts t u f =
  let lo = t.off.(u) and hi = t.off.(u + 1) in
  for a = lo to hi - 1 do
    f (a - lo) t.dst.(a) t.dst_port.(a) t.edge.(a)
  done

let fold_darts t u ~init ~f =
  let lo = t.off.(u) and hi = t.off.(u + 1) in
  let acc = ref init in
  for a = lo to hi - 1 do
    acc := f !acc (a - lo) t.dst.(a) t.dst_port.(a) t.edge.(a)
  done;
  !acc

let sort_range (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

let words t =
  let arr (a : int array) = Array.length a + 2 in
  arr t.off + arr t.dst + arr t.dst_port + arr t.edge + arr t.edge_u
  + arr t.edge_v + 9
