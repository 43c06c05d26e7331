(* A dependency-free HTTP/1.1 scrape endpoint on raw Unix sockets.

   Single-domain select loop: every fd is non-blocking, connections
   carry their own read deadline, and the accept path answers 503 past
   the connection cap — a stalled or malicious client can slow itself
   down, never the endpoint. *)

type conn_state =
  | Reading of { buf : Buffer.t; deadline : int }
  | Writing of { data : string; mutable off : int }

type conn = { cfd : Unix.file_descr; mutable state : conn_state }

type t = {
  fd : Unix.file_descr;
  port : int;
  stopping : bool Atomic.t;
  dom : unit Domain.t;
}

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

(* merge every source that answers; a source raising mid-scrape (e.g. a
   registry being torn down) drops out of this response only *)
let scrape sources =
  List.fold_left
    (fun acc src ->
      match src () with
      | snap -> Metrics.merge acc snap
      | exception _ -> acc)
    [] sources

let response_for sources req =
  let first_line =
    match String.index_opt req '\r' with
    | Some i -> String.sub req 0 i
    | None -> req
  in
  let path =
    match String.split_on_char ' ' first_line with
    | meth :: path :: _ when meth = "GET" -> Some path
    | _ -> None
  in
  match path with
  | Some "/metrics" ->
      http_response ~status:"200 OK" ~content_type:Openmetrics.content_type
        (Openmetrics.render (scrape sources))
  | Some "/healthz" ->
      http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
  | Some _ ->
      http_response ~status:"404 Not Found" ~content_type:"text/plain"
        "not found\n"
  | None ->
      http_response ~status:"400 Bad Request" ~content_type:"text/plain"
        "bad request\n"

let resp_408 =
  http_response ~status:"408 Request Timeout" ~content_type:"text/plain"
    "request timeout\n"

let resp_503 =
  http_response ~status:"503 Service Unavailable" ~content_type:"text/plain"
    "too many connections\n"

let resp_431 =
  http_response ~status:"431 Request Header Fields Too Large"
    ~content_type:"text/plain" "header too large\n"

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let max_header_bytes = 8192

(* one select round; returns the surviving connections *)
let step listen_fd sources ~read_deadline_ns ~max_conns conns =
  let read_fds =
    listen_fd
    :: List.filter_map
         (fun c -> match c.state with Reading _ -> Some c.cfd | _ -> None)
         conns
  in
  let write_fds =
    List.filter_map
      (fun c -> match c.state with Writing _ -> Some c.cfd | _ -> None)
      conns
  in
  let readable, writable =
    match Unix.select read_fds write_fds [] 0.25 with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  let conns = ref conns in
  (* accept every pending client (the listen fd is non-blocking) *)
  if List.mem listen_fd readable then begin
    let rec drain () =
      match Unix.accept listen_fd with
      | client, _ ->
          Unix.set_nonblock client;
          let state =
            if List.length !conns >= max_conns then
              (* over the cap: answer immediately, never queue behind the
                 stalled connections that caused the overflow *)
              Writing { data = resp_503; off = 0 }
            else
              Reading
                {
                  buf = Buffer.create 256;
                  deadline = Clock.now_ns () + read_deadline_ns;
                }
          in
          conns := { cfd = client; state } :: !conns;
          drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
      | exception Unix.Unix_error _ -> ()
    in
    drain ()
  end;
  let now = Clock.now_ns () in
  let chunk = Bytes.create 4096 in
  let survivors =
    List.filter_map
      (fun c ->
        match c.state with
        | Reading r ->
            let dead =
              if List.mem c.cfd readable then begin
                match Unix.read c.cfd chunk 0 (Bytes.length chunk) with
                | 0 -> true (* peer closed before finishing its request *)
                | n ->
                    Buffer.add_subbytes r.buf chunk 0 n;
                    false
                | exception
                    Unix.Unix_error
                      ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                    false
                | exception Unix.Unix_error _ -> true
              end
              else false
            in
            if dead then begin
              close_quiet c.cfd;
              None
            end
            else begin
              let req = Buffer.contents r.buf in
              let complete =
                (* header terminator seen: the request is in *)
                let rec find i =
                  i + 3 < String.length req
                  && (String.sub req i 4 = "\r\n\r\n" || find (i + 1))
                in
                String.length req >= 4 && find 0
              in
              if complete then
                c.state <- Writing { data = response_for sources req; off = 0 }
              else if Buffer.length r.buf > max_header_bytes then
                c.state <- Writing { data = resp_431; off = 0 }
              else if now > r.deadline then
                (* slow-loris: trickling bytes does not buy more time *)
                c.state <- Writing { data = resp_408; off = 0 };
              Some c
            end
        | Writing w ->
            if List.mem c.cfd writable then begin
              let len = String.length w.data - w.off in
              match
                Unix.write_substring c.cfd w.data w.off len
              with
              | n ->
                  w.off <- w.off + n;
                  if w.off >= String.length w.data then begin
                    close_quiet c.cfd;
                    None
                  end
                  else Some c
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  Some c
              | exception Unix.Unix_error _ ->
                  close_quiet c.cfd;
                  None
            end
            else Some c)
      !conns
  in
  survivors

let serve fd stopping sources ~read_deadline_ns ~max_conns =
  let rec loop conns =
    if Atomic.get stopping then List.iter (fun c -> close_quiet c.cfd) conns
    else loop (step fd sources ~read_deadline_ns ~max_conns conns)
  in
  loop []

let start ?(host = "127.0.0.1") ?(read_deadline_ns = 5_000_000_000)
    ?(max_conns = 32) ~port ~sources () =
  let read_deadline_ns = max 1_000_000 read_deadline_ns in
  let max_conns = max 1 max_conns in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 16;
     Unix.set_nonblock fd
   with e ->
     close_quiet fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let stopping = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        serve fd stopping sources ~read_deadline_ns ~max_conns)
  in
  { fd; port; stopping; dom }

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* the loop notices the flag within one select timeout; shutting the
       listener down also pops a pending select immediately *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Domain.join t.dom;
    close_quiet t.fd
  end
