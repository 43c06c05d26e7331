(** A dependency-free HTTP scrape endpoint for live metrics.

    One [Domain] runs a non-blocking [select] event loop on a raw Unix
    TCP socket and answers two routes:
    - [GET /metrics] — the {!Metrics.merge} of every source snapshot,
      rendered by {!Openmetrics.render};
    - [GET /healthz] — ["ok"].

    Sources are thunks, polled per scrape: pass closures over whatever
    registries are live (a campaign's accumulating snapshot, the
    process-wide cache, pool and supervisor registries). A source that
    raises is skipped for that response.

    {b Hardening.} The loop multiplexes connections instead of serving
    one at a time, so a misbehaving client cannot park it:
    - a connection that has not delivered a full request header within
      [read_deadline_ns] (slow-loris) is answered [408] and closed;
    - at most [max_conns] connections are serviced at once — an accept
      beyond the cap is answered [503] immediately rather than queued
      behind the stalled ones;
    - request headers are capped at 8 KiB;
    - [EINTR] never kills the loop (accept, read, write and select all
      retry), and {!stop} shuts it down cleanly
      mid-connection.

    This is the exposition layer `qelect serve` mounts unchanged; today
    `qelect sweep|chaos --metrics-port P` mount it for the duration of
    a campaign. *)

type t

val start :
  ?host:string ->
  ?read_deadline_ns:int ->
  ?max_conns:int ->
  port:int ->
  sources:(unit -> Metrics.snapshot) list ->
  unit ->
  t
(** Bind [host] (default ["127.0.0.1"]) : [port] ([0] = kernel-assigned,
    read it back with {!port}) and start serving on a fresh domain.
    [read_deadline_ns] (default 5 s) bounds how long a connection may
    take to deliver its request; [max_conns] (default 32) bounds
    concurrently-serviced connections. Both are clamped to sane minima.
    @raise Unix.Unix_error if the bind or listen fails (port taken). *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val stop : t -> unit
(** Shut the listener down, close every in-flight connection and join
    the serving domain. Idempotent. *)
