external now_ns : unit -> int = "qe_obs_monotonic_ns" [@@noalloc]

let pp_ns ppf ns =
  let f = float_of_int ns in
  if ns < 10_000 then Format.fprintf ppf "%d ns" ns
  else if ns < 10_000_000 then Format.fprintf ppf "%.1f us" (f /. 1e3)
  else if ns < 10_000_000_000 then Format.fprintf ppf "%.2f ms" (f /. 1e6)
  else Format.fprintf ppf "%.2f s" (f /. 1e9)
