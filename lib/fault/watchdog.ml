type t = {
  wall_ns : int option;
  turn_budget : int option;
  livelock_window : int option;
}

let make ?wall_ns ?turn_budget ?livelock_window () =
  let check what = function
    | Some v when v < 0 -> invalid_arg ("Watchdog.make: negative " ^ what)
    | _ -> ()
  in
  check "wall_ns" wall_ns;
  check "turn_budget" turn_budget;
  check "livelock_window" livelock_window;
  { wall_ns; turn_budget; livelock_window }

type reason = Wall_clock | Turn_budget | Livelock

let reason_name = function
  | Wall_clock -> "wall-clock"
  | Turn_budget -> "turn-budget"
  | Livelock -> "livelock"
