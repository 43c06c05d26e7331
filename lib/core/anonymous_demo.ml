module Protocol = Qe_runtime.Protocol
module Script = Qe_runtime.Script
module Sign = Qe_runtime.Sign

let claim_tag = "anon-claim"

let main (_ctx : Protocol.ctx) =
  (* No use of colors anywhere: the agent treats all signs alike. *)
  Script.post ~tag:claim_tag ();
  let obs = Script.observe () in
  match Lazy.force obs.Protocol.ports with
  | p :: _ ->
      let there = Script.move p in
      if List.exists (Sign.has_tag claim_tag) there.Protocol.board then
        Protocol.Defeated
      else Protocol.Leader
  | [] -> Protocol.Leader

let protocol = { Protocol.name = "anonymous-claim"; quantitative = false; main }
