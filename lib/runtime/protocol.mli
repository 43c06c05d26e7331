(** What an agent is: a sequential program over the script operations.

    An agent observes only: the degree of its node, the port symbols there
    (presented in an agent-specific arbitrary order — two agents at the
    same node need not see the same order, there being no global order on
    symbols), the port it entered through, and the whiteboard. It never
    sees node identities. *)

type observation = {
  degree : int;
  ports : Qe_color.Symbol.t list Lazy.t;
      (** port symbols at the node where the observation was taken, in
          this agent's own presentation order. Computed on first read:
          an observation whose ports are never forced never pays for
          them. The order is a pure function of the run's seed, the
          agent and the node, so forcing late (after the agent moved on)
          or twice gives the same list as forcing at once. *)
  entry : Qe_color.Symbol.t option;
      (** the label (at this node) of the port the agent just arrived
          through; [None] at the home-base before any move *)
  board : Sign.t list;  (** current whiteboard contents *)
}

type verdict =
  | Leader  (** elected *)
  | Defeated  (** accepts another agent as leader *)
  | Election_failed  (** the protocol determined the instance unsolvable *)
  | Aborted of string  (** protocol error — never expected *)

type ctx = {
  color : Qe_color.Color.t;  (** this agent's own color *)
  rank : int option;
      (** a comparable identity — [Some] only in the {e quantitative}
          world; qualitative protocols receive [None] and must not use it *)
}

type t = {
  name : string;
  quantitative : bool;
      (** whether the protocol needs comparable identities ([ctx.rank]) *)
  main : ctx -> verdict;
      (** the agent program; runs inside the engine and may use
          {!Script} operations *)
}

val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_string : verdict -> string
