(** Protocol ELECT (Section 3 of the paper).

    Phases:
    - MAP-DRAWING ({!Mapping.explore}): every agent draws the same map.
    - COMPUTE & ORDER: equivalence classes of the bicolored map, ordered by
      an isomorphism-invariant total order [≺] as Lemma 3.1 requires (each
      class's least position in one canonical labeling, {!Qe_symmetry.Classes}),
      black classes [C_1 ≺ ... ≺ C_ℓ] first.
    - Stage agent-agent: AGENT-REDUCE merges [C_2, ..., C_ℓ] into the
      active set, shrinking it to [gcd] by Euclid-style matching rounds
      (searchers race to post match signs on waiters' home whiteboards;
      mutual exclusion arbitrates).
    - Stage agent-node: NODE-REDUCE plays active agents against the white
      classes, acquiring nodes under per-node quotas.
    - If one agent remains it announces itself everywhere and wins;
      otherwise the survivors announce failure — by Theorem 3.1 the
      protocol elects iff [gcd(|C_1|, ..., |C_k|) = 1].

    The protocol is {e generic}: nothing here depends on the network, the
    number of agents, or their placement, and colors are used only through
    equality. *)

val protocol : Qe_runtime.Protocol.t
(** The qualitative-world ELECT. *)

(** {1 Pieces exposed for the Cayley variant and for tests} *)

type plan = {
  classes : int list list;  (** ordered [C_1 .. C_k] in map numbering *)
  num_black : int;  (** [ℓ] *)
  node_class : int array;
      (** node -> index into [classes]: O(1) class lookup during the
          run, precomputed when the plan is built *)
}

val make_plan : Qe_graph.Bicolored.t -> plan
(** COMPUTE & ORDER for a bicolored map, memoized in
    {!Qe_symmetry.Artifact_cache} (kind ["elect.plan"], exact-key): all
    agents of all runs on the same drawn map share one computation. *)

val generic_plan : Mapping.t -> plan
(** {!make_plan} on the map's bicolored graph — the Definition 2.1
    classes. *)

val run_with_plan : (Mapping.t -> plan) -> Qe_runtime.Protocol.ctx ->
  Qe_runtime.Protocol.verdict
(** The whole of ELECT parameterised by the class computation — the Cayley
    variant swaps in translation classes (Section 4). *)

val run_on_map : (Mapping.t -> plan) -> Qe_runtime.Protocol.ctx ->
  Mapping.t -> Qe_runtime.Protocol.verdict
(** Same, entering after MAP-DRAWING with an already-drawn map.

    Post-condition: when it returns, the agent stands at its own home-base
    (leaders end their announcement tour there; everyone else waits there)
    — protocols layered on top of ELECT, like {!Gathering}, rely on it. *)
