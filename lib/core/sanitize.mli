(** Dynamic-profile sanitizer: cross-check a profile against the static
    dependence analysis.

    The profiler is a complex dynamic system (shadow memory, index tree,
    attribution walk, two engines, sharded merges, a file format); a bug
    that invents, drops or misattributes edges is otherwise invisible —
    the output is just numbers. The static layer gives an independent
    oracle to check against: a dynamic edge the analysis proves
    impossible, an own-frame edge attributed outside its activation, or
    a stored verdict that no longer matches the analysis each indicate a
    profiler (or file) bug, never a property of the program under test.

    [alchemist check] runs this over every registry workload in CI. *)

(** What kind of discrepancy an issue reports — the unit of the
    [check --json] violation counts. *)
type category =
  | Impossible_edge  (** recorded edge classified [Must_independent] *)
  | Distance_violation
      (** observed [min_tdep] below a proven (or stored) static distance
          bound *)
  | Frame_misattribution  (** own-frame edge attributed outside its activation *)
  | Verdict_mismatch  (** stored verdict coverage or agreement failure *)
  | Distbound_mismatch
      (** stored distance-bound coverage or agreement failure *)
  | Legality_mismatch
      (** stored legality-verdict coverage or agreement failure *)
  | Legality_violation
      (** a stored [Privatizable] verdict refuted by the observed edge
          pattern (a read-before-write iteration) *)
  | Race_mismatch
      (** stored race-status coverage or agreement failure — notably a
          [racy] construct rewritten [race-free], which would license
          parsim to drop its ordering edges *)

val category_to_string : category -> string
(** Kebab-case tag, e.g. ["impossible-edge"] — the [check --json] keys. *)

val all_categories : category list
(** Every category, in declaration order (for exhaustive JSON counts). *)

type issue = {
  cid : int;  (** construct the offending edge is recorded under; [-1]
                  for issues about the stored verdict list itself *)
  key : Profile.edge_key;
  category : category;
  reason : string;
}

val check : dep:Static.Depend.t -> Profile.t -> issue list
(** All discrepancies, deterministically ordered (by cid, then packed
    key, then category). Empty = the profile is consistent with the
    static analysis [dep] of the profile's program (the caller's, e.g.
    {!Profiler.facts_dep}; the sanitizer never analyses on its own).
    Checks:

    - no recorded edge is classified {!Static.Depend.Must_independent};
    - an edge whose endpoints both provably address the current
      activation frame of a function [f] is only attributed to loop or
      conditional constructs of [f] itself (never to [f]'s procedure
      construct or anything outside the activation);
    - when the profile carries stored verdicts, they cover exactly the
      recorded edges and agree with the recomputed classification;
    - no recorded edge's observed [min_tdep] falls below a proven static
      minimum dependence distance ({!Static.Depend.distance_bound}) —
      [d] loop iterations apart implies at least [d] retired
      instructions apart;
    - when the profile carries stored distance bounds, they cover
      exactly the edges the analysis can bound, agree with the
      recomputed bound, and none contradicts its edge's observed
      [min_tdep];
    - when the profile carries stored legality verdicts, they cover
      exactly the edges the analysis classifies and agree with the
      recomputed verdicts ({!Static.Legality.classify});
    - a stored [Privatizable] verdict is cross-checked against the
      {e dynamic} record: a recorded RAW edge on the proof's cell whose
      tail lies inside the proof's loop span while its head lies outside
      is an observed read-before-write iteration — a hard failure
      independent of what the analysis recomputes;
    - when the profile carries stored race statuses, they cover exactly
      the recorded constructs the detector classifies and agree with the
      recomputed statuses ({!Static.Race.status}). Race issues carry a
      synthetic self-edge at the construct's head pc in [key]. *)

val pp_issue : Format.formatter -> issue -> unit
