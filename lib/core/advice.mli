(** Transformation advice — the paper's "Usability" contribution.

    From a construct's profile, derive the §II guidance as concrete
    suggestions:
    - every RAW edge with [Tdep > Tdur] only needs a {e join} before its
      tail (the future has finished by then with high likelihood);
    - a violating RAW ([Tdep <= Tdur]) blocks asynchronous execution of
      the instances that exercise it — report it as a blocker with the
      variable involved;
    - violating WAR/WAW edges call for {e privatizing} the conflict
      variable in the construct (or hoisting a reset into the
      continuation, which is the paper's suggestion when the construct's
      own write is a reset). *)

type removable = {
  edge : Profile.edge_key;
  transform : Static.Legality.verdict;
      (** [Privatizable] or [Reduction], never [Serializing] *)
  var : string option;  (** the conflict variable, when nameable *)
}
(** One recorded edge a {e proven-legal} transform removes, and which
    transform ({!Static.Legality.classify}). *)

type suggestion =
  | Spawnable of {
      statically_proven : bool;
      static_min_distance : int option;
      removable : removable list;
      race_verdict : Static.Race.Status.t option;
    }
      (** no violating RAW: annotate as a future. [statically_proven]
          distinguishes constructs whose independence the static layer
          proves on {e all} inputs
          ({!Static.Depend.construct_proven_independent}) from those
          where the profiled execution is the only evidence.
          [static_min_distance] is the tightest proven minimum distance
          ({!Static.Depend.distance_bound}) over the construct's
          recorded edges: every
          recorded dependence is at least that many loop iterations
          apart on {e every} input, so the overlap window the dynamic
          [Tdep] suggests is also a static guarantee.
          [removable] lists the exact proven-legal transform per
          removable recorded edge — unlike the pattern-matched
          [Reduce]/[Privatize] suggestions, these carry a static proof.
          [race_verdict] is the static race detector's status for the
          construct ({!Static.Race.status}; [None] when no analysis is
          available). A [Racy] status demotes the construct verdict
          from [`Parallelizable] to [`Needs_transforms]: the detector
          holds a concrete interference witness the profiled input
          never exercised, so spawning as-is cannot be advised *)
  | Join_before of { line : int; var : string option }
      (** respect a long-distance RAW by claiming the future here *)
  | Blocking_raw of { head_line : int; tail_line : int; var : string option }
  | Reduce of { var : string; line : int }
      (** every violating RAW on [var] is a read-modify-write accumulation
          with an associative operator ([v op= e] at [line]): rewrite as
          per-thread partials merged at the join. A heuristic — the
          programmer must confirm the intermediate values are unused, as
          with all of the paper's suggested transforms. *)
  | Privatize of { var : string; kinds : Shadow.Dependence.kind list }
  | Hoist_reset of { var : string; line : int }
      (** the construct's only conflicting write to [var] is a
          constant-reset at [line]: move it into the continuation *)

type t = {
  cid : int;
  construct : string;
  verdict : [ `Parallelizable | `Needs_transforms | `Not_amenable ];
  suggestions : suggestion list;
}

val advise : ?dep:Static.Depend.t -> Profile.t -> cid:int -> t
(** [`Parallelizable]: no violating RAW and no violating WAR/WAW.
    [`Needs_transforms]: no violating RAW, but privatization/hoisting
    needed. [`Not_amenable]: violating RAW edges remain. [dep] shares a
    static analysis for the [Spawnable] proof bit (same recomputation
    policy as {!Ranking.rank} when omitted). *)

val privatization_list : t -> string list
(** The variables to privatize, ready for
    {!Parsim.Speedup.analyze}'s [~privatize]. *)

val reduction_list : t -> string list
(** The accumulators to rewrite as reductions (for [~reduce]). *)

val pp : Format.formatter -> t -> unit
val pp_suggestion : Format.formatter -> suggestion -> unit
