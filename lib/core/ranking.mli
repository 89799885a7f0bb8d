(** Ranked parallelization candidates (the paper's "Usability" output).

    Constructs are ordered by total executed instructions — "a construct
    is a good candidate if it has many instructions and few violating
    dependences" (§IV-B) — with each entry carrying its violation summary
    so callers can filter. *)

type entry = {
  cid : int;
  name : string;  (** e.g. ["Method flush_block"], ["Loop (zip,17)"] *)
  kind : Vm.Program.construct_kind;
  line : int;  (** source line of the construct head *)
  ttotal : int;
  instances : int;
  violations : Violation.summary;
  static_indep : bool;
      (** the static analysis proves every memory event in the
          construct's body (and everything it calls) unable to produce a
          loop-carried dependence — independence holds on {e all} inputs,
          not just the profiled one ({!Static.Depend.construct_proven_independent}) *)
  dist_bounded : bool;
      (** at least one recorded edge of the construct carries a proven
          minimum iteration distance ({!Static.Depend.distance_bound}) —
          the dependence is real but provably far apart, the paper's
          "distance at least [d]" evidence for pipelined or strip-mined
          parallelism *)
  legality_known : bool;
      (** the edge partition below is meaningful: an analysis was
          available (otherwise all three counts are 0) *)
  priv_edges : int;
      (** recorded edges proven removable by privatizing their cell
          ({!Static.Legality.Privatizable}) *)
  red_edges : int;
      (** recorded edges proven removable by a reduction rewrite
          ({!Static.Legality.Reduction}) *)
  blocking_edges : int;
      (** recorded edges no proven transform removes: serializing
          verdicts plus unclassified RAW dataflow — what actually
          stands between this construct and a parallel schedule *)
  race_status : Static.Race.Status.t option;
      (** the static race detector's status for the construct
          ({!Static.Race.status}; [None] for conditionals or when no
          static facts are available). Rendered as the [\[race-free\]] /
          [\[racy\]] tag by {!pp_entry}. *)
}

val rank : ?dep:Static.Depend.t -> ?min_instructions:int -> Profile.t -> entry list
(** All executed constructs, descending by [ttotal].
    [min_instructions] (default 1) drops never-executed or trivial
    constructs. [dep] shares an existing analysis for the static
    columns; omitted, it is recomputed when the profile carries a static
    block, and the columns stay empty when it does not (the run never
    established any static facts). *)

val remove_with_singletons : Profile.t -> entry list -> cid:int -> entry list
(** Fig. 6(b)'s operation: once construct [C] is chosen for
    parallelization, remove [C] and (transitively) every construct that
    only ever runs nested in removed constructs with at most one instance
    per instance of its parent — those are parallelized "for free" and
    must not be recommended again. *)

val pp_entry : Format.formatter -> entry -> unit
