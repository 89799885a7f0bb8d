(** The Alchemist profiler: one instrumented execution produces the
    dependence-distance profile of {e every} construct (the paper's
    "transparency" property — no construct pre-selection).

    Wiring per event:
    - [on_instr] drives the clock and rule (5) pops;
    - [on_branch]/[on_call]/[on_ret] drive rules (1)–(4) on the index tree;
    - [on_read]/[on_write] feed shadow memory, whose dependence edges are
      attributed bottom-up along the index tree (Table II): starting from
      the head's enclosing construct instance, every {e completed}
      ancestor instance whose lifetime covers the head's timestamp
      receives the edge; the walk stops at the first active ancestor
      (for which the dependence is internal) or at a recycled node
      (detected by the time-window check). *)

type stats = {
  instructions : int;
  static_constructs : int;
  dynamic_constructs : int;  (** completed construct instances *)
  deps_detected : int;  (** dynamic dependence events *)
  shadow_events : int;  (** memory accesses tracked *)
  pool_allocated : int;  (** index-tree nodes ever allocated *)
  pool_reused : int;
  pool_words : int;
      (** heap words of the node store and the pool's ring
          ({!Indexing.Index_tree.pool_words}) *)
  forced_pops : int;  (** should be 0; see {!Indexing.Rules.forced_pops} *)
  pruned_pcs : int;
      (** memory-event pcs the static oracle proved hook-free (0 when the
          static layer did not run, i.e. under [trace_locals]) *)
  event_pcs : int;  (** memory-event pcs in live code (pruning denominator) *)
}

type result = {
  profile : Profile.t;
  stats : stats;
  run : Vm.Machine.result;  (** the program's ordinary execution result *)
  obs : Obs.Registry.t;
      (** live telemetry covering every layer: [vm.*] instruction and
          memory-event counters, [shadow.*] cell/arena/scrub
          metrics, [pool.*]/[tree.*] indexing metrics, and
          [profiler.walk_depth]/[profiler.wall] — snapshot with
          {!telemetry} or {!Obs.Registry.snapshot} *)
}

val telemetry : result -> Obs.snapshot
(** [Obs.Registry.snapshot r.obs]. *)

type facts
(** Precomputed static facts (CFA + dependence analysis + IR-widened
    prune mask), immutable and shareable across runs and domains. The
    facts of a program depend only on its code, never on its
    initialized global data, so one [facts] value serves every input of
    a program family — the registry service's incremental re-profiling
    reuses it when only the input changed. *)

val prepare_facts : Vm.Program.t -> facts
(** Runs the whole static pipeline once, up front. *)

val facts_fingerprint : facts -> string
(** The {!Profile_io.fingerprint} of the program the facts were prepared
    for — the content-address the service's fact cache is keyed by. *)

val facts_analysis : facts -> Cfa.Analysis.t
(** The control-flow analysis inside the facts. *)

val facts_dep : facts -> Static.Depend.t
(** The dependence analysis inside the facts, for sharing with
    {!Ranking.rank} and {!Advice.advise} ([~dep]) so a workflow that
    profiles, ranks and advises analyses the program once. *)

val run :
  ?engine:Vm.Machine.engine ->
  ?fuel:int ->
  ?scan_limit:int ->
  ?pool_capacity:int ->
  ?obs:Obs.Registry.t ->
  ?facts:facts ->
  ?trace_locals:bool ->
  ?static_prune:bool ->
  Vm.Program.t ->
  result
(** Profiles one execution.

    The run executes on the register engine: hook events are appended
    to a flat event ring drained in bulk ({!Ir.Ring}), segment clock
    advances are batched through {!Indexing.Rules.on_instr_range}, and
    segments with no construct join point are elided from the ring (the
    {!Ir.Engine.clock} contract). [engine] exists as the test reference:
    {!Vm.Machine.Switch} runs the reference interpreter with
    per-instruction delivery, and the profile and all non-[ir.*]
    telemetry are byte-identical to the default's (differentially
    tested). The engine used is recorded in telemetry as the
    [vm.engine] gauge (0 = switch, 2 = register).
    [facts] supplies precomputed static facts ({!prepare_facts}) so the
    run skips the CFA and dependence analyses — the profile is
    byte-identical with or without it; passing facts prepared for a
    program with different code raises [Invalid_argument].
    [pool_capacity] (default 1M, the paper's setting) controls index-node
    retention; [trace_locals] (default [false]) additionally tracks scalar
    frame slots as memory — see {!Vm.Machine.run_hooked}; such runs
    execute on the switch interpreter, since the register IR does not
    model local events ({!Ir.Engine}). [obs] supplies
    the registry telemetry is registered into (so a caller can add its own
    metrics, e.g. the sharded driver's per-shard timers); by default each
    run gets a private registry — runs never share instruments, which is
    what keeps sharded domains contention-free.

    Unless [trace_locals] is set, every run additionally computes the
    static dependence analysis ({!Static.Depend}) and stores the whole
    static block in [profile.static]: a verdict per recorded edge, the
    proven distance bounds, the transform-legality verdicts
    ({!Static.Legality}) and the race detector's statuses
    ({!Static.Race}), serialized as a version-5 profile file. Under
    [trace_locals] [profile.static] is [None] and the file is version 1.
    [static_prune] (default [true]) additionally applies the analysis'
    prune mask, skipping the shadow hooks of event pcs proven unable to
    affect the profile — the resulting profile is byte-identical either
    way (enforced by [alchemist check] and test_static); only the
    hook-call cost and the [shadow.*] telemetry volume change.
    @raise Vm.Machine.Trap as {!Vm.Machine.run}. *)

val run_trace :
  ?scan_limit:int ->
  ?pool_capacity:int ->
  ?obs:Obs.Registry.t ->
  Vm.Trace.t ->
  Vm.Program.t ->
  result
(** Profile offline from a recorded trace (see {!Vm.Trace}); produces a
    result identical to the online {!run} of the same execution
    (differentially tested). *)

val run_source :
  ?engine:Vm.Machine.engine ->
  ?fuel:int ->
  ?scan_limit:int ->
  ?pool_capacity:int ->
  ?obs:Obs.Registry.t ->
  ?trace_locals:bool ->
  ?static_prune:bool ->
  string ->
  result
(** Convenience: compile a Mini-C source and profile it. *)
