(** Multi-domain sharded profiling.

    Profiling runs are embarrassingly parallel: each run owns its VM,
    shadow memory, index tree and profile, and shares nothing mutable
    with its siblings. This module shards independent runs across OCaml 5
    [Domain]s and combines their results with {!Alchemist.Profile.merge}.

    Because [merge] is associative and commutative (see [profile.ml]) and
    {!Alchemist.Profile_io.write} is canonical, a sharded run serializes
    to byte-identical output regardless of job count or completion
    order — the property [test_parallel.ml] pins down. *)

val map : ?sched:Scheduler.t -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element, distributing work
    over a one-shot [jobs]-worker {!Scheduler} pool (a worker that frees
    up takes the next item, so uneven item costs balance). The first
    failure cancels the run: no worker starts a new item once any [f]
    has raised (items already in flight finish), and the first
    exception (in index order) is re-raised with its backtrace after
    the pool has shut down.
    [jobs <= 1] runs sequentially in the calling domain.
    [sched] lends an existing pool instead: [jobs] is then ignored, the
    pool is left running, and its telemetry accumulates the submitted
    items — how [profile-all] surfaces scheduler metrics. *)

val merge_profiles : Alchemist.Profile.t list -> Alchemist.Profile.t
(** Folds {!Alchemist.Profile.merge} over the list.
    @raise Invalid_argument on the empty list, or if the profiles belong
    to different programs. *)

val profile_programs :
  ?jobs:int ->
  ?fuel:int ->
  ?trace_locals:bool ->
  ?obs:Obs.Registry.t ->
  Vm.Program.t list ->
  Alchemist.Profile.t
(** Profiles each program on its own domain and merges the results into
    one profile. Intended for input families: the same source template
    compiled with different initialized global data yields identical code
    (hence mergeable profiles) exercising different paths — the paper's
    "completeness is a function of the test inputs" caveat, §IV.
    When [obs] is given, the driver records a ["driver.merge_wall"] timer
    around the merge fold and a ["driver.shards"] counter into it (shard
    telemetry itself stays per-run; see {!profile_registry}).
    Each shard runs {!Alchemist.Profiler.run} with its defaults. Ring
    telemetry counters ([ir.*]) are
    ordinary registry instruments, so shard snapshots merge with
    {!Obs.merge_all} like every other counter — merge order never
    changes a merged total (the qcheck merge laws in test_obs cover
    them).
    @raise Invalid_argument on the empty list or on programs with
    differing code. *)

val profile_registry :
  ?sched:Scheduler.t ->
  ?jobs:int ->
  ?fuel:int ->
  ?scale_of:(Workloads.Workload.t -> int) ->
  unit ->
  (Workloads.Workload.t * Alchemist.Profiler.result) list
(** Profiles every registry workload, one run per domain. Compilation is
    sequential (it is cheap and keeps compiler state off the worker
    domains); only the profiled execution is sharded. [scale_of] picks the
    input size per workload (default [default_scale]). Results are in
    registry order, independent of completion order.

    Each run's [result.obs] registry is private to its shard (created on
    the worker domain, so domains never contend on instruments) and
    carries a ["driver.shard_wall"] timer around the profiled execution
    in addition to the profiler's own metrics. *)
