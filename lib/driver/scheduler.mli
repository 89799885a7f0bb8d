(** A persistent work-stealing job scheduler over OCaml 5 domains.

    Where {!Parallel.map} is one-shot (spawn domains, deal one array,
    join), this is a service: a fixed pool of worker domains accepts
    jobs continuously through {!submit} — including while earlier jobs
    are still running — and hands each caller a {!promise} for its
    result. [alchemist serve] and the sharded drivers are clients.

    Topology: one global injector queue for submissions plus a deque
    per worker. A worker runs jobs LIFO off its own deque; when empty
    it steals the top {e half} of a sibling's deque, then falls back to
    grabbing up to half of the injector in one batch. Batched handoff
    fans a submission burst across the pool in O(log n) transfers, and
    stealing keeps uneven job costs balanced without a central cursor.

    Telemetry ({!telemetry}): per-worker [sched.jobs], [sched.steals],
    [sched.steal_batches], [sched.injected] counters and a
    [sched.job_latency_ns] submit-to-completion histogram (percentiles
    via {!Obs.dist_percentile_upper}), merged with the shared
    [sched.submitted] counter and [sched.queue_depth] /
    [sched.workers] gauges. Worker instruments live on their own
    domains, so snapshots are exact at quiescent points (after
    {!drain}) and approximate — never torn — mid-flight.

    What the counters count:
    - [sched.submitted]: jobs accepted by {!submit};
    - [sched.injected]: jobs taken out of the injector by a worker's
      batch grab. Every submission enters through the injector, so once
      drained, [injected = submitted];
    - [sched.jobs]: jobs executed; once drained, [jobs = submitted];
    - [sched.steals]: job {e movements} between worker deques. A grabbed
      batch is parked in the grabbing worker's deque and siblings steal
      from there, so one job can be counted by [injected] and then once
      per steal that moves it: [steals] is a migration signal, not a
      per-job origin, and [injected + steals] may exceed [jobs];
    - [sched.steal_batches]: successful steal attempts, each moving at
      least one job, so [steals >= steal_batches]. *)

type t

type 'a promise
(** The eventual result of a submitted job. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1. *)

val create : ?workers:int -> unit -> t
(** Spawns the worker domains (default {!default_workers}), idle until
    jobs arrive. *)

val workers : t -> int

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueues a job; returns immediately. Jobs may be submitted from any
    domain, at any time before {!shutdown}, including while the pool is
    busy. An exception raised by the job is captured (with its
    backtrace) and re-raised by {!await}.
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a promise -> 'a
(** Blocks until the job completes; re-raises its exception with the
    original backtrace if it failed. *)

val await_result : 'a promise -> ('a, exn * Printexc.raw_backtrace) result
(** Like {!await} but never raises for a failed job. *)

val poll : 'a promise -> bool
(** [true] once the job has completed (successfully or not) — a
    non-blocking check, used by [serve] to stream leading results while
    later jobs are still running. *)

val drain : t -> unit
(** Blocks until every job submitted so far has completed. The pool
    stays alive; more jobs may be submitted afterwards. *)

val shutdown : t -> unit
(** Stops accepting jobs, lets already-queued jobs finish, and joins
    the worker domains. Idempotent. *)

val telemetry : t -> Obs.snapshot
(** Merged scheduler metrics (see above). Take it at a quiescent point
    (typically right after {!drain}) for exact counts. *)
