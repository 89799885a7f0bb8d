(** A persistent job scheduler over OCaml 5 domains.

    Where {!Parallel.map} is one-shot (spawn domains, deal one array,
    join), this is a service: a fixed pool of worker domains accepts
    jobs continuously through {!submit} — including while earlier jobs
    are still running — and hands each caller a {!promise} for its
    result. [alchemist serve] and [alchemist profile-all] are clients.

    One FIFO queue under one mutex: a worker that frees up takes the
    oldest queued job, so jobs are taken in submission order, and uneven
    job costs balance because no job waits behind a busy worker while
    another is idle. With one worker, jobs also complete in submission
    order.

    Telemetry ({!telemetry}) is one registry, updated under the
    scheduler's mutex, so a snapshot is exact at any moment:
    - [sched.submitted]: jobs accepted by {!submit};
    - [sched.jobs]: jobs a worker has taken to run, so
      [submitted - jobs] is the queue depth;
    - [sched.job_latency_ns]: a submit-to-completion histogram with one
      entry per completed job (successfully or not), so [jobs] minus its
      count is the number running; percentiles via
      {!Obs.dist_percentile_upper};
    - [sched.queue_depth]: jobs queued and not yet taken, with its
      high-water mark;
    - [sched.workers]: the pool size.

    After {!drain}, [jobs = submitted] and the histogram counts them
    all. *)

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
(** The scheduler metrics (see above). *)
