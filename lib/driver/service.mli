(** The profile-registry service: request parsing, content-addressed
    caching and incremental re-profiling over the {!Scheduler} pool —
    the engine behind [alchemist serve].

    Single control thread (the caller) + worker domains: the control
    thread parses requests, consults the {!Cache}, memoizes static
    facts per code fingerprint ({!Alchemist.Profiler.prepare_facts} —
    reused when only a program's input data changes), and submits
    cache misses to the scheduler, whose workers take them in
    submission order. Replies come back in submission order regardless
    of completion order; harvesting a reply performs
    its cache insert and optional [save=] file write on the control
    thread, which is why the cache needs no locking.

    Request lines ({!feed}):
    {v
    <spec> [fuel=N] [trace_locals=B] [pool_capacity=N] [scan_limit=N]
           [save=PATH]
    v}
    with [<spec>] a [workload:NAME[:SCALE]] ([SCALE] a positive integer,
    parsed by {!Workloads.Registry.of_spec}) or a Mini-C file path and
    [B] one of [0/1/true/false]. Blank lines and [#] comments are
    skipped; the bare word [drain] is a control line returned to the
    caller. Malformed requests become in-order [error] replies, never
    exceptions. *)

type t

type outcome =
  | Hit  (** served from the in-memory cache *)
  | Disk_hit  (** served from the on-disk store *)
  | Computed  (** profiled by a worker domain *)

type reply = {
  seq : int;  (** 1-based submission number *)
  spec : string;
  result : (outcome * string * string, string) result;
      (** [Ok (outcome, cache key, canonical profile bytes)] or an
          error message (parse failure, unknown workload, runtime
          trap, or [PATH: reason] for a [save=] that could not be
          written — the profile is cached all the same) *)
  save : string option;  (** where the bytes were also written *)
}

val create : ?workers:int -> ?cache:Cache.t -> unit -> t
(** Spawns the scheduler pool. [cache] defaults to a fresh in-memory
    {!Cache.create}; pass one with a [dir] for the on-disk store, or
    share one cache across services (e.g. a cold/warm pair of runs)
    — the cache is only ever touched from the calling thread. *)

val submit :
  t ->
  ?fuel:int ->
  ?trace_locals:bool ->
  ?pool_capacity:int ->
  ?scan_limit:int ->
  ?save:string ->
  spec:string ->
  Vm.Program.t ->
  unit
(** Structured submission of an already-compiled program ([spec] is
    only a label for the reply). A miss runs
    {!Alchemist.Profiler.run} with these options and its defaults
    otherwise. A [Disk_hit] reply carries bytes that
    {!Alchemist.Profile_io.read} accepted against this program, with
    the static block present exactly when [trace_locals] is off, and
    that re-serialize to themselves; an entry failing that is
    recomputed and replaced ({!Cache.find_located}). *)

val feed : t -> string -> [ `Queued | `Drain | `Skip ]
(** Parses one request line (grammar above). [`Queued] covers both
    accepted requests and malformed ones (which queue an error
    reply). *)

val ready : t -> reply list
(** Harvests (without blocking) the longest completed prefix of
    submission order — used to stream leading results while later jobs
    run. *)

val drain : t -> reply list
(** Waits for every outstanding job and harvests all remaining
    replies, in submission order. *)

val shutdown : t -> unit
(** Shuts the scheduler pool down (queued jobs finish first). *)

val render_reply : reply -> string
(** The serve wire format:
    [ok <seq> <spec> key=<key> <hit|disk-hit|miss> bytes=<n> [saved=<path>]]
    or [error <seq> <spec>: <message>]. *)

val telemetry : t -> Obs.snapshot
(** Service counters ([service.requests], [service.errors],
    [service.facts_computed], [service.facts_reused]) merged with
    {!Scheduler.telemetry} and {!Cache.telemetry}. *)
