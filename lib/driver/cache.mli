(** Content-addressed profile cache: key = hash of everything that
    determines the canonical profile bytes, value = those bytes.

    The {!key} covers the program's code fingerprint, its input
    fingerprint ({!Alchemist.Profile_io.input_fingerprint}: the
    initialized global data), and the profile-determining options —
    fuel, [trace_locals], pool capacity and scan limit. Re-profiling a
    program family after an input change is automatically incremental:
    the new key misses,
    but the static facts (keyed by code fingerprint alone — see
    {!Alchemist.Profiler.prepare_facts}) are reused by the service.

    An in-memory LRU (entry-count bounded) optionally backed by an
    on-disk store ([dir], conventionally [_cache/]) holding one
    [<key>.prof] file per entry, written via rename so concurrent
    readers never see torn files. Memory misses fall through to disk
    and re-populate memory, but only with bytes the caller's [valid]
    accepts: a disk file is untrusted input. A validator cannot see an
    in-range edit that still parses (a changed count, say); that would
    need a checksum the store does not keep.

    Not thread-safe by design: the service confines the cache to its
    control thread (lookup before submitting a job, insert when
    harvesting its result); worker domains never touch it. *)

type t

val default_capacity : int
(** 256 entries. *)

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [dir], when given, enables the on-disk store (the directory is
    created if missing).
    @raise Invalid_argument if [capacity < 1]. *)

val key :
  code_fp:string ->
  input_fp:string ->
  ?fuel:int ->
  ?trace_locals:bool ->
  ?pool_capacity:int ->
  ?scan_limit:int ->
  unit ->
  string
(** The cache key for a run of the program with the given fingerprints
    under the given profile-determining options. Omitted options must
    stay omitted (not spelled as their defaults) for keys to agree —
    the service always passes them through verbatim from the request. *)

val find_located :
  t ->
  valid:(string -> bool) ->
  string ->
  (string * [ `Memory | `Disk ]) option
(** Cached profile bytes and where they were found: memory first, then
    disk (a [`Disk] hit has just re-populated memory). Bytes read from
    disk are returned only if [valid] accepts them; otherwise the
    lookup counts a disk reject and a miss, and the bytes stay out of
    memory. Counts a hit, disk hit, or miss. *)

val add : t -> string -> string -> unit
(** [add t key bytes] inserts and, when a [dir] was given, writes the
    file, replacing any file a lookup rejected. Inserting an existing
    key refreshes its recency; content addressing makes the bytes
    necessarily equal. *)

val length : t -> int
(** In-memory entry count. *)

val telemetry : t -> Obs.snapshot
(** [cache.hits], [cache.disk_hits], [cache.disk_rejects] (disk
    entries [valid] refused; each is also a miss), [cache.misses],
    [cache.insertions], [cache.evictions] counters and the
    [cache.entries] gauge. *)
