(** Shadow memory: per-address access history for dependence detection.

    For each address we keep the last write and, per static read pc, the
    latest read since that write. On a read we emit a RAW edge from the
    last write; on a write we emit a WAW edge from the last write and a
    WAR edge from each recorded read. Keeping only the {e latest} access
    per static pc is lossless for the profile, which records the
    {e minimum} [Tdep] per static edge.

    The implementation is allocation-free on the hot path: cells live in
    flat struct-of-arrays tables indexed directly by address (the VM's
    address space is dense and bounded by live memory), per-pc read slots
    come from a reusable arena, and dependence edges are reported through
    an unboxed {!sink} callback instead of a materialized
    {!Dependence.t} record.

    {!clear_from} drops history for a released stack frame, relying on
    the VM's stack discipline (a released frame is always the top of the
    live address space, so invalidating everything at or above [base] is
    exact): it range-tags [base, ∞) in O(1) amortized by pushing a
    (base, seq) entry on a clear stack, and stale cells are lazily reset
    on their next touch. {!clear_range} honors an arbitrary [base, size)
    exactly: small ranges and interior ranges are scrubbed eagerly;
    ranges that reach the top of the touched address space delegate to
    the O(1) suffix tag.

    Telemetry (cell-table growth, arena occupancy, clear-stack depth,
    freshen/scrub counts) is always on — each update is an int store on a
    pre-allocated {!Obs} instrument — and is published into an
    {!Obs.Registry.t} via {!register_obs}. *)

type t

type sink =
  kind:Dependence.kind ->
  head_pc:int ->
  head_time:int ->
  head_node:Indexing.Node.t ->
  tail_pc:int ->
  tail_time:int ->
  tail_node:Indexing.Node.t ->
  addr:int ->
  unit
(** Unboxed dependence report: one edge, no allocation. *)

val create : ?sink:sink -> unit -> t
(** [sink] receives every dependence edge, unboxed; by default edges are
    dropped (only the counters see them). *)

val read :
  t -> addr:int -> pc:int -> time:int -> node:Indexing.Node.t -> unit

val write :
  t -> addr:int -> pc:int -> time:int -> node:Indexing.Node.t -> unit

val clear_range : t -> base:int -> size:int -> unit
(** Drops history for exactly [base, base+size) — history above the range
    survives. Costs O(size) unless the range reaches the top of the
    touched address space, in which case it is the O(1) {!clear_from}. *)

val clear_from : t -> base:int -> unit
(** Drops history for [base, ∞) in O(1) amortized (the lazy range-tag).
    This is the frame-release fast path: under the VM's stack discipline
    a released frame is the top of the live address space, so clearing
    everything at or above [base] is exact. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register this instance's telemetry under the ["shadow."] prefix.
    @raise Invalid_argument if the names are already taken. *)

val tracked_addresses : t -> int
(** Number of addresses currently carrying history (bounded-memory test).
    O(address space) — diagnostic, not for the hot path. *)

val events : t -> int
(** Total read/write events processed. *)

val deps_emitted : t -> int
