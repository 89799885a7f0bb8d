(** Shadow memory: per-address access history for dependence detection.

    For each address we keep the last write and, per static read pc, the
    latest read since that write. On a read we emit a RAW edge from the
    last write; on a write we emit a WAW edge from the last write and a
    WAR edge from each recorded read. Keeping only the {e latest} access
    per static pc is lossless for the profile, which records the
    {e minimum} [Tdep] per static edge.

    The implementation is allocation-free on the hot path: cells live in
    one flat int table, four words per address, indexed directly by
    address (the VM's address space is dense and bounded by live memory), per-pc read slots
    come from a reusable arena, and dependence edges are reported through
    an unboxed {!sink} callback instead of a materialized
    {!Dependence.t} record.

    Each access carries the enclosing construct instance as an
    {!Indexing.Node.t} handle, an int, and the tables keep it as one:
    the writer's in the fourth word of the address's cell, each
    reader's in its arena slot. Storing a handle is a plain int store,
    with no write barrier and nothing kept alive. Shadow memory never
    reads a node; it hands the recorded handle back as the edge's
    [head_node]. By then the pool may have recycled that node, which the
    consumer detects with {!Indexing.Node.covers} on [head_time] (the
    paper's window check, Table II line 7).

    {!clear_range} is the one way history is dropped, as when the VM
    releases a stack frame. Every cell at or above a high-water mark is
    clean, so a clear scrubs only the part of its range below the mark,
    and lowers the mark to the range's base when the range reaches it.
    A scrub is thus bounded by the frame the VM already zeroed when it
    pushed that frame, and a frame above the mark (an untraced one)
    costs nothing.

    Telemetry (cell-table growth, arena occupancy, scrubbed cells) is
    always on — each update is an int store on a pre-allocated {!Obs}
    instrument — and is published into an {!Obs.Registry.t} via
    {!register_obs}. *)

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
(** Drops history for exactly [base, base+size) — history above the
    range survives. Costs O(size) at most, and nothing for a range above
    every address touched since it was last cleared. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register this instance's telemetry under the ["shadow."] prefix.
    @raise Invalid_argument if the names are already taken. *)

val tracked_addresses : t -> int
(** Number of addresses currently carrying history (bounded-memory test).
    O(address space) — diagnostic, not for the hot path. *)

val events : t -> int
(** Total read/write events processed. *)

val deps_emitted : t -> int
