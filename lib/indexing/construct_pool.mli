(** The construct pool of Table I: bounded storage for completed construct
    instances, with lazy retirement.

    Completed instances are appended at the tail; acquisition scans a few
    entries from the head (the oldest completions) for one that is safe to
    retire — an instance [c] may be reused once [now - c.texit >=
    c.texit - c.tenter], because any dependence whose head lies inside [c]
    would from then on have [Tdep > Tdur(c)] and so cannot change [c]'s
    profile (Theorem 1). If no head entry is retirable a fresh node is
    allocated, so the pool grows only as far as the paper's
    [O(M·N + L)] bound (within the scan-limit constant).

    The pool owns the {!Node.store} its nodes live in and hands out
    handles; completed instances wait in a ring buffer of handles, so
    acquiring and releasing allocate nothing on the OCaml heap. *)

type t

val create : ?scan_limit:int -> ?capacity:int -> unit -> t
(** [scan_limit] (default 8) bounds how many head entries are examined per
    acquisition. [capacity] (default 1M, matching the paper's pool size)
    is the number of nodes allocated before recycling starts; smaller
    capacities trade retention of large-[Tdep] edges for memory. *)

val nodes : t -> Node.store
(** The store every handle this pool returns lives in. *)

val acquire : t -> now:int -> Node.t
(** A node safe to (re)use at time [now]: either a retired pool entry or a
    fresh allocation. The returned node is not in the pool; its fields
    are the previous instance's until the caller stamps it
    ({!Node.start}). *)

val release : t -> Node.t -> unit
(** Appends a completed instance at the tail, keeping it addressable for
    as long as possible before reuse (lazy retirement). *)

val allocated : t -> int
(** Total nodes ever allocated (live + pooled) — the memory footprint. *)

val reused : t -> int
(** Number of acquisitions served by recycling. *)

val size : t -> int
(** Completed instances currently held. *)

val words : t -> int
(** Heap words the node store and the ring occupy ({!Node.words} plus
    the ring's length). *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register allocation/reuse counters and the per-acquire scan-length
    histogram under the ["pool."] prefix. *)
