(** Nodes of the execution index tree: one dynamic construct instance
    each, stored as four words of a flat int {!store} and named by an
    int handle.

    A node holds its construct's label (the head pc) and function flag,
    its [tenter] and [texit] stamps, and its parent's handle. Nodes are
    recycled through the {!Construct_pool}, so a handle held by shadow
    memory or by a child's parent field may name a node that has since
    been reused. Staleness is detected by the paper's time-window check
    ([Tenter <= Th < Texit], Table II line 7), exactly as for a pointer:
    a recycled node's new [tenter] exceeds every timestamp recorded
    during its previous lifetime, because reuse requires
    [now - texit >= texit - tenter >= 0]. The store never frees a node,
    so a stale handle always names a valid node.

    Every accessor takes handles returned by {!alloc} on the same store.
    Accesses are bounds-checked, so a stray handle raises rather than
    reading outside the store. *)

type t = int
(** A handle: the node's index in its store. *)

val none : t
(** [-1]: no node (the root's parent). *)

type store
(** Nodes in chunks of {!chunk_nodes}, four words each:
    [label lsl 1 lor is_func], [tenter], [texit], [parent]. *)

val chunk_nodes : int
(** Nodes per chunk (2{^14}, 512 KB). The first chunk starts at 64 nodes
    and doubles up to this size, so a short run's store stays small;
    later chunks are added whole. A handle names the same node for the
    store's lifetime. *)

val store : unit -> store
(** An empty store; it allocates its first chunk on the first {!alloc}. *)

val alloc : store -> t
(** A fresh node with label [-1], no parent and zero stamps. *)

val words : store -> int
(** Heap words the store occupies (its chunks plus the chunk table,
    excluding block headers). *)

val label : store -> t -> int
(** Head pc of the static construct. *)

val is_func : store -> t -> bool
val tenter : store -> t -> int

val texit : store -> t -> int
(** 0 while the instance is active. *)

val parent : store -> t -> t
(** The enclosing instance when this one started, or {!none}. *)

val set_texit : store -> t -> int -> unit

val start :
  store -> t -> label:int -> is_func:bool -> tenter:int -> parent:t -> unit
(** Stamp a (re)acquired node for a new instance; [texit] is reset to 0
    (footnote 1 of the paper). *)

val duration : store -> t -> int
(** [texit - tenter] of a completed instance. *)

val covers : store -> t -> int -> bool
(** [covers s c th]: the Table II line-7 window check
    [tenter <= th < texit]; false for {!none}, for active nodes and for
    recycled ones. *)
