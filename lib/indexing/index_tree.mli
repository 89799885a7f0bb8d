(** The execution index tree (paper §III-A, Table I).

    Maintains the indexing stack (IDS) whose state is the execution index
    of the current point, the clock (retired instruction count), and the
    construct pool. Nodes are int handles into the pool's flat
    {!Node.store}; the stack is an int array of handles. Completed
    subtrees stay addressable through the parent handles of
    still-referenced nodes until the pool recycles them; a handle to a
    recycled node fails the {!Node.covers} window check, as a pointer to
    a recycled node would. Apart from the amortized growth of the stack,
    the pool's ring and the store, a push, pop or [pop_through] allocates
    nothing on the OCaml heap and stores no pointer.

    The [on_pop] callback observes every completed instance (profile
    aggregation — Table I lines 18–22 — lives in the profiler, which also
    handles the recursion nesting counters of §III-B). *)

type t

val create :
  ?scan_limit:int ->
  ?pool_capacity:int ->
  ?on_push:(Node.store -> Node.t -> unit) ->
  ?on_pop:(Node.store -> Node.t -> unit) ->
  unit ->
  t
(** [on_push]/[on_pop] observe every instance start/completion (the
    profiler's recursion nesting counters and aggregation hang off these).
    Each receives the tree's node store with the handle, so it can read
    the node's fields without a reference to the tree. [on_pop] runs
    after [texit] is stamped and before the node returns to the pool. *)

val nodes : t -> Node.store
(** The store every handle of this tree lives in. *)

val now : t -> int
val tick : t -> unit
(** Advance the clock by one instruction. *)

val bulk_tick : t -> int -> unit
(** Advance the clock by [n] instructions at once — equivalent to [n]
    {!tick}s with no intervening observation. Rule (5) probes must still
    happen per pc; {!Rules.on_instr_range} only takes this path across
    pc ranges it has proven free of construct join points. *)

val set_now : t -> int -> unit
(** Jump the clock to an absolute instruction count. Only valid forward
    (time is monotone) and only between events: the register engine's
    event ring stamps each buffered event with the clock it was emitted
    under and restores it here before delivery, which is what lets the
    ring skip replaying instruction ranges that contain no construct
    join point. *)

val depth : t -> int
(** Current stack depth (number of active constructs, the paper's [L]). *)

val top : t -> Node.t option
(** The enclosing construct of the current execution point (tests and
    examples; hot paths use {!peek}). *)

val peek : t -> Node.t
(** Option-free {!top} for hot paths that already know the stack is
    non-empty (guard with {!depth}); avoids one minor-heap allocation per
    call, which matters at one call per instruction/memory event.
    @raise Invalid_argument on an empty stack. *)

val push : t -> label:int -> is_func:bool -> Node.t
(** Table I [IDS.push]: acquire a node, stamp [tenter = now], link to the
    current top as parent ({!Node.none} at the root), push. *)

val pop : t -> Node.t
(** Table I [IDS.pop]: stamp [texit = now], fire [on_pop], release to
    the pool. @raise Invalid_argument on an empty stack. *)

val pop_through : t -> label:int -> bool
(** Unwind for rule (4) in the presence of irregular control flow: if a
    node with [label] occurs on the stack {e above and including} the
    nearest enclosing function node, pop entries (normally, via {!pop})
    up to and including it and return [true]; otherwise pop nothing and
    return [false]. This closes break/continue-guard conditionals whose
    immediate post-dominator is the loop exit, keeping loop iterations
    siblings (see DESIGN.md, "Constructs and indexing"). *)

val index_of_top : t -> int list
(** The execution index of the current point: labels from the root down
    to the top (paper Fig. 4). *)

val pool_allocated : t -> int
val pool_reused : t -> int

val pool_words : t -> int
(** {!Construct_pool.words}: the node store's real footprint. *)

val register_obs : t -> Obs.Registry.t -> unit
(** Register the stack-depth gauge (["tree.depth"], whose high-water mark
    is the paper's [L]) and the construct pool's metrics
    ({!Construct_pool.register_obs}). *)

val stats : t -> string
