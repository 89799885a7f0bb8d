(** Task extraction for the parallel-execution simulator.

    Given a construct chosen for parallelization (by head pc), an
    instrumented sequential run yields:
    - the intervals of the construct's (outermost) dynamic instances —
      the tasks a future-based transformation would spawn;
    - every dependence whose head lies inside an instance and whose tail
      executes later, folded into scheduling constraints.

    A constraint says: the parallel-run point corresponding to a tail
    cannot execute before [start_par(head_instance) + head_offset] (the
    head executes that many instructions after its task starts). Tails
    are located either in a later instance ([CInstance]) or in the serial
    backbone segment following instance [m] ([CSegment], where segment 0
    precedes the first instance). Constraints of the same (head instance,
    location) are folded keeping the binding (maximum) value, so the
    graph stays small regardless of dynamic dependence counts; the
    constraint list is in the order each (head instance, location) pair
    first occurred.

    Privatization (the manual WAR/WAW transform of §IV-B) is modelled by
    dropping WAR/WAW constraints on the privatized address ranges before
    folding; RAW constraints always remain. *)

type instance = { idx : int; start : int; stop : int }

type constraint_location =
  | CInstance of int  (** tail inside instance [j] *)
  | CSegment of int  (** tail in the backbone after instance [m] *)

type folded_constraint = {
  head_instance : int;
  location : constraint_location;
  head_off : int;  (** head position relative to its instance start *)
  tail_off : int;
      (** tail position: relative to the tail instance's start for
          [CInstance], absolute sequential time for [CSegment] *)
  kinds : Shadow.Dependence.kind list;
      (** kinds folded into this entry, in RAW, WAR, WAW order *)
}
(** Constraints with the same (head instance, location) are folded keeping
    the one with maximum [head_off - tail_off] — the binding stall. *)

type t = {
  total : int;  (** sequential duration (instructions) *)
  instances : instance array;  (** in sequential order *)
  constraints : folded_constraint list;
  dropped_privatized : int;  (** WAR/WAW constraints removed by transforms *)
  cross_deps : int;  (** dynamic dependences that generated constraints *)
}

type site = {
  head_pc : int;  (** the construct to parallelize *)
  privatized : (int * int) list;
      (** address ranges whose WAR/WAW dependences are dropped
          (thread-local copies) *)
  reductions : (int * int) list;
      (** address ranges whose dependences of {e every} kind are dropped
          (associative accumulators rewritten as per-thread partials
          merged at the join) *)
}
(** One candidate construct with its transform filters; both lists come
    from {!Transform}. *)

val collect_many :
  ?fuel:int ->
  ?trace_locals:bool ->
  Vm.Program.t ->
  site list ->
  f:(t -> 'a) ->
  'a list
(** One instrumented run serves every site: the VM, the index tree and
    shadow memory run once, and each dependence reaches a small tracker
    per site. Sites differ only in their instance tracking (the head pc,
    and whether a completed procedure instance is claimed where its
    return value is consumed) and in their address filters; a head pc may
    appear in several sites with different filters. After the run, each
    site's graph is built in turn — its fold table released as it is
    converted — and handed to [f], so only one graph need be alive at a
    time. Returns [f]'s results in site order; an empty site list runs
    nothing. Every site's graph equals what a run for that site alone
    produces, constraint order included.
    @raise Invalid_argument if some [head_pc] heads no construct.
    @raise Vm.Machine.Trap as {!Vm.Machine.run}. *)

val collect :
  ?fuel:int ->
  ?trace_locals:bool ->
  ?privatized:(int * int) list ->
  ?reductions:(int * int) list ->
  Vm.Program.t ->
  head_pc:int ->
  t
(** The one-site case of {!collect_many}. *)
