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
    are located either in a later instance ([CInstance]) or in a serial
    backbone segment ([CSegment m], the backbone between the end of
    instance [m-1] and the start of instance [m]; segment 0 precedes the
    first instance and segment [n] runs to program exit). Constraints of
    the same (head instance, location) are folded keeping the binding
    (maximum) value, so the graph stays small regardless of dynamic
    dependence counts; the constraints are in the order each (head
    instance, location) pair first occurred.

    Privatization (the manual WAR/WAW transform of §IV-B) is modelled by
    dropping WAR/WAW constraints on the privatized address ranges before
    folding; RAW constraints always remain.

    The collector builds each graph flat ({!Flat.t}): int arrays the
    scheduler walks directly. {!t} is a list view of the same graph, for
    callers that read or build graphs record by record. *)

type instance = { idx : int; start : int; stop : int }

type constraint_location =
  | CInstance of int  (** tail inside instance [j] *)
  | CSegment of int
      (** tail in backbone segment [m]: after instance [m-1] ends and
          before instance [m] starts *)

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

(** The flat layout of a graph.

    A {e location} is where a constraint's tail lies, numbered in the
    order a run passes through them: segment [m] is location [2m]
    ({!segment}), instance [m] is location [2m+1] ({!instance}). The
    constraint table holds one constraint per four ints (head instance,
    [head_off], [tail_off], kinds mask: bit 0 RAW, bit 1 WAR, bit 2 WAW),
    grouped by location in ascending location order. The group table
    holds one group per two ints (location, index of its first
    constraint); a group runs to the next group's first constraint, the
    last one to [n_constraints], and locations without constraints have
    no group. Only the first [n_instances], [n_constraints] and
    [n_groups] entries of the arrays are meaningful. *)
module Flat : sig
  type t = {
    total : int;  (** sequential duration (instructions) *)
    n_instances : int;
    starts : int array;  (** instance start times, in sequential order *)
    stops : int array;  (** instance stop times *)
    n_constraints : int;
    constraints : int array;  (** stride 4, grouped by location *)
    n_groups : int;
    groups : int array;  (** stride 2: location, first constraint *)
    dropped_privatized : int;
    cross_deps : int;
  }

  val segment : int -> int
  (** Location of backbone segment [m]: [2m]. *)

  val instance : int -> int
  (** Location of instance [m]: [2m+1]. *)
end

val view : Flat.t -> t
(** The list view: one {!instance} record per instance and the
    constraints as records, in the flat graph's order. *)

val flatten : t -> Flat.t
(** The flat layout of a list-view graph: constraints bucketed by
    location, in list order within each. A constraint whose location
    lies outside the graph ([CSegment m] with [m] outside [0, n],
    [CInstance j] with [j] outside [0, n)) is left out — no schedule
    reaches it. [view (flatten g) = g] for every graph {!collect}
    returns. *)

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
  ?engine:Vm.Machine.engine ->
  ?fuel:int ->
  ?trace_locals:bool ->
  Vm.Program.t ->
  site list ->
  f:(Flat.t -> 'a) ->
  'a list
(** One instrumented run serves every site: the VM, the index tree and
    shadow memory run once, and each dependence reaches a small tracker
    per site. Sites differ only in their instance tracking (the head pc,
    and whether a completed procedure instance is claimed where its
    return value is consumed) and in their address filters; a head pc may
    appear in several sites with different filters. A tracker folds into
    its flat constraint table as the run goes: tails arrive one location
    at a time, in location order, so only the open location's constraints
    can still be folded into. After the run each site's graph is handed
    to [f] in turn; the tracker keeps no reference to it, so only one
    graph need be alive at a time. Returns [f]'s results in site order;
    an empty site list runs nothing. Every site's graph equals what a run
    for that site alone produces, constraint order included.

    The run uses the register engine with the profiler's clock contract
    ({!Ir.Engine.clock}), so segments without a construct join point or
    a procedure site's return target never reach the trackers. [engine]
    exists as the test reference: {!Vm.Machine.Switch} delivers every
    instruction and yields the same graphs, field for field.
    @raise Invalid_argument if some [head_pc] heads no construct.
    @raise Vm.Machine.Trap as {!Vm.Machine.run}. *)

val collect :
  ?engine:Vm.Machine.engine ->
  ?fuel:int ->
  ?trace_locals:bool ->
  ?privatized:(int * int) list ->
  ?reductions:(int * int) list ->
  Vm.Program.t ->
  head_pc:int ->
  t
(** The one-site case of {!collect_many}, as a list view. *)
