(** Flow-insensitive may-point-to analysis for the VM IR.

    The only pointers Mini-C produces are array references, created at
    [MakeRefGlobal]/[MakeRefLocal] sites and passed around via the
    operand stack and frame slots (array parameters). This analysis
    computes, for every memory-event pc (the four instructions that fire
    [on_read]/[on_write] hooks in the profiler's default mode:
    [LoadGlobal]/[StoreGlobal]/[LoadIndex]/[StoreIndex]), the set of
    {!region}s the access can touch.

    Structure: a per-function abstract interpretation of the operand
    stack (each slot holds a set of reference-creation sites, solved
    with {!Dataflow} to a fixpoint over the CFG), threaded through a
    whole-program fixpoint over a frame-slot table — [Call] binds
    argument values into callee parameter slots, [StoreLocal] records
    defensively stored references — until no slot or escape flag
    changes.

    Soundness escape hatches, all monotone:
    - a reference stored into memory ([StoreGlobal]/[StoreIndex]) sets a
      global escape flag, after which every memory load may produce an
      untracked reference ([top]);
    - a function observed to return a reference marks its call sites as
      producing [top];
    - any inconsistent stack shape (possible only for hand-crafted
      bytecode — the compiler keeps depths consistent at joins) degrades
      the whole analysis: every event pc is reported incomplete. *)

type region =
  | Global of { base : int; len : int }  (** absolute address interval *)
  | Frame of { fid : int; off : int; len : int }
      (** offset interval within {e some} activation frame of [fid] *)

type access = {
  pc : int;
  fid : int;  (** function whose code contains [pc] *)
  is_write : bool;
  regions : region list;
      (** regions the access may touch (each access touches exactly one
          cell of one of them); exhaustive iff [complete] *)
  complete : bool;
      (** [false] when the address can come from an untracked reference
          — treat the access as potentially touching anything *)
  own_frame_direct : bool;
      (** [complete], and every region is a [Frame] of this very
          function reached without parameter indirection — i.e. the
          address provably lies in the {e current} activation's frame
          (recursion included: a ref received as a parameter flips this
          off even when the region fids coincide) *)
}

type t = {
  prog : Vm.Program.t;
  accesses : access option array;
      (** indexed by pc; [Some] exactly at memory-event pcs the solver
          proved reachable within their function ([None] elsewhere —
          including event pcs in unreachable code, which can never
          execute); in degraded mode every event pc is [Some] with
          [complete = false] *)
  degraded : bool;
}

val analyze : Vm.Program.t -> t
val access : t -> int -> access option

val is_event_pc : Vm.Program.t -> int -> bool
(** Does the instruction at [pc] fire a memory hook in the profiler's
    default ([trace_locals = false]) mode? *)

val may_overlap : region -> region -> bool
(** Address intervals can intersect. Distinct-fid frame regions never
    overlap: live frames are disjoint by bump allocation, and dead
    frames are invalidated wholesale ([on_frame_release] →
    [clear_range]), so no cross-frame shadow state survives. *)

val regions_may_alias : access -> access -> bool
(** Both complete and region-disjoint → [false]; anything else → [true]. *)

val exact_global : access -> int option
(** [Some base] when the access provably touches exactly the one global
    cell [base] (a complete access whose only region is a length-1
    [Global]). *)

val same_single_array : access -> access -> bool
(** Both accesses are complete and target one and the same global array
    (each has a single [Global] region, with equal base and length). *)

val pp_region : Format.formatter -> region -> unit
val region_to_string : region -> string
