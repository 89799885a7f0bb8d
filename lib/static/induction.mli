(** Induction variables, constant trip counts, and affine subscript facts
    over the VM IR — the ground truth {!Distance} runs its dependence
    tests on.

    All facts are conservative: a missing fact ([Top] / [None]) never
    lies, and every positive fact holds on {e every} execution of the
    program. Three layers:

    - {b write-once constant globals} — one [Const k; StoreGlobal] site
      whole-program, no [MakeRefGlobal] coverage; the value is visible
      to loads the store dominates within the same function;
    - {b induction variables} — per natural loop, local slots updated
      [s := s ± c] exactly once per iteration, with constant init /
      trip / value-range when the loop bound is visible;
    - {b affine subscripts} — a per-function abstract interpretation of
      the operand stack recording [mul*slot + add] (or a constant) for
      the index operand of each [LoadIndex]/[StoreIndex].

    Array-reference coverage (a [MakeRefGlobal] range for the constant
    globals, a [MakeRefLocal] range for induction candidates) is tested
    against the ranges themselves ({!Vm.Ranges}), so the analysis costs
    what the code does, whatever the arrays span. *)

type av = Top | Cst of int | Aff of { slot : int; mul : int; add : int }

val av_to_string : av -> string

type iv = {
  slot : int;
  step : int;  (** value change per iteration; never 0 *)
  update_pc : int;  (** pc of the [StoreLocal] update *)
  init : int option;  (** constant value on loop entry *)
  trip : int option;  (** body executions per loop entry *)
  range : (int * int) option;
      (** inclusive bounds of the slot's value at any pc of the loop
          body, post-update slack included *)
}

type loop_facts = {
  fid : int;
  header_bid : int;
  header_pc : int;  (** pc of the loop's [BrLoop] predicate *)
  depth : int;  (** nesting depth of the header block *)
  member : bool array;  (** by bid *)
  ivs : iv list;
}

type func_facts = {
  cfg : Cfa.Cfg.t;
  dom : Cfa.Dominance.t;
  loops : loop_facts array;
  index_av : av array;  (** by [pc - entry]; [Top] when unknown *)
}

type t

val analyze : Vm.Program.t -> t
(** Per-function analysis; a function whose operand-stack shapes defeat
    the interpretation degrades to no-facts rather than failing. *)

val func_facts : t -> int -> func_facts option
(** Facts for the function containing a pc; [None] when out of range or
    degraded. *)

val const_at : t -> load_pc:int -> int -> int option
(** [const_at t ~load_pc addr] is the value a [LoadGlobal addr] at
    [load_pc] always observes, when the cell is a write-once constant
    whose store dominates the load. *)

val index_fact : t -> int -> av
(** Affine form of the subscript at a [LoadIndex]/[StoreIndex] pc. *)

val index_range : t -> int -> (int * int) option
(** Inclusive value range of the subscript at an event pc when every
    component is pinned by constants. Execution-invariant: valid across
    all runs and all entries of the enclosing loops. *)

(** Position of an access relative to the IV update within one
    iteration: [Before]/[After] are definite (hold on every
    intra-iteration path), [Ambiguous] means paths disagree. *)
type phase = Before | After | Ambiguous

type siv = {
  iv : iv;
  loop : loop_facts;
  head_phase : phase;
  tail_phase : phase;
}

val common_siv : t -> head_pc:int -> tail_pc:int -> slot:int -> siv option
(** The innermost loop containing both pcs that binds [slot] as an
    induction variable, with each access's per-iteration phase. *)

val loop_entered_once : loop_facts -> called_once:(int -> bool) -> bool
(** Is the loop's body executed at most once per program run (enclosing
    function called at most once, loop not nested)? Licenses
    iteration-distance claims about every dynamic instance of a pair:
    cross-entry dependence instances are impossible. *)
