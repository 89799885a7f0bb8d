(** The VM runtime core shared by both execution engines: mutable machine
    state, the unboxed value representation (int payload + one-byte tag),
    operand-stack and memory primitives, and the operator evaluators.

    {!Machine} (the reference switch interpreter) and the register-IR
    engine in [Ir.Exec] both execute on this state with these
    primitives, which is what makes them differentially testable down to
    the individual metric counter. User code should go through
    {!Machine.run} / {!Machine.run_hooked}; this interface exists for the
    engines and for white-box tests. *)

exception Trap of string * int
(** Runtime error (division by zero, out-of-bounds index, stack overflow,
    fuel exhausted) with the offending pc. Re-exported as
    {!Machine.Trap}. *)

exception Halted of int
(** Internal: raised by [Halt] to unwind the engine loop. *)

type metrics = {
  reads : int;
  writes : int;
  calls : int;
  branches : int;
  frames_released : int;
  max_call_depth : int;
  mem_high_water : int;
}

type result = {
  exit_value : int;
  instructions : int;
  output : int list;
  metrics : metrics;
}

(** {2 Value representation} *)

val tag_int : char
val tag_ref : char

val pack_ref : int -> int -> int
(** [pack_ref base len] — an array reference as a single int. *)

val ref_base : int -> int
val ref_len : int -> int

(** {2 Machine state} *)

type state = {
  prog : Program.t;
  mutable mem : int array;
  mutable mem_tag : Bytes.t;
  mutable stack : int array;
  mutable stack_tag : Bytes.t;
  mutable sp : int;
  mutable frame_base : int;
  mutable stack_top : int;
  mutable call_ret : int array;
  mutable call_base : int array;
  mutable call_fid : int array;
  mutable depth : int;
  max_depth : int;
  mutable out : int list;
  mutable instructions : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_calls : int;
  mutable n_branches : int;
  mutable n_frames_released : int;
  mutable depth_hwm : int;
  mutable mem_hwm : int;
}

val create : ?max_depth:int -> Program.t -> state
(** Fresh state with globals laid out and initialized ([max_depth]
    defaults to 10_000). *)

val finish : state -> int -> result
(** Assemble the public result from the final state and exit value. *)

(** {2 Primitives (identical across engines)} *)

val trap : state -> int -> ('a, unit, string, 'b) format4 -> 'a
val ensure_mem : state -> int -> unit
val push : state -> int -> char -> unit

val pop_slot : state -> int -> int
(** Pops a slot and returns its index; the caller reads value and tag
    from the (still valid) popped position. *)

val pop_int : state -> int -> int
val pop_ref : state -> int -> int
val eval_binop : state -> int -> Minic.Ast.binop -> int -> int -> int
val eval_unop : Minic.Ast.unop -> int -> int

val grow_call_records : state -> unit
(** Doubles the call-record arrays (cold path of [Call]). *)
