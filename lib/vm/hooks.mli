(** Instrumentation interface of the VM.

    The hooked interpreter calls these in a fixed order for each executed
    instruction: [on_instr] first (this is where the profiler advances its
    timestamp and performs rule-(5) index-stack pops), then the memory /
    control events the instruction generates.

    For [Call]: [on_call] fires before the parameter-binding writes, which
    are reported at the callee's entry pc. For [Ret]: [on_ret] fires before
    [on_frame_release] (which lets a dependence tracker drop shadow state
    for the dead frame, so stack-address reuse cannot fabricate
    dependences).

    Both engines deliver this exact sequence, but not necessarily at the
    moment each instruction retires: the register engine ([Ir.Exec])
    appends events to a ring and replays them, in order, when the ring
    drains (at capacity and at run exit). A hook must therefore not inspect machine state; what it
    sees is its arguments. A consumer that supplies the bulk clock sinks
    of [Ir.Engine.run_hooked] may in addition receive no [on_instr] for
    segments it declared uninteresting — see [Ir.Engine]. *)

type t = {
  on_instr : pc:int -> unit;
  on_read : pc:int -> addr:int -> unit;
  on_write : pc:int -> addr:int -> unit;
  on_branch : pc:int -> kind:Instr.branch_kind -> cid:int -> taken:bool -> unit;
      (** [taken = true] means the branch jumped (condition was zero): for
          a [BrLoop] predicate this is loop exit. *)
  on_call : pc:int -> fid:int -> unit;  (** [pc] is the callee entry *)
  on_ret : pc:int -> fid:int -> unit;  (** [pc] is the [Ret] instruction *)
  on_frame_release : base:int -> size:int -> unit;
}

val noop : t
(** Hooks that do nothing; useful as a record to override. *)
