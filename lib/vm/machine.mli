(** The bytecode interpreter: the reference switch engine and the
    engine selector.

    Two engines share the same semantics (differentially tested in
    test/test_engines.ml):

    - {!Switch}: the reference interpreter — one [match] per executed
      instruction, structurally close to the operational semantics. It
      is what {!run} and {!run_hooked} execute, and the baseline every
      change to the register engine is checked against.
    - {!Register}: the register-IR engine in [Ir.Exec] — stack bytecode
      compiled to three-address code over allocated registers, with hook
      events delivered through a batched event ring. It is the default
      instrumented engine (the profiler and the parallelism simulator
      run on it). It lives in a library above this one, so selecting it
      here raises; dispatch through [Ir.Engine.run] /
      [Ir.Engine.run_hooked], which accept both engines.

    Both produce identical results, metrics, hook-event streams and trap
    behavior. {!run} is the plain interpreter, {!run_hooked}
    additionally drives a {!Hooks.t} — the substrate on which
    Alchemist's profiler runs. *)

exception Trap of string * int
(** Runtime error (division by zero, out-of-bounds index, stack overflow,
    fuel exhausted) with the offending pc. *)

type metrics = Vmstate.metrics = {
  reads : int;  (** load instructions executed (locals, globals, indexed) *)
  writes : int;  (** store instructions executed *)
  calls : int;
  branches : int;
  frames_released : int;
  max_call_depth : int;
  mem_high_water : int;  (** peak [stack_top]: live memory words *)
}
(** Execution telemetry counted unconditionally in the interpreter loop
    (plain int increments — no allocation, no observable slowdown). The
    profiler republishes these through its [Obs] registry. *)

type result = Vmstate.result = {
  exit_value : int;  (** return value of [main] *)
  instructions : int;  (** retired instruction count — the clock *)
  output : int list;  (** values printed, in order *)
  metrics : metrics;
}

type engine = Switch | Register

val engine_to_string : engine -> string

val exec :
  ?engine:engine ->
  hooked:bool ->
  ?trace_locals:bool ->
  ?prune:bool array ->
  Hooks.t ->
  ?fuel:int ->
  ?max_depth:int ->
  Program.t ->
  result
(** Generalized entry point behind {!run} / {!run_hooked}; exported for
    [Ir.Engine], which layers the register backend on top, and for the
    register engine's fallbacks ([trace_locals] runs and programs whose
    lowering bails run here).
    @raise Invalid_argument when [engine] is {!Register} — that engine
    is dispatched by [Ir.Engine], not here. *)

val run : ?engine:engine -> ?fuel:int -> ?max_depth:int -> Program.t -> result
(** Executes the program on the switch interpreter ([engine] defaults
    to {!Switch}, the only engine this library runs), [fuel] bounds the number of executed instructions
    (default: unlimited), [max_depth] the call depth (default 10_000).
    @raise Trap on runtime errors. *)

val run_hooked :
  ?engine:engine ->
  ?trace_locals:bool ->
  ?prune:bool array ->
  ?fuel:int ->
  ?max_depth:int ->
  Hooks.t ->
  Program.t ->
  result
(** Same as {!run}, firing instrumentation callbacks. Both engines emit
    the exact same event stream (pcs, addresses, ordering) and the same
    instruction-count clock — the register engine's batched delivery is
    event-transparent.

    [trace_locals] (default [true]) controls whether scalar frame slots
    generate memory events. Mini-C never takes the address of a scalar
    local, so an optimizing C compiler would keep them in registers — the
    binaries the paper profiled do not exhibit stack traffic for them.
    The profiler passes [false] to match that; pass [true] to model an
    unoptimized (-O0) binary (see the ablation bench).

    [prune] is a per-pc mask of memory-event pcs whose [on_read]/[on_write]
    hooks are skipped (all other hooks and the VM metrics counters still
    fire) — the static pruning oracle ({!Static.Depend.prune_mask})
    guarantees the skipped events cannot change the resulting profile.
    Both engines honor the mask identically: the switch engine tests it
    per event, the register engine specializes it away at lowering time.
    Ignored when locals are traced — the mask only models the default
    event set. *)
