(** Running a program: the one entry point for both engines.

    {!Vm.Machine.Register} (the default) lowers the stack bytecode to the
    register IR ({!Lower}) and runs it ({!Exec}); hooked runs deliver
    their events through the batched event ring ({!Ring}).
    {!Vm.Machine.Switch} is the reference interpreter the differential
    tests compare against. Both produce the same results, metrics,
    traps and raw hook stream.

    The register engine hands three kinds of run to the switch
    interpreter: hooked runs that trace scalar locals (the -O0 model),
    whose per-local events the IR does not model, and programs whose
    lowering bails or leaves some operand's tag unproven (nonstandard
    bytecode the compiler never emits; the register engine keeps no
    run-time tags). *)

type clock = Ring.clock = {
  instr_range : lo:int -> hi:int -> unit;
      (** Must act exactly as [for pc = lo to hi do hooks.on_instr ~pc
          done]; the ring delivers each kept segment through it. *)
  range_has_target : lo:int -> hi:int -> bool;
      (** Must segment [lo..hi] reach the consumer? Asked once per IR
          segment when the run is compiled. Answer [false] only if
          [on_instr] at every pc of the range just advances the clock:
          such segments are elided, and the next event's stamp carries
          their clock advance. *)
  set_time : int -> unit;
      (** Restore the clock to a stamp (instructions retired when the
          event was emitted); called before each event whose stamp the
          replay has not reached, and once at run exit. *)
}
(** The hooked-run contract: what a consumer supplies to receive the
    thinned stream. Its hooks then see every memory, branch, call,
    return and frame event in order, with its clock exactly where
    per-instruction delivery would have left it, but [on_instr] only
    for kept segments. [hooks.on_instr] is still called per pc where
    the switch interpreter runs (the fallbacks above), so it must agree
    with [instr_range]. The profiler
    and the parallelism simulator pass [Indexing.Rules.on_instr_range],
    [Indexing.Rules.range_has_target] and [Indexing.Index_tree.set_now].
    Without a clock every segment is expanded into per-pc [on_instr]
    calls. The switch engine ignores [clock]. *)

val run :
  ?engine:Vm.Machine.engine ->
  ?fuel:int ->
  ?max_depth:int ->
  Vm.Program.t ->
  Vm.Machine.result
(** Runs without hooks. [fuel] and [max_depth] are as in
    {!Vm.Machine.run}.
    @raise Vm.Machine.Trap on runtime errors. *)

val run_hooked :
  ?engine:Vm.Machine.engine ->
  ?trace_locals:bool ->
  ?prune:bool array ->
  ?clock:clock ->
  ?obs:Obs.Registry.t ->
  ?fuel:int ->
  ?max_depth:int ->
  Vm.Hooks.t ->
  Vm.Program.t ->
  Vm.Machine.result
(** Runs, delivering events to the hooks. [trace_locals] and [prune]
    are as in {!Vm.Machine.run_hooked}. [obs] receives the register
    engine's [ir.*] telemetry (IR size and spill gauges, ring events,
    drains and depth).
    @raise Vm.Machine.Trap on runtime errors, after delivering the
    events emitted before the trap. *)
