(* Engine dispatch. [Vm.Machine] cannot dispatch to the register
   backend (lib/ir sits above lib/vm), so every caller that runs a
   program goes through here. See engine.mli for the contract. *)

type clock = Ring.clock = {
  instr_range : lo:int -> hi:int -> unit;
  range_has_target : lo:int -> hi:int -> bool;
  set_time : int -> unit;
}

let exec ?(engine = Vm.Machine.Register) ~hooked ?trace_locals ?prune ?clock
    ?obs (hooks : Vm.Hooks.t) ?fuel ?max_depth (prog : Vm.Program.t) =
  match engine with
  | Vm.Machine.Register ->
      Exec.exec ~hooked ?trace_locals ?prune ?clock ?obs hooks ?fuel ?max_depth
        prog
  | Vm.Machine.Switch ->
      Vm.Machine.exec ~engine ~hooked ?trace_locals ?prune hooks ?fuel
        ?max_depth prog

let run ?engine ?fuel ?max_depth prog =
  exec ?engine ~hooked:false Vm.Hooks.noop ?fuel ?max_depth prog

let run_hooked ?engine ?trace_locals ?prune ?clock ?obs ?fuel ?max_depth hooks
    prog =
  exec ?engine ~hooked:true ?trace_locals ?prune ?clock ?obs hooks ?fuel
    ?max_depth prog
