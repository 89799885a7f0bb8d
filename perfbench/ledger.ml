(* The subtractive cost ledger of the profiler. Five configurations run
   the same program over the profiler's own event set (locals untraced,
   the IR-widened prune mask applied); each adds one layer to the one
   before, so the per-event difference between neighbours prices that
   layer. *)

let configs =
  [| "ledger.unhooked"; "ledger.noop_hooks"; "ledger.indexing"; "ledger.shadow";
     "ledger.profiler" |]

(* The configuration that is the full [Profiler.run ~facts]. *)
let profiler = 4

(* The layer each difference prices, as [(metric, lower, upper)]. The
   first layer is priced per instruction, the others per shadow event. *)
let layers =
  [
    ("vm.hook_ns_per_event", 0, 1);
    ("indexing.ns_per_event", 1, 2);
    ("shadow.ns_per_event", 2, 3);
    ("core.walk_ns_per_event", 3, 4);
  ]

type ctx = {
  p : Suite.program;
  ipdom : int array;
  mask : bool array;
  instructions : int;
  events : int;  (** shadow events of the full profiler run *)
}

let prepare (p : Suite.program) =
  let prog = p.Suite.prog in
  let analysis = Cfa.Analysis.analyze prog in
  let dep = Static.Depend.analyze ~analysis prog in
  let mask, _ =
    Static.Depend.widen_prune dep ~region_hint:(Ir.Refine.region_hints prog)
  in
  let r = Alchemist.Profiler.run ~facts:p.Suite.facts prog in
  {
    p;
    ipdom = analysis.Cfa.Analysis.ipdom_of_pc;
    mask;
    instructions = r.Alchemist.Profiler.stats.Alchemist.Profiler.instructions;
    events = r.Alchemist.Profiler.stats.Alchemist.Profiler.shadow_events;
  }

let hooked c hooks =
  ignore
    (Ir.Engine.run_hooked ~trace_locals:false ~prune:c.mask hooks c.p.Suite.prog)

let indexing_hooks c =
  let tree = Indexing.Index_tree.create () in
  let rules = Indexing.Rules.create ~ipdom:c.ipdom ~tree in
  ( tree,
    rules,
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc -> Indexing.Rules.on_instr rules ~pc);
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken ->
          Indexing.Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
    } )

let null_sink ~kind:_ ~head_pc:_ ~head_time:_ ~head_node:_ ~tail_pc:_
    ~tail_time:_ ~tail_node:_ ~addr:_ =
  ()

let run_config c i =
  let prog = c.p.Suite.prog in
  match i with
  | 0 -> ignore (Ir.Engine.run prog)
  | 1 -> hooked c Vm.Hooks.noop
  | 2 ->
      let _, rules, hooks = indexing_hooks c in
      hooked c hooks;
      Indexing.Rules.finish rules
  | 3 ->
      let tree, rules, hooks = indexing_hooks c in
      let shadow = Shadow.Shadow_memory.create ~sink:null_sink () in
      let node () = Indexing.Index_tree.peek tree in
      hooked c
        {
          hooks with
          on_read =
            (fun ~pc ~addr ->
              Shadow.Shadow_memory.read shadow ~addr ~pc
                ~time:(Indexing.Index_tree.now tree) ~node:(node ()));
          on_write =
            (fun ~pc ~addr ->
              Shadow.Shadow_memory.write shadow ~addr ~pc
                ~time:(Indexing.Index_tree.now tree) ~node:(node ()));
          on_frame_release =
            (fun ~base ~size -> Shadow.Shadow_memory.clear_range shadow ~base ~size);
        };
      Indexing.Rules.finish rules
  | _ -> ignore (Alchemist.Profiler.run ~facts:c.p.Suite.facts prog)
