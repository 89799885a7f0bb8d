module Node = Indexing.Node

type stats = {
  instructions : int;
  static_constructs : int;
  dynamic_constructs : int;
  deps_detected : int;
  shadow_events : int;
  pool_allocated : int;
  pool_reused : int;
  forced_pops : int;
  pruned_pcs : int;
  event_pcs : int;
}

type result = {
  profile : Profile.t;
  stats : stats;
  run : Vm.Machine.result;
  obs : Obs.Registry.t;
}

let telemetry r = Obs.Registry.snapshot r.obs

let cid_of_label (prog : Vm.Program.t) label = prog.cid_of_pc.(label)

(* Precomputed static facts: the CFA, the dependence analysis, and the
   IR-widened prune mask. Everything inside is immutable after
   construction, so one [facts] value can be shared by many runs — and
   across domains — of programs with the same code: the registry
   service's incremental re-profiling (new input, same program) skips
   the whole static pipeline. [code_fp] guards against misuse: a run
   handed facts for a different program fails loudly instead of
   attaching another program's verdicts. *)
type facts = {
  f_analysis : Cfa.Analysis.t;
  f_dep : Static.Depend.t;
  f_prune : bool array;  (* widen_prune mask, ready for the engine *)
  f_refined : int;  (* pcs the IR widening added over the base mask *)
  code_fp : string;
}

let prepare_facts (prog : Vm.Program.t) =
  let f_analysis = Cfa.Analysis.analyze prog in
  let f_dep = Static.Depend.analyze ~analysis:f_analysis prog in
  let f_prune, f_refined =
    Static.Depend.widen_prune f_dep ~region_hint:(Ir.Refine.region_hints prog)
  in
  { f_analysis; f_dep; f_prune; f_refined; code_fp = Profile_io.fingerprint prog }

let facts_fingerprint f = f.code_fp
let facts_dep f = f.f_dep

(* Build the instrumentation (hooks + a finisher that assembles the
   result); shared between the live run and offline trace replay.
   [static] enables the static dependence layer: the finisher then
   classifies every recorded edge into the profile's verdict list, and
   the returned oracle lets the caller prune hooks. It is on for every
   default-mode profile — including trace replay, whose traces record
   the default event set — and off only under [trace_locals], whose
   extra local events the verdicts do not model. *)
let make ?scan_limit ?pool_capacity ?obs ?facts ?(static = true)
    ?(legality = true) ?(race = true) (prog : Vm.Program.t) =
  let reg = match obs with Some r -> r | None -> Obs.Registry.create () in
  let wall = Obs.Registry.timer reg "profiler.wall" in
  Obs.Timer.start wall;
  (match facts with
  | Some f when f.code_fp <> Profile_io.fingerprint prog ->
      invalid_arg "Profiler: facts were prepared for a different program"
  | _ -> ());
  let analysis =
    match facts with
    | Some f -> f.f_analysis
    | None -> Cfa.Analysis.analyze prog
  in
  let dep =
    if not static then None
    else
      Some
        (match facts with
        | Some f -> f.f_dep
        | None -> Static.Depend.analyze ~analysis prog)
  in
  (* Prune coverage is a property of the analysis, not of any engine or
     run mode — record it the moment the analysis exists, so every bench
     section's telemetry shows the same engine-independent figures (the
     BENCH_7 register+ring snapshot is no special case), with the event-pc
     denominator alongside so a 0 reads as "0 of N prunable", not as a
     missing gauge. *)
  (match dep with
  | Some d ->
      Obs.Gauge.set
        (Obs.Registry.gauge reg "static.pruned_pcs")
        (Static.Depend.pruned_count d);
      Obs.Gauge.set
        (Obs.Registry.gauge reg "static.event_pcs")
        (Static.Depend.event_count d)
  | None -> ());
  let profile = Profile.create prog in
  let pops = ref 0 in
  let on_push (c : Node.t) =
    Profile.enter profile ~cid:(cid_of_label prog c.label)
  in
  let on_pop (c : Node.t) =
    incr pops;
    let parent_cid =
      match c.parent with
      | Some p -> cid_of_label prog p.Node.label
      | None -> -1
    in
    Profile.leave profile
      ~cid:(cid_of_label prog c.label)
      ~duration:(Node.duration c) ~parent_cid
  in
  let tree =
    Indexing.Index_tree.create ?scan_limit ?pool_capacity ~on_push ~on_pop ()
  in
  let rules = Indexing.Rules.create ~ipdom:analysis.Cfa.Analysis.ipdom_of_pc ~tree in
  (* Table II: attribute a detected dependence to every completed
     enclosing construct of its head, bottom-up. The sink receives the
     edge unboxed, so the per-dependence walk performs no allocation. *)
  let walk_depth = Obs.Registry.histogram reg "profiler.walk_depth" in
  (* [depth] counts constructs that received the edge so far, so the
     histogram records exactly how far each attribution walk climbed.
     [walk] closes only over per-run state, never over per-dependence
     values: a closure allocation here would run once per attributed
     dependence (~1.6M times on gzip) and dominate minor-heap traffic. *)
  let rec walk ~kind ~head_pc ~tail_pc ~tdep ~addr ~head_time (c : Node.t)
      depth =
    if Node.covers c head_time then begin
      Profile.record_edge profile
        ~cid:(cid_of_label prog c.label)
        ~head_pc ~tail_pc ~kind ~tdep ~addr;
      match c.parent with
      | Some p -> walk ~kind ~head_pc ~tail_pc ~tdep ~addr ~head_time p (depth + 1)
      | None -> Obs.Histogram.observe walk_depth (depth + 1)
    end
    else Obs.Histogram.observe walk_depth depth
  in
  let sink ~kind ~head_pc ~head_time ~head_node ~tail_pc ~tail_time
      ~tail_node:_ ~addr =
    walk ~kind ~head_pc ~tail_pc
      ~tdep:(tail_time - head_time)
      ~addr ~head_time head_node 0
  in
  let shadow = Shadow.Shadow_memory.create ~sink () in
  Shadow.Shadow_memory.register_obs shadow reg;
  Indexing.Index_tree.register_obs tree reg;
  let enclosing () =
    (* peek, not top: one memory event per load/store makes the option
       boxing in [top] a measurable allocation source *)
    if Indexing.Index_tree.depth tree = 0 then
      invalid_arg "Profiler: memory event outside any construct"
    else Indexing.Index_tree.peek tree
  in
  (* The bulk clock sink for the register engine's event ring: a drained
     Instr_range event covers a whole IR segment, and ranges that Rules
     proves free of construct joins advance the clock in one add instead
     of seg_len hook calls. Exactly equivalent to per-pc [on_instr].
     [range_has_target] and [set_time] together opt the profiler into
     the ring's thinned stream: segments with no rule-(5) join point are
     elided from the ring entirely, and their clock advance is restored
     from the stamps carried by the events around them. *)
  let instr_range ~lo ~hi = Indexing.Rules.on_instr_range rules ~lo ~hi in
  let range_has_target ~lo ~hi =
    Indexing.Rules.range_has_target rules ~lo ~hi
  in
  let set_time n = Indexing.Index_tree.set_now tree n in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc -> Indexing.Rules.on_instr rules ~pc);
      on_read =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.read shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree)
            ~node:(enclosing ()));
      on_write =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.write shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree)
            ~node:(enclosing ()));
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken ->
          Indexing.Rules.on_branch rules ~pc ~kind ~taken);
      on_call =
        (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
      on_frame_release =
        (* A released frame is the top of the live address space, so
           clear_range takes the O(1) suffix path for large frames and
           the eager scrub for small ones — the scrub keeps the clear
           stack quiet, which keeps Shadow_memory.freshen on its
           fast path for the accesses that follow. *)
        (fun ~base ~size -> Shadow.Shadow_memory.clear_range shadow ~base ~size);
    }
  in
  let finish (run : Vm.Machine.result) =
    Indexing.Rules.finish rules;
    profile.Profile.total_instructions <- run.Vm.Machine.instructions;
    (match dep with
    | Some d ->
        Profile.attach_verdicts profile (fun (k : Profile.edge_key) ->
            Static.Depend.verdict d ~kind:k.Profile.kind
              ~head_pc:k.Profile.head_pc ~tail_pc:k.Profile.tail_pc);
        Profile.attach_distbounds profile (fun (k : Profile.edge_key) ->
            Static.Depend.distance_bound d ~head_pc:k.Profile.head_pc
              ~tail_pc:k.Profile.tail_pc);
        if legality then
          Profile.attach_legality profile (fun (k : Profile.edge_key) ->
              Static.Legality.classify (Static.Depend.legality d)
                ~kind:k.Profile.kind ~head_pc:k.Profile.head_pc
                ~tail_pc:k.Profile.tail_pc);
        if race then
          Profile.attach_race profile (fun cid ->
              Static.Race.status (Static.Depend.race d) ~cid)
    | None -> ());
    Obs.Timer.stop wall;
    (* Republish the VM's own counters (counted allocation-free inside
       the interpreter loop) so one snapshot covers every layer. *)
    let m = run.Vm.Machine.metrics in
    Obs.Counter.add (Obs.Registry.counter reg "vm.instructions")
      run.Vm.Machine.instructions;
    Obs.Counter.add (Obs.Registry.counter reg "vm.reads") m.Vm.Machine.reads;
    Obs.Counter.add (Obs.Registry.counter reg "vm.writes") m.Vm.Machine.writes;
    Obs.Counter.add (Obs.Registry.counter reg "vm.calls") m.Vm.Machine.calls;
    Obs.Counter.add (Obs.Registry.counter reg "vm.branches")
      m.Vm.Machine.branches;
    Obs.Counter.add
      (Obs.Registry.counter reg "vm.frames_released")
      m.Vm.Machine.frames_released;
    Obs.Gauge.set
      (Obs.Registry.gauge reg "vm.call_depth")
      m.Vm.Machine.max_call_depth;
    Obs.Gauge.set
      (Obs.Registry.gauge reg "vm.mem_high_water")
      m.Vm.Machine.mem_high_water;
    let stats =
      {
        instructions = run.Vm.Machine.instructions;
        static_constructs = Array.length prog.constructs;
        dynamic_constructs = !pops;
        deps_detected = Shadow.Shadow_memory.deps_emitted shadow;
        shadow_events = Shadow.Shadow_memory.events shadow;
        pool_allocated = Indexing.Index_tree.pool_allocated tree;
        pool_reused = Indexing.Index_tree.pool_reused tree;
        forced_pops = Indexing.Rules.forced_pops rules;
        pruned_pcs =
          (match dep with Some d -> Static.Depend.pruned_count d | None -> 0);
        event_pcs =
          (match dep with Some d -> Static.Depend.event_count d | None -> 0);
      }
    in
    { profile; stats; run; obs = reg }
  in
  (hooks, (instr_range, range_has_target, set_time), finish, dep)

let run ?(engine = Vm.Machine.Threaded) ?regalloc ?ring ?fuel ?scan_limit
    ?pool_capacity ?obs ?facts ?(trace_locals = false) ?(static_prune = true)
    ?legality ?race (prog : Vm.Program.t) =
  let reg = match obs with Some r -> r | None -> Obs.Registry.create () in
  let hooks, (instr_range, range_has_target, set_time), finish, dep =
    make ?scan_limit ?pool_capacity ~obs:reg ?facts ~static:(not trace_locals)
      ?legality ?race prog
  in
  (* The verdict layer runs (and is stored) whether or not pruning is
     applied — so prune-on and prune-off profiles of the same execution
     are byte-identical, which is the property `alchemist check`
     re-verifies per workload. The mask handed to the engine is the
     IR-widened one: register-IR def-use hints upgrade accesses the
     points-to layer left incomplete, proving more hooks redundant
     (Static.Depend.widen_prune). The widening is derived from the
     deterministic no-prune lowering, so every engine receives the same
     mask and the profile stays engine-independent; verdicts keep using
     the unwidened base mask. *)
  let prune =
    match dep with
    | Some d when static_prune ->
        let mask, extra =
          match facts with
          | Some f -> (f.f_prune, f.f_refined)
          | None ->
              Static.Depend.widen_prune d
                ~region_hint:(Ir.Refine.region_hints prog)
        in
        Obs.Gauge.set (Obs.Registry.gauge reg "static.refined_pcs") extra;
        Some mask
    | _ -> None
  in
  let r =
    finish
      (Ir.Engine.run_hooked ~engine ?regalloc ?ring ~instr_range
         ~range_has_target ~set_time ~trace_locals ?prune ?fuel ~obs:reg hooks
         prog)
  in
  (* Record which engine produced the events, so benchmark telemetry is
     self-describing (0 = switch, 1 = threaded, 2 = register). The
     register engine additionally publishes ir.* gauges through [reg].
     Differential telemetry comparisons filter these out — see
     test/test_engines.ml. *)
  Obs.Gauge.set
    (Obs.Registry.gauge r.obs "vm.engine")
    (match engine with
    | Vm.Machine.Switch -> 0
    | Vm.Machine.Threaded -> 1
    | Vm.Machine.Register -> 2);
  r

let run_trace ?scan_limit ?pool_capacity ?obs (trace : Vm.Trace.t)
    (prog : Vm.Program.t) =
  (* The static layer applies exactly when the trace carries the default
     event set — and then it must: the online/offline differential
     (test_trace) byte-compares the two profiles, verdict lines
     included. *)
  let hooks, _ring_sinks, finish, _dep =
    make ?scan_limit ?pool_capacity ?obs
      ~static:(not (Vm.Trace.traced_locals trace))
      prog
  in
  Vm.Trace.replay trace hooks;
  finish (Vm.Trace.result trace)

let run_source ?engine ?ring ?fuel ?scan_limit ?pool_capacity ?obs
    ?trace_locals ?static_prune ?legality ?race src =
  run ?engine ?ring ?fuel ?scan_limit ?pool_capacity ?obs ?trace_locals
    ?static_prune ?legality ?race
    (Vm.Compile.compile_source src)
