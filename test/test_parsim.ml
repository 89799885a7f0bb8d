(* Tests for the parallel-execution simulator: task extraction, the
   dependence-respecting scheduler, and privatization transforms. *)

module TG = Parsim.Task_graph
module Sched = Parsim.Scheduler
module Speedup = Parsim.Speedup
module Transform = Parsim.Transform

let compile = Vm.Compile.compile_source

(* A loop whose iterations are independent except for the induction
   variable (untraced): near-perfect data parallelism. *)
let independent_src =
  {|int out[16];
    int work(int i) {
      int s = 0;
      for (int k = 0; k < 200; k++) s += i * k % 7;
      return s;
    }
    int main() {
      for (int i = 0; i < 16; i++) {
        out[i] = work(i);
      }
      return 0;
    }|}

(* A serial chain: each iteration reads the previous one's result. *)
let chain_src =
  {|int acc;
    int step(int i) {
      int s = acc;
      for (int k = 0; k < 200; k++) s += k % 5;
      return s;
    }
    int main() {
      for (int i = 0; i < 16; i++) {
        acc = step(i);
      }
      return acc;
    }|}

let loop_pc src line =
  let prog = compile src in
  (prog, Speedup.loop_head_at_line prog line)

(* --- task extraction -------------------------------------------------------- *)

let test_collect_instances () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  Alcotest.(check int) "16 iterations = 16 tasks" 16 (Array.length g.TG.instances);
  (* Intervals are ordered and disjoint. *)
  Array.iteri
    (fun i (inst : TG.instance) ->
      Alcotest.(check bool) "positive duration" true (inst.stop > inst.start);
      if i > 0 then
        Alcotest.(check bool) "ordered" true
          (inst.start >= g.TG.instances.(i - 1).TG.stop))
    g.TG.instances

let test_collect_no_cross_deps_for_independent () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  (* out[i] slots are disjoint; no RAW/WAR/WAW across iterations. *)
  Alcotest.(check (list string)) "no constraints" []
    (List.map
       (fun (c : TG.folded_constraint) ->
         Printf.sprintf "i%d" c.head_instance)
       g.TG.constraints)

let test_collect_chain_has_constraints () =
  let prog, pc = loop_pc chain_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  Alcotest.(check bool) "constraints exist" true (g.TG.constraints <> []);
  Alcotest.(check bool) "cross deps counted" true (g.TG.cross_deps > 0);
  (* Every constraint's head precedes its tail location. *)
  List.iter
    (fun (c : TG.folded_constraint) ->
      match c.location with
      | TG.CInstance j ->
          Alcotest.(check bool) "head < tail instance" true (c.head_instance < j)
      | TG.CSegment m ->
          Alcotest.(check bool) "head < segment" true (c.head_instance < m))
    g.TG.constraints

let test_collect_bad_pc () =
  let prog = compile independent_src in
  match TG.collect prog ~head_pc:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- scheduler --------------------------------------------------------------- *)

let test_independent_speedup () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let s = Sched.simulate ~config:{ Sched.cores = 4; spawn_overhead = 10; join_overhead = 5 } g in
  Alcotest.(check bool)
    (Printf.sprintf "speedup %.2f in [2.5, 4.0]" s.Sched.speedup)
    true
    (s.Sched.speedup > 2.5 && s.Sched.speedup <= 4.0);
  Alcotest.(check int) "no stalls" 0 s.Sched.stall_time

let test_chain_no_speedup () =
  let prog, pc = loop_pc chain_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let s = Sched.simulate g in
  Alcotest.(check bool)
    (Printf.sprintf "chain speedup %.2f stays ~1" s.Sched.speedup)
    true
    (s.Sched.speedup < 1.3);
  Alcotest.(check bool) "stalls happened" true (s.Sched.stall_time > 0)

let test_more_cores_help_until_width () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let at cores =
    (Sched.simulate ~config:{ Sched.cores; spawn_overhead = 10; join_overhead = 5 } g)
      .Sched.par_time
  in
  Alcotest.(check bool) "2 cores beat 1" true (at 2 < at 1);
  Alcotest.(check bool) "4 cores beat 2" true (at 4 < at 2);
  Alcotest.(check bool) "1 core roughly sequential" true
    (at 1 >= g.TG.total * 9 / 10)

let test_empty_graph () =
  let g =
    {
      TG.total = 1000;
      instances = [||];
      constraints = [];
      dropped_privatized = 0;
      cross_deps = 0;
    }
  in
  let s = Sched.simulate g in
  Alcotest.(check int) "par = seq" 1000 s.Sched.par_time;
  Alcotest.(check int) "no tasks" 0 s.Sched.tasks

let test_pinned_schedule () =
  (* Two back-to-back instances on two cores with free spawns and joins.
     Instance 1 starts at 10, as instance 0 does, and waits at its offset
     2 for instance 0's offset 15 (time 25): a 13 stall. The last backbone
     segment reaches seq time 45 at 10 + 5 = 15 and waits for instance
     1's offset 9, which runs at 10 + 9 + 13 = 32: a 17 stall. *)
  let g =
    {
      TG.total = 50;
      instances =
        [|
          { TG.idx = 0; start = 10; stop = 30 };
          { TG.idx = 1; start = 30; stop = 40 };
        |];
      constraints =
        [
          {
            TG.head_instance = 1;
            location = TG.CSegment 2;
            head_off = 9;
            tail_off = 45;
            kinds = [ Shadow.Dependence.Raw ];
          };
          {
            TG.head_instance = 0;
            location = TG.CInstance 1;
            head_off = 15;
            tail_off = 2;
            kinds = [ Shadow.Dependence.Raw ];
          };
        ];
      dropped_privatized = 0;
      cross_deps = 2;
    }
  in
  let s =
    Sched.simulate
      ~config:{ Sched.cores = 2; spawn_overhead = 0; join_overhead = 0 }
      g
  in
  Alcotest.(check int) "par time" 37 s.Sched.par_time;
  Alcotest.(check int) "stall time" 30 s.Sched.stall_time;
  Alcotest.(check (list (list int))) "placements: task, core, start, finish"
    [ [ 0; 0; 10; 30 ]; [ 1; 1; 10; 33 ] ]
    (Array.to_list s.Sched.placements
    |> List.map (fun (p : Sched.task_schedule) ->
           [ p.task; p.core; p.start; p.finish ]))

let test_spawn_overhead_costs () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let cheap =
    Sched.simulate ~config:{ Sched.cores = 4; spawn_overhead = 0; join_overhead = 0 } g
  in
  let costly =
    Sched.simulate
      ~config:{ Sched.cores = 4; spawn_overhead = 5000; join_overhead = 0 }
      g
  in
  Alcotest.(check bool) "overhead hurts" true
    (costly.Sched.par_time > cheap.Sched.par_time)

(* --- privatization ----------------------------------------------------------- *)

let war_src =
  {|int scratch;
    int out[16];
    int use(int i) {
      int v = scratch;
      int s = 0;
      for (int k = 0; k < 150; k++) s += v + k;
      scratch = s % 100;
      return s;
    }
    int main() {
      for (int i = 0; i < 16; i++) {
        out[i] = use(i);
      }
      return out[3];
    }|}

let test_privatization_removes_war_waw () =
  let prog, pc = loop_pc war_src 11 in
  let naive = TG.collect prog ~head_pc:pc in
  let priv =
    TG.collect
      ~privatized:(Transform.privatize_globals prog [ "scratch" ])
      prog ~head_pc:pc
  in
  Alcotest.(check bool) "privatized constraints dropped" true
    (priv.TG.dropped_privatized > 0);
  (* RAW on scratch remains, so constraints don't vanish entirely; but
     WAR/WAW folding must shrink. *)
  Alcotest.(check bool) "fewer or equal constraints" true
    (List.length priv.TG.constraints <= List.length naive.TG.constraints)

let test_privatize_unknown_global () =
  let prog = compile war_src in
  match Transform.privatize_globals prog [ "nope" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_all_globals () =
  let prog = compile war_src in
  Alcotest.(check (list string)) "globals" [ "scratch"; "out" ]
    (Transform.all_globals prog)

(* --- placements / gantt ------------------------------------------------------- *)

let test_placements_consistent () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let s = Sched.simulate g in
  Alcotest.(check int) "one placement per task" s.Sched.tasks
    (Array.length s.Sched.placements);
  Array.iter
    (fun (p : Sched.task_schedule) ->
      Alcotest.(check bool) "start < finish" true (p.start < p.finish);
      Alcotest.(check bool) "finish within par_time" true
        (p.finish <= s.Sched.par_time);
      Alcotest.(check bool) "core in range" true (p.core >= 0 && p.core < 4))
    s.Sched.placements;
  (* no two tasks overlap on the same core *)
  Array.iter
    (fun (a : Sched.task_schedule) ->
      Array.iter
        (fun (b : Sched.task_schedule) ->
          if a.task < b.task && a.core = b.core then
            Alcotest.(check bool)
              (Printf.sprintf "tasks %d/%d disjoint on core %d" a.task b.task
                 a.core)
              true
              (a.finish <= b.start || b.finish <= a.start))
        s.Sched.placements)
    s.Sched.placements

let test_gantt_renders () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let s = Sched.simulate g in
  let text = Parsim.Gantt.render ~width:60 g s in
  Alcotest.(check bool) "has main row" true (Testutil.contains text "main");
  Alcotest.(check bool) "has core rows" true (Testutil.contains text "core 3");
  Alcotest.(check bool) "has bars" true (Testutil.contains text "#")

(* --- end-to-end report -------------------------------------------------------- *)

let test_analyze_report () =
  let prog, pc = loop_pc independent_src 8 in
  let r = Speedup.analyze ~cores:4 prog ~head_pc:pc in
  Alcotest.(check int) "tasks" 16 r.Speedup.tasks;
  Alcotest.(check bool) "speedup > 2" true (r.Speedup.speedup > 2.0);
  Alcotest.(check bool) "construct named" true
    (Testutil.contains r.Speedup.construct "Loop");
  (* Report is printable. *)
  let s = Format.asprintf "%a" Speedup.pp_report r in
  Alcotest.(check bool) "pp" true (String.length s > 20)

let test_proc_head_lookup () =
  let prog = compile independent_src in
  let pc = Speedup.proc_head prog "work" in
  let r = Speedup.analyze prog ~head_pc:pc in
  Alcotest.(check int) "16 calls" 16 r.Speedup.tasks

(* --- one shared collection run vs one run per site -------------------------- *)

let same_graph what (a : TG.t) (b : TG.t) =
  let field name ok =
    Alcotest.(check bool) (Printf.sprintf "%s: %s" what name) true ok
  in
  field "total" (a.TG.total = b.TG.total);
  field "instances" (a.TG.instances = b.TG.instances);
  field "constraints, in order" (a.TG.constraints = b.TG.constraints);
  field "dropped" (a.TG.dropped_privatized = b.TG.dropped_privatized);
  field "cross deps" (a.TG.cross_deps = b.TG.cross_deps)

let one_by_one ?fuel prog sites =
  List.map
    (fun (s : TG.site) ->
      TG.collect ?fuel ~privatized:s.TG.privatized ~reductions:s.TG.reductions
        prog ~head_pc:s.TG.head_pc)
    sites

let all_at_once ?fuel prog sites = TG.collect_many ?fuel prog sites ~f:Fun.id

let site_name (prog : Vm.Program.t) (s : TG.site) =
  match Vm.Program.construct_at prog s.TG.head_pc with
  | Some c -> c.Vm.Program.cname
  | None -> Printf.sprintf "pc %d" s.TG.head_pc

(* Every executed construct with the filters its advice derives, led by
   the largest loop and the largest procedure other than main again,
   with every global privatized and no reductions: one head pc, two
   filter sets (for a procedure, two claims at one instruction). *)
let advised_sites (prog : Vm.Program.t) =
  let facts = Alchemist.Profiler.prepare_facts prog in
  let dep = Alchemist.Profiler.facts_dep facts in
  let p = (Alchemist.Profiler.run ~facts prog).Alchemist.Profiler.profile in
  let ranges = Transform.privatize_globals prog in
  let sites =
    Alchemist.Ranking.rank ~dep p
    |> List.map (fun (e : Alchemist.Ranking.entry) ->
           let a = Alchemist.Advice.advise ~dep p ~cid:e.cid in
           {
             TG.head_pc = prog.constructs.(e.cid).head_pc;
             privatized = ranges (Alchemist.Advice.privatization_list a);
             reductions = ranges (Alchemist.Advice.reduction_list a);
           })
  in
  let largest kind =
    List.find
      (fun (s : TG.site) ->
        (Option.get (Vm.Program.construct_at prog s.TG.head_pc)).kind = kind
        && s.TG.head_pc <> prog.funcs.(prog.main_fid).Vm.Program.entry)
      sites
  in
  List.map
    (fun (s : TG.site) ->
      { s with privatized = ranges (Transform.all_globals prog); reductions = [] })
    [ largest Vm.Program.CLoop; largest Vm.Program.CProc ]
  @ sites

(* Whether the calls to the procedure headed at [pc] consume their
   return value (no [Pop] at the return target) and whether some discard
   it. *)
let return_uses (prog : Vm.Program.t) pc =
  let consumed = ref false and discarded = ref false in
  Array.iteri
    (fun at (i : Vm.Instr.t) ->
      match i with
      | Vm.Instr.Call fid when prog.funcs.(fid).Vm.Program.entry = pc ->
          if prog.code.(at + 1) = Vm.Instr.Pop then discarded := true
          else consumed := true
      | _ -> ())
    prog.code;
  (!consumed, !discarded)

let registry_prog name =
  let w = Workloads.Registry.find name in
  Workloads.Workload.compile w ~scale:w.Workloads.Workload.test_scale

let test_shared_run_registry name () =
  let prog = registry_prog name in
  let sites = advised_sites prog in
  let shared = all_at_once prog sites in
  Alcotest.(check int) "one graph per site" (List.length sites)
    (List.length shared);
  List.iteri
    (fun k ((s : TG.site), alone) ->
      same_graph
        (Printf.sprintf "%s site %d (%s)" name k (site_name prog s))
        (List.nth shared k) alone)
    (List.combine sites (one_by_one prog sites));
  (* the two leading sites repeat a head pc with other filters *)
  List.iter
    (fun (dup : TG.site) ->
      Alcotest.(check bool) "duplicated head pc" true
        (List.exists
           (fun (s : TG.site) -> s.TG.head_pc = dup.TG.head_pc && s <> dup)
           sites))
    (List.filteri (fun k _ -> k < 2) sites)

let test_registry_sites_cover_claims () =
  (* Procedure sites where a return value is consumed (claimed by the
     next instruction) and where it is discarded (a Pop: no claim) are
     both among the registry's advised sites. *)
  let consumed = ref [] and discarded = ref [] in
  List.iter
    (fun name ->
      let prog = registry_prog name in
      List.iter
        (fun (s : TG.site) ->
          match Vm.Program.construct_at prog s.TG.head_pc with
          | Some c when c.kind = Vm.Program.CProc ->
              let c_, d = return_uses prog s.TG.head_pc in
              if c_ then consumed := (name, c.cname) :: !consumed;
              if d then discarded := (name, c.cname) :: !discarded
          | _ -> ())
        (advised_sites prog))
    Workloads.Registry.names;
  Alcotest.(check bool) "a site whose return value is consumed" true
    (!consumed <> []);
  Alcotest.(check bool) "a site whose return value is discarded" true
    (!discarded <> [])

(* A fuel limit that stops the run inside a call other than main's: the
   instruction count just before a uniformly chosen instruction executed
   at call depth >= 2 (main itself is depth 1). *)
let mid_call_fuel rng prog =
  let n = ref 0 and depth = ref 0 and seen = ref 0 and chosen = ref None in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr =
        (fun ~pc:_ ->
          incr n;
          if !depth >= 2 then begin
            incr seen;
            if Random.State.int rng !seen = 0 then chosen := Some (!n - 1)
          end);
      on_call = (fun ~pc:_ ~fid:_ -> incr depth);
      on_ret = (fun ~pc:_ ~fid:_ -> decr depth);
    }
  in
  ignore (Vm.Machine.run_hooked ~fuel:3_000_000 hooks prog);
  !chosen

(* A generated program, and a seed for the choices made on it. *)
let program_and_seed =
  QCheck.pair Testgen.arbitrary_program
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))

let test_shared_run_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"one run serves any site subset" ~count:60
       program_and_seed
       (fun (p, seed) ->
         let prog = Vm.Compile.compile p in
         match Vm.Machine.run ~fuel:3_000_000 prog with
         | exception Vm.Machine.Trap _ -> QCheck.assume_fail ()
         | _ ->
             let rng = Random.State.make [| seed |] in
             let pick l = List.filter (fun _ -> Random.State.bool rng) l in
             let globals =
               List.map (fun (_, base, len) -> (base, len)) prog.global_layout
             in
             let site (c : Vm.Program.construct_info) =
               {
                 TG.head_pc = c.head_pc;
                 privatized = pick globals;
                 reductions = pick globals;
               }
             in
             let sites = List.map site (pick (Array.to_list prog.constructs)) in
             let sites =
               match sites with
               | s :: _ when Random.State.bool rng ->
                   sites
                   @ [ { s with privatized = pick globals; reductions = [] } ]
               | _ -> sites
             in
             let fuel =
               if Random.State.bool rng then 3_000_000
               else Option.value ~default:3_000_000 (mid_call_fuel rng prog)
             in
             let outcome collect =
               match collect prog sites with
               | gs -> Ok gs
               | exception Vm.Machine.Trap (msg, pc) -> Error (msg, pc)
             in
             let shared = outcome (all_at_once ~fuel)
             and alone = outcome (one_by_one ~fuel) in
             if shared = alone then true
             else
               QCheck.Test.fail_reportf "%d sites, fuel %d: %s" (List.length sites)
                 fuel
                 (match (shared, alone) with
                 | Error (m, pc), _ ->
                     Printf.sprintf "shared run trapped: %s at %d" m pc
                 | _, Error (m, pc) ->
                     Printf.sprintf "a lone run trapped: %s at %d" m pc
                 | Ok _, Ok _ -> "graphs differ")))

(* The schedule depends on the constraints, not on their order: the
   constraint list of a graph reaches [simulate] in first-occurrence
   order, and any permutation of it gives the same schedule. *)
let test_schedule_ignores_constraint_order () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"schedule invariant under constraint order"
       ~count:40 program_and_seed
       (fun (p, seed) ->
         let prog = Vm.Compile.compile p in
         match Vm.Machine.run ~fuel:3_000_000 prog with
         | exception Vm.Machine.Trap _ -> QCheck.assume_fail ()
         | _ ->
             let rng = Random.State.make [| seed |] in
             let cs = prog.constructs in
             let c = cs.(Random.State.int rng (Array.length cs)) in
             let g = TG.collect ~fuel:3_000_000 prog ~head_pc:c.head_pc in
             let shuffled =
               List.map (fun c -> (Random.State.bits rng, c)) g.TG.constraints
               |> List.sort (fun (a, _) (b, _) -> compare a b)
               |> List.map snd
             in
             let config =
               { Sched.cores = 3; spawn_overhead = 7; join_overhead = 3 }
             in
             Sched.simulate ~config g
             = Sched.simulate ~config { g with TG.constraints = shuffled }))

let suite =
  [
    ("collect instances", `Quick, test_collect_instances);
    ("collect independent: no constraints", `Quick, test_collect_no_cross_deps_for_independent);
    ("collect chain: constraints", `Quick, test_collect_chain_has_constraints);
    ("collect bad pc", `Quick, test_collect_bad_pc);
    ("independent speedup", `Quick, test_independent_speedup);
    ("chain no speedup", `Quick, test_chain_no_speedup);
    ("more cores help", `Quick, test_more_cores_help_until_width);
    ("empty graph", `Quick, test_empty_graph);
    ("pinned schedule across buckets", `Quick, test_pinned_schedule);
    ("spawn overhead costs", `Quick, test_spawn_overhead_costs);
    ("privatization removes war/waw", `Quick, test_privatization_removes_war_waw);
    ("privatize unknown global", `Quick, test_privatize_unknown_global);
    ("all globals", `Quick, test_all_globals);
    ("placements consistent", `Quick, test_placements_consistent);
    ("gantt renders", `Quick, test_gantt_renders);
    ("analyze report", `Quick, test_analyze_report);
    ("proc head lookup", `Quick, test_proc_head_lookup);
    ("registry sites cover consumed and discarded returns", `Quick,
      test_registry_sites_cover_claims);
    ("one run serves any site subset (qcheck)", `Quick, test_shared_run_qcheck);
    ("schedule ignores constraint order (qcheck)", `Quick,
      test_schedule_ignores_constraint_order);
  ]
  @ List.map
      (fun name ->
        ( "one run serves every site: " ^ name,
          `Quick,
          test_shared_run_registry name ))
      Workloads.Registry.names
