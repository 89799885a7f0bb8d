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

let one_by_one ?engine ?fuel prog sites =
  List.map
    (fun (s : TG.site) ->
      TG.collect ?engine ?fuel ~privatized:s.TG.privatized
        ~reductions:s.TG.reductions prog ~head_pc:s.TG.head_pc)
    sites

let all_at_once ?engine ?fuel prog sites =
  TG.collect_many ?engine ?fuel prog sites ~f:TG.view

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

(* The register engine's thinned stream against the switch
   interpreter's per-instruction one: the advised sites plus every
   procedure other than main, whose instances are claimed at return
   targets the ring must keep. *)
let advised_sites_and_procs (prog : Vm.Program.t) =
  let main_entry = prog.funcs.(prog.main_fid).Vm.Program.entry in
  let procs =
    Array.to_list prog.funcs
    |> List.filter_map (fun (f : Vm.Program.func_info) ->
           if f.entry = main_entry then None
           else Some { TG.head_pc = f.entry; privatized = []; reductions = [] })
  in
  advised_sites prog @ procs

let test_register_equals_switch name () =
  let prog = registry_prog name in
  let sites = advised_sites_and_procs prog in
  List.iteri
    (fun k ((s : TG.site), (rg, sw)) ->
      same_graph
        (Printf.sprintf "%s site %d (%s)" name k (site_name prog s))
        rg sw)
    (List.combine sites
       (List.combine (all_at_once prog sites)
          (all_at_once ~engine:Vm.Machine.Switch prog sites)))

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

(* A random subset of the constructs as sites with random filters, one
   head pc maybe repeated with other filters, and a fuel limit that
   either lets the run finish or stops it inside a call. *)
let random_sites_and_fuel rng (prog : Vm.Program.t) =
  let pick l = List.filter (fun _ -> Random.State.bool rng) l in
  let globals =
    List.map (fun (_, base, len) -> (base, len)) prog.global_layout
  in
  let site (c : Vm.Program.construct_info) =
    { TG.head_pc = c.head_pc; privatized = pick globals; reductions = pick globals }
  in
  let sites = List.map site (pick (Array.to_list prog.constructs)) in
  let sites =
    match sites with
    | s :: _ when Random.State.bool rng ->
        sites @ [ { s with privatized = pick globals; reductions = [] } ]
    | _ -> sites
  in
  let fuel =
    if Random.State.bool rng then 3_000_000
    else Option.value ~default:3_000_000 (mid_call_fuel rng prog)
  in
  (sites, fuel)

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
             let sites, fuel = random_sites_and_fuel rng prog in
             let outcome collect =
               match collect prog sites with
               | gs -> Ok gs
               | exception Vm.Machine.Trap (msg, pc) -> Error (msg, pc)
             in
             (* on each engine, and the register run against the switch
                run *)
             let check engine =
               let shared = outcome (all_at_once ~engine ~fuel)
               and alone = outcome (one_by_one ~engine ~fuel) in
               if shared = alone then shared
               else
                 QCheck.Test.fail_reportf "%s, %d sites, fuel %d: %s"
                   (Vm.Machine.engine_to_string engine)
                   (List.length sites) fuel
                   (match (shared, alone) with
                   | Error (m, pc), _ ->
                       Printf.sprintf "shared run trapped: %s at %d" m pc
                   | _, Error (m, pc) ->
                       Printf.sprintf "a lone run trapped: %s at %d" m pc
                   | Ok _, Ok _ -> "graphs differ")
             in
             check Vm.Machine.Register = check Vm.Machine.Switch))

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

(* --- an independent oracle for collection ------------------------------------ *)

module Int_map = Map.Make (Int)

(* The collector's fold restated the plain way, on the switch engine's raw
   stream: every dependence boxed by [Testutil.boxing_sink], every push
   and pop of the site's construct, and the instruction after each pop
   (where a procedure's return value is claimed). Completed instances
   are kept in a list and, for the head search, in a stdlib map from
   start time; constraints live in a [Hashtbl] keyed by (head instance,
   location), with their first-occurrence order kept in a list. *)
type oracle = {
  o_site : TG.site;
  o_is_proc : bool;
  mutable o_depth : int;
  mutable o_cur_start : int;
  mutable o_done : (int * int) list;  (** completed (start, stop), newest first *)
  mutable o_by_start : (int * int) Int_map.t;  (** start -> (index, stop) *)
  mutable o_n : int;
  mutable o_pending : bool;
  o_fold : (int * TG.constraint_location, int * int * Shadow.Dependence.kind list) Hashtbl.t;
  mutable o_order : (int * TG.constraint_location) list;  (** newest first *)
  mutable o_dropped : int;
  mutable o_cross : int;
}

let oracle_of (prog : Vm.Program.t) (s : TG.site) =
  {
    o_site = s;
    o_is_proc =
      (Option.get (Vm.Program.construct_at prog s.TG.head_pc)).kind
      = Vm.Program.CProc;
    o_depth = 0;
    o_cur_start = 0;
    o_done = [];
    o_by_start = Int_map.empty;
    o_n = 0;
    o_pending = false;
    o_fold = Hashtbl.create 64;
    o_order = [];
    o_dropped = 0;
    o_cross = 0;
  }

let oracle_fold o key ~head_off ~tail_off kind =
  o.o_cross <- o.o_cross + 1;
  match Hashtbl.find_opt o.o_fold key with
  | None ->
      Hashtbl.replace o.o_fold key (head_off, tail_off, [ kind ]);
      o.o_order <- key :: o.o_order
  | Some (h, t, kinds) ->
      let h, t = if head_off - tail_off > h - t then (head_off, tail_off) else (h, t) in
      let kinds = if List.mem kind kinds then kinds else kind :: kinds in
      Hashtbl.replace o.o_fold key (h, t, kinds)

(* The completed instance holding [time], with its start. *)
let oracle_instance o time =
  match Int_map.find_last_opt (fun start -> start <= time) o.o_by_start with
  | Some (start, (i, stop)) when time < stop -> Some (i, start)
  | _ -> None

let oracle_dep o (d : Shadow.Dependence.t) =
  let within = List.exists (fun (base, len) -> d.addr >= base && d.addr < base + len) in
  if
    within o.o_site.TG.reductions
    || (within o.o_site.TG.privatized && d.kind <> Shadow.Dependence.Raw)
  then o.o_dropped <- o.o_dropped + 1
  else if o.o_depth > 0 && d.head.time >= o.o_cur_start then ()
  else
    match oracle_instance o d.head.time with
    | None -> ()
    | Some (i, start) ->
        let location, tail_off =
          if o.o_depth > 0 && d.tail.time >= o.o_cur_start then
            (TG.CInstance o.o_n, d.tail.time - o.o_cur_start)
          else (TG.CSegment o.o_n, d.tail.time)
        in
        oracle_fold o (i, location) ~head_off:(d.head.time - start) ~tail_off
          d.kind

let oracle_graph o ~total =
  let order k = List.filter (fun k' -> List.mem k' k) Shadow.Dependence.[ Raw; War; Waw ] in
  {
    TG.total;
    instances =
      List.rev o.o_done
      |> List.mapi (fun idx (start, stop) -> { TG.idx; start; stop })
      |> Array.of_list;
    constraints =
      List.rev_map
        (fun ((head_instance, location) as key) ->
          let head_off, tail_off, kinds = Hashtbl.find o.o_fold key in
          { TG.head_instance; location; head_off; tail_off; kinds = order kinds })
        o.o_order;
    dropped_privatized = o.o_dropped;
    cross_deps = o.o_cross;
  }

let oracle_collect ?fuel (prog : Vm.Program.t) sites =
  let os = List.map (oracle_of prog) sites in
  let popped = ref false in
  let on_push nodes c =
    let label = Indexing.Node.label nodes c in
    List.iter
      (fun o ->
        if o.o_site.TG.head_pc = label then begin
          if o.o_depth = 0 then o.o_cur_start <- Indexing.Node.tenter nodes c;
          o.o_depth <- o.o_depth + 1
        end)
      os
  in
  let on_pop nodes c =
    let label = Indexing.Node.label nodes c in
    List.iter
      (fun o ->
        if o.o_site.TG.head_pc = label then begin
          o.o_depth <- o.o_depth - 1;
          if o.o_depth = 0 then begin
            let stop = Indexing.Node.texit nodes c in
            o.o_done <- (o.o_cur_start, stop) :: o.o_done;
            o.o_by_start <- Int_map.add o.o_cur_start (o.o_n, stop) o.o_by_start;
            o.o_n <- o.o_n + 1;
            if o.o_is_proc then begin
              o.o_pending <- true;
              popped := true
            end
          end
        end)
      os
  in
  let tree = Indexing.Index_tree.create ~on_push ~on_pop () in
  let ipdom = (Cfa.Analysis.analyze prog).Cfa.Analysis.ipdom_of_pc in
  let rules = Indexing.Rules.create ~ipdom ~tree in
  let shadow =
    Shadow.Shadow_memory.create
      ~sink:(Testutil.boxing_sink (fun d -> List.iter (fun o -> oracle_dep o d) os))
      ()
  in
  (* A procedure instance is claimed where its value is consumed: at the
     instruction after its return, unless that one discards it. *)
  let claim ~pc =
    let now = Indexing.Index_tree.now tree in
    List.iter
      (fun o ->
        if o.o_pending then begin
          o.o_pending <- false;
          if prog.code.(pc) <> Vm.Instr.Pop then
            match o.o_done with
            | (start, stop) :: _ ->
                oracle_fold o
                  (o.o_n - 1, TG.CSegment o.o_n)
                  ~head_off:(stop - start) ~tail_off:now Shadow.Dependence.Raw
            | [] -> assert false
        end)
      os
  in
  let access f ~pc ~addr =
    f shadow ~addr ~pc ~time:(Indexing.Index_tree.now tree)
      ~node:(Indexing.Index_tree.peek tree)
  in
  let hooks =
    {
      Vm.Hooks.on_instr =
        (fun ~pc ->
          Indexing.Rules.on_instr rules ~pc;
          if !popped then begin
            popped := false;
            claim ~pc
          end);
      on_read = access Shadow.Shadow_memory.read;
      on_write = access Shadow.Shadow_memory.write;
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken -> Indexing.Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
      on_frame_release =
        (fun ~base ~size -> Shadow.Shadow_memory.clear_range shadow ~base ~size);
    }
  in
  let r =
    Vm.Machine.run_hooked ~engine:Vm.Machine.Switch ~trace_locals:false ?fuel
      hooks prog
  in
  Indexing.Rules.finish rules;
  List.map (oracle_graph ~total:r.Vm.Machine.instructions) os

let same_graphs what sites expected actual =
  List.iteri
    (fun k ((s : TG.site), (e, a)) ->
      same_graph
        (Printf.sprintf "%s site %d (pc %d)" what k s.TG.head_pc)
        a e)
    (List.combine sites (List.combine expected actual))

(* The advised sites with their filters, the largest loop, and every
   procedure other than main: [collect_many] and [collect] (register
   engine) against the oracle (switch engine), field by field. *)
let test_collection_oracle name () =
  let prog = registry_prog name in
  let sites = advised_sites_and_procs prog in
  let expected = oracle_collect prog sites in
  same_graphs (name ^ " collect_many") sites expected (all_at_once prog sites);
  same_graphs (name ^ " collect") sites expected (one_by_one prog sites)

let test_collection_oracle_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"collection equals the oracle fold" ~count:60
       program_and_seed
       (fun (p, seed) ->
         let prog = Vm.Compile.compile p in
         match Vm.Machine.run ~fuel:3_000_000 prog with
         | exception Vm.Machine.Trap _ -> QCheck.assume_fail ()
         | _ ->
             let rng = Random.State.make [| seed |] in
             let sites, fuel = random_sites_and_fuel rng prog in
             let outcome collect =
               match collect () with
               | gs -> Ok gs
               | exception Vm.Machine.Trap (msg, pc) -> Error (msg, pc)
             in
             let expected = outcome (fun () -> oracle_collect ~fuel prog sites) in
             let many = outcome (fun () -> all_at_once ~fuel prog sites) in
             let alone = outcome (fun () -> one_by_one ~fuel prog sites) in
             if expected = many && expected = alone then true
             else
               QCheck.Test.fail_reportf "%d sites, fuel %d: %s differs" (List.length sites)
                 fuel
                 (if expected <> many then "collect_many" else "collect")))

(* --- the list scheduler as the reference ------------------------------------ *)

(* The scheduler as it was before graphs became flat: constraints bucketed
   from the list into record arrays, per-instance stall profiles as
   lists. Kept as the reference the flat loop must match. *)
module Reference_scheduler = struct
  type profile = { start : int; stalls : (int * int) list }

  let stalls_before (p : profile) off =
    let rec go acc = function
      | (o, s) :: rest when o <= off -> go (acc + s) rest
      | _ -> acc
    in
    go 0 p.stalls

  let exec_time (p : profile) off = p.start + off + stalls_before p off

  type buckets = { first : int array; items : TG.folded_constraint array }

  let buckets ~n ~select (g : TG.t) =
    let first = Array.make (n + 1) 0 in
    List.iter
      (fun (c : TG.folded_constraint) ->
        let b = select c.location in
        if b >= 0 && b < n then first.(b + 1) <- first.(b + 1) + 1)
      g.constraints;
    for b = 1 to n do
      first.(b) <- first.(b) + first.(b - 1)
    done;
    match g.constraints with
    | [] -> { first; items = [||] }
    | c0 :: _ ->
        let items = Array.make first.(n) c0 in
        let fill = Array.sub first 1 n in
        List.iter
          (fun (c : TG.folded_constraint) ->
            let b = select c.location in
            if b >= 0 && b < n then begin
              fill.(b) <- fill.(b) - 1;
              items.(fill.(b)) <- c
            end)
          g.constraints;
        for b = 0 to n - 1 do
          let lo = first.(b) and len = first.(b + 1) - first.(b) in
          if len > 1 then begin
            let a = Array.sub items lo len in
            Array.stable_sort
              (fun (x : TG.folded_constraint) y -> Int.compare x.tail_off y.tail_off)
              a;
            Array.blit a 0 items lo len
          end
        done;
        { first; items }

  let simulate ?(config = Sched.default_config) (g : TG.t) : Sched.schedule =
    let n = Array.length g.instances in
    let profiles = Array.make (max n 1) { start = 0; stalls = [] } in
    let finish = Array.make (max n 1) 0 in
    let cores_of = Array.make (max n 1) 0 in
    let free = Array.make config.cores 0 in
    let busy = Array.make config.cores 0 in
    let total_stalls = ref 0 in
    let segs =
      buckets ~n:(n + 1) ~select:(function TG.CSegment m -> m | _ -> -1) g
    in
    let insts = buckets ~n ~select:(function TG.CInstance j -> j | _ -> -1) g in
    let backbone = ref 0 in
    let prev_end = ref 0 in
    for m = 0 to n do
      let seg_start_seq = !prev_end in
      let seg_end_seq = if m < n then g.instances.(m).TG.start else g.total in
      let seg_stall = ref 0 in
      for k = segs.first.(m) to segs.first.(m + 1) - 1 do
        let c = segs.items.(k) in
        if c.head_instance < m then begin
          let arrival = !backbone + (c.tail_off - seg_start_seq) + !seg_stall in
          let required = exec_time profiles.(c.head_instance) c.head_off in
          if required > arrival then seg_stall := !seg_stall + (required - arrival)
        end
      done;
      total_stalls := !total_stalls + !seg_stall;
      backbone := !backbone + (seg_end_seq - seg_start_seq) + !seg_stall;
      if m < n then begin
        backbone := !backbone + config.spawn_overhead;
        let core = ref 0 in
        for c = 1 to config.cores - 1 do
          if free.(c) < free.(!core) then core := c
        done;
        let st = max !backbone free.(!core) in
        let dur = g.instances.(m).TG.stop - g.instances.(m).TG.start in
        let stalls = ref [] in
        let acc = ref 0 in
        for k = insts.first.(m) to insts.first.(m + 1) - 1 do
          let c = insts.items.(k) in
          if c.head_instance < m then begin
            let arrival = st + c.tail_off + !acc in
            let required = exec_time profiles.(c.head_instance) c.head_off in
            if required > arrival then begin
              let s = required - arrival in
              acc := !acc + s;
              stalls := (c.tail_off, s) :: !stalls
            end
          end
        done;
        total_stalls := !total_stalls + !acc;
        profiles.(m) <- { start = st; stalls = List.rev !stalls };
        finish.(m) <- st + dur + !acc;
        cores_of.(m) <- !core;
        free.(!core) <- finish.(m) + config.join_overhead;
        busy.(!core) <- busy.(!core) + dur;
        prev_end := g.instances.(m).TG.stop
      end
    done;
    let par_time = Array.fold_left max !backbone (Array.sub finish 0 n) in
    {
      Sched.seq_time = g.total;
      par_time = max par_time 1;
      speedup = float_of_int g.total /. float_of_int (max par_time 1);
      tasks = n;
      stall_time = !total_stalls;
      busy;
      placements =
        Array.init n (fun m ->
            {
              Sched.task = m;
              core = cores_of.(m);
              start = profiles.(m).start;
              finish = finish.(m);
            });
    }
end

(* A random graph: ordered or arbitrary intervals, constraints in random
   order with repeated (head instance, location) keys, locations outside
   the graph and heads at or after their location, and a random
   configuration of 1-16 cores. Offsets lie on a grid and overheads are
   small, so that stalls are common and heads often fall exactly on
   another constraint's stall. *)
let random_graph_and_config rng =
  let int k = Random.State.int rng k in
  let n = int 8 in
  let clock = ref (int 20) in
  let ordered = int 4 > 0 in
  let instances =
    Array.init n (fun idx ->
        if ordered then begin
          let start = !clock + int 8 in
          let stop = start + int 50 in
          clock := stop;
          { TG.idx; start; stop }
        end
        else { TG.idx; start = int 100; stop = int 100 })
  in
  (* offsets on a grid, so that heads often land exactly on a stall *)
  let grain = 1 + int 4 in
  let offset k = grain * int k in
  let total = !clock + int 30 in
  let constraint_ () =
    let location =
      if Random.State.bool rng then TG.CSegment (int (n + 4) - 2)
      else TG.CInstance (int (n + 4) - 2)
    in
    let kinds =
      match
        List.filter (fun _ -> Random.State.bool rng) Shadow.Dependence.[ Raw; War; Waw ]
      with
      | [] -> [ Shadow.Dependence.Raw ]
      | ks -> ks
    in
    {
      TG.head_instance = int (n + 2);
      location;
      head_off = offset 14 - grain;
      tail_off =
        (match location with TG.CSegment _ -> int (total + 10) | _ -> offset 10);
      kinds;
    }
  in
  let cs = List.init (int 60) (fun _ -> constraint_ ()) in
  let again =
    List.filter_map
      (fun (c : TG.folded_constraint) ->
        if int 3 = 0 then Some { c with head_off = offset 14; tail_off = offset 10 }
        else None)
      cs
  in
  let constraints =
    List.map (fun c -> (Random.State.bits rng, c)) (cs @ again)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let config =
    { Sched.cores = 1 + int 16; spawn_overhead = int 15; join_overhead = int 15 }
  in
  ( { TG.total; instances; constraints; dropped_privatized = 0; cross_deps = 0 },
    config )

let test_scheduler_matches_reference () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"flat scheduler equals the list scheduler"
       ~count:30000
       (QCheck.make (QCheck.Gen.int_bound 1_000_000_000))
       (fun seed ->
         let g, config = random_graph_and_config (Random.State.make [| seed |]) in
         let a = Sched.simulate ~config g
         and b = Reference_scheduler.simulate ~config g in
         if a = b then true
         else
           QCheck.Test.fail_reportf
             "%d tasks, %d constraints, %d cores: par %d vs %d, stalls %d vs %d"
             b.Sched.tasks (List.length g.TG.constraints) config.Sched.cores
             a.Sched.par_time b.Sched.par_time a.Sched.stall_time
             b.Sched.stall_time))

(* The explore path allocates nothing per task instance: every loop and
   procedure of bzip2 as a site, at test scale and at twice it. *)
let test_analyze_allocation_flat () =
  let w = Workloads.Registry.find "bzip2" in
  let measure scale =
    let prog = Workloads.Workload.compile w ~scale in
    let requests =
      Array.to_list prog.constructs
      |> List.map (fun (c : Vm.Program.construct_info) ->
             { Speedup.head_pc = c.head_pc; privatize = []; reduce = [] })
    in
    let m0 = Gc.minor_words () in
    let reports = Speedup.analyze_many prog requests in
    let m1 = Gc.minor_words () in
    (m1 -. m0, List.fold_left (fun n (r : Speedup.report) -> n + r.tasks) 0 reports)
  in
  let scale = w.Workloads.Workload.test_scale in
  let m1, t1 = measure scale in
  let m2, t2 = measure (2 * scale) in
  Alcotest.(check bool) "the larger run has more tasks" true (t2 > t1);
  let per_task = (m2 -. m1) /. float_of_int (t2 - t1) in
  if per_task > 0.1 then
    Alcotest.failf
      "%.0f -> %.0f minor words for %d -> %d tasks (%.2f words per extra task)"
      m1 m2 t1 t2 per_task

let test_bad_cores () =
  let prog, pc = loop_pc independent_src 8 in
  let g = TG.collect prog ~head_pc:pc in
  let rejects fn f =
    match f () with
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names %s" msg fn)
          true (Testutil.contains msg fn)
    | _ -> Alcotest.failf "%s accepted cores < 1" fn
  in
  List.iter
    (fun cores ->
      rejects "Scheduler.simulate" (fun () ->
          ignore (Sched.simulate ~config:{ Sched.default_config with cores } g));
      rejects "Speedup.analyze_many" (fun () ->
          ignore
            (Speedup.analyze_many ~cores prog
               [ { Speedup.head_pc = pc; privatize = []; reduce = [] } ]));
      rejects "Speedup.analyze_many" (fun () ->
          ignore (Speedup.analyze ~cores prog ~head_pc:pc)))
    [ 0; -2 ]

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
    ("collection equals the oracle fold (qcheck)", `Quick,
      test_collection_oracle_qcheck);
    ("flat scheduler equals the list scheduler (qcheck)", `Quick,
      test_scheduler_matches_reference);
    ("analyze allocation flat in task instances", `Quick,
      test_analyze_allocation_flat);
    ("cores below 1 rejected", `Quick, test_bad_cores);
  ]
  @ List.map
      (fun name ->
        ( "one run serves every site: " ^ name,
          `Quick,
          test_shared_run_registry name ))
      Workloads.Registry.names
  @ List.map
      (fun name ->
        ( "register collection equals switch: " ^ name,
          `Quick,
          test_register_equals_switch name ))
      Workloads.Registry.names
  @ List.map
      (fun name ->
        ( "collection equals the oracle fold: " ^ name,
          `Quick,
          test_collection_oracle name ))
      Workloads.Registry.names
