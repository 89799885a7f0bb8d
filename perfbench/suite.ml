(* The three workloads and their ops. An op is one program taken through
   a public entry point of the libraries; the spans around each call are
   what the traced run records (they cost nothing with tracing off). *)

module W = Workloads.Workload
module Profiler = Alchemist.Profiler
module Profile_io = Alchemist.Profile_io
module Report = Alchemist.Report
module Explore = Driver.Explore

let span = Spans.with_span

type program = {
  w : W.t;
  scale : int;
  source : string;  (** the Mini-C text at [scale]: the check op's input *)
  mutable prog : Vm.Program.t;
  mutable facts : Profiler.facts;
  dep : Static.Depend.t Lazy.t;  (** for the output checks only *)
}

let name p = p.w.W.name

(* Set-up is the time from source to analyzed program. *)
let setup p =
  let prog = W.compile p.w ~scale:p.scale in
  p.facts <- Profiler.prepare_facts prog;
  p.prog <- prog

(* [Profiler.run ~facts] forces the race verdicts that the facts
   memoise, so a second run on the same facts skips that work. The
   traced run, whose set-up replay prepares no facts, calls this outside
   the clock before every op and every run of the ledger's full
   profiler, so that each meets new facts, as the untraced run's ops
   meet those of their round's set-up. *)
let refresh_facts p = p.facts <- Profiler.prepare_facts p.prog

(* The same set-up, step by step: [Profiler.prepare_facts] is
   [Cfa.Analysis.analyze], [Static.Depend.analyze] and the IR-widened
   prune mask. The facts value is abstract, so these parts cannot be
   handed to the ops. *)
let setup_traced p =
  let prog = span "minic.compile" (fun () -> W.compile p.w ~scale:p.scale) in
  let analysis = span "cfa.analyze" (fun () -> Cfa.Analysis.analyze prog) in
  let dep =
    span "static.depend" (fun () -> Static.Depend.analyze ~analysis prog)
  in
  span "ir.refine" (fun () ->
      ignore
        (Static.Depend.widen_prune dep ~region_hint:(Ir.Refine.region_hints prog)))

(* The phases [Static.Depend.analyze] runs inside, each called on its
   own: the whole-analysis span cannot be split from outside. *)
let static_phases p =
  let prog = p.prog in
  let pts = span "static.points_to" (fun () -> Static.Points_to.analyze prog) in
  ignore (span "static.induction" (fun () -> Static.Induction.analyze prog));
  let modref = span "static.modref" (fun () -> Static.Modref.analyze prog pts) in
  ignore
    (span "static.legality" (fun () -> Static.Legality.analyze prog pts modref))

(* The seed picks each program's scale in [s, 1.05 s], which keeps bzip2
   and delaunay above the 1M-node index pool. Stencil's arrays hold
   exactly its default scale, so its scale is drawn in [0.95 s, s]. *)
let programs ~seed bases =
  let rng = Random.State.make [| seed; 1 |] in
  List.map
    (fun (wname, base) ->
      let w = Workloads.Registry.find wname in
      let jitter = Random.State.int rng ((base / 20) + 1) in
      let scale = if wname = "stencil" then base - jitter else base + jitter in
      let prog = W.compile w ~scale in
      {
        w;
        scale;
        source = w.W.source ~scale;
        prog;
        facts = Profiler.prepare_facts prog;
        dep = lazy (Static.Depend.analyze prog);
      })
    bases
  |> Array.of_list

(* What an op returns. Both parts are thunks so that the output checks
   and the counting run after the op's clock has stopped. *)
type outcome = {
  observe : unit -> (string * string) list;
  counts : unit -> (string * float) list;
}

type expect = Exact of string | Same_every_round

type t = {
  wname : string;
  bases : (string * int) list;  (** registry name, base scale *)
  op : program -> outcome;  (** the untraced op *)
  op_traced : program -> outcome;
  expect : program -> (string * expect) list;
  ledger : bool;
}

let with_alloc f =
  let m0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. m0)

let profiler_counts (r : Profiler.result) alloc =
  let s = r.Profiler.stats in
  let walk_steps =
    match Obs.find (Profiler.telemetry r) "profiler.walk_depth" with
    | Some (Obs.Dist d) -> d.sum
    | _ -> 0
  in
  [
    ("vm.instructions", float_of_int s.Profiler.instructions);
    ("shadow.events", float_of_int s.Profiler.shadow_events);
    ("shadow.deps", float_of_int s.Profiler.deps_detected);
    ("core.walk_steps", float_of_int walk_steps);
    ("indexing.pool_reused", float_of_int s.Profiler.pool_reused);
    ("core.alloc_mwords", alloc /. 1e6);
  ]

let ints l = String.concat "," (List.map string_of_int l)

(* --- profile: the CLI's [profile --save] path ------------------------- *)

let profile_op p =
  let r, alloc =
    span "core.profile" (fun () ->
        with_alloc (fun () -> Profiler.run ~facts:p.facts p.prog))
  in
  let bytes =
    span "core.write" (fun () -> Profile_io.to_string r.Profiler.profile)
  in
  let report = span "core.report" (fun () -> Report.render r.Profiler.profile) in
  let run = r.Profiler.run in
  {
    observe =
      (fun () ->
        [
          ("exit_value", string_of_int run.Vm.Machine.exit_value);
          ("output", ints run.Vm.Machine.output);
          ("instructions", string_of_int run.Vm.Machine.instructions);
          ( "sanitizer_issues",
            string_of_int
              (List.length
                 (Alchemist.Sanitize.check ~dep:(Lazy.force p.dep)
                    r.Profiler.profile)) );
          ("profile", bytes);
          ("report", report);
        ]);
    counts =
      (fun () ->
        profiler_counts r alloc
        @ [ ("core.profile_bytes", float_of_int (String.length bytes)) ]);
  }

(* The uninstrumented run of the reference interpreter. *)
let profile_expect p =
  let run = Vm.Machine.run ~engine:Vm.Machine.Switch p.prog in
  [
    ("exit_value", Exact (string_of_int run.Vm.Machine.exit_value));
    ("output", Exact (ints run.Vm.Machine.output));
    ("instructions", Exact (string_of_int run.Vm.Machine.instructions));
    ("sanitizer_issues", Exact "0");
    ("profile", Same_every_round);
    ("report", Same_every_round);
  ]

(* Table III inputs. *)
let registry_bases =
  List.map
    (fun (w : W.t) -> (w.W.name, w.W.default_scale))
    Workloads.Registry.all

let profile =
  {
    wname = "profile";
    bases = registry_bases;
    op = profile_op;
    op_traced = profile_op;
    expect = profile_expect;
    ledger = true;
  }

(* --- explore: Driver.Explore.explore ~cores:4 ~top:6 ------------------ *)

let cores = 4
let top = 6

(* Candidates, verdicts and the exact simulated speedups. *)
let explore_digest (t : Explore.t) =
  Format.asprintf "%a" Explore.pp t
  ^ String.concat ","
      (List.map
         (fun (c : Explore.candidate) ->
           match c.Explore.simulated with
           | Some r -> Printf.sprintf "%h" r.Parsim.Speedup.speedup
           | None -> "-")
         t.Explore.candidates)

(* [Speedup.analyze] as Explore calls it (no legality, no race gate),
   step by step. *)
let simulate prog ~head_pc (advice : Alchemist.Advice.t) =
  let privatized =
    Parsim.Transform.privatize_globals prog
      (Alchemist.Advice.privatization_list advice)
  in
  let reductions =
    Parsim.Transform.privatize_globals prog
      (Alchemist.Advice.reduction_list advice)
  in
  let g =
    span "parsim.collect" (fun () ->
        Parsim.Task_graph.collect ~privatized ~reductions prog ~head_pc)
  in
  let config = { Parsim.Scheduler.default_config with Parsim.Scheduler.cores } in
  let s = span "parsim.schedule" (fun () -> Parsim.Scheduler.simulate ~config g) in
  {
    Parsim.Speedup.construct =
      (match Vm.Program.construct_at prog head_pc with
      | Some c -> Format.asprintf "%a" Vm.Program.pp_construct c
      | None -> Printf.sprintf "pc %d" head_pc);
    head_pc;
    seq_instructions = s.Parsim.Scheduler.seq_time;
    par_instructions = s.Parsim.Scheduler.par_time;
    speedup = s.Parsim.Scheduler.speedup;
    tasks = s.Parsim.Scheduler.tasks;
    constraints = List.length g.Parsim.Task_graph.constraints;
    cross_deps = g.Parsim.Task_graph.cross_deps;
    dropped_privatized = g.Parsim.Task_graph.dropped_privatized;
    stall_time = s.Parsim.Scheduler.stall_time;
    race_refusal = None;
  }

(* Explore's steps replayed under spans. The traced run checks that the
   result equals [Explore.explore]'s exactly. *)
let explore_replay p =
  let prog = p.prog in
  let r, alloc =
    span "core.profile" (fun () -> with_alloc (fun () -> Profiler.run prog))
  in
  let profile = r.Profiler.profile in
  let instructions = r.Profiler.stats.Profiler.instructions in
  let threshold = int_of_float (0.02 *. float_of_int instructions) in
  let main_cid = prog.cid_of_pc.(prog.funcs.(prog.main_fid).entry) in
  let entries =
    span "core.rank" (fun () -> Alchemist.Ranking.rank profile)
    |> List.filter (fun (e : Alchemist.Ranking.entry) ->
           e.cid <> main_cid && e.ttotal >= threshold)
  in
  let parsim_alloc = ref 0. in
  let candidates =
    List.filteri (fun i _ -> i < top) entries
    |> List.mapi (fun i (entry : Alchemist.Ranking.entry) ->
           let advice =
             span "core.advise" (fun () ->
                 Alchemist.Advice.advise profile ~cid:entry.cid)
           in
           let simulated =
             match advice.Alchemist.Advice.verdict with
             | `Not_amenable -> None
             | `Parallelizable | `Needs_transforms ->
                 let head_pc = prog.constructs.(entry.cid).head_pc in
                 let rep, a =
                   with_alloc (fun () -> simulate prog ~head_pc advice)
                 in
                 parsim_alloc := !parsim_alloc +. a;
                 Some rep
           in
           { Explore.rank = i + 1; entry; advice; simulated })
  in
  let speedup (c : Explore.candidate) =
    match c.Explore.simulated with
    | Some r -> r.Parsim.Speedup.speedup
    | None -> neg_infinity
  in
  let t =
    {
      Explore.candidates =
        List.stable_sort (fun a b -> compare (speedup b) (speedup a)) candidates;
      instructions;
      profile;
    }
  in
  let sims = List.filter_map (fun c -> c.Explore.simulated) candidates in
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 sims) in
  {
    observe = (fun () -> [ ("candidates", explore_digest t) ]);
    counts =
      (fun () ->
        profiler_counts r alloc
        @ [
            ("parsim.tasks", sum (fun s -> s.Parsim.Speedup.tasks));
            ("parsim.cross_deps", sum (fun s -> s.Parsim.Speedup.cross_deps));
            ("parsim.alloc_mwords", !parsim_alloc /. 1e6);
          ]);
  }

let explore_op p =
  let t = Explore.explore ~cores ~top p.prog in
  {
    observe = (fun () -> [ ("candidates", explore_digest t) ]);
    counts = (fun () -> []);
  }

(* The scales of [bench explore], where Explore rediscovers the paper's
   Table V sites. *)
let explore =
  {
    wname = "explore";
    bases =
      [
        ("bzip2", 6_000);
        ("ogg", 800);
        ("par2", 64);
        ("aes", 1_024);
        ("delaunay", 8_000);
      ];
    op = explore_op;
    op_traced = explore_replay;
    expect = (fun _ -> [ ("candidates", Same_every_round) ]);
    ledger = false;
  }

(* --- check: lint, verify, read a saved profile, sanitize, report ------- *)

let race_summary prog race =
  let free = ref 0 and racy = ref 0 and unknown = ref 0 in
  Array.iter
    (fun (c : Vm.Program.construct_info) ->
      match Static.Race.verdict race ~cid:c.Vm.Program.cid with
      | Some Static.Race.Race_free -> incr free
      | Some (Static.Race.Racy _) -> incr racy
      | Some (Static.Race.Unknown _) -> incr unknown
      | None -> ())
    prog.Vm.Program.constructs;
  Printf.sprintf "%d race-free, %d racy, %d unknown" !free !racy !unknown

let check_op ~saved p =
  let saved = saved (name p) in
  let ast = span "minic.compile" (fun () -> Minic.Frontend.load p.source) in
  let warnings = span "minic.lint" (fun () -> Minic.Lint.program ast) in
  let prog = span "minic.compile" (fun () -> Vm.Compile.compile ast) in
  let dep = span "static.depend" (fun () -> Static.Depend.analyze prog) in
  let races =
    span "static.race" (fun () -> race_summary prog (Static.Depend.race dep))
  in
  let profile =
    span "core.read" (fun () ->
        match Profile_io.read prog saved with
        | Ok pr -> pr
        | Error msg -> failwith ("Profile_io.read: " ^ msg))
  in
  let issues =
    span "core.sanitize" (fun () -> Alchemist.Sanitize.check ~dep profile)
  in
  let report = span "core.report" (fun () -> Report.render profile) in
  {
    observe =
      (fun () ->
        [
          ("sanitizer_issues", string_of_int (List.length issues));
          ("roundtrip", Profile_io.to_string profile);
          ("lint_warnings", string_of_int (List.length warnings));
          ("races", races);
          ("report", report);
        ]);
    counts =
      (fun () -> [ ("core.profile_bytes", float_of_int (String.length saved)) ]);
  }

let check ~saved =
  let op = check_op ~saved in
  {
    wname = "check";
    bases = registry_bases;
    op;
    op_traced = op;
    expect =
      (fun p ->
        [
          ("sanitizer_issues", Exact "0");
          ("roundtrip", Exact (saved (name p)));
          ("lint_warnings", Same_every_round);
          ("races", Same_every_round);
          ("report", Same_every_round);
        ]);
    ledger = false;
  }

(* The profile [check] reads: the profile op's own bytes. *)
let saved_profile p =
  Profile_io.to_string (Profiler.run ~facts:p.facts p.prog).Profiler.profile
