(* The alchemist command-line tool.

   Sources are given either as a path to a Mini-C file or as
   "workload:NAME[:SCALE]" to use a bundled benchmark (see
   [alchemist workloads]). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_program ?(fold = false) ?(warn = false) spec =
  let compile src =
    let ast = Minic.Frontend.load src in
    if warn then
      List.iter
        (fun w -> Format.eprintf "%a@." Minic.Diag.pp_warning w)
        (Minic.Lint.program ast);
    let ast = if fold then Minic.Fold.program ast else ast in
    Vm.Compile.compile ast
  in
  match Workloads.Registry.of_spec spec with
  | Some (w, scale) -> compile (w.Workloads.Workload.source ~scale)
  | None -> compile (read_file spec)

let fold_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "fold" ]
        ~doc:"Constant-fold and prune dead branches before compiling \
              (models an optimized build).")

let warn_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "warn" ]
        ~doc:"Print frontend lints (unused variables, dead stores, \
              loop-invariant subscripts, constant loop conditions, \
              reduction accumulators escaping into calls, shared globals \
              written in loops) to stderr before running.")

let static_prune_arg =
  Cmdliner.Arg.(
    value & opt bool true
    & info [ "static-prune" ] ~docv:"BOOL"
        ~doc:"Skip shadow instrumentation on memory events the static \
              dependence analysis proves unable to affect the profile \
              (default on; the profile is byte-identical either way).")

let handle_errors f =
  match f () with
  | () -> 0
  | exception Minic.Diag.Error (msg, loc) ->
      Printf.eprintf "error at %s: %s\n" (Minic.Srcloc.to_string loc) msg;
      1
  | exception Vm.Machine.Trap (msg, pc) ->
      Printf.eprintf "runtime trap at pc %d: %s\n" pc msg;
      1
  | exception Not_found ->
      Printf.eprintf "unknown workload (try: alchemist workloads)\n";
      1
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

open Cmdliner

(* An integer option with a floor, checked while parsing so a bad value
   is a usage error rather than a failure deep in the run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "must be at least %d, got %d" lo n))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let cores_arg =
  Arg.(
    value
    & opt (int_at_least 1) 4
    & info [ "cores" ] ~doc:"Worker threads (at least 1).")

let src_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SRC" ~doc:"Mini-C file, or workload:NAME[:SCALE].")

let fuel_arg =
  Arg.(
    value
    & opt int 2_000_000_000
    & info [ "fuel" ] ~doc:"Instruction budget before trapping.")

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("register", Vm.Machine.Register); ("switch", Vm.Machine.Switch) ])
        Vm.Machine.Register
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"VM execution engine: $(b,register) (stack bytecode compiled \
              to an allocated register IR, with batched hook delivery; the \
              default) or $(b,switch) (the reference interpreter). Both \
              produce identical results and profiles.")

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let run spec fuel fold warn engine =
    handle_errors (fun () ->
        let prog = load_program ~fold ~warn spec in
        let r = Ir.Engine.run ~engine ~fuel prog in
        List.iter (fun v -> Printf.printf "%d\n" v) r.Vm.Machine.output;
        Printf.printf "exit=%d instructions=%d\n" r.Vm.Machine.exit_value
          r.Vm.Machine.instructions)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a Mini-C program on the VM.")
    Term.(const run $ src_arg $ fuel_arg $ fold_arg $ warn_arg $ engine_arg)

(* --- profile ------------------------------------------------------------ *)

let profile_cmd =
  let top =
    Arg.(
      value
      & opt (int_at_least 0) 10
      & info [ "top" ] ~doc:"Constructs to list.")
  in
  let edges =
    Arg.(value & opt int 8 & info [ "edges" ] ~doc:"Edges per construct.")
  in
  let kinds =
    Arg.(
      value
      & opt (enum [ ("raw", `Raw); ("warwaw", `WarWaw); ("all", `All) ]) `Raw
      & info [ "kinds" ] ~doc:"Edge kinds: raw (Fig. 2), warwaw (Fig. 3), all.")
  in
  let trace_locals =
    Arg.(
      value & flag
      & info [ "trace-locals" ]
          ~doc:"Also track scalar locals as memory (models -O0 binaries).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~doc:"Also write the profile to this file.")
  in
  let telemetry =
    (* --telemetry prints the text rendering; --telemetry=json the JSON one *)
    Arg.(
      value
      & opt ~vopt:(Some `Text)
          (some (enum [ ("text", `Text); ("json", `Json) ]))
          None
      & info [ "telemetry" ] ~docv:"FORMAT"
          ~doc:"Print internal metrics (VM, shadow memory, construct pool, \
                profiler) after the report, as $(b,text) (default) or \
                $(b,json).")
  in
  let profile spec fuel top edges kinds trace_locals save telemetry fold warn
      static_prune engine =
    handle_errors (fun () ->
        let prog = load_program ~fold ~warn spec in
        let r =
          Alchemist.Profiler.run ~engine ~fuel ~trace_locals ~static_prune prog
        in
        Option.iter
          (fun path -> Alchemist.Profile_io.save r.Alchemist.Profiler.profile path)
          save;
        let kinds =
          match kinds with
          | `Raw -> [ Shadow.Dependence.Raw ]
          | `WarWaw -> [ Shadow.Dependence.War; Shadow.Dependence.Waw ]
          | `All ->
              [ Shadow.Dependence.Raw; Shadow.Dependence.War; Shadow.Dependence.Waw ]
        in
        print_string
          (Alchemist.Report.render ~top ~max_edges:edges ~kinds
             r.Alchemist.Profiler.profile);
        let s = r.Alchemist.Profiler.stats in
        Printf.printf
          "\n%d instructions, %d static / %d dynamic constructs, %d \
           dependence events, pool %d nodes (%d reused)\n"
          s.Alchemist.Profiler.instructions
          s.Alchemist.Profiler.static_constructs
          s.Alchemist.Profiler.dynamic_constructs
          s.Alchemist.Profiler.deps_detected s.Alchemist.Profiler.pool_allocated
          s.Alchemist.Profiler.pool_reused;
        if s.Alchemist.Profiler.event_pcs > 0 then
          Printf.printf "static analysis: %d of %d event pcs pruned%s\n"
            s.Alchemist.Profiler.pruned_pcs s.Alchemist.Profiler.event_pcs
            (if static_prune then "" else " (mask not applied)");
        match telemetry with
        | None -> ()
        | Some fmt ->
            let snap = Alchemist.Profiler.telemetry r in
            print_newline ();
            print_string
              (match fmt with
              | `Text -> Obs.render_text snap
              | `Json -> Obs.render_json snap ^ "\n"))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile dependence distances (Fig. 2/3-style report).")
    Term.(
      const profile $ src_arg $ fuel_arg $ top $ edges $ kinds $ trace_locals
      $ save $ telemetry $ fold_arg $ warn_arg $ static_prune_arg
      $ engine_arg)

(* --- rank ---------------------------------------------------------------- *)

let rank_cmd =
  let top =
    Arg.(
      value
      & opt (int_at_least 0) 15
      & info [ "top" ] ~doc:"Entries to list.")
  in
  let rank spec fuel top =
    handle_errors (fun () ->
        let prog = load_program spec in
        let facts = Alchemist.Profiler.prepare_facts prog in
        let r = Alchemist.Profiler.run ~fuel ~facts prog in
        let entries =
          Alchemist.Ranking.rank
            ~dep:(Alchemist.Profiler.facts_dep facts)
            r.Alchemist.Profiler.profile
        in
        List.iteri
          (fun i e ->
            if i < top then
              Format.printf "%2d. %a@." (i + 1) Alchemist.Ranking.pp_entry e)
          entries)
  in
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank parallelization candidates by size/violations.")
    Term.(const rank $ src_arg $ fuel_arg $ top)

(* --- simulate ------------------------------------------------------------ *)

let simulate_cmd =
  let loop_line =
    Arg.(
      value
      & opt (some int) None
      & info [ "loop-line" ] ~doc:"Parallelize the loop headed at this line.")
  in
  let proc =
    Arg.(
      value
      & opt (some string) None
      & info [ "proc" ] ~doc:"Parallelize calls to this procedure.")
  in
  let privatize =
    Arg.(
      value
      & opt (list string) []
      & info [ "privatize" ] ~doc:"Globals given thread-local copies.")
  in
  let reduce =
    Arg.(
      value
      & opt (list string) []
      & info [ "reduce" ] ~doc:"Globals rewritten as reductions.")
  in
  let gantt =
    Arg.(
      value & flag
      & info [ "gantt" ] ~doc:"Also draw the simulated schedule as ASCII.")
  in
  let simulate spec fuel loop_line proc cores privatize reduce gantt =
    handle_errors (fun () ->
        let prog = load_program spec in
        let head_pc =
          match (loop_line, proc) with
          | Some line, None -> Parsim.Speedup.loop_head_at_line prog line
          | None, Some name -> Parsim.Speedup.proc_head prog name
          | _ -> invalid_arg "pass exactly one of --loop-line or --proc"
        in
        let r =
          Parsim.Speedup.analyze ~fuel ~cores ~privatize ~reduce prog ~head_pc
        in
        Format.printf "%a@." Parsim.Speedup.pp_report r;
        if gantt then begin
          let privatized = Parsim.Transform.privatize_globals prog privatize in
          let reductions = Parsim.Transform.privatize_globals prog reduce in
          let g =
            Parsim.Task_graph.collect ~fuel ~privatized ~reductions prog ~head_pc
          in
          let s =
            Parsim.Scheduler.simulate
              ~config:{ Parsim.Scheduler.default_config with cores }
              g
          in
          print_string (Parsim.Gantt.render g s)
        end)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate future-style parallel execution of one construct.")
    Term.(
      const simulate $ src_arg $ fuel_arg $ loop_line $ proc $ cores_arg $ privatize
      $ reduce $ gantt)

(* --- advise --------------------------------------------------------------- *)

let advise_cmd =
  let loop_line =
    Arg.(
      value
      & opt (some int) None
      & info [ "loop-line" ] ~doc:"Advise on the loop headed at this line.")
  in
  let proc =
    Arg.(
      value
      & opt (some string) None
      & info [ "proc" ] ~doc:"Advise on this procedure.")
  in
  let top =
    Arg.(
      value
      & opt (int_at_least 0) 5
      & info [ "top" ] ~doc:"Without --loop-line/--proc: advise on the top N \
                             ranked constructs.")
  in
  let advise spec fuel loop_line proc top =
    handle_errors (fun () ->
        let prog = load_program spec in
        (* One analysis serves the run, the ranking and every advice. *)
        let facts = Alchemist.Profiler.prepare_facts prog in
        let dep = Alchemist.Profiler.facts_dep facts in
        let p =
          (Alchemist.Profiler.run ~fuel ~facts prog).Alchemist.Profiler.profile
        in
        let advise_cid cid =
          Format.printf "%a@.@." Alchemist.Advice.pp
            (Alchemist.Advice.advise ~dep p ~cid)
        in
        match (loop_line, proc) with
        | Some line, None ->
            advise_cid
              (Option.get
                 (Alchemist.Profile.cid_of_head_pc p
                    (Parsim.Speedup.loop_head_at_line prog line)))
        | None, Some name ->
            advise_cid
              (Option.get
                 (Alchemist.Profile.cid_of_head_pc p
                    (Parsim.Speedup.proc_head prog name)))
        | None, None ->
            Alchemist.Ranking.rank ~dep p
            |> List.iteri (fun i (e : Alchemist.Ranking.entry) ->
                   if i < top then advise_cid e.cid)
        | Some _, Some _ -> invalid_arg "pass at most one of --loop-line/--proc")
  in
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Suggest parallelization transforms (futures, joins, \
             privatization, hoisting).")
    Term.(const advise $ src_arg $ fuel_arg $ loop_line $ proc $ top)

(* --- report (from a saved profile) ------------------------------------------ *)

let report_cmd =
  let prof_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE" ~doc:"Saved profile (see profile --save).")
  in
  let top =
    Arg.(
      value
      & opt (int_at_least 0) 10
      & info [ "top" ] ~doc:"Constructs to list.")
  in
  let report spec prof_file top =
    handle_errors (fun () ->
        let prog = load_program spec in
        match Alchemist.Profile_io.load prog prof_file with
        | Error msg -> invalid_arg msg
        | Ok p ->
            print_string (Alchemist.Report.render ~top p);
            List.iteri
              (fun i (e : Alchemist.Ranking.entry) ->
                if i < top then
                  Format.printf "%2d. %a@." (i + 1) Alchemist.Ranking.pp_entry e)
              (Alchemist.Ranking.rank p))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render reports from a previously saved profile (offline use).")
    Term.(const report $ src_arg $ prof_file $ top)

(* --- explore ---------------------------------------------------------------- *)

let explore_cmd =
  let top =
    Arg.(
      value
      & opt (int_at_least 0) 8
      & info [ "top" ] ~doc:"Candidates to examine.")
  in
  let explore spec fuel cores top =
    handle_errors (fun () ->
        let prog = load_program spec in
        let t = Driver.Explore.explore ~fuel ~cores ~top prog in
        Format.printf "%a@." Driver.Explore.pp t;
        match Driver.Explore.best t with
        | Some c ->
            let r = Option.get c.Driver.Explore.simulated in
            Format.printf "@.best: %s at %.2fx on %d cores@."
              c.Driver.Explore.entry.Alchemist.Ranking.name
              r.Parsim.Speedup.speedup cores
        | None -> Format.printf "@.no parallelizable candidate found@.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Full workflow: profile, rank, advise, and simulate the top \
             candidates.")
    Term.(const explore $ src_arg $ fuel_arg $ cores_arg $ top)

(* --- profile-all ----------------------------------------------------------- *)

let profile_all_cmd =
  let jobs =
    Arg.(
      value
      & opt (int_at_least 1) (Driver.Scheduler.default_workers ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains (at least 1; default: cores - 1).")
  in
  let test_scale =
    Arg.(
      value & flag
      & info [ "test-scale" ]
          ~doc:"Use each workload's small test scale instead of the Table \
                III default.")
  in
  let save_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-dir" ] ~docv:"DIR"
          ~doc:"Also write each profile to DIR/NAME.prof.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"Add a per-shard breakdown (wall time, events, walk depth) \
                and the merged telemetry snapshot, including the sched.* \
                scheduler metrics.")
  in
  let profile_all fuel jobs test_scale save_dir telemetry =
    handle_errors (fun () ->
        let scale_of (w : Workloads.Workload.t) =
          if test_scale then w.test_scale else w.default_scale
        in
        (* Lend one scheduler to the registry sweep so --telemetry
           shows the sched.* metrics (queue depth, job latency). *)
        let sched = Driver.Scheduler.create ~workers:jobs () in
        let t0 = Unix.gettimeofday () in
        let results =
          Driver.Parallel.profile_registry ~sched ~jobs ~fuel ~scale_of ()
        in
        let wall = Unix.gettimeofday () -. t0 in
        Driver.Scheduler.drain sched;
        let sched_snap = Driver.Scheduler.telemetry sched in
        Driver.Scheduler.shutdown sched;
        Printf.printf "%-12s %14s %12s %10s\n" "workload" "instructions"
          "dep events" "constructs";
        List.iter
          (fun ((w : Workloads.Workload.t), (r : Alchemist.Profiler.result)) ->
            let s = r.Alchemist.Profiler.stats in
            Printf.printf "%-12s %14d %12d %10d\n" w.name
              s.Alchemist.Profiler.instructions
              s.Alchemist.Profiler.deps_detected
              s.Alchemist.Profiler.dynamic_constructs;
            Option.iter
              (fun dir ->
                Alchemist.Profile_io.save r.Alchemist.Profiler.profile
                  (Filename.concat dir (w.name ^ ".prof")))
              save_dir)
          results;
        Printf.printf "\n%d workloads in %.2fs on %d domain(s)\n"
          (List.length results) wall jobs;
        if telemetry then begin
          (* Per-shard: each run's registry carries its own driver.shard_wall
             timer, so the breakdown shows where the domains spent time. *)
          let snaps =
            List.map
              (fun (_, (r : Alchemist.Profiler.result)) ->
                Alchemist.Profiler.telemetry r)
              results
          in
          Printf.printf "\n%-12s %10s %12s %12s %10s\n" "shard" "wall(ms)"
            "vm instrs" "shadow evts" "max depth";
          List.iter2
            (fun ((w : Workloads.Workload.t), _) snap ->
              let wall_ns =
                Option.value ~default:0 (Obs.find_span_ns snap "driver.shard_wall")
              in
              let count name =
                Option.value ~default:0 (Obs.find_count snap name)
              in
              let depth =
                match Obs.find snap "tree.depth" with
                | Some (Obs.Level { hwm; _ }) -> hwm
                | _ -> 0
              in
              Printf.printf "%-12s %10.1f %12d %12d %10d\n" w.name
                (float_of_int wall_ns /. 1e6)
                (count "vm.instructions") (count "shadow.events") depth)
            results snaps;
          print_newline ();
          print_string (Obs.render_text (Obs.merge (Obs.merge_all snaps) sched_snap))
        end)
  in
  Cmd.v
    (Cmd.info "profile-all"
       ~doc:"Profile every bundled workload, sharded across CPU cores.")
    Term.(
      const profile_all $ fuel_arg $ jobs $ test_scale $ save_dir $ telemetry)

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt (int_at_least 1) (Driver.Scheduler.default_workers ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains in the profiling pool (at least 1; default: \
                cores - 1).")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"After each drain, print a throughput summary (jobs/s, cache \
                hit rate, queue depth, job-latency p50/p99) and the full \
                merged metric snapshot to stderr.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Back the in-memory profile cache with an on-disk store \
                (one .prof file per key; created if missing). Warm results \
                survive across serve processes.")
  in
  let cache_capacity =
    Arg.(
      value
      & opt (int_at_least 1) Driver.Cache.default_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"In-memory cache entries before LRU eviction (at least 1).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a unix domain socket instead of stdin, serving \
                clients one at a time until killed. Each connection speaks \
                the same newline-delimited protocol and is drained on \
                disconnect. A stale socket at PATH is replaced; any other \
                file there is an error and is left alone.")
  in
  let serve jobs telemetry cache_dir cache_capacity socket =
    handle_errors (fun () ->
        let cache =
          Driver.Cache.create ~capacity:cache_capacity ?dir:cache_dir ()
        in
        let svc = Driver.Service.create ~workers:jobs ~cache () in
        (* Per-drain deltas for the stderr summary. *)
        let last_requests = ref 0 and last_time = ref (Unix.gettimeofday ()) in
        let drains = ref 0 in
        let drain_telemetry () =
          let snap = Driver.Service.telemetry svc in
          let count n = Option.value ~default:0 (Obs.find_count snap n) in
          let requests = count "service.requests" in
          let now = Unix.gettimeofday () in
          let batch = requests - !last_requests in
          let dt = now -. !last_time in
          incr drains;
          let hits = count "cache.hits" + count "cache.disk_hits" in
          let lookups = hits + count "cache.misses" in
          let pctl p =
            match Obs.dist_percentile_upper snap "sched.job_latency_ns" p with
            | Some ns -> Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)
            | None -> "n/a"
          in
          Printf.eprintf
            "# drain %d: %d request(s) in %.3fs (%.1f jobs/s) | cache %d/%d \
             hit | queue hwm %d | latency p50<=%s p99<=%s\n"
            !drains batch dt
            (if dt > 0. then float_of_int batch /. dt else 0.)
            hits lookups
            (match Obs.find snap "sched.queue_depth" with
            | Some (Obs.Level { hwm; _ }) -> hwm
            | _ -> 0)
            (pctl 50) (pctl 99);
          prerr_string (Obs.render_text snap);
          flush stderr;
          last_requests := requests;
          last_time := now
        in
        let serve_channel ic oc =
          let emit r =
            output_string oc (Driver.Service.render_reply r);
            output_char oc '\n';
            flush oc
          in
          let drain_now () =
            List.iter emit (Driver.Service.drain svc);
            if telemetry then drain_telemetry ()
          in
          (try
             while true do
               let line = input_line ic in
               match Driver.Service.feed svc line with
               | `Queued ->
                   (* Stream whatever prefix of submission order has
                      already completed; stragglers follow later. *)
                   List.iter emit (Driver.Service.ready svc)
               | `Drain -> drain_now ()
               | `Skip -> ()
             done
           with End_of_file -> ());
          List.iter emit (Driver.Service.drain svc);
          if telemetry then drain_telemetry ()
        in
        (match socket with
        | None -> serve_channel stdin stdout
        | Some path ->
            (* Set-up failures name PATH and exit 1 through
               [handle_errors], never as an uncaught exception. *)
            let fail fn e =
              raise
                (Sys_error
                   (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))
            in
            (* Only a socket (a previous serve's) is ours to replace. *)
            (match Unix.lstat path with
            | { Unix.st_kind = Unix.S_SOCK; _ } -> Sys.remove path
            | _ -> raise (Sys_error (path ^ ": exists and is not a socket"))
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
            | exception Unix.Unix_error (e, fn, _) -> fail fn e);
            let sock =
              try Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
              with Unix.Unix_error (e, fn, _) -> fail fn e
            in
            (try
               Unix.bind sock (Unix.ADDR_UNIX path);
               Unix.listen sock 8
             with Unix.Unix_error (e, fn, _) ->
               (try Unix.close sock with Unix.Unix_error _ -> ());
               fail fn e);
            (* A client that hangs up makes the next reply write raise
               [Sys_error] instead of killing the server. The
               connection's outstanding replies are then drained and
               dropped (their profiles stay cached), so none reaches
               the next client. *)
            Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
            let rec accept_loop () =
              let fd, _ = Unix.accept sock in
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              (try serve_channel ic oc
               with Sys_error _ | Unix.Unix_error _ ->
                 ignore (Driver.Service.drain svc));
              (try Unix.close fd with Unix.Unix_error _ -> ());
              accept_loop ()
            in
            accept_loop ());
        Driver.Service.shutdown svc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the profile registry as a service: newline-delimited \
             profiling requests on stdin (or a unix socket), replies \
             streamed back in submission order, backed by a pool of \
             worker domains fed from one FIFO queue and the \
             content-addressed profile cache."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Each request line is $(b,SPEC [fuel=N] [trace_locals=B] \
              [pool_capacity=N] [scan_limit=N] [save=PATH]) where SPEC is \
              workload:NAME[:SCALE], with SCALE a positive integer, or a Mini-C \
              file. A request whose profile-determining inputs (program \
              code, global data, fuel, trace_locals, pool) match a cached \
              run is answered from the cache without profiling; an on-disk \
              entry is served only if it reads back as a profile of the \
              request's program, and is recomputed otherwise. The bare \
              word $(b,drain) waits for all outstanding jobs; EOF drains \
              and exits. Replies: $(b,ok SEQ SPEC key=K hit|disk-hit|miss \
              bytes=N [saved=PATH]) or $(b,error SEQ SPEC: message).";
         ])
    Term.(
      const serve $ jobs $ telemetry $ cache_dir $ cache_capacity $ socket)

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Check every bundled workload instead of one SRC.")
  in
  let test_scale =
    Arg.(
      value & flag
      & info [ "test-scale" ]
          ~doc:"With --all: use each workload's small test scale.")
  in
  let src =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SRC" ~doc:"Mini-C file, or workload:NAME[:SCALE].")
  in
  let prof_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Sanitize this saved profile against SRC instead of \
                profiling in-process.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON document: per-workload pass/fail, violation \
             counts by sanitizer category, and validated-edge counts.")
  in
  (* One workload's checks; returns the number of problems found plus
     the sanitizer issues and validated-edge counts (for --json). The
     in-process variant is the full gauntlet: CFA validation,
     prune-on/off byte-identity, serialization round-trip, and the
     sanitizer over the round-tripped profile. *)
  let check_one ~quiet ~fuel name prog saved =
    let problems = ref 0 in
    let issues = ref [] in
    let distbound_edges = ref 0 in
    let legality_edges = ref 0 in
    let race_constructs = ref 0 in
    let fail fmt =
      incr problems;
      Printf.ksprintf
        (fun m -> if not quiet then Printf.printf "%s: FAIL: %s\n" name m)
        fmt
    in
    let facts = Alchemist.Profiler.prepare_facts prog in
    List.iter
      (fun m -> fail "cfa validation: %s" m)
      (Cfa.Analysis.validate prog (Alchemist.Profiler.facts_analysis facts));
    let dep = Alchemist.Profiler.facts_dep facts in
    let sanitize what p =
      let found = Alchemist.Sanitize.check ~dep p in
      issues := !issues @ found;
      List.iter
        (fun i ->
          fail "%s: %s" what
            (Format.asprintf "%a" Alchemist.Sanitize.pp_issue i))
        found
    in
    (* How many recorded edges carry a proven distance lower bound or a
       transform-legality verdict (each one a dynamic-vs-static
       cross-validation the sanitizer enforced). *)
    let report_validated (p : Alchemist.Profile.t) =
      let count counter n what =
        counter := n;
        if n > 0 && not quiet then Printf.printf "%s: %d %s\n" name n what
      in
      match p.Alchemist.Profile.static with
      | None -> ()
      | Some s ->
          count distbound_edges (List.length s.distbounds)
            "edge(s) validated against static distance bounds";
          count legality_edges (List.length s.legality)
            "edge(s) carry transform-legality verdicts";
          count race_constructs (List.length s.race)
            "construct(s) carry race-detector statuses"
    in
    (match saved with
    | Some p ->
        sanitize "saved profile" p;
        report_validated p
    | None ->
        let on =
          (Alchemist.Profiler.run ~fuel ~facts ~static_prune:true prog)
            .Alchemist.Profiler.profile
        in
        let off =
          (Alchemist.Profiler.run ~fuel ~facts ~static_prune:false prog)
            .Alchemist.Profiler.profile
        in
        let s_on = Alchemist.Profile_io.to_string on in
        let s_off = Alchemist.Profile_io.to_string off in
        if not (String.equal s_on s_off) then
          fail "prune-on and prune-off profiles differ";
        (match Alchemist.Profile_io.read prog s_on with
        | Error msg -> fail "round-trip read: %s" msg
        | Ok p2 ->
            if not (String.equal (Alchemist.Profile_io.to_string p2) s_on) then
              fail "round-trip re-serialization differs";
            sanitize "profile" p2;
            report_validated p2));
    if !problems = 0 && not quiet then Printf.printf "%s: OK\n" name;
    (name, !problems, !issues, !distbound_edges, !legality_edges,
     !race_constructs)
  in
  let render_json results =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"workloads\": [\n";
    List.iteri
      (fun i (name, problems, issues, db, leg, race) ->
        let count c =
          List.length
            (List.filter
               (fun (x : Alchemist.Sanitize.issue) -> x.category = c)
               issues)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"name\": %S, \"pass\": %b, \"problems\": %d,\n\
             \     \"violations\": {%s},\n\
             \     \"validated_distbound_edges\": %d, \
              \"validated_legality_edges\": %d, \
              \"validated_race_constructs\": %d}%s\n"
             name (problems = 0) problems
             (String.concat ", "
                (List.map
                   (fun c ->
                     Printf.sprintf "%S: %d"
                       (Alchemist.Sanitize.category_to_string c)
                       (count c))
                   Alchemist.Sanitize.all_categories))
             db leg race
             (if i = List.length results - 1 then "" else ",")))
      results;
    let failures =
      List.fold_left (fun acc (_, p, _, _, _, _) -> acc + min 1 p) 0 results
    in
    Buffer.add_string buf
      (Printf.sprintf "  ],\n  \"failed_workloads\": %d\n}\n" failures);
    Buffer.contents buf
  in
  let check src all test_scale prof_file json fuel =
    handle_errors (fun () ->
        let results =
          match (all, src) with
          | true, None ->
              List.map
                (fun (w : Workloads.Workload.t) ->
                  let scale =
                    if test_scale then w.test_scale else w.default_scale
                  in
                  let prog = Workloads.Workload.compile w ~scale in
                  check_one ~quiet:json ~fuel w.name prog None)
                Workloads.Registry.all
          | false, Some spec ->
              let prog = load_program spec in
              let saved =
                Option.map
                  (fun f ->
                    match Alchemist.Profile_io.load prog f with
                    | Ok p -> p
                    | Error msg -> invalid_arg msg)
                  prof_file
              in
              [ check_one ~quiet:json ~fuel spec prog saved ]
          | _ -> invalid_arg "pass exactly one of SRC or --all"
        in
        if json then print_string (render_json results);
        let failures =
          List.fold_left (fun acc (_, p, _, _, _, _) -> acc + min 1 p) 0 results
        in
        if failures > 0 then
          invalid_arg (Printf.sprintf "%d check(s) failed" failures))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Sanitize dynamic profiles against the static dependence \
             analysis (and validate the CFA, prune byte-identity, and \
             serialization round-trip).")
    Term.(
      const check $ src $ all $ test_scale $ prof_file $ json_flag $ fuel_arg)

(* --- verify ---------------------------------------------------------------- *)

let verify_cmd =
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Verify every bundled workload instead of one SRC.")
  in
  let test_scale =
    Arg.(
      value & flag
      & info [ "test-scale" ]
          ~doc:"With --all: use each workload's small test scale.")
  in
  let src =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SRC" ~doc:"Mini-C file, or workload:NAME[:SCALE].")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON document: per-workload status counts plus every \
             racy construct with its interference witnesses.")
  in
  (* One program's verification: run the static race detector over every
     spawnable construct (loops and procedures — conditionals spawn no
     concurrent units) and report the verdicts. Purely static: no
     profiling run is needed. *)
  let verify_one name prog =
    let dep = Static.Depend.analyze prog in
    let race = Static.Depend.race dep in
    let rows =
      Array.to_list prog.Vm.Program.constructs
      |> List.filter_map (fun (c : Vm.Program.construct_info) ->
             Option.map
               (fun v -> (c, v))
               (Static.Race.verdict race ~cid:c.Vm.Program.cid))
    in
    (name, rows)
  in
  let pp_witness (w : Static.Race.witness) =
    Printf.sprintf "%s pc %d (line %d) <-> pc %d (line %d) on %s"
      (Static.Race.kind_to_string w.Static.Race.kind)
      w.Static.Race.pc1 w.Static.Race.line1 w.Static.Race.pc2
      w.Static.Race.line2 w.Static.Race.cell
  in
  let render_text (name, rows) =
    Printf.printf "%s:\n" name;
    let free = ref 0 and racy = ref 0 and unknown = ref 0 in
    List.iter
      (fun ((c : Vm.Program.construct_info), v) ->
        let cname = Format.asprintf "%a" Vm.Program.pp_construct c in
        match v with
        | Static.Race.Race_free ->
            incr free;
            Printf.printf "  %s: race-free\n" cname
        | Static.Race.Unknown reason ->
            incr unknown;
            Printf.printf "  %s: unknown (%s)\n" cname reason
        | Static.Race.Racy ws ->
            incr racy;
            Printf.printf "  %s: racy (%d witness%s)\n" cname (List.length ws)
              (if List.length ws = 1 then "" else "es");
            List.iter (fun w -> Printf.printf "    %s\n" (pp_witness w)) ws)
      rows;
    Printf.printf "  summary: %d race-free, %d racy, %d unknown\n" !free !racy
      !unknown
  in
  let render_json results =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n  \"workloads\": [\n";
    let total_racy = ref 0 in
    List.iteri
      (fun i (name, rows) ->
        let count p = List.length (List.filter (fun (_, v) -> p v) rows) in
        let free = count (fun v -> v = Static.Race.Race_free) in
        let unknown =
          count (function Static.Race.Unknown _ -> true | _ -> false)
        in
        let racy_rows =
          List.filter
            (fun (_, v) ->
              match v with Static.Race.Racy _ -> true | _ -> false)
            rows
        in
        total_racy := !total_racy + List.length racy_rows;
        let racy_json =
          String.concat ", "
            (List.map
               (fun ((c : Vm.Program.construct_info), v) ->
                 let witnesses =
                   match v with Static.Race.Racy ws -> ws | _ -> []
                 in
                 Printf.sprintf
                   "{\"cid\": %d, \"name\": %S, \"witnesses\": [%s]}"
                   c.Vm.Program.cid
                   (Format.asprintf "%a" Vm.Program.pp_construct c)
                   (String.concat ", "
                      (List.map
                         (fun (w : Static.Race.witness) ->
                           Printf.sprintf
                             "{\"kind\": %S, \"pc1\": %d, \"line1\": %d, \
                              \"pc2\": %d, \"line2\": %d, \"cell\": %S}"
                             (Static.Race.kind_to_string w.Static.Race.kind)
                             w.Static.Race.pc1 w.Static.Race.line1
                             w.Static.Race.pc2 w.Static.Race.line2
                             w.Static.Race.cell)
                         witnesses)))
               racy_rows)
        in
        Buffer.add_string buf
          (Printf.sprintf
             "    {\"name\": %S, \"constructs\": %d, \"race_free\": %d, \
              \"racy\": %d, \"unknown\": %d,\n\
             \     \"racy_constructs\": [%s]}%s\n"
             name (List.length rows) free (List.length racy_rows) unknown
             racy_json
             (if i = List.length results - 1 then "" else ",")))
      results;
    Buffer.add_string buf
      (Printf.sprintf "  ],\n  \"total_racy\": %d\n}\n" !total_racy);
    Buffer.contents buf
  in
  let verify src all test_scale json =
    handle_errors (fun () ->
        let results =
          match (all, src) with
          | true, None ->
              List.map
                (fun (w : Workloads.Workload.t) ->
                  let scale =
                    if test_scale then w.test_scale else w.default_scale
                  in
                  verify_one w.name (Workloads.Workload.compile w ~scale))
                Workloads.Registry.all
          | false, Some spec -> [ verify_one spec (load_program spec) ]
          | _ -> invalid_arg "pass exactly one of SRC or --all"
        in
        if json then print_string (render_json results)
        else List.iter render_text results)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Statically verify profile-advised parallelizations: run the \
             race detector over every loop and procedure construct and \
             report race-free/racy/unknown verdicts with interference \
             witnesses.")
    Term.(const verify $ src $ all $ test_scale $ json_flag)

(* --- disasm / workloads --------------------------------------------------- *)

let disasm_cmd =
  let ir_arg =
    Arg.(
      value & flag
      & info [ "ir" ]
          ~doc:
            "Also show the register IR: stack bytecode on the left, the \
             graph-colored three-address code the register engine executes \
             on the right, aligned by the instruction-clock segments each \
             IR instruction owns.")
  in
  let disasm spec ir =
    handle_errors (fun () ->
        let prog = load_program spec in
        if ir then print_string (Ir.Disasm.to_string prog)
        else print_string (Vm.Disasm.to_string prog))
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Disassemble the compiled bytecode, optionally side by side with \
          the allocated register IR.")
    Term.(const disasm $ src_arg $ ir_arg)

let workloads_cmd =
  let list () =
    handle_errors (fun () ->
        List.iter
          (fun (w : Workloads.Workload.t) ->
            Printf.printf "%-12s scale=%-7d %s\n" w.name w.default_scale
              w.description)
          Workloads.Registry.all)
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the bundled Table III benchmarks.")
    Term.(const list $ const ())

let main_cmd =
  Cmd.group
    (Cmd.info "alchemist" ~version:"1.0.0"
       ~doc:"Transparent dependence distance profiling (CGO 2009 reproduction).")
    [
      run_cmd;
      profile_cmd;
      rank_cmd;
      simulate_cmd;
      advise_cmd;
      explore_cmd;
      profile_all_cmd;
      serve_cmd;
      report_cmd;
      check_cmd;
      verify_cmd;
      disasm_cmd;
      workloads_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
