type request = { head_pc : int; privatize : string list; reduce : string list }

type report = {
  construct : string;
  head_pc : int;
  seq_instructions : int;
  par_instructions : int;
  speedup : float;
  tasks : int;
  constraints : int;
  cross_deps : int;
  dropped_privatized : int;
  stall_time : int;
  race_refusal : string option;
}

(* The race gate: a construct the static detector calls racy gets no
   dropped edges at all — not the legality engine's proven ranges, not
   the hand-named lists. Simulating a schedule that ignores ordering
   edges at a construct with a known interference witness would report
   a speedup no real spawn could safely realize. *)
let race_refusal race (prog : Vm.Program.t) ~head_pc =
  match race with
  | None -> None
  | Some r -> (
      match Vm.Program.construct_at prog head_pc with
      | Some c
        when Static.Race.status r ~cid:c.Vm.Program.cid
             = Some Static.Race.Status.Racy ->
          Some
            (Printf.sprintf
               "refusing to drop edges: the static race detector calls %s \
                racy (%s)"
               (Format.asprintf "%a" Vm.Program.pp_construct c)
               (Static.Race.explain r ~cid:c.Vm.Program.cid))
      | _ -> None)

let analyze_many ?fuel ?trace_locals ?(cores = 4) ?spawn_overhead
    ?join_overhead ?legality ?race (prog : Vm.Program.t) (requests : request list) =
  let refusals =
    List.map
      (fun (rq : request) -> race_refusal race prog ~head_pc:rq.head_pc)
      requests
  in
  let sites =
    List.map2
      (fun (rq : request) refusal ->
        let proven_priv, proven_red =
          match legality with
          | None -> ([], [])
          | Some l -> Transform.legality_ranges l ~head_pc:rq.head_pc
        in
        let privatized, reductions =
          if refusal <> None then ([], [])
          else
            ( Transform.privatize_globals prog rq.privatize @ proven_priv,
              Transform.privatize_globals prog rq.reduce @ proven_red )
        in
        { Task_graph.head_pc = rq.head_pc; privatized; reductions })
      requests refusals
  in
  let config =
    {
      Scheduler.cores;
      spawn_overhead =
        Option.value ~default:Scheduler.default_config.Scheduler.spawn_overhead
          spawn_overhead;
      join_overhead =
        Option.value ~default:Scheduler.default_config.Scheduler.join_overhead
          join_overhead;
    }
  in
  (* Each graph is scheduled as soon as it is built and dropped after. *)
  let simulated =
    Task_graph.collect_many ?fuel ?trace_locals prog sites ~f:(fun g ->
        ( Scheduler.simulate ~config g,
          List.length g.Task_graph.constraints,
          g.Task_graph.cross_deps,
          g.Task_graph.dropped_privatized ))
  in
  List.map2
    (fun ((rq : request), race_refusal)
         (s, constraints, cross_deps, dropped_privatized) ->
      let construct =
        match Vm.Program.construct_at prog rq.head_pc with
        | Some c -> Format.asprintf "%a" Vm.Program.pp_construct c
        | None -> Printf.sprintf "pc %d" rq.head_pc
      in
      {
        construct;
        head_pc = rq.head_pc;
        seq_instructions = s.Scheduler.seq_time;
        par_instructions = s.Scheduler.par_time;
        speedup = s.Scheduler.speedup;
        tasks = s.Scheduler.tasks;
        constraints;
        cross_deps;
        dropped_privatized;
        stall_time = s.Scheduler.stall_time;
        race_refusal;
      })
    (List.combine requests refusals)
    simulated

let analyze ?fuel ?trace_locals ?cores ?spawn_overhead ?join_overhead
    ?(privatize = []) ?(reduce = []) ?legality ?race prog ~head_pc =
  match
    analyze_many ?fuel ?trace_locals ?cores ?spawn_overhead ?join_overhead
      ?legality ?race prog
      [ { head_pc; privatize; reduce } ]
  with
  | [ r ] -> r
  | _ -> assert false

let loop_head_at_line (prog : Vm.Program.t) line =
  let found = ref None in
  Array.iter
    (fun (c : Vm.Program.construct_info) ->
      if
        c.kind = Vm.Program.CLoop
        && c.loc.Minic.Srcloc.line = line
        && !found = None
      then found := Some c.head_pc)
    prog.constructs;
  match !found with
  | Some pc -> pc
  | None -> invalid_arg (Printf.sprintf "Speedup.loop_head_at_line: %d" line)

let proc_head (prog : Vm.Program.t) name =
  match Vm.Program.find_func prog name with
  | Some f -> f.entry
  | None -> invalid_arg (Printf.sprintf "Speedup.proc_head: %s" name)

let pp_report ppf r =
  Format.fprintf ppf
    "%s: seq=%d par=%d speedup=%.2f tasks=%d constraints=%d (deps=%d, \
     privatized=%d, stalls=%d)"
    r.construct r.seq_instructions r.par_instructions r.speedup r.tasks
    r.constraints r.cross_deps r.dropped_privatized r.stall_time;
  Option.iter (fun d -> Format.fprintf ppf "\n  %s" d) r.race_refusal
