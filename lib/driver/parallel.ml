let map ?sched ~jobs f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else
    let jobs = max 1 (min jobs n) in
    if jobs = 1 && Option.is_none sched then Array.map f xs
    else begin
      (* A client of the scheduler: submit every item, await in index
         order. Workers take items from one queue as they free up, so
         uneven item costs balance, with the cancellation contract on
         top. The pool is one-shot unless the caller lends its own
         ([sched]), as profile-all does so that --telemetry shows the
         sched.* metrics. *)
      let own_sched = Option.is_none sched in
      let sched =
        match sched with
        | Some s -> s
        | None -> Scheduler.create ~workers:jobs ()
      in
      (* First error cancels the run: workers check the flag before
         starting an item, so a poisoned item stops the remaining work
         instead of draining the whole queue (items already in flight
         finish). *)
      let cancelled = Atomic.make false in
      let promises =
        Array.map
          (fun x ->
            Scheduler.submit sched (fun () ->
                if Atomic.get cancelled then None
                else
                  match f x with
                  | v -> Some v
                  | exception e ->
                      let bt = Printexc.get_raw_backtrace () in
                      Atomic.set cancelled true;
                      Printexc.raise_with_backtrace e bt))
          xs
      in
      let results = Array.map Scheduler.await_result promises in
      if own_sched then Scheduler.shutdown sched;
      (* Re-raise the first failure in index order (skipped items can
         precede it; they are unobservable once we raise). *)
      Array.iter
        (function
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
        results;
      Array.map
        (function Ok (Some v) -> v | Ok None | Error _ -> assert false)
        results
    end

let merge_profiles = function
  | [] -> invalid_arg "Parallel.merge_profiles: empty list"
  | p :: ps -> List.fold_left Alchemist.Profile.merge p ps

(* Each shard gets its own registry (no cross-domain contention) with a
   [driver.shard_wall] timer wrapped around the profiled execution; the
   caller can merge shard snapshots with [Obs.merge_all]. *)
let timed_run ?fuel ?trace_locals prog =
  let obs = Obs.Registry.create () in
  let shard_wall = Obs.Registry.timer obs "driver.shard_wall" in
  Obs.Timer.start shard_wall;
  let r = Alchemist.Profiler.run ?fuel ?trace_locals ~obs prog in
  Obs.Timer.stop shard_wall;
  r

let profile_programs ?(jobs = Scheduler.default_workers ()) ?fuel
    ?trace_locals ?obs = function
  | [] -> invalid_arg "Parallel.profile_programs: empty list"
  | progs ->
      let results =
        map ~jobs
          (fun prog ->
            (timed_run ?fuel ?trace_locals prog).Alchemist.Profiler.profile)
          (Array.of_list progs)
      in
      let merge () = merge_profiles (Array.to_list results) in
      (match obs with
      | None -> merge ()
      | Some reg ->
          let mt = Obs.Registry.timer reg "driver.merge_wall" in
          Obs.Counter.add
            (Obs.Registry.counter reg "driver.shards")
            (Array.length results);
          Obs.Timer.time mt merge)

let profile_registry ?sched ?(jobs = Scheduler.default_workers ()) ?fuel
    ?(scale_of = fun (w : Workloads.Workload.t) -> w.default_scale) () =
  let compiled =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w, Workloads.Workload.compile w ~scale:(scale_of w)))
      Workloads.Registry.all
    |> Array.of_list
  in
  map ?sched ~jobs
    (fun ((w : Workloads.Workload.t), prog) ->
      (w, timed_run ?fuel prog))
    compiled
  |> Array.to_list
