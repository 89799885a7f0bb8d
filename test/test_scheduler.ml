(* The job scheduler: result integrity under parallel execution, FIFO
   order, error capture, the submit-while-running and drain/shutdown
   lifecycle, and the sched.* telemetry invariants. *)

module Scheduler = Driver.Scheduler

let check = Alcotest.check

let test_submit_await_all () =
  let s = Scheduler.create ~workers:4 () in
  let ps =
    List.init 150 (fun i -> (i, Scheduler.submit s (fun () -> (i * i) + 1)))
  in
  List.iter
    (fun (i, p) ->
      check Alcotest.int
        (Printf.sprintf "job %d" i)
        ((i * i) + 1)
        (Scheduler.await p))
    ps;
  Scheduler.shutdown s

let test_uneven_costs_balance () =
  (* one huge item among many tiny ones: the tail must not be stranded
     behind it *)
  let s = Scheduler.create ~workers:3 () in
  let work i =
    let n = if i = 0 then 300_000 else 50 in
    let acc = ref 0 in
    for k = 1 to n do
      acc := !acc + k
    done;
    !acc
  in
  let ps = List.init 30 (fun i -> Scheduler.submit s (fun () -> work i)) in
  Scheduler.drain s;
  List.iteri
    (fun i p ->
      check Alcotest.int
        (Printf.sprintf "job %d" i)
        (work i) (Scheduler.await p))
    ps;
  Scheduler.shutdown s

let test_error_capture () =
  let s = Scheduler.create ~workers:2 () in
  let good = Scheduler.submit s (fun () -> 7) in
  let bad = Scheduler.submit s (fun () -> failwith "boom") in
  check Alcotest.int "good job unaffected" 7 (Scheduler.await good);
  (match Scheduler.await_result bad with
  | Error (Failure m, _) -> check Alcotest.string "message kept" "boom" m
  | Error _ -> Alcotest.fail "wrong exception"
  | Ok _ -> Alcotest.fail "failed job returned Ok");
  Alcotest.check_raises "await re-raises" (Failure "boom") (fun () ->
      ignore (Scheduler.await bad));
  Scheduler.shutdown s

let test_submit_while_running () =
  (* the pool is persistent: a second batch goes in after (and during)
     the first, unlike the one-shot Parallel.map *)
  let s = Scheduler.create ~workers:2 () in
  let first = List.init 20 (fun i -> Scheduler.submit s (fun () -> i)) in
  (* jobs submit further jobs while workers are busy (fire-and-forget:
     awaiting a nested job from inside a job could idle every worker) *)
  let nested_lock = Mutex.create () in
  let nested = ref [] in
  let second =
    List.init 20 (fun i ->
        Scheduler.submit s (fun () ->
            let p = Scheduler.submit s (fun () -> 100 + i) in
            Mutex.lock nested_lock;
            nested := p :: !nested;
            Mutex.unlock nested_lock;
            i))
  in
  (* drain covers the nested jobs too: they were pending before their
     parents completed *)
  Scheduler.drain s;
  List.iteri
    (fun i p -> check Alcotest.int "first batch" i (Scheduler.await p))
    first;
  List.iteri
    (fun i p -> check Alcotest.int "second batch" i (Scheduler.await p))
    second;
  let nested_sum =
    List.fold_left (fun a p -> a + Scheduler.await p) 0 !nested
  in
  check Alcotest.int "all nested jobs ran" (20 * 100 + (19 * 20 / 2)) nested_sum;
  Scheduler.shutdown s

let test_poll_and_drain () =
  let s = Scheduler.create ~workers:2 () in
  let p = Scheduler.submit s (fun () -> 1) in
  Scheduler.drain s;
  check Alcotest.bool "drained job polls done" true (Scheduler.poll p);
  (* drain with nothing outstanding returns immediately *)
  Scheduler.drain s;
  Scheduler.shutdown s

let test_shutdown_semantics () =
  let s = Scheduler.create ~workers:2 () in
  let ps = List.init 10 (fun i -> Scheduler.submit s (fun () -> i * 2)) in
  (* queued jobs finish during shutdown *)
  Scheduler.shutdown s;
  List.iteri
    (fun i p -> check Alcotest.int "pre-shutdown job" (i * 2) (Scheduler.await p))
    ps;
  Alcotest.check_raises "post-shutdown submit rejected"
    (Invalid_argument "Scheduler.submit: scheduler is shut down") (fun () ->
      ignore (Scheduler.submit s (fun () -> ())));
  (* idempotent *)
  Scheduler.shutdown s

let test_telemetry_invariants () =
  let s = Scheduler.create ~workers:4 () in
  let n = 120 in
  let ps =
    List.init n (fun i ->
        Scheduler.submit s (fun () ->
            let acc = ref 0 in
            for k = 1 to 2_000 + (i * 37 mod 5_000) do
              acc := !acc + k
            done;
            !acc))
  in
  Scheduler.drain s;
  List.iter (fun p -> ignore (Scheduler.await p)) ps;
  let snap = Scheduler.telemetry s in
  Scheduler.shutdown s;
  let count name = Option.value ~default:(-1) (Obs.find_count snap name) in
  check Alcotest.int "every submission executed exactly once" n
    (count "sched.jobs");
  check Alcotest.int "submitted counter" n (count "sched.submitted");
  check Alcotest.bool "latency histogram saw every job" true
    (match Obs.find snap "sched.job_latency_ns" with
    | Some (Obs.Dist { count = c; _ }) -> c = n
    | _ -> false);
  (match Obs.find snap "sched.queue_depth" with
  | Some (Obs.Level { last; hwm }) ->
      check Alcotest.int "queue empty after drain" 0 last;
      check Alcotest.bool "queue depth hwm observed" true (hwm > 0)
  | _ -> Alcotest.fail "no queue_depth gauge")

let test_fifo_order () =
  (* one worker takes jobs oldest first, so they run in submission
     order; only that worker writes the log, and drain publishes it *)
  let s = Scheduler.create ~workers:1 () in
  let log = ref [] in
  let n = 50 in
  for i = 0 to n - 1 do
    ignore (Scheduler.submit s (fun () -> log := i :: !log))
  done;
  Scheduler.drain s;
  check
    Alcotest.(list int)
    "jobs ran in submission order" (List.init n Fun.id) (List.rev !log);
  Scheduler.shutdown s

let test_telemetry_mid_flight () =
  (* one registry under the scheduler's mutex: a snapshot taken while
     the only worker is blocked in a job counts exactly, not only after
     drain *)
  let s = Scheduler.create ~workers:1 () in
  let started = Atomic.make false and release = Atomic.make false in
  let blocker =
    Scheduler.submit s (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let queued = List.init 3 (fun i -> Scheduler.submit s (fun () -> i)) in
  let snap = Scheduler.telemetry s in
  let count snap name =
    Option.value ~default:(-1) (Obs.find_count snap name)
  in
  let depth snap =
    match Obs.find snap "sched.queue_depth" with
    | Some (Obs.Level { last; _ }) -> last
    | _ -> -1
  in
  let completed snap =
    match Obs.find snap "sched.job_latency_ns" with
    | Some (Obs.Dist { count; _ }) -> count
    | _ -> -1
  in
  check Alcotest.int "submitted mid-flight" 4 (count snap "sched.submitted");
  check Alcotest.int "only the blocker taken" 1 (count snap "sched.jobs");
  check Alcotest.int "three queued behind the blocker" 3 (depth snap);
  check Alcotest.int "none completed mid-flight" 0 (completed snap);
  Atomic.set release true;
  Scheduler.await blocker;
  List.iteri
    (fun i p -> check Alcotest.int "queued job" i (Scheduler.await p))
    queued;
  Scheduler.drain s;
  let snap = Scheduler.telemetry s in
  check Alcotest.int "all taken" 4 (count snap "sched.jobs");
  check Alcotest.int "all completed" 4 (completed snap);
  check Alcotest.int "queue empty" 0 (depth snap);
  Scheduler.shutdown s

let test_many_workers_stress () =
  (* more workers than jobs, then more jobs than workers, repeatedly —
     shaking out lost-wakeup bugs in the sleep protocol *)
  let s = Scheduler.create ~workers:8 () in
  for round = 1 to 20 do
    let ps = List.init (1 + (round mod 5)) (fun i -> Scheduler.submit s (fun () -> i)) in
    Scheduler.drain s;
    List.iteri
      (fun i p -> check Alcotest.int "round job" i (Scheduler.await p))
      ps
  done;
  Scheduler.shutdown s

let suite =
  [
    ("submit/await values", `Quick, test_submit_await_all);
    ("uneven costs balance", `Quick, test_uneven_costs_balance);
    ("error capture", `Quick, test_error_capture);
    ("submit while running", `Quick, test_submit_while_running);
    ("poll and drain", `Quick, test_poll_and_drain);
    ("shutdown semantics", `Quick, test_shutdown_semantics);
    ("telemetry invariants", `Quick, test_telemetry_invariants);
    ("FIFO order", `Quick, test_fifo_order);
    ("telemetry exact mid-flight", `Quick, test_telemetry_mid_flight);
    ("lost-wakeup stress", `Quick, test_many_workers_stress);
  ]
