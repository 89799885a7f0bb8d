(* A persistent job scheduler over OCaml 5 domains: one FIFO queue under
   one mutex. Jobs are coarse (whole profiling runs, one serve request
   each) and share nothing mutable, so a worker that frees up takes the
   oldest queued job, and one lock round-trip per job is noise.

   The stdlib has no Condition.timedwait, so a lost wakeup would hang a
   worker for good. Every change a sleeper waits for therefore happens
   under [m], which also guards the telemetry: a submission pushes and
   signals [work_cv], a worker sleeps only while the queue is empty and
   [stop] is unset, and the last completion broadcasts [idle_cv] for
   [drain]. *)

type job = { run : unit -> unit; born_ns : int }

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  mutable state : 'a state;
  pm : Mutex.t;
  pc : Condition.t;
}

type t = {
  nworkers : int;
  queue : job Queue.t;
  m : Mutex.t;  (* guards queue, pending, stop and every instrument *)
  work_cv : Condition.t;  (* queue non-empty or stop *)
  idle_cv : Condition.t;  (* pending = 0 *)
  mutable pending : int;  (* jobs submitted, not yet completed *)
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  obs : Obs.Registry.t;
  submitted_c : Obs.Counter.t;
  jobs_c : Obs.Counter.t;
  latency_h : Obs.Histogram.t;  (* submit-to-completion, nanoseconds *)
  depth_g : Obs.Gauge.t;
}

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* The oldest queued job, sleeping while there is none; [None] once the
   pool is stopping and the queue is empty, so queued jobs still run
   after [shutdown]. *)
let next_job t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.stop do
    Condition.wait t.work_cv t.m
  done;
  let j = Queue.take_opt t.queue in
  if Option.is_some j then Obs.Counter.incr t.jobs_c;
  Obs.Gauge.set t.depth_g (Queue.length t.queue);
  Mutex.unlock t.m;
  j

let rec worker_loop t =
  match next_job t with
  | None -> ()
  | Some j ->
      j.run ();
      (* submit-to-completion latency: queueing + execution, which is
         what a serve client experiences *)
      let latency = Obs.now_ns () - j.born_ns in
      Mutex.lock t.m;
      Obs.Histogram.observe t.latency_h latency;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle_cv;
      Mutex.unlock t.m;
      worker_loop t

let create ?(workers = default_workers ()) () =
  let nworkers = max 1 workers in
  let obs = Obs.Registry.create () in
  Obs.Gauge.set (Obs.Registry.gauge obs "sched.workers") nworkers;
  let t =
    {
      nworkers;
      queue = Queue.create ();
      m = Mutex.create ();
      work_cv = Condition.create ();
      idle_cv = Condition.create ();
      pending = 0;
      stop = false;
      domains = [||];
      obs;
      submitted_c = Obs.Registry.counter obs "sched.submitted";
      jobs_c = Obs.Registry.counter obs "sched.jobs";
      latency_h = Obs.Registry.histogram obs "sched.job_latency_ns";
      depth_g = Obs.Registry.gauge obs "sched.queue_depth";
    }
  in
  t.domains <-
    Array.init nworkers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let workers t = t.nworkers

let fulfill p v =
  Mutex.lock p.pm;
  p.state <- v;
  Condition.broadcast p.pc;
  Mutex.unlock p.pm

let submit t f =
  let p = { state = Pending; pm = Mutex.create (); pc = Condition.create () } in
  let run () =
    match f () with
    | v -> fulfill p (Done v)
    | exception e -> fulfill p (Failed (e, Printexc.get_raw_backtrace ()))
  in
  let job = { run; born_ns = Obs.now_ns () } in
  Mutex.lock t.m;
  if t.stop then begin
    Mutex.unlock t.m;
    invalid_arg "Scheduler.submit: scheduler is shut down"
  end;
  Queue.push job t.queue;
  t.pending <- t.pending + 1;
  Obs.Counter.incr t.submitted_c;
  Obs.Gauge.set t.depth_g (Queue.length t.queue);
  Condition.signal t.work_cv;
  Mutex.unlock t.m;
  p

let is_pending p = match p.state with Pending -> true | _ -> false

let await_result p =
  Mutex.lock p.pm;
  while is_pending p do
    Condition.wait p.pc p.pm
  done;
  let s = p.state in
  Mutex.unlock p.pm;
  match s with
  | Done v -> Ok v
  | Failed (e, bt) -> Error (e, bt)
  | Pending -> assert false

let await p =
  match await_result p with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let poll p =
  Mutex.lock p.pm;
  let done_ = not (is_pending p) in
  Mutex.unlock p.pm;
  done_

let drain t =
  Mutex.lock t.m;
  while t.pending > 0 do
    Condition.wait t.idle_cv t.m
  done;
  Mutex.unlock t.m

let shutdown t =
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  if not already then Array.iter Domain.join t.domains

let telemetry t =
  Mutex.lock t.m;
  let snap = Obs.Registry.snapshot t.obs in
  Mutex.unlock t.m;
  snap
