(* The profile-registry service: the control-plane logic of
   [alchemist serve].

   One control thread (the caller) parses requests, consults the
   content-addressed cache, and submits misses to the scheduler's FIFO
   queue; worker domains only ever run the profiler. Replies keep
   submission order: a FIFO of slots is harvested from the front, each
   slot either already resolved (parse error, cache hit) or waiting on
   a scheduler promise. Harvesting is where the cache insert and the
   optional [save=] write happen — exactly once per reply, on the
   control thread, so the cache needs no locking.

   Incremental re-profiling: static facts (CFA + dependence analysis +
   prune mask) depend only on the code, so they are memoized per code
   fingerprint and shared — immutable — across worker domains. A
   request whose input data changed misses the profile cache but
   reuses the facts, skipping the static pipeline. *)

type outcome = Hit | Disk_hit | Computed

type reply = {
  seq : int;
  spec : string;
  result : (outcome * string * string, string) result;
      (* Ok (outcome, key, profile bytes) | Error message *)
  save : string option;
}

type slot =
  | Resolved of reply
  | Running of {
      seq : int;
      spec : string;
      key : string;
      save : string option;
      promise : string Scheduler.promise;
    }

type t = {
  sched : Scheduler.t;
  cache : Cache.t;
  facts : (string, Alchemist.Profiler.facts) Hashtbl.t;
  slots : slot Queue.t;
  mutable seq : int;
  obs : Obs.Registry.t;
  requests_c : Obs.Counter.t;
  errors_c : Obs.Counter.t;
  facts_computed_c : Obs.Counter.t;
  facts_reused_c : Obs.Counter.t;
}

let create ?workers ?cache () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let obs = Obs.Registry.create () in
  {
    sched = Scheduler.create ?workers ();
    cache;
    facts = Hashtbl.create 16;
    slots = Queue.create ();
    seq = 0;
    obs;
    requests_c = Obs.Registry.counter obs "service.requests";
    errors_c = Obs.Registry.counter obs "service.errors";
    facts_computed_c = Obs.Registry.counter obs "service.facts_computed";
    facts_reused_c = Obs.Registry.counter obs "service.facts_reused";
  }

let facts_for t prog code_fp =
  match Hashtbl.find_opt t.facts code_fp with
  | Some f ->
      Obs.Counter.incr t.facts_reused_c;
      f
  | None ->
      let f = Alchemist.Profiler.prepare_facts prog in
      Obs.Counter.incr t.facts_computed_c;
      Hashtbl.add t.facts code_fp f;
      f

(* --- submission ----------------------------------------------------------- *)

(* A disk entry is served only if it parses against the request's
   program, carries the static block exactly when the request runs the
   static layer, and re-serializes to the same bytes; anything else
   (garbage, a truncated copy, another format) is recomputed. *)
let valid_entry prog ~trace_locals bytes =
  match Alchemist.Profile_io.read prog bytes with
  | Ok p ->
      Option.is_some p.Alchemist.Profile.static = not trace_locals
      && String.equal (Alchemist.Profile_io.to_string p) bytes
  | Error _ -> false

let submit t ?fuel ?(trace_locals = false) ?pool_capacity ?scan_limit ?save
    ~spec prog =
  t.seq <- t.seq + 1;
  let seq = t.seq in
  Obs.Counter.incr t.requests_c;
  let code_fp = Alchemist.Profile_io.fingerprint prog in
  let input_fp = Alchemist.Profile_io.input_fingerprint prog in
  let key =
    Cache.key ~code_fp ~input_fp ?fuel ~trace_locals ?pool_capacity ?scan_limit
      ()
  in
  match
    Cache.find_located t.cache ~valid:(valid_entry prog ~trace_locals) key
  with
  | Some (bytes, where) ->
      let outcome = match where with `Memory -> Hit | `Disk -> Disk_hit in
      Queue.push
        (Resolved { seq; spec; result = Ok (outcome, key, bytes); save })
        t.slots
  | None ->
      (* Facts reuse only applies when the static layer runs at all. *)
      let facts = if trace_locals then None else Some (facts_for t prog code_fp) in
      let promise =
        Scheduler.submit t.sched (fun () ->
            let r =
              Alchemist.Profiler.run ?fuel ?facts ~trace_locals ?pool_capacity
                ?scan_limit prog
            in
            Alchemist.Profile_io.to_string r.Alchemist.Profiler.profile)
      in
      Queue.push (Running { seq; spec; key; save; promise }) t.slots

(* --- request lines -------------------------------------------------------- *)

(* Grammar (one request per line):
     <spec> [fuel=N] [trace_locals=B] [pool_capacity=N] [scan_limit=N]
            [save=PATH]
   where <spec> is workload:NAME[:SCALE] (SCALE a positive integer) or a
   Mini-C file path, and B is 0/1/true/false. Blank lines and #-comments
   are skipped; the bare word "drain" is a control line handled by the
   caller. *)

exception Bad_request of string

let parse_bool k = function
  | "1" | "true" -> true
  | "0" | "false" -> false
  | v -> raise (Bad_request (Printf.sprintf "%s: bad boolean %S" k v))

let parse_int k v =
  match int_of_string_opt v with
  | Some n -> n
  | None -> raise (Bad_request (Printf.sprintf "%s: bad integer %S" k v))

let compile_spec spec =
  match Workloads.Registry.of_spec spec with
  | Some (w, scale) -> Workloads.Workload.compile w ~scale
  | None ->
      let ic = open_in_bin spec in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Vm.Compile.compile (Minic.Frontend.load src)

let feed t line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then `Skip
  else if line = "drain" then `Drain
  else begin
    let spec, opts =
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [] -> assert false
      | spec :: opts -> (spec, opts)
    in
    match
      let fuel = ref None
      and trace_locals = ref false
      and pool_capacity = ref None
      and scan_limit = ref None
      and save = ref None in
      List.iter
        (fun opt ->
          match String.index_opt opt '=' with
          | None -> raise (Bad_request (Printf.sprintf "bad option %S" opt))
          | Some i -> (
              let k = String.sub opt 0 i
              and v = String.sub opt (i + 1) (String.length opt - i - 1) in
              match k with
              | "fuel" -> fuel := Some (parse_int k v)
              | "trace_locals" -> trace_locals := parse_bool k v
              | "pool_capacity" -> pool_capacity := Some (parse_int k v)
              | "scan_limit" -> scan_limit := Some (parse_int k v)
              | "save" -> save := Some v
              | _ -> raise (Bad_request (Printf.sprintf "unknown option %S" k))))
        opts;
      let prog = compile_spec spec in
      (prog, !fuel, !trace_locals, !pool_capacity, !scan_limit, !save)
    with
    | prog, fuel, trace_locals, pool_capacity, scan_limit, save ->
        submit t ?fuel ~trace_locals ?pool_capacity ?scan_limit ?save ~spec
          prog;
        `Queued
    | exception e ->
        let msg =
          match e with
          | Bad_request m | Invalid_argument m -> m
          | Not_found -> "unknown workload (try: alchemist workloads)"
          | Minic.Diag.Error (m, loc) ->
              Printf.sprintf "at %s: %s" (Minic.Srcloc.to_string loc) m
          | Sys_error m -> m
          | e -> Printexc.to_string e
        in
        t.seq <- t.seq + 1;
        Obs.Counter.incr t.requests_c;
        Queue.push
          (Resolved { seq = t.seq; spec; result = Error msg; save = None })
          t.slots;
        `Queued
  end

(* --- harvesting ----------------------------------------------------------- *)

let finalize t (reply : reply) =
  (match reply.result with
  | Ok (Computed, key, bytes) -> Cache.add t.cache key bytes
  | Ok _ | Error _ -> ());
  (match (reply.save, reply.result) with
  | Some path, Ok (_, _, bytes) ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc bytes)
  | _ -> ());
  (match reply.result with
  | Error _ -> Obs.Counter.incr t.errors_c
  | Ok _ -> ());
  reply

let resolve t = function
  | Resolved r -> finalize t r
  | Running { seq; spec; key; save; promise } ->
      let result =
        match Scheduler.await_result promise with
        | Ok bytes -> Ok (Computed, key, bytes)
        | Error (e, _) ->
            Error
              (match e with
              | Vm.Machine.Trap (msg, pc) ->
                  Printf.sprintf "runtime trap at pc %d: %s" pc msg
              | e -> Printexc.to_string e)
      in
      finalize t { seq; spec; result; save }

let slot_done = function
  | Resolved _ -> true
  | Running { promise; _ } -> Scheduler.poll promise

let ready t =
  let acc = ref [] in
  while (not (Queue.is_empty t.slots)) && slot_done (Queue.peek t.slots) do
    acc := resolve t (Queue.pop t.slots) :: !acc
  done;
  List.rev !acc

let drain t =
  Scheduler.drain t.sched;
  let acc = ref [] in
  while not (Queue.is_empty t.slots) do
    acc := resolve t (Queue.pop t.slots) :: !acc
  done;
  List.rev !acc

let shutdown t = Scheduler.shutdown t.sched

(* --- rendering ------------------------------------------------------------ *)

let outcome_name = function
  | Hit -> "hit"
  | Disk_hit -> "disk-hit"
  | Computed -> "miss"

let render_reply (r : reply) =
  match r.result with
  | Ok (outcome, key, bytes) ->
      Printf.sprintf "ok %d %s key=%s %s bytes=%d%s" r.seq r.spec key
        (outcome_name outcome) (String.length bytes)
        (match r.save with Some p -> " saved=" ^ p | None -> "")
  | Error msg -> Printf.sprintf "error %d %s: %s" r.seq r.spec msg

let telemetry t =
  Obs.merge_all
    [
      Obs.Registry.snapshot t.obs;
      Scheduler.telemetry t.sched;
      Cache.telemetry t.cache;
    ]
