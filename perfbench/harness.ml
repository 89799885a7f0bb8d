(* Rounds, output checks and metrics.

   A run first sets every program up [warmups] times untimed, then
   repeats rounds while the next one would end within its time budget,
   making at least [min_rounds]. Each round sets up every program, then
   runs every op on the facts its set-up prepared, in an order the seed
   picks.

   The host's speed drifts by up to 1.9x, in phases of under a second to
   minutes, so a run can pass without one uncontended round, and the
   fastest round of each op still moved by 10-24% from run to run. Every
   timed call is therefore bracketed by a fixed reference kernel, which
   also runs inside long calls, and its wall time is scaled by
   ([reference_s] / the kernel's mean time) ** [sensitivity]: the time
   the call would take on a host where the kernel takes [reference_s].
   What noise the correction leaves goes both ways, so a program's time is
   the median of its rounds (a minimum would pick the luckiest kernel
   error), and a metric sums those over the workload's programs. *)

let min_rounds = 3

(* The first set-ups of a process, which grow its heap, read about 8%
   slower than later ones, so every program is first set up this many
   times untimed. *)
let warmups = 2

let now = Spans.now_ns

(* The budget of a run counts from the start of the process, so that the
   programs' loading and the expected outputs count against it too. *)
let started = now ()

let wall f =
  let t0 = now () in
  let v = f () in
  (v, float_of_int (now () - t0) *. 1e-9)

(* Every timed call starts from a collected heap, so it does not pay for
   the garbage of the call before it. *)
let settle () = Gc.full_major ()

(* --- the reference kernel ------------------------------------------------ *)

(* A fixed loop of branches, arithmetic and loads and stores over 512 KB,
   doing the same work on every call; it allocates nothing. It belongs to
   the benchmark, so no change to the libraries moves it. *)
let kernel_mem = Array.make 65536 0
let kernel_code = Array.init 4096 (fun i -> (i * 7919) land 3)

let kernel () =
  Array.fill kernel_mem 0 (Array.length kernel_mem) 0;
  let acc = ref 0 and pc = ref 0 in
  for _ = 1 to 600_000 do
    (match Array.unsafe_get kernel_code !pc with
    | 0 -> acc := !acc + (!pc * 3)
    | 1 -> Array.unsafe_set kernel_mem (!acc land 65535) !acc
    | 2 -> acc := !acc lxor Array.unsafe_get kernel_mem ((!pc * 17) land 65535)
    | _ -> if !acc land 1 = 0 then incr acc else acc := !acc lsr 1);
    pc := (!pc + 1) land 4095
  done;
  Sys.opaque_identity !acc

(* The kernel's idle time on the development host (Intel Xeon, 2 vCPUs),
   as perfbench/sensitivity.py measures it over a set of runs, so that
   corrected times read as uncontended wall times; README.md gives the
   runs and the offset that remains. *)
let reference_s = 0.0021

(* The long ops slow down more than the kernel: fitted within each
   program by perfbench/sensitivity.py, the log of a profile or explore
   op's time grows 1.2-1.3 times as fast as the log of the kernel's
   (README.md has the runs and the slopes per workload). *)
let sensitivity = 1.3

let kernel_s () =
  let t0 = now () in
  ignore (kernel ());
  float_of_int (now () - t0) *. 1e-9

(* A call that runs for seconds outlives the host's speed phases, so the
   kernel also runs every [probe_interval] seconds inside it, from a
   SIGALRM handler; its time is taken off the call's. The handler
   allocates nothing, so the calls' allocation counts stay exact. *)
let probe_interval = 0.1
let probe_ns = Array.make 100_000 0
let probes = ref 0
let probing = ref false

let on_alarm (_ : int) =
  if !probing && !probes < Array.length probe_ns then begin
    let t0 = now () in
    ignore (kernel ());
    probe_ns.(!probes) <- now () - t0;
    incr probes
  end

let () = Sys.set_signal Sys.sigalrm (Sys.Signal_handle on_alarm)

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = interval; it_value = interval })

type sample = {
  wall_s : float;  (** the call's wall time, probes taken off *)
  factor : float;
  kernels : float array;  (** before, the probes, after *)
}

let corrected s = s.wall_s *. s.factor

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let measure f =
  settle ();
  let before = kernel_s () in
  probes := 0;
  probing := true;
  set_timer probe_interval;
  let v, wall_s =
    Fun.protect
      ~finally:(fun () ->
        set_timer 0.;
        probing := false)
      (fun () -> wall f)
  in
  let after = kernel_s () in
  let inside = Array.init !probes (fun i -> float_of_int probe_ns.(i) *. 1e-9) in
  let kernels = Array.concat [ [| before |]; inside; [| after |] ] in
  ( v,
    {
      wall_s = wall_s -. Array.fold_left ( +. ) 0. inside;
      factor = (reference_s /. mean kernels) ** sensitivity;
      kernels;
    } )

(* --- small statistics ------------------------------------------------------- *)

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Linearly interpolated quantile. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((x -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let iqr l = quantile 0.75 l -. quantile 0.25 l

let typical (samples : sample array) =
  median (Array.to_list (Array.map corrected samples))

(* Per program, the median round; summed over programs. *)
let sum_of_typical per_program =
  Array.fold_left (fun acc s -> acc +. typical s) 0. per_program

(* Per round, the sum over programs. *)
let round_sums per_program rounds =
  List.init rounds (fun r ->
      Array.fold_left
        (fun acc s -> if r < Array.length s then acc +. corrected s.(r) else acc)
        0. per_program)

let push a i v = a.(i) <- Array.append a.(i) [| v |]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- output checks ------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  first : (string * string, string) Hashtbl.t;
      (** (program, output) -> the value seen first *)
}

let new_tally () = { attempted = 0; failed = 0; first = Hashtbl.create 64 }

(* The names of the outputs that fail their expectation. *)
let mismatches tally ~key expects obs =
  List.filter_map
    (fun (name, (e : Suite.expect)) ->
      match (List.assoc_opt name obs, e) with
      | None, _ -> Some name
      | Some v, Suite.Exact want -> if String.equal v want then None else Some name
      | Some v, Suite.Same_every_round -> (
          match Hashtbl.find_opt tally.first (key, name) with
          | None ->
              Hashtbl.add tally.first (key, name) v;
              None
          | Some want -> if String.equal v want then None else Some name))
    expects

(* Lets a test corrupt an op's outputs before they are checked. *)
type tamper =
  round:int -> key:string -> (string * string) list -> (string * string) list

(* Whether failed ops are reported on standard error. *)
let verbose = ref true

(* Runs and times one op; an op that raises or whose outputs fail a
   check counts as failed. *)
let attempt tally ?(tamper : tamper option) ~round ~key ~expects f =
  tally.attempted <- tally.attempted + 1;
  let fail why =
    tally.failed <- tally.failed + 1;
    if !verbose then Printf.eprintf "FAILED %s (round %d): %s\n%!" key round why;
    None
  in
  match measure f with
  | exception e -> fail ("raised " ^ Printexc.to_string e)
  | (outcome : Suite.outcome), sample -> (
      match outcome.observe () with
      | exception e -> fail ("output check raised " ^ Printexc.to_string e)
      | obs -> (
          let obs =
            match tamper with Some t -> t ~round ~key obs | None -> obs
          in
          match mismatches tally ~key expects obs with
          | [] -> Some (outcome, sample)
          | bad -> fail ("output differs: " ^ String.concat ", " bad)))

(* --- metrics ---------------------------------------------------------------------- *)

type metric = {
  mname : string;
  unit_ : string;
  value : float;
  rounds : float list;  (** the same figure per round, for spreads *)
}

(* The spans the traced run records around calls into the libraries,
   each reported as its layer's self time. *)
let span_layers =
  [
    "minic.compile"; "minic.lint"; "cfa.analyze"; "static.points_to";
    "static.induction"; "static.modref"; "static.legality"; "static.depend";
    "static.race"; "ir.refine"; "core.profile"; "core.write"; "core.report";
    "core.rank"; "core.advise"; "core.read"; "core.sanitize";
    "parsim.collect"; "parsim.schedule";
  ]

let count_metrics =
  [
    ("vm.instructions", "count"); ("shadow.events", "count");
    ("shadow.deps", "count"); ("core.walk_steps", "count");
    ("indexing.pool_reused", "count"); ("core.alloc_mwords", "Mwords");
    ("parsim.tasks", "count"); ("parsim.cross_deps", "count");
    ("parsim.alloc_mwords", "Mwords"); ("core.profile_bytes", "bytes");
  ]

let per_layer_metrics =
  List.map (fun s -> (s ^ "_ms", "ms")) span_layers
  @ (("vm.ns_per_instr", "ns")
    :: List.map (fun (m, _, _) -> (m, "ns")) Ledger.layers)
  @ count_metrics
  @ [ ("trace.overhead_ms", "ms") ]

type run = {
  workload : string;
  seed : int;
  seconds : float;  (** the run's time budget *)
  traced : bool;
  programs : Suite.program array;
  rounds : int;
  tally : tally;
  ledger_ok : bool;
  metrics : metric list;
  ledger_rows : string list;  (** per program, as JSON objects *)
  count_rows : (string * float) list array;  (** per program *)
  setup_samples : sample array array;  (** [program][round] *)
  op_samples : sample array array;  (** untraced ops *)
}

let correct r = r.tally.failed = 0 && r.ledger_ok

(* Runs [body round] for rounds 0, 1, ... while the next round would end
   within [seconds] of the process's start, judged by the longest round
   so far; the first [min_rounds] always run. Returns the round count. *)
let repeat_rounds ~seconds body =
  let round = ref 0 and longest = ref 0. in
  while
    !round < min_rounds
    || (float_of_int (now () - started) *. 1e-9) +. !longest <= seconds
  do
    let (), s = wall (fun () -> body !round) in
    longest := Float.max !longest s;
    incr round
  done;
  !round

let warm_up rng programs =
  for _ = 1 to warmups do
    Array.iter
      (fun i -> Suite.setup programs.(i))
      (shuffle rng (Array.length programs))
  done

(* --- the untraced run ------------------------------------------------------------------ *)

let run_untraced ?tamper ~(suite : Suite.t) ~programs ~seed ~seconds () =
  let n = Array.length programs in
  let rng = Random.State.make [| seed; 2 |] in
  warm_up rng programs;
  let expects = Array.map suite.Suite.expect programs in
  let tally = new_tally () in
  let setup = Array.make n [||] and ops = Array.make n [||] in
  let rounds =
    repeat_rounds ~seconds (fun round ->
        let order = shuffle rng n in
        Array.iter
          (fun i ->
            let (), s = measure (fun () -> Suite.setup programs.(i)) in
            push setup i s)
          order;
        Array.iter
          (fun i ->
            let p = programs.(i) in
            match
              attempt tally ?tamper ~round ~key:(Suite.name p)
                ~expects:expects.(i) (fun () -> suite.Suite.op p)
            with
            | Some (_, s) -> push ops i s
            | None -> ())
          order)
  in
  let metric mname per =
    { mname; unit_ = "s"; value = sum_of_typical per; rounds = round_sums per rounds }
  in
  {
    workload = suite.Suite.wname;
    seed;
    seconds;
    traced = false;
    programs;
    rounds;
    tally;
    ledger_ok = true;
    ledger_rows = [];
    count_rows = [||];
    metrics =
      [
        metric "setup_s" setup;
        metric "pass_s" ops;
        { mname = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb (); rounds = [] };
      ];
    setup_samples = setup;
    op_samples = ops;
  }

(* --- the traced run ------------------------------------------------------------------------ *)

(* Group id -> (round, key) for every traced group of spans, and the
   correction factor of the measurement around it. *)
let groups : (int, int * string) Hashtbl.t = Hashtbl.create 256
let factors : (int, float) Hashtbl.t = Hashtbl.create 256

let new_group ~round ~key =
  let id = Hashtbl.length groups in
  Hashtbl.replace groups id (round, key);
  id

let in_group id ~root f =
  Spans.enabled := true;
  Fun.protect
    ~finally:(fun () -> Spans.enabled := false)
    (fun () -> Spans.in_op id (fun () -> Spans.with_span root f))

(* Measures [f] as one traced group. *)
let measure_group ~round ~key ~root f =
  let id = new_group ~round ~key in
  let v, s = measure (fun () -> in_group id ~root f) in
  Hashtbl.replace factors id s.factor;
  (v, s)

(* Corrected self time per (layer, group key, round); then per layer the
   sum over keys of each key's median round, and the per-round totals. *)
let layer_metrics rounds =
  let acc = Hashtbl.create 256 in
  List.iter
    (fun ((s : Spans.t), self_ns) ->
      match (Hashtbl.find_opt groups s.Spans.op, Hashtbl.find_opt factors s.Spans.op) with
      | Some (round, key), Some factor ->
          let k = (s.Spans.name, key, round) in
          Hashtbl.replace acc k
            ((float_of_int self_ns *. 1e-6 *. factor)
            +. Option.value ~default:0. (Hashtbl.find_opt acc k))
      | _ -> ())
    (Spans.self_times (Spans.all ()));
  List.map
    (fun layer ->
      let by_key = Hashtbl.create 16 in
      let per_round = Array.make rounds 0. in
      Hashtbl.iter
        (fun (name, key, round) ms ->
          if name = layer then begin
            per_round.(round) <- per_round.(round) +. ms;
            Hashtbl.replace by_key key
              (ms :: Option.value ~default:[] (Hashtbl.find_opt by_key key))
          end)
        acc;
      {
        mname = layer ^ "_ms";
        unit_ = "ms";
        value = Hashtbl.fold (fun _ l a -> a +. median l) by_key 0.;
        rounds = Array.to_list per_round;
      })
    span_layers

(* ns per instruction unhooked, and per shadow event for each layer, from
   each (program, configuration)'s median round. A layer whose cost
   comes out negative by more than the run's spread is an error. *)
let ledger_results (ctxs : Ledger.ctx array) (times : sample array array array)
    rounds =
  let n = Array.length ctxs in
  let total f = List.fold_left ( +. ) 0. (List.init n f) in
  let best i c = typical times.(i).(c) in
  let spread i c = iqr (Array.to_list (Array.map corrected times.(i).(c))) in
  let at i c r = corrected times.(i).(c).(r) in
  let events = total (fun i -> float_of_int ctxs.(i).Ledger.events) in
  let instructions =
    total (fun i -> float_of_int ctxs.(i).Ledger.instructions)
  in
  let per_round f = List.init rounds (fun r -> total (fun i -> f i r)) in
  let vm =
    {
      mname = "vm.ns_per_instr";
      unit_ = "ns";
      value = total (fun i -> best i 0) *. 1e9 /. instructions;
      rounds =
        List.map (fun t -> t *. 1e9 /. instructions) (per_round (fun i r -> at i 0 r));
    }
  in
  let ok = ref true in
  let layer (mname, lo, hi) =
    let delta = total (fun i -> best i hi -. best i lo) in
    let spread = total (fun i -> spread i hi +. spread i lo) in
    if delta < -.spread then begin
      ok := false;
      Printf.eprintf
        "LEDGER ERROR: %s is negative (%.4f s) by more than the run's spread \
         (%.4f s)\n%!"
        mname delta spread
    end;
    {
      mname;
      unit_ = "ns";
      value = delta *. 1e9 /. events;
      rounds =
        List.map
          (fun t -> t *. 1e9 /. events)
          (per_round (fun i r -> at i hi r -. at i lo r));
    }
  in
  let layers = List.map layer Ledger.layers in
  let rows =
    List.init n (fun i ->
        let c = ctxs.(i) in
        Printf.sprintf
          "{\"program\": \"%s\", \"instructions\": %d, \"events\": %d, \
           \"median_s\": [%s]}"
          (Suite.name c.Ledger.p) c.Ledger.instructions c.Ledger.events
          (String.concat ", "
             (List.init (Array.length Ledger.configs) (fun k ->
                  Printf.sprintf "%.17g" (best i k)))))
  in
  (vm :: layers, !ok, rows)

let run_traced ?tamper ~(suite : Suite.t) ~programs ~seed ~seconds () =
  let n = Array.length programs in
  let rng = Random.State.make [| seed; 2 |] in
  warm_up rng programs;
  let expects = Array.map suite.Suite.expect programs in
  let tally = new_tally () in
  let ctxs =
    if suite.Suite.ledger then Array.map Ledger.prepare programs else [||]
  in
  let nconfigs = Array.length Ledger.configs in
  let ledger_times =
    Array.map (fun _ -> Array.make nconfigs [||]) ctxs
  in
  let untraced = Array.make n [||] and traced = Array.make n [||] in
  let counts = Array.make n [] in
  let rounds =
    repeat_rounds ~seconds (fun r ->
        let order = shuffle rng n in
        Array.iter
          (fun i ->
            let p = programs.(i) in
            ignore
              (measure_group ~round:r ~key:("setup:" ^ Suite.name p)
                 ~root:"setup" (fun () -> Suite.setup_traced p));
            ignore
              (measure_group ~round:r ~key:("phases:" ^ Suite.name p)
                 ~root:"phases" (fun () -> Suite.static_phases p)))
          order;
        Array.iter
          (fun i ->
            let p = programs.(i) in
            let key = Suite.name p in
            let go op =
              Suite.refresh_facts p;
              attempt tally ?tamper ~round:r ~key ~expects:expects.(i) op
            in
            (match go (fun () -> suite.Suite.op p) with
            | Some (_, s) -> push untraced i s
            | None -> ());
            (* The traced op's outputs meet the same expectations as the
               untraced op's, so a traced replay that departs from the
               entry point it replays fails here. *)
            let id = new_group ~round:r ~key:("op:" ^ key) in
            match
              go (fun () ->
                  in_group id ~root:"op" (fun () -> suite.Suite.op_traced p))
            with
            | Some (o, s) ->
                Hashtbl.replace factors id s.factor;
                push traced i s;
                if counts.(i) = [] then counts.(i) <- o.Suite.counts ()
            | None -> ())
          order;
        (* The ledger's configurations, interleaved within the round and
           rotated from round to round. *)
        if ctxs <> [||] then
          Array.iter
            (fun i ->
              let c = ctxs.(i) in
              for k = 0 to nconfigs - 1 do
                let cfg = (k + r) mod nconfigs in
                if cfg = Ledger.profiler then Suite.refresh_facts c.Ledger.p;
                let (), s =
                  measure_group ~round:r
                    ~key:("ledger:" ^ Suite.name c.Ledger.p)
                    ~root:Ledger.configs.(cfg) (fun () -> Ledger.run_config c cfg)
                in
                push ledger_times.(i) cfg s
              done)
            order)
  in
  let ledger, ledger_ok, ledger_rows =
    if ctxs = [||] then ([], true, [])
    else ledger_results ctxs ledger_times rounds
  in
  let count name =
    Array.fold_left
      (fun acc l -> acc +. Option.value ~default:0. (List.assoc_opt name l))
      0. counts
  in
  let overhead =
    {
      mname = "trace.overhead_ms";
      unit_ = "ms";
      value = (sum_of_typical traced -. sum_of_typical untraced) *. 1e3;
      rounds =
        List.map2
          (fun a b -> (a -. b) *. 1e3)
          (round_sums traced rounds) (round_sums untraced rounds);
    }
  in
  let measured =
    layer_metrics rounds @ ledger
    @ List.map
        (fun (m, u) ->
          let v = count m in
          { mname = m; unit_ = u; value = v; rounds = List.init rounds (fun _ -> v) })
        count_metrics
    @ [ overhead ]
  in
  (* Every per-layer metric is reported; one the workload does not
     exercise reads 0. *)
  let metrics =
    List.map
      (fun (m, u) ->
        match List.find_opt (fun x -> x.mname = m) measured with
        | Some x -> x
        | None -> { mname = m; unit_ = u; value = 0.; rounds = [] })
      per_layer_metrics
  in
  {
    workload = suite.Suite.wname;
    seed;
    seconds;
    traced = true;
    programs;
    rounds;
    tally;
    ledger_ok;
    ledger_rows;
    count_rows = counts;
    metrics;
    setup_samples = [||];
    op_samples = untraced;
  }

(* --- output -------------------------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

(* The last line of the benchmark's output. *)
let result_line r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) r.tally.attempted r.tally.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string m.mname) (json_float m.value) (json_string m.unit_))
          r.metrics))

(* Everything the run measured, with its seed; the traced run adds its
   spans. *)
let write_details r path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let pr fmt = Printf.fprintf oc fmt in
      pr "{\n  \"workload\": %s,\n  \"seed\": %d,\n  \"seconds\": %s,\n"
        (json_string r.workload) r.seed (json_float r.seconds);
      pr "  \"traced\": %b,\n  \"rounds\": %d,\n  \"correct\": %b,\n" r.traced
        r.rounds (correct r);
      pr "  \"attempted\": %d,\n  \"failed\": %d,\n  \"reference_s\": %s,\n"
        r.tally.attempted r.tally.failed (json_float reference_s);
      pr "  \"sensitivity\": %s,\n" (json_float sensitivity);
      pr "  \"programs\": %s,\n"
        (json_list
           (fun (p : Suite.program) ->
             Printf.sprintf "{\"name\": %s, \"scale\": %d}"
               (json_string (Suite.name p)) p.Suite.scale)
           (Array.to_list r.programs));
      let per_program name samples f =
        if samples <> [||] then
          pr "  %s: {%s},\n" (json_string name)
            (String.concat ", "
               (Array.to_list
                  (Array.mapi
                     (fun i s ->
                       Printf.sprintf "%s: %s"
                         (json_string (Suite.name r.programs.(i)))
                         (json_list json_float (List.map f (Array.to_list s))))
                     samples)))
      in
      if r.ledger_rows <> [] then
        pr "  \"ledger_configs\": %s,\n  \"ledger\": [\n    %s\n  ],\n"
          (json_list json_string (Array.to_list Ledger.configs))
          (String.concat ",\n    " r.ledger_rows);
      if r.count_rows <> [||] then
        pr "  \"counts_by_program\": {%s},\n"
          (String.concat ", "
             (Array.to_list
                (Array.mapi
                   (fun i l ->
                     Printf.sprintf "%s: {%s}"
                       (json_string (Suite.name r.programs.(i)))
                       (String.concat ", "
                          (List.map
                             (fun (k, v) ->
                               Printf.sprintf "%s: %s" (json_string k) (json_float v))
                             l)))
                   r.count_rows)));
      per_program "setup_s_by_round" r.setup_samples corrected;
      per_program "setup_wall_s_by_round" r.setup_samples (fun s -> s.wall_s);
      per_program "op_s_by_round" r.op_samples corrected;
      per_program "op_wall_s_by_round" r.op_samples (fun s -> s.wall_s);
      if r.op_samples <> [||] then
        pr "  \"op_kernels_by_round\": {%s},\n"
          (String.concat ", "
             (Array.to_list
                (Array.mapi
                   (fun i s ->
                     Printf.sprintf "%s: %s"
                       (json_string (Suite.name r.programs.(i)))
                       (json_list
                          (fun x -> json_list json_float (Array.to_list x.kernels))
                          (Array.to_list s)))
                   r.op_samples)));
      pr "  \"metrics\": {\n%s\n  }"
        (String.concat ",\n"
           (List.map
              (fun m ->
                Printf.sprintf
                  "    %s: {\"value\": %s, \"unit\": %s, \"rounds\": %s}"
                  (json_string m.mname) (json_float m.value)
                  (json_string m.unit_)
                  (json_list json_float m.rounds))
              r.metrics));
      if r.traced then begin
        let spans = Spans.all () in
        let t0 =
          List.fold_left (fun a (s : Spans.t) -> min a s.Spans.start_ns) max_int spans
        in
        pr ",\n  \"groups\": {%s},\n"
          (String.concat ", "
             (Hashtbl.fold
                (fun id (round, key) acc ->
                  Printf.sprintf "\"%d\": {\"round\": %d, \"key\": %s, \"factor\": %s}"
                    id round (json_string key)
                    (json_float
                       (Option.value ~default:nan (Hashtbl.find_opt factors id)))
                  :: acc)
                groups []));
        pr "  \"spans\": [\n%s\n  ]"
          (String.concat ",\n"
             (List.map
                (fun (s : Spans.t) ->
                  Printf.sprintf
                    "    {\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": %s, \
                     \"start_ns\": %d, \"end_ns\": %d}"
                    s.Spans.id s.Spans.parent s.Spans.op (json_string s.Spans.name)
                    (s.Spans.start_ns - t0) (s.Spans.stop_ns - t0))
                spans))
      end;
      pr "\n}\n")
