(* Differential tests: the register-IR engine (Ir.Exec, with its event
   ring) against the reference switch interpreter. The engines must
   agree on everything observable — results, metric counters, the full
   hook-event stream (pcs, addresses, ordering), the thinned stream a
   clock consumer sees, canonical profiles, telemetry, and trap
   (message, pc) pairs, including at every fuel level, where tick
   segments must hand the machine back to the reference loop
   mid-segment. *)

module Machine = Vm.Machine
module Profiler = Alchemist.Profiler

let fuel = 10_000_000
let engines = [ Machine.Switch; Machine.Register ]
let ename e = Machine.engine_to_string e

let compile_workload (w : Workloads.Workload.t) =
  Vm.Compile.compile_source (w.source ~scale:w.test_scale)

(* --- result equality --------------------------------------------------- *)

let check_same_result name (a : Machine.result) (b : Machine.result) =
  Alcotest.(check int) (name ^ ": exit_value") a.exit_value b.exit_value;
  Alcotest.(check int) (name ^ ": instructions") a.instructions b.instructions;
  Alcotest.(check (list int)) (name ^ ": output") a.output b.output;
  Alcotest.(check int) (name ^ ": reads") a.metrics.reads b.metrics.reads;
  Alcotest.(check int) (name ^ ": writes") a.metrics.writes b.metrics.writes;
  Alcotest.(check int) (name ^ ": calls") a.metrics.calls b.metrics.calls;
  Alcotest.(check int)
    (name ^ ": branches") a.metrics.branches b.metrics.branches;
  Alcotest.(check int)
    (name ^ ": frames_released") a.metrics.frames_released
    b.metrics.frames_released;
  Alcotest.(check int)
    (name ^ ": max_call_depth") a.metrics.max_call_depth
    b.metrics.max_call_depth;
  Alcotest.(check int)
    (name ^ ": mem_high_water") a.metrics.mem_high_water
    b.metrics.mem_high_water

let test_registry_unhooked () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = compile_workload w in
      let sw = Ir.Engine.run ~engine:Switch ~fuel prog in
      let r = Ir.Engine.run ~fuel prog in
      check_same_result (w.name ^ " register") sw r)
    Workloads.Registry.all

(* The register backend must actually compile every registry workload —
   a silent bail, or a tag left unproven, would fall back to the switch
   interpreter and pass every differential below vacuously. *)
let test_register_lowering_coverage () =
  let check name prog =
    List.iter
      (fun hooked ->
        match Ir.Lower.lower ~hooked ~pruned:(fun _ -> false) prog with
        | Some lw ->
            Alcotest.(check bool)
              (Printf.sprintf "%s (hooked=%b): nonempty IR" name hooked)
              true
              (Array.length lw.Ir.Lower.instrs > 2);
            Alcotest.(check bool)
              (Printf.sprintf "%s (hooked=%b): every tag proven" name hooked)
              false (Ir.Exec.needs_tags lw)
        | None ->
            Alcotest.failf "%s: register lowering bailed (hooked=%b)" name
              hooked)
      [ false; true ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) -> check w.name (compile_workload w))
    Workloads.Registry.all

(* --- full hook-event stream -------------------------------------------- *)

(* Serialize every hook invocation; engines must produce byte-identical
   logs. This is stronger than comparing profiles: it pins the ordering
   and the original pcs that register tick segments and the ring's
   batched delivery are required to preserve. *)
let event_log ?(fuel = fuel) ~engine ~trace_locals prog =
  let buf = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc -> p "i %d\n" pc);
      on_read = (fun ~pc ~addr -> p "r %d %d\n" pc addr);
      on_write = (fun ~pc ~addr -> p "w %d %d\n" pc addr);
      on_branch =
        (fun ~pc ~kind ~cid ~taken ->
          let k =
            match kind with
            | Vm.Instr.BrIf -> "if"
            | Vm.Instr.BrLoop -> "loop"
            | Vm.Instr.BrSc -> "sc"
          in
          p "b %d %s %d %b\n" pc k cid taken);
      on_call = (fun ~pc ~fid -> p "c %d %d\n" pc fid);
      on_ret = (fun ~pc ~fid -> p "t %d %d\n" pc fid);
      on_frame_release = (fun ~base ~size -> p "f %d %d\n" base size);
    }
  in
  let r = Ir.Engine.run_hooked ~engine ~trace_locals ~fuel hooks prog in
  p "exit %d %d\n" r.exit_value r.instructions;
  Buffer.contents buf

let or_trap f =
  match f () with
  | log -> log
  | exception Machine.Trap (msg, pc) -> Printf.sprintf "trap %S at %d" msg pc

let event_log_or_trap ?fuel ~engine ~trace_locals prog =
  or_trap (fun () -> event_log ?fuel ~engine ~trace_locals prog)

(* The thinned stream of the Ir.Engine.clock contract. The consumer keeps
   its own clock and cares about [on_instr] only at "interesting" pcs
   (every third one here); it logs every other event with the clock it
   sees. Given a clock, the register engine may elide every segment
   without an interesting pc and restore the clock from event stamps
   instead, so the log must equal the switch run's per-instruction log
   exactly — clock values included. *)
let clock_log ?(fuel = fuel) ~engine ~trace_locals prog =
  let buf = Buffer.create 65536 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let now = ref 0 in
  let interesting pc = pc mod 3 = 0 in
  let on_instr ~pc =
    incr now;
    if interesting pc then p "i %d @%d\n" pc !now
  in
  let hooks =
    {
      Vm.Hooks.on_instr;
      on_read = (fun ~pc ~addr -> p "r %d %d @%d\n" pc addr !now);
      on_write = (fun ~pc ~addr -> p "w %d %d @%d\n" pc addr !now);
      on_branch =
        (fun ~pc ~kind:_ ~cid ~taken -> p "b %d %d %b @%d\n" pc cid taken !now);
      on_call = (fun ~pc ~fid -> p "c %d %d @%d\n" pc fid !now);
      on_ret = (fun ~pc ~fid -> p "t %d %d @%d\n" pc fid !now);
      on_frame_release = (fun ~base ~size -> p "f %d %d @%d\n" base size !now);
    }
  in
  let clock =
    {
      Ir.Engine.instr_range =
        (fun ~lo ~hi ->
          for pc = lo to hi do
            on_instr ~pc
          done);
      range_has_target =
        (fun ~lo ~hi ->
          let rec any pc = pc <= hi && (interesting pc || any (pc + 1)) in
          any lo);
      set_time = (fun t -> now := t);
    }
  in
  let r = Ir.Engine.run_hooked ~engine ~trace_locals ~clock ~fuel hooks prog in
  p "exit %d %d @%d\n" r.exit_value r.instructions !now;
  Buffer.contents buf

let clock_log_or_trap ?fuel ~engine ~trace_locals prog =
  or_trap (fun () -> clock_log ?fuel ~engine ~trace_locals prog)

let check_event_stream name prog =
  List.iter
    (fun trace_locals ->
      let name = Printf.sprintf "%s (trace_locals=%b)" name trace_locals in
      let sw = event_log ~engine:Switch ~trace_locals prog in
      Alcotest.(check string)
        (Printf.sprintf "%s: register event stream" name)
        sw
        (event_log ~engine:Register ~trace_locals prog))
    [ false; true ]

(* For the registry workloads (millions of events) a literal log would be
   hundreds of MB, so the stream is folded into an order-sensitive
   polynomial hash plus per-hook counts instead. The byte-exact log
   comparison still runs on the Fig. 4 snippets and random programs. *)
let event_signature ~engine ~trace_locals prog =
  let h = ref 0 and n = ref 0 in
  let mix v =
    h := (!h * 1_000_003) + v;
    incr n
  in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc -> mix (1 + (pc * 8)));
      on_read = (fun ~pc ~addr -> mix (2 + (pc * 8)); mix addr);
      on_write = (fun ~pc ~addr -> mix (3 + (pc * 8)); mix addr);
      on_branch =
        (fun ~pc ~kind ~cid ~taken ->
          mix (4 + (pc * 8));
          mix
            (match kind with
            | Vm.Instr.BrIf -> 0
            | Vm.Instr.BrLoop -> 1
            | Vm.Instr.BrSc -> 2);
          mix cid;
          mix (Bool.to_int taken));
      on_call = (fun ~pc ~fid -> mix (5 + (pc * 8)); mix fid);
      on_ret = (fun ~pc ~fid -> mix (6 + (pc * 8)); mix fid);
      on_frame_release = (fun ~base ~size -> mix (7 + (base * 8)); mix size);
    }
  in
  let r = Ir.Engine.run_hooked ~engine ~trace_locals ~fuel hooks prog in
  (!h, !n, r.exit_value, r.instructions)

let test_registry_event_stream () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = compile_workload w in
      List.iter
        (fun trace_locals ->
          let hs, ns, es, is =
            event_signature ~engine:Switch ~trace_locals prog
          in
          let name =
            Printf.sprintf "%s register (trace_locals=%b)" w.name trace_locals
          in
          let ht, nt, et, it =
            event_signature ~engine:Register ~trace_locals prog
          in
          Alcotest.(check int) (name ^ ": event count") ns nt;
          Alcotest.(check int) (name ^ ": event hash") hs ht;
          Alcotest.(check int) (name ^ ": exit") es et;
          Alcotest.(check int) (name ^ ": instructions") is it)
        [ false; true ])
    Workloads.Registry.all

(* The Fig. 4 construct-nesting snippets: procedure nesting, conditionals
   inside loops, and sibling loop iterations. *)
let fig4_snippets =
  [
    ( "fig4a",
      "int a() { return 1; }\n\
       int b() { return a() + a(); }\n\
       int main() { return b(); }" );
    ( "fig4b",
      "int main() {\n\
      \  int x; int i;\n\
      \  x = 0;\n\
      \  for (i = 0; i < 8; i = i + 1) {\n\
      \    if (i % 2 == 0) { if (i > 3) { x = x + i; } }\n\
      \  }\n\
      \  return x;\n\
       }" );
    ( "fig4c",
      "int g[8];\n\
       int main() {\n\
      \  int i; int j; int s;\n\
      \  s = 0;\n\
      \  for (i = 0; i < 4; i = i + 1) {\n\
      \    for (j = 0; j < 8; j = j + 1) { g[j] = g[j] + i; }\n\
      \    s = s + g[i];\n\
      \  }\n\
      \  return s;\n\
       }" );
  ]

let test_fig4_event_stream () =
  List.iter
    (fun (name, src) -> check_event_stream name (Vm.Compile.compile_source src))
    fig4_snippets

(* --- profiles and telemetry -------------------------------------------- *)

(* Drop instruments that legitimately differ between two runs: wall-clock
   timers, the engine-identity gauge, and the register backend's own
   ir.* compilation stats. Everything else — every counter, histogram
   bucket, and gauge across vm/shadow/pool/tree/profiler — must match
   exactly. *)
let comparable snap =
  Obs.filter
    (fun name v ->
      (match v with Obs.Span _ -> false | _ -> true)
      && name <> "vm.engine"
      && not (String.length name >= 3 && String.sub name 0 3 = "ir."))
    snap

let telemetry_text snap = Obs.render_text (comparable snap)

let test_registry_profiles () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = compile_workload w in
      let sw = Profiler.run ~engine:Switch ~fuel prog in
      let r = Profiler.run ~fuel prog in
      let name = w.name ^ " register" in
      Alcotest.(check string)
        (name ^ ": canonical profile")
        (Alchemist.Profile_io.to_string sw.profile)
        (Alchemist.Profile_io.to_string r.profile);
      Alcotest.(check string)
        (name ^ ": telemetry")
        (telemetry_text (Profiler.telemetry sw))
        (telemetry_text (Profiler.telemetry r));
      check_same_result (name ^ ": profiled run") sw.run r.run)
    Workloads.Registry.all

let test_engine_gauge () =
  let prog = Vm.Compile.compile_source "int main() { return 7; }" in
  let gauge engine =
    let r = Profiler.run ~engine prog in
    match Obs.find (Profiler.telemetry r) "vm.engine" with
    | Some (Obs.Level { last; _ }) -> last
    | _ -> -1
  in
  Alcotest.(check int) "switch gauge" 0 (gauge Machine.Switch);
  Alcotest.(check int) "register gauge" 2 (gauge Machine.Register)

(* The register engine publishes its compilation telemetry. *)
let test_register_telemetry () =
  let w = Workloads.Registry.find "gzip-1.3.5" in
  let prog = compile_workload w in
  let r = Profiler.run ~engine:Machine.Register ~fuel prog in
  let level name =
    match Obs.find (Profiler.telemetry r) name with
    | Some (Obs.Level { last; _ }) -> last
    | _ -> -1
  in
  (* instrs_per_stack_instr is scaled by 1000; a working lowering emits
     fewer IR instructions than stack pcs (that is the point). *)
  let ratio = level "ir.instrs_per_stack_instr" in
  Alcotest.(check bool) "ir ratio published" true (ratio > 0);
  Alcotest.(check bool) "ir compresses the program" true (ratio < 1000);
  (* 16 physical registers cover every registry workload frame *)
  Alcotest.(check int) "no spills on gzip" 0 (level "ir.spills")

(* The register engine hands -O0 (trace_locals) runs to the switch
   interpreter; the default engine must still produce the reference
   profile. *)
let test_trace_locals_profile () =
  let w = Workloads.Registry.find "gzip-1.3.5" in
  let prog = compile_workload w in
  let sw = Profiler.run ~engine:Switch ~fuel ~trace_locals:true prog in
  let r = Profiler.run ~fuel ~trace_locals:true prog in
  Alcotest.(check string) "trace_locals profile register"
    (Alchemist.Profile_io.to_string sw.profile)
    (Alchemist.Profile_io.to_string r.profile)

(* --- fuel and traps ----------------------------------------------------- *)

let run_outcome ~engine ?(trace_locals = false) ~fuel prog =
  match Ir.Engine.run_hooked ~engine ~trace_locals ~fuel Vm.Hooks.noop prog with
  | r -> Printf.sprintf "exit %d instrs %d" r.exit_value r.instructions
  | exception Machine.Trap (msg, pc) -> Printf.sprintf "trap %S at %d" msg pc

(* Every fuel level from 0 to completion: the register engine must
   deoptimize — rebuild the architectural stack-machine state and resume
   in the switch loop — at every tick-segment offset, and trap "out of
   fuel" at exactly the reference pc. *)
let test_fuel_sweep () =
  let src =
    "int g[6];\n\
     int sum(int n) {\n\
    \  int i; int s;\n\
    \  s = 0;\n\
    \  for (i = 0; i < n; i = i + 1) { g[i] = 2 * i; s = s + g[i]; }\n\
    \  return s;\n\
     }\n\
     int main() { return sum(6) + sum(3); }"
  in
  let prog = Vm.Compile.compile_source src in
  let total = (Machine.run ~engine:Switch prog).instructions in
  for fuel = 0 to total do
    let sw = run_outcome ~engine:Switch ~fuel prog in
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d register" fuel)
      sw
      (run_outcome ~engine:Register ~fuel prog)
  done

(* Traps raised from inside tick segments must carry the constituent's
   original pc and message. *)
let trap_cases =
  [
    ( "div by zero in an update",
      "int main() { int x; int y; x = 9; y = 0; x = x / y; return x; }" );
    ( "mod by zero in a const op",
      "int main() { int x; x = 7; x = x % 0; return x; }" );
    ( "load out of bounds",
      "int g[4];\nint main() { int i; i = 11; return g[i]; }" );
    ( "store out of bounds",
      "int g[4];\nint main() { int i; i = 4 + 3; g[i] = 1; return 0; }" );
    ( "shift out of range",
      "int main() { int x; x = 1; x = x << 77; return x; }" );
  ]

let test_traps () =
  List.iter
    (fun (name, src) ->
      let prog = Vm.Compile.compile_source src in
      let sw = run_outcome ~engine:Switch ~fuel prog in
      Alcotest.(check string) (name ^ " register") sw
        (run_outcome ~engine:Register ~fuel prog);
      (* The trap must actually fire. *)
      Alcotest.(check bool)
        (name ^ " traps") true
        (String.length sw > 4 && String.sub sw 0 4 = "trap"))
    trap_cases

(* --- event ring ---------------------------------------------------------- *)

(* The thinned stream of a clock consumer: the ring elides segments the
   consumer declared uninteresting and restores its clock from the event
   stamps; every event must still arrive in order with the clock the
   switch interpreter's per-instruction delivery gives it. The random
   programs of the qcheck differential and the fuel sweep below cover
   the same stream; the registry workloads are covered through the
   profiler, which is a clock consumer. *)
let test_ring_event_stream () =
  List.iter
    (fun (name, src) ->
      let prog = Vm.Compile.compile_source src in
      List.iter
        (fun trace_locals ->
          Alcotest.(check string)
            (Printf.sprintf "%s clock stream (trace_locals=%b)" name
               trace_locals)
            (clock_log ~engine:Switch ~trace_locals prog)
            (clock_log ~engine:Register ~trace_locals prog))
        [ false; true ])
    fig4_snippets

(* Fuel-boundary regression: single-step fuel across every tick-segment
   offset. A deoptimization fires mid-ring on most levels, and the
   buffered events must reach the hooks BEFORE the switch resume
   delivers its own — flushing after the stack rebuild (or not at all)
   reorders or drops the tail of the stream — and a clock consumer's
   clock must be where the resume expects it. Byte-compare the full
   event log and the thinned clock log at every fuel level. *)
let test_fuel_ring_sweep () =
  let src =
    "int g[6];\n\
     int sum(int n) {\n\
    \  int i; int s;\n\
    \  s = 0;\n\
    \  for (i = 0; i < n; i = i + 1) { g[i] = 2 * i; s = s + g[i]; }\n\
    \  return s;\n\
     }\n\
     int main() { return sum(6) + sum(3); }"
  in
  let prog = Vm.Compile.compile_source src in
  let total = (Machine.run ~engine:Switch prog).instructions in
  for fuel = 0 to total do
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d event stream" fuel)
      (event_log_or_trap ~fuel ~engine:Switch ~trace_locals:false prog)
      (event_log_or_trap ~fuel ~engine:Register ~trace_locals:false prog);
    Alcotest.(check string)
      (Printf.sprintf "fuel=%d clock stream" fuel)
      (clock_log_or_trap ~fuel ~engine:Switch ~trace_locals:false prog)
      (clock_log_or_trap ~fuel ~engine:Register ~trace_locals:false prog)
  done

(* Alloc/free churn: frames with local arrays released over and over,
   so clear_range fires between accesses of the same addresses. A cell
   left stale by a release would fabricate cross-activation edges; a
   clear that reached past its range would drop live history. Three
   shapes: an 8-slot frame released on every call inside a loop, whose
   profile is byte-compared across engines; a 100-slot frame released
   at the top of touched memory; and a recursion over 100-slot frames,
   each release at the top while the callers' arrays below hold
   history. The two wide shapes are pinned by goldens, under both
   engines and with locals traced and not. *)
let churn_wide_cases =
  [
    ( "frame",
      "int acc[4];\n\
       int wide(int k) {\n\
      \  int b[100]; int i; int s;\n\
      \  s = 0;\n\
      \  for (i = 0; i < 100; i = i + 1) { b[i] = k + i; }\n\
      \  for (i = 0; i < 100; i = i + 1) { s = s + b[i]; }\n\
      \  return s;\n\
       }\n\
       int main() {\n\
      \  int j; int t;\n\
      \  t = 0;\n\
      \  for (j = 0; j < 12; j = j + 1) { t = t + wide(j); acc[j % 4] = t; }\n\
      \  return t;\n\
       }" );
    ( "recursion",
      "int acc[4];\n\
       int rec(int n) {\n\
      \  int b[100]; int i; int s;\n\
      \  for (i = 0; i < 100; i = i + 1) { b[i] = n + i; }\n\
      \  s = 0;\n\
      \  if (n > 0) { s = rec(n - 1); }\n\
      \  for (i = 0; i < 100; i = i + 1) { s = s + b[i]; }\n\
      \  acc[n % 4] = s;\n\
      \  return s;\n\
       }\n\
       int main() { return rec(6) + rec(3); }" );
  ]

let test_churn_profile () =
  let src =
    "int acc[4];\n\
     int scratch(int k) {\n\
    \  int b[8]; int i; int s;\n\
    \  s = 0;\n\
    \  for (i = 0; i < 8; i = i + 1) { b[i] = k + i; }\n\
    \  for (i = 0; i < 8; i = i + 1) { s = s + b[i]; }\n\
    \  return s;\n\
     }\n\
     int main() {\n\
    \  int j; int t;\n\
    \  t = 0;\n\
    \  for (j = 0; j < 20; j = j + 1) { t = t + scratch(j); acc[j % 4] = t; }\n\
    \  return t;\n\
     }"
  in
  let prog = Vm.Compile.compile_source src in
  let reference =
    Alchemist.Profile_io.to_string
      (Profiler.run ~engine:Switch ~fuel prog).Profiler.profile
  in
  Alcotest.(check string) "churn register" reference
    (Alchemist.Profile_io.to_string (Profiler.run ~fuel prog).Profiler.profile);
  List.iter
    (fun (name, src) ->
      let prog = Vm.Compile.compile_source src in
      List.iter
        (fun trace_locals ->
          let golden =
            In_channel.with_open_bin
              (Printf.sprintf "golden/churn-%s%s.prof" name
                 (if trace_locals then "-locals" else ""))
              In_channel.input_all
          in
          List.iter
            (fun engine ->
              Alcotest.(check string)
                (Printf.sprintf "churn %s %s trace_locals=%b" name
                   (ename engine) trace_locals)
                golden
                (Alchemist.Profile_io.to_string
                   (Profiler.run ~engine ~trace_locals ~fuel prog)
                     .Profiler.profile))
            engines)
        [ false; true ])
    churn_wide_cases

(* --- local arrays across calls -------------------------------------------- *)

(* A local array passed to a call is the caller's array: the register
   engine must read call arguments in the caller's frame, before
   [frame_base] moves to the callee's. Three shapes: a direct pass, a
   parameter forwarded to a second callee, and a recursion that hands
   each activation's own local array down. The expected exit values are
   the switch interpreter's. *)
let local_array_cases =
  [
    ( "local array argument",
      12,
      "int sum(int a[], int k) {\n\
      \  int s = 0; int i;\n\
      \  for (i = 0; i < k; i = i + 1) { s = s + a[i]; }\n\
      \  return s;\n\
       }\n\
       int main() { int buf[8]; buf[0] = 5; buf[1] = 7; return sum(buf, 2); }" );
    ( "forwarded array parameter",
      13,
      "int inner(int a[], int k) { return a[k]; }\n\
       int outer(int a[], int k) { a[k] = a[k] + 1; return inner(a, k) + a[0]; }\n\
       int main() { int buf[4]; buf[0] = 3; buf[2] = 9; return outer(buf, 2); }" );
    ( "recursion with a local array",
      115,
      "int rec(int n, int up[]) {\n\
      \  int mine[4];\n\
      \  mine[0] = up[0] + n;\n\
      \  if (n == 0) { return mine[0]; }\n\
      \  return rec(n - 1, mine);\n\
       }\n\
       int main() { int base[4]; base[0] = 100; return rec(5, base); }" );
  ]

let test_local_array_calls () =
  List.iter
    (fun (name, expected, src) ->
      let prog = Vm.Compile.compile_source src in
      let sw = Ir.Engine.run ~engine:Switch ~fuel prog in
      Alcotest.(check int) (name ^ ": switch exit") expected sw.exit_value;
      check_same_result (name ^ " register") sw (Ir.Engine.run ~fuel prog);
      Alcotest.(check string) (name ^ ": event stream")
        (event_log ~engine:Switch ~trace_locals:false prog)
        (event_log ~engine:Register ~trace_locals:false prog);
      Alcotest.(check string) (name ^ ": profile")
        (Alchemist.Profile_io.to_string
           (Profiler.run ~engine:Switch ~fuel prog).Profiler.profile)
        (Alchemist.Profile_io.to_string
           (Profiler.run ~fuel prog).Profiler.profile))
    local_array_cases

(* Set-up cost follows the code, not the data: a local array's cells get
   no virtual register, so a 16,384-cell array adds nothing to slot
   liveness, the flush sets or the interference matrix (with a register
   per cell, the matrix alone would be 16,384^2 bytes). Allocation
   counts are deterministic; nothing here is timed. *)
let test_lowering_extent_independent () =
  let src =
    "int sum(int a[], int n) {\n\
    \  int i; int s = 0;\n\
    \  for (i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
    \  return s;\n\
     }\n\
     int main() {\n\
    \  int big[16384]; int i;\n\
    \  for (i = 0; i < 16384; i = i + 1) { big[i] = i & 7; }\n\
    \  return sum(big, 16384) & 255;\n\
     }"
  in
  let prog = Vm.Compile.compile_source src in
  let a0 = Gc.allocated_bytes () in
  (match Ir.Lower.lower ~hooked:true ~pruned:(fun _ -> false) prog with
  | Some lw ->
      ignore
        (Sys.opaque_identity
           (Array.map (Ir.Regalloc.allocate lw) lw.Ir.Lower.funcs))
  | None -> Alcotest.fail "register lowering bailed");
  let bytes = Gc.allocated_bytes () -. a0 in
  if bytes >= 2e6 then
    Alcotest.failf "lowering and allocation took %.0f bytes (limit 2 MB)"
      bytes;
  check_same_result "16K local array register"
    (Ir.Engine.run ~engine:Switch ~fuel:100_000_000 prog)
    (Ir.Engine.run ~fuel:100_000_000 prog)

(* --- random program differential ---------------------------------------- *)

let test_qcheck_differential () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"both engines on random programs" ~count:60
       Testgen.arbitrary_program (fun p ->
         let prog = Vm.Compile.compile p in
         (* A tight budget keeps the logs small and makes "out of fuel"
            itself part of the differential surface. *)
         let out engine =
           clock_log_or_trap ~fuel:200_000 ~engine ~trace_locals:false prog
           :: List.map
                (fun trace_locals ->
                  event_log_or_trap ~fuel:200_000 ~engine ~trace_locals prog)
                [ false; true ]
         in
         out Machine.Switch = out Machine.Register))

(* Random configuration matrix: any (engine, fuel bound, prune mask)
   must produce the profile of the reference configuration byte-for-byte
   — or trap identically when the fuel bound bites. Runs over the Fig. 4
   snippets plus the two smallest-scaled registry workloads. *)
let test_qcheck_profile_matrix () =
  let progs =
    List.map
      (fun (name, src) -> (name, Vm.Compile.compile_source src))
      fig4_snippets
    @ (match Workloads.Registry.all with
      | a :: b :: _ ->
          [ (a.Workloads.Workload.name, compile_workload a);
            (b.Workloads.Workload.name, compile_workload b) ]
      | _ -> [])
  in
  let progs = Array.of_list progs in
  let profile_or_trap ~engine ~static_prune ~fuel prog =
    match Profiler.run ~engine ~static_prune ~fuel prog with
    | r -> Alchemist.Profile_io.to_string r.Profiler.profile
    | exception Machine.Trap (msg, pc) -> Printf.sprintf "trap %S at %d" msg pc
  in
  let gen =
    QCheck.Gen.(
      tup3 (int_bound (Array.length progs - 1)) (oneofl engines)
        (tup2 (oneof [ int_range 1 5_000; return 10_000_000 ]) bool))
  in
  let print (i, e, (fuel, prune)) =
    Printf.sprintf "%s engine=%s fuel=%d prune=%b" (fst progs.(i)) (ename e)
      fuel prune
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"profile identical across engine/fuel/prune"
       ~count:48
       (QCheck.make gen ~print)
       (fun (i, engine, (fuel, static_prune)) ->
         let _, prog = progs.(i) in
         profile_or_trap ~engine:Machine.Switch ~static_prune:true ~fuel prog
         = profile_or_trap ~engine ~static_prune ~fuel prog))

let suite =
  [
    ("registry unhooked differential", `Quick, test_registry_unhooked);
    ("register lowering coverage", `Quick, test_register_lowering_coverage);
    ("registry event streams", `Quick, test_registry_event_stream);
    ("fig4 event streams", `Quick, test_fig4_event_stream);
    ("registry profiles byte-identical", `Quick, test_registry_profiles);
    ("vm.engine gauge", `Quick, test_engine_gauge);
    ("register telemetry", `Quick, test_register_telemetry);
    ("trace_locals profile identical", `Quick, test_trace_locals_profile);
    ("fuel sweep trap parity", `Quick, test_fuel_sweep);
    ("trap pc/message parity", `Quick, test_traps);
    ("ring event streams", `Quick, test_ring_event_stream);
    ("ring fuel-boundary sweep", `Quick, test_fuel_ring_sweep);
    ("alloc/free churn profile", `Quick, test_churn_profile);
    ("local arrays across calls", `Quick, test_local_array_calls);
    ( "lowering cost independent of array extent",
      `Quick,
      test_lowering_extent_independent );
    ("qcheck differential", `Quick, test_qcheck_differential);
    ("qcheck profile config matrix", `Quick, test_qcheck_profile_matrix);
  ]
