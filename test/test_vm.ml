(* Tests for the bytecode compiler and the interpreter. *)

module Machine = Vm.Machine
module Compile = Vm.Compile
module Program = Vm.Program

let run src =
  let prog = Compile.compile_source src in
  Machine.run ~fuel:50_000_000 prog

let check_exit name src expected =
  Alcotest.(check int) name expected (run src).Machine.exit_value

let check_output name src expected =
  Alcotest.(check (list int)) name expected (run src).Machine.output

(* --- arithmetic and expressions ----------------------------------------- *)

let test_arith () =
  check_exit "add" "int main() { return 1 + 2; }" 3;
  check_exit "precedence" "int main() { return 2 + 3 * 4; }" 14;
  check_exit "sub assoc" "int main() { return 10 - 4 - 3; }" 3;
  check_exit "div" "int main() { return 17 / 5; }" 3;
  check_exit "mod" "int main() { return 17 % 5; }" 2;
  check_exit "neg" "int main() { return -(3 - 5); }" 2;
  check_exit "shifts" "int main() { return (1 << 10) >> 3; }" 128;
  check_exit "bitops" "int main() { return (12 & 10) | (1 ^ 3); }" 10;
  check_exit "bitnot" "int main() { return ~0; }" (-1);
  check_exit "relational" "int main() { return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1); }" 4

let test_logical () =
  check_exit "and" "int main() { return 1 && 2; }" 1;
  check_exit "and zero" "int main() { return 1 && 0; }" 0;
  check_exit "or" "int main() { return 0 || 3; }" 1;
  check_exit "not" "int main() { return !0 + !5; }" 1;
  (* Short-circuit: the second operand must not run. *)
  check_output "sc and"
    "int g; int f() { g = 1; return 1; } int main() { 0 && f(); print(g); return 0; }"
    [ 0 ];
  check_output "sc or"
    "int g; int f() { g = 1; return 1; } int main() { 1 || f(); print(g); return 0; }"
    [ 0 ]

(* --- control flow -------------------------------------------------------- *)

let test_if () =
  check_exit "then" "int main() { if (1) return 10; return 20; }" 10;
  check_exit "else" "int main() { if (0) return 10; else return 20; return 30; }" 20;
  check_exit "nested"
    "int main() { int x = 5; if (x > 3) { if (x > 4) return 1; return 2; } return 3; }"
    1

let test_loops () =
  check_exit "while" "int main() { int s = 0; int i = 0; while (i < 10) { s += i; i++; } return s; }" 45;
  check_exit "for" "int main() { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }" 45;
  check_exit "do-while" "int main() { int i = 0; do { i++; } while (i < 5); return i; }" 5;
  check_exit "do-while runs once" "int main() { int i = 9; do { i++; } while (0); return i; }" 10;
  check_exit "zero-trip while" "int main() { int i = 0; while (0) i = 9; return i; }" 0;
  check_exit "break" "int main() { int i = 0; while (1) { if (i == 7) break; i++; } return i; }" 7;
  check_exit "continue"
    "int main() { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2) continue; s += i; } return s; }"
    20;
  check_exit "nested break"
    "int main() { int c = 0; for (int i = 0; i < 3; i++) { for (int j = 0; j < 10; j++) { if (j == 2) break; c++; } } return c; }"
    6

(* Mini-C has no forward declarations; mutual recursion works because all
   functions are in scope regardless of definition order. *)
let test_functions () =
  check_exit "call" "int add(int a, int b) { return a + b; } int main() { return add(40, 2); }" 42;
  check_exit "recursion"
    "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(12); }"
    144;
  check_exit "mutual recursion"
    {| int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
       int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
       int main() { return is_even(10) + is_odd(7); } |}
    2;
  check_exit "void function"
    "int g; void set(int v) { g = v; } int main() { set(9); return g; }" 9;
  check_exit "fall-off returns 0" "int f() { } int main() { return f() + 5; }" 5

let test_arrays () =
  check_exit "global array"
    "int a[10]; int main() { for (int i = 0; i < 10; i++) a[i] = i * i; return a[7]; }"
    49;
  check_exit "local array"
    "int main() { int a[5]; a[0] = 3; a[4] = 4; return a[0] + a[4]; }" 7;
  check_exit "array param (by reference)"
    {| void fill(int a[], int n) { for (int i = 0; i < n; i++) a[i] = i + 1; }
       int sum(int a[], int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }
       int main() { int b[6]; fill(b, 6); return sum(b, 6); } |}
    21;
  check_exit "global array by reference"
    {| int buf[4];
       void bump(int a[]) { a[2] += 5; }
       int main() { buf[2] = 1; bump(buf); return buf[2]; } |}
    6;
  check_exit "op-assign on element"
    "int a[3]; int main() { a[1] = 10; a[1] *= 3; a[1]++; return a[1]; }" 31;
  check_exit "zero-initialized locals" "int main() { int x; int a[4]; return x + a[3]; }" 0

let test_globals () =
  check_exit "init value" "int g = 41; int main() { return g + 1; }" 42;
  check_exit "default zero" "int g; int main() { return g; }" 0;
  check_exit "shared state"
    "int c; void inc() { c++; } int main() { inc(); inc(); inc(); return c; }" 3

let test_print () =
  check_output "prints in order"
    "int main() { for (int i = 0; i < 3; i++) print(i * 10); return 0; }"
    [ 0; 10; 20 ]

(* --- traps --------------------------------------------------------------- *)

let expect_trap name src =
  match run src with
  | exception Machine.Trap _ -> ()
  | _ -> Alcotest.failf "%s: expected a trap" name

let test_traps () =
  expect_trap "div by zero" "int main() { int z = 0; return 1 / z; }";
  expect_trap "mod by zero" "int main() { int z = 0; return 1 % z; }";
  expect_trap "index oob high" "int a[3]; int main() { return a[3]; }";
  expect_trap "index oob low" "int a[3]; int main() { int i = -1; return a[i]; }";
  expect_trap "stack overflow" "int f(int n) { return f(n + 1); } int main() { return f(0); }";
  expect_trap "out of fuel" "int main() { while (1) { } return 0; }"

(* --- differential: hooked run must not change semantics ------------------ *)

let test_hooked_equivalence () =
  let srcs =
    [
      "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; return s; }";
      {| int a[32];
         int f(int a[], int n) { int s = 0; for (int i = 0; i < n; i++) { if (a[i] % 2) s += a[i]; else s -= 1; } return s; }
         int main() { for (int i = 0; i < 32; i++) a[i] = i * 7 % 13; print(f(a, 32)); return f(a, 16); } |};
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(15); }";
    ]
  in
  List.iter
    (fun src ->
      let prog = Compile.compile_source src in
      let r1 = Machine.run ~fuel:10_000_000 prog in
      let events = ref 0 in
      let hooks =
        {
          Vm.Hooks.noop with
          on_instr = (fun ~pc:_ -> incr events);
          on_read = (fun ~pc:_ ~addr:_ -> incr events);
          on_write = (fun ~pc:_ ~addr:_ -> incr events);
        }
      in
      let r2 = Machine.run_hooked ~fuel:10_000_000 hooks prog in
      Alcotest.(check int) "exit" r1.Machine.exit_value r2.Machine.exit_value;
      Alcotest.(check (list int)) "output" r1.Machine.output r2.Machine.output;
      Alcotest.(check int) "instructions" r1.Machine.instructions r2.Machine.instructions;
      Alcotest.(check bool) "events fired" true (!events > r1.Machine.instructions))
    srcs

(* --- event stream sanity -------------------------------------------------- *)

let test_event_counts () =
  (* Each loop iteration: i read for cond, body write g, i update r/w.
     Just check reads/writes are plausible and reads >= writes. *)
  let src = "int g; int main() { for (int i = 0; i < 50; i++) g += i; return g; }" in
  let prog = Compile.compile_source src in
  let reads = ref 0 and writes = ref 0 in
  let hooks =
    {
      Vm.Hooks.noop with
      on_read = (fun ~pc:_ ~addr:_ -> incr reads);
      on_write = (fun ~pc:_ ~addr:_ -> incr writes);
    }
  in
  ignore (Machine.run_hooked hooks prog);
  Alcotest.(check bool) "reads > 100" true (!reads > 100);
  Alcotest.(check bool) "writes > 50" true (!writes > 50);
  Alcotest.(check bool) "reads >= writes" true (!reads >= !writes)

let test_branch_events () =
  let src = "int main() { int s = 0; for (int i = 0; i < 5; i++) { if (i == 2) s++; } return s; }" in
  let prog = Compile.compile_source src in
  let loop_evals = ref 0 and loop_exits = ref 0 and if_evals = ref 0 in
  let hooks =
    {
      Vm.Hooks.noop with
      on_branch =
        (fun ~pc:_ ~kind ~cid:_ ~taken ->
          match kind with
          | Vm.Instr.BrLoop ->
              incr loop_evals;
              if taken then incr loop_exits
          | Vm.Instr.BrIf -> incr if_evals
          | Vm.Instr.BrSc -> ());
    }
  in
  ignore (Machine.run_hooked hooks prog);
  Alcotest.(check int) "loop predicate evals" 6 !loop_evals;
  Alcotest.(check int) "loop exits" 1 !loop_exits;
  Alcotest.(check int) "if predicate evals" 5 !if_evals

let test_call_events () =
  let src = "int f(int x) { return x + 1; } int main() { return f(f(f(0))); }" in
  let prog = Compile.compile_source src in
  let calls = ref [] and rets = ref 0 and releases = ref 0 in
  let hooks =
    {
      Vm.Hooks.noop with
      on_call = (fun ~pc:_ ~fid -> calls := fid :: !calls);
      on_ret = (fun ~pc:_ ~fid:_ -> incr rets);
      on_frame_release = (fun ~base:_ ~size:_ -> incr releases);
    }
  in
  let r = Machine.run_hooked hooks prog in
  Alcotest.(check int) "exit" 3 r.Machine.exit_value;
  Alcotest.(check int) "calls (3 f + 1 main)" 4 (List.length !calls);
  Alcotest.(check int) "rets" 4 !rets;
  Alcotest.(check int) "frame releases" 4 !releases

(* --- frame address freshness ---------------------------------------------- *)

let test_frame_freshness () =
  (* Two sibling calls at the same depth share stack addresses, but the
     VM reports a release between them, allowing shadow cleanup. Verify the
     second frame's base equals the first's (reuse), and that release events
     cover it. *)
  let src = "int f() { int x = 1; return x; } int main() { f(); return f(); }" in
  let prog = Compile.compile_source src in
  let bases = ref [] and released = ref [] in
  let hooks =
    {
      Vm.Hooks.noop with
      on_write = (fun ~pc:_ ~addr -> bases := addr :: !bases);
      on_frame_release = (fun ~base ~size -> released := (base, size) :: !released);
    }
  in
  ignore (Machine.run_hooked hooks prog);
  Alcotest.(check int) "three releases" 3 (List.length !released)

let test_disasm_smoke () =
  let prog = Compile.compile_source "int main() { if (1) return 2; return 3; }" in
  let text = Vm.Disasm.to_string prog in
  Alcotest.(check bool) "mentions main" true
    (Testutil.contains text "function main")

(* Range sets answer membership exactly as a scan of the ranges would,
   for overlapping, touching, empty and negative-length ranges alike. *)
let test_ranges_membership () =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_bound 6) (pair (int_range (-5) 40) (int_range (-2) 8)))
        (list_size (return 20) (int_range (-10) 50)))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"Ranges.mem matches a scan" ~count:500
       (QCheck.make gen) (fun (ranges, probes) ->
         let set = Vm.Ranges.of_list ranges in
         List.for_all
           (fun x ->
             Vm.Ranges.mem set x
             = List.exists (fun (b, l) -> b <= x && x < b + l) ranges)
           probes))

let suite =
  [
    ("arith", `Quick, test_arith);
    ("logical", `Quick, test_logical);
    ("if", `Quick, test_if);
    ("loops", `Quick, test_loops);
    ("functions", `Quick, test_functions);
    ("arrays", `Quick, test_arrays);
    ("globals", `Quick, test_globals);
    ("print", `Quick, test_print);
    ("traps", `Quick, test_traps);
    ("hooked equivalence", `Quick, test_hooked_equivalence);
    ("event counts", `Quick, test_event_counts);
    ("branch events", `Quick, test_branch_events);
    ("call events", `Quick, test_call_events);
    ("frame freshness", `Quick, test_frame_freshness);
    ("disasm smoke", `Quick, test_disasm_smoke);
    ("range sets", `Quick, test_ranges_membership);
  ]
