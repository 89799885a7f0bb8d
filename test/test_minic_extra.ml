(* Additional frontend edge cases: lexical corners, grammar corners,
   scoping rules, and printer stability on tricky nodes. *)

module Ast = Minic.Ast
module Parser = Minic.Parser
module Typecheck = Minic.Typecheck

let parse_ok src =
  match Minic.Diag.wrap (fun () -> Parser.parse src) with
  | Ok p -> p
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let check_ok src = Typecheck.check (parse_ok src)

let check_fails name src =
  match Typecheck.check_result (parse_ok src) with
  | Ok () -> Alcotest.failf "%s: expected a type error" name
  | Error _ -> ()

let run src =
  Vm.Machine.run ~fuel:5_000_000 (Vm.Compile.compile_source src)

let check_exit name src expected =
  Alcotest.(check int) name expected (run src).Vm.Machine.exit_value

(* --- lexical corners -------------------------------------------------------- *)

let test_adjacent_operators () =
  (* ++ binds greedily: [x++ + y] parses, [x+++y] lexes as [x ++ + y]
     which is a syntax error in statement position. *)
  check_exit "x++ then use" "int main() { int x = 1; x++; return x + 1; }" 3;
  let toks = Minic.Lexer.tokenize "x+++y" in
  Alcotest.(check int) "x ++ + y eof" 5 (Array.length toks)

let test_big_hex () =
  check_exit "large hex" "int main() { return (0x7fffffff >> 24) & 0xff; }" 127

let test_char_escapes_in_ops () =
  check_exit "char arithmetic" "int main() { return 'z' - 'a'; }" 25

let test_comment_tricks () =
  check_exit "comment between tokens"
    "int main() { return 1 /* one */ + /* two */ 2; }" 3;
  check_exit "line comment at eof" "int main() { return 4; } // done" 4;
  check_exit "star inside block comment"
    "int main() { /* * ** *** */ return 5; }" 5

(* --- grammar corners --------------------------------------------------------- *)

let test_else_if_chain () =
  check_exit "chained else if"
    {|int classify(int x) {
        if (x < 0) return -1;
        else if (x == 0) return 0;
        else if (x < 10) return 1;
        else return 2;
      }
      int main() { return classify(-5) + classify(0) + classify(3) + classify(99); }|}
    2

let test_empty_blocks () =
  check_exit "empty everything"
    "int main() { { } if (1) { } else { } while (0) { } { { } } return 6; }" 6

let test_deep_nesting () =
  (* 60 nested parens and 40 nested blocks: no parser stack issues. *)
  let parens = String.concat "" (List.init 60 (fun _ -> "(")) in
  let closes = String.concat "" (List.init 60 (fun _ -> ")")) in
  check_exit "deep parens"
    (Printf.sprintf "int main() { return %s7%s; }" parens closes)
    7;
  let opens = String.concat "" (List.init 40 (fun _ -> "{ ")) in
  let shuts = String.concat "" (List.init 40 (fun _ -> "} ")) in
  check_exit "deep blocks"
    (Printf.sprintf "int main() { %s int x = 9; %s return 3; }" opens shuts)
    3

let test_for_clause_combos () =
  check_exit "no init" "int main() { int i = 0; for (; i < 4; i++) { } return i; }" 4;
  check_exit "no update"
    "int main() { int s = 0; for (int i = 0; i < 4;) { s++; i++; } return s; }" 4;
  check_exit "only cond"
    "int main() { int i = 5; for (; i > 0;) i--; return i; }" 0

let test_do_while_with_continue () =
  (* continue in do-while jumps to the condition *)
  check_exit "do-while continue"
    {|int main() {
        int i = 0;
        int s = 0;
        do {
          i++;
          if (i % 2) continue;
          s += i;
        } while (i < 6);
        return s;
      }|}
    12

(* --- scoping ------------------------------------------------------------------ *)

let test_local_shadows_param () =
  check_ok "int f(int x) { { int x = 5; } return x; } int main() { return f(1); }";
  check_exit "shadow value"
    "int f(int x) { { int x = 5; x = x + 1; } return x; } int main() { return f(7); }"
    7

let test_function_name_not_a_var () =
  check_fails "function as value" "int f() { return 0; } int main() { return f + 1; }"

let test_void_in_value_positions () =
  check_fails "print(void)" "void f() { } int main() { print(f()); return 0; }";
  check_fails "void in arith" "void f() { } int main() { int x = f(); return x; }";
  check_fails "void as condition" "void f() { } int main() { if (f()) return 1; return 0; }"

let test_global_shadowed_by_param () =
  check_exit "param shadows global"
    "int x = 100; int f(int x) { return x; } int main() { return f(3); }" 3

(* --- semantics corners ---------------------------------------------------------- *)

let test_c_division_truncation () =
  (* C99 semantics: truncation toward zero; OCaml matches. *)
  check_exit "-7/2" "int main() { int a = -7; return a / 2; }" (-3);
  check_exit "-7%%2" "int main() { int a = -7; return a % 2; }" (-1);
  check_exit "7/-2" "int main() { int b = -2; return 7 / b; }" (-3)

let test_shift_bounds () =
  (* VM ints are 63-bit OCaml ints: bit 61 is the top positive bit,
     shifting into bit 62 lands on the sign bit (defined, negative). *)
  check_exit "shift 61 ok" "int main() { return (1 << 61) > 0; }" 1;
  check_exit "shift 62 is the sign bit" "int main() { return (1 << 62) < 0; }" 1;
  (match run "int main() { int s = 63; return 1 << s; }" with
  | exception Vm.Machine.Trap _ -> ()
  | _ -> Alcotest.fail "shift by 63 should trap")

let test_index_once_in_op_assign () =
  (* [a[f()] += 1] must evaluate the index expression exactly once. *)
  check_exit "index evaluated once"
    {|int a[8];
      int calls;
      int f() { calls++; return 2; }
      int main() { a[2] = 10; a[f()] += 5; return a[2] * 10 + calls; }|}
    151

let test_aliasing_through_params () =
  check_exit "two refs to one array"
    {|int buf[4];
      int f(int x[], int y[]) { x[0] = 7; return y[0]; }
      int main() { return f(buf, buf); }|}
    7

let test_frames_do_not_leak () =
  (* Uninitialized locals read 0 even after a previous call dirtied the
     same stack slots. *)
  check_exit "fresh frames"
    {|int dirty() { int x = 99; return x; }
      int probe() { int x; return x; }
      int main() { dirty(); return probe(); }|}
    0

let test_deep_recursion_ok () =
  check_exit "recursion below the limit"
    "int f(int n) { if (n == 0) return 0; return f(n - 1); } int main() { return f(9000); }"
    0

let test_print_negative () =
  let r = run "int main() { print(-42); print(0 - 100); return 0; }" in
  Alcotest.(check (list int)) "negative output" [ -42; -100 ] r.Vm.Machine.output

let test_main_int_result () =
  check_exit "void main exits 0"
    "int g; void main() { g = 5; }" 0

(* --- lints ---------------------------------------------------------- *)

let lints src =
  let p = parse_ok src in
  Typecheck.check p;
  List.map (fun (w : Minic.Diag.warning) -> w.wmsg) (Minic.Lint.program p)

let contains_lint msgs needle =
  List.exists (fun m -> Testutil.contains m needle) msgs

let test_lint_fires () =
  let msgs =
    lints
      {|int used_g;
        int unused_g;
        int dead_g;
        int f(int x, int y) { dead_g = x; return x + used_g; }
        int main() {
          int u;
          int d = 1;
          d = 2;
          return f(3, 4);
        }|}
  in
  Alcotest.(check int) "warning count" 5 (List.length msgs);
  Alcotest.(check bool) "unused global" true
    (contains_lint msgs "unused global 'unused_g'");
  Alcotest.(check bool) "dead-store global" true
    (contains_lint msgs "'dead_g' is assigned but never read");
  Alcotest.(check bool) "unused parameter" true
    (contains_lint msgs "unused parameter 'y'");
  Alcotest.(check bool) "unused local" true
    (contains_lint msgs "unused variable 'u'");
  Alcotest.(check bool) "dead-store local" true
    (contains_lint msgs "'d' is assigned but never read")

let test_lint_clean_and_byref () =
  (* A clean program lints clean; passing an array by reference counts
     as both a read and a write, so it is neither unused nor dead. *)
  Alcotest.(check (list string)) "clean" []
    (lints
       {|int buf[4];
         void fill(int a[]) { a[0] = 7; }
         int main() { fill(buf); return buf[0]; }|});
  (* Shadowing: the inner local is dead, the outer one is not. *)
  let msgs =
    lints
      {|int main() {
          int x = 1;
          { int x = 2; x = 3; }
          return x;
        }|}
  in
  Alcotest.(check int) "one warning" 1 (List.length msgs);
  Alcotest.(check bool) "inner x dead" true
    (contains_lint msgs "'x' is assigned but never read")

let test_lint_invariant_subscript () =
  (* [a[k]] inside the loop: k is never assigned there, so the address is
     loop-invariant; [b[i]] uses the induction variable and stays quiet. *)
  let msgs =
    lints
      {|int a[10];
        int b[10];
        int main() {
          int i;
          int k = 3;
          int s = 0;
          for (i = 0; i < 10; i = i + 1) {
            s = s + a[k];
            b[i] = b[i] + 1;
          }
          return s;
        }|}
  in
  Alcotest.(check bool) "invariant subscript warns" true
    (contains_lint msgs "loop-invariant subscript of 'a'");
  Alcotest.(check bool) "induction subscript quiet" false
    (contains_lint msgs "subscript of 'b'")

let test_lint_invariant_subscript_call_blocks_global () =
  (* With a call in the loop the callee may write the global [g], so
     [a[g]] is no longer provably invariant; the local [k] still is. *)
  let msgs =
    lints
      {|int g;
        int a[10];
        int bump() { g = g + 1; return 0; }
        int main() {
          int i;
          int k = 2;
          int s = 0;
          for (i = 0; i < 10; i = i + 1) {
            s = s + a[g] + a[k] + bump();
          }
          return s;
        }|}
  in
  Alcotest.(check bool) "global subscript quiet under calls" false
    (contains_lint msgs "(g never changes");
  Alcotest.(check bool) "local subscript still warns" true
    (contains_lint msgs "(k never changes");
  (* "Global" is decided by scope, not by name: a local that shadows the
     global [g] is main's own, and no call can change it. *)
  Alcotest.(check bool) "local shadowing a global still warns" true
    (contains_lint
       (lints
          {|int g;
            int a[8];
            int f() { return 0; }
            int main() {
              int s = 0;
              int g = 3;
              for (int i = 0; i < 4; i++) { s = s + a[g]; f(); }
              return s + g;
            }|})
       "(g never changes")

let test_lint_invariant_innermost_only () =
  (* [a[j]] varies in the inner loop (j is its induction variable) and
     only the innermost enclosing loop is judged — no warning even
     though j is invariant across each outer iteration's start. *)
  let msgs =
    lints
      {|int a[10];
        int main() {
          int i; int j;
          int s = 0;
          for (i = 0; i < 3; i = i + 1) {
            for (j = 0; j < 3; j = j + 1) { s = s + a[j]; }
          }
          return s;
        }|}
  in
  Alcotest.(check bool) "inner-variant subscript quiet" false
    (contains_lint msgs "loop-invariant subscript")

let test_lint_constant_condition () =
  let msgs =
    lints
      {|int main() {
          int s = 0;
          while (1 < 2) {
            s = s + 1;
            if (s > 3) break;
          }
          return s;
        }|}
  in
  Alcotest.(check bool) "constant condition warns" true
    (contains_lint msgs "loop condition is provably constant");
  (* A condition reading a variable is not constant; a [for] without a
     condition is the idiomatic infinite loop and stays quiet. *)
  let msgs =
    lints
      {|int main() {
          int s = 0;
          while (s < 4) { s = s + 1; }
          for (;;) { break; }
          return s;
        }|}
  in
  Alcotest.(check bool) "variable condition quiet" false
    (contains_lint msgs "provably constant")

(* One test per accumulate shape: [op=] and [x = x op e] for every
   associative-commutative operator warn when the accumulator is also
   passed to a call in the same loop. *)
let test_lint_reduction_escape_shapes () =
  let warns body =
    contains_lint
      (lints
         (Printf.sprintf
            {|int sink(int v) { return v; }
              int main() {
                int s = 1;
                for (int i = 0; i < 8; i++) {
                  %s
                }
                return s;
              }|}
            body))
      "escapes via call to 'sink'"
  in
  List.iter
    (fun (label, body) ->
      Alcotest.(check bool) label true (warns body))
    [
      ("plus op-assign", "s += i; sink(s);");
      ("times op-assign", "s *= 2; sink(s);");
      ("and op-assign", "s &= i; sink(s);");
      ("or op-assign", "s |= i; sink(s);");
      ("xor op-assign", "s ^= i; sink(s);");
      ("plus rewrite", "s = s + i; sink(s);");
      ("commuted plus", "s = i + s; sink(s);");
      ("accumulate under if", "if (i > 2) { s += i; } sink(s);");
    ];
  List.iter
    (fun (label, body) ->
      Alcotest.(check bool) label false (warns body))
    [
      (* non-associative ops are not reductions *)
      ("minus op-assign quiet", "s -= i; sink(s);");
      ("divide quiet", "s = s / 2; sink(s);");
      ("shift quiet", "s <<= 1; sink(s);");
      (* a second read of the accumulator is not a reduction *)
      ("self-read rhs quiet", "s = s + (s & i); sink(s);");
      ("self-read in call quiet", "s = s + sink(s);");
      (* the induction variable is control, not a reduction *)
      ("induction variable quiet", "sink(i);");
      (* no call: the reduction is fine *)
      ("call-free quiet", "s = s + i;");
      (* the call receives something else *)
      ("other arg quiet", "s = s + i; sink(i);");
    ]

let test_lint_reduction_escape_scopes () =
  (* a call in a nested loop still escapes the outer accumulator ... *)
  let msgs =
    lints
      {|int sink(int v) { return v; }
        int main() {
          int s = 0;
          for (int i = 0; i < 4; i++) {
            s = s + i;
            for (int j = 0; j < 4; j++) { sink(s); }
          }
          return s;
        }|}
  in
  Alcotest.(check bool) "nested call escapes outer accumulator" true
    (contains_lint msgs "accumulator 's'");
  (* ... but a call in a disjoint loop does not *)
  let msgs =
    lints
      {|int sink(int v) { return v; }
        int main() {
          int s = 0;
          for (int i = 0; i < 4; i++) { s = s + i; }
          for (int j = 0; j < 4; j++) { sink(j); }
          return s + sink(s);
        }|}
  in
  Alcotest.(check bool) "disjoint loop stays quiet" false
    (contains_lint msgs "escapes via call")

(* The shared-write lint: a global scalar written in a loop warns
   unless the write is write-first (privatizable) or a reduction-shaped
   accumulate. *)
let test_lint_shared_global_write () =
  let warns body =
    contains_lint
      (lints
         (Printf.sprintf
            {|int g;
              int s;
              int main() {
                for (int i = 0; i < 8; i++) {
                  %s
                }
                return g + s;
              }|}
            body))
      "spawned iterations would race"
  in
  List.iter
    (fun (label, body) -> Alcotest.(check bool) label true (warns body))
    [
      ("read-then-write", "s = s + g; g = i;");
      ("conditional write", "if (i > 2) { g = i; }");
      ("non-associative fold", "g = g - i;");
      ("read via subscript-free rhs", "g = g * 2 + 1;");
    ];
  List.iter
    (fun (label, body) -> Alcotest.(check bool) label false (warns body))
    [
      ("write-first is privatizable", "g = i; s = s + g;");
      ("reduction accumulate", "g = g + i;");
      ("op-assign reduction", "g += i;");
      ("read-only global", "s = s + g;");
      ("local writes quiet", "int t; t = i; s = s + t;");
      ( "loop-local shadows the global",
        "int g = 0; if (i > 1) { g = i; } s = s + g;" );
    ];
  (* judged per innermost loop: the inner loop's write-first global is
     quiet even when scanned from the outer loop *)
  Alcotest.(check bool) "innermost only" false
    (contains_lint
       (lints
          {|int g;
            int s;
            int main() {
              for (int i = 0; i < 4; i++) {
                for (int j = 0; j < 4; j++) { g = j; s = s + g; }
              }
              return g + s;
            }|})
       "spawned iterations would race");
  (* judged by scope, not by name: a parameter that shadows a global is
     the callee's own copy *)
  Alcotest.(check bool) "parameter shadows the global" false
    (contains_lint
       (lints
          {|int g;
            int s;
            int f(int g) {
              for (int i = 0; i < 4; i++) {
                if (i > 1) { g = i; }
                s = s + g;
              }
              return g;
            }
            int main() { return f(3) + g + s; }|})
       "spawned iterations would race")

(* Every lint over the nine registry programs at their default scale,
   location and message as [--warn] prints them. The snippet tests
   above compare messages only; this pins where each warning lands. *)
let test_lint_registry_golden () =
  let rendered =
    List.concat_map
      (fun (w : Workloads.Workload.t) ->
        let ast = Minic.Frontend.load (w.source ~scale:w.default_scale) in
        List.map
          (fun x -> Format.asprintf "%s: %a\n" w.name Minic.Diag.pp_warning x)
          (Minic.Lint.program ast))
      Workloads.Registry.all
  in
  Alcotest.(check string) "byte-identical to the golden"
    (In_channel.with_open_bin "golden/lint-registry.txt" In_channel.input_all)
    (String.concat "" rendered)

let suite =
  [
    ("adjacent operators", `Quick, test_adjacent_operators);
    ("big hex", `Quick, test_big_hex);
    ("char arithmetic", `Quick, test_char_escapes_in_ops);
    ("comment tricks", `Quick, test_comment_tricks);
    ("else-if chain", `Quick, test_else_if_chain);
    ("empty blocks", `Quick, test_empty_blocks);
    ("deep nesting", `Quick, test_deep_nesting);
    ("for clause combos", `Quick, test_for_clause_combos);
    ("do-while continue", `Quick, test_do_while_with_continue);
    ("local shadows param", `Quick, test_local_shadows_param);
    ("function name not a var", `Quick, test_function_name_not_a_var);
    ("void in value positions", `Quick, test_void_in_value_positions);
    ("param shadows global", `Quick, test_global_shadowed_by_param);
    ("C division truncation", `Quick, test_c_division_truncation);
    ("shift bounds", `Quick, test_shift_bounds);
    ("op-assign index once", `Quick, test_index_once_in_op_assign);
    ("aliasing through params", `Quick, test_aliasing_through_params);
    ("frames do not leak", `Quick, test_frames_do_not_leak);
    ("deep recursion ok", `Quick, test_deep_recursion_ok);
    ("print negative", `Quick, test_print_negative);
    ("void main exits 0", `Quick, test_main_int_result);
    ("lints fire", `Quick, test_lint_fires);
    ("lints stay quiet", `Quick, test_lint_clean_and_byref);
    ("invariant subscript", `Quick, test_lint_invariant_subscript);
    ( "invariant subscript vs calls",
      `Quick,
      test_lint_invariant_subscript_call_blocks_global );
    ("invariant innermost only", `Quick, test_lint_invariant_innermost_only);
    ("constant loop condition", `Quick, test_lint_constant_condition);
    ( "reduction escape shapes",
      `Quick,
      test_lint_reduction_escape_shapes );
    ( "reduction escape scopes",
      `Quick,
      test_lint_reduction_escape_scopes );
    ("shared global write", `Quick, test_lint_shared_global_write);
    ("lint registry golden", `Quick, test_lint_registry_golden);
  ]
