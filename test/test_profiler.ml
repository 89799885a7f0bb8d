(* End-to-end tests of the Alchemist profiler: dependence distances are
   attributed to the right constructs with the right nesting distinctions. *)

module Profiler = Alchemist.Profiler
module Profile = Alchemist.Profile
module Violation = Alchemist.Violation
module Ranking = Alchemist.Ranking
module Dep = Shadow.Dependence

let profile src = Profiler.run_source ~fuel:50_000_000 src

(* Find the cid of a construct by kind + source line. *)
let find_construct (p : Profile.t) kind line =
  let found = ref None in
  Array.iter
    (fun (c : Vm.Program.construct_info) ->
      if c.kind = kind && c.loc.Minic.Srcloc.line = line then found := Some c.cid)
    p.prog.constructs;
  match !found with
  | Some cid -> cid
  | None -> Alcotest.failf "no %s construct at line %d"
              (match kind with
               | Vm.Program.CProc -> "proc" | Vm.Program.CLoop -> "loop"
               | Vm.Program.CCond -> "cond")
              line

let find_func_construct (p : Profile.t) name =
  let found = ref None in
  Array.iter
    (fun (c : Vm.Program.construct_info) ->
      if c.kind = Vm.Program.CProc && c.cname = name then found := Some c.cid)
    p.prog.constructs;
  Option.get !found

let edge_kinds_of (p : Profile.t) cid =
  let cp = Profile.get p cid in
  Profile.fold_edges cp (fun (k : Profile.edge_key) _ acc -> k.kind :: acc) []

(* --- nesting discrimination (the paper's "Precision" claim) -------------- *)

(* Intra-iteration dependence: head's enclosing instance is still active at
   the tail, so NO construct profile records it. *)
let test_intra_iteration_invisible () =
  let src =
    {|int g;
      int h;
      int main() {
        for (int i = 0; i < 10; i++) {
          g = i;
          h = g;
        }
        return h;
      }|}
  in
  let r = profile src in
  let loop = find_construct r.Profiler.profile Vm.Program.CLoop 4 in
  let cp = Profile.get r.Profiler.profile loop in
  (* g is written then read within the same iteration: no cross-boundary
     RAW on g. The loop counter i itself is loop-carried, so edges may
     exist — check specifically there is no edge whose head is the write
     to g (line 5) and tail the read of g (line 6). *)
  Profile.iter_edges cp
    (fun (k : Profile.edge_key) _ ->
      let hl = Alchemist.Report.line_of_pc r.Profiler.profile k.head_pc in
      let tl = Alchemist.Report.line_of_pc r.Profiler.profile k.tail_pc in
      if k.kind = Dep.Raw && hl = 5 && tl = 6 then
        Alcotest.fail "intra-iteration RAW must not be profiled")

(* Loop-carried dependence: recorded on the loop, not on the function. *)
let test_loop_carried_on_loop_only () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 10; i++) {
          g = g + i;
        }
        return g;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let loop = find_construct p Vm.Program.CLoop 3 in
  let cp = Profile.get p loop in
  let g_edges =
    Profile.fold_edges cp
      (fun (k : Profile.edge_key) _ acc ->
        let hl = Alchemist.Report.line_of_pc p k.head_pc in
        let tl = Alchemist.Report.line_of_pc p k.tail_pc in
        if hl = 4 && tl = 4 && k.kind = Dep.Raw then k :: acc else acc)
      []
  in
  Alcotest.(check bool) "loop-carried RAW on loop" true (g_edges <> []);
  (* The function construct main is still active: no edge on it. *)
  let main_cid = find_func_construct p "main" in
  let main_cp = Profile.get p main_cid in
  Alcotest.(check int) "main has no edges" 0 (Profile.num_edges main_cp)

(* The paper's §III four-cases example: same calling context, different
   loop-boundary crossings — Alchemist distinguishes them via the index
   tree. A() writes, B() reads:
   - same-j-iteration dep -> recorded on Method A only (j-iter active);
   - cross-j dep          -> also on Loop j;
   - cross-i dep          -> also on Loop i. *)
let test_section3_four_cases () =
  let src =
    {|int same[4];
      int crossj[4];
      int crossi[4];
      void A(int i, int j) {
        same[0] = i;
        crossj[j % 2] = i + j;
        crossi[i % 2] = i;
      }
      int sink;
      void B(int i, int j) {
        sink += same[0];
        if (j > 0) sink += crossj[(j + 1) % 2];
        sink += crossi[(i + 1) % 2];
      }
      int main() {
        for (int i = 0; i < 4; i++) {
          crossj[0] = 0;
          crossj[1] = 0;
          for (int j = 0; j < 4; j++) {
            A(i, j);
            B(i, j);
          }
        }
        return sink;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let cid_a = find_func_construct p "A" in
  let loop_j = find_construct p Vm.Program.CLoop 19 in
  let loop_i = find_construct p Vm.Program.CLoop 16 in
  let has_raw_from_line cid line =
    let cp = Profile.get p cid in
    Profile.fold_edges cp
      (fun (k : Profile.edge_key) _ acc ->
        acc
        || (k.kind = Dep.Raw
            && Alchemist.Report.line_of_pc p k.head_pc = line))
      false
  in
  (* Method A sees all three writes as dependence heads. *)
  Alcotest.(check bool) "A: same-iter dep" true (has_raw_from_line cid_a 5);
  Alcotest.(check bool) "A: cross-j dep" true (has_raw_from_line cid_a 6);
  Alcotest.(check bool) "A: cross-i dep" true (has_raw_from_line cid_a 7);
  (* Loop j: crossj and crossi cross its iterations; same[0] does not. *)
  Alcotest.(check bool) "loop j: no same-iter dep" false
    (has_raw_from_line loop_j 5);
  Alcotest.(check bool) "loop j: cross-j dep" true (has_raw_from_line loop_j 6);
  (* Loop i: only crossi crosses i-iterations. *)
  Alcotest.(check bool) "loop i: no same-iter dep" false
    (has_raw_from_line loop_i 5);
  Alcotest.(check bool) "loop i: no cross-j dep" false
    (has_raw_from_line loop_i 6);
  Alcotest.(check bool) "loop i: cross-i dep" true (has_raw_from_line loop_i 7)

(* Procedure-continuation dependence: a call writes a global read after the
   call returns; the Method construct records it. *)
let test_proc_continuation_dep () =
  let src =
    {|int g;
      void produce() { g = 42; }
      int main() {
        produce();
        int x = g;
        return x;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let cid = find_func_construct p "produce" in
  let kinds = edge_kinds_of p cid in
  Alcotest.(check bool) "RAW out of produce" true (List.mem Dep.Raw kinds)

(* WAR and WAW out of a procedure. *)
let test_war_waw_detection () =
  let src =
    {|int g;
      int h;
      int sink;
      void touch() { sink = g; h = 1; }
      int main() {
        touch();
        g = 100;       // WAR vs the read of g in touch
        h = 2;         // WAW vs the write of h in touch
        return g + h + sink;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let cid = find_func_construct p "touch" in
  let kinds = edge_kinds_of p cid in
  Alcotest.(check bool) "WAR" true (List.mem Dep.War kinds);
  Alcotest.(check bool) "WAW" true (List.mem Dep.Waw kinds)

(* --- Tdur and instance counting ------------------------------------------- *)

let test_tdur_and_instances () =
  let src =
    {|int work(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += i;
        return s;
      }
      int main() {
        int t = 0;
        t += work(50);
        t += work(50);
        return t;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let cid = find_func_construct p "work" in
  let cp = Profile.get p cid in
  Alcotest.(check int) "two instances" 2 cp.instances;
  let mean = Profile.mean_duration cp in
  Alcotest.(check bool) "mean duration plausible" true (mean > 100 && mean < 2000);
  (* main's Ttotal covers nearly the whole run. *)
  let main_cp = Profile.get p (find_func_construct p "main") in
  Alcotest.(check bool) "main covers nearly everything" true
    (main_cp.ttotal > r.Profiler.stats.Profiler.instructions * 9 / 10)

let test_recursion_no_double_count () =
  let src =
    {|int fib(int n) {
        if (n < 2) return n;
        return fib(n - 1) + fib(n - 2);
      }
      int main() { return fib(14); }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let cid = find_func_construct p "fib" in
  let cp = Profile.get p cid in
  (* Without the §III-B nesting counters Ttotal would be the sum over all
     activations (far larger than the run); with them it is the duration
     of the single outermost call, i.e. < total instructions. *)
  Alcotest.(check bool)
    (Printf.sprintf "ttotal %d <= instructions %d" cp.ttotal
       r.Profiler.stats.Profiler.instructions)
    true
    (cp.ttotal <= r.Profiler.stats.Profiler.instructions);
  Alcotest.(check bool) "many instances" true (cp.instances > 100)

let test_loop_instances_count_iterations () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 7; i++) g += i;
        return g;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let loop = find_construct p Vm.Program.CLoop 3 in
  let cp = Profile.get p loop in
  Alcotest.(check int) "7 iterations = 7 instances" 7 cp.instances

let test_zero_trip_loop () =
  let src =
    {|int main() {
        int g = 0;
        while (g > 0) { g--; }
        return g;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let loop = find_construct p Vm.Program.CLoop 3 in
  let cp = Profile.get p loop in
  Alcotest.(check int) "zero instances" 0 cp.instances

(* --- Tdep values ------------------------------------------------------------ *)

let test_min_tdep_is_minimum () =
  (* g is written each iteration and read at varying distances afterwards;
     the profile must keep the minimum. Construct a case with known gap:
     write at iteration end, read at next iteration start -> small Tdep;
     plus a read far later -> the min must be the small one. *)
  let src =
    {|int g;
      int sink;
      int main() {
        for (int i = 0; i < 5; i++) {
          sink += g;
          g = i;
        }
        int j = 0;
        while (j < 1000) { j++; }
        sink += g;
        return sink;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let loop = find_construct p Vm.Program.CLoop 4 in
  let cp = Profile.get p loop in
  let raw_edges =
    Profile.fold_edges cp
      (fun (k : Profile.edge_key) (s : Profile.edge_stats) acc ->
        if
          k.kind = Dep.Raw
          && Alchemist.Report.line_of_pc p k.head_pc = 6
          && Alchemist.Report.line_of_pc p k.tail_pc = 5
        then s :: acc
        else acc)
      []
  in
  (match raw_edges with
  | [ s ] ->
      Alcotest.(check bool)
        (Printf.sprintf "min tdep small (%d)" s.min_tdep)
        true (s.min_tdep < 30);
      Alcotest.(check bool) "seen multiple times" true (s.count >= 3)
  | l -> Alcotest.failf "expected 1 edge, got %d" (List.length l));
  ignore r

(* --- violations and ranking -------------------------------------------------- *)

let test_parallel_friendly_vs_hostile () =
  (* Two functions called in loops: [indep] works on its own slot (no
     cross-call deps), [chain] each call reads the previous call's result.
     Ranking must show 0 violating RAW for indep's loop and >0 for chain's. *)
  let src =
    {|int out[64];
      int acc;
      void indep(int i) {
        int s = 0;
        for (int k = 0; k < 20; k++) s += i * k;
        out[i] = s;
      }
      void chain(int i) {
        int s = acc;
        for (int k = 0; k < 20; k++) s += k;
        acc = s;
      }
      int main() {
        for (int i = 0; i < 16; i++) indep(i);
        for (int i = 0; i < 16; i++) chain(i);
        return acc + out[3];
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let loop_indep = find_construct p Vm.Program.CLoop 14 in
  let loop_chain = find_construct p Vm.Program.CLoop 15 in
  let v_indep = Violation.summarize p ~cid:loop_indep in
  let v_chain = Violation.summarize p ~cid:loop_chain in
  Alcotest.(check int) "indep loop: no violating RAW" 0
    v_indep.Violation.raw_violating;
  Alcotest.(check bool) "chain loop: violating RAW" true
    (v_chain.Violation.raw_violating > 0)

let test_ranking_order () =
  let src =
    {|int g;
      void big() { for (int i = 0; i < 2000; i++) g += i; }
      void small() { g += 1; }
      int main() { big(); small(); return g; }|}
  in
  let r = profile src in
  let entries = Ranking.rank r.Profiler.profile in
  (* main first (encloses everything), then big's loop / Method big before
     Method small. *)
  let names = List.map (fun (e : Ranking.entry) -> e.name) entries in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not ranked" name
      | n :: _ when n = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 names
  in
  Alcotest.(check int) "main is rank 1" 0 (pos "Method main");
  Alcotest.(check bool) "big before small" true
    (pos "Method big" < pos "Method small")

let test_remove_with_singletons () =
  let src =
    {|int g;
      void once_per_iter() { g += 1; }
      int main() {
        for (int i = 0; i < 10; i++) {
          once_per_iter();
        }
        return g;
      }|}
  in
  let r = profile src in
  let p = r.Profiler.profile in
  let entries = Ranking.rank p in
  let loop = find_construct p Vm.Program.CLoop 4 in
  let after = Ranking.remove_with_singletons p entries ~cid:loop in
  let names = List.map (fun (e : Ranking.entry) -> e.name) after in
  Alcotest.(check bool) "loop removed" false
    (List.exists (fun n -> Testutil.contains n "Loop (main,4)") names);
  Alcotest.(check bool) "per-iteration callee removed too" false
    (List.mem "Method once_per_iter" names);
  Alcotest.(check bool) "main remains" true (List.mem "Method main" names)

(* --- stats / report ----------------------------------------------------------- *)

let test_stats_sane () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 100; i++) g += i;
        return g;
      }|}
  in
  let r = Profiler.run_source ~fuel:50_000_000 ~pool_capacity:16 src in
  let s = r.Profiler.stats in
  Alcotest.(check bool) "instructions counted" true (s.Profiler.instructions > 500);
  Alcotest.(check int) "forced pops" 0 s.Profiler.forced_pops;
  Alcotest.(check bool) "dynamic >= 100" true (s.Profiler.dynamic_constructs >= 100);
  Alcotest.(check int) "static constructs" 2 s.Profiler.static_constructs;
  Alcotest.(check bool) "pool bounded" true (s.Profiler.pool_allocated < 64)

(* Why gzip's bench telemetry shows [pool.reused: 0] with all-zero
   [pool.scan_len]: below capacity the pool always allocates fresh —
   the free-list scan only starts once [allocated = capacity]. The
   same program under a tiny capacity must show the opposite signature
   (reuse > 0, nonzero scan lengths). See DESIGN.md "Index node pool". *)
let test_pool_churn_signatures () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 400; i++) {
          for (int k = 0; k < 3; k++) g += i + k;
        }
        return g;
      }|}
  in
  let scan_sum r =
    match Obs.find (Profiler.telemetry r) "pool.scan_len" with
    | Some (Obs.Dist { sum; _ }) -> sum
    | _ -> Alcotest.fail "no pool.scan_len histogram"
  in
  (* below capacity: every acquire is a fresh allocation, no scans *)
  let roomy = Profiler.run_source ~fuel:50_000_000 ~pool_capacity:100_000 src in
  let s = roomy.Profiler.stats in
  Alcotest.(check int) "below capacity: no reuse" 0 s.Profiler.pool_reused;
  Alcotest.(check bool) "below capacity: pool not full" true
    (s.Profiler.pool_allocated < 100_000);
  Alcotest.(check int) "below capacity: scans never ran" 0 (scan_sum roomy);
  (* at capacity: the free-list scan runs and recycles completed nodes *)
  let tight = Profiler.run_source ~fuel:50_000_000 ~pool_capacity:8 src in
  let s = tight.Profiler.stats in
  Alcotest.(check int) "at capacity: allocation stops at capacity" 8
    s.Profiler.pool_allocated;
  Alcotest.(check bool) "at capacity: reuse happens" true
    (s.Profiler.pool_reused > 0);
  Alcotest.(check bool) "at capacity: scans ran" true (scan_sum tight > 0)

(* Recycling goldens: profiles under a 16-node pool, where nearly every
   construct instance runs on a recycled node, saved before the index
   nodes became handles into a flat store. Handle reuse must reproduce
   them byte for byte. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_recycling_golden name () =
  let w = Workloads.Registry.find name in
  let prog = Workloads.Workload.compile w ~scale:w.Workloads.Workload.test_scale in
  let r = Profiler.run ~pool_capacity:16 prog in
  Alcotest.(check bool) "the pool recycles" true
    (r.Profiler.stats.Profiler.pool_reused > 0);
  Alcotest.(check string) "byte-identical to the golden"
    (read_file (Printf.sprintf "golden/pool16-%s.prof" name))
    (Alchemist.Profile_io.to_string r.Profiler.profile)

(* The profiling hot path allocates nothing per event: minor-heap words
   allocated by a run must not grow with the number of construct
   instances. One program at two scales under a 16-node pool, so the
   at-capacity scan and handle reuse run on nearly every push; the
   static facts are prepared outside the measured window. *)
let test_allocation_flat () =
  let w = Workloads.Registry.find "197.parser" in
  let measure scale =
    let prog = Workloads.Workload.compile w ~scale in
    let facts = Profiler.prepare_facts prog in
    let m0 = Gc.minor_words () in
    let r = Profiler.run ~facts ~pool_capacity:16 prog in
    let m1 = Gc.minor_words () in
    (m1 -. m0, r.Profiler.stats.Profiler.dynamic_constructs,
     r.Profiler.stats.Profiler.pool_reused)
  in
  let scale = w.Workloads.Workload.test_scale in
  let m1, d1, _ = measure scale in
  let m2, d2, reused = measure (2 * scale) in
  Alcotest.(check bool) "the larger run recycles" true (reused > d1);
  let per_instance = (m2 -. m1) /. float_of_int (d2 - d1) in
  if per_instance > 0.1 then
    Alcotest.failf
      "%.0f -> %.0f minor words for %d -> %d construct instances (%.2f words \
       per extra instance)"
      m1 m2 d1 d2 per_instance

let test_report_renders () =
  let src =
    {|int g;
      void f() { g += 1; }
      int main() {
        for (int i = 0; i < 5; i++) f();
        int x = g;
        return x;
      }|}
  in
  let r = profile src in
  let text = Alchemist.Report.render r.Profiler.profile in
  Alcotest.(check bool) "has header" true (Testutil.contains text "Profile");
  Alcotest.(check bool) "lists main" true (Testutil.contains text "Method main");
  Alcotest.(check bool) "lists f" true (Testutil.contains text "Method f");
  Alcotest.(check bool) "mentions RAW" true (Testutil.contains text "RAW")

let test_scatter_normalization () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 50; i++) g += i;
        return g;
      }|}
  in
  let r = profile src in
  let pts = Alchemist.Scatter.points r.Profiler.profile in
  Alcotest.(check bool) "points exist" true (pts <> []);
  List.iter
    (fun (pt : Alchemist.Scatter.point) ->
      Alcotest.(check bool) "norm size in [0,1]" true
        (pt.norm_size >= 0. && pt.norm_size <= 1.0001);
      Alcotest.(check bool) "norm viol in [0,1]" true
        (pt.norm_violations >= 0. && pt.norm_violations <= 1.0001))
    pts

let test_scatter_svg () =
  let src =
    {|int g;
      int main() {
        for (int i = 0; i < 50; i++) g += i;
        return g;
      }|}
  in
  let r = profile src in
  let pts = Alchemist.Scatter.points r.Profiler.profile in
  let svg = Alchemist.Scatter.to_svg ~title:"t<e>st" pts in
  Alcotest.(check bool) "is svg" true (Testutil.contains svg "<svg");
  Alcotest.(check bool) "escaped title" true (Testutil.contains svg "t&lt;e&gt;st");
  Alcotest.(check bool) "has points" true (Testutil.contains svg "<circle");
  Alcotest.(check bool) "closes" true (Testutil.contains svg "</svg>")

let suite =
  [
    ("intra-iteration invisible", `Quick, test_intra_iteration_invisible);
    ("loop-carried on loop only", `Quick, test_loop_carried_on_loop_only);
    ("section III four cases", `Quick, test_section3_four_cases);
    ("proc continuation dep", `Quick, test_proc_continuation_dep);
    ("war/waw detection", `Quick, test_war_waw_detection);
    ("tdur and instances", `Quick, test_tdur_and_instances);
    ("recursion no double count", `Quick, test_recursion_no_double_count);
    ("loop instances", `Quick, test_loop_instances_count_iterations);
    ("zero-trip loop", `Quick, test_zero_trip_loop);
    ("min tdep", `Quick, test_min_tdep_is_minimum);
    ("parallel friendly vs hostile", `Quick, test_parallel_friendly_vs_hostile);
    ("ranking order", `Quick, test_ranking_order);
    ("remove with singletons", `Quick, test_remove_with_singletons);
    ("stats sane", `Quick, test_stats_sane);
    ("pool churn signatures", `Quick, test_pool_churn_signatures);
    ("recycling golden gzip", `Quick, test_recycling_golden "gzip-1.3.5");
    ("recycling golden li", `Quick, test_recycling_golden "130.li");
    ("allocation flat in construct instances", `Quick, test_allocation_flat);
    ("report renders", `Quick, test_report_renders);
    ("scatter normalization", `Quick, test_scatter_normalization);
    ("scatter svg", `Quick, test_scatter_svg);
  ]
