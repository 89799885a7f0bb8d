(* Unit tests for the reporting-side modules: violation math, report
   formatting details, ranking corner cases, scatter denominators. *)

module Profiler = Alchemist.Profiler
module Profile = Alchemist.Profile
module Violation = Alchemist.Violation
module Ranking = Alchemist.Ranking
module Report = Alchemist.Report
module Dep = Shadow.Dependence

let profile src = (Profiler.run_source ~fuel:20_000_000 src).Profiler.profile

let cid_of_loop p prog line =
  Option.get
    (Profile.cid_of_head_pc p (Parsim.Speedup.loop_head_at_line prog line))

(* --- violation math --------------------------------------------------------- *)

let test_violation_threshold_is_mean_duration () =
  (* Construct a loop whose iterations last ~D instructions, with one dep
     at distance < D (violating) and the paper's boundary semantics:
     Tdep <= Tdur violates, Tdep > Tdur does not. *)
  let src =
    {|int a;
      int b;
      int main() {
        for (int i = 0; i < 40; i++) {
          a = a + 1;           // adjacent-iteration chain: Tdep ~ D
          int s = 0;
          for (int k = 0; k < 25; k++) s += k;
          b = s;
        }
        return a + b;
      }|}
  in
  let prog = Vm.Compile.compile_source src in
  let p = (Profiler.run ~fuel:20_000_000 prog).Profiler.profile in
  let cid = cid_of_loop p prog 4 in
  let cp = Profile.get p cid in
  let mean = Profile.mean_duration cp in
  Alcotest.(check bool) "mean duration positive" true (mean > 0);
  Profile.iter_edges cp
    (fun (k : Profile.edge_key) (s : Profile.edge_stats) ->
      if k.kind = Dep.Raw then
        Alcotest.(check bool)
          (Printf.sprintf "violation iff min<=mean (min=%d mean=%d)" s.min_tdep
             mean)
          (s.min_tdep <= mean)
          (Violation.is_violating cp s))

let test_total_violating_raw_counts_all_constructs () =
  let src =
    {|int x;
      int y;
      void f() { x = x + 1; }
      int main() {
        for (int i = 0; i < 30; i++) { f(); y = y + 1; }
        return x + y;
      }|}
  in
  let p = profile src in
  let total = Violation.total_violating_raw p in
  let by_hand =
    Array.fold_left
      (fun acc (cp : Profile.construct_profile) ->
        acc
        + Profile.fold_edges cp
            (fun (k : Profile.edge_key) s n ->
              if k.kind = Dep.Raw && Violation.is_violating cp s then n + 1
              else n)
            0)
      0 p.Profile.by_cid
  in
  Alcotest.(check int) "sum over constructs" by_hand total;
  Alcotest.(check bool) "nonzero" true (total > 0)

(* --- report formatting -------------------------------------------------------- *)

let test_report_marks_violations_with_star () =
  let src =
    {|int c;
      void tick() { int v = c; int s = 0; for (int k = 0; k < 30; k++) s += v; c = s & 7; }
      int main() { for (int i = 0; i < 20; i++) tick(); return c; }|}
  in
  let p = profile src in
  let text = Report.render ~top:8 p in
  Alcotest.(check bool) "has a violating star" true (Testutil.contains text "  *");
  Alcotest.(check bool) "names the conflict" true (Testutil.contains text "on c")

let test_report_hides_extra_edges () =
  (* max_edges truncation note appears when there are more edges. *)
  let src =
    {|int a[8];
      int g0; int g1; int g2; int g3; int g4;
      void w() { g0 = g1; g1 = g2; g2 = g3; g3 = g4; g4 = g0; a[0] = g0; }
      int main() { for (int i = 0; i < 10; i++) w(); return g4; }|}
  in
  let p = profile src in
  let prog = p.Profile.prog in
  let cid =
    Option.get (Profile.cid_of_head_pc p (Parsim.Speedup.proc_head prog "w"))
  in
  let text = Report.render_construct ~max_edges:2 p ~cid in
  Alcotest.(check bool) "truncation marker" true (Testutil.contains text "more")

let test_line_of_pc_preamble () =
  let p = profile "int main() { return 0; }" in
  Alcotest.(check int) "preamble has line 0" 0 (Report.line_of_pc p 0)

(* --- ranking corners ------------------------------------------------------------ *)

let test_rank_skips_never_executed () =
  let src =
    {|int g;
      void dead() { for (int i = 0; i < 9; i++) g += i; }
      int main() { if (0 > 1) dead(); return g; }|}
  in
  let p = profile src in
  let names = List.map (fun (e : Ranking.entry) -> e.name) (Ranking.rank p) in
  Alcotest.(check bool) "dead not ranked" false (List.mem "Method dead" names)

let test_rank_min_instructions_filter () =
  let src =
    {|int g;
      void tiny() { g++; }
      int main() { tiny(); for (int i = 0; i < 500; i++) g += i; return g; }|}
  in
  let p = profile src in
  let all = Ranking.rank p in
  let filtered = Ranking.rank ~min_instructions:1000 p in
  Alcotest.(check bool) "filter drops tiny constructs" true
    (List.length filtered < List.length all)

let test_remove_with_singletons_keeps_unrelated () =
  let src =
    {|int g;
      void unrelated() { g += 2; }
      void per_iter() { g += 1; }
      int main() {
        for (int i = 0; i < 10; i++) per_iter();
        for (int i = 0; i < 10; i++) unrelated();
        return g;
      }|}
  in
  let prog = Vm.Compile.compile_source src in
  let p = (Profiler.run ~fuel:20_000_000 prog).Profiler.profile in
  let loop1 = cid_of_loop p prog 5 in
  let after = Ranking.remove_with_singletons p (Ranking.rank p) ~cid:loop1 in
  let names = List.map (fun (e : Ranking.entry) -> e.name) after in
  Alcotest.(check bool) "per_iter removed" false (List.mem "Method per_iter" names);
  Alcotest.(check bool) "unrelated kept" true (List.mem "Method unrelated" names)

(* --- scatter denominators -------------------------------------------------------- *)

let test_scatter_norm_size_of_top_construct () =
  let src =
    "int g; int main() { for (int i = 0; i < 300; i++) g += i; return g; }"
  in
  let p = profile src in
  match Alchemist.Scatter.points ~top:3 p with
  | top :: _ ->
      (* Method main encloses nearly the whole run. *)
      Alcotest.(check bool) "top point near 1.0" true (top.norm_size > 0.95)
  | [] -> Alcotest.fail "no points"

(* --- disasm / index stats ----------------------------------------------------------- *)

let test_disasm_annotates_constructs () =
  let prog =
    Vm.Compile.compile_source
      "int main() { for (int i = 0; i < 3; i++) { if (i) i += 0; } return 0; }"
  in
  let text = Vm.Disasm.to_string prog in
  Alcotest.(check bool) "loop construct noted" true (Testutil.contains text "Loop");
  Alcotest.(check bool) "cond construct noted" true (Testutil.contains text "Cond");
  Alcotest.(check bool) "line annotations" true (Testutil.contains text "[line")

let test_index_tree_stats_string () =
  let tree = Indexing.Index_tree.create () in
  ignore (Indexing.Index_tree.push tree ~label:3 ~is_func:true);
  let s = Indexing.Index_tree.stats tree in
  Alcotest.(check bool) "mentions depth" true (Testutil.contains s "depth=1")

let test_pp_construct_and_entry () =
  let prog =
    Vm.Compile.compile_source "int f() { return 1; } int main() { return f(); }"
  in
  let c =
    Array.to_list prog.Vm.Program.constructs
    |> List.find (fun (c : Vm.Program.construct_info) -> c.cname = "f")
  in
  Alcotest.(check string) "method rendering" "Method f"
    (Format.asprintf "%a" Vm.Program.pp_construct c)

(* Report.render takes its race tags from the stored race block instead
   of analysing, so the block must say what a fresh analysis says: for
   every recorded construct of every registry program, the stored status
   is Static.Race.status, and nothing else is stored. *)
let test_render_uses_stored_race () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = Workloads.Workload.compile w ~scale:w.test_scale in
      let p = (Alchemist.Profiler.run prog).Alchemist.Profiler.profile in
      let stored =
        match p.Alchemist.Profile.static with
        | Some s -> s.Alchemist.Profile.race
        | None -> Alcotest.failf "%s: no static block" w.name
      in
      let race = Static.Depend.race (Static.Depend.analyze prog) in
      let classified = ref 0 in
      Array.iter
        (fun (cp : Alchemist.Profile.construct_profile) ->
          if cp.instances > 0 then begin
            let fresh = Static.Race.status race ~cid:cp.cid in
            if fresh <> None then incr classified;
            Alcotest.(check (option string))
              (Printf.sprintf "%s: construct %d" w.name cp.cid)
              (Option.map Static.Race.Status.to_string fresh)
              (Option.map Static.Race.Status.to_string
                 (List.assoc_opt cp.cid stored))
          end)
        p.Alchemist.Profile.by_cid;
      Alcotest.(check int) (w.name ^ ": no other entries") !classified
        (List.length stored))
    Workloads.Registry.all

let suite =
  [
    ("violation threshold", `Quick, test_violation_threshold_is_mean_duration);
    ("total violating raw", `Quick, test_total_violating_raw_counts_all_constructs);
    ("report stars violations", `Quick, test_report_marks_violations_with_star);
    ("report truncates edges", `Quick, test_report_hides_extra_edges);
    ("line of preamble pc", `Quick, test_line_of_pc_preamble);
    ("rank skips dead code", `Quick, test_rank_skips_never_executed);
    ("rank min-instructions filter", `Quick, test_rank_min_instructions_filter);
    ("singleton removal keeps unrelated", `Quick, test_remove_with_singletons_keeps_unrelated);
    ("scatter top norm size", `Quick, test_scatter_norm_size_of_top_construct);
    ("disasm annotates constructs", `Quick, test_disasm_annotates_constructs);
    ("index tree stats", `Quick, test_index_tree_stats_string);
    ("pp construct", `Quick, test_pp_construct_and_entry);
    ("render uses stored race statuses", `Quick, test_render_uses_stored_race);
  ]
