(* Tests for the benchmark suite: every workload compiles, runs, and its
   profile exhibits the dependence shape the paper reports for the
   original program. *)

module W = Workloads.Workload
module Registry = Workloads.Registry
module Profiler = Alchemist.Profiler
module Profile = Alchemist.Profile
module Violation = Alchemist.Violation
module Dep = Shadow.Dependence

let compile_small (w : W.t) = W.compile w ~scale:w.test_scale

let profile_small (w : W.t) =
  Profiler.run ~fuel:100_000_000 (compile_small w)

let cid_of_pc (p : Profile.t) pc = Option.get (Profile.cid_of_head_pc p pc)

(* --- generic per-workload checks -------------------------------------------- *)

let test_all_compile_and_run () =
  List.iter
    (fun (w : W.t) ->
      let prog = compile_small w in
      let r = Vm.Machine.run ~fuel:200_000_000 prog in
      Alcotest.(check bool)
        (w.name ^ " produces output")
        true
        (List.length r.Vm.Machine.output >= 1);
      Alcotest.(check bool)
        (w.name ^ " runs a nontrivial number of instructions")
        true
        (r.Vm.Machine.instructions > 10_000))
    Registry.all

let test_all_deterministic () =
  List.iter
    (fun (w : W.t) ->
      let prog = compile_small w in
      let r1 = Vm.Machine.run ~fuel:200_000_000 prog in
      let r2 = Vm.Machine.run ~fuel:200_000_000 prog in
      Alcotest.(check (list int)) (w.name ^ " deterministic") r1.Vm.Machine.output
        r2.Vm.Machine.output)
    Registry.all

let test_all_sites_locate () =
  List.iter
    (fun (w : W.t) ->
      let prog = compile_small w in
      List.iter
        (fun (s : W.site) ->
          let pc = s.locate prog in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s heads a construct" w.name s.site_name)
            true
            (Vm.Program.construct_at prog pc <> None);
          (* privatize/reduce lists name real globals *)
          List.iter
            (fun g ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: global %s exists" w.name g)
                true
                (Vm.Program.find_global prog g <> None))
            (s.privatize @ s.reduce))
        (w.sites @ Option.to_list w.prior_work_site))
    Registry.all

let test_all_profile_cleanly () =
  List.iter
    (fun (w : W.t) ->
      let r = profile_small w in
      Alcotest.(check int) (w.name ^ " forced pops") 0
        r.Profiler.stats.Profiler.forced_pops;
      Alcotest.(check bool)
        (w.name ^ " found dynamic constructs")
        true
        (r.Profiler.stats.Profiler.dynamic_constructs > 50))
    Registry.all

let test_scales_differ () =
  List.iter
    (fun (w : W.t) ->
      Alcotest.(check bool) (w.name ^ " default > test scale") true
        (w.default_scale > w.test_scale))
    Registry.all

let test_registry_lookup () =
  Alcotest.(check int) "nine workloads" 9 (List.length Registry.all);
  List.iter
    (fun name -> ignore (Registry.find name))
    Registry.names;
  match Registry.find "nonesuch" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_loc_counts () =
  List.iter
    (fun (w : W.t) ->
      let loc = W.loc w in
      Alcotest.(check bool)
        (Printf.sprintf "%s LOC %d in range" w.name loc)
        true
        (loc > 50 && loc < 400))
    Registry.all

(* --- gzip: the Fig. 2 / Fig. 3 shape ----------------------------------------- *)

(* Profiled once at a scale where the paper's timing geometry holds (the
   zip loop's work between flushes well exceeds a flush's duration). *)
let gzip_profile =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some v -> v
    | None ->
        let w = Registry.find "gzip-1.3.5" in
        let prog = W.compile w ~scale:6_000 in
        let r = Profiler.run ~fuel:100_000_000 prog in
        let v = (prog, r.Profiler.profile) in
        memo := Some v;
        v

let edges_of_kind (p : Profile.t) cid kind =
  let cp = Profile.get p cid in
  Profile.edges_sorted cp
  |> List.filter (fun ((k : Profile.edge_key), _) -> k.kind = kind)

let global_addr prog name = fst (Option.get (Vm.Program.find_global prog name))

(* Map an edge to the names of globals its head pc plausibly touches: we
   instead check head/tail lines through known statements. Simpler: use
   the addresses via a fresh collection pass when needed. For the shape
   assertions we use line positions of known statements. *)

(* Line of the first source line containing [needle]. *)
let line_of_stmt src needle =
  let lines = String.split_on_char '\n' src in
  let rec go i = function
    | [] -> Alcotest.failf "statement %S not found" needle
    | l :: rest -> if Testutil.contains l needle then i else go (i + 1) rest
  in
  go 1 lines

let test_gzip_flush_block_raw_shape () =
  let prog, p = gzip_profile () in
  let src = (Registry.find "gzip-1.3.5").W.source ~scale:6_000 in
  let cid = cid_of_pc p (Parsim.Speedup.proc_head prog "flush_block") in
  let cp = Profile.get p cid in
  Alcotest.(check bool) "flush_block called several times" true
    (cp.instances >= 2);
  let raw = edges_of_kind p cid Dep.Raw in
  Alcotest.(check bool) "has RAW edges" true (raw <> []);
  let violating =
    List.filter (fun (_, s) -> Violation.is_violating cp s) raw
  in
  (* The boxed edges of Fig. 2: the block-length (return-value analog) and
     outcnt dependences flowing into the checksum emitted after the final
     call — and nothing else. (The paper reports 2; we see 2-4 because
     our checksum touches outcnt at two pcs.) *)
  let n = List.length violating in
  Alcotest.(check bool)
    (Printf.sprintf "few violating RAW edges (%d)" n)
    true
    (n >= 2 && n <= 4);
  let checksum_line = line_of_stmt src "int checksum = block_len_out;" in
  let blo_line = line_of_stmt src "block_len_out = len;" in
  List.iter
    (fun ((k : Profile.edge_key), _) ->
      let tl = Alchemist.Report.line_of_pc p k.tail_pc in
      Alcotest.(check bool)
        (Printf.sprintf "violating tail at checksum (line %d)" tl)
        true
        (tl >= checksum_line && tl <= checksum_line + 2))
    violating;
  Alcotest.(check bool) "block_len_out -> checksum is among them" true
    (List.exists
       (fun ((k : Profile.edge_key), _) ->
         Alchemist.Report.line_of_pc p k.head_pc = blo_line
         && Alchemist.Report.line_of_pc p k.tail_pc = checksum_line)
       violating);
  (* And the input_len self-RAW (the paper's line 14 -> 14, Tdep 4.5M >
     Tdur): present, long-distance, not violating. *)
  let il_line = line_of_stmt src "input_len += len;" in
  let self_edges =
    List.filter
      (fun ((k : Profile.edge_key), _) ->
        Alchemist.Report.line_of_pc p k.head_pc = il_line
        && Alchemist.Report.line_of_pc p k.tail_pc = il_line)
      raw
  in
  (match self_edges with
  | [ (_, s) ] ->
      Alcotest.(check bool) "input_len self-RAW exceeds duration" true
        (s.min_tdep > Profile.mean_duration cp)
  | l -> Alcotest.failf "expected 1 input_len self edge, got %d" (List.length l))

let test_gzip_fig3_war_waw_shape () =
  let prog, p = gzip_profile () in
  let cid = cid_of_pc p (Parsim.Speedup.proc_head prog "flush_block") in
  let cp = Profile.get p cid in
  let waw = edges_of_kind p cid Dep.Waw in
  let war = edges_of_kind p cid Dep.War in
  Alcotest.(check bool) "WAW edges exist (outcnt)" true (waw <> []);
  Alcotest.(check bool) "WAR edges exist (flag_buf, last_flags)" true
    (List.length war >= 2);
  Alcotest.(check bool) "some WAW violating" true
    (List.exists (fun (_, s) -> Violation.is_violating cp s) waw);
  ignore prog

(* No WAW on outbuf itself: slots are disjoint; the conflict rides on the
   outcnt index (the paper's observation). We verify by checking that no
   dependence at all was recorded on outbuf element addresses, via a
   dedicated collection pass. *)
let test_gzip_no_waw_on_outbuf () =
  let w = Registry.find "gzip-1.3.5" in
  let prog = compile_small w in
  let base, len = Option.get (Vm.Program.find_global prog "outbuf") in
  let outbuf_waw = ref 0 and outcnt_waw = ref 0 in
  let outcnt_addr = global_addr prog "outcnt" in
  let analysis = Cfa.Analysis.analyze prog in
  let tree = Indexing.Index_tree.create () in
  let rules = Indexing.Rules.create ~ipdom:analysis.Cfa.Analysis.ipdom_of_pc ~tree in
  let on_dep (d : Dep.t) =
    if d.kind = Dep.Waw then begin
      if d.addr >= base && d.addr < base + len then incr outbuf_waw;
      if d.addr = outcnt_addr then incr outcnt_waw
    end
  in
  let shadow = Shadow.Shadow_memory.create ~sink:(Testutil.boxing_sink on_dep) () in
  let enclosing () = Option.get (Indexing.Index_tree.top tree) in
  let hooks =
    {
      Vm.Hooks.on_instr = (fun ~pc -> Indexing.Rules.on_instr rules ~pc);
      on_read =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.read shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree) ~node:(enclosing ()));
      on_write =
        (fun ~pc ~addr ->
          Shadow.Shadow_memory.write shadow ~addr ~pc
            ~time:(Indexing.Index_tree.now tree) ~node:(enclosing ()));
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken -> Indexing.Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
      on_frame_release =
        (fun ~base ~size -> Shadow.Shadow_memory.clear_range shadow ~base ~size);
    }
  in
  ignore (Vm.Machine.run_hooked ~trace_locals:false ~fuel:100_000_000 hooks prog);
  (* outbuf slots may be rewritten only after the 8192-entry window wraps;
     at test scale it never wraps, so no WAW at all on the buffer. *)
  Alcotest.(check int) "no WAW on outbuf slots" 0 !outbuf_waw;
  Alcotest.(check bool) "WAW on the outcnt index" true (!outcnt_waw > 0)

let test_gzip_fig6b_removal () =
  let prog, p = gzip_profile () in
  let entries = Alchemist.Ranking.rank p in
  let c1 = cid_of_pc p (Workloads.Workload.loop_in "main" ~nth:0 prog) in
  let after = Alchemist.Ranking.remove_with_singletons p entries ~cid:c1 in
  let names = List.map (fun (e : Alchemist.Ranking.entry) -> e.name) after in
  (* zip runs once per file-loop iteration: removed. *)
  Alcotest.(check bool) "Method zip removed" false
    (List.mem "Method zip" names);
  (* flush_block runs many times per iteration: it must remain. *)
  Alcotest.(check bool) "Method flush_block remains" true
    (List.mem "Method flush_block" names);
  (* Fig. 6(b)'s candidate selection is a human reading a 2D plot: big and
     few violations. We assert the machine-checkable core: among the
     remaining Method/Loop constructs (the kinds Fig. 6 labels), excluding
     the root, flush_block is Pareto-optimal — no other is both at least
     as large and at most as violating — and every strictly larger one
     carries strictly more violating RAW edges. *)
  let fb =
    List.find
      (fun (e : Alchemist.Ranking.entry) -> e.name = "Method flush_block")
      after
  in
  let comparable =
    after
    |> List.filter (fun (e : Alchemist.Ranking.entry) ->
           e.name <> "Method main" && e.name <> "Method flush_block"
           && e.kind <> Vm.Program.CCond)
  in
  List.iter
    (fun (e : Alchemist.Ranking.entry) ->
      if e.ttotal >= fb.ttotal then
        Alcotest.(check bool)
          (Printf.sprintf "%s (bigger) has more violations" e.name)
          true
          (e.violations.Violation.raw_violating
          > fb.violations.Violation.raw_violating))
    comparable

(* --- per-workload dependence shapes (Table IV analogs) ----------------------- *)

let violations_at (w : W.t) (site : W.site) =
  let prog = compile_small w in
  let r = Profiler.run ~fuel:200_000_000 prog in
  let cid = cid_of_pc r.Profiler.profile (site.locate prog) in
  Violation.summarize r.Profiler.profile ~cid

let test_aes_no_violating_raw () =
  let w = Registry.find "aes" in
  let site = List.hd w.sites in
  let v = violations_at w site in
  Alcotest.(check int) "no violating RAW on the block loop" 0
    v.Violation.raw_violating;
  Alcotest.(check bool) "but WAW/WAR conflicts exist (ivec)" true
    (v.Violation.waw_violating + v.Violation.war_violating > 0)

let test_par2_process_data_clean () =
  let w = Registry.find "par2" in
  let site = List.hd w.sites in
  let v = violations_at w site in
  (* The paper's own text says "no violating static RAW" while its Table
     IV lists 1 for this loop; ours is the progress counter. *)
  Alcotest.(check bool)
    (Printf.sprintf "at most the progress counter (%d)" v.Violation.raw_violating)
    true
    (v.Violation.raw_violating <= 2)

let test_par2_open_files_one_conflict () =
  let w = Registry.find "par2" in
  let site = List.nth w.sites 1 in
  let v = violations_at w site in
  (* the file-close counter plus the serial reader chain *)
  Alcotest.(check bool)
    (Printf.sprintf "few violating RAW (%d)" v.Violation.raw_violating)
    true
    (v.Violation.raw_violating >= 1 && v.Violation.raw_violating <= 3)

let test_ogg_main_loop_shape () =
  let w = Registry.find "ogg" in
  let site = List.hd w.sites in
  let v = violations_at w site in
  Alcotest.(check bool)
    (Printf.sprintf "about six violating RAW (%d)" v.Violation.raw_violating)
    true
    (v.Violation.raw_violating >= 4 && v.Violation.raw_violating <= 9);
  Alcotest.(check bool) "WAR/WAW conflicts too" true
    (v.Violation.war_total + v.Violation.waw_total > 0)

let test_bzip2_main_loop_shape () =
  let w = Registry.find "bzip2" in
  let site = List.hd w.sites in
  let v = violations_at w site in
  Alcotest.(check bool)
    (Printf.sprintf "few violating RAW (%d)" v.Violation.raw_violating)
    true
    (v.Violation.raw_violating >= 2 && v.Violation.raw_violating <= 7);
  Alcotest.(check bool)
    (Printf.sprintf "many WAW (%d)" v.Violation.waw_total)
    true
    (v.Violation.waw_total > v.Violation.raw_total)

let test_delaunay_hostile () =
  let w = Registry.find "delaunay" in
  let site = Option.get w.prior_work_site in
  let v = violations_at w site in
  Alcotest.(check bool)
    (Printf.sprintf "many violating RAW (%d)" v.Violation.raw_violating)
    true
    (v.Violation.raw_violating >= 15)

let test_delaunay_worse_than_others () =
  let hostile =
    (violations_at (Registry.find "delaunay")
       (Option.get (Registry.find "delaunay").prior_work_site))
      .Violation.raw_violating
  in
  let benign =
    (violations_at (Registry.find "aes") (List.hd (Registry.find "aes").sites))
      .Violation.raw_violating
  in
  Alcotest.(check bool) "delaunay >> aes" true (hostile > benign + 10)

let suite =
  [
    ("all compile and run", `Slow, test_all_compile_and_run);
    ("all deterministic", `Slow, test_all_deterministic);
    ("all sites locate", `Slow, test_all_sites_locate);
    ("all profile cleanly", `Slow, test_all_profile_cleanly);
    ("scales differ", `Quick, test_scales_differ);
    ("registry lookup", `Quick, test_registry_lookup);
    ("loc counts", `Quick, test_loc_counts);
    ("gzip fig2 RAW shape", `Slow, test_gzip_flush_block_raw_shape);
    ("gzip fig3 WAR/WAW shape", `Slow, test_gzip_fig3_war_waw_shape);
    ("gzip no WAW on outbuf", `Slow, test_gzip_no_waw_on_outbuf);
    ("gzip fig6b removal", `Slow, test_gzip_fig6b_removal);
    ("aes: no violating RAW", `Slow, test_aes_no_violating_raw);
    ("par2: ProcessData clean", `Slow, test_par2_process_data_clean);
    ("par2: OpenSourceFiles one conflict", `Slow, test_par2_open_files_one_conflict);
    ("ogg: main loop shape", `Slow, test_ogg_main_loop_shape);
    ("bzip2: main loop shape", `Slow, test_bzip2_main_loop_shape);
    ("delaunay: hostile", `Slow, test_delaunay_hostile);
    ("delaunay vs aes", `Slow, test_delaunay_worse_than_others);
  ]
