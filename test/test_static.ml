(* Tests for the static dependence engine: the dataflow solver, the
   points-to analysis, verdict classification, instrumentation pruning
   (including the byte-identity guarantee over every registry workload),
   and the profile sanitizer — with seeded bugs proving the sanitizer
   actually fails. *)

module Depend = Static.Depend
module Pts = Static.Points_to
module Rd = Static.Reaching_defs
module Profiler = Alchemist.Profiler
module Profile = Alchemist.Profile
module Profile_io = Alchemist.Profile_io
module Sanitize = Alchemist.Sanitize
module Dep = Shadow.Dependence

let compile = Vm.Compile.compile_source

(* --- pc discovery helpers ------------------------------------------------- *)

let pcs_matching (prog : Vm.Program.t) f =
  let acc = ref [] in
  Array.iteri (fun pc i -> if f i then acc := pc :: !acc) prog.code;
  List.rev !acc

let only name = function
  | [ pc ] -> pc
  | l -> Alcotest.failf "expected exactly one %s, found %d" name (List.length l)

let store_global prog name =
  let base, _ = Option.get (Vm.Program.find_global prog name) in
  only
    ("StoreGlobal " ^ name)
    (pcs_matching prog (function
      | Vm.Instr.StoreGlobal a -> a = base
      | _ -> false))

let load_globals prog name =
  let base, _ = Option.get (Vm.Program.find_global prog name) in
  pcs_matching prog (function
    | Vm.Instr.LoadGlobal a -> a = base
    | _ -> false)

let load_global prog name = only ("LoadGlobal " ^ name) (load_globals prog name)

let cproc_of (prog : Vm.Program.t) fname =
  let c =
    Array.to_list prog.constructs
    |> List.find (fun (c : Vm.Program.construct_info) ->
           c.kind = Vm.Program.CProc && c.cname = fname)
  in
  c.Vm.Program.cid

let loop_cid prog line =
  (Option.get (Vm.Program.construct_at prog (Parsim.Speedup.loop_head_at_line prog line)))
    .Vm.Program.cid

(* --- dataflow solver ------------------------------------------------------- *)

module Iset = Set.Make (Int)

(* "Which blocks can this point have passed through": join = union,
   transfer adds the block's own id. On a diamond, the join block's
   input must contain both arms — the solver really joins over all
   flow predecessors, and terminates at the fixpoint despite the
   back-edge of the loop. *)
let test_dataflow_diamond_join () =
  let prog =
    compile
      {|int g;
        int main() {
          for (int i = 0; i < 3; i++) {
            if (i) { g = 1; } else { g = 2; }
          }
          return g;
        }|}
  in
  let func = prog.Vm.Program.funcs.(prog.Vm.Program.main_fid) in
  let cfg = Cfa.Cfg.build prog func in
  let module Solver = Static.Dataflow.Make (struct
    type t = Iset.t

    let equal = Iset.equal
    let join = Iset.union
  end) in
  let facts =
    Solver.solve ~direction:Static.Dataflow.Forward ~cfg
      ~init:(fun _ -> Iset.empty)
      ~transfer:(fun b s -> Iset.add b.Cfa.Cfg.bid s)
  in
  let exit_in = facts.Solver.input.(cfg.Cfa.Cfg.exit_bid) in
  let bid_of pc = cfg.Cfa.Cfg.block_of_pc.(pc - func.Vm.Program.entry) in
  let then_bid, else_bid =
    match
      pcs_matching prog (function
        | Vm.Instr.StoreGlobal a ->
            a = fst (Option.get (Vm.Program.find_global prog "g"))
        | _ -> false)
    with
    | [ a; b ] -> (bid_of a, bid_of b)
    | l -> Alcotest.failf "expected two stores, got %d" (List.length l)
  in
  Alcotest.(check bool) "exit sees then arm" true (Iset.mem then_bid exit_in);
  Alcotest.(check bool) "exit sees else arm" true (Iset.mem else_bid exit_in)

(* --- reaching definitions -------------------------------------------------- *)

let rd_of prog ~mode name =
  let base, _ = Option.get (Vm.Program.find_global prog name) in
  let func = prog.Vm.Program.funcs.(prog.Vm.Program.main_fid) in
  let cfg = Cfa.Cfg.build prog func in
  let is_store pc =
    match prog.Vm.Program.code.(pc) with
    | Vm.Instr.StoreGlobal a -> a = base
    | _ -> false
  in
  Rd.analyze ~mode ~cfg ~gen:is_store ~kills:(fun ~pc ~def:_ -> is_store pc)

let test_reaching_defs_straightline_must () =
  let prog = compile "int g; int main() { g = 1; return g; }" in
  let def = store_global prog "g" and use = load_global prog "g" in
  Alcotest.(check bool) "must reach" true
    (Rd.reaches (rd_of prog ~mode:Rd.Must "g") ~def ~use);
  Alcotest.(check bool) "may reach" true
    (Rd.reaches (rd_of prog ~mode:Rd.May "g") ~def ~use)

let test_reaching_defs_branch_may_not_must () =
  let prog =
    compile
      {|int g;
        int main() { g = 1; if (g > 0) { g = 2; } return g; }|}
  in
  let defs =
    pcs_matching prog (function
      | Vm.Instr.StoreGlobal a ->
          a = fst (Option.get (Vm.Program.find_global prog "g"))
      | _ -> false)
  in
  let first_def = List.nth defs 0 and branch_def = List.nth defs 1 in
  let use =
    match load_globals prog "g" with
    | l -> List.nth l (List.length l - 1) (* the final [return g] load *)
  in
  let may = rd_of prog ~mode:Rd.May "g" and must = rd_of prog ~mode:Rd.Must "g" in
  (* The unconditional store is killed on the taken path, the branch
     store is absent on the fall-through path: both may reach, neither
     must. *)
  Alcotest.(check bool) "first may reach" true (Rd.reaches may ~def:first_def ~use);
  Alcotest.(check bool) "branch may reach" true (Rd.reaches may ~def:branch_def ~use);
  Alcotest.(check bool) "first not must" false (Rd.reaches must ~def:first_def ~use);
  Alcotest.(check bool) "branch not must" false (Rd.reaches must ~def:branch_def ~use)

(* --- points-to -------------------------------------------------------------- *)

let test_points_to_global_scalar () =
  let prog = compile "int x; int main() { x = 3; return x; }" in
  let pts = Pts.analyze prog in
  let base, _ = Option.get (Vm.Program.find_global prog "x") in
  let a = Option.get (Pts.access pts (store_global prog "x")) in
  Alcotest.(check bool) "write" true a.Pts.is_write;
  Alcotest.(check bool) "complete" true a.Pts.complete;
  (match a.Pts.regions with
  | [ Pts.Global { base = b; len = 1 } ] ->
      Alcotest.(check int) "cell address" base b
  | _ -> Alcotest.fail "expected one exact global cell");
  Alcotest.(check bool) "not frame" false a.Pts.own_frame_direct

let test_points_to_array_param_by_reference () =
  let prog =
    compile
      {|int a[8];
        void f(int b[]) { b[0] = 1; }
        int main() { f(a); return a[0]; }|}
  in
  let pts = Pts.analyze prog in
  let base, len = Option.get (Vm.Program.find_global prog "a") in
  let store = only "StoreIndex" (pcs_matching prog (( = ) Vm.Instr.StoreIndex)) in
  let a = Option.get (Pts.access pts store) in
  Alcotest.(check bool) "complete through param" true a.Pts.complete;
  (match a.Pts.regions with
  | [ Pts.Global { base = b; len = l } ] ->
      Alcotest.(check int) "array base" base b;
      Alcotest.(check int) "array extent" len l
  | _ -> Alcotest.fail "expected the global array region");
  Alcotest.(check bool) "param indirection is not own-frame" false
    a.Pts.own_frame_direct

let test_points_to_local_array_own_frame () =
  let prog = compile "int main() { int a[4]; a[1] = 7; return a[1]; }" in
  let pts = Pts.analyze prog in
  let store = only "StoreIndex" (pcs_matching prog (( = ) Vm.Instr.StoreIndex)) in
  let a = Option.get (Pts.access pts store) in
  Alcotest.(check bool) "own frame, direct" true a.Pts.own_frame_direct;
  match a.Pts.regions with
  | [ Pts.Frame { fid; len = 4; _ } ] ->
      Alcotest.(check int) "main's frame" prog.Vm.Program.main_fid fid
  | _ -> Alcotest.fail "expected one frame region of extent 4"

(* --- verdicts ---------------------------------------------------------------- *)

let test_verdicts_scalar_matrix () =
  let prog = compile "int x; int y; int main() { x = 1; y = x + 1; return x + y; }" in
  let d = Depend.analyze prog in
  let sx = store_global prog "x"
  and sy = store_global prog "y"
  and lx = List.hd (load_globals prog "x")
  and ly = load_global prog "y" in
  (* Disjoint cells never alias. *)
  Alcotest.(check bool) "x-store to y-load independent" true
    (Depend.verdict d ~kind:Dep.Raw ~head_pc:sx ~tail_pc:ly
    = Depend.Must_independent);
  (* Same cell, straight line, no kill in between: the RAW holds on
     every execution. *)
  Alcotest.(check bool) "x-store to x-load must-dep" true
    (Depend.verdict d ~kind:Dep.Raw ~head_pc:sx ~tail_pc:lx
    = Depend.Must_dependent);
  (* A RAW must head at a write: a load-headed RAW cannot occur. *)
  Alcotest.(check bool) "load-headed RAW impossible" true
    (Depend.verdict d ~kind:Dep.Raw ~head_pc:lx ~tail_pc:ly
    = Depend.Must_independent);
  (* A WAW self-edge needs the store to execute twice; nothing proves
     that here, so it is neither refuted nor promoted. *)
  Alcotest.(check bool) "WAW self-edge stays may" true
    (Depend.verdict d ~kind:Dep.Waw ~head_pc:sx ~tail_pc:sx
    = Depend.May_dependent);
  Alcotest.(check bool) "WAW across cells impossible" true
    (Depend.verdict d ~kind:Dep.Waw ~head_pc:sx ~tail_pc:sy
    = Depend.Must_independent);
  Alcotest.(check bool) "explain is non-empty" true
    (String.length (Depend.explain d ~kind:Dep.Raw ~head_pc:sx ~tail_pc:ly) > 0)

let test_verdict_killed_on_one_path_is_may () =
  let prog =
    compile "int x; int main() { x = 1; if (x > 0) { x = 2; } return x; }"
  in
  let d = Depend.analyze prog in
  let first_store =
    List.hd
      (pcs_matching prog (function
        | Vm.Instr.StoreGlobal a ->
            a = fst (Option.get (Vm.Program.find_global prog "x"))
        | _ -> false))
  in
  let final_load =
    let l = load_globals prog "x" in
    List.nth l (List.length l - 1)
  in
  Alcotest.(check bool) "killable def downgrades to may-dep" true
    (Depend.verdict d ~kind:Dep.Raw ~head_pc:first_store ~tail_pc:final_load
    = Depend.May_dependent)

let test_verdict_array_accesses_are_may () =
  let prog =
    compile
      {|int a[8];
        int main() {
          for (int i = 0; i < 8; i++) a[i] = i;
          return a[3];
        }|}
  in
  let d = Depend.analyze prog in
  let store = only "StoreIndex" (pcs_matching prog (( = ) Vm.Instr.StoreIndex)) in
  let load = only "LoadIndex" (pcs_matching prog (( = ) Vm.Instr.LoadIndex)) in
  Alcotest.(check bool) "overlapping array extents stay may-dep" true
    (Depend.verdict d ~kind:Dep.Raw ~head_pc:store ~tail_pc:load
    = Depend.May_dependent)

(* --- liveness / called-once / pruning ------------------------------------------- *)

let test_dead_function_not_live () =
  let prog =
    compile
      {|int g;
        void dead() { g = 1; }
        int main() { return 0; }|}
  in
  let d = Depend.analyze prog in
  let dead_fid = (Option.get (Vm.Program.find_func prog "dead")).Vm.Program.fid in
  Alcotest.(check bool) "dead not live" false (Depend.live d dead_fid);
  Alcotest.(check bool) "main live" true
    (Depend.live d prog.Vm.Program.main_fid);
  (* Its store can never execute, so the hook is prunable and the pc is
     impossible as an edge endpoint. *)
  let store = store_global prog "g" in
  Alcotest.(check bool) "dead store pruned" true (Depend.prune_mask d).(store);
  Alcotest.(check bool) "dead store edge impossible" true
    (Depend.verdict d ~kind:Dep.Waw ~head_pc:store ~tail_pc:store
    = Depend.Must_independent)

let test_called_once () =
  let prog =
    compile
      {|int g;
        void once() { g += 1; }
        void many() { g += 2; }
        int main() {
          once();
          for (int i = 0; i < 4; i++) many();
          return g;
        }|}
  in
  let d = Depend.analyze prog in
  let fid name = (Option.get (Vm.Program.find_func prog name)).Vm.Program.fid in
  Alcotest.(check bool) "top-level call is once" true
    (Depend.called_once d (fid "once"));
  Alcotest.(check bool) "call under a loop is not" false
    (Depend.called_once d (fid "many"));
  Alcotest.(check bool) "main is once" true
    (Depend.called_once d prog.Vm.Program.main_fid)

let prune_demo_src =
  {|int lut[4];
    int cfg;
    int out;
    int main() {
      int acc = 0;
      for (int i = 0; i < 100; i++) {
        acc += lut[i & 3];
        acc += cfg;
      }
      out = acc;
      return out;
    }|}

let test_prune_read_only_globals () =
  let prog = compile prune_demo_src in
  let d = Depend.analyze prog in
  let mask = Depend.prune_mask d in
  (* The two loop-body reads (never-written lut, never-written cfg) are
     prunable; out is written then read, so neither its store nor its
     load can be skipped. *)
  Alcotest.(check int) "event pcs" 4 (Depend.event_count d);
  Alcotest.(check int) "pruned pcs" 2 (Depend.pruned_count d);
  Alcotest.(check bool) "cfg read pruned" true mask.(load_global prog "cfg");
  Alcotest.(check bool) "out store kept" false mask.(store_global prog "out");
  Alcotest.(check bool) "out load kept" false mask.(load_global prog "out");
  (* Stats surface the same numbers. *)
  let r = Profiler.run prog in
  Alcotest.(check int) "stats.pruned_pcs" 2 r.Profiler.stats.Profiler.pruned_pcs;
  Alcotest.(check int) "stats.event_pcs" 4 r.Profiler.stats.Profiler.event_pcs

(* On the registry the region rules alone prune nothing: every pcs the
   mask skips is there because two accesses hit the same global array
   at subscripts the distance engine proves never meet. This pins the
   counts (pruned of event pcs) so that rule cannot silently stop
   firing: stencil's carried-distance loops and 130.li's status cell at
   its test scale. *)
let test_distance_promotion_prunes_registry () =
  let counts name scale =
    let w = Workloads.Registry.find name in
    let d = Depend.analyze (Workloads.Workload.compile w ~scale) in
    (Depend.pruned_count d, Depend.event_count d)
  in
  let pair = Alcotest.(pair int int) in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let pruned, _ = counts w.name w.test_scale in
      match w.name with
      | "stencil" | "130.li" -> ()
      | name -> Alcotest.(check int) (name ^ " prunes nothing") 0 pruned)
    Workloads.Registry.all;
  Alcotest.check pair "stencil at test scale" (2, 35) (counts "stencil" 512);
  Alcotest.check pair "stencil at default scale" (2, 35) (counts "stencil" 8192);
  Alcotest.check pair "130.li at test scale" (1, 39) (counts "130.li" 30);
  Alcotest.check pair "130.li at default scale" (0, 39) (counts "130.li" 300)

let test_construct_proven_independent () =
  let prog = compile prune_demo_src in
  let d = Depend.analyze prog in
  Alcotest.(check bool) "read-only loop proven independent" true
    (Depend.construct_proven_independent d ~cid:(loop_cid prog 6));
  (* main's procedure body also contains the out store/load: not proven. *)
  Alcotest.(check bool) "enclosing proc not proven" false
    (Depend.construct_proven_independent d ~cid:(cproc_of prog "main"));
  (* A loop with a genuine carried dependence is never proven. *)
  let prog2 =
    compile "int g; int main() { for (int i = 0; i < 9; i++) g += i; return g; }"
  in
  let d2 = Depend.analyze prog2 in
  Alcotest.(check bool) "carried-dep loop not proven" false
    (Depend.construct_proven_independent d2 ~cid:(loop_cid prog2 1))

let test_rank_and_advice_surface_static_proof () =
  let r = Profiler.run_source prune_demo_src in
  let p = r.Profiler.profile in
  let prog = p.Profile.prog in
  let entry =
    List.find
      (fun (e : Alchemist.Ranking.entry) -> e.cid = loop_cid prog 6)
      (Alchemist.Ranking.rank p)
  in
  Alcotest.(check bool) "ranking marks the loop" true entry.static_indep;
  Alcotest.(check bool) "pp_entry shows the marker" true
    (Testutil.contains
       (Format.asprintf "%a" Alchemist.Ranking.pp_entry entry)
       "statically independent");
  let a = Alchemist.Advice.advise p ~cid:(loop_cid prog 6) in
  Alcotest.(check bool) "advice carries the proof bit" true
    (List.exists
       (function
         | Alchemist.Advice.Spawnable { statically_proven; _ } ->
             statically_proven
         | _ -> false)
       a.Alchemist.Advice.suggestions)

(* --- prune byte-identity ---------------------------------------------------- *)

let bytes_of ?engine ?static_prune prog =
  Profile_io.to_string
    (Profiler.run ?engine ?static_prune ~fuel:200_000_000 prog).Profiler.profile

let test_prune_byte_identity_registry () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let prog = Workloads.Workload.compile w ~scale:w.test_scale in
      let off = bytes_of ~static_prune:false prog in
      Alcotest.(check string)
        (w.name ^ ": prune on = off")
        off
        (bytes_of ~static_prune:true prog);
      Alcotest.(check string)
        (w.name ^ ": switch engine pruned")
        off
        (bytes_of ~engine:Vm.Machine.Switch ~static_prune:true prog))
    Workloads.Registry.all

let test_prune_byte_identity_fig4_snippets () =
  (* The Fig. 4 construct-nesting shapes from the paper (procedures,
     nested conditionals, sibling loop iterations) — small enough to run
     both ways per engine. *)
  List.iter
    (fun src ->
      let prog = compile src in
      let off = bytes_of ~static_prune:false prog in
      Alcotest.(check string) "prune on = off" off
        (bytes_of ~static_prune:true prog);
      Alcotest.(check string) "switch = register" off
        (bytes_of ~engine:Vm.Machine.Switch prog))
    [
      {| int g;
         void B() { g = g + 1; }
         void A() { int s1 = 0; B(); }
         int main() { A(); return g; } |};
      {| int g;
         int main() {
           int x = 1;
           if (x) {
             g = 2;
             if (x) { g = g + 2; }
           }
           return g;
         } |};
      {| int a[4];
         int main() {
           int s = 0;
           for (int i = 0; i < 2; i++) {
             for (int j = 0; j < 2; j++) { a[j] = a[j] + i; s++; }
           }
           return s + a[0];
         } |};
      prune_demo_src;
    ]

(* --- IR region-hint widening ------------------------------------------------ *)

(* Mini-C return types are [int]/[void], so the points-to loss
   {!Ir.Refine.region_hints} targets — a global ref flowing through a
   call return, which the abstract stack collapses to "anything" — is
   pinned with hand-assembled bytecode. [getref] returns a ref to global
   [a]; [main] stores through it, then reads the unrelated scalar [b].
   Without hints the returned ref is incomplete, vetoing the store's
   prune and (an incomplete write aliases everything) poisoning the
   read's; the IR constant analysis resolves the return to [a], so
   widening must flip both pcs while the stored profile stays
   byte-identical. *)
let ref_return_prog () =
  let dum = Minic.Srcloc.dummy in
  let code =
    [|
      Vm.Instr.Call 0 (* preamble *);
      Vm.Instr.Halt;
      (* main, entry 2 *)
      Vm.Instr.Call 1 (* push getref's ref to [a] *);
      Vm.Instr.Const 1;
      Vm.Instr.Const 42;
      Vm.Instr.StoreIndex (* a[1] = 42 *);
      Vm.Instr.LoadGlobal 4 (* read b *);
      Vm.Instr.Pop;
      Vm.Instr.Const 0;
      Vm.Instr.Ret (* epilogue, pc 9 *);
      (* getref, entry 10 *)
      Vm.Instr.MakeRefGlobal (0, 4);
      Vm.Instr.Ret (* epilogue, pc 11 *);
    |]
  in
  let func fid name entry epilogue code_end =
    {
      Vm.Program.fid;
      name;
      entry;
      epilogue;
      code_end;
      nparams = 0;
      param_is_array = [||];
      frame_slots = 1;
      ret = Minic.Ast.RetInt;
      loc = dum;
    }
  in
  let cproc cid cname fid body_first body_last =
    {
      Vm.Program.cid;
      kind = Vm.Program.CProc;
      head_pc = body_first;
      fid;
      loc = dum;
      cname;
      body_first;
      body_last;
    }
  in
  let cid_of_pc = Array.make (Array.length code) (-1) in
  cid_of_pc.(2) <- 0;
  cid_of_pc.(10) <- 1;
  {
    Vm.Program.code;
    locs = Array.make (Array.length code) dum;
    funcs = [| func 0 "main" 2 9 10; func 1 "getref" 10 11 12 |];
    constructs = [| cproc 0 "main" 0 2 9; cproc 1 "getref" 1 10 11 |];
    cid_of_pc;
    globals_size = 5;
    global_layout = [ ("a", 0, 4); ("b", 4, 1) ];
    global_inits = [];
    main_fid = 0;
  }

let test_refine_widens_ref_return () =
  let prog = ref_return_prog () in
  Vm.Verify.verify_exn prog;
  let store = only "StoreIndex" (pcs_matching prog (( = ) Vm.Instr.StoreIndex)) in
  let read_b = load_global prog "b" in
  let d = Depend.analyze prog in
  let base = Depend.prune_mask d in
  Alcotest.(check bool) "store not prunable without hints" false base.(store);
  Alcotest.(check bool) "read poisoned by incomplete write" false base.(read_b);
  let mask, extra =
    Depend.widen_prune d ~region_hint:(Ir.Refine.region_hints prog)
  in
  Alcotest.(check bool) "store prunable with hints" true mask.(store);
  Alcotest.(check bool) "read prunable with hints" true mask.(read_b);
  Alcotest.(check bool) "widening reports added pcs" true (extra >= 2);
  Array.iteri
    (fun pc p ->
      if p then
        Alcotest.(check bool)
          (Printf.sprintf "monotone at pc %d" pc)
          true mask.(pc))
    base;
  (* The profiler applies the widened mask whenever pruning is on; the
     stored profile must not change — any engine, prune on or off. *)
  let off = bytes_of ~static_prune:false prog in
  List.iter
    (fun engine ->
      Alcotest.(check string) "widened prune is byte-invisible" off
        (bytes_of ~engine ~static_prune:true prog))
    [ Vm.Machine.Switch; Vm.Machine.Register ]

(* --- array extents ------------------------------------------------------------ *)

(* Write-once constants at the edge of a [MakeRefGlobal (2, 4)] range,
   which covers cells 2..5. An indexed store through the ref could
   rewrite a covered cell, so only the neighbours just outside (1 and 6)
   stay constants. Compiled Mini-C never stores a scalar inside an
   array's cells, so this is hand-assembled. *)
let coverage_boundary_prog () =
  let dum = Minic.Srcloc.dummy in
  let code =
    [|
      Vm.Instr.Call 0 (* preamble *);
      Vm.Instr.Halt;
      (* main, entry 2 *)
      Vm.Instr.MakeRefGlobal (2, 4);
      Vm.Instr.Pop;
      Vm.Instr.Const 11;
      Vm.Instr.StoreGlobal 1 (* base-1 *);
      Vm.Instr.Const 12;
      Vm.Instr.StoreGlobal 2 (* base *);
      Vm.Instr.Const 13;
      Vm.Instr.StoreGlobal 5 (* base+len-1 *);
      Vm.Instr.Const 14;
      Vm.Instr.StoreGlobal 6 (* base+len *);
      Vm.Instr.LoadGlobal 1 (* pc 12 *);
      Vm.Instr.LoadGlobal 2;
      Vm.Instr.LoadGlobal 5;
      Vm.Instr.LoadGlobal 6;
      Vm.Instr.Binop Minic.Ast.Add;
      Vm.Instr.Binop Minic.Ast.Add;
      Vm.Instr.Binop Minic.Ast.Add;
      Vm.Instr.Ret (* epilogue, pc 19 *);
    |]
  in
  let cid_of_pc = Array.make (Array.length code) (-1) in
  cid_of_pc.(2) <- 0;
  {
    Vm.Program.code;
    locs = Array.make (Array.length code) dum;
    funcs =
      [|
        {
          Vm.Program.fid = 0;
          name = "main";
          entry = 2;
          epilogue = 19;
          code_end = 20;
          nparams = 0;
          param_is_array = [||];
          frame_slots = 1;
          ret = Minic.Ast.RetInt;
          loc = dum;
        };
      |];
    constructs =
      [|
        {
          Vm.Program.cid = 0;
          kind = Vm.Program.CProc;
          head_pc = 2;
          fid = 0;
          loc = dum;
          cname = "main";
          body_first = 2;
          body_last = 19;
        };
      |];
    cid_of_pc;
    globals_size = 8;
    global_layout = [ ("lo", 1, 1); ("a", 2, 4); ("hi", 6, 1) ];
    global_inits = [];
    main_fid = 0;
  }

let test_const_at_coverage_boundary () =
  let prog = coverage_boundary_prog () in
  Vm.Verify.verify_exn prog;
  let t = Static.Induction.analyze prog in
  List.iter
    (fun (what, load_pc, addr, expected) ->
      Alcotest.(check (option int)) what expected
        (Static.Induction.const_at t ~load_pc addr))
    [
      ("base-1 is a constant", 12, 1, Some 11);
      ("base is covered", 13, 2, None);
      ("base+len-1 is covered", 14, 5, None);
      ("base+len is a constant", 15, 6, Some 14);
    ]

(* The static pipeline costs what the code does: passing a 2^20-cell
   global array by reference must allocate exactly what a 2^10-cell one
   does, so no pass keeps anything per array cell. Allocation counts are
   deterministic once the minor heap is emptied before each reading
   ([Gc.allocated_bytes] counts a word still in the minor heap
   differently from one a collection has moved); nothing here is
   timed. *)
let test_analysis_extent_independent () =
  let prog cells =
    compile
      (Printf.sprintf
         {| int g[%d];
            int sum(int a[], int n) {
              int s = 0;
              for (int i = 0; i < n; i++) { s = s + a[i]; a[i] = s; }
              return s;
            }
            int main() { return sum(g, 16); } |}
         cells)
  in
  let small = prog (1 lsl 10) and large = prog (1 lsl 20) in
  let allocated p =
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Depend.analyze p));
    Gc.minor ();
    Gc.allocated_bytes () -. a0
  in
  ignore (allocated small);
  Alcotest.(check (float 0.)) "2^10 and 2^20 cells allocate alike"
    (allocated small) (allocated large)

(* --- sanitizer ---------------------------------------------------------------- *)

let test_sanitizer_clean_on_workload () =
  let w = Workloads.Registry.find "aes" in
  let prog = Workloads.Workload.compile w ~scale:w.Workloads.Workload.test_scale in
  let r = Profiler.run ~fuel:200_000_000 prog in
  Alcotest.(check int) "no issues" 0
    (List.length
       (Sanitize.check ~dep:(Depend.analyze prog) r.Profiler.profile))

let test_sanitizer_flags_impossible_edge () =
  let prog = compile "int x; int y; int main() { x = 1; y = 2; return x + y; }" in
  let r = Profiler.run prog in
  let p = r.Profiler.profile in
  let dep = Depend.analyze prog in
  Alcotest.(check int) "clean before seeding" 0
    (List.length (Sanitize.check ~dep p));
  (* Seed a RAW between two provably disjoint cells — the bug class the
     sanitizer exists for (e.g. a shadow-memory cell collision). *)
  Profile.record_edge p
    ~cid:(cproc_of prog "main")
    ~head_pc:(store_global prog "x")
    ~tail_pc:(load_global prog "y") ~kind:Dep.Raw ~tdep:1
    ~addr:(fst (Option.get (Vm.Program.find_global prog "x")));
  let issues = Sanitize.check ~dep p in
  Alcotest.(check bool) "seeded bug detected" true (issues <> []);
  Alcotest.(check bool) "explains impossibility" true
    (List.exists
       (fun (i : Sanitize.issue) ->
         Testutil.contains i.reason "statically impossible")
       issues)

let test_sanitizer_flags_misattributed_frame_edge () =
  let src =
    {|void other() { for (int i = 0; i < 2; i++) { int t = i; } }
      int main() {
        int a[4];
        for (int i = 0; i < 5; i++) { a[0] = a[0] + 1; }
        other();
        return a[0];
      }|}
  in
  let prog = compile src in
  let r = Profiler.run prog in
  let p = r.Profiler.profile in
  let head = only "StoreIndex" (pcs_matching prog (( = ) Vm.Instr.StoreIndex)) in
  let tail =
    match pcs_matching prog (( = ) Vm.Instr.LoadIndex) with
    | pc :: _ -> pc
    | [] -> Alcotest.fail "no LoadIndex"
  in
  let seed cid = Profile.record_edge p ~cid ~head_pc:head ~tail_pc:tail ~kind:Dep.Raw ~tdep:1 ~addr:0 in
  (* An edge on main's own frame attributed to another function's
     construct, and to main's procedure construct (whose activation
     cannot have completed): both violate frame ownership. *)
  seed (loop_cid prog 1);
  seed (cproc_of prog "main");
  let issues = Sanitize.check ~dep:(Depend.analyze prog) p in
  Alcotest.(check bool) "wrong function flagged" true
    (List.exists
       (fun (i : Sanitize.issue) ->
         Testutil.contains i.reason "construct of function")
       issues);
  Alcotest.(check bool) "procedure construct flagged" true
    (List.exists
       (fun (i : Sanitize.issue) ->
         Testutil.contains i.reason "procedure construct")
       issues)

let test_sanitizer_flags_corrupt_verdict_list () =
  let prog =
    compile "int g; int main() { for (int i = 0; i < 5; i++) g = g + 1; return g; }"
  in
  let r = Profiler.run prog in
  let p = r.Profiler.profile in
  let dep = Depend.analyze prog in
  let s =
    match p.Profile.static with
    | Some s -> s
    | None -> Alcotest.fail "expected a static block"
  in
  (match s.Profile.verdicts with
  | (key, v) :: rest ->
      let flipped =
        match v with
        | Depend.Must_dependent -> Depend.May_dependent
        | _ -> Depend.Must_dependent
      in
      p.Profile.static <-
        Some { s with Profile.verdicts = (key, flipped) :: rest }
  | [] -> Alcotest.fail "expected stored verdicts");
  Alcotest.(check bool) "flipped verdict detected" true
    (List.exists
       (fun (i : Sanitize.issue) -> Testutil.contains i.reason "disagrees")
       (Sanitize.check ~dep p));
  (* And an empty verdict list under recorded edges = missing coverage. *)
  p.Profile.static <- Some { s with Profile.verdicts = [] };
  Alcotest.(check bool) "missing verdicts detected" true
    (List.exists
       (fun (i : Sanitize.issue) -> Testutil.contains i.reason "no stored verdict")
       (Sanitize.check ~dep p))

let suite =
  [
    ("dataflow diamond join", `Quick, test_dataflow_diamond_join);
    ("reaching defs straight-line must", `Quick, test_reaching_defs_straightline_must);
    ("reaching defs branch may-not-must", `Quick, test_reaching_defs_branch_may_not_must);
    ("points-to global scalar", `Quick, test_points_to_global_scalar);
    ("points-to array param", `Quick, test_points_to_array_param_by_reference);
    ("points-to local array own-frame", `Quick, test_points_to_local_array_own_frame);
    ("verdict scalar matrix", `Quick, test_verdicts_scalar_matrix);
    ("verdict killed-path is may", `Quick, test_verdict_killed_on_one_path_is_may);
    ("verdict arrays are may", `Quick, test_verdict_array_accesses_are_may);
    ("dead function pruned", `Quick, test_dead_function_not_live);
    ("called once", `Quick, test_called_once);
    ("prune read-only globals", `Quick, test_prune_read_only_globals);
    ("distance promotion prunes registry", `Quick, test_distance_promotion_prunes_registry);
    ("construct proven independent", `Quick, test_construct_proven_independent);
    ("rank/advice static column", `Quick, test_rank_and_advice_surface_static_proof);
    ("prune byte-identity registry", `Slow, test_prune_byte_identity_registry);
    ("prune byte-identity fig4", `Quick, test_prune_byte_identity_fig4_snippets);
    ("refine widens ref-return regions", `Quick, test_refine_widens_ref_return);
    ("const_at at the ref coverage boundary", `Quick, test_const_at_coverage_boundary);
    ("analysis cost independent of array extent", `Quick, test_analysis_extent_independent);
    ("sanitizer clean on workload", `Quick, test_sanitizer_clean_on_workload);
    ("sanitizer flags impossible edge", `Quick, test_sanitizer_flags_impossible_edge);
    ("sanitizer flags frame misattribution", `Quick, test_sanitizer_flags_misattributed_frame_edge);
    ("sanitizer flags corrupt verdicts", `Quick, test_sanitizer_flags_corrupt_verdict_list);
  ]
