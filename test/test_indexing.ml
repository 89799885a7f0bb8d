(* Tests for the execution-indexing machinery: construct pool, index tree,
   and the Fig. 5 rules driven by real executions (Fig. 4 examples). *)

module Node = Indexing.Node
module Pool = Indexing.Construct_pool
module Tree = Indexing.Index_tree
module Rules = Indexing.Rules

(* --- node store ------------------------------------------------------------ *)

(* Chunk 0 grows by copying and later chunks are added whole: every node
   must keep its fields across both, and a handle outside the store must
   raise rather than read another node. *)
let test_node_store_chunks () =
  let s = Node.store () in
  let n = (2 * Node.chunk_nodes) + 5 in
  let hs = Array.init n (fun _ -> Node.alloc s) in
  Alcotest.(check (list int)) "handles are dense" (List.init n Fun.id)
    (Array.to_list hs);
  Alcotest.(check int) "fresh label" (-1) (Node.label s hs.(n - 1));
  Alcotest.(check int) "fresh parent" Node.none (Node.parent s hs.(0));
  Array.iteri
    (fun i h ->
      Node.start s h ~label:(i mod 1000) ~is_func:(i mod 3 = 0) ~tenter:i
        ~parent:(i - 1);
      Node.set_texit s h (i + 7))
    hs;
  let ok = ref true in
  Array.iteri
    (fun i h ->
      if
        Node.label s h <> i mod 1000
        || Node.is_func s h <> (i mod 3 = 0)
        || Node.tenter s h <> i
        || Node.texit s h <> i + 7
        || Node.parent s h <> i - 1
        || Node.duration s h <> 7
        || not (Node.covers s h (i + 6))
        || Node.covers s h (i + 7)
      then ok := false)
    hs;
  Alcotest.(check bool) "fields survive chunk growth" true !ok;
  Alcotest.(check bool) "none covers nothing" false (Node.covers s Node.none 0);
  Alcotest.(check int) "three full chunks" (3 * 4 * Node.chunk_nodes)
    (Node.words s - 4);
  match Node.label s (4 * Node.chunk_nodes) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a handle past the store was read"

(* --- construct pool -------------------------------------------------------- *)

(* Stamp [n] as a completed instance [tenter, texit), as a push and a
   pop through Index_tree would. *)
let stamp pool n ~tenter ~texit =
  let nodes = Pool.nodes pool in
  Node.start nodes n ~label:0 ~is_func:false ~tenter ~parent:Node.none;
  Node.set_texit nodes n texit

let test_pool_reuse () =
  let pool = Pool.create ~capacity:1 () in
  (* A completed instance [10,20) is retirable at time >= 30. *)
  let n = Pool.acquire pool ~now:0 in
  stamp pool n ~tenter:10 ~texit:20;
  Pool.release pool n;
  let n2 = Pool.acquire pool ~now:25 in
  Alcotest.(check bool) "not recycled before window" true (n2 <> n);
  Pool.release pool n2;
  (* n2 is fresh: its zero stamps make it retirable at once, but n is
     older and now retirable too, so the head scan returns n first *)
  let n3 = Pool.acquire pool ~now:31 in
  Alcotest.(check int) "head recycled after window" n n3

let test_pool_counts () =
  let pool = Pool.create ~capacity:2 () in
  let a = Pool.acquire pool ~now:0 in
  let b = Pool.acquire pool ~now:0 in
  Alcotest.(check int) "allocated" 2 (Pool.allocated pool);
  stamp pool a ~tenter:0 ~texit:1;
  Pool.release pool a;
  stamp pool b ~tenter:0 ~texit:1;
  Pool.release pool b;
  let _ = Pool.acquire pool ~now:100 in
  Alcotest.(check int) "reused" 1 (Pool.reused pool);
  Alcotest.(check int) "no new allocation" 2 (Pool.allocated pool)

(* The ring keeps FIFO order across its own growth, also when its tail
   has wrapped around before it grows: the scan examines the oldest
   completions first, and non-retirable ones rotate to the tail. *)
let test_pool_ring_fifo () =
  let pool = Pool.create ~capacity:300 () in
  let hs = Array.init 300 (fun _ -> Pool.acquire pool ~now:0) in
  (* hs.(i) completes [i, i+1000): retirable from now = i + 2000 *)
  Array.iteri (fun i h -> stamp pool h ~tenter:i ~texit:(i + 1000)) hs;
  (* fill the initial 64 slots, free the first, then wrap the tail into
     it before the ring has to grow *)
  for i = 0 to 63 do
    Pool.release pool hs.(i)
  done;
  Alcotest.(check int) "oldest first" hs.(0) (Pool.acquire pool ~now:2000);
  for i = 64 to 299 do
    Pool.release pool hs.(i)
  done;
  Alcotest.(check int) "ring holds the rest" 299 (Pool.size pool);
  Alcotest.(check int) "next oldest" hs.(1) (Pool.acquire pool ~now:2003);
  (* at now = 0 nothing is retirable: 8 entries rotate to the tail and a
     fresh node (handle 300) is allocated *)
  Alcotest.(check int) "fresh handle" 300 (Pool.acquire pool ~now:0);
  Alcotest.(check int) "rotated, not lost" 298 (Pool.size pool);
  let drained = List.init 298 (fun _ -> Pool.acquire pool ~now:1_000_000) in
  Alcotest.(check (list int)) "FIFO order, rotated entries last"
    (List.init 290 (fun i -> hs.(i + 10)) @ List.init 8 (fun i -> hs.(i + 2)))
    drained

(* Staleness safety: a recycled node can never satisfy [covers] for a
   timestamp recorded during its previous lifetime. *)
let test_pool_staleness_single () =
  let gen =
    QCheck.Gen.(
      tup3 (int_range 0 1000) (int_range 1 1000) (int_range 0 2000))
  in
  let prop (tenter, dur, gap) =
    let texit = tenter + dur in
    let pool = Pool.create ~capacity:1 () in
    let nodes = Pool.nodes pool in
    let n = Pool.acquire pool ~now:tenter in
    stamp pool n ~tenter ~texit;
    Pool.release pool n;
    let now = texit + gap in
    let n2 = Pool.acquire pool ~now in
    if n2 = n then begin
      (* Simulate reuse stamping as Index_tree.push does. *)
      Node.start nodes n ~label:0 ~is_func:false ~tenter:now ~parent:Node.none;
      (* No old timestamp may still fall in the window. *)
      let ok = ref true in
      for th = tenter to texit - 1 do
        if Node.covers nodes n th then ok := false
      done;
      !ok
    end
    else true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"recycled node never covers old timestamps"
       ~count:500 (QCheck.make gen) prop)

(* A reference model of the tree: a stack of records. *)
type model_node = {
  m_handle : int;  (* what the tree's push returned *)
  m_label : int;
  m_func : bool;
  m_tenter : int;
  m_parent_label : int;  (* -1 at the root *)
}

type op = Tick of int | Push of int * bool | Pop | Pop_through of int | Ret

let pp_op = function
  | Tick n -> Printf.sprintf "tick %d" n
  | Push (l, f) -> Printf.sprintf "push %d%s" l (if f then " fn" else "")
  | Pop -> "pop"
  | Pop_through l -> Printf.sprintf "pop_through %d" l
  | Ret -> "ret"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Tick n) (int_range 1 6));
        ( 3,
          map2
            (fun l f -> Push (l, f = 0))
            (int_range 0 4) (int_bound 3) );
        (2, return Pop);
        (2, map (fun l -> Pop_through l) (int_range 0 4));
        (1, return Ret);
      ])

(* Random push/pop/pop_through/ret schedules under a pool of at most 4
   nodes, so handles are recycled constantly. Every popped handle must
   carry the model's label, tenter, texit and parent label (the parent
   is below the child on the stack, so it is still live when the child
   pops); a live handle is never handed out again; and a recycled
   handle's new window starts at or after its previous [texit], so it
   covers no timestamp of its previous lifetime. *)
let test_pool_staleness_schedule () =
  let gen =
    QCheck.Gen.(pair (int_range 0 4) (list_size (int_range 1 200) gen_op))
  in
  let prop (cap, ops) =
    let popped = Queue.create () in
    let on_pop nodes c =
      let p = Node.parent nodes c in
      Queue.push
        ( c,
          Node.label nodes c,
          Node.tenter nodes c,
          Node.texit nodes c,
          if p = Node.none then -1 else Node.label nodes p )
        popped
    in
    let t = Tree.create ~pool_capacity:cap ~on_pop () in
    let rules = Rules.create ~ipdom:[||] ~tree:t in
    let nodes = Tree.nodes t in
    let last_texit = Hashtbl.create 16 in
    let model = ref [] in
    (* the model pops its top; the tree must have reported the same *)
    let expect_pop () =
      match !model with
      | [] -> QCheck.Test.fail_report "model underflow"
      | m :: ms ->
          model := ms;
          let h, label, tenter, texit, parent_label =
            match Queue.take_opt popped with
            | Some p -> p
            | None -> QCheck.Test.fail_report "tree popped too few"
          in
          if h <> m.m_handle then
            QCheck.Test.fail_reportf "popped handle %d, model %d" h m.m_handle;
          if label <> m.m_label then QCheck.Test.fail_report "label";
          if tenter <> m.m_tenter then QCheck.Test.fail_report "tenter";
          if texit <> Tree.now t then QCheck.Test.fail_report "texit";
          if parent_label <> m.m_parent_label then
            QCheck.Test.fail_reportf "parent label %d, model %d" parent_label
              m.m_parent_label;
          Hashtbl.replace last_texit h texit;
          m
    in
    List.iter
      (fun op ->
        (match op with
        | Tick n -> Tree.bulk_tick t n
        | Push (label, is_func) ->
            let parent_label =
              match !model with m :: _ -> m.m_label | [] -> -1
            in
            let h = Tree.push t ~label ~is_func in
            if List.exists (fun m -> m.m_handle = h) !model then
              QCheck.Test.fail_reportf "live handle %d handed out again" h;
            (match Hashtbl.find_opt last_texit h with
            | Some texit when Node.tenter nodes h < texit ->
                QCheck.Test.fail_reportf "handle %d recycled at %d before %d" h
                  (Node.tenter nodes h) texit
            | _ -> ());
            model :=
              {
                m_handle = h;
                m_label = label;
                m_func = is_func;
                m_tenter = Tree.now t;
                m_parent_label = parent_label;
              }
              :: !model
        | Pop ->
            if !model <> [] then begin
              ignore (Tree.pop t);
              ignore (expect_pop ())
            end
        | Pop_through label ->
            let rec depth k = function
              | [] -> 0
              | m :: _ when m.m_func -> 0
              | m :: _ when m.m_label = label -> k
              | _ :: ms -> depth (k + 1) ms
            in
            let n = depth 1 !model in
            if Tree.pop_through t ~label <> (n > 0) then
              QCheck.Test.fail_reportf "pop_through %d answered wrongly" label;
            for _ = 1 to n do
              ignore (expect_pop ())
            done
        | Ret ->
            (* Rules.on_ret unwinds through the nearest function node *)
            if List.exists (fun m -> m.m_func) !model then begin
              Rules.on_ret rules;
              while not (expect_pop ()).m_func do
                ()
              done
            end);
        if not (Queue.is_empty popped) then
          QCheck.Test.fail_reportf "tree popped more than the model";
        if Tree.depth t <> List.length !model then
          QCheck.Test.fail_report "depth")
      ops;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"handles match a list-of-records model" ~count:300
       (QCheck.make
          ~print:(fun (cap, ops) ->
            Printf.sprintf "cap %d: %s" cap
              (String.concat "; " (List.map pp_op ops)))
          gen)
       prop)

let test_pool_staleness_qcheck () =
  test_pool_staleness_single ();
  test_pool_staleness_schedule ()

(* --- index tree ------------------------------------------------------------ *)

let test_tree_push_pop () =
  let popped = ref [] in
  let t =
    Tree.create ~on_pop:(fun nodes c -> popped := Node.label nodes c :: !popped) ()
  in
  let nodes = Tree.nodes t in
  Tree.tick t;
  let a = Tree.push t ~label:1 ~is_func:true in
  Tree.tick t;
  let b = Tree.push t ~label:2 ~is_func:false in
  Alcotest.(check (option int)) "top is b" (Some 2)
    (Option.map (Node.label nodes) (Tree.top t));
  Alcotest.(check (list int)) "index" [ 1; 2 ] (Tree.index_of_top t);
  Alcotest.(check int) "parent link" a (Node.parent nodes b);
  Alcotest.(check int) "root has no parent" Node.none (Node.parent nodes a);
  Tree.tick t;
  let b' = Tree.pop t in
  Alcotest.(check int) "pop returns top" b b';
  Alcotest.(check int) "texit stamped" 3 (Node.texit nodes b');
  Alcotest.(check int) "tenter stamped" 2 (Node.tenter nodes b');
  ignore (Tree.pop t);
  Alcotest.(check (list int)) "pop order" [ 1; 2 ] !popped;
  Alcotest.(check int) "empty" 0 (Tree.depth t)

let test_tree_pop_through () =
  let t = Tree.create () in
  let _f = Tree.push t ~label:100 ~is_func:true in
  let _l = Tree.push t ~label:5 ~is_func:false in
  let _g = Tree.push t ~label:7 ~is_func:false in
  (* pop_through for label 5 pops 7 then 5. *)
  Alcotest.(check bool) "found" true (Tree.pop_through t ~label:5);
  Alcotest.(check int) "only func left" 1 (Tree.depth t);
  (* absent label: no pops *)
  Alcotest.(check bool) "not found" false (Tree.pop_through t ~label:5);
  Alcotest.(check int) "depth unchanged" 1 (Tree.depth t);
  (* never crosses a function boundary *)
  let _l2 = Tree.push t ~label:9 ~is_func:false in
  let _f2 = Tree.push t ~label:101 ~is_func:true in
  Alcotest.(check bool) "stops at function" false (Tree.pop_through t ~label:9);
  Alcotest.(check int) "depth unchanged 2" 3 (Tree.depth t)

let test_tree_pop_empty () =
  let t = Tree.create () in
  match Tree.pop t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- Fig. 4 style examples, via real executions -------------------------- *)

(* Build an execution-index event trace (pushes with their index paths) for
   a program, by replaying the hooks through Rules. *)
let trace_indices src =
  let prog = Vm.Compile.compile_source src in
  let a = Cfa.Analysis.analyze prog in
  let tree = Tree.create () in
  let rules = Rules.create ~ipdom:a.Cfa.Analysis.ipdom_of_pc ~tree in
  let events = ref [] in
  let name_of label =
    match Vm.Program.construct_at prog label with
    | Some c -> (
        match c.Vm.Program.kind with
        | Vm.Program.CProc -> c.Vm.Program.cname
        | Vm.Program.CLoop -> Printf.sprintf "L%d" c.Vm.Program.loc.Minic.Srcloc.line
        | Vm.Program.CCond -> Printf.sprintf "I%d" c.Vm.Program.loc.Minic.Srcloc.line)
    | None -> Printf.sprintf "pc%d" label
  in
  let snapshot () = List.map name_of (Tree.index_of_top tree) in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc -> Rules.on_instr rules ~pc);
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken ->
          Rules.on_branch rules ~pc ~kind ~taken;
          if kind <> Vm.Instr.BrSc then events := snapshot () :: !events);
      on_call =
        (fun ~pc ~fid:_ ->
          Rules.on_call rules ~entry_pc:pc;
          events := snapshot () :: !events);
      on_ret = (fun ~pc:_ ~fid:_ -> Rules.on_ret rules);
    }
  in
  ignore (Vm.Machine.run_hooked hooks prog);
  Rules.finish rules;
  (List.rev !events, Rules.forced_pops rules, Tree.depth tree)

(* Fig. 4(a): procedure nesting. *)
let test_fig4a_procedures () =
  let src =
    {| void B() { int s2 = 0; }
       void A() { int s1 = 0; B(); }
       int main() { A(); return 0; } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "stack drained" 0 depth;
  Alcotest.(check bool) "B nested in A" true
    (List.mem [ "main"; "A"; "B" ] indices)

(* Fig. 4(b): nested conditionals — the inner if's index is [C; outer]. *)
let test_fig4b_conditionals () =
  let src =
    {| int main() {
         int x = 1;
         if (x) {
           int s3 = 0;
           if (x) { int s4 = 0; }
         }
         return 0;
       } |}
  in
  let indices, forced, _ = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  (* Inner predicate pushes while outer construct is open: index length 3
     (main, outer if, inner if). *)
  Alcotest.(check bool) "inner if nested in outer" true
    (List.exists (fun ix -> List.length ix = 3 && List.hd ix = "main") indices)

(* Fig. 4(c): loop iterations are siblings — when the inner loop runs
   twice within one outer iteration, both pushes see the same index path
   (outer iteration), not increasing depth. *)
let test_fig4c_loop_iterations () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 2; i++) {
           for (int j = 0; j < 2; j++) { s++; }
         }
         return s;
       } |}
  in
  let indices, forced, _ = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  (* All inner-loop iteration snapshots have depth exactly 3:
     [main; outer-iter; inner-iter] — siblings, never 4. *)
  let inner = List.filter (fun ix -> List.length ix >= 3) indices in
  Alcotest.(check bool) "inner iterations exist" true (inner <> []);
  List.iter
    (fun ix ->
      Alcotest.(check int) "iterations are siblings, not nested" 3
        (List.length ix))
    inner

(* Break guards must not make later iterations nest deeper (the rule-4
   unwind): depth at each loop-iteration push stays constant. *)
let test_break_guard_iterations_stay_siblings () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 20; i++) {
           if (i == 50) break;   // never taken, but ipdom is the loop exit
           s += i;
         }
         return s;
       } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "drained" 0 depth;
  let max_depth = List.fold_left (fun m ix -> max m (List.length ix)) 0 indices in
  (* main + loop iteration + guard if = 3; without the unwind this would
     grow to ~22. *)
  Alcotest.(check int) "bounded depth" 3 max_depth

let test_continue_guard () =
  let src =
    {| int main() {
         int s = 0;
         for (int i = 0; i < 10; i++) {
           if (i % 2) continue;
           s += i;
         }
         return s;
       } |}
  in
  let indices, forced, depth = trace_indices src in
  Alcotest.(check int) "no forced pops" 0 forced;
  Alcotest.(check int) "drained" 0 depth;
  let max_depth = List.fold_left (fun m ix -> max m (List.length ix)) 0 indices in
  Alcotest.(check int) "bounded depth" 3 max_depth

let test_return_inside_loop () =
  let src =
    {| int find(int a[], int n, int v) {
         for (int i = 0; i < n; i++) {
           if (a[i] == v) return i;
         }
         return -1;
       }
       int a[8];
       int main() {
         for (int i = 0; i < 8; i++) a[i] = i * 3;
         return find(a, 8, 12) + find(a, 8, 99);
       } |}
  in
  let _, forced, depth = trace_indices src in
  Alcotest.(check int) "drained" 0 depth;
  (* The early return jumps over the loop exit; on_ret pops the pending
     loop/if constructs. Those are exactly the "forced" pops. *)
  Alcotest.(check bool) "forced pops bounded" true (forced <= 4)

(* Pool bound (Theorem 1 in practice): a long loop creates millions of
   dynamic instances but the tree allocates O(1) nodes. *)
let test_pool_bound_long_loop () =
  let src =
    {| int g;
       int main() {
         for (int i = 0; i < 20000; i++) { g += i; if (g > 1000000) g = 0; }
         return g;
       } |}
  in
  let prog = Vm.Compile.compile_source src in
  let a = Cfa.Analysis.analyze prog in
  let pops = ref 0 in
  let tree = Tree.create ~pool_capacity:16 ~on_pop:(fun _ _ -> incr pops) () in
  let rules = Rules.create ~ipdom:a.Cfa.Analysis.ipdom_of_pc ~tree in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc -> Rules.on_instr rules ~pc);
      on_branch =
        (fun ~pc ~kind ~cid:_ ~taken -> Rules.on_branch rules ~pc ~kind ~taken);
      on_call = (fun ~pc ~fid:_ -> Rules.on_call rules ~entry_pc:pc);
      on_ret = (fun ~pc:_ ~fid:_ -> Rules.on_ret rules);
    }
  in
  ignore (Vm.Machine.run_hooked hooks prog);
  Rules.finish rules;
  Alcotest.(check bool) "many dynamic instances" true (!pops > 20_000);
  Alcotest.(check bool)
    (Printf.sprintf "bounded allocation (%d nodes)" (Tree.pool_allocated tree))
    true
    (Tree.pool_allocated tree < 64)

(* pool.scan_len must have one observation per acquire — including the
   below-capacity fresh-allocation path, which BENCH_2 showed recording
   nothing — and a nonzero sum once churn forces actual queue scans. *)
let test_pool_scan_len_telemetry () =
  let reg = Obs.Registry.create () in
  let pool = Pool.create ~capacity:2 () in
  Pool.register_obs pool reg;
  let dist () =
    match Obs.find (Obs.Registry.snapshot reg) "pool.scan_len" with
    | Some (Obs.Dist { count; sum; _ }) -> (count, sum)
    | _ -> Alcotest.fail "pool.scan_len not registered"
  in
  (* Two below-capacity acquires: observed as zero-length scans. *)
  let a = Pool.acquire pool ~now:0 in
  let b = Pool.acquire pool ~now:0 in
  Alcotest.(check (pair int int)) "fresh path observed" (2, 0) (dist ());
  (* Churn at capacity: instances [0,10) only retire at now >= 20, so the
     next acquire scans and rotates both entries without reusing. *)
  stamp pool a ~tenter:0 ~texit:10;
  Pool.release pool a;
  stamp pool b ~tenter:0 ~texit:10;
  Pool.release pool b;
  (* now=12 < 20: neither is retirable; scan walks both and allocates. *)
  let _ = Pool.acquire pool ~now:12 in
  let count, sum = dist () in
  Alcotest.(check int) "scan observed per acquire" 3 count;
  Alcotest.(check int) "two entries examined" 2 sum;
  (* now=25 >= 20: head is retirable after examining one entry. *)
  let _ = Pool.acquire pool ~now:25 in
  let count', sum' = dist () in
  Alcotest.(check int) "reuse observed" 4 count';
  Alcotest.(check int) "one more entry examined" 3 sum';
  Alcotest.(check int) "reused" 1 (Pool.reused pool)

(* End-to-end churn through the profiler: a tiny pool capacity on a
   loop-heavy program must take the scan path and report it. *)
let test_pool_churn_profiled () =
  let src =
    {| int g;
       int main() {
         for (int i = 0; i < 5000; i++) { g += i; if (g > 100000) g = 0; }
         return g;
       } |}
  in
  let r =
    Alchemist.Profiler.run ~pool_capacity:8
      (Vm.Compile.compile_source src)
  in
  match Obs.find (Alchemist.Profiler.telemetry r) "pool.scan_len" with
  | Some (Obs.Dist { count; sum; _ }) ->
      Alcotest.(check bool) "count covers acquires" true (count > 5_000);
      Alcotest.(check bool) "scans actually walked entries" true (sum > 0)
  | _ -> Alcotest.fail "pool.scan_len not in profiler telemetry"

let suite =
  [
    ("node store chunks", `Quick, test_node_store_chunks);
    ("pool reuse window", `Quick, test_pool_reuse);
    ("pool counts", `Quick, test_pool_counts);
    ("pool ring fifo", `Quick, test_pool_ring_fifo);
    ("pool scan_len telemetry", `Quick, test_pool_scan_len_telemetry);
    ("pool churn profiled", `Quick, test_pool_churn_profiled);
    ("pool staleness (qcheck)", `Quick, test_pool_staleness_qcheck);
    ("tree push/pop", `Quick, test_tree_push_pop);
    ("tree pop_through", `Quick, test_tree_pop_through);
    ("tree pop empty", `Quick, test_tree_pop_empty);
    ("fig4a procedures", `Quick, test_fig4a_procedures);
    ("fig4b conditionals", `Quick, test_fig4b_conditionals);
    ("fig4c loop iterations", `Quick, test_fig4c_loop_iterations);
    ("break guard siblings", `Quick, test_break_guard_iterations_stay_siblings);
    ("continue guard", `Quick, test_continue_guard);
    ("return inside loop", `Quick, test_return_inside_loop);
    ("pool bound long loop", `Quick, test_pool_bound_long_loop);
  ]
