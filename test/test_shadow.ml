(* Tests for shadow-memory dependence detection. *)

module SM = Shadow.Shadow_memory
module Dep = Shadow.Dependence

(* Shadow memory never dereferences a node handle; any distinct ints do. *)
let next_node = ref 0

let node () =
  incr next_node;
  !next_node

let collect () =
  let deps = ref [] in
  let sm = SM.create ~sink:(Testutil.boxing_sink (fun d -> deps := d :: !deps)) () in
  (sm, fun () -> List.rev !deps)

let kinds ds = List.map (fun d -> d.Dep.kind) ds

let test_raw () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:5 ~pc:10 ~time:1 ~node:n;
  SM.read sm ~addr:5 ~pc:20 ~time:4 ~node:n;
  match got () with
  | [ d ] ->
      Alcotest.(check bool) "kind" true (d.Dep.kind = Dep.Raw);
      Alcotest.(check int) "head pc" 10 d.Dep.head.Dep.pc;
      Alcotest.(check int) "tail pc" 20 d.Dep.tail.Dep.pc;
      Alcotest.(check int) "distance" 3 (Dep.distance d)
  | ds -> Alcotest.failf "expected 1 dep, got %d" (List.length ds)

let test_raw_last_write_only () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:1 ~pc:10 ~time:1 ~node:n;
  SM.write sm ~addr:1 ~pc:11 ~time:2 ~node:n;
  (* WAW between the writes *)
  SM.read sm ~addr:1 ~pc:20 ~time:5 ~node:n;
  let ds = got () in
  Alcotest.(check int) "two deps" 2 (List.length ds);
  let raw = List.find (fun d -> d.Dep.kind = Dep.Raw) ds in
  Alcotest.(check int) "raw head is LAST write" 11 raw.Dep.head.Dep.pc

let test_war_all_reads () =
  let sm, got = collect () in
  let n = node () in
  SM.read sm ~addr:3 ~pc:30 ~time:1 ~node:n;
  SM.read sm ~addr:3 ~pc:31 ~time:2 ~node:n;
  SM.write sm ~addr:3 ~pc:40 ~time:6 ~node:n;
  let ds = got () |> List.filter (fun d -> d.Dep.kind = Dep.War) in
  Alcotest.(check int) "war edges from both read pcs" 2 (List.length ds);
  let heads = List.map (fun d -> d.Dep.head.Dep.pc) ds |> List.sort compare in
  Alcotest.(check (list int)) "heads" [ 30; 31 ] heads

let test_war_latest_per_pc () =
  let sm, got = collect () in
  let n = node () in
  SM.read sm ~addr:3 ~pc:30 ~time:1 ~node:n;
  SM.read sm ~addr:3 ~pc:30 ~time:4 ~node:n;
  (* same static pc again *)
  SM.write sm ~addr:3 ~pc:40 ~time:6 ~node:n;
  let ds = got () |> List.filter (fun d -> d.Dep.kind = Dep.War) in
  match ds with
  | [ d ] ->
      Alcotest.(check int) "latest read kept (min Tdep)" 2 (Dep.distance d)
  | _ -> Alcotest.failf "expected 1 WAR, got %d" (List.length ds)

let test_waw () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:7 ~pc:10 ~time:1 ~node:n;
  SM.write sm ~addr:7 ~pc:12 ~time:9 ~node:n;
  match got () with
  | [ d ] ->
      Alcotest.(check bool) "waw" true (d.Dep.kind = Dep.Waw);
      Alcotest.(check int) "distance" 8 (Dep.distance d)
  | ds -> Alcotest.failf "expected 1 dep, got %d" (List.length ds)

let test_write_clears_reads () =
  let sm, got = collect () in
  let n = node () in
  SM.read sm ~addr:3 ~pc:30 ~time:1 ~node:n;
  SM.write sm ~addr:3 ~pc:40 ~time:2 ~node:n;
  (* WAR *)
  SM.write sm ~addr:3 ~pc:41 ~time:3 ~node:n;
  (* WAW only: the read must not fire a second WAR *)
  let wars = got () |> List.filter (fun d -> d.Dep.kind = Dep.War) in
  Alcotest.(check int) "single WAR" 1 (List.length wars)

let test_distinct_addresses_independent () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:100 ~pc:1 ~time:1 ~node:n;
  SM.read sm ~addr:200 ~pc:2 ~time:2 ~node:n;
  Alcotest.(check (list int)) "no deps" []
    (List.map Dep.distance (got ()))

(* The paper's gzip observation: writes to disjoint buffer slots produce no
   WAW even when the buffer index (a scalar) does conflict. *)
let test_disjoint_buffer_slots () =
  let sm, got = collect () in
  let n = node () in
  (* outbuf[outcnt++] pattern: writes to addr 50,51,52; outcnt at addr 9. *)
  for i = 0 to 2 do
    let t = 1 + (4 * i) in
    SM.read sm ~addr:9 ~pc:5 ~time:t ~node:n;
    SM.write sm ~addr:9 ~pc:6 ~time:(t + 1) ~node:n;
    SM.write sm ~addr:(50 + i) ~pc:7 ~time:(t + 2) ~node:n
  done;
  let ds = got () in
  let on_buffer =
    List.filter
      (fun d -> d.Dep.head.Dep.pc = 7 && d.Dep.kind = Dep.Waw)
      ds
  in
  Alcotest.(check int) "no WAW on disjoint slots" 0 (List.length on_buffer);
  let on_counter = List.filter (fun d -> d.Dep.kind = Dep.Waw) ds in
  Alcotest.(check int) "WAW on the counter" 2 (List.length on_counter)

let test_clear_range () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:64 ~pc:1 ~time:1 ~node:n;
  SM.write sm ~addr:65 ~pc:1 ~time:2 ~node:n;
  SM.clear_range sm ~base:64 ~size:2;
  SM.read sm ~addr:64 ~pc:2 ~time:3 ~node:n;
  SM.write sm ~addr:65 ~pc:3 ~time:4 ~node:n;
  Alcotest.(check int) "history dropped" 0 (List.length (got ()));
  Alcotest.(check bool) "addresses re-tracked" true (SM.tracked_addresses sm >= 2)

(* Regression: a wide interior clear_range must honor the range end and
   keep the history above base+size. *)
let test_clear_range_interior () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:100 ~pc:1 ~time:1 ~node:n;
  SM.write sm ~addr:300 ~pc:2 ~time:2 ~node:n;
  (* [50, 250) stops below addr 300 *)
  SM.clear_range sm ~base:50 ~size:200;
  SM.read sm ~addr:100 ~pc:3 ~time:3 ~node:n;
  SM.read sm ~addr:300 ~pc:4 ~time:4 ~node:n;
  match got () with
  | [ d ] ->
      Alcotest.(check bool) "kind" true (d.Dep.kind = Dep.Raw);
      Alcotest.(check int) "surviving head" 2 d.Dep.head.Dep.pc;
      Alcotest.(check int) "surviving tail" 4 d.Dep.tail.Dep.pc
  | ds ->
      Alcotest.failf "expected exactly the dep above the range, got %d"
        (List.length ds)

(* A clear past every touched address drops everything from its base
   up, including addresses far beyond a 64-slot frame, and nothing
   below it. *)
let test_clear_from_suffix () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:10 ~pc:1 ~time:1 ~node:n;
  SM.write sm ~addr:100 ~pc:2 ~time:2 ~node:n;
  SM.write sm ~addr:5000 ~pc:3 ~time:3 ~node:n;
  SM.clear_range sm ~base:64 ~size:10_000;
  SM.read sm ~addr:100 ~pc:4 ~time:4 ~node:n;
  SM.read sm ~addr:5000 ~pc:5 ~time:5 ~node:n;
  SM.read sm ~addr:10 ~pc:6 ~time:6 ~node:n;
  match got () with
  | [ d ] ->
      Alcotest.(check bool) "kind" true (d.Dep.kind = Dep.Raw);
      Alcotest.(check int) "head below base survives" 1 d.Dep.head.Dep.pc;
      Alcotest.(check int) "tail" 6 d.Dep.tail.Dep.pc
  | ds ->
      Alcotest.failf "expected exactly the dep below base, got %d"
        (List.length ds)

(* A clear between two accesses of one address drops the first: the
   second must see no WAW, whether the range reaches the top of touched
   memory or lies inside it. *)
let test_clear_between_accesses () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:100 ~pc:1 ~time:1 ~node:n;
  SM.clear_range sm ~base:64 ~size:100;
  SM.write sm ~addr:100 ~pc:2 ~time:2 ~node:n;
  Alcotest.(check int) "no stale WAW across a clear reaching the top" 0
    (List.length (got ()));
  SM.write sm ~addr:7 ~pc:3 ~time:3 ~node:n;
  SM.clear_range sm ~base:6 ~size:4;
  SM.write sm ~addr:7 ~pc:4 ~time:4 ~node:n;
  Alcotest.(check int) "no stale WAW across an interior clear" 0
    (List.length (got ()))

(* A clear above every touched address changes nothing, and a real
   clear after it still drops history. *)
let test_clear_above_touched () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:10 ~pc:1 ~time:1 ~node:n;
  SM.clear_range sm ~base:100_000 ~size:64;
  SM.read sm ~addr:10 ~pc:2 ~time:2 ~node:n;
  (match got () with
  | [ d ] ->
      Alcotest.(check bool) "RAW survives a clear above" true
        (d.Dep.kind = Dep.Raw)
  | ds -> Alcotest.failf "expected 1 dep, got %d" (List.length ds));
  SM.clear_range sm ~base:0 ~size:11;
  SM.write sm ~addr:10 ~pc:3 ~time:3 ~node:n;
  Alcotest.(check int) "then a real clear still clears" 1
    (List.length (got ()))

let test_counters () =
  let sm, _ = collect () in
  let reg = Obs.Registry.create () in
  SM.register_obs sm reg;
  let scrubbed () =
    match Obs.find (Obs.Registry.snapshot reg) "shadow.cells_scrubbed" with
    | Some (Obs.Count n) -> n
    | _ -> -1
  in
  let n = node () in
  SM.write sm ~addr:1 ~pc:1 ~time:1 ~node:n;
  SM.read sm ~addr:1 ~pc:2 ~time:2 ~node:n;
  SM.read sm ~addr:2 ~pc:3 ~time:3 ~node:n;
  Alcotest.(check int) "events" 3 (SM.events sm);
  Alcotest.(check int) "deps" 1 (SM.deps_emitted sm);
  Alcotest.(check int) "tracked" 2 (SM.tracked_addresses sm);
  SM.write sm ~addr:9 ~pc:4 ~time:4 ~node:n;
  (* [0, 8) holds k = 2 cells with history (1 and 2) and j = 6
     untouched ones *)
  SM.clear_range sm ~base:0 ~size:8;
  Alcotest.(check int) "scrubbed counts the cells with history" 2
    (scrubbed ());
  Alcotest.(check int) "tracked after the clear" 1 (SM.tracked_addresses sm);
  SM.clear_range sm ~base:0 ~size:8;
  Alcotest.(check int) "a clean range scrubs nothing" 2 (scrubbed ())

(* Property: shadow memory agrees with Baselines.Pair_shadow, the plain
   hash-table reference, on random accesses and clears. Addresses span
   300 cells, a hot low 16 of them taking half the draws so that edges
   are frequent. Clear sizes fall on both sides of 64 slots, and a clear
   starts inside the touched range, reaches its top, or lies above it.
   Each access's edges are compared as a sorted list of (kind, head pc,
   head time, head node, tail pc); the node rides as Pair_shadow's
   context. *)
type op = Access of bool * int * int | Clear of int * int * int

let test_random_sequences_qcheck () =
  let module PS = Baselines.Pair_shadow in
  let gen =
    QCheck.Gen.(
      let access =
        map3
          (fun w a pc -> Access (w, a, pc))
          bool
          (oneof [ int_range 0 15; int_range 0 299 ])
          (int_range 0 30)
      in
      let clear =
        map3
          (fun where off size -> Clear (where, off, size))
          (int_range 0 2) (int_range 0 299)
          (oneof [ int_range 1 64; int_range 65 200 ])
      in
      list_size (int_range 1 400) (frequency [ (8, access); (1, clear) ]))
  in
  let print =
    QCheck.Print.list (function
      | Access (w, a, pc) -> Printf.sprintf "%s %d @%d" (if w then "W" else "R") a pc
      | Clear (where, off, size) -> Printf.sprintf "C%d %d+%d" where off size)
  in
  let prop ops =
    let time = ref 0 in
    let got = ref [] and want = ref [] in
    let sm =
      SM.create
        ~sink:(fun ~kind ~head_pc ~head_time ~head_node ~tail_pc ~tail_time:_
                   ~tail_node:_ ~addr:_ ->
          got := (kind, head_pc, head_time, head_node, tail_pc) :: !got)
        ()
    in
    let ps =
      PS.create
        ~on_dep:(fun (d : int PS.dep) ->
          let kind =
            match d.kind with `Raw -> Dep.Raw | `War -> Dep.War | `Waw -> Dep.Waw
          in
          want :=
            (kind, d.head_pc, !time - d.distance, d.head_ctx, d.tail_pc)
            :: !want)
        ()
    in
    (* one past the highest address accessed so far *)
    let top = ref 0 in
    List.for_all
      (function
        | Access (is_write, addr, pc) ->
            incr time;
            got := [];
            want := [];
            let node = 1000 + !time in
            if is_write then begin
              SM.write sm ~addr ~pc ~time:!time ~node;
              PS.write ps ~addr ~pc ~time:!time ~ctx:node
            end
            else begin
              SM.read sm ~addr ~pc ~time:!time ~node;
              PS.read ps ~addr ~pc ~time:!time ~ctx:node
            end;
            top := max !top (addr + 1);
            List.sort compare !got = List.sort compare !want
        | Clear (where, off, size) ->
            let inside = off mod max 1 !top in
            let base, size =
              match where with
              | 0 -> (inside, size)
              | 1 -> (inside, max size (!top - inside))
              | _ -> (!top + (off mod 50), size)
            in
            SM.clear_range sm ~base ~size;
            PS.clear_range ps ~base ~size;
            true)
      ops
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"random accesses and clears against Pair_shadow"
       ~count:300 (QCheck.make ~print gen) prop)

(* Node handles are kept as plain ints: the writer's beside the cell,
   each reader's in its arena slot. Every edge must hand back the handle
   recorded with its head, including from a slot updated in place and
   from a freed slot reused for another address. *)
let test_node_handles () =
  let sm, got = collect () in
  let edge (d : Dep.t) =
    (Dep.kind_to_string d.Dep.kind, d.Dep.head.Dep.node, d.Dep.tail.Dep.node)
  in
  SM.write sm ~addr:2 ~pc:10 ~time:1 ~node:11;
  SM.read sm ~addr:2 ~pc:20 ~time:2 ~node:12;
  SM.read sm ~addr:2 ~pc:21 ~time:3 ~node:13;
  (* same static pc: its slot now carries node 14 *)
  SM.read sm ~addr:2 ~pc:20 ~time:4 ~node:14;
  SM.write sm ~addr:2 ~pc:30 ~time:5 ~node:15;
  (* the write freed both read slots; this read takes one of them *)
  SM.read sm ~addr:3 ~pc:40 ~time:6 ~node:16;
  SM.write sm ~addr:3 ~pc:50 ~time:7 ~node:17;
  Alcotest.(check (list (triple string int int)))
    "head and tail handles"
    [
      ("RAW", 11, 12);
      ("RAW", 11, 13);
      ("RAW", 11, 14);
      ("WAW", 11, 15);
      ("WAR", 13, 15);
      ("WAR", 14, 15);
      ("WAR", 16, 17);
    ]
    (List.map edge (got ()))

let suite =
  [
    ("raw", `Quick, test_raw);
    ("raw last write only", `Quick, test_raw_last_write_only);
    ("war all reads", `Quick, test_war_all_reads);
    ("war latest per pc", `Quick, test_war_latest_per_pc);
    ("waw", `Quick, test_waw);
    ("write clears reads", `Quick, test_write_clears_reads);
    ("distinct addresses", `Quick, test_distinct_addresses_independent);
    ("disjoint buffer slots", `Quick, test_disjoint_buffer_slots);
    ("clear range", `Quick, test_clear_range);
    ("clear range honors range end", `Quick, test_clear_range_interior);
    ("clear from suffix", `Quick, test_clear_from_suffix);
    ("clear between two accesses", `Quick, test_clear_between_accesses);
    ("clear above touched memory", `Quick, test_clear_above_touched);
    ("counters", `Quick, test_counters);
    ("node handles", `Quick, test_node_handles);
    ("random sequences (qcheck)", `Quick, test_random_sequences_qcheck);
  ]
