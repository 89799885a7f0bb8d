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

(* Regression: a large interior clear_range must honor the range end.
   The old lazy path tagged [base, inf) whenever size exceeded the eager
   limit, wiping history above base+size. *)
let test_clear_range_interior () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:100 ~pc:1 ~time:1 ~node:n;
  SM.write sm ~addr:300 ~pc:2 ~time:2 ~node:n;
  (* size 200 > eager limit, but [50, 250) stops below addr 300 *)
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

(* clear_from is the O(1) frame-release path: everything at or above base
   is stale, including addresses far beyond any eager-scrub window. *)
let test_clear_from_suffix () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:10 ~pc:1 ~time:1 ~node:n;
  SM.write sm ~addr:100 ~pc:2 ~time:2 ~node:n;
  SM.write sm ~addr:5000 ~pc:3 ~time:3 ~node:n;
  SM.clear_from sm ~base:64;
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

(* Regression for the freshen memo (clear generations): a clear of any
   kind between two accesses of the same address must force the second
   access back through the freshen path — a memo stamp surviving a clear
   would let a lazily cleared cell masquerade as live history (stale
   WAW/RAW from before the clear). *)
let test_clear_invalidates_freshen_memo () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:100 ~pc:1 ~time:1 ~node:n;
  (* stamps the memo for 100 *)
  SM.clear_from sm ~base:64;
  (* lazy suffix tag: the cell still physically holds pc 1 *)
  SM.write sm ~addr:100 ~pc:2 ~time:2 ~node:n;
  Alcotest.(check int) "no stale WAW across clear_from" 0
    (List.length (got ()));
  (* same via the eager clear_range branch, mid-range *)
  SM.write sm ~addr:7 ~pc:3 ~time:3 ~node:n;
  SM.clear_range sm ~base:6 ~size:4;
  SM.write sm ~addr:7 ~pc:4 ~time:4 ~node:n;
  Alcotest.(check int) "no stale WAW across interior clear_range" 0
    (List.length (got ()))

(* The memo itself: repeated accesses to one address between clears run
   the ensure+freshen check once, and a clear re-arms it. The counter is
   a pure function of the access/clear stream, so it is also safe for
   cross-engine telemetry comparison. *)
let test_freshen_memo_counter () =
  let sm, _ = collect () in
  let reg = Obs.Registry.create () in
  SM.register_obs sm reg;
  let checks () =
    match Obs.find (Obs.Registry.snapshot reg) "shadow.freshen_checks" with
    | Some (Obs.Count n) -> n
    | _ -> -1
  in
  let n = node () in
  SM.write sm ~addr:9 ~pc:1 ~time:1 ~node:n;
  SM.read sm ~addr:9 ~pc:2 ~time:2 ~node:n;
  SM.read sm ~addr:9 ~pc:3 ~time:3 ~node:n;
  Alcotest.(check int) "one check for three accesses" 1 (checks ());
  SM.clear_from sm ~base:0;
  SM.write sm ~addr:9 ~pc:4 ~time:4 ~node:n;
  Alcotest.(check int) "clear re-arms the check" 2 (checks ());
  Alcotest.(check int) "events unaffected" 4 (SM.events sm)

(* The no-op fast path of clear_range (range entirely at or above the
   touched high-water mark) must keep real clears working: it skips the
   generation bump, which is sound exactly because untouched addresses
   carry no stamps. *)
let test_noop_clear_keeps_memo_sound () =
  let sm, got = collect () in
  let n = node () in
  SM.write sm ~addr:10 ~pc:1 ~time:1 ~node:n;
  (* far above hi: the no-op path *)
  SM.clear_range sm ~base:100_000 ~size:64;
  SM.read sm ~addr:10 ~pc:2 ~time:2 ~node:n;
  (match got () with
  | [ d ] -> Alcotest.(check bool) "RAW survives a no-op clear" true (d.Dep.kind = Dep.Raw)
  | ds -> Alcotest.failf "expected 1 dep, got %d" (List.length ds));
  (* a real clear afterwards still invalidates *)
  SM.clear_from sm ~base:0;
  SM.write sm ~addr:10 ~pc:3 ~time:3 ~node:n;
  Alcotest.(check int) "then a real clear still clears" 1
    (List.length (got ()))

let test_counters () =
  let sm, _ = collect () in
  let n = node () in
  SM.write sm ~addr:1 ~pc:1 ~time:1 ~node:n;
  SM.read sm ~addr:1 ~pc:2 ~time:2 ~node:n;
  SM.read sm ~addr:2 ~pc:3 ~time:3 ~node:n;
  Alcotest.(check int) "events" 3 (SM.events sm);
  Alcotest.(check int) "deps" 1 (SM.deps_emitted sm);
  Alcotest.(check int) "tracked" 2 (SM.tracked_addresses sm)

(* Property: on a random access sequence over a small address range, every
   emitted dependence has positive-or-zero distance, correct ordering, and
   RAW heads are always the most recent write to that address. *)
let test_random_sequences_qcheck () =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (tup3 bool (int_range 0 4) (int_range 0 30)))
  in
  let prop ops =
    let deps = ref [] in
    let sm = SM.create ~sink:(Testutil.boxing_sink (fun d -> deps := d :: !deps)) () in
    let n = node () in
    let last_write = Array.make 5 None in
    let time = ref 0 in
    let ok = ref true in
    List.iter
      (fun (is_write, addr, pc) ->
        incr time;
        let before = !deps in
        if is_write then SM.write sm ~addr ~pc ~time:!time ~node:n
        else SM.read sm ~addr ~pc ~time:!time ~node:n;
        let new_deps =
          List.filteri (fun i _ -> i < List.length !deps - List.length before) !deps
        in
        List.iter
          (fun d ->
            if Dep.distance d < 0 then ok := false;
            if d.Dep.tail.Dep.time <> !time then ok := false;
            match (d.Dep.kind, last_write.(addr)) with
            | Dep.Raw, Some (wpc, wt) ->
                if d.Dep.head.Dep.pc <> wpc || d.Dep.head.Dep.time <> wt then
                  ok := false
            | Dep.Raw, None -> ok := false
            | _ -> ())
          new_deps;
        if is_write then last_write.(addr) <- Some (pc, !time))
      ops;
    !ok
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"random access sequences" ~count:300
       (QCheck.make gen) prop)

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
    ( "clear invalidates freshen memo",
      `Quick,
      test_clear_invalidates_freshen_memo );
    ("freshen memo counter", `Quick, test_freshen_memo_counter);
    ("no-op clear keeps memo sound", `Quick, test_noop_clear_keeps_memo_sound);
    ("counters", `Quick, test_counters);
    ("node handles", `Quick, test_node_handles);
    ("random sequences (qcheck)", `Quick, test_random_sequences_qcheck);
  ]
