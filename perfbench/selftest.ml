(* The benchmark's own test, at the programs' small test scales: clean
   runs fail no op, one corrupted output is counted as one failed op, and
   the traced run reports every per-layer metric with the explore replay
   equal to Driver.Explore.explore. Prints nothing when it passes. *)

open Perfbench

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "selftest FAILED: %s\n%!" what
  end

let small names =
  List.map
    (fun n ->
      let w = Workloads.Registry.find n in
      (n, w.Workloads.Workload.test_scale))
    names

let seed = 7

let run ?tamper ?(traced = false) (suite : Suite.t) =
  let programs = Suite.programs ~seed suite.Suite.bases in
  (if traced then Harness.run_traced else Harness.run_untraced)
    ?tamper ~suite ~programs ~seed ~seconds:0. ()

(* Replaces one output of one program in one round. *)
let corrupt ~round:r ~key:k ~output : Harness.tamper =
 fun ~round ~key obs ->
  if round = r && key = k then
    List.map (fun (n, v) -> if n = output then (n, v ^ "!") else (n, v)) obs
  else obs

let counts_one name suite ~key ~output =
  let clean = run suite in
  let ops = clean.Harness.tally.Harness.attempted in
  expect (name ^ ": clean run fails no op")
    (clean.Harness.tally.Harness.failed = 0 && Harness.correct clean);
  let bad = run ~tamper:(corrupt ~round:1 ~key ~output) suite in
  expect
    (Printf.sprintf "%s: corrupted %s counts one failed op" name output)
    (bad.Harness.tally.Harness.failed = 1
    && bad.Harness.tally.Harness.attempted = ops
    && not (Harness.correct bad))

let () =
  Harness.verbose := false;
  let profile = { Suite.profile with Suite.bases = small [ "aes" ] } in
  counts_one "profile" profile ~key:"aes" ~output:"profile";
  counts_one "profile" profile ~key:"aes" ~output:"exit_value";
  let explore = { Suite.explore with Suite.bases = small [ "par2" ] } in
  counts_one "explore" explore ~key:"par2" ~output:"candidates";
  let saved =
    let programs = Suite.programs ~seed profile.Suite.bases in
    let tbl = Hashtbl.create 4 in
    Array.iter
      (fun p -> Hashtbl.replace tbl (Suite.name p) (Suite.saved_profile p))
      programs;
    Hashtbl.find tbl
  in
  let check = { (Suite.check ~saved) with Suite.bases = profile.Suite.bases } in
  counts_one "check" check ~key:"aes" ~output:"roundtrip";
  let traced = run ~traced:true explore in
  expect "traced explore replay equals Driver.Explore.explore"
    (traced.Harness.tally.Harness.failed = 0);
  expect "traced run reports every per-layer metric"
    (List.map (fun m -> m.Harness.mname) traced.Harness.metrics
    = List.map fst Harness.per_layer_metrics);
  expect "traced explore times the parsim layer"
    (List.exists
       (fun m -> m.Harness.mname = "parsim.collect_ms" && m.Harness.value > 0.)
       traced.Harness.metrics);
  if !failures > 0 then exit 1
