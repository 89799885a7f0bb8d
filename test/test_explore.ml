(* Tests for the automated workflow driver (rank -> advise -> simulate). *)

module Explore = Driver.Explore
module Advice = Alchemist.Advice

let test_explore_finds_parallel_loop () =
  let src =
    {|int out[32];
      int work(int i) {
        int s = 0;
        for (int k = 0; k < 100; k++) s += i ^ k;
        return s;
      }
      int main() {
        for (int i = 0; i < 16; i++) out[i & 31] = work(i);
        return out[3];
      }|}
  in
  let prog = Vm.Compile.compile_source src in
  let t = Explore.explore ~fuel:10_000_000 ~cores:4 prog in
  match Explore.best t with
  | None -> Alcotest.fail "no candidate found"
  | Some c ->
      let r = Option.get c.Explore.simulated in
      Alcotest.(check bool)
        (Printf.sprintf "best speedup %.2f > 2" r.Parsim.Speedup.speedup)
        true
        (r.Parsim.Speedup.speedup > 2.0)

let test_explore_detects_reduction () =
  (* A sum loop: blocked by the accumulator chain, but the chain is a
     recognized reduction, so the driver still simulates it with the
     reduction transform and finds the speedup. *)
  let src =
    {|int total;
      int step(int i) {
        int s = 0;
        for (int k = 0; k < 120; k++) s += (i * k) & 31;
        return s;
      }
      int main() {
        for (int i = 0; i < 16; i++) total += step(i);
        return total;
      }|}
  in
  let prog = Vm.Compile.compile_source src in
  let t = Explore.explore ~fuel:10_000_000 ~cores:4 prog in
  (* the main loop must carry a Reduce suggestion for total *)
  let has_reduce =
    List.exists
      (fun (c : Explore.candidate) ->
        List.exists
          (function Advice.Reduce { var = "total"; _ } -> true | _ -> false)
          c.Explore.advice.Advice.suggestions)
      t.Explore.candidates
  in
  Alcotest.(check bool) "reduction recognized" true has_reduce;
  match Explore.best t with
  | Some c ->
      let r = Option.get c.Explore.simulated in
      Alcotest.(check bool)
        (Printf.sprintf "speedup %.2f > 2 after reduction" r.Parsim.Speedup.speedup)
        true
        (r.Parsim.Speedup.speedup > 2.0)
  | None -> Alcotest.fail "no candidate"

let test_explore_rejects_true_chain () =
  (* Value-dependent chain: each step's input is the previous step's
     output through a non-associative transformation -> not a reduction,
     not amenable. *)
  let src =
    {|int state;
      int step() {
        int v = state;
        int s = 0;
        for (int k = 0; k < 80; k++) s += (v >> 1) ^ k;
        return s & 2047;
      }
      int main() {
        for (int i = 0; i < 16; i++) state = step();
        return state;
      }|}
  in
  let prog = Vm.Compile.compile_source src in
  let t = Explore.explore ~fuel:10_000_000 ~cores:4 prog in
  (* The loop carries the non-associative chain: not amenable. *)
  let find name =
    List.find
      (fun (c : Explore.candidate) ->
        c.Explore.entry.Alchemist.Ranking.name = name)
      t.Explore.candidates
  in
  let loop = find "Loop (main,9)" in
  Alcotest.(check bool) "loop not amenable" true
    (loop.Explore.advice.Advice.verdict = `Not_amenable);
  Alcotest.(check bool) "loop not simulated" true
    (loop.Explore.simulated = None);
  (* Method step itself has no outgoing violating RAW (the chain's write
     is at the call site), so Alchemist calls it spawnable — but each
     call's return value is claimed immediately, so the simulator finds
     no profit in it. *)
  let step = find "Method step" in
  (match step.Explore.simulated with
  | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "claims serialize step (%.2f)" r.Parsim.Speedup.speedup)
        true
        (r.Parsim.Speedup.speedup < 1.15)
  | None -> Alcotest.fail "step should be simulated");
  (* And no candidate at all reaches a real speedup. *)
  List.iter
    (fun (c : Explore.candidate) ->
      match c.Explore.simulated with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "%s speedup %.2f stays ~1"
               c.Explore.entry.Alchemist.Ranking.name r.Parsim.Speedup.speedup)
            true
            (r.Parsim.Speedup.speedup < 1.3)
      | None -> ())
    t.Explore.candidates

let test_explore_on_bzip2 () =
  (* End-to-end on a bundled workload: the driver should find a
     multi-core speedup on the block loop fully automatically. *)
  let w = Workloads.Registry.find "bzip2" in
  let prog = Workloads.Workload.compile w ~scale:2_000 in
  let t = Explore.explore ~fuel:50_000_000 ~cores:4 prog in
  match Explore.best t with
  | None -> Alcotest.fail "no candidate on bzip2"
  | Some c ->
      let r = Option.get c.Explore.simulated in
      Alcotest.(check bool)
        (Printf.sprintf "automatic speedup %.2f > 1.5 (%s)"
           r.Parsim.Speedup.speedup c.Explore.entry.Alchemist.Ranking.name)
        true
        (r.Parsim.Speedup.speedup > 1.5)

let test_explore_printable () =
  let src = "int g; int main() { for (int i = 0; i < 30; i++) g += i; return g; }" in
  let prog = Vm.Compile.compile_source src in
  let t = Explore.explore ~fuel:1_000_000 prog in
  let s = Format.asprintf "%a" Explore.pp t in
  Alcotest.(check bool) "renders" true (String.length s > 40)

(* Explore step by step, as it ran before candidates shared a collection
   run: a plain profile, ranking and advice that each analyse the program
   themselves, and one [Speedup.analyze] — one instrumented run — per
   simulated candidate. *)
let replay ~cores ~top (prog : Vm.Program.t) =
  let r = Alchemist.Profiler.run prog in
  let profile = r.Alchemist.Profiler.profile in
  let instructions = r.Alchemist.Profiler.stats.Alchemist.Profiler.instructions in
  let threshold = int_of_float (0.02 *. float_of_int instructions) in
  let main_cid = prog.cid_of_pc.(prog.funcs.(prog.main_fid).entry) in
  let candidates =
    Alchemist.Ranking.rank profile
    |> List.filter (fun (e : Alchemist.Ranking.entry) ->
           e.cid <> main_cid && e.ttotal >= threshold)
    |> List.filteri (fun i _ -> i < top)
    |> List.mapi (fun i (entry : Alchemist.Ranking.entry) ->
           let advice = Advice.advise profile ~cid:entry.cid in
           let simulated =
             match advice.Advice.verdict with
             | `Not_amenable -> None
             | `Parallelizable | `Needs_transforms ->
                 Some
                   (Parsim.Speedup.analyze ~cores
                      ~privatize:(Advice.privatization_list advice)
                      ~reduce:(Advice.reduction_list advice)
                      prog ~head_pc:prog.constructs.(entry.cid).head_pc)
           in
           { Explore.rank = i + 1; entry; advice; simulated })
  in
  let speedup (c : Explore.candidate) =
    match c.Explore.simulated with
    | Some r -> r.Parsim.Speedup.speedup
    | None -> neg_infinity
  in
  {
    Explore.candidates =
      List.stable_sort (fun a b -> compare (speedup b) (speedup a)) candidates;
    instructions;
    profile;
  }

let test_explore_equals_replay name () =
  let w = Workloads.Registry.find name in
  let prog = Workloads.Workload.compile w ~scale:w.Workloads.Workload.test_scale in
  let t = Explore.explore ~cores:4 ~top:6 prog in
  let r = replay ~cores:4 ~top:6 prog in
  Alcotest.(check string) "transcript"
    (Format.asprintf "%a" Explore.pp r)
    (Format.asprintf "%a" Explore.pp t);
  Alcotest.(check int) "instructions" r.Explore.instructions t.Explore.instructions;
  Alcotest.(check string) "profile"
    (Alchemist.Profile_io.to_string r.Explore.profile)
    (Alchemist.Profile_io.to_string t.Explore.profile);
  Alcotest.(check int) "candidates" (List.length r.Explore.candidates)
    (List.length t.Explore.candidates);
  List.iter2
    (fun (a : Explore.candidate) (b : Explore.candidate) ->
      let what = a.Explore.entry.Alchemist.Ranking.name in
      Alcotest.(check int) (what ^ ": rank") a.Explore.rank b.Explore.rank;
      Alcotest.(check bool) (what ^ ": entry") true
        (a.Explore.entry = b.Explore.entry);
      Alcotest.(check bool) (what ^ ": advice") true
        (a.Explore.advice = b.Explore.advice);
      Alcotest.(check bool)
        (what ^ ": simulated report, every field")
        true
        (a.Explore.simulated = b.Explore.simulated))
    r.Explore.candidates t.Explore.candidates

let suite =
  [
    ("finds parallel loop", `Quick, test_explore_finds_parallel_loop);
    ("detects reduction", `Quick, test_explore_detects_reduction);
    ("rejects true chain", `Quick, test_explore_rejects_true_chain);
    ("end-to-end on bzip2", `Slow, test_explore_on_bzip2);
    ("printable", `Quick, test_explore_printable);
  ]
  @ List.map
      (fun name ->
        ( "equals a step-by-step replay: " ^ name,
          `Quick,
          test_explore_equals_replay name ))
      [ "bzip2"; "ogg"; "par2"; "aes"; "delaunay" ]
