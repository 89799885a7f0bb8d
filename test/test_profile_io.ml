(* Tests for profile serialization. *)

module Profiler = Alchemist.Profiler
module Profile = Alchemist.Profile
module Pio = Alchemist.Profile_io

let sample_src =
  {|int g;
    int buf[8];
    void f(int i) { buf[i & 7] = g; g = i; }
    int main() {
      for (int i = 0; i < 25; i++) f(i);
      return g + buf[3];
    }|}

let profile_of src =
  let prog = Vm.Compile.compile_source src in
  let r = Profiler.run ~fuel:1_000_000 prog in
  (prog, r.Profiler.profile)

let profiles_equal (a : Profile.t) (b : Profile.t) =
  a.total_instructions = b.total_instructions
  && Array.for_all2
       (fun (x : Profile.construct_profile) (y : Profile.construct_profile) ->
         x.ttotal = y.ttotal && x.instances = y.instances
         && Profile.num_edges x = Profile.num_edges y
         && Profile.fold_edges x
              (fun (k : Profile.edge_key) (s : Profile.edge_stats) acc ->
                acc
                &&
                match
                  Profile.find_edge y ~head_pc:k.head_pc ~tail_pc:k.tail_pc
                    k.kind
                with
                | Some d ->
                    d.min_tdep = s.min_tdep && d.count = s.count
                    && d.tail_internal = s.tail_internal
                    && List.sort compare d.addrs = List.sort compare s.addrs
                | None -> false)
              true)
       a.by_cid b.by_cid

let test_roundtrip () =
  let prog, p = profile_of sample_src in
  let text = Pio.to_string p in
  match Pio.read prog text with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok p2 -> Alcotest.(check bool) "roundtrip equal" true (profiles_equal p p2)

let test_fingerprint_stable () =
  let prog1 = Vm.Compile.compile_source sample_src in
  let prog2 = Vm.Compile.compile_source sample_src in
  Alcotest.(check string) "same source same fingerprint" (Pio.fingerprint prog1)
    (Pio.fingerprint prog2);
  let prog3 = Vm.Compile.compile_source "int main() { return 7; }" in
  Alcotest.(check bool) "different source differs" true
    (Pio.fingerprint prog1 <> Pio.fingerprint prog3)

let test_rejects_wrong_program () =
  let _, p = profile_of sample_src in
  let other = Vm.Compile.compile_source "int main() { return 0; }" in
  match Pio.read other (Pio.to_string p) with
  | Error msg ->
      Alcotest.(check bool) "mentions program mismatch" true
        (Testutil.contains msg "different program")
  | Ok _ -> Alcotest.fail "expected mismatch error"

let test_rejects_garbage () =
  let prog = Vm.Compile.compile_source sample_src in
  List.iter
    (fun text ->
      match Pio.read prog text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %S" text)
    [
      "";
      "not a profile";
      "alchemist-profile 2\nfingerprint x\ntotal 1";
      Printf.sprintf
        "alchemist-profile 1\nfingerprint %s\ntotal 10\nconstruct 9999 1 1"
        (Pio.fingerprint prog);
      Printf.sprintf
        "alchemist-profile 1\nfingerprint %s\ntotal ten"
        (Pio.fingerprint prog);
    ]

let expect_error prog ~label ~needle text =
  match Pio.read prog text with
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentions %S" label msg needle)
        true
        (Testutil.contains msg needle)

(* Duplicate and malformed lines must be rejected with the 1-based line
   number of the offending input line, never silently overwritten. *)
let test_malformed_matrix () =
  let prog, p = profile_of sample_src in
  let text = Pio.to_string p in
  let lines = String.split_on_char '\n' text in
  let first_with prefix =
    List.find
      (fun l -> String.length l > 0 && String.starts_with ~prefix l)
      lines
  in
  (* duplicate a real line of each kind at the end of the file *)
  let with_extra extra = text ^ extra ^ "\n" in
  let expect_error = expect_error prog in
  let dup_line = List.length (String.split_on_char '\n' text) in
  let expect_dup ~label ~kind_prefix =
    let msg_line = Printf.sprintf "line %d" dup_line in
    expect_error ~label ~needle:"duplicate"
      (with_extra (first_with kind_prefix));
    expect_error ~label:(label ^ " line number") ~needle:msg_line
      (with_extra (first_with kind_prefix))
  in
  expect_dup ~label:"duplicate construct" ~kind_prefix:"construct ";
  expect_dup ~label:"duplicate edge" ~kind_prefix:"edge ";
  expect_dup ~label:"duplicate parent" ~kind_prefix:"parent ";
  (* truncation *)
  expect_error ~label:"empty" ~needle:"truncated" "";
  expect_error ~label:"header only" ~needle:"truncated" "alchemist-profile 1\n";
  (* bad kind tag: corrupt the first edge line *)
  let edge = first_with "edge " in
  let bad_edge =
    String.concat " "
      (List.mapi
         (fun i f -> if i = 4 then "RAR" else f)
         (String.split_on_char ' ' edge))
  in
  expect_error ~label:"bad kind tag" ~needle:"RAR"
    (String.concat "\n"
       (List.map (fun l -> if l = edge then bad_edge else l) lines));
  (* malformed lines still carry their line number *)
  expect_error ~label:"junk line" ~needle:"malformed"
    (with_extra "frobnicate 1 2 3");
  expect_error ~label:"junk line number"
    ~needle:(Printf.sprintf "line %d" dup_line)
    (with_extra "frobnicate 1 2 3");
  (* non-integer field *)
  expect_error ~label:"bad int" ~needle:"not an integer"
    (with_extra "construct 0 xyz 1");
  (* Fields outside the ranges the writer emits. A pc of 2^29 or more
     would alias another edge in Profile.Key.pack, so these must fail
     rather than come back rewritten. *)
  let ncode = Array.length prog.Vm.Program.code in
  List.iter
    (fun (label, needle, line) ->
      expect_error ~label ~needle (with_extra line);
      expect_error ~label:(label ^ " line number")
        ~needle:(Printf.sprintf "line %d:" dup_line)
        (with_extra line))
    [
      ( "edge tail pc 2^29",
        "pc 536870912 out of range",
        "edge 0 7 536870912 RAW 3 1 0" );
      ("edge negative pc", "pc -1 out of range", "edge 0 -1 5 RAW 3 1 0");
      ( "edge pc past the code",
        Printf.sprintf "pc %d out of range" ncode,
        Printf.sprintf "edge 0 %d 5 RAW 3 1 0" ncode );
      ("edge count 0", "edge count 0 out of range", "edge 0 7 5 RAW 3 0 0");
      ("internal flag 5", "internal flag 5 out of range", "edge 0 7 5 RAW 3 1 5");
      ("parent cid", "parent construct id 99999 out of range", "parent 0 99999 1");
      ("parent below root", "parent construct id -2 out of range", "parent 0 -2 1");
      ("construct without instances", "instance count 0 out of range", "construct 0 5 0");
    ]

let test_save_load_file () =
  let prog, p = profile_of sample_src in
  let path = Filename.temp_file "alchemist" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pio.save p path;
      match Pio.load prog path with
      | Ok p2 -> Alcotest.(check bool) "file roundtrip" true (profiles_equal p p2)
      | Error msg -> Alcotest.failf "load failed: %s" msg)

let test_loaded_profile_usable () =
  (* Reports, ranking, advice all work on a deserialized profile. *)
  let prog, p = profile_of sample_src in
  let p2 = Result.get_ok (Pio.read prog (Pio.to_string p)) in
  let r1 = Alchemist.Report.render p and r2 = Alchemist.Report.render p2 in
  Alcotest.(check string) "identical report" r1 r2;
  let e1 = Alchemist.Ranking.rank p and e2 = Alchemist.Ranking.rank p2 in
  Alcotest.(check int) "same ranking size" (List.length e1) (List.length e2);
  List.iter2
    (fun (a : Alchemist.Ranking.entry) (b : Alchemist.Ranking.entry) ->
      Alcotest.(check string) "same order" a.name b.name)
    e1 e2

let test_merge_after_load () =
  (* Two runs saved and reloaded merge like live profiles. *)
  let prog = Vm.Compile.compile_source sample_src in
  let r1 = Profiler.run ~fuel:1_000_000 prog in
  let r2 = Profiler.run ~fuel:1_000_000 prog in
  let p1 = Result.get_ok (Pio.read prog (Pio.to_string r1.Profiler.profile)) in
  let p2 = Result.get_ok (Pio.read prog (Pio.to_string r2.Profiler.profile)) in
  let m = Profile.merge p1 p2 in
  let live = Profile.merge r1.Profiler.profile r2.Profiler.profile in
  Alcotest.(check bool) "merge equal" true (profiles_equal m live)

(* The paper's caveat: "the completeness of the dependencies identified by
   Alchemist is a function of the test inputs used to run the profiler."
   Input lives in initialized global data, so two inputs share one program
   (identical code, different global_inits) and their profiles merge. *)
let input_src mode =
  Printf.sprintf
    {|int mode = %d;
      int acc;
      int out[32];
      int step(int i) {
        int s = 0;
        for (int k = 0; k < 30; k++) s += i + k;
        if (mode > 0) {
          acc += s;     // only exercised by inputs with mode set
        }
        out[i & 31] = s;
        return s;
      }
      int main() {
        for (int i = 0; i < 12; i++) step(i);
        return acc;
      }|}
    mode

let test_inputs_extend_profile () =
  let prog0 = Vm.Compile.compile_source (input_src 0) in
  let prog1 = Vm.Compile.compile_source (input_src 1) in
  (* same code, different data: profiles are mergeable *)
  Alcotest.(check bool) "same code" true
    (prog0.Vm.Program.code = prog1.Vm.Program.code);
  Alcotest.(check string) "same fingerprint" (Pio.fingerprint prog0)
    (Pio.fingerprint prog1);
  let p0 = (Profiler.run ~fuel:1_000_000 prog0).Profiler.profile in
  let p1 = (Profiler.run ~fuel:1_000_000 prog1).Profiler.profile in
  let edges p =
    Array.fold_left
      (fun acc (cp : Profile.construct_profile) -> acc + Profile.num_edges cp)
      0 p.Profile.by_cid
  in
  Alcotest.(check bool)
    (Printf.sprintf "mode=1 exercises more deps (%d vs %d)" (edges p1) (edges p0))
    true
    (edges p1 > edges p0);
  let merged = Profile.merge p0 p1 in
  Alcotest.(check int) "merged keeps the union" (edges p1) (edges merged);
  Alcotest.(check bool) "merged counts both runs" true
    (merged.Profile.total_instructions
    = p0.Profile.total_instructions + p1.Profile.total_instructions)


(* --- the static block ------------------------------------------------- *)

let lines_with prefix text =
  List.filter (String.starts_with ~prefix) (String.split_on_char '\n' text)

let static_of (p : Profile.t) =
  match p.Profile.static with
  | Some s -> s
  | None -> Alcotest.fail "expected a static block"

(* Round trip one static section: the default profile of [src] has
   lines of [prefix], and reading the file back gives the same bytes
   and the same list. *)
let section_roundtrip src ~prefix column =
  let prog, p = profile_of src in
  let text = Pio.to_string p in
  Alcotest.(check bool) "version-5 header" true
    (String.starts_with ~prefix:"alchemist-profile 5\n" text);
  Alcotest.(check bool) ("has " ^ prefix ^ "lines") true
    (lines_with prefix text <> []);
  match Pio.read prog text with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok p2 ->
      Alcotest.(check string) "byte-identical reserialization" text
        (Pio.to_string p2);
      Alcotest.(check bool) "section preserved" true
        (column (static_of p) = column (static_of p2))

let test_v2_roundtrip () =
  section_roundtrip sample_src ~prefix:"verdict " (fun s -> s.Profile.verdicts)

let test_verdict_malformed_matrix () =
  let prog, p = profile_of sample_src in
  let text = Pio.to_string p in
  let expect_error = expect_error prog in
  let with_extra extra = text ^ extra ^ "\n" in
  let extra_line = List.length (String.split_on_char '\n' text) in
  (* unknown verdict tag *)
  expect_error ~label:"bad verdict tag" ~needle:"unknown static verdict"
    (with_extra "verdict 3 5 RAW bogus");
  (* unknown kind tag *)
  expect_error ~label:"bad kind in verdict" ~needle:"RAR"
    (with_extra "verdict 3 5 RAR must-indep");
  (* pcs outside the code, including one that would alias in a packed
     key *)
  expect_error ~label:"negative pc" ~needle:"pc -1 out of range"
    (with_extra "verdict -1 5 RAW must-indep");
  expect_error ~label:"pc 2^29+10" ~needle:"pc 536870922 out of range"
    (with_extra "verdict 3 536870922 RAW must-dep");
  (* wrong arity falls through to the malformed-line case *)
  expect_error ~label:"verdict arity" ~needle:"malformed"
    (with_extra "verdict 3 5 RAW");
  (* duplicate verdict carries the offending line number *)
  let first_verdict = List.hd (lines_with "verdict " text) in
  expect_error ~label:"duplicate verdict" ~needle:"duplicate verdict"
    (with_extra first_verdict);
  expect_error ~label:"duplicate verdict line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra first_verdict)

(* A single-entry loop with a strong-SIV pair three iterations apart:
   the write A[i+3] is read back by A[i] three iterations later, so the
   profile records the RAW edge and the static layer proves (and the
   file persists) its distance bound. *)
let dist_src =
  {|int A[64];
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 20; i = i + 1) {
    A[i + 3] = A[i] + 1;
    s = s + A[i + 3];
  }
  return s;
}|}

let test_v3_roundtrip () =
  section_roundtrip dist_src ~prefix:"distbound " (fun s -> s.Profile.distbounds)

let test_distbound_malformed_matrix () =
  let prog, p = profile_of dist_src in
  let text = Pio.to_string p in
  let expect_error = expect_error prog in
  let with_extra extra = text ^ extra ^ "\n" in
  let extra_line = List.length (String.split_on_char '\n' text) in
  let first_distbound = List.hd (lines_with "distbound " text) in
  (* a bound below 1 proves nothing and must not parse *)
  expect_error ~label:"zero bound" ~needle:"must be >= 1"
    (with_extra "distbound 3 5 RAW 0");
  expect_error ~label:"negative bound" ~needle:"must be >= 1"
    (with_extra "distbound 3 5 RAW -2");
  expect_error ~label:"garbled bound" ~needle:"not an integer"
    (with_extra "distbound 3 5 RAW x");
  expect_error ~label:"bad kind" ~needle:"RAR"
    (with_extra "distbound 3 5 RAR 2");
  expect_error ~label:"negative pc" ~needle:"pc -1 out of range"
    (with_extra "distbound -1 5 RAW 2");
  (* 536870922 = 2^29 + 10 packs to the key of pc 10: without the range
     check this line would be stored as a bound on a recorded edge *)
  expect_error ~label:"aliasing pc" ~needle:"pc 536870922 out of range"
    (with_extra "distbound 17 536870922 RAW 3");
  expect_error ~label:"arity" ~needle:"malformed"
    (with_extra "distbound 3 5 RAW");
  (* duplicates are rejected with the offending 1-based line number *)
  expect_error ~label:"duplicate distbound" ~needle:"duplicate distbound"
    (with_extra first_distbound);
  expect_error ~label:"duplicate distbound line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra first_distbound)

(* Seeded corruption: shrink a recorded edge's observed min Tdep below
   its stored (and recomputed) static lower bound. The file still
   parses — the contradiction is semantic — and the sanitizer must trip
   on exactly that edge. This proves the checker can actually fire, not
   just that clean profiles pass. *)
let test_seeded_corruption_trips_checker () =
  let prog, p = profile_of dist_src in
  let text = Pio.to_string p in
  let db_head, db_tail =
    Scanf.sscanf
      (List.hd (lines_with "distbound " text))
      "distbound %d %d" (fun h t -> (h, t))
  in
  let corrupted =
    String.split_on_char '\n' text
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | "edge" :: cid :: head :: tail :: kind :: _min_tdep :: rest
             when int_of_string head = db_head && int_of_string tail = db_tail
             ->
               String.concat " "
                 ("edge" :: cid :: head :: tail :: kind :: "1" :: rest)
           | _ -> line)
    |> String.concat "\n"
  in
  Alcotest.(check bool) "corruption changed the text" true (corrupted <> text);
  match Pio.read prog corrupted with
  | Error msg -> Alcotest.failf "corrupted file no longer parses: %s" msg
  | Ok bad ->
      let dep = Static.Depend.analyze prog in
      let issues = Alchemist.Sanitize.check ~dep bad in
      Alcotest.(check bool) "sanitizer fires" true (issues <> []);
      Alcotest.(check bool) "mentions the distance bound" true
        (List.exists
           (fun (i : Alchemist.Sanitize.issue) ->
             Testutil.contains i.reason "static lower bound")
           issues);
      (* the pristine profile stays clean *)
      Alcotest.(check int) "clean profile has no issues" 0
        (List.length (Alchemist.Sanitize.check ~dep p))

(* dist_src's SIV loop (a distance bound) plus a global reduction loop
   (legality verdicts): the one profile carries both sections. *)
let legality_src =
  {|int A[64];
int t;
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 20; i = i + 1) {
    A[i + 3] = A[i] + 1;
    s = s + A[i + 3];
  }
  for (i = 0; i < 10; i = i + 1) {
    t = t + i;
  }
  return s + t;
}|}

let test_v4_roundtrip () =
  section_roundtrip sample_src ~prefix:"legality " (fun s -> s.Profile.legality)

let test_legality_malformed_matrix () =
  let prog, p = profile_of sample_src in
  let text = Pio.to_string p in
  let expect_error = expect_error prog in
  let with_extra extra = text ^ extra ^ "\n" in
  let extra_line = List.length (String.split_on_char '\n' text) in
  let first_legality = List.hd (lines_with "legality " text) in
  (* unknown verdict tag *)
  expect_error ~label:"bad legality tag" ~needle:"unknown legality verdict"
    (with_extra "legality 3 5 WAW bogus");
  (* unknown kind tag *)
  expect_error ~label:"bad kind in legality" ~needle:"RAR"
    (with_extra "legality 3 5 RAR priv");
  (* pcs outside the code *)
  expect_error ~label:"negative pc" ~needle:"pc -1 out of range"
    (with_extra "legality -1 5 WAW priv");
  expect_error ~label:"aliasing pc" ~needle:"pc 536870922 out of range"
    (with_extra "legality 17 536870922 RAW serial");
  (* wrong arity falls through to the malformed-line case *)
  expect_error ~label:"legality arity" ~needle:"malformed"
    (with_extra "legality 3 5 WAW");
  (* duplicates are rejected with the offending 1-based line number *)
  expect_error ~label:"duplicate legality" ~needle:"duplicate legality"
    (with_extra first_legality);
  expect_error ~label:"duplicate legality line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra first_legality)

(* A well-formed distbound/legality line naming an edge the profile does
   not record is corruption every downstream lookup would silently
   ignore — the reader must reject it with the offending line number. *)
let test_unrecorded_edge_rejection () =
  let prog, p = profile_of legality_src in
  let text = Pio.to_string p in
  let expect_error = expect_error prog in
  let with_extra extra = text ^ extra ^ "\n" in
  let extra_line = List.length (String.split_on_char '\n' text) in
  (* no edge is recorded between pcs 0 and 1 *)
  expect_error ~label:"unrecorded legality edge"
    ~needle:"legality references unrecorded edge 0 1 WAW"
    (with_extra "legality 0 1 WAW priv");
  expect_error ~label:"unrecorded legality line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra "legality 0 1 WAW priv");
  expect_error ~label:"unrecorded distbound edge"
    ~needle:"distbound references unrecorded edge 0 1 RAW"
    (with_extra "distbound 0 1 RAW 3");
  expect_error ~label:"unrecorded distbound line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra "distbound 0 1 RAW 3");
  (* a stored verdict on an unrecorded edge still parses: the sanitizer
     owns that diagnostic *)
  match Pio.read prog (with_extra "verdict 0 1 RAW may-dep") with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verdict on unrecorded edge rejected: %s" msg

let test_v5_roundtrip () =
  section_roundtrip sample_src ~prefix:"race " (fun s -> s.Profile.race)

(* One function is never called, so its construct is in range for the
   program but absent from the profile's construct records — the target
   for the unrecorded-construct rejection below. *)
let race_matrix_src =
  {|int g;
    void dead(int i) { g = i; }
    int main() {
      for (int i = 0; i < 10; i = i + 1) g = g + i;
      return g;
    }|}

let test_race_malformed_matrix () =
  let prog, p = profile_of race_matrix_src in
  let text = Pio.to_string p in
  let expect_error = expect_error prog in
  let with_extra extra = text ^ extra ^ "\n" in
  let extra_line = List.length (String.split_on_char '\n' text) in
  (* unknown status tag *)
  expect_error ~label:"bad race tag" ~needle:"unknown race status"
    (with_extra "race 0 bogus");
  (* out-of-range construct id *)
  expect_error ~label:"race cid range" ~needle:"out of range"
    (with_extra "race 9999 racy");
  (* wrong arity falls through to the malformed-line case *)
  expect_error ~label:"race arity" ~needle:"malformed" (with_extra "race 0");
  (* duplicates are rejected with the offending 1-based line number *)
  let first_race = List.hd (lines_with "race " text) in
  expect_error ~label:"duplicate race" ~needle:"duplicate race"
    (with_extra first_race);
  expect_error ~label:"duplicate race line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra first_race);
  (* a status for an in-range construct the profile never recorded *)
  let dead_cid =
    let found = ref (-1) in
    Array.iter
      (fun (cp : Profile.construct_profile) ->
        if cp.instances = 0 && !found < 0 then found := cp.cid)
      p.Profile.by_cid;
    Alcotest.(check bool) "source has an unexecuted construct" true (!found >= 0);
    !found
  in
  expect_error ~label:"unrecorded construct"
    ~needle:
      (Printf.sprintf "race references unrecorded construct %d" dead_cid)
    (with_extra (Printf.sprintf "race %d race-free" dead_cid));
  expect_error ~label:"unrecorded construct line number"
    ~needle:(Printf.sprintf "line %d" extra_line)
    (with_extra (Printf.sprintf "race %d race-free" dead_cid))

(* [read (to_string p)] equals [p], static block included, and the
   file starts with [header]. *)
let exact_roundtrip prog label (p : Profile.t) ~header =
  let text = Pio.to_string p in
  Alcotest.(check bool) (label ^ ": header") true
    (String.starts_with ~prefix:(header ^ "\n") text);
  match Pio.read prog text with
  | Error msg -> Alcotest.failf "%s: read failed: %s" label msg
  | Ok p2 ->
      Alcotest.(check bool) (label ^ ": records equal") true (profiles_equal p p2);
      Alcotest.(check bool) (label ^ ": static block equal") true
        (p.Profile.static = p2.Profile.static)

(* The block the profiler attaches round-trips exactly under header 5;
   a trace_locals run attaches none. *)
let test_static_block_roundtrip () =
  let prog, p = profile_of legality_src in
  let s = static_of p in
  Alcotest.(check bool) "every section nonempty" true
    (s.verdicts <> [] && s.distbounds <> [] && s.legality <> [] && s.race <> []);
  exact_roundtrip prog "attached block" p ~header:"alchemist-profile 5";
  let r = Profiler.run ~fuel:1_000_000 ~trace_locals:true prog in
  Alcotest.(check bool) "trace_locals has no block" true
    (r.Profiler.profile.Profile.static = None)

(* A profile without the static block writes header 1 and no static
   lines, and loads back without a block. *)
let test_v1_still_loads () =
  let prog, p = profile_of sample_src in
  p.Profile.static <- None;
  Alcotest.(check (list string)) "no verdict lines" []
    (lines_with "verdict " (Pio.to_string p));
  exact_roundtrip prog "no block" p ~header:"alchemist-profile 1"

(* An empty verdict list survives the round trip as an empty list, next
   to nonempty sections and with every section empty. *)
let test_v2_zero_verdicts () =
  let prog, p = profile_of legality_src in
  let s = static_of p in
  p.Profile.static <- Some { s with verdicts = [] };
  Alcotest.(check (list string)) "no verdict lines" []
    (lines_with "verdict " (Pio.to_string p));
  exact_roundtrip prog "zero verdicts" p ~header:"alchemist-profile 5";
  p.Profile.static <-
    Some { Profile.verdicts = []; distbounds = []; legality = []; race = [] };
  exact_roundtrip prog "all-empty block" p ~header:"alchemist-profile 5"

(* The reader takes headers 1 and 5 only: any other, 2-4 included,
   fails on line 1, and a static line in a header-1 file fails on its
   own line. *)
let test_one_format () =
  let prog, p = profile_of legality_src in
  let text5 = Pio.to_string p in
  let body = String.sub text5 20 (String.length text5 - 20) in
  Alcotest.(check string) "header is 20 bytes" "alchemist-profile 5\n"
    (String.sub text5 0 20);
  List.iter
    (fun v ->
      expect_error prog
        ~label:(Printf.sprintf "header %d" v)
        ~needle:"line 1: unsupported profile format/version"
        (Printf.sprintf "alchemist-profile %d\n%s" v body))
    [ 0; 2; 3; 4; 6 ];
  p.Profile.static <- None;
  let text1 = Pio.to_string p in
  let extra_line = List.length (String.split_on_char '\n' text1) in
  List.iter
    (fun prefix ->
      match lines_with (prefix ^ " ") text5 with
      | [] -> Alcotest.failf "no %s line to move" prefix
      | line :: _ ->
          expect_error prog ~label:(prefix ^ " in a header-1 file")
            ~needle:
              (Printf.sprintf "line %d: %s line in a version-1 profile"
                 extra_line prefix)
            (text1 ^ line ^ "\n"))
    [ "verdict"; "distbound"; "legality"; "race" ]

(* --- reader fuzzing ---------------------------------------------------- *)

(* Mutations of saved profiles. Positions are taken modulo the input's
   size when applied, so one generator serves every seed file. *)
type mutation =
  | Drop of int
  | Dup of int * int
  | Swap of int * int
  | Truncate of int
  | Byte of int * char
  | Field of int * int * int

let show_mutation = function
  | Drop i -> Printf.sprintf "drop line %d" i
  | Dup (i, j) -> Printf.sprintf "copy line %d to %d" i j
  | Swap (i, j) -> Printf.sprintf "swap lines %d and %d" i j
  | Truncate n -> Printf.sprintf "truncate at byte %d" n
  | Byte (n, c) -> Printf.sprintf "byte %d := %C" n c
  | Field (i, f, v) -> Printf.sprintf "line %d numeric field %d := %d" i f v

let apply_mutation text m =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let join l = String.concat "\n" l in
  let len = String.length text in
  match m with
  | Drop i -> join (List.filteri (fun k _ -> k <> i mod n) (Array.to_list lines))
  | Dup (i, j) ->
      let l = Array.to_list lines in
      join (List.filteri (fun k _ -> k < j mod n) l
           @ (lines.(i mod n) :: List.filteri (fun k _ -> k >= j mod n) l))
  | Swap (i, j) ->
      let a = lines.(i mod n) in
      lines.(i mod n) <- lines.(j mod n);
      lines.(j mod n) <- a;
      join (Array.to_list lines)
  | Truncate k -> String.sub text 0 (k mod (len + 1))
  | Byte (k, c) ->
      if len = 0 then text
      else String.mapi (fun i x -> if i = k mod len then c else x) text
  | Field (i, f, v) ->
      let fields = Array.of_list (String.split_on_char ' ' lines.(i mod n)) in
      let numeric =
        List.filter
          (fun k -> int_of_string_opt fields.(k) <> None)
          (List.init (Array.length fields) Fun.id)
      in
      (match numeric with
      | [] -> ()
      | l -> fields.(List.nth l (f mod List.length l)) <- string_of_int v);
      lines.(i mod n) <- String.concat " " (Array.to_list fields);
      join (Array.to_list lines)

let gen_mutation =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  let value =
    oneof
      [
        int_range (-3) 4000;
        map (fun k -> (1 lsl 29) + k) (int_range 0 40);
        map (fun k -> (1 lsl 32) + k) (int_range 0 40);
        map (fun k -> -(1 lsl 29) - k) (int_range 0 40);
        oneofl [ max_int; min_int ];
      ]
  in
  frequency
    [
      (2, map (fun i -> Drop i) pos);
      (2, map2 (fun i j -> Dup (i, j)) pos pos);
      (2, map2 (fun i j -> Swap (i, j)) pos pos);
      (1, map (fun k -> Truncate k) pos);
      (2, map2 (fun k c -> Byte (k, c)) pos
            (oneofl [ '0'; '1'; '9'; '-'; ' '; '\n'; 'x'; 'R'; '_'; '\t' ]));
      (5, map3 (fun i f v -> Field (i, f, v)) pos (int_bound 8) value);
    ]

(* What an accepted file states, read straight off its lines: the
   records the parsed profile must hold, compared through unpacked edge
   keys so that two lines aliasing one packed key cannot pass. *)
let stated_records text =
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let int = int_of_string in
  let sort l = List.sort compare l in
  let cons = ref [] and edges = ref [] and parents = ref [] and static = ref [] in
  (match lines with
  | header :: _ :: total :: rest ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "construct"; c; tt; inst ] -> cons := (int c, int tt, int inst) :: !cons
          | "edge" :: c :: h :: t :: k :: m :: n :: i :: addrs ->
              edges :=
                ( (int c, int h, int t, k),
                  (int m, int n, int i, sort (List.map int addrs)) )
                :: !edges
          | [ "parent"; c; par; n ] -> parents := (int c, int par, int n) :: !parents
          | [ what; c; tag ] -> static := (what, [ int c ], tag) :: !static
          | [ what; h; t; k; v ] ->
              static := (what ^ " " ^ k, [ int h; int t ], v) :: !static
          | _ -> Alcotest.failf "accepted line %S" line)
        rest;
      ( header,
        int (List.nth (String.split_on_char ' ' total) 1),
        sort !cons,
        sort !edges,
        sort !parents,
        sort
          (List.map
             (fun (w, ks, v) ->
               let v =
                 match int_of_string_opt v with
                 | Some d -> string_of_int d
                 | None -> v
               in
               (w, ks, v))
             !static) )
  | _ -> Alcotest.fail "accepted a truncated file")

let held_records (p : Profile.t) =
  let sort l = List.sort compare l in
  let kind = function
    | Shadow.Dependence.Raw -> "RAW"
    | Shadow.Dependence.War -> "WAR"
    | Shadow.Dependence.Waw -> "WAW"
  in
  let cons = ref [] and edges = ref [] and parents = ref [] in
  Array.iter
    (fun (cp : Profile.construct_profile) ->
      if cp.instances <> 0 || cp.ttotal <> 0 then
        cons := (cp.cid, cp.ttotal, cp.instances) :: !cons;
      Profile.iter_edges cp (fun k s ->
          edges :=
            ( (cp.cid, k.head_pc, k.tail_pc, kind k.kind),
              ( s.min_tdep,
                s.count,
                (if s.tail_internal then 1 else 0),
                sort s.addrs ) )
            :: !edges);
      Hashtbl.iter (fun par n -> parents := (cp.cid, par, !n) :: !parents) cp.parents)
    p.Profile.by_cid;
  let static =
    match p.Profile.static with
    | None -> []
    | Some s ->
        let keyed what show l =
          List.map
            (fun (key, v) ->
              let k = Profile.Key.unpack key in
              (what ^ " " ^ kind k.kind, [ k.head_pc; k.tail_pc ], show v))
            l
        in
        keyed "verdict" Static.Depend.verdict_to_string s.verdicts
        @ keyed "distbound" string_of_int s.distbounds
        @ keyed "legality" Static.Legality.verdict_to_string s.legality
        @ List.map
            (fun (c, st) -> ("race", [ c ], Static.Race.Status.to_string st))
            s.race
  in
  ( (match p.Profile.static with
    | Some _ -> "alchemist-profile 5"
    | None -> "alchemist-profile 1"),
    p.Profile.total_instructions,
    sort !cons,
    sort !edges,
    sort !parents,
    sort static )

(* Saved profiles of three registry programs at test scale plus one
   trace_locals profile (header 1): the seeds every mutation starts
   from. *)
let fuzz_seeds =
  lazy
    (Array.of_list
       (List.map
          (fun (name, trace_locals) ->
            let w = Workloads.Registry.find name in
            let prog = Workloads.Workload.compile w ~scale:w.test_scale in
            let r = Profiler.run ~trace_locals prog in
            (prog, Pio.to_string r.Profiler.profile))
          [ ("par2", false); ("gzip-1.3.5", false); ("stencil", false); ("aes", true) ]))

(* Hostile input never raises, never fails without a line number inside
   the input, and never comes back as anything but what its lines say;
   whatever it accepts re-serializes to a fixpoint. *)
let test_reader_fuzz () =
  let seeds = Lazy.force fuzz_seeds in
  let gen =
    QCheck.Gen.(pair (int_bound (Array.length seeds - 1)) (list_size (int_range 1 3) gen_mutation))
  in
  let print (i, ms) =
    Printf.sprintf "seed %d: %s" i (String.concat "; " (List.map show_mutation ms))
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"profile reader on mutated files" ~count:400
       (QCheck.make gen ~print)
       (fun (i, ms) ->
         let prog, seed = seeds.(i) in
         let text = List.fold_left apply_mutation seed ms in
         let nlines = List.length (String.split_on_char '\n' text) in
         match Pio.read prog text with
         | exception e ->
             QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
         | Error "truncated profile" -> true
         | Error msg -> (
             match Scanf.sscanf_opt msg "line %d: %_s@\n" Fun.id with
             | Some ln when ln >= 1 && ln <= nlines -> true
             | _ -> QCheck.Test.fail_reportf "error without a line in range: %S" msg)
         | Ok p ->
             if stated_records text <> held_records p then
               QCheck.Test.fail_reportf "records differ from the accepted lines"
             else
               let out = Pio.to_string p in
               match Pio.read prog out with
               | Ok p2 -> String.equal out (Pio.to_string p2)
               | Error msg -> QCheck.Test.fail_reportf "rewrite rejected: %s" msg))

let suite =
  [
    ("roundtrip", `Quick, test_roundtrip);
    ("fingerprint stable", `Quick, test_fingerprint_stable);
    ("rejects wrong program", `Quick, test_rejects_wrong_program);
    ("rejects garbage", `Quick, test_rejects_garbage);
    ("malformed matrix", `Quick, test_malformed_matrix);
    ("save/load file", `Quick, test_save_load_file);
    ("loaded profile usable", `Quick, test_loaded_profile_usable);
    ("merge after load", `Quick, test_merge_after_load);
    ("inputs extend the profile", `Quick, test_inputs_extend_profile);
    ("v2 verdict roundtrip", `Quick, test_v2_roundtrip);
    ("verdict malformed matrix", `Quick, test_verdict_malformed_matrix);
    ("v3 distbound roundtrip", `Quick, test_v3_roundtrip);
    ("distbound malformed matrix", `Quick, test_distbound_malformed_matrix);
    ("seeded corruption trips checker", `Quick, test_seeded_corruption_trips_checker);
    ("v4 legality roundtrip", `Quick, test_v4_roundtrip);
    ("legality malformed matrix", `Quick, test_legality_malformed_matrix);
    ("unrecorded edge rejection", `Quick, test_unrecorded_edge_rejection);
    ("v5 race roundtrip", `Quick, test_v5_roundtrip);
    ("race malformed matrix", `Quick, test_race_malformed_matrix);
    ("static block exact roundtrip", `Quick, test_static_block_roundtrip);
    ("v1 files still load", `Quick, test_v1_still_loads);
    ("v2 with zero verdicts", `Quick, test_v2_zero_verdicts);
    ("one format: headers and static lines", `Quick, test_one_format);
    ("reader fuzz (qcheck)", `Quick, test_reader_fuzz);
  ]
