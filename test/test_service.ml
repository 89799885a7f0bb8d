(* The registry service: cache-key canonicality (any
   profile-determining option change misses), cold/warm/direct
   byte-identity, the on-disk store and its corrupted entries, reply
   ordering, and the static-facts reuse and validation paths. *)

module Service = Driver.Service
module Cache = Driver.Cache
module Profiler = Alchemist.Profiler
module Pio = Alchemist.Profile_io

let check = Alcotest.check
let fuel = 50_000_000

let family_src mode =
  Printf.sprintf
    {|int mode = %d;
      int acc;
      int out[32];
      int main() {
        for (int i = 0; i < 200 + mode; i++) {
          int s = 0;
          for (int k = 0; k < 10; k++) s += i + k;
          if (mode > 1) acc += s;
          out[i & 31] = s + out[(i + mode) & 31];
        }
        return acc;
      }|}
    mode

let family_prog mode = Vm.Compile.compile_source (family_src mode)

let with_service ?cache ?(workers = 2) f =
  let svc = Service.create ~workers ?cache () in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let reply_bytes (r : Service.reply) =
  match r.Service.result with
  | Ok (_, _, bytes) -> bytes
  | Error msg -> Alcotest.fail ("unexpected service error: " ^ msg)

let reply_outcome (r : Service.reply) =
  match r.Service.result with
  | Ok (o, _, _) -> o
  | Error msg -> Alcotest.fail ("unexpected service error: " ^ msg)

(* --- cache keys ----------------------------------------------------------- *)

(* Key canonicality as a qcheck property: two option tuples produce the
   same key exactly when they are equal — the key is a function of
   (code, input, fuel, trace_locals, pool_capacity, scan_limit) and of
   nothing else. *)
let arbitrary_opts =
  QCheck.make
    ~print:(fun (f, t, p, s) ->
      Printf.sprintf "fuel=%s trace=%b pool=%s scan=%s"
        (match f with Some n -> string_of_int n | None -> "-")
        t
        (match p with Some n -> string_of_int n | None -> "-")
        (match s with Some n -> string_of_int n | None -> "-"))
    QCheck.Gen.(
      quad
        (opt (int_range 1 5))
        bool
        (opt (int_range 1 5))
        (opt (int_range 1 5)))

let key_of (fuel, trace_locals, pool_capacity, scan_limit) =
  Cache.key ~code_fp:"c0de" ~input_fp:"1npu7" ?fuel ~trace_locals
    ?pool_capacity ?scan_limit ()

let test_key_canonical_qcheck () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"key equality iff option equality" ~count:500
       (QCheck.pair arbitrary_opts arbitrary_opts)
       (fun (a, b) -> String.equal (key_of a) (key_of b) = (a = b)))

let test_key_ignores_fingerprint_swap () =
  (* code and input fingerprints must both feed the key, in distinct
     positions *)
  let k c i = Cache.key ~code_fp:c ~input_fp:i () in
  check Alcotest.bool "code changes key" false (k "a" "x" = k "b" "x");
  check Alcotest.bool "input changes key" false (k "a" "x" = k "a" "y");
  check Alcotest.bool "swap is not symmetric" false (k "a" "x" = k "x" "a")

let test_option_changes_miss () =
  let prog = family_prog 0 in
  with_service (fun svc ->
      Service.submit svc ~fuel ~spec:"a" prog;
      Service.submit svc ~fuel:(fuel + 1) ~spec:"b" prog;
      Service.submit svc ~fuel ~pool_capacity:4096 ~spec:"c" prog;
      Service.submit svc ~fuel ~scan_limit:7 ~spec:"d" prog;
      Service.submit svc ~fuel ~trace_locals:true ~spec:"e" prog;
      (* a different input of the same code also misses *)
      Service.submit svc ~fuel ~spec:"f" (family_prog 2);
      let replies = Service.drain svc in
      List.iter
        (fun r ->
          check Alcotest.bool
            (r.Service.spec ^ " computes")
            true
            (reply_outcome r = Service.Computed))
        replies)

(* --- byte identity -------------------------------------------------------- *)

let direct_bytes prog =
  Pio.to_string (Profiler.run ~fuel prog).Profiler.profile

let test_cold_warm_direct_identity () =
  let progs = List.map family_prog [ 0; 1; 2; 3 ] in
  let cache = Cache.create () in
  let pass () =
    with_service ~cache (fun svc ->
        List.iteri
          (fun i prog ->
            Service.submit svc ~fuel ~spec:(string_of_int i) prog)
          progs;
        Service.drain svc)
  in
  let cold = pass () in
  let warm = pass () in
  (* a repeated request is answered from memory, byte for byte *)
  List.iter
    (fun r ->
      check Alcotest.bool (r.Service.spec ^ " computes cold") true
        (reply_outcome r = Service.Computed))
    cold;
  List.iter
    (fun r ->
      check Alcotest.bool (r.Service.spec ^ " hits warm") true
        (reply_outcome r = Service.Hit))
    warm;
  check Alcotest.(list string) "warm bytes = cold bytes"
    (List.map reply_bytes cold) (List.map reply_bytes warm);
  check Alcotest.(list string) "cold bytes = direct profiler bytes"
    (List.map direct_bytes progs)
    (List.map reply_bytes cold)

let test_facts_reuse_and_validation () =
  (* same code, different inputs: one analysis, shared facts — and the
     profile with facts is byte-identical to the one without *)
  let cache = Cache.create () in
  with_service ~cache (fun svc ->
      List.iter
        (fun m ->
          Service.submit svc ~fuel ~spec:(string_of_int m) (family_prog m))
        [ 0; 1; 2; 3 ];
      ignore (Service.drain svc);
      let snap = Service.telemetry svc in
      let count n = Option.value ~default:(-1) (Obs.find_count snap n) in
      check Alcotest.int "one analysis" 1 (count "service.facts_computed");
      check Alcotest.int "three reuses" 3 (count "service.facts_reused"));
  let p0 = family_prog 0 in
  let facts = Profiler.prepare_facts p0 in
  check Alcotest.string "facts fingerprint is the code fingerprint"
    (Pio.fingerprint p0)
    (Profiler.facts_fingerprint facts);
  check Alcotest.string "facts do not change profile bytes"
    (Pio.to_string (Profiler.run ~fuel p0).Profiler.profile)
    (Pio.to_string (Profiler.run ~fuel ~facts p0).Profiler.profile);
  (* family variants share code, so the same facts are valid across the
     whole family — that is the reuse path; a program whose CODE differs
     must be rejected *)
  check Alcotest.string "facts valid across the input family"
    (Pio.to_string (Profiler.run ~fuel (family_prog 1)).Profiler.profile)
    (Pio.to_string (Profiler.run ~fuel ~facts (family_prog 1)).Profiler.profile);
  let other =
    Vm.Compile.compile_source
      {|int g;
        int main() {
          for (int i = 0; i < 10; i++) g += i;
          return g;
        }|}
  in
  Alcotest.check_raises "facts for a different program rejected"
    (Invalid_argument "Profiler: facts were prepared for a different program")
    (fun () -> ignore (Profiler.run ~fuel ~facts other))

(* --- disk store ----------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "alchemist_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_disk_store_survives_restart () =
  with_tmpdir (fun dir ->
      let prog = family_prog 0 in
      let bytes_cold =
        with_service ~cache:(Cache.create ~dir ()) (fun svc ->
            Service.submit svc ~fuel ~spec:"cold" prog;
            match Service.drain svc with
            | [ r ] ->
                check Alcotest.bool "cold computes" true
                  (reply_outcome r = Service.Computed);
                reply_bytes r
            | _ -> Alcotest.fail "one reply expected")
      in
      (* a fresh cache + service over the same directory: disk hit *)
      with_service ~cache:(Cache.create ~dir ()) (fun svc ->
          Service.submit svc ~fuel ~spec:"restart" prog;
          match Service.drain svc with
          | [ r ] ->
              check Alcotest.bool "restart disk-hits" true
                (reply_outcome r = Service.Disk_hit);
              check Alcotest.string "disk bytes identical" bytes_cold
                (reply_bytes r)
          | _ -> Alcotest.fail "one reply expected"))

(* A disk entry is untrusted input. Garbage, a truncated copy, a copy
   under a header the reader refuses and a copy stripped of its static
   block are each recomputed: a miss (never a disk hit), byte-equal to
   a direct run, with the recomputed bytes replacing the file and none
   of the bad bytes left in memory. *)
let test_corrupt_disk_entry_recomputed () =
  with_tmpdir (fun dir ->
      let prog = family_prog 0 in
      let direct = direct_bytes prog in
      let key =
        with_service ~cache:(Cache.create ~dir ()) (fun svc ->
            Service.submit svc ~fuel ~spec:"cold" prog;
            match Service.drain svc with
            | [ { Service.result = Ok (_, key, _); _ } ] -> key
            | _ -> Alcotest.fail "one ok reply expected")
      in
      let path = Filename.concat dir (key ^ ".prof") in
      let write bytes =
        let oc = open_out_bin path in
        output_string oc bytes;
        close_out oc
      in
      let read () =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let header_5 = "alchemist-profile 5\n" in
      check Alcotest.bool "default profile has header 5" true
        (String.starts_with ~prefix:header_5 direct);
      let rest = String.sub direct 20 (String.length direct - 20) in
      let no_static =
        String.split_on_char '\n' rest
        |> List.filter (fun l ->
               not
                 (List.exists
                    (fun prefix -> String.starts_with ~prefix l)
                    [ "verdict "; "distbound "; "legality "; "race " ]))
        |> String.concat "\n"
      in
      List.iter
        (fun (what, bad) ->
          write bad;
          let cache = Cache.create ~dir () in
          with_service ~cache (fun svc ->
              Service.submit svc ~fuel ~spec:what prog;
              let first = Service.drain svc in
              Service.submit svc ~fuel ~spec:what prog;
              match first @ Service.drain svc with
              | [ r; again ] ->
                  check Alcotest.bool (what ^ ": recomputed") true
                    (reply_outcome r = Service.Computed);
                  check Alcotest.string (what ^ ": direct bytes") direct
                    (reply_bytes r);
                  check Alcotest.string (what ^ ": file rewritten") direct
                    (read ());
                  check Alcotest.bool (what ^ ": then a memory hit") true
                    (reply_outcome again = Service.Hit);
                  check Alcotest.string (what ^ ": memory holds good bytes")
                    direct (reply_bytes again);
                  check Alcotest.(option int) (what ^ ": one reject") (Some 1)
                    (Obs.find_count (Cache.telemetry cache)
                       "cache.disk_rejects")
              | _ -> Alcotest.fail "two replies expected"))
        [
          ("garbage", "garbage, not a profile");
          ("truncated", String.sub direct 0 (String.length direct / 2));
          ("header 3", "alchemist-profile 3\n" ^ rest);
          ("header 1", "alchemist-profile 1\n" ^ no_static);
        ])

(* --- request lines and ordering ------------------------------------------- *)

let test_feed_ordering_and_errors () =
  with_service (fun svc ->
      check Alcotest.bool "comment skipped" true
        (Service.feed svc "# comment" = `Skip);
      check Alcotest.bool "blank skipped" true (Service.feed svc "  " = `Skip);
      check Alcotest.bool "drain recognized" true
        (Service.feed svc "drain" = `Drain);
      ignore (Service.feed svc "workload:stencil:64");
      ignore (Service.feed svc "workload:no-such-workload");
      ignore (Service.feed svc "workload:stencil:64 bogus_opt=1");
      (* the engine, prune and ring keys are gone: bad requests *)
      ignore (Service.feed svc "workload:stencil:64 engine=quantum");
      ignore (Service.feed svc "workload:stencil:64 engine=threaded");
      ignore (Service.feed svc "workload:stencil:64 ring=false");
      ignore (Service.feed svc "workload:stencil:64 prune=false");
      (* a save= path under a regular file cannot be written *)
      let not_a_dir = Filename.temp_file "alchemist-service" ".file" in
      let bad_save = Filename.concat not_a_dir "x.prof" in
      ignore (Service.feed svc ("workload:stencil:32 save=" ^ bad_save));
      ignore (Service.feed svc "workload:stencil:16");
      let replies = Service.drain svc in
      Sys.remove not_a_dir;
      check Alcotest.(list int) "submission order preserved"
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
        (List.map (fun (r : Service.reply) -> r.Service.seq) replies);
      let ok (r : Service.reply) = Result.is_ok r.Service.result in
      check Alcotest.(list bool) "errors exactly where submitted"
        [ true; false; false; false; false; false; false; false; true ]
        (List.map ok replies);
      let error_of i =
        match (List.nth replies i).Service.result with
        | Error m -> m
        | Ok _ -> Alcotest.fail "expected an error reply"
      in
      check Alcotest.string "engine is an unknown option"
        "unknown option \"engine\"" (error_of 3);
      check Alcotest.string "engine=threaded too" "unknown option \"engine\""
        (error_of 4);
      check Alcotest.string "ring is an unknown option"
        "unknown option \"ring\"" (error_of 5);
      check Alcotest.string "prune is an unknown option"
        "unknown option \"prune\"" (error_of 6);
      check Alcotest.bool "an unwritable save names its path" true
        (String.starts_with ~prefix:(bad_save ^ ": ") (error_of 7));
      (* a repeat in a later batch hits the cache (inserts happen at
         harvest, so the repeat must come after a drain) and agrees; the
         profile whose save failed was cached too *)
      ignore (Service.feed svc "workload:stencil:64");
      ignore (Service.feed svc "workload:stencil:32");
      match Service.drain svc with
      | [ b; c ] ->
          check Alcotest.int "repeat seq" 10 b.Service.seq;
          check Alcotest.string "bytes agree"
            (reply_bytes (List.nth replies 0))
            (reply_bytes b);
          check Alcotest.bool "second hits" true
            (reply_outcome b = Service.Hit);
          check Alcotest.bool "unsaved profile hits" true
            (reply_outcome c = Service.Hit)
      | _ -> Alcotest.fail "expected exactly two replies in second batch")

(* A scale that is not a positive integer is a bad request, parsed by
   the same Workloads.Registry.of_spec the CLI uses: never a profile of
   a negative-size input, never an uncaught exception. *)
let test_bad_scale_refused () =
  with_service (fun svc ->
      let scales = [ "abc"; "-4"; "0"; "" ] in
      List.iter
        (fun scale -> ignore (Service.feed svc ("workload:par2:" ^ scale)))
        scales;
      let replies = Service.drain svc in
      check Alcotest.int "one reply each" (List.length scales)
        (List.length replies);
      List.iter2
        (fun scale (r : Service.reply) ->
          match r.Service.result with
          | Ok _ -> Alcotest.failf "%s was profiled" r.Service.spec
          | Error m ->
              check Alcotest.string (r.Service.spec ^ " refused")
                (Printf.sprintf
                   "bad scale %S in workload:par2:%s: expected a positive \
                    integer"
                   scale scale)
                m)
        scales replies)

let test_ready_streams_prefix () =
  with_service (fun svc ->
      (* an unknown workload resolves instantly: ready must surface it
         without waiting for anything else *)
      ignore (Service.feed svc "workload:no-such-workload");
      (match Service.ready svc with
      | [ r ] -> check Alcotest.bool "error streamed" true (Result.is_error r.Service.result)
      | _ -> Alcotest.fail "expected the resolved head streamed");
      check Alcotest.(list int) "nothing left" []
        (List.map
           (fun (r : Service.reply) -> r.Service.seq)
           (Service.drain svc)))

(* --- LRU eviction --------------------------------------------------------- *)

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  let find k =
    Option.map fst (Cache.find_located c ~valid:(fun _ -> true) k)
  in
  Cache.add c "k1" "a";
  Cache.add c "k2" "b";
  ignore (find "k1");
  (* k2 is now least recently used *)
  Cache.add c "k3" "c";
  check Alcotest.int "capacity respected" 2 (Cache.length c);
  check Alcotest.(option string) "recently-used survives" (Some "a")
    (find "k1");
  check Alcotest.(option string) "LRU evicted" None (find "k2");
  let snap = Cache.telemetry c in
  check Alcotest.(option int) "one eviction" (Some 1)
    (Obs.find_count snap "cache.evictions")

let suite =
  [
    ("cache key canonical (qcheck)", `Quick, test_key_canonical_qcheck);
    ("cache key fingerprints", `Quick, test_key_ignores_fingerprint_swap);
    ("option changes miss", `Quick, test_option_changes_miss);
    ("cold/warm/direct identity", `Quick, test_cold_warm_direct_identity);
    ("facts reuse and validation", `Quick, test_facts_reuse_and_validation);
    ("disk store survives restart", `Quick, test_disk_store_survives_restart);
    ("corrupt disk entry recomputed", `Quick, test_corrupt_disk_entry_recomputed);
    ("feed ordering and errors", `Quick, test_feed_ordering_and_errors);
    ("bad workload scales refused", `Quick, test_bad_scale_refused);
    ("ready streams prefix", `Quick, test_ready_streams_prefix);
    ("LRU eviction", `Quick, test_lru_eviction);
  ]
