(* FNV-1a, truncated to 62 bits: stable across processes (unlike
   Hashtbl.hash on nested variants, which is fine in-process but not
   something we want to pin a file format — or a content-addressed
   cache — to). *)
let fnv_init = 0x3bf29ce484222325 (* FNV offset basis, truncated *)
let fnv_mix h byte = (h lxor byte) * 0x100000001b3 land max_int

let hash_string s =
  let h = ref fnv_init in
  String.iter (fun c -> h := fnv_mix !h (Char.code c)) s;
  Printf.sprintf "%016x" !h

let fingerprint (prog : Vm.Program.t) =
  let h = ref fnv_init in
  let mix byte = h := fnv_mix !h byte in
  Array.iter
    (fun instr ->
      String.iter (fun c -> mix (Char.code c)) (Vm.Instr.to_string instr);
      mix 10)
    prog.code;
  Printf.sprintf "%016x" !h

let input_fingerprint (prog : Vm.Program.t) =
  (* The input identity of a run: the initialized global data (and the
     size of the global segment it lives in). Two programs of the same
     family share code — hence [fingerprint] — and differ exactly here,
     so (fingerprint, input_fingerprint) content-addresses a profiling
     run's program+input pair (the registry service's cache key).
     [global_inits] is emitted in declaration order by the compiler, so
     the hash is canonical without sorting. *)
  let h = ref fnv_init in
  let mix_int n =
    for shift = 0 to 7 do
      h := fnv_mix !h ((n lsr (shift * 8)) land 0xff)
    done
  in
  mix_int prog.globals_size;
  List.iter
    (fun (addr, v) ->
      mix_int addr;
      mix_int v)
    prog.global_inits;
  Printf.sprintf "%016x" !h

let kind_tag = function
  | Shadow.Dependence.Raw -> "RAW"
  | Shadow.Dependence.War -> "WAR"
  | Shadow.Dependence.Waw -> "WAW"

let kind_of_tag = function
  | "RAW" -> Ok Shadow.Dependence.Raw
  | "WAR" -> Ok Shadow.Dependence.War
  | "WAW" -> Ok Shadow.Dependence.Waw
  | s -> Error (Printf.sprintf "unknown dependence kind %S" s)

(* The output is canonical: constructs in cid order, edges sorted by
   packed key, parents sorted by cid, addresses sorted ascending. Equal
   profiles therefore serialize to identical bytes regardless of hash
   table insertion order — the property the sharded (-j N) driver's
   byte-identity test rests on. The header is version 5 exactly when
   the static block is present (all four sections, each possibly
   empty), and version 1 when it is absent. *)
let write (t : Profile.t) buf =
  let line fmt = Printf.bprintf buf fmt in
  line "alchemist-profile %d\n"
    (match t.Profile.static with Some _ -> 5 | None -> 1);
  line "fingerprint %s\n" (fingerprint t.prog);
  line "total %d\n" t.total_instructions;
  let keyed what value (key, v) =
    let k = Profile.Key.unpack key in
    line "%s %d %d %s %s\n" what k.Profile.head_pc k.Profile.tail_pc
      (kind_tag k.Profile.kind) (value v)
  in
  Option.iter
    (fun (s : Profile.static) ->
      List.iter (keyed "verdict" Static.Depend.verdict_to_string) s.verdicts;
      List.iter (keyed "distbound" string_of_int) s.distbounds;
      List.iter (keyed "legality" Static.Legality.verdict_to_string) s.legality;
      List.iter
        (fun (cid, st) -> line "race %d %s\n" cid (Static.Race.Status.to_string st))
        s.race)
    t.Profile.static;
  Array.iter
    (fun (cp : Profile.construct_profile) ->
      if cp.instances > 0 then
        line "construct %d %d %d\n" cp.cid cp.ttotal cp.instances;
      Profile.fold_edges cp (fun k s acc -> (k, s) :: acc) []
      |> List.sort (fun ((a : Profile.edge_key), _) (b, _) -> compare a b)
      |> List.iter (fun ((k : Profile.edge_key), (s : Profile.edge_stats)) ->
             line "edge %d %d %d %s %d %d %d%s\n" cp.cid k.head_pc k.tail_pc
               (kind_tag k.kind) s.min_tdep s.count
               (if s.tail_internal then 1 else 0)
               (String.concat ""
                  (List.map (Printf.sprintf " %d") (List.sort compare s.addrs))));
      Hashtbl.fold (fun parent n acc -> (parent, !n) :: acc) cp.parents []
      |> List.sort compare
      |> List.iter (fun (parent, n) -> line "parent %d %d %d\n" cp.cid parent n))
    t.by_cid

let to_string t =
  let buf = Buffer.create 4096 in
  write t buf;
  Buffer.contents buf

let read (prog : Vm.Program.t) text =
  let ( let* ) = Result.bind in
  (* Number lines before dropping blanks so errors point at the actual
     line of the input, not its rank among the non-blank ones. *)
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  let err ln fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" ln m)) fmt in
  let int_of ln s =
    match int_of_string_opt s with
    | Some n -> Ok n
    | None -> err ln "not an integer: %S" s
  in
  (* Every bounded field goes through here. A pc outside the code would
     alias another edge in [Profile.Key.pack], and counts, flags and
     construct ids outside what the writer emits would be silently
     rewritten, so each is refused with its line number instead. *)
  let ranged ln what ?(hi = max_int) ~lo s =
    let* n = int_of ln s in
    if n >= lo && n <= hi then Ok n
    else if hi = max_int then err ln "%s %d out of range (must be >= %d)" what n lo
    else err ln "%s %d out of range [%d, %d]" what n lo hi
  in
  let kind_of ln s =
    Result.map_error (Printf.sprintf "line %d: %s" ln) (kind_of_tag s)
  in
  let tag_of ln what of_string s =
    match of_string s with Some v -> Ok v | None -> err ln "unknown %s %S" what s
  in
  match lines with
  | (hln, header) :: (fln, fp) :: (tln, total) :: rest ->
      let* static =
        match header with
        | "alchemist-profile 1" -> Ok false
        | "alchemist-profile 5" -> Ok true
        | _ -> err hln "unsupported profile format/version"
      in
      let* () =
        match String.split_on_char ' ' fp with
        | [ "fingerprint"; h ] when h = fingerprint prog -> Ok ()
        | [ "fingerprint"; _ ] ->
            err fln "profile was recorded for a different program"
        | _ -> err fln "missing fingerprint line"
      in
      let* total_instructions =
        match String.split_on_char ' ' total with
        | [ "total"; n ] -> int_of tln n
        | _ -> err tln "missing total line"
      in
      let t = Profile.create prog in
      t.Profile.total_instructions <- total_instructions;
      let ncid = Array.length t.Profile.by_cid in
      let pc ln s = ranged ln "pc" ~lo:0 ~hi:(Array.length prog.code - 1) s in
      let cid ln s = ranged ln "construct id" ~lo:0 ~hi:(ncid - 1) s in
      (* Duplicate lines would silently overwrite (or, under merge
         semantics, double-count) earlier ones — a corrupt or
         hand-edited file, so reject it loudly. *)
      let seen_construct = Hashtbl.create 64 in
      (* Static entries keep their source line so the checks in [finish]
         can point at it, and are sorted there: canonical files are
         already sorted, but a merged or hand-built one is still
         accepted as long as keys are unique. *)
      let section () = (Hashtbl.create 64, ref []) in
      let verdicts = section () and distbounds = section () in
      let legality = section () and race = section () in
      let add (seen, entries) ln key v ~dup =
        if Hashtbl.mem seen key then dup ()
        else begin
          Hashtbl.add seen key ();
          entries := (ln, key, v) :: !entries;
          Ok ()
        end
      in
      (* verdict, distbound and legality lines: an edge and one value *)
      let add_keyed sec what ln head tail kind value =
        let* head_pc = pc ln head in
        let* tail_pc = pc ln tail in
        let* kind = kind_of ln kind in
        let* v = value in
        add sec ln (Profile.Key.pack ~head_pc ~tail_pc kind) v ~dup:(fun () ->
            err ln "duplicate %s %d %d %s" what head_pc tail_pc (kind_tag kind))
      in
      let finish () =
        (* Distbound and legality lines assert facts about specific
           recorded edges; a line naming an edge the profile does not
           record is corruption (or a stale hand edit) that every
           downstream lookup would silently ignore — reject it here.
           Verdict lines are exempt: the sanitizer has a reachable
           diagnostic for stored verdicts on unrecorded edges. *)
        let recorded = Hashtbl.create 256 in
        Array.iter
          (fun cp ->
            Profile.iter_edges cp (fun (k : Profile.edge_key) _ ->
                Hashtbl.replace recorded
                  (Profile.Key.pack ~head_pc:k.head_pc ~tail_pc:k.tail_pc k.kind)
                  ()))
          t.Profile.by_cid;
        let check_recorded what (_, entries) =
          List.fold_left
            (fun acc (ln, key, _) ->
              let* () = acc in
              if Hashtbl.mem recorded key then Ok ()
              else
                let k = Profile.Key.unpack key in
                err ln "%s references unrecorded edge %d %d %s" what
                  k.Profile.head_pc k.Profile.tail_pc (kind_tag k.Profile.kind))
            (Ok ()) !entries
        in
        let* () = check_recorded "distbound" distbounds in
        let* () = check_recorded "legality" legality in
        (* Race lines likewise assert facts about recorded constructs:
           a status for a construct with no profile entry has nothing
           to validate against and would vanish on rewrite. *)
        let* () =
          List.fold_left
            (fun acc (ln, cid, _) ->
              let* () = acc in
              if Hashtbl.mem seen_construct cid then Ok ()
              else err ln "race references unrecorded construct %d" cid)
            (Ok ()) !(snd race)
        in
        let sorted (_, entries) =
          List.sort
            (fun (a, _) (b, _) -> compare a b)
            (List.map (fun (_, k, v) -> (k, v)) !entries)
        in
        if static then
          t.Profile.static <-
            Some
              {
                Profile.verdicts = sorted verdicts;
                distbounds = sorted distbounds;
                legality = sorted legality;
                race = sorted race;
              };
        Ok t
      in
      let rec go = function
        | [] -> finish ()
        | (ln, line) :: rest -> (
            match String.split_on_char ' ' line with
            | (("verdict" | "distbound" | "legality" | "race") as what) :: _
              when not static ->
                err ln "%s line in a version-1 profile" what
            | [ "verdict"; head; tail; kind; tag ] ->
                let* () =
                  add_keyed verdicts "verdict" ln head tail kind
                    (tag_of ln "static verdict" Static.Depend.verdict_of_string
                       tag)
                in
                go rest
            | [ "distbound"; head; tail; kind; d ] ->
                let* () =
                  add_keyed distbounds "distbound" ln head tail kind
                    (ranged ln "distance bound" ~lo:1 d)
                in
                go rest
            | [ "legality"; head; tail; kind; tag ] ->
                let* () =
                  add_keyed legality "legality" ln head tail kind
                    (tag_of ln "legality verdict"
                       Static.Legality.verdict_of_string tag)
                in
                go rest
            | [ "race"; c; tag ] ->
                let* c = cid ln c in
                let* s = tag_of ln "race status" Static.Race.Status.of_string tag in
                let* () =
                  add race ln c s ~dup:(fun () -> err ln "duplicate race %d" c)
                in
                go rest
            | [ "construct"; c; ttotal; instances ] ->
                let* c = cid ln c in
                let* ttotal = int_of ln ttotal in
                let* instances = ranged ln "instance count" ~lo:1 instances in
                if Hashtbl.mem seen_construct c then
                  err ln "duplicate construct %d" c
                else begin
                  Hashtbl.add seen_construct c ();
                  let cp = Profile.get t c in
                  cp.Profile.ttotal <- ttotal;
                  cp.Profile.instances <- instances;
                  go rest
                end
            | "edge" :: c :: head :: tail :: kind :: min_tdep :: count
              :: internal :: addrs ->
                let* c = cid ln c in
                let* head_pc = pc ln head in
                let* tail_pc = pc ln tail in
                let* kind = kind_of ln kind in
                let* min_tdep = int_of ln min_tdep in
                let* count = ranged ln "edge count" ~lo:1 count in
                let* internal = ranged ln "internal flag" ~lo:0 ~hi:1 internal in
                let* addrs =
                  List.fold_left
                    (fun acc a ->
                      let* acc = acc in
                      let* a = int_of ln a in
                      Ok (a :: acc))
                    (Ok []) addrs
                in
                let cp = Profile.get t c in
                let key = Profile.Key.pack ~head_pc ~tail_pc kind in
                if Profile.Etbl.mem cp.Profile.edges key then
                  err ln "duplicate edge %d %d %d %s" c head_pc tail_pc
                    (kind_tag kind)
                else begin
                  Profile.Etbl.add cp.Profile.edges key
                    {
                      Profile.min_tdep;
                      count;
                      addrs;
                      tail_internal = internal = 1;
                    };
                  go rest
                end
            | [ "parent"; c; parent; count ] ->
                let* c = cid ln c in
                let* parent =
                  ranged ln "parent construct id" ~lo:(-1) ~hi:(ncid - 1) parent
                in
                let* count = int_of ln count in
                let parents = (Profile.get t c).Profile.parents in
                if Hashtbl.mem parents parent then
                  err ln "duplicate parent %d %d" c parent
                else begin
                  Hashtbl.add parents parent (ref count);
                  go rest
                end
            | _ -> err ln "malformed line: %S" line)
      in
      go rest
  | _ -> Error "truncated profile"

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load prog path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> read prog (really_input_string ic (in_channel_length ic)))
