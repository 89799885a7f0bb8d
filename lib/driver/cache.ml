(* Content-addressed profile cache.

   The key hashes exactly the run components that determine the
   canonical profile bytes: the program's code fingerprint, its input
   fingerprint (initialized global data), and the options that change
   what the profiler observes — fuel (execution length), trace_locals
   (which memory events exist and whether the static layer runs), and
   the pool capacity / scan limit (node recycling changes the
   time-window check, hence edge attribution). Nothing else selects how
   a profile is computed: the service always profiles on the default
   register engine with the static prune mask applied, and the
   differential tests and [alchemist check] pin that neither the
   engine nor pruning changes a profile byte.

   A disk entry is untrusted input (another process, or anything else,
   may have written the file): [find_located] hands it out only when
   the caller's [valid] accepts its bytes. A rejected entry is a miss
   that stays out of the memory table, and [add] overwrites the file
   with the recomputed bytes.

   Not thread-safe: the cache belongs to the service's control thread,
   which looks up before submitting a job and inserts when it harvests
   the result. Worker domains never touch it. *)

type entry = { bytes : string; mutable tick : int }

type t = {
  table : (string, entry) Hashtbl.t;
  capacity : int;
  dir : string option;
  mutable clock : int;
  obs : Obs.Registry.t;
  hits : Obs.Counter.t;
  disk_hits : Obs.Counter.t;
  disk_rejects : Obs.Counter.t;
  misses : Obs.Counter.t;
  insertions : Obs.Counter.t;
  evictions : Obs.Counter.t;
  entries : Obs.Gauge.t;
}

let default_capacity = 256

let create ?(capacity = default_capacity) ?dir () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  (match dir with
  | Some d when not (Sys.file_exists d) -> Sys.mkdir d 0o755
  | _ -> ());
  let obs = Obs.Registry.create () in
  {
    table = Hashtbl.create 64;
    capacity;
    dir;
    clock = 0;
    obs;
    hits = Obs.Registry.counter obs "cache.hits";
    disk_hits = Obs.Registry.counter obs "cache.disk_hits";
    disk_rejects = Obs.Registry.counter obs "cache.disk_rejects";
    misses = Obs.Registry.counter obs "cache.misses";
    insertions = Obs.Registry.counter obs "cache.insertions";
    evictions = Obs.Registry.counter obs "cache.evictions";
    entries = Obs.Registry.gauge obs "cache.entries";
  }

let key ~code_fp ~input_fp ?fuel ?(trace_locals = false) ?pool_capacity
    ?scan_limit () =
  let opt = function None -> "none" | Some n -> string_of_int n in
  Alchemist.Profile_io.hash_string
    (Printf.sprintf
       "alchemist-cache-key 1\ncode %s\ninput %s\nfuel %s\ntrace_locals %b\n\
        pool_capacity %s\nscan_limit %s\n"
       code_fp input_fp (opt fuel) trace_locals (opt pool_capacity)
       (opt scan_limit))

(* --- disk store ----------------------------------------------------------- *)

let disk_path dir k = Filename.concat dir (k ^ ".prof")

let disk_read dir k =
  let path = disk_path dir k in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
  else None

let disk_write dir k bytes =
  (* Write-then-rename so a concurrent reader (another alchemist
     process sharing the store) never sees a torn file. *)
  let path = disk_path dir k in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc bytes);
  Sys.rename tmp path

(* --- lookup / insertion --------------------------------------------------- *)

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let insert t k bytes =
  (match Hashtbl.find_opt t.table k with
  | Some e ->
      e.tick <- t.clock (* refresh; bytes are content-addressed, equal *)
  | None ->
      if Hashtbl.length t.table >= t.capacity then begin
        (* Evict the least-recently-used entry. O(capacity), but
           eviction is rare and capacity is small; an intrusive list
           is not worth the code. *)
        let victim = ref None in
        Hashtbl.iter
          (fun k' e' ->
            match !victim with
            | Some (_, tick) when e'.tick >= tick -> ()
            | _ -> victim := Some (k', e'.tick))
          t.table;
        match !victim with
        | Some (k', _) ->
            Hashtbl.remove t.table k';
            Obs.Counter.incr t.evictions
        | None -> ()
      end;
      let e = { bytes; tick = 0 } in
      touch t e;
      Hashtbl.add t.table k e;
      Obs.Counter.incr t.insertions;
      Obs.Gauge.set t.entries (Hashtbl.length t.table))

let find_located t ~valid k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
      touch t e;
      Obs.Counter.incr t.hits;
      Some (e.bytes, `Memory)
  | None -> (
      match Option.bind t.dir (fun d -> disk_read d k) with
      | Some bytes when valid bytes ->
          Obs.Counter.incr t.disk_hits;
          insert t k bytes;
          Some (bytes, `Disk)
      | Some _ ->
          Obs.Counter.incr t.disk_rejects;
          Obs.Counter.incr t.misses;
          None
      | None ->
          Obs.Counter.incr t.misses;
          None)

(* Always (re)write the file: a computed result follows a miss, and a
   miss on a present file means [find_located] rejected it. *)
let add t k bytes =
  insert t k bytes;
  Option.iter (fun d -> disk_write d k bytes) t.dir

let length t = Hashtbl.length t.table
let telemetry t = Obs.Registry.snapshot t.obs
