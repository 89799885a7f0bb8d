(* The event ring: segment-batched hook delivery for the register engine.

   The hot path of a hooked register run is dominated not by dispatch
   but by the hook machinery behind each event — construct indexing,
   shadow lookups, Table II attribution. The ring moves that work out
   of the per-access path: {!Exec} appends each event as three packed
   ints into a flat buffer and the profiler-facing hooks only run when
   the ring drains — at capacity and at run exit (halt or trap, "out of
   fuel" included).

   Ordering is preserved by construction: the buffer is strictly FIFO
   and the drain replays every event, in order, into the unmodified
   {!Vm.Hooks.t} the caller supplied. Downstream state that events
   themselves drive — the index-tree clock, the construct stack — is
   therefore reconstructed exactly at each replayed event, so a
   consumer cannot distinguish a drained stream from the switch
   interpreter's per-instruction delivery (the differential suite
   byte-compares event streams and profiles to prove it).

   The one batched entry is [Instr_range]: the engine owns a contiguous
   stack-pc segment per IR instruction, so one (lo, hi) event replaces
   [seg_len] per-pc [on_instr] calls. The drain expands it — either
   through the per-pc hook, or through the [instr_range] sink of a
   caller-supplied {!clock} (the profiler and the parallelism simulator
   pass {!Indexing.Rules}'s prefix-summed range walk, which skips the
   per-pc ipdom probe for segments containing no construct join).

   Ranges coalesce before they reach the buffer: straight-line code
   retires several event-free segments back to back, and appending each
   one separately would make [Instr_range] the dominant ring traffic.
   The ring instead holds one pending (lo, hi) range; a new range whose
   [lo] continues it extends [hi] in place, and any other append — or a
   drain — flushes the pending range into the buffer first, which
   preserves FIFO order. The merge is exact: [on_instr_range (lo, mid);
   on_instr_range (mid+1, hi)] with nothing between is definitionally
   [on_instr_range (lo, hi)], both in the per-pc expansion and in the
   bulk sink.

   Beyond batching, the stream itself is thinned: every event carries
   the absolute clock (retired-instruction count) it was emitted under,
   and the drain restores that clock — through the [set_time] sink —
   before delivering the event. A consumer that declares its per-pc
   [on_instr] pure clock-keeping outside the segments it names (by
   supplying a {!clock}, whose [range_has_target] {!Exec} consults once
   per segment) therefore never sees ranges for the other segments at
   all: their only observable effect, the clock advance, rides on the
   next event's stamp. Consumers that supply raw hooks get the full
   range stream and the stamps are redundant.

   Event words, stride 3: word0 = payload lsl 3 lor kind, word1 = arg,
   word2 = emitting clock.

     kind 0  Instr_range   lo                hi
     kind 1  Read          pc                addr
     kind 2  Write         pc                addr
     kind 3  Branch        pc                cid lsl 3 lor bk lsl 1 lor taken
     kind 4  Call          entry pc          fid
     kind 5  Ret           pc                fid
     kind 6  Frame_release base              size

   A range's stamp is the clock {e before} its first instruction (the
   replay ticks through it); every other stamp is the clock at emission.
   All payloads are non-negative and far below 2^59, so the packing is
   lossless on 64-bit ints — except [cid], which is -1 on short-circuit
   branches that belong to no construct; its field is decoded with an
   arithmetic shift so the sign survives the round trip. Telemetry is
   published under [ir.*] names: ring counters are register-engine
   machinery, and the differential telemetry comparison (test_engines)
   filters that prefix out. *)

(* The consumer side of the thinned stream; see {!Engine.clock}. *)
type clock = {
  instr_range : lo:int -> hi:int -> unit;
  range_has_target : lo:int -> hi:int -> bool;
  set_time : int -> unit;
}

type t = {
  buf : int array;
  cap : int;  (** capacity in events; a full ring drains itself *)
  mutable n : int;  (** buffered events *)
  mutable p_lo : int;  (** pending coalesced instr range *)
  mutable p_hi : int;  (** [min_int] = no pending range *)
  mutable p_t : int;  (** clock before the pending range's first pc *)
  hooks : Vm.Hooks.t;
  instr_range : lo:int -> hi:int -> unit;
  set_time : int -> unit;
      (** restore the consumer's clock to an event's stamp; [ignore]
          for raw-hook consumers, whose stream carries every range *)
  o_events : Obs.Counter.t;
  o_drains : Obs.Counter.t;
  o_depth : Obs.Histogram.t;  (** events replayed per drain *)
}

let default_capacity = 8192

let branch_kinds = [| Vm.Instr.BrIf; Vm.Instr.BrLoop; Vm.Instr.BrSc |]

let branch_code (k : Vm.Instr.branch_kind) =
  match k with BrIf -> 0 | BrLoop -> 1 | BrSc -> 2

let create ?obs ?(capacity = default_capacity) ?clock (hooks : Vm.Hooks.t) =
  let capacity = max 16 capacity in
  let instr_range, set_time =
    match clock with
    | Some (c : clock) -> (c.instr_range, c.set_time)
    | None ->
        let on_instr = hooks.Vm.Hooks.on_instr in
        ((fun ~lo ~hi ->
           for pc = lo to hi do
             on_instr ~pc
           done),
         ignore)
  in
  let counter name =
    match obs with
    | Some r -> Obs.Registry.counter r name
    | None -> Obs.Counter.make ()
  in
  {
    buf = Array.make (capacity * 3) 0;
    cap = capacity;
    n = 0;
    p_lo = 0;
    p_hi = min_int;
    p_t = 0;
    hooks;
    instr_range;
    set_time;
    o_events = counter "ir.ring_events";
    o_drains = counter "ir.ring_drains";
    o_depth =
      (match obs with
      | Some r -> Obs.Registry.histogram r "ir.ring_depth"
      | None -> Obs.Histogram.make ());
  }

(* Replay everything buffered, in order, restoring the emitting clock
   before each event whose stamp differs from the clock the replay has
   already established. [t.n] is zeroed before the walk: should a hook
   raise mid-drain, the not-yet-replayed suffix is dropped — exactly
   the events a direct-delivery engine would never have produced past
   the raising one. *)
let drain_buf t =
  if t.n > 0 then begin
    let n = t.n in
    t.n <- 0;
    Obs.Counter.incr t.o_drains;
    Obs.Counter.add t.o_events n;
    Obs.Histogram.observe t.o_depth n;
    let buf = t.buf in
    (* hoisted: one record load per drain, not one per replayed event *)
    let instr_range = t.instr_range in
    let set_time = t.set_time in
    let on_read = t.hooks.Vm.Hooks.on_read in
    let on_write = t.hooks.Vm.Hooks.on_write in
    let on_branch = t.hooks.Vm.Hooks.on_branch in
    let on_call = t.hooks.Vm.Hooks.on_call in
    let on_ret = t.hooks.Vm.Hooks.on_ret in
    let on_frame_release = t.hooks.Vm.Hooks.on_frame_release in
    (* The clock the replay has driven the consumer to so far; a stamp
       mismatch means elided join-free segments sit between this event
       and the previous one. *)
    let cur = ref min_int in
    for i = 0 to n - 1 do
      let w0 = Array.unsafe_get buf (i * 3) in
      let arg = Array.unsafe_get buf ((i * 3) + 1) in
      let tm = Array.unsafe_get buf ((i * 3) + 2) in
      if tm <> !cur then begin
        set_time tm;
        cur := tm
      end;
      let payload = w0 lsr 3 in
      match w0 land 7 with
      | 0 ->
          instr_range ~lo:payload ~hi:arg;
          cur := tm + (arg - payload + 1)
      | 1 -> on_read ~pc:payload ~addr:arg
      | 2 -> on_write ~pc:payload ~addr:arg
      | 3 ->
          on_branch ~pc:payload
            ~kind:(Array.unsafe_get branch_kinds ((arg lsr 1) land 3))
            ~cid:(arg asr 3)
            ~taken:(arg land 1 = 1)
      | 4 -> on_call ~pc:payload ~fid:arg
      | 5 -> on_ret ~pc:payload ~fid:arg
      | _ -> on_frame_release ~base:payload ~size:arg
    done
  end

(* The appenders below hand-inline the three-word store: the build has
   no flambda, so a shared [put] helper would cost a second real call
   on every one of the millions of appends gzip makes. [flush_pending]
   stays a function — on the hot path it does real work (a range
   precedes most events), so its body dwarfs the call. The pending
   range is cleared {e before} its store so a hook exception escaping a
   drain cannot double-deliver it (the run-exit drain would otherwise
   replay it again). *)

let[@inline] flush_pending t =
  if t.p_hi <> min_int then begin
    let plo = t.p_lo and phi = t.p_hi and pt = t.p_t in
    t.p_hi <- min_int;
    if t.n = t.cap then drain_buf t;
    let i = t.n * 3 in
    Array.unsafe_set t.buf i (plo lsl 3);
    Array.unsafe_set t.buf (i + 1) phi;
    Array.unsafe_set t.buf (i + 2) pt;
    t.n <- t.n + 1
  end

(* External drain, used once at run exit (halt or trap): besides
   replaying the buffer it must leave the consumer's clock at [now], the
   engine's current retired count — elided segments may have advanced
   it past the last buffered event's stamp, and whatever runs next (the
   profiler's finisher popping surviving constructs, a consumer reading
   its clock after a trap) reads the clock directly. *)
let drain t ~now =
  flush_pending t;
  drain_buf t;
  t.set_time now

let read t ~pc ~addr ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((pc lsl 3) lor 1);
  Array.unsafe_set t.buf (i + 1) addr;
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1

let write t ~pc ~addr ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((pc lsl 3) lor 2);
  Array.unsafe_set t.buf (i + 1) addr;
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1

let branch t ~pc ~kind ~cid ~taken ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((pc lsl 3) lor 3);
  Array.unsafe_set t.buf (i + 1)
    ((cid lsl 3) lor (branch_code kind lsl 1) lor (if taken then 1 else 0));
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1

let call t ~pc ~fid ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((pc lsl 3) lor 4);
  Array.unsafe_set t.buf (i + 1) fid;
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1

let ret t ~pc ~fid ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((pc lsl 3) lor 5);
  Array.unsafe_set t.buf (i + 1) fid;
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1

let frame_release t ~base ~size ~tm =
  flush_pending t;
  if t.n = t.cap then drain_buf t;
  let i = t.n * 3 in
  Array.unsafe_set t.buf i ((base lsl 3) lor 6);
  Array.unsafe_set t.buf (i + 1) size;
  Array.unsafe_set t.buf (i + 2) tm;
  t.n <- t.n + 1
