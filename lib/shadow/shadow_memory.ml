module Node = Indexing.Node

type sink =
  kind:Dependence.kind ->
  head_pc:int ->
  head_time:int ->
  head_node:Node.t ->
  tail_pc:int ->
  tail_time:int ->
  tail_node:Node.t ->
  addr:int ->
  unit

(* Cells are indexed by address. The four int fields of a cell live in
   one stride-4 array ([cell]) so an access touches a single cache line
   instead of four — on the profiling hot path (one cell probe per
   memory event) the scattered parallel-array layout was measurably
   slower.

   Cell layout at [4*addr]: +0 last-write pc (-1 = no write recorded),
   +1 last-write time, +2 read-chain head (-1 = none; else an arena slot
   index), +3 the writer's node handle.

   The read arena is a free-listed pool of (pc, time, node) slots
   threaded through the +2 "next" field; layout at [4*slot]: +0 pc,
   +1 time, +2 next (-1 ends a chain), +3 the reader's node handle.

   Node handles are ints ({!Indexing.Node.t}), so no store here is a
   pointer store: the hot path runs no write barrier, and a stale
   handle in a released slot or a reset cell retains nothing. Such a
   handle is never read — a cell's only while its w_pc >= 0, a slot's
   only while it is on a chain.

   Every cell at or above [hi] is clean (no write, no reads). An access
   raises [hi] past its address; a clear scrubs only the cells of its
   range below [hi], and lowers [hi] to the range's base when the range
   reaches it. *)
type t = {
  (* per-address cells, stride 4: w_pc, w_time, r_head, w_node *)
  mutable cell : int array;
  mutable cap : int;
  mutable hi : int; (* every cell at or above [hi] is clean; hi <= cap *)
  (* read arena, stride 4: pc, time, next, node *)
  mutable rn : int array;
  mutable free : int;
  sink : sink;
  events : Obs.Counter.t;
  deps : Obs.Counter.t;
  (* telemetry: every update is an int store on a pre-allocated record *)
  o_cell_cap : Obs.Gauge.t;
  o_cell_growths : Obs.Counter.t;
  o_arena_cap : Obs.Gauge.t;
  o_arena_growths : Obs.Counter.t;
  o_arena_in_use : Obs.Gauge.t;
  o_scrubbed : Obs.Counter.t;
}

let no_sink ~kind:_ ~head_pc:_ ~head_time:_ ~head_node:_ ~tail_pc:_
    ~tail_time:_ ~tail_node:_ ~addr:_ =
  ()

let initial_cap = 1024
let arena_cap = 1024

(* Fresh cell block for [n] cells: -1 in every word, so w_pc and r_head
   say "none" (w_time and w_node are read only under a w_pc >= 0). *)
let make_cells n = Array.make (n lsl 2) (-1)

let thread_free rn lo hi =
  for i = lo to hi - 2 do
    rn.((i lsl 2) + 2) <- i + 1
  done;
  rn.(((hi - 1) lsl 2) + 2) <- -1

let create ?(sink = no_sink) () =
  let rn = Array.make (arena_cap lsl 2) 0 in
  thread_free rn 0 arena_cap;
  {
    cell = make_cells initial_cap;
    cap = initial_cap;
    hi = 0;
    rn;
    free = 0;
    sink;
    events = Obs.Counter.make ();
    deps = Obs.Counter.make ();
    o_cell_cap =
      (let g = Obs.Gauge.make () in
       Obs.Gauge.set g initial_cap;
       g);
    o_cell_growths = Obs.Counter.make ();
    o_arena_cap =
      (let g = Obs.Gauge.make () in
       Obs.Gauge.set g arena_cap;
       g);
    o_arena_growths = Obs.Counter.make ();
    o_arena_in_use = Obs.Gauge.make ();
    o_scrubbed = Obs.Counter.make ();
  }

(* An access at or above [hi]: its cell is clean; grow the table if it
   lies past the end, then raise [hi] over it. Out of line, so the
   event path keeps one compare. *)
let[@inline never] raise_hi t addr =
  if addr >= t.cap then begin
    let cap = ref t.cap in
    while addr >= !cap do
      cap := 2 * !cap
    done;
    let cap = !cap in
    let cell = make_cells cap in
    Array.blit t.cell 0 cell 0 (t.cap lsl 2);
    t.cell <- cell;
    t.cap <- cap;
    Obs.Counter.incr t.o_cell_growths;
    Obs.Gauge.set t.o_cell_cap cap
  end;
  t.hi <- addr + 1

let grow_arena t =
  let n = Array.length t.rn lsr 2 in
  let cap = 2 * n in
  let rn = Array.make (cap lsl 2) 0 in
  Array.blit t.rn 0 rn 0 (n lsl 2);
  t.rn <- rn;
  thread_free t.rn n cap;
  t.free <- n;
  Obs.Counter.incr t.o_arena_growths;
  Obs.Gauge.set t.o_arena_cap cap

let[@inline] alloc_slot t =
  if t.free < 0 then grow_arena t;
  let i = t.free in
  t.free <- t.rn.((i lsl 2) + 2);
  Obs.Gauge.add t.o_arena_in_use 1;
  i

(* Hot-path accesses below use unsafe indexing: an access first raises
   [hi] over its address and [hi <= t.cap], so [addr lsl 2 .. (addr lsl
   2) + 3] lie within [t.cell] (length [4 * t.cap]); arena slot indices
   come only from the free list and live chains, both of which stay
   below the arena's length by construction. *)
(* Chain lookup for [read]: top level (not nested in [read]) so the
   call allocates no closure — it would otherwise be built once per
   read event. *)
let rec find_slot rn pc i =
  if i < 0 then -1
  else if Array.unsafe_get rn (i lsl 2) = pc then i
  else find_slot rn pc (Array.unsafe_get rn ((i lsl 2) + 2))

let read t ~addr ~pc ~time ~node =
  Obs.Counter.incr t.events;
  if addr >= t.hi then raise_hi t addr;
  let base = addr lsl 2 in
  let cell = t.cell in
  let w_pc = Array.unsafe_get cell base in
  if w_pc >= 0 then begin
    Obs.Counter.incr t.deps;
    t.sink ~kind:Dependence.Raw ~head_pc:w_pc
      ~head_time:(Array.unsafe_get cell (base + 1))
      ~head_node:(Array.unsafe_get cell (base + 3)) ~tail_pc:pc
      ~tail_time:time ~tail_node:node ~addr
  end;
  (* update the slot for this static pc in place, or link a new one;
     [t.rn] is read after the sink call above, so a re-entrant sink that
     grew the arena is still observed here *)
  let i = find_slot t.rn pc (Array.unsafe_get t.cell (base + 2)) in
  if i >= 0 then begin
    Array.unsafe_set t.rn ((i lsl 2) + 1) time;
    Array.unsafe_set t.rn ((i lsl 2) + 3) node
  end
  else begin
    let i = alloc_slot t in
    let s = i lsl 2 in
    Array.unsafe_set t.rn s pc;
    Array.unsafe_set t.rn (s + 1) time;
    Array.unsafe_set t.rn (s + 3) node;
    Array.unsafe_set t.rn (s + 2) (Array.unsafe_get t.cell (base + 2));
    Array.unsafe_set t.cell (base + 2) i
  end

let write t ~addr ~pc ~time ~node =
  Obs.Counter.incr t.events;
  if addr >= t.hi then raise_hi t addr;
  let base = addr lsl 2 in
  let cell = t.cell in
  let w_pc = Array.unsafe_get cell base in
  if w_pc >= 0 then begin
    Obs.Counter.incr t.deps;
    t.sink ~kind:Dependence.Waw ~head_pc:w_pc
      ~head_time:(Array.unsafe_get cell (base + 1))
      ~head_node:(Array.unsafe_get cell (base + 3)) ~tail_pc:pc
      ~tail_time:time ~tail_node:node ~addr
  end;
  (* WAR from every recorded read; free the chain as we go *)
  let i = ref (Array.unsafe_get t.cell (base + 2)) in
  while !i >= 0 do
    let s = !i lsl 2 in
    Obs.Counter.incr t.deps;
    t.sink ~kind:Dependence.War
      ~head_pc:(Array.unsafe_get t.rn s)
      ~head_time:(Array.unsafe_get t.rn (s + 1))
      ~head_node:(Array.unsafe_get t.rn (s + 3)) ~tail_pc:pc ~tail_time:time
      ~tail_node:node ~addr;
    let next = Array.unsafe_get t.rn (s + 2) in
    Array.unsafe_set t.rn (s + 2) t.free;
    t.free <- !i;
    Obs.Gauge.add t.o_arena_in_use (-1);
    i := next
  done;
  Array.unsafe_set t.cell (base + 2) (-1);
  Array.unsafe_set t.cell base pc;
  Array.unsafe_set t.cell (base + 1) time;
  Array.unsafe_set t.cell (base + 3) node

(* Drop one cell's history: no write, and its read chain back on the
   free list. *)
let scrub_cell t addr =
  let base = addr lsl 2 in
  t.cell.(base) <- -1;
  let i = ref t.cell.(base + 2) in
  while !i >= 0 do
    let s = !i lsl 2 in
    let next = t.rn.(s + 2) in
    t.rn.(s + 2) <- t.free;
    t.free <- !i;
    Obs.Gauge.add t.o_arena_in_use (-1);
    i := next
  done;
  t.cell.(base + 2) <- -1

let clear_range t ~base ~size =
  (* Cells at or above [hi] are clean, so only [base, min (base+size)
     hi) is scanned, and nothing at all when the range lies above [hi] —
     the common case for frame releases when locals are not traced,
     since stack frames sit above the globals. [size >= t.hi - base]
     tests "reaches hi" without forming [base + size]. *)
  if base < t.hi && size > 0 then begin
    let reaches = size >= t.hi - base in
    let limit = if reaches then t.hi else base + size in
    for addr = base to limit - 1 do
      if t.cell.(addr lsl 2) >= 0 || t.cell.((addr lsl 2) + 2) >= 0 then begin
        Obs.Counter.incr t.o_scrubbed;
        scrub_cell t addr
      end
    done;
    if reaches then t.hi <- base
  end

let tracked_addresses t =
  let n = ref 0 in
  for addr = 0 to t.hi - 1 do
    if t.cell.(addr lsl 2) >= 0 || t.cell.((addr lsl 2) + 2) >= 0 then incr n
  done;
  !n

let events t = Obs.Counter.get t.events
let deps_emitted t = Obs.Counter.get t.deps

let register_obs t reg =
  Obs.Registry.register_counter reg "shadow.events" t.events;
  Obs.Registry.register_counter reg "shadow.deps" t.deps;
  Obs.Registry.register_gauge reg "shadow.cell_cap" t.o_cell_cap;
  Obs.Registry.register_counter reg "shadow.cell_growths" t.o_cell_growths;
  Obs.Registry.register_gauge reg "shadow.arena_cap" t.o_arena_cap;
  Obs.Registry.register_counter reg "shadow.arena_growths" t.o_arena_growths;
  Obs.Registry.register_gauge reg "shadow.arena_in_use" t.o_arena_in_use;
  Obs.Registry.register_counter reg "shadow.cells_scrubbed" t.o_scrubbed
