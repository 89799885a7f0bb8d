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
   slower. The writer's node handle would make a fifth word, so it
   stays in a parallel int array [w_node], read only when an edge
   fires.

   Cell layout at [4*addr]: +0 last-write pc (-1 = no write recorded),
   +1 last-write time, +2 read-chain head (-1 = none; else an arena slot
   index), +3 seq of last touch (for staleness).

   The read arena is a free-listed pool of (pc, time, node) slots
   threaded through the +2 "next" field; layout at [4*slot]: +0 pc,
   +1 time, +2 next (-1 ends a chain), +3 the reader's node handle.

   Node handles are ints ({!Indexing.Node.t}), so no store here is a
   pointer store: the hot path runs no write barrier, and a stale
   handle in a released slot or a reset cell retains nothing. Such a
   handle is never read — [w_node] only while w_pc >= 0, a slot's node
   only while it is on a chain.

   Clearing is lazy for large ranges: a clear pushes (base, seq) on a
   stack whose bases and seqs are both strictly increasing (a new clear
   pops every entry with a higher base — its range is covered). A cell is
   stale iff some clear with [base <= addr] happened after the cell's
   last touch; staleness is resolved eagerly at the next touch. *)
type t = {
  (* per-address cells, stride 4: w_pc, w_time, r_head, touch *)
  mutable cell : int array;
  mutable w_node : Node.t array;  (* writer's node, per address *)
  mutable cap : int;
  mutable hi : int; (* highest address ever touched + 1 *)
  (* read arena, stride 4: pc, time, next, node *)
  mutable rn : int array;
  mutable free : int;
  (* clear stack: bases and seqs both strictly increasing *)
  mutable cl_base : int array;
  mutable cl_seq : int array;
  mutable cl_n : int;
  mutable last_clear_seq : int;
  mutable seq : int;
  (* Freshen memo: [fr_gen.(addr) = gen] certifies [addr] has been
     ensured and freshened since the last clear of any kind, so an
     access skips both checks outright. [gen] is the clear generation:
     every path that invalidates shadow state ([clear_from] and the
     eager branch of [clear_range]) bumps it, un-stamping every address
     at once — a range cleared between two accesses of one batched
     segment therefore cannot be masked by the memo (stale-cell
     hazard). The no-op fast path of [clear_range] (range entirely at
     or above [hi]) soundly skips the bump: addresses up there have
     never been touched, so no stamp covers them. Stamps start at 0 and
     [gen] at 1, so untouched cells always miss. *)
  mutable fr_gen : int array;
  mutable gen : int;
  sink : sink;
  events : Obs.Counter.t;
  deps : Obs.Counter.t;
  (* telemetry: every update is an int store on a pre-allocated record *)
  o_cell_cap : Obs.Gauge.t;
  o_cell_growths : Obs.Counter.t;
  o_arena_cap : Obs.Gauge.t;
  o_arena_growths : Obs.Counter.t;
  o_arena_in_use : Obs.Gauge.t;
  o_clear_depth : Obs.Gauge.t;
  o_freshens : Obs.Counter.t;
  o_fr_checks : Obs.Counter.t;
  o_scrubbed : Obs.Counter.t;
  o_lazy_clears : Obs.Counter.t;
  o_eager_clears : Obs.Counter.t;
}

let no_sink ~kind:_ ~head_pc:_ ~head_time:_ ~head_node:_ ~tail_pc:_
    ~tail_time:_ ~tail_node:_ ~addr:_ =
  ()

let initial_cap = 1024
let arena_cap = 1024

(* Frames up to this size are scrubbed eagerly (exact range semantics);
   larger ones are range-tagged in O(1). *)
let eager_clear_limit = 64

(* Fresh cell block for [n] cells: w_pc and r_head slots hold -1. *)
let make_cells n =
  let a = Array.make (n lsl 2) 0 in
  for i = 0 to n - 1 do
    a.(i lsl 2) <- -1;
    a.((i lsl 2) + 2) <- -1
  done;
  a

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
    w_node = Array.make initial_cap Node.none;
    cap = initial_cap;
    hi = 0;
    rn;
    free = 0;
    cl_base = Array.make 64 0;
    cl_seq = Array.make 64 0;
    cl_n = 0;
    last_clear_seq = 0;
    seq = 0;
    fr_gen = Array.make initial_cap 0;
    gen = 1;
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
    o_clear_depth = Obs.Gauge.make ();
    o_freshens = Obs.Counter.make ();
    o_fr_checks = Obs.Counter.make ();
    o_scrubbed = Obs.Counter.make ();
    o_lazy_clears = Obs.Counter.make ();
    o_eager_clears = Obs.Counter.make ();
  }

let grow_cells t addr =
  let cap = ref t.cap in
  while addr >= !cap do
    cap := 2 * !cap
  done;
  let cap = !cap in
  let cell = make_cells cap in
  Array.blit t.cell 0 cell 0 (t.cap lsl 2);
  t.cell <- cell;
  let w_node = Array.make cap Node.none in
  Array.blit t.w_node 0 w_node 0 t.cap;
  t.w_node <- w_node;
  let fr_gen = Array.make cap 0 in
  Array.blit t.fr_gen 0 fr_gen 0 t.cap;
  t.fr_gen <- fr_gen;
  t.cap <- cap;
  Obs.Counter.incr t.o_cell_growths;
  Obs.Gauge.set t.o_cell_cap cap

let[@inline] ensure t addr =
  if addr >= t.cap then grow_cells t addr;
  if addr >= t.hi then t.hi <- addr + 1

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

(* Return a whole read chain to the free list and detach it. *)
let release_chain t addr =
  let i = ref t.cell.((addr lsl 2) + 2) in
  while !i >= 0 do
    let s = !i lsl 2 in
    let next = t.rn.(s + 2) in
    t.rn.(s + 2) <- t.free;
    t.free <- !i;
    Obs.Gauge.add t.o_arena_in_use (-1);
    i := next
  done;
  t.cell.((addr lsl 2) + 2) <- -1

let reset_cell t addr =
  t.cell.(addr lsl 2) <- -1;
  if t.cell.((addr lsl 2) + 2) >= 0 then release_chain t addr

(* Topmost clear entry with base <= addr (bases ascend): its seq is the
   newest clear covering [addr]. *)
let covering_clear_seq t addr =
  if t.cl_n = 0 || addr < t.cl_base.(0) then -1
  else begin
    let lo = ref 0 and hi = ref (t.cl_n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.cl_base.(mid) <= addr then lo := mid else hi := mid - 1
    done;
    t.cl_seq.(!lo)
  end

(* Resolve lazy clears: if the cell's last touch predates a covering
   clear, scrub it before use. *)
let[@inline never] freshen_slow t addr =
  if
    (t.cell.(addr lsl 2) >= 0 || t.cell.((addr lsl 2) + 2) >= 0)
    && covering_clear_seq t addr > t.cell.((addr lsl 2) + 3)
  then begin
    Obs.Counter.incr t.o_freshens;
    reset_cell t addr
  end

(* Hot-path accesses below use unsafe indexing: [ensure] has already
   guaranteed [addr < t.cap], so [addr lsl 2 .. (addr lsl 2) + 3] lie
   within [t.cell] (length [4 * t.cap]) and [addr] within [t.w_node];
   arena slot indices come only from the free list and live chains, both
   of which stay below the arena's length by construction. *)
(* Chain lookup for [read]: top level (not nested in [read]) so the
   call allocates no closure — it would otherwise be built once per
   read event. *)
let rec find_slot rn pc i =
  if i < 0 then -1
  else if Array.unsafe_get rn (i lsl 2) = pc then i
  else find_slot rn pc (Array.unsafe_get rn ((i lsl 2) + 2))

let[@inline] freshen t addr =
  if Array.unsafe_get t.cell ((addr lsl 2) + 3) < t.last_clear_seq then
    freshen_slow t addr

let read t ~addr ~pc ~time ~node =
  Obs.Counter.incr t.events;
  t.seq <- t.seq + 1;
  if addr >= t.cap || Array.unsafe_get t.fr_gen addr <> t.gen then begin
    Obs.Counter.incr t.o_fr_checks;
    ensure t addr;
    freshen t addr;
    Array.unsafe_set t.fr_gen addr t.gen
  end;
  let base = addr lsl 2 in
  let cell = t.cell in
  let w_pc = Array.unsafe_get cell base in
  if w_pc >= 0 then begin
    Obs.Counter.incr t.deps;
    t.sink ~kind:Dependence.Raw ~head_pc:w_pc
      ~head_time:(Array.unsafe_get cell (base + 1))
      ~head_node:(Array.unsafe_get t.w_node addr) ~tail_pc:pc ~tail_time:time
      ~tail_node:node ~addr
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
  end;
  Array.unsafe_set t.cell (base + 3) t.seq

let write t ~addr ~pc ~time ~node =
  Obs.Counter.incr t.events;
  t.seq <- t.seq + 1;
  if addr >= t.cap || Array.unsafe_get t.fr_gen addr <> t.gen then begin
    Obs.Counter.incr t.o_fr_checks;
    ensure t addr;
    freshen t addr;
    Array.unsafe_set t.fr_gen addr t.gen
  end;
  let base = addr lsl 2 in
  let cell = t.cell in
  let w_pc = Array.unsafe_get cell base in
  if w_pc >= 0 then begin
    Obs.Counter.incr t.deps;
    t.sink ~kind:Dependence.Waw ~head_pc:w_pc
      ~head_time:(Array.unsafe_get cell (base + 1))
      ~head_node:(Array.unsafe_get t.w_node addr) ~tail_pc:pc ~tail_time:time
      ~tail_node:node ~addr
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
  Array.unsafe_set t.w_node addr node;
  Array.unsafe_set t.cell (base + 3) t.seq

let scrub t ~base ~limit =
  (* Exact eager clear of [base, limit): O(limit - base). *)
  let hi = min limit t.cap in
  for addr = max base 0 to hi - 1 do
    if t.cell.(addr lsl 2) >= 0 || t.cell.((addr lsl 2) + 2) >= 0 then begin
      Obs.Counter.incr t.o_scrubbed;
      reset_cell t addr
    end;
    t.cell.((addr lsl 2) + 3) <- t.seq
  done

let clear_from t ~base =
  (* Range-tag [base, ∞) in O(1): pop covered entries (their bases are
     higher, so the new tag subsumes them), push (base, seq). Bases and
     seqs on the stack both stay strictly increasing. *)
  t.seq <- t.seq + 1;
  t.gen <- t.gen + 1;
  Obs.Counter.incr t.o_lazy_clears;
  while t.cl_n > 0 && t.cl_base.(t.cl_n - 1) >= base do
    t.cl_n <- t.cl_n - 1
  done;
  if t.cl_n = Array.length t.cl_base then begin
    let n = t.cl_n in
    let base' = Array.make (2 * n) 0 and seq' = Array.make (2 * n) 0 in
    Array.blit t.cl_base 0 base' 0 n;
    Array.blit t.cl_seq 0 seq' 0 n;
    t.cl_base <- base';
    t.cl_seq <- seq'
  end;
  t.cl_base.(t.cl_n) <- base;
  t.cl_seq.(t.cl_n) <- t.seq;
  t.cl_n <- t.cl_n + 1;
  t.last_clear_seq <- t.seq;
  Obs.Gauge.set t.o_clear_depth t.cl_n

let clear_range t ~base ~size =
  (* Ranges entirely above every address ever touched carry no shadow
     state: clearing them is a no-op. This is the common case for frame
     releases when locals are not traced — stack frames sit above the
     globals, so [hi] never reaches them — and skipping it avoids an
     O(frame size) scrub per call/return. *)
  if base >= t.hi then ()
  else if size > 0 then
    if size > eager_clear_limit && base + size >= t.hi then
      (* The range covers every address ever touched at or above [base],
         so the O(1) suffix tag is exact. *)
      clear_from t ~base
    else begin
      (* Small ranges, and interior ranges wider than the eager limit:
         scrub exactly [base, base+size). The suffix tag would clear
         [base, ∞), silently dropping live history above an interior
         range — interior ranges must pay O(size) for exact semantics. *)
      t.seq <- t.seq + 1;
      t.gen <- t.gen + 1;
      Obs.Counter.incr t.o_eager_clears;
      scrub t ~base ~limit:(base + size)
    end

let tracked_addresses t =
  let n = ref 0 in
  for addr = 0 to t.hi - 1 do
    if
      (t.cell.(addr lsl 2) >= 0 || t.cell.((addr lsl 2) + 2) >= 0)
      && not
           (t.cell.((addr lsl 2) + 3) < t.last_clear_seq
           && covering_clear_seq t addr > t.cell.((addr lsl 2) + 3))
    then incr n
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
  Obs.Registry.register_gauge reg "shadow.clear_stack_depth" t.o_clear_depth;
  Obs.Registry.register_counter reg "shadow.freshens" t.o_freshens;
  Obs.Registry.register_counter reg "shadow.freshen_checks" t.o_fr_checks;
  Obs.Registry.register_counter reg "shadow.cells_scrubbed" t.o_scrubbed;
  Obs.Registry.register_counter reg "shadow.lazy_clears" t.o_lazy_clears;
  Obs.Registry.register_counter reg "shadow.eager_clears" t.o_eager_clears
