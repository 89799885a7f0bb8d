(* Completed instances wait in a FIFO ring of handles: [ring.(head)] is
   the oldest, [len] entries follow it (indices modulo the power-of-two
   ring size). *)
type t = {
  nodes : Node.store;
  mutable ring : int array;
  mutable head : int;
  mutable len : int;
  scan_limit : int;
  capacity : int;
  allocated : Obs.Counter.t;
  reused : Obs.Counter.t;
  scan_len : Obs.Histogram.t;  (* head entries examined per acquire *)
}

let create ?(scan_limit = 8) ?(capacity = 1_000_000) () =
  {
    nodes = Node.store ();
    ring = Array.make 64 0;
    head = 0;
    len = 0;
    scan_limit;
    capacity;
    allocated = Obs.Counter.make ();
    reused = Obs.Counter.make ();
    scan_len = Obs.Histogram.make ();
  }

let nodes t = t.nodes

let retirable nodes ~now c =
  let texit = Node.texit nodes c in
  now - texit >= texit - Node.tenter nodes c

let fresh t =
  Obs.Counter.incr t.allocated;
  Node.alloc t.nodes

let[@inline] pop_head t =
  let c = Array.unsafe_get t.ring t.head in
  t.head <- (t.head + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  c

let grow t =
  let n = Array.length t.ring in
  let ring = Array.make (2 * n) 0 in
  for k = 0 to t.len - 1 do
    ring.(k) <- t.ring.((t.head + k) land (n - 1))
  done;
  t.ring <- ring;
  t.head <- 0

let[@inline] push_tail t c =
  if t.len = Array.length t.ring then grow t;
  Array.unsafe_set t.ring ((t.head + t.len) land (Array.length t.ring - 1)) c;
  t.len <- t.len + 1

(* Examine up to [k] more head entries: return the first retirable one,
   rotating the others to the tail, or [Node.none]. Top level so an
   acquire builds no closure. *)
let rec scan t ~now ~budget k =
  if k = 0 || t.len = 0 then begin
    Obs.Histogram.observe t.scan_len (budget - k);
    Node.none
  end
  else
    let c = pop_head t in
    if retirable t.nodes ~now c then begin
      Obs.Histogram.observe t.scan_len (budget - k + 1);
      c
    end
    else begin
      push_tail t c;
      scan t ~now ~budget (k - 1)
    end

let acquire t ~now =
  (* Below capacity, allocate fresh nodes — the paper's pre-allocated 1M
     pool behaves this way, which is what keeps completed instances
     addressable long enough to report large-Tdep edges. At capacity,
     examine up to [scan_limit] entries from the head (the oldest
     completions); entries not yet retirable are rotated to the tail. *)
  if Obs.Counter.get t.allocated < t.capacity then begin
    (* A below-capacity acquire examines zero queue entries; record it so
       the histogram's count tracks every acquire and the mean reads as
       "entries examined per acquire" even for runs that never reach
       capacity (BENCH_2's count:0 artifact). *)
    Obs.Histogram.observe t.scan_len 0;
    fresh t
  end
  else
    let budget = min t.scan_limit t.len in
    let c = scan t ~now ~budget budget in
    if c >= 0 then begin
      Obs.Counter.incr t.reused;
      c
    end
    else fresh t

let release t c = push_tail t c
let allocated t = Obs.Counter.get t.allocated
let reused t = Obs.Counter.get t.reused
let size t = t.len
let words t = Node.words t.nodes + Array.length t.ring

let register_obs t reg =
  Obs.Registry.register_counter reg "pool.allocated" t.allocated;
  Obs.Registry.register_counter reg "pool.reused" t.reused;
  Obs.Registry.register_histogram reg "pool.scan_len" t.scan_len
