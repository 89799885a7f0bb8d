type t = {
  pool : Construct_pool.t;
  nodes : Node.store;
  mutable stack : Node.t array;
  mutable sp : int;
  mutable time : int;
  o_depth : Obs.Gauge.t;
  on_push : Node.store -> Node.t -> unit;
  on_pop : Node.store -> Node.t -> unit;
}

let create ?scan_limit ?pool_capacity ?(on_push = fun _ _ -> ())
    ?(on_pop = fun _ _ -> ()) () =
  let pool = Construct_pool.create ?scan_limit ?capacity:pool_capacity () in
  {
    pool;
    nodes = Construct_pool.nodes pool;
    stack = Array.make 64 Node.none;
    sp = 0;
    time = 0;
    o_depth = Obs.Gauge.make ();
    on_push;
    on_pop;
  }

let nodes t = t.nodes
let[@inline] now t = t.time
let[@inline] tick t = t.time <- t.time + 1
let[@inline] bulk_tick t n = t.time <- t.time + n
let[@inline] set_now t n = t.time <- n
let[@inline] depth t = t.sp
let top t = if t.sp = 0 then None else Some t.stack.(t.sp - 1)

(* Option-free [top] for per-instruction hot paths: the boxing in [top]
   is one minor-heap allocation per call, which at one call per executed
   instruction is the profiler's single largest allocation source. *)
let[@inline] peek t = t.stack.(t.sp - 1)

let push t ~label ~is_func =
  let c = Construct_pool.acquire t.pool ~now:t.time in
  let parent = if t.sp = 0 then Node.none else t.stack.(t.sp - 1) in
  Node.start t.nodes c ~label ~is_func ~tenter:t.time ~parent;
  if t.sp = Array.length t.stack then begin
    let stack = Array.make (2 * t.sp) Node.none in
    Array.blit t.stack 0 stack 0 t.sp;
    t.stack <- stack
  end;
  t.stack.(t.sp) <- c;
  t.sp <- t.sp + 1;
  Obs.Gauge.set t.o_depth t.sp;
  t.on_push t.nodes c;
  c

let pop t =
  if t.sp = 0 then invalid_arg "Index_tree.pop: empty stack";
  t.sp <- t.sp - 1;
  let c = t.stack.(t.sp) in
  Node.set_texit t.nodes c t.time;
  t.on_pop t.nodes c;
  Construct_pool.release t.pool c;
  c

(* Stack index of the nearest non-function node labelled [label] at or
   below [i], searching down to (not through) the nearest function node;
   -1 if there is none. Top level, so a loop-branch event builds no
   closure. *)
let rec find_through t ~label i =
  if i < 0 then -1
  else
    let c = t.stack.(i) in
    if Node.is_func t.nodes c then -1
    else if Node.label t.nodes c = label then i
    else find_through t ~label (i - 1)

let pop_through t ~label =
  let i = find_through t ~label (t.sp - 1) in
  if i < 0 then false
  else begin
    while t.sp > i do
      ignore (pop t)
    done;
    true
  end

let index_of_top t = List.init t.sp (fun i -> Node.label t.nodes t.stack.(i))

let pool_allocated t = Construct_pool.allocated t.pool
let pool_reused t = Construct_pool.reused t.pool
let pool_words t = Construct_pool.words t.pool

let register_obs t reg =
  Obs.Registry.register_gauge reg "tree.depth" t.o_depth;
  Construct_pool.register_obs t.pool reg

let stats t =
  Printf.sprintf "depth=%d time=%d pool_allocated=%d pool_reused=%d pool_size=%d"
    t.sp t.time
    (Construct_pool.allocated t.pool)
    (Construct_pool.reused t.pool)
    (Construct_pool.size t.pool)
