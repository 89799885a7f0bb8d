(* The VM runtime core shared by both execution engines (the switch
   interpreter in [Machine] and the register-IR engine in [Ir.Exec]):
   the mutable machine state, the unboxed value representation, the
   operand-stack and memory primitives, and the operator evaluators.

   Keeping this in one module is what makes the engines differentially
   testable down to the metric: both manipulate the exact same state with
   the exact same primitives, so any divergence is a dispatch bug, not a
   semantics drift. *)

exception Trap of string * int
exception Halted of int

type metrics = {
  reads : int;
  writes : int;
  calls : int;
  branches : int;
  frames_released : int;
  max_call_depth : int;
  mem_high_water : int;
}

type result = {
  exit_value : int;
  instructions : int;
  output : int list;
  metrics : metrics;
}

(* Values are unboxed: the payload lives in an [int array] and a one-byte
   tag in a parallel [Bytes.t] ('\000' = integer, '\001' = array
   reference). An array reference packs (base, len) into a single int as
   [base lor (len lsl 31)] — base fits 31 bits (2^31 memory slots is far
   beyond any workload here), leaving 32 bits for the length. The
   interpreter hot loop therefore never allocates: no boxed [value]
   constructors, no per-call argument array. *)

let tag_int = '\000'
let tag_ref = '\001'
let ref_shift = 31
let ref_mask = (1 lsl ref_shift) - 1
let pack_ref base len = base lor (len lsl ref_shift)
let ref_base v = v land ref_mask
let ref_len v = v lsr ref_shift

type state = {
  prog : Program.t;
  mutable mem : int array;
  mutable mem_tag : Bytes.t;
  mutable stack : int array;  (* operand stack *)
  mutable stack_tag : Bytes.t;
  mutable sp : int;
  mutable frame_base : int;
  mutable stack_top : int;  (* next free memory address *)
  (* call records, struct-of-arrays: return pc, saved frame base, fid *)
  mutable call_ret : int array;
  mutable call_base : int array;
  mutable call_fid : int array;
  mutable depth : int;
  max_depth : int;
  mutable out : int list;
  mutable instructions : int;
  (* telemetry: plain int counters so the hot loop stays allocation-free;
     published as a [metrics] record in the result *)
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_calls : int;
  mutable n_branches : int;
  mutable n_frames_released : int;
  mutable depth_hwm : int;
  mutable mem_hwm : int;
}

let trap st pc fmt =
  ignore st;
  Printf.ksprintf (fun msg -> raise (Trap (msg, pc))) fmt

let ensure_mem st needed =
  let n = Array.length st.mem in
  if needed > n then begin
    let cap = max (2 * n) needed in
    let mem = Array.make cap 0 in
    Array.blit st.mem 0 mem 0 n;
    st.mem <- mem;
    let mem_tag = Bytes.make cap tag_int in
    Bytes.blit st.mem_tag 0 mem_tag 0 n;
    st.mem_tag <- mem_tag
  end

let[@inline never] grow_stack st =
  let stack = Array.make (2 * st.sp) 0 in
  Array.blit st.stack 0 stack 0 st.sp;
  st.stack <- stack;
  let stack_tag = Bytes.make (2 * st.sp) tag_int in
  Bytes.blit st.stack_tag 0 stack_tag 0 st.sp;
  st.stack_tag <- stack_tag

let[@inline] push st v tag =
  if st.sp = Array.length st.stack then grow_stack st;
  st.stack.(st.sp) <- v;
  Bytes.unsafe_set st.stack_tag st.sp tag;
  st.sp <- st.sp + 1

(* Pops a slot and returns its index; the caller reads value and tag from
   the (still valid) popped position. *)
let[@inline] pop_slot st pc =
  if st.sp = 0 then trap st pc "operand stack underflow";
  st.sp <- st.sp - 1;
  st.sp

let[@inline] pop_int st pc =
  let i = pop_slot st pc in
  if Bytes.unsafe_get st.stack_tag i <> tag_int then
    trap st pc "expected integer, found array reference";
  st.stack.(i)

let[@inline] pop_ref st pc =
  let i = pop_slot st pc in
  if Bytes.unsafe_get st.stack_tag i <> tag_ref then
    trap st pc "expected array reference, found integer";
  st.stack.(i)

let eval_binop st pc (op : Minic.Ast.binop) a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then trap st pc "division by zero" else a / b
  | Mod -> if b = 0 then trap st pc "modulo by zero" else a mod b
  | Shl ->
      if b < 0 || b > 62 then trap st pc "shift amount %d out of range" b
      else a lsl b
  | Shr ->
      if b < 0 || b > 62 then trap st pc "shift amount %d out of range" b
      else a asr b
  | BitAnd -> a land b
  | BitOr -> a lor b
  | BitXor -> a lxor b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | LogAnd | LogOr ->
      trap st pc "short-circuit operator reached the interpreter"

let eval_unop (op : Minic.Ast.unop) a =
  match op with
  | Neg -> -a
  | LogNot -> if a = 0 then 1 else 0
  | BitNot -> lnot a

let create ?(max_depth = 10_000) (prog : Program.t) =
  let mem_cap = max prog.globals_size 1024 in
  let st =
    {
      prog;
      mem = Array.make mem_cap 0;
      mem_tag = Bytes.make mem_cap tag_int;
      stack = Array.make 256 0;
      stack_tag = Bytes.make 256 tag_int;
      sp = 0;
      frame_base = 0;
      stack_top = prog.globals_size;
      call_ret = Array.make 64 0;
      call_base = Array.make 64 0;
      call_fid = Array.make 64 0;
      depth = 0;
      max_depth;
      out = [];
      instructions = 0;
      n_reads = 0;
      n_writes = 0;
      n_calls = 0;
      n_branches = 0;
      n_frames_released = 0;
      depth_hwm = 0;
      mem_hwm = 0;
    }
  in
  ensure_mem st prog.globals_size;
  List.iter (fun (addr, v) -> st.mem.(addr) <- v) prog.global_inits;
  st

let[@inline never] grow_call_records st =
  let grow a =
    let b = Array.make (2 * st.depth) 0 in
    Array.blit a 0 b 0 st.depth;
    b
  in
  st.call_ret <- grow st.call_ret;
  st.call_base <- grow st.call_base;
  st.call_fid <- grow st.call_fid

let finish st exit_value =
  {
    exit_value;
    instructions = st.instructions;
    output = List.rev st.out;
    metrics =
      {
        reads = st.n_reads;
        writes = st.n_writes;
        calls = st.n_calls;
        branches = st.n_branches;
        frames_released = st.n_frames_released;
        max_call_depth = st.depth_hwm;
        mem_high_water = st.mem_hwm;
      };
  }
