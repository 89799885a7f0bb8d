open Vmstate

exception Trap = Vmstate.Trap

type metrics = Vmstate.metrics = {
  reads : int;
  writes : int;
  calls : int;
  branches : int;
  frames_released : int;
  max_call_depth : int;
  mem_high_water : int;
}

type result = Vmstate.result = {
  exit_value : int;
  instructions : int;
  output : int list;
  metrics : metrics;
}

type engine = Switch | Register

let engine_to_string = function
  | Switch -> "switch"
  | Register -> "register"

(* The reference switch loop: one [match] per executed instruction,
   [hooked]/[trace_locals] tested at run time. Kept as the semantic
   baseline the register-IR backend ([Ir.Exec]) is differentially tested
   against — see test/test_engines.ml. *)
let switch_loop ~hooked ~hook_locals ~pruned (hooks : Hooks.t) ~fuel
    (st : state) (prog : Program.t) =
  let code = prog.code in
  let funcs = prog.funcs in
  let pc = ref 0 in
  let exit_value =
    try
     while true do
       let p = !pc in
       if st.instructions >= fuel then trap st p "out of fuel";
       st.instructions <- st.instructions + 1;
       if hooked then hooks.on_instr ~pc:p;
       (match code.(p) with
        | Const n ->
            push st n tag_int;
            incr pc
        | LoadLocal s ->
            let addr = st.frame_base + s in
            st.n_reads <- st.n_reads + 1;
            if hook_locals then hooks.on_read ~pc:p ~addr;
            push st st.mem.(addr) (Bytes.unsafe_get st.mem_tag addr);
            incr pc
        | StoreLocal s ->
            let addr = st.frame_base + s in
            let i = pop_slot st p in
            st.n_writes <- st.n_writes + 1;
            if hook_locals then hooks.on_write ~pc:p ~addr;
            st.mem.(addr) <- st.stack.(i);
            Bytes.unsafe_set st.mem_tag addr (Bytes.unsafe_get st.stack_tag i);
            incr pc
        | LoadGlobal addr ->
            st.n_reads <- st.n_reads + 1;
            if hooked && not (pruned p) then hooks.on_read ~pc:p ~addr;
            push st st.mem.(addr) (Bytes.unsafe_get st.mem_tag addr);
            incr pc
        | StoreGlobal addr ->
            let i = pop_slot st p in
            st.n_writes <- st.n_writes + 1;
            if hooked && not (pruned p) then hooks.on_write ~pc:p ~addr;
            st.mem.(addr) <- st.stack.(i);
            Bytes.unsafe_set st.mem_tag addr (Bytes.unsafe_get st.stack_tag i);
            incr pc
        | MakeRefGlobal (base, len) ->
            push st (pack_ref base len) tag_ref;
            incr pc
        | MakeRefLocal (off, len) ->
            push st (pack_ref (st.frame_base + off) len) tag_ref;
            incr pc
        | LoadIndex ->
            let idx = pop_int st p in
            let r = pop_ref st p in
            let base = ref_base r and len = ref_len r in
            if idx < 0 || idx >= len then
              trap st p "index %d out of bounds [0,%d)" idx len;
            let addr = base + idx in
            st.n_reads <- st.n_reads + 1;
            if hooked && not (pruned p) then hooks.on_read ~pc:p ~addr;
            push st st.mem.(addr) (Bytes.unsafe_get st.mem_tag addr);
            incr pc
        | StoreIndex ->
            let i = pop_slot st p in
            let v = st.stack.(i) in
            let vtag = Bytes.unsafe_get st.stack_tag i in
            let idx = pop_int st p in
            let r = pop_ref st p in
            let base = ref_base r and len = ref_len r in
            if idx < 0 || idx >= len then
              trap st p "index %d out of bounds [0,%d)" idx len;
            let addr = base + idx in
            st.n_writes <- st.n_writes + 1;
            if hooked && not (pruned p) then hooks.on_write ~pc:p ~addr;
            st.mem.(addr) <- v;
            Bytes.unsafe_set st.mem_tag addr vtag;
            incr pc
        | Binop op ->
            let b = pop_int st p in
            let a = pop_int st p in
            push st (eval_binop st p op a b) tag_int;
            incr pc
        | Unop op ->
            let a = pop_int st p in
            push st (eval_unop op a) tag_int;
            incr pc
        | Jmp target -> pc := target
        | Br { target; kind; cid } ->
            let v = pop_int st p in
            let taken = v = 0 in
            st.n_branches <- st.n_branches + 1;
            if hooked then hooks.on_branch ~pc:p ~kind ~cid ~taken;
            pc := if taken then target else p + 1
        | Dup2 ->
            if st.sp < 2 then trap st p "dup2 on short stack";
            let i = st.sp - 2 in
            let a = st.stack.(i) and ta = Bytes.unsafe_get st.stack_tag i in
            let b = st.stack.(i + 1)
            and tb = Bytes.unsafe_get st.stack_tag (i + 1) in
            push st a ta;
            push st b tb;
            incr pc
        | Call fid ->
            if st.depth >= st.max_depth then trap st p "call stack overflow";
            let f = funcs.(fid) in
            (* Arguments sit on top of the operand stack, first param
               deepest; leave them in place and copy straight into the
               callee frame below — no intermediate array. *)
            if st.sp < f.nparams then trap st p "operand stack underflow";
            st.sp <- st.sp - f.nparams;
            (* Push the call record. *)
            if st.depth = Array.length st.call_ret then grow_call_records st;
            st.call_ret.(st.depth) <- p + 1;
            st.call_base.(st.depth) <- st.frame_base;
            st.call_fid.(st.depth) <- fid;
            st.depth <- st.depth + 1;
            (* Fresh zeroed frame. *)
            let base = st.stack_top in
            ensure_mem st (base + f.frame_slots);
            Array.fill st.mem base f.frame_slots 0;
            Bytes.fill st.mem_tag base f.frame_slots tag_int;
            st.frame_base <- base;
            st.stack_top <- base + f.frame_slots;
            st.n_calls <- st.n_calls + 1;
            if st.depth > st.depth_hwm then st.depth_hwm <- st.depth;
            if st.stack_top > st.mem_hwm then st.mem_hwm <- st.stack_top;
            if hooked then hooks.on_call ~pc:f.entry ~fid;
            for i = 0 to f.nparams - 1 do
              if hook_locals then hooks.on_write ~pc:f.entry ~addr:(base + i);
              st.mem.(base + i) <- st.stack.(st.sp + i);
              Bytes.unsafe_set st.mem_tag (base + i)
                (Bytes.unsafe_get st.stack_tag (st.sp + i))
            done;
            pc := f.entry
        | Ret ->
            let i = pop_slot st p in
            let v = st.stack.(i) in
            let vtag = Bytes.unsafe_get st.stack_tag i in
            st.depth <- st.depth - 1;
            let ret_pc = st.call_ret.(st.depth) in
            let saved_base = st.call_base.(st.depth) in
            let fid = st.call_fid.(st.depth) in
            let f = funcs.(fid) in
            if hooked then begin
              hooks.on_ret ~pc:p ~fid;
              hooks.on_frame_release ~base:st.frame_base ~size:f.frame_slots
            end;
            st.n_frames_released <- st.n_frames_released + 1;
            st.stack_top <- st.frame_base;
            st.frame_base <- saved_base;
            push st v vtag;
            pc := ret_pc
        | Pop ->
            ignore (pop_slot st p);
            incr pc
        | Print ->
            let v = pop_int st p in
            st.out <- v :: st.out;
            incr pc
        | Halt ->
            let v = if st.sp > 0 then pop_int st p else 0 in
            raise (Halted v))
      done;
      assert false
    with Halted v -> v
  in
  exit_value

let exec_switch ~hooked ?(trace_locals = true) ?prune (hooks : Hooks.t) ?fuel
    ?max_depth (prog : Program.t) =
  let hook_locals = hooked && trace_locals in
  (* Prune verdicts model the default event set only: under the -O0
     local-tracing model, frame slots form edges the mask never
     considered, so the mask is dropped rather than trusted. *)
  let pruned =
    match prune with
    | Some m when not hook_locals -> fun p -> Array.unsafe_get m p
    | _ -> fun _ -> false
  in
  let st = Vmstate.create ?max_depth prog in
  let fuel = match fuel with Some f -> f | None -> max_int in
  Vmstate.finish st
    (switch_loop ~hooked ~hook_locals ~pruned hooks ~fuel st prog)

let exec ?(engine = Switch) ~hooked ?trace_locals ?prune (hooks : Hooks.t)
    ?fuel ?max_depth prog =
  match engine with
  | Switch ->
      exec_switch ~hooked ?trace_locals ?prune hooks ?fuel ?max_depth prog
  | Register ->
      (* The register backend lives above this library (lib/ir depends on
         lib/vm); dispatch through [Ir.Engine] instead. *)
      invalid_arg "Machine.exec: register engine requires Ir.Engine"

let run ?engine ?fuel ?max_depth prog =
  exec ?engine ~hooked:false Hooks.noop ?fuel ?max_depth prog

let run_hooked ?engine ?trace_locals ?prune ?fuel ?max_depth hooks prog =
  exec ?engine ~hooked:true ?trace_locals ?prune hooks ?fuel ?max_depth prog
