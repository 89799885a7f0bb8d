(* Lowering: stack bytecode -> register IR.

   Each function is lowered independently over its {!Cfa.Cfg} basic
   blocks by symbolic evaluation of the operand stack: every stack slot
   is a descriptor (register, folded constant, or frame ref), so pushes
   and pops become descriptor motion and only instructions with effects
   — memory, control, calls, possible traps — emit segmented IR. At
   block boundaries the symbolic stack is canonicalized into the S
   registers (see {!Instr}), which is what makes control-flow joins
   meet.

   The lowering is a {e per-run} step: the hook configuration and prune
   mask are known, so pruned global loads become pure register loads and
   event flags are baked into the IR.

   Anything the lowering cannot prove consistent — operand-stack depth
   mismatches at joins, depth <> 1 at [Ret], address-taken scalar slots,
   a nonstandard preamble — aborts the whole compilation ([None]); the
   caller falls back to the switch interpreter. Compiler-produced
   programs always lower. *)

open Instr

type func_ir = {
  ff : Vm.Program.func_info;
  ir_first : int;  (** global IR pc of the function entry *)
  ir_count : int;
  nvregs : int;
}

type t = {
  prog : Vm.Program.t;
  instrs : Instr.t array;
  entry_ir : int array;  (** fid -> global IR pc *)
  fid_of_ir : int array;  (** IR pc -> fid; -1 for the preamble *)
  funcs : func_ir array;
  n_stack_pcs : int;
}

exception Bail

(* ---- operand-stack effect of one stack instruction --------------------- *)

let stack_effect (funcs : Vm.Program.func_info array) (i : Vm.Instr.t) =
  match i with
  | Const _ | LoadLocal _ | LoadGlobal _ | MakeRefGlobal _ | MakeRefLocal _ ->
      (0, 1)
  | StoreLocal _ | StoreGlobal _ | Pop | Print | Br _ -> (1, 0)
  | LoadIndex -> (2, 1)
  | StoreIndex -> (3, 0)
  | Binop _ -> (2, 1)
  | Unop _ -> (1, 1)
  | Jmp _ -> (0, 0)
  | Dup2 -> (2, 4)
  | Call fid -> (funcs.(fid).nparams, 1)
  | Ret -> (1, 0)
  | Halt -> raise Bail

(* ---- scalar frame slots -> L registers ---------------------------------

   Only the slots a [LoadLocal]/[StoreLocal] names get a virtual
   register: a local array's cells stay in frame memory, reached through
   [RefL] operands. The parameters come first, so parameter [i] is vreg
   [i] ({!Exec}'s [CallI] writes argument [i] there, and {!Regalloc}
   models the parameters' entry interference on vregs [0..nparams-1]);
   the other named slots follow in slot order. Everything sized by the L
   registers (the slot types and the interference matrix) then grows
   with the code, never with the extent of a local array. *)

type lregs = {
  slot_of : int array;  (** L vreg -> frame slot *)
  vreg_of : (int, int) Hashtbl.t;  (** named frame slot -> L vreg *)
}

let scalar_slots (prog : Vm.Program.t) (f : Vm.Program.func_info) =
  let named = Hashtbl.create 16 in
  for pc = f.entry to f.code_end - 1 do
    match prog.code.(pc) with
    | Vm.Instr.LoadLocal s | StoreLocal s ->
        if s < 0 || s >= f.frame_slots then raise Bail;
        Hashtbl.replace named s ()
    | _ -> ()
  done;
  (* a scalar slot must not be address-taken via a local array ref *)
  let covered = Vm.Ranges.local_refs prog f in
  Hashtbl.iter (fun s () -> if Vm.Ranges.mem covered s then raise Bail) named;
  for s = 0 to f.nparams - 1 do
    Hashtbl.replace named s ()
  done;
  let slot_of = Array.of_seq (Hashtbl.to_seq_keys named) in
  Array.sort Int.compare slot_of;
  let vreg_of = Hashtbl.create (Array.length slot_of) in
  Array.iteri (fun v s -> Hashtbl.replace vreg_of s v) slot_of;
  { slot_of; vreg_of }

let vreg lr s = Hashtbl.find lr.vreg_of s

(* ---- whole-program type analysis ---------------------------------------

   A tiny three-point lattice ('i' < '?', 'r' < '?') over stack entries,
   L registers, the global scalar cells, the array cells, and function
   returns, iterated to a program-wide fixpoint. In well-typed Mini-C
   everything but refs comes out 'i', which is what lets the emitter
   elide almost every runtime tag check. *)

let lub a b = if a = b then a else ty_unk

type fstate = {
  cfg : Cfa.Cfg.t;
  entry_d : int array;  (** per block; -1 = not yet reached *)
  entry_t : char array array;  (** per block, bottom to top *)
  mutable maxd : int;
}

type tstate = {
  mutable gscalar : char;
  mutable cells : char;
  fret : char array;
  lregs : lregs array;  (** per fid *)
  slot_ty : char array array;  (** per fid, per L register *)
  fs : fstate array;
  mutable dirty : bool;
}

let analyze_types (prog : Vm.Program.t) =
  let funcs = prog.funcs in
  let lregs = Array.map (scalar_slots prog) funcs in
  let ts =
    {
      gscalar = ty_int;
      cells = ty_int;
      fret = Array.make (Array.length funcs) ty_int;
      lregs;
      slot_ty =
        Array.map2
          (fun (f : Vm.Program.func_info) lr ->
            Array.map
              (fun s ->
                if s < f.nparams && f.param_is_array.(s) then ty_ref
                else ty_int)
              lr.slot_of)
          funcs lregs;
      fs =
        Array.map
          (fun (f : Vm.Program.func_info) ->
            let cfg = Cfa.Cfg.build prog f in
            let nb = Array.length cfg.Cfa.Cfg.blocks in
            {
              cfg;
              entry_d = Array.make nb (-1);
              entry_t = Array.make nb [||];
              maxd = 0;
            })
          funcs;
      dirty = true;
    }
  in
  let raise_ty cur v = if lub cur v <> cur then (ts.dirty <- true; lub cur v) else cur in
  let step_func (f : Vm.Program.func_info) (fst_ : fstate) =
    let cfg = fst_.cfg in
    let code = prog.code in
    let lr = ts.lregs.(f.fid) and tys = ts.slot_ty.(f.fid) in
    (* seed the entry block *)
    if fst_.entry_d.(cfg.Cfa.Cfg.entry_bid) < 0 then begin
      fst_.entry_d.(cfg.Cfa.Cfg.entry_bid) <- 0;
      fst_.entry_t.(cfg.Cfa.Cfg.entry_bid) <- [||];
      ts.dirty <- true
    end;
    let join bid d (tys : char list) =
      (* [tys] is top-to-bottom; store bottom-to-top *)
      let arr = Array.of_list (List.rev tys) in
      if fst_.entry_d.(bid) < 0 then begin
        fst_.entry_d.(bid) <- d;
        fst_.entry_t.(bid) <- arr;
        ts.dirty <- true
      end
      else begin
        if fst_.entry_d.(bid) <> d then raise Bail;
        let cur = fst_.entry_t.(bid) in
        Array.iteri
          (fun i v ->
            let l = lub cur.(i) v in
            if l <> cur.(i) then begin
              cur.(i) <- l;
              ts.dirty <- true
            end)
          arr
      end
    in
    Array.iter
      (fun (b : Cfa.Cfg.block) ->
        if fst_.entry_d.(b.bid) >= 0 then begin
          let stk = ref (List.rev (Array.to_list fst_.entry_t.(b.bid))) in
          let depth () = List.length !stk in
          if depth () > fst_.maxd then fst_.maxd <- depth ();
          let pop () =
            match !stk with
            | x :: r ->
                stk := r;
                x
            | [] -> raise Bail
          in
          let push v =
            stk := v :: !stk;
            if depth () > fst_.maxd then fst_.maxd <- depth ()
          in
          for pc = b.first to b.last do
            match code.(pc) with
            | Vm.Instr.Const _ -> push ty_int
            | LoadLocal s -> push tys.(vreg lr s)
            | StoreLocal s ->
                let v = pop () and l = vreg lr s in
                tys.(l) <- raise_ty tys.(l) v
            | LoadGlobal _ -> push ts.gscalar
            | StoreGlobal _ ->
                let v = pop () in
                ts.gscalar <- raise_ty ts.gscalar v
            | MakeRefGlobal _ | MakeRefLocal _ -> push ty_ref
            | LoadIndex ->
                let _ix = pop () and _r = pop () in
                push ts.cells
            | StoreIndex ->
                let v = pop () and _ix = pop () and _r = pop () in
                ts.cells <- raise_ty ts.cells v
            | Binop _ ->
                let _b = pop () and _a = pop () in
                push ty_int
            | Unop _ ->
                let _a = pop () in
                push ty_int
            | Jmp t ->
                join cfg.Cfa.Cfg.block_of_pc.(t - f.entry) (depth ()) !stk
            | Br { target; _ } ->
                let _c = pop () in
                join cfg.Cfa.Cfg.block_of_pc.(target - f.entry) (depth ()) !stk;
                if pc + 1 >= f.code_end then raise Bail;
                join cfg.Cfa.Cfg.block_of_pc.(pc + 1 - f.entry) (depth ()) !stk
            | Dup2 ->
                let y = pop () and x = pop () in
                push x;
                push y;
                push x;
                push y
            | Call fid ->
                let callee = prog.funcs.(fid) in
                (* argument tags flow into the callee's parameter
                   registers; the k-th pop (top first) is parameter
                   [nparams-1-k], which is L register [nparams-1-k] *)
                for k = 0 to callee.nparams - 1 do
                  let v = pop () in
                  let s = callee.nparams - 1 - k in
                  ts.slot_ty.(fid).(s) <- raise_ty ts.slot_ty.(fid).(s) v
                done;
                push ts.fret.(fid)
            | Ret ->
                let v = pop () in
                if depth () <> 0 then raise Bail;
                ts.fret.(f.fid) <- raise_ty ts.fret.(f.fid) v
            | Pop -> ignore (pop ())
            | Print -> ignore (pop ())
            | Halt -> raise Bail
          done;
          (* fallthrough edge of a block not ended by control *)
          (match code.(b.last) with
          | Jmp _ | Br _ | Ret | Halt -> ()
          | _ ->
              if b.last + 1 < f.code_end then
                join cfg.Cfa.Cfg.block_of_pc.(b.last + 1 - f.entry) (depth ())
                  !stk
              else raise Bail)
        end)
      cfg.Cfa.Cfg.blocks
  in
  while ts.dirty do
    ts.dirty <- false;
    Array.iter (fun (f : Vm.Program.func_info) -> step_func f ts.fs.(f.fid)) funcs
  done;
  ts

(* ---- per-function emission --------------------------------------------- *)

type femit = {
  mutable out : Instr.t list;  (** reversed *)
  mutable ntmp : int;
  mutable block_start : int array;  (** local bid -> local IR index; -1 *)
  mutable count : int;
}

let lower_function (prog : Vm.Program.t) (ts : tstate)
    (f : Vm.Program.func_info) ~pruned ~hooked =
  let code = prog.code in
  let fst_ = ts.fs.(f.fid) in
  let cfg = fst_.cfg in
  let lr = ts.lregs.(f.fid) and tys = ts.slot_ty.(f.fid) in
  let sbase = Array.length lr.slot_of in
  let em =
    {
      out = [];
      ntmp = sbase + fst_.maxd;
      block_start = Array.make (Array.length cfg.Cfa.Cfg.blocks) (-1);
      count = 0;
    }
  in
  let newtmp () =
    let t = em.ntmp in
    em.ntmp <- t + 1;
    t
  in
  let emit i =
    em.out <- i :: em.out;
    em.count <- em.count + 1
  in
  let seg_counts lo hi =
    let r = ref 0 and w = ref 0 in
    for q = lo to hi do
      match code.(q) with
      | Vm.Instr.LoadLocal _ | LoadGlobal _ | LoadIndex -> incr r
      | StoreLocal _ | StoreGlobal _ | StoreIndex -> incr w
      | _ -> ()
    done;
    (!r, !w)
  in
  let bid_of_pc pc = cfg.Cfa.Cfg.block_of_pc.(pc - f.entry) in
  Array.iter
    (fun (b : Cfa.Cfg.block) ->
      if fst_.entry_d.(b.bid) >= 0 then begin
        em.block_start.(b.bid) <- em.count;
        (* symbolic stack, head = top *)
        let entry =
          List.rev
            (Array.to_list
               (Array.mapi
                  (fun i t -> (Reg (sbase + i), t))
                  fst_.entry_t.(b.bid)))
        in
        let sym = ref entry in
        let seg_lo = ref b.first in
        let pop () =
          match !sym with
          | x :: r ->
              sym := r;
              x
          | [] -> raise Bail
        in
        let push o = sym := o :: !sym in
        let emit_pure kind ~epc =
          emit
            {
              kind;
              epc;
              seg_lo = 1;
              seg_hi = 0;
              moves = [||];
              d_reads = 0;
              d_writes = 0;
            }
        in
        let emit_seg ?(moves = [||]) kind ~pc =
          let lo = !seg_lo in
          let dr, dw = seg_counts lo pc in
          emit
            {
              kind;
              epc = pc;
              seg_lo = lo;
              seg_hi = pc;
              moves;
              d_reads = dr;
              d_writes = dw;
            };
          seg_lo := pc + 1
        in
        let materialize v ~pc =
          if List.exists (fun (o, _) -> o = Reg v) !sym then begin
            let t = newtmp () in
            emit_pure (Mov { dst = t; src = Reg v; ty = tys.(v) }) ~epc:pc;
            sym :=
              List.map
                (fun (o, tyo) -> if o = Reg v then (Reg t, tyo) else (o, tyo))
                !sym
          end
        in
        let canon_moves () =
          let arr = Array.of_list (List.rev !sym) in
          let ms = ref [] in
          Array.iteri
            (fun i (o, ty) ->
              if o <> Reg (sbase + i) then
                ms := { m_dst = sbase + i; m_src = o; m_ty = ty } :: !ms)
            arr;
          Array.of_list (List.rev !ms)
        in
        let safe_binop (op : Minic.Ast.binop) =
          match op with
          | Div | Mod | Shl | Shr | LogAnd | LogOr -> false
          | _ -> true
        in
        let fold_binop (op : Minic.Ast.binop) a b =
          match op with
          | Add -> a + b
          | Sub -> a - b
          | Mul -> a * b
          | BitAnd -> a land b
          | BitOr -> a lor b
          | BitXor -> a lxor b
          | Lt -> if a < b then 1 else 0
          | Le -> if a <= b then 1 else 0
          | Gt -> if a > b then 1 else 0
          | Ge -> if a >= b then 1 else 0
          | Eq -> if a = b then 1 else 0
          | Ne -> if a <> b then 1 else 0
          | Div | Mod | Shl | Shr | LogAnd | LogOr -> assert false
        in
        for pc = b.first to b.last do
          match code.(pc) with
          | Vm.Instr.Const n -> push (Imm n, ty_int)
          | LoadLocal s ->
              let l = vreg lr s in
              push (Reg l, tys.(l))
          | StoreLocal s ->
              let l = vreg lr s in
              materialize l ~pc;
              let v, vty = pop () in
              emit_seg (Mov { dst = l; src = v; ty = vty }) ~pc
          | LoadGlobal addr ->
              let t = newtmp () in
              let gty = ts.gscalar in
              if hooked && not (pruned pc) then begin
                push (Reg t, gty);
                emit_seg (LoadG { dst = t; addr; ev = true }) ~pc
              end
              else begin
                emit_pure (LoadG { dst = t; addr; ev = false }) ~epc:pc;
                push (Reg t, gty)
              end
          | StoreGlobal addr ->
              let v, vty = pop () in
              emit_seg
                (StoreG { addr; v; tv = vty; ev = hooked && not (pruned pc) })
                ~pc
          | MakeRefGlobal (base, len) ->
              push (Imm (Vm.Vmstate.pack_ref base len), ty_ref)
          | MakeRefLocal (off, len) -> push (RefL (off, len), ty_ref)
          | LoadIndex ->
              let ix, ixty = pop () in
              let r, rty = pop () in
              let t = newtmp () in
              push (Reg t, ts.cells);
              emit_seg
                (LoadIx
                   {
                     dst = t;
                     r;
                     ix;
                     tr = rty;
                     tix = ixty;
                     ev = hooked && not (pruned pc);
                   })
                ~pc
          | StoreIndex ->
              let v, vty = pop () in
              let ix, ixty = pop () in
              let r, rty = pop () in
              emit_seg
                (StoreIx
                   {
                     r;
                     ix;
                     v;
                     tr = rty;
                     tix = ixty;
                     tv = vty;
                     ev = hooked && not (pruned pc);
                   })
                ~pc
          | Binop op ->
              let bo, bty = pop () in
              let ao, aty = pop () in
              if safe_binop op && aty = ty_int && bty = ty_int then
                match (ao, bo) with
                | Imm x, Imm y -> push (Imm (fold_binop op x y), ty_int)
                | _ ->
                    let t = newtmp () in
                    emit_pure
                      (Bin
                         { dst = t; op; a = ao; b = bo; ta = ty_int; tb = ty_int })
                      ~epc:pc;
                    push (Reg t, ty_int)
              else begin
                let t = newtmp () in
                push (Reg t, ty_int);
                emit_seg (Bin { dst = t; op; a = ao; b = bo; ta = aty; tb = bty }) ~pc
              end
          | Unop op ->
              let ao, aty = pop () in
              if aty = ty_int then
                match ao with
                | Imm x -> push (Imm (Vm.Vmstate.eval_unop op x), ty_int)
                | _ ->
                    let t = newtmp () in
                    emit_pure (Un { dst = t; op; a = ao; ta = ty_int }) ~epc:pc;
                    push (Reg t, ty_int)
              else begin
                let t = newtmp () in
                push (Reg t, ty_int);
                emit_seg (Un { dst = t; op; a = ao; ta = aty }) ~pc
              end
          | Jmp target ->
              let moves = canon_moves () in
              emit_seg ~moves (JmpI (bid_of_pc target)) ~pc
          | Br { target; kind; cid } ->
              let c, cty = pop () in
              let moves = canon_moves () in
              emit_seg ~moves
                (BrI { c; tc = cty; target = bid_of_pc target; bkind = kind; cid })
                ~pc
          | Dup2 -> (
              match !sym with
              | y :: x :: rest -> sym := y :: x :: y :: x :: rest
              | _ -> raise Bail)
          | Call fid ->
              let callee = prog.funcs.(fid) in
              let rec take n acc =
                if n = 0 then acc
                else
                  let x = pop () in
                  take (n - 1) (x :: acc)
              in
              (* head of [sym] is the last argument; [take] rebuilds
                 first-param-first order *)
              let args = Array.of_list (take callee.nparams []) in
              let dst = newtmp () in
              let ci =
                {
                  ci_fid = fid;
                  ci_args = Array.map fst args;
                  ci_atags =
                    String.init (Array.length args) (fun i -> snd args.(i));
                  ci_dst = dst;
                }
              in
              push (Reg dst, ts.fret.(fid));
              emit_seg (CallI ci) ~pc
          | Ret ->
              let v, vty = pop () in
              emit_seg (RetI { v; vt = vty }) ~pc
          | Pop -> ignore (pop ())
          | Print ->
              let v, vty = pop () in
              emit_seg (PrintI { v; tv = vty }) ~pc
          | Halt -> raise Bail
        done;
        (* block not ended by a control transfer: cover any trailing pure
           pcs and canonicalize for the fallthrough successor *)
        (match code.(b.last) with
        | Jmp _ | Br _ | Ret | Halt -> ()
        | _ ->
            let moves = canon_moves () in
            if !seg_lo <= b.last then emit_seg ~moves EndB ~pc:b.last
            else if Array.length moves > 0 then
              emit
                {
                  kind = EndB;
                  epc = -1;
                  seg_lo = 1;
                  seg_hi = 0;
                  moves;
                  d_reads = 0;
                  d_writes = 0;
                })
      end)
    cfg.Cfa.Cfg.blocks;
  let instrs = Array.of_list (List.rev em.out) in
  (instrs, em.block_start, em.ntmp)

(* ---- program assembly --------------------------------------------------- *)

let lower ~hooked ~pruned (prog : Vm.Program.t) =
  try
    let funcs = prog.funcs in
    if Array.length funcs = 0 then raise Bail;
    (match (prog.code.(0), prog.code.(1)) with
    | Vm.Instr.Call fid, Vm.Instr.Halt when fid = prog.main_fid -> ()
    | _ -> raise Bail);
    let ts = analyze_types prog in
    let lowered =
      Array.map (fun f -> lower_function prog ts f ~pruned ~hooked) funcs
    in
    let entry_ir = Array.make (Array.length funcs) 0 in
    let base = ref 2 in
    Array.iteri
      (fun fid (instrs, _, _) ->
        entry_ir.(fid) <- !base;
        base := !base + Array.length instrs)
      lowered;
    let total = !base in
    let main = prog.main_fid in
    let preamble_call =
      {
        kind =
          CallI { ci_fid = main; ci_args = [||]; ci_atags = ""; ci_dst = 0 };
        epc = 0;
        seg_lo = 0;
        seg_hi = 0;
        moves = [||];
        d_reads = 0;
        d_writes = 0;
      }
    in
    let preamble_halt =
      {
        kind = HaltI { v = Reg 0; tv = ts.fret.(main) };
        epc = 1;
        seg_lo = 1;
        seg_hi = 1;
        moves = [||];
        d_reads = 0;
        d_writes = 0;
      }
    in
    let all = Array.make total preamble_call in
    all.(1) <- preamble_halt;
    let fid_of_ir = Array.make total (-1) in
    Array.iteri
      (fun fid (instrs, block_start, _) ->
        let b0 = entry_ir.(fid) in
        let patch_target bid =
          if bid < 0 || block_start.(bid) < 0 then raise Bail;
          b0 + block_start.(bid)
        in
        Array.iteri
          (fun i ins ->
            let ins =
              match ins.kind with
              | JmpI bid -> { ins with kind = JmpI (patch_target bid) }
              | BrI br -> { ins with kind = BrI { br with target = patch_target br.target } }
              | _ -> ins
            in
            all.(b0 + i) <- ins;
            fid_of_ir.(b0 + i) <- fid)
          instrs)
      lowered;
    let fis =
      Array.mapi
        (fun fid (f : Vm.Program.func_info) ->
          let instrs, _, ntmp = lowered.(fid) in
          {
            ff = f;
            ir_first = entry_ir.(fid);
            ir_count = Array.length instrs;
            nvregs = ntmp;
          })
        funcs
    in
    Some
      {
        prog;
        instrs = all;
        entry_ir;
        fid_of_ir;
        funcs = fis;
        n_stack_pcs = Array.length prog.code;
      }
  with Bail -> None
