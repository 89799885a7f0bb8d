(* Register-IR execution engine.

   Compiled closures over register windows: each function activation
   owns a window of physical slots in one flat register stack
   ([regs]), disjoint from the caller's, so calls are window bumps and
   parallel to the frame-memory machinery of {!Vm.Vmstate} — frame
   memory is still really allocated and zeroed (the memory high-water
   metric is identical), but scalar locals live only in registers.

   Fuel runs out inside a segment without leaving the engine. A
   segment's events, traps and effect all sit at its last pc, and every
   pc before that is a clock tick and nothing else, so when the
   reference would retire only [k] of a segment's pcs the engine ticks
   those [k] itself and traps "out of fuel" at the next one — the
   reference pc, after exactly the reference event stream.

   Registers carry no runtime tags: {!exec} runs a lowering here only
   when it proves every operand's tag ([needs_tags] is false), and
   hands any other program to the switch interpreter. *)

open Instr
module VS = Vm.Vmstate

type xstate = {
  st : VS.state;
  mutable regs : int array;
  mutable rb : int;  (** current window base *)
  mutable rtop : int;  (** one past the current window *)
  mutable c_rb : int array;  (** per call depth: saved window base *)
  mutable c_ret_ir : int array;  (** return IR pc *)
  mutable c_dst : int array;  (** caller-window-relative result slot *)
}

(* Does any static tag come out unknown? Such a lowering would need tags
   tracked at run time, which this engine does not do. *)
let needs_tags (lw : Lower.t) =
  Array.exists
    (fun (ins : Instr.t) ->
      Array.exists (fun m -> m.m_ty = ty_unk) ins.moves
      ||
      match ins.kind with
      | Mov { ty; _ } -> ty = ty_unk
      | Bin { ta; tb; _ } -> ta = ty_unk || tb = ty_unk
      | Un { ta; _ } -> ta = ty_unk
      | StoreG { tv; _ } -> tv = ty_unk
      | LoadIx { tr; tix; _ } -> tr = ty_unk || tix = ty_unk
      | StoreIx { tr; tix; tv; _ } ->
          tr = ty_unk || tix = ty_unk || tv = ty_unk
      | PrintI { tv; _ } -> tv = ty_unk
      | BrI { tc; _ } -> tc = ty_unk
      | CallI ci -> String.contains ci.ci_atags ty_unk
      | RetI { vt; _ } -> vt = ty_unk
      | HaltI { tv; _ } -> tv = ty_unk
      | LoadG _ | JmpI _ | EndB -> false)
    lw.instrs

let binfn (op : Minic.Ast.binop) : int -> int -> int =
  match op with
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | BitAnd -> ( land )
  | BitOr -> ( lor )
  | BitXor -> ( lxor )
  | Lt -> fun a b -> if a < b then 1 else 0
  | Le -> fun a b -> if a <= b then 1 else 0
  | Gt -> fun a b -> if a > b then 1 else 0
  | Ge -> fun a b -> if a >= b then 1 else 0
  | Eq -> fun a b -> if a = b then 1 else 0
  | Ne -> fun a b -> if a <> b then 1 else 0
  | Div | Mod | Shl | Shr | LogAnd | LogOr -> assert false

let run_ir ~hooked ?clock ?obs (hooks : Vm.Hooks.t) ?fuel ?max_depth
    (lw : Lower.t) =
  let prog = lw.prog in
  let st = VS.create ?max_depth prog in
  let fuel = match fuel with Some f -> f | None -> max_int in
  (* Event delivery: every hook call site below appends packed ints to
     the ring, and the real hooks only run when it drains (at capacity
     and at run exit). The sinks are resolved once here so the
     compiled closures carry no per-event branch. Ring events are
     stamped with the emitting clock ([st.instructions]); when the
     caller supplies a [clock] (the profiler and the parallelism
     simulator do), segments without a construct join never enter the
     ring at all — the drain restores the clock from the stamps
     instead. An unhooked run fires no events; its ring is a stub that
     never fills. *)
  let rg =
    if hooked then Ring.create ?obs ?clock hooks
    else Ring.create ~capacity:0 Vm.Hooks.noop
  in
  let flush_ring () = Ring.drain rg ~now:st.instructions in
  let ev_read ~pc ~addr = Ring.read rg ~pc ~addr ~tm:st.instructions in
  let ev_write ~pc ~addr = Ring.write rg ~pc ~addr ~tm:st.instructions in
  let ev_branch ~pc ~kind ~cid ~taken =
    Ring.branch rg ~pc ~kind ~cid ~taken ~tm:st.instructions
  in
  let ev_call ~pc ~fid = Ring.call rg ~pc ~fid ~tm:st.instructions in
  let ev_ret ~pc ~fid = Ring.ret rg ~pc ~fid ~tm:st.instructions in
  let ev_release ~base ~size =
    Ring.frame_release rg ~base ~size ~tm:st.instructions
  in
  (* The ring's range append, open-coded: this fires once per retired
     IR segment that must appear in the stream — without flambda a
     [Ring] function would pay a second real call just to reach a
     compare-and-stores body. Both no-call outcomes (extend the pending
     range, or start one when none is pending) stay in the closure.
     [t0] is the clock before the segment's first pc; the extend case
     keeps the pending range's own start. *)
  let ev_range lo hi t0 =
    if rg.Ring.p_hi + 1 = lo then rg.Ring.p_hi <- hi
    else begin
      if rg.Ring.p_hi <> min_int then Ring.flush_pending rg;
      rg.Ring.p_lo <- lo;
      rg.Ring.p_hi <- hi;
      rg.Ring.p_t <- t0
    end
  in
  (* Must a segment appear in the event stream? Without a [clock] every
     segment must; with one, only the segments the consumer names — the
     rest contribute nothing but a clock advance, which rides on the
     stamps. Decided once per IR instruction at closure-build time. *)
  let must_emit_range =
    match clock with
    | Some c -> c.Ring.range_has_target
    | None -> fun ~lo:_ ~hi:_ -> true
  in
  let allocs = Array.map (Regalloc.allocate lw) lw.funcs in
  let pre_alloc = Regalloc.identity 1 in
  (match obs with
  | Some reg ->
      Obs.Gauge.set
        (Obs.Registry.gauge reg "ir.instrs_per_stack_instr")
        (Array.length lw.instrs * 1000 / max 1 lw.n_stack_pcs);
      Obs.Gauge.set
        (Obs.Registry.gauge reg "ir.spills")
        (Array.fold_left (fun a (al : Regalloc.alloc) -> a + al.spills) 0 allocs)
  | None -> ());
  let xs =
    {
      st;
      regs = Array.make 1024 0;
      rb = 0;
      rtop = 1;
      c_rb = Array.make 64 0;
      c_ret_ir = Array.make 64 0;
      c_dst = Array.make 64 0;
    }
  in
  let ensure_regs need =
    if need > Array.length xs.regs then begin
      let nn = max need (2 * Array.length xs.regs) in
      let nr = Array.make nn 0 in
      Array.blit xs.regs 0 nr 0 (Array.length xs.regs);
      xs.regs <- nr
    end
  in
  let grow_crec () =
    let n = Array.length xs.c_rb in
    let nn = n * 2 in
    let g a =
      let b = Array.make nn 0 in
      Array.blit a 0 b 0 n;
      b
    in
    xs.c_rb <- g xs.c_rb;
    xs.c_ret_ir <- g xs.c_ret_ir;
    xs.c_dst <- g xs.c_dst
  in
  let vtag tc = if tc = ty_ref then VS.tag_ref else VS.tag_int in
  (* Fuel runs out inside segment [lo..]: the reference retires the
     segment's first [k] pcs and traps at [lo + k]. Those pcs are clock
     ticks only (see {!Instr}), so tick them here — through the ring
     when the segment reaches the stream ([emit]) — and trap. Fuel
     already spent, or negative, retires none. *)
  let out_of_fuel lo ~emit =
    let k = max 0 (fuel - st.instructions) in
    if emit && k > 0 then ev_range lo (lo + k - 1) st.instructions;
    st.instructions <- st.instructions + k;
    VS.trap st (lo + k) "out of fuel"
  in
  (* ---- per-instruction closure compilation --------------------------- *)
  let build gi (ins : Instr.t) : unit -> int =
    let next = gi + 1 in
    let fid = lw.fid_of_ir.(gi) in
    let al = if fid < 0 then pre_alloc else allocs.(fid) in
    let slot v = al.map.(v) in
    let epc = ins.epc in
    let getv (o : operand) : unit -> int =
      match o with
      | Imm n -> fun () -> n
      | Reg r ->
          let s = slot r in
          fun () -> Array.unsafe_get xs.regs (xs.rb + s)
      | RefL (off, len) -> fun () -> VS.pack_ref (st.frame_base + off) len
    in
    (* Tags are proven: an operand of the wrong one always traps. *)
    let chk_int (o : operand) tc : unit -> int =
      if tc = ty_ref then fun () ->
        VS.trap st epc "expected integer, found array reference"
      else getv o
    in
    let chk_ref (o : operand) tc : unit -> int =
      if tc = ty_int then fun () ->
        VS.trap st epc "expected array reference, found integer"
      else getv o
    in
    let setr ds v = Array.unsafe_set xs.regs (xs.rb + ds) v in
    (* canonicalization moves; coloring frequently assigns src and dst
       the same physical slot, making the move a no-op — elide it here
       rather than paying two array stores per execution. *)
    let live_moves =
      Array.of_list
        (List.filter
           (fun m ->
             match m.m_src with
             | Reg r -> slot r <> slot m.m_dst
             | Imm _ | RefL _ -> true)
           (Array.to_list ins.moves))
    in
    let nm = Array.length live_moves in
    let mdst = Array.map (fun m -> slot m.m_dst) live_moves in
    let mget = Array.map (fun m -> getv m.m_src) live_moves in
    let apply_moves () =
      for k = 0 to nm - 1 do
        Array.unsafe_set xs.regs
          (xs.rb + Array.unsafe_get mdst k)
          ((Array.unsafe_get mget k) ())
      done
    in
    if not (Instr.segmented ins) then
      (* pure: no pcs, no events, no fuel gate *)
      match ins.kind with
      | Mov { dst; src; _ } -> (
          let ds = slot dst in
          match src with
          | Imm n ->
              fun () ->
                Array.unsafe_set xs.regs (xs.rb + ds) n;
                next
          | Reg r ->
              let ss = slot r in
              fun () ->
                let g = xs.regs and b = xs.rb in
                Array.unsafe_set g (b + ds) (Array.unsafe_get g (b + ss));
                next
          | RefL (off, len) ->
              fun () ->
                Array.unsafe_set xs.regs (xs.rb + ds)
                  (VS.pack_ref (st.frame_base + off) len);
                next)
      | Bin { dst; op; a; b; _ } -> (
          let ds = slot dst in
          match (op, a, b) with
          | Minic.Ast.Add, Reg ra, Imm n ->
              let sa = slot ra in
              fun () ->
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds) (Array.unsafe_get g (rb0 + sa) + n);
                next
          | Minic.Ast.Sub, Reg ra, Imm n ->
              let sa = slot ra in
              fun () ->
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds) (Array.unsafe_get g (rb0 + sa) - n);
                next
          | Minic.Ast.Add, Reg ra, Reg rb' ->
              let sa = slot ra and sb = slot rb' in
              fun () ->
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds)
                  (Array.unsafe_get g (rb0 + sa) + Array.unsafe_get g (rb0 + sb));
                next
          | _ ->
              let f = binfn op in
              let ga = getv a and gb = getv b in
              fun () ->
                setr ds (f (ga ()) (gb ()));
                next)
      | Un { dst; op; a; _ } ->
          let ds = slot dst in
          let ga = getv a in
          fun () ->
            setr ds (VS.eval_unop op (ga ()));
            next
      | LoadG { dst; addr; _ } ->
          let ds = slot dst in
          fun () ->
            Array.unsafe_set xs.regs (xs.rb + ds) (Array.unsafe_get st.mem addr);
            next
      | EndB ->
          fun () ->
            apply_moves ();
            next
      | _ -> assert false
    else begin
      (* segmented: fuel gate, clock, per-pc [on_instr], metric deltas,
         canonicalization — then the effect *)
      let seg = Instr.seg_len ins in
      let lo = ins.seg_lo and hi = ins.seg_hi in
      let dr = ins.d_reads and dw = ins.d_writes in
      (* Specialized at build time: [hooked], the move count and the
         metric deltas are per-closure constants, so the per-execution
         path carries no dead branches, no zero adds and no [hooks]
         record load. *)
      let tick =
        let mets = dr <> 0 || dw <> 0 in
        if hooked && must_emit_range ~lo ~hi then begin
          match (mets, nm > 0) with
          | true, true ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:true;
                st.instructions <- st.instructions + seg;
                ev_range lo hi (st.instructions - seg);
                st.n_reads <- st.n_reads + dr;
                st.n_writes <- st.n_writes + dw;
                apply_moves ()
          | true, false ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:true;
                st.instructions <- st.instructions + seg;
                ev_range lo hi (st.instructions - seg);
                st.n_reads <- st.n_reads + dr;
                st.n_writes <- st.n_writes + dw
          | false, true ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:true;
                st.instructions <- st.instructions + seg;
                ev_range lo hi (st.instructions - seg);
                apply_moves ()
          | false, false ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:true;
                st.instructions <- st.instructions + seg;
                ev_range lo hi (st.instructions - seg)
        end
        else
          match (mets, nm > 0) with
          | true, true ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:false;
                st.instructions <- st.instructions + seg;
                st.n_reads <- st.n_reads + dr;
                st.n_writes <- st.n_writes + dw;
                apply_moves ()
          | true, false ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:false;
                st.instructions <- st.instructions + seg;
                st.n_reads <- st.n_reads + dr;
                st.n_writes <- st.n_writes + dw
          | false, true ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:false;
                st.instructions <- st.instructions + seg;
                apply_moves ()
          | false, false ->
              fun () ->
                if st.instructions + seg > fuel then out_of_fuel lo ~emit:false;
                st.instructions <- st.instructions + seg
      in
      match ins.kind with
      | Mov { dst; src; _ } ->
          (* a [StoreLocal]: the L register is the store *)
          let ds = slot dst in
          let gv = getv src in
          fun () ->
            tick ();
            Array.unsafe_set xs.regs (xs.rb + ds) (gv ());
            next
      | Bin { dst; op; a; b; ta; tb } -> (
          let ds = slot dst in
          (* Non-trapping op on statically-int operands: resolve the op
             to a direct function and read the operands inline, instead
             of paying two operand-closure calls plus the [eval_binop]
             match on every execution. Trapping ops (Div/Mod/shifts) and
             reference operands keep the generic checked path. *)
          let fast : (int -> int -> int) option =
            if ta <> ty_int || tb <> ty_int then None
            else
              match op with
              | Minic.Ast.Add -> Some ( + )
              | Minic.Ast.Sub -> Some ( - )
              | Minic.Ast.Mul -> Some ( * )
              | Minic.Ast.BitAnd -> Some ( land )
              | Minic.Ast.BitOr -> Some ( lor )
              | Minic.Ast.BitXor -> Some ( lxor )
              | Minic.Ast.Lt -> Some (fun x y -> if x < y then 1 else 0)
              | Minic.Ast.Le -> Some (fun x y -> if x <= y then 1 else 0)
              | Minic.Ast.Gt -> Some (fun x y -> if x > y then 1 else 0)
              | Minic.Ast.Ge -> Some (fun x y -> if x >= y then 1 else 0)
              | Minic.Ast.Eq -> Some (fun x y -> if x = y then 1 else 0)
              | Minic.Ast.Ne -> Some (fun x y -> if x <> y then 1 else 0)
              | _ -> None
          in
          match (fast, a, b) with
          | Some f, Reg ra, Imm n ->
              let sa = slot ra in
              fun () ->
                tick ();
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds)
                  (f (Array.unsafe_get g (rb0 + sa)) n);
                next
          | Some f, Reg ra, Reg rb' ->
              let sa = slot ra and sb = slot rb' in
              fun () ->
                tick ();
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds)
                  (f
                     (Array.unsafe_get g (rb0 + sa))
                     (Array.unsafe_get g (rb0 + sb)));
                next
          | Some f, Imm n, Reg rb' ->
              let sb = slot rb' in
              fun () ->
                tick ();
                let g = xs.regs and rb0 = xs.rb in
                Array.unsafe_set g (rb0 + ds)
                  (f n (Array.unsafe_get g (rb0 + sb)));
                next
          | _ ->
              let gb = chk_int b tb in
              let ga = chk_int a ta in
              fun () ->
                tick ();
                let bv = gb () in
                let av = ga () in
                setr ds (VS.eval_binop st epc op av bv);
                next)
      | Un { dst; op; a; ta } ->
          let ds = slot dst in
          let ga = chk_int a ta in
          fun () ->
            tick ();
            setr ds (VS.eval_unop op (ga ()));
            next
      | LoadG { dst; addr; _ } ->
          let ds = slot dst in
          fun () ->
            tick ();
            ev_read ~pc:epc ~addr;
            Array.unsafe_set xs.regs (xs.rb + ds) (Array.unsafe_get st.mem addr);
            next
      | StoreG { addr; v; tv; ev } ->
          let gv = getv v in
          let tg = vtag tv in
          fun () ->
            tick ();
            if ev then ev_write ~pc:epc ~addr;
            Array.unsafe_set st.mem addr (gv ());
            Bytes.unsafe_set st.mem_tag addr tg;
            next
      | LoadIx { dst; r; ix; tr; tix; ev } ->
          let ds = slot dst in
          let gix = chk_int ix tix in
          let gr = chk_ref r tr in
          fun () ->
            tick ();
            let ixv = gix () in
            let rv = gr () in
            let base = VS.ref_base rv and len = VS.ref_len rv in
            if ixv < 0 || ixv >= len then
              VS.trap st epc "index %d out of bounds [0,%d)" ixv len;
            let addr = base + ixv in
            if ev then ev_read ~pc:epc ~addr;
            Array.unsafe_set xs.regs (xs.rb + ds) (Array.unsafe_get st.mem addr);
            next
      | StoreIx { r; ix; v; tr; tix; tv; ev } ->
          let gv = getv v in
          let tg = vtag tv in
          let gix = chk_int ix tix in
          let gr = chk_ref r tr in
          fun () ->
            tick ();
            let vv = gv () in
            let ixv = gix () in
            let rv = gr () in
            let base = VS.ref_base rv and len = VS.ref_len rv in
            if ixv < 0 || ixv >= len then
              VS.trap st epc "index %d out of bounds [0,%d)" ixv len;
            let addr = base + ixv in
            if ev then ev_write ~pc:epc ~addr;
            Array.unsafe_set st.mem addr vv;
            Bytes.unsafe_set st.mem_tag addr tg;
            next
      | PrintI { v; tv } ->
          let gv = chk_int v tv in
          fun () ->
            tick ();
            st.out <- gv () :: st.out;
            next
      | JmpI t ->
          fun () ->
            tick ();
            t
      | BrI { c; tc; target; bkind; cid } ->
          let gc = chk_int c tc in
          fun () ->
            tick ();
            let taken = gc () = 0 in
            st.n_branches <- st.n_branches + 1;
            if hooked then ev_branch ~pc:epc ~kind:bkind ~cid ~taken;
            if taken then target else next
      | EndB ->
          fun () ->
            tick ();
            next
      | CallI ci ->
          let cf = prog.funcs.(ci.ci_fid) in
          let cal = allocs.(ci.ci_fid) in
          let wsize = cal.win_size in
          let centry = lw.entry_ir.(ci.ci_fid) in
          let nargs = Array.length ci.ci_args in
          let agets = Array.map getv ci.ci_args in
          let aslots = Array.init nargs (fun i -> cal.map.(i)) in
          let dslot = slot ci.ci_dst in
          let fslots = cf.frame_slots in
          let cfid = ci.ci_fid in
          let fentry = cf.entry in
          fun () ->
            tick ();
            if st.depth >= st.max_depth then
              VS.trap st epc "call stack overflow";
            (* Arguments are read in the caller's frame, before
               [frame_base] moves: a local-array argument ([RefL]) is
               the caller's array. Register reads hit the caller window
               and writes the (disjoint) callee window, so no buffering
               is needed. *)
            let wb = xs.rtop in
            ensure_regs (wb + wsize);
            Array.fill xs.regs wb wsize 0;
            for i = 0 to nargs - 1 do
              xs.regs.(wb + Array.unsafe_get aslots i) <-
                (Array.unsafe_get agets i) ()
            done;
            let d = st.depth in
            if d = Array.length st.call_ret then VS.grow_call_records st;
            if d >= Array.length xs.c_rb then grow_crec ();
            st.call_base.(d) <- st.frame_base;
            xs.c_rb.(d) <- xs.rb;
            xs.c_ret_ir.(d) <- next;
            xs.c_dst.(d) <- dslot;
            st.depth <- d + 1;
            let base = st.stack_top in
            VS.ensure_mem st (base + fslots);
            Array.fill st.mem base fslots 0;
            Bytes.fill st.mem_tag base fslots VS.tag_int;
            st.frame_base <- base;
            st.stack_top <- base + fslots;
            st.n_calls <- st.n_calls + 1;
            if st.depth > st.depth_hwm then st.depth_hwm <- st.depth;
            if st.stack_top > st.mem_hwm then st.mem_hwm <- st.stack_top;
            if hooked then ev_call ~pc:fentry ~fid:cfid;
            xs.rb <- wb;
            xs.rtop <- wb + wsize;
            centry
      | RetI { v; _ } ->
          let gv = getv v in
          let myfid = fid in
          let fslots = lw.funcs.(fid).ff.frame_slots in
          fun () ->
            tick ();
            let value = gv () in
            st.depth <- st.depth - 1;
            let d = st.depth in
            if hooked then begin
              ev_ret ~pc:epc ~fid:myfid;
              ev_release ~base:st.frame_base ~size:fslots
            end;
            st.n_frames_released <- st.n_frames_released + 1;
            st.stack_top <- st.frame_base;
            st.frame_base <- Array.unsafe_get st.call_base d;
            xs.rtop <- xs.rb;
            xs.rb <- Array.unsafe_get xs.c_rb d;
            let ds = xs.rb + Array.unsafe_get xs.c_dst d in
            Array.unsafe_set xs.regs ds value;
            Array.unsafe_get xs.c_ret_ir d
      | HaltI { v; tv } ->
          let gv = chk_int v tv in
          fun () ->
            tick ();
            raise (VS.Halted (gv ()))
    end
  in
  let steps = Array.mapi build lw.instrs in
  (* The final drain runs on every exit path: halt ([VS.Halted] from
     [HaltI]) and traps unwinding out of an effect or out of fuel — the
     buffered prefix of the stream must reach the hooks, and a clock
     consumer's clock the run's retired count, before the caller
     observes the outcome. *)
  let exit_value =
    Fun.protect ~finally:flush_ring (fun () ->
        try
          let pc = ref 0 in
          while true do
            pc := (Array.unsafe_get steps !pc) ()
          done;
          assert false
        with VS.Halted v -> v)
  in
  VS.finish st exit_value

(* The register engine runs every program the compiler produces, with
   three exceptions that go to the reference switch interpreter instead:
   runs that trace scalar locals (the -O0 model of the ablation bench),
   whose per-local events the IR does not model, and programs whose
   lowering bails or leaves a tag unproven — nonstandard bytecode the
   compiler never emits. *)
let exec ~hooked ?(trace_locals = true) ?prune ?clock ?obs (hooks : Vm.Hooks.t)
    ?fuel ?max_depth (prog : Vm.Program.t) =
  let reference () =
    Vm.Machine.exec ~engine:Vm.Machine.Switch ~hooked ~trace_locals ?prune hooks
      ?fuel ?max_depth prog
  in
  if hooked && trace_locals then reference ()
  else
    let pruned =
      match prune with
      | Some m -> fun p -> Array.unsafe_get m p
      | None -> fun _ -> false
    in
    match Lower.lower ~hooked ~pruned prog with
    | None -> reference ()
    | Some lw when needs_tags lw -> reference ()
    | Some lw ->
        run_ir ~hooked ?clock ?obs hooks ?fuel ?max_depth lw
