type loop = {
  fid : int;
  cfg : Cfa.Cfg.t;
  l : Cfa.Loops.loop;
  member : bool array;  (* by bid *)
  span_lo : int;
  span_hi : int;
}

type func_facts = { cfg : Cfa.Cfg.t; loops : loop array }

type t = {
  prog : Vm.Program.t;
  pts : Points_to.t;
  modref : Modref.t;
  fid_of_pc : int array;
  funcs : func_facts option array;  (* lazy, by fid *)
  priv_memo : (int * int * int, (unit, string) result) Hashtbl.t;
      (* (fid, header bid, cell) *)
  red_memo : (int * int * int, (Minic.Ast.binop, string) result) Hashtbl.t;
}

let analyze (prog : Vm.Program.t) (pts : Points_to.t) (modref : Modref.t) =
  let fid_of_pc = Array.make (Array.length prog.code) (-1) in
  Array.iter
    (fun (f : Vm.Program.func_info) ->
      for pc = f.entry to f.code_end - 1 do
        fid_of_pc.(pc) <- f.fid
      done)
    prog.funcs;
  {
    prog;
    pts;
    modref;
    fid_of_pc;
    funcs = Array.make (Array.length prog.funcs) None;
    priv_memo = Hashtbl.create 32;
    red_memo = Hashtbl.create 32;
  }

let facts t fid =
  match t.funcs.(fid) with
  | Some f -> f
  | None ->
      let fn = t.prog.Vm.Program.funcs.(fid) in
      let cfg = Cfa.Cfg.build t.prog fn in
      let dom = Cfa.Dominance.of_cfg cfg in
      let loops =
        Array.of_list
          (List.filter_map
             (fun (l : Cfa.Loops.loop) ->
               if l.degenerate then None
                 (* header-only: the body runs at most once per entry,
                    so no iteration exists to privatize against *)
               else begin
                 let member = Array.make (Array.length cfg.blocks) false in
                 List.iter (fun bid -> member.(bid) <- true) l.body;
                 let lo = ref max_int and hi = ref min_int in
                 List.iter
                   (fun bid ->
                     let b = cfg.blocks.(bid) in
                     if b.Cfa.Cfg.first < !lo then lo := b.Cfa.Cfg.first;
                     if b.Cfa.Cfg.last > !hi then hi := b.Cfa.Cfg.last)
                   l.body;
                 Some { fid; cfg; l; member; span_lo = !lo; span_hi = !hi }
               end)
             (Array.to_list (Cfa.Analysis.loops_of t.prog cfg dom).loops))
      in
      let f = { cfg; loops } in
      t.funcs.(fid) <- Some f;
      f

let in_loop (loop : loop) pc =
  pc >= loop.cfg.Cfa.Cfg.func.Vm.Program.entry
  && pc < loop.cfg.Cfa.Cfg.func.Vm.Program.code_end
  && loop.member.(loop.cfg.Cfa.Cfg.block_of_pc.(pc - loop.cfg.Cfa.Cfg.func.Vm.Program.entry))

let loop_span (loop : loop) = (loop.span_lo, loop.span_hi)

let loop_size (loop : loop) = Array.fold_left (fun n m -> if m then n + 1 else n) 0 loop.member

let innermost_common_loop t ~pc1 ~pc2 =
  let n = Array.length t.fid_of_pc in
  if pc1 < 0 || pc1 >= n || pc2 < 0 || pc2 >= n then None
  else
    let f1 = t.fid_of_pc.(pc1) and f2 = t.fid_of_pc.(pc2) in
    if f1 < 0 || f1 <> f2 then None
    else
      let { loops; _ } = facts t f1 in
      Array.fold_left
        (fun best loop ->
          if in_loop loop pc1 && in_loop loop pc2 then
            match best with
            | Some b when loop_size b <= loop_size loop -> best
            | _ -> Some loop
          else best)
        None loops

let loop_at_header t ~br_pc =
  let n = Array.length t.fid_of_pc in
  if br_pc < 0 || br_pc >= n then None
  else
    let fid = t.fid_of_pc.(br_pc) in
    if fid < 0 then None
    else
      let { cfg; loops } = facts t fid in
      let bid = (Cfa.Cfg.block_at cfg br_pc).Cfa.Cfg.bid in
      Array.fold_left
        (fun found loop ->
          if loop.l.Cfa.Loops.header = bid then Some loop else found)
        None loops

(* ---- shared precondition: all in-loop accesses to the cell are direct --- *)

let access_may_touch_cell (a : Points_to.access) cell =
  (not a.Points_to.complete)
  || List.exists
       (Points_to.may_overlap (Points_to.Global { base = cell; len = 1 }))
       a.Points_to.regions

(* Every in-loop access to [cell] must be a direct [LoadGlobal]/
   [StoreGlobal] of the loop's own function: those are the instructions
   a source-level transform rewrites. Returns [Error] naming the first
   offender. *)
let check_direct_only t (loop : loop) ~cell =
  if t.pts.Points_to.degraded then Error "points-to analysis degraded"
  else begin
    let bad = ref None in
    let fail pc fmt =
      Printf.ksprintf
        (fun m -> if !bad = None then bad := Some (Printf.sprintf "pc %d: %s" pc m))
        fmt
    in
    Array.iteri
      (fun bid m ->
        if m then begin
          let b = loop.cfg.Cfa.Cfg.blocks.(bid) in
          for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
            match t.prog.Vm.Program.code.(pc) with
            | Vm.Instr.Call g ->
                if Modref.touches_cell t.modref g ~addr:cell then
                  fail pc "callee %s may touch the cell"
                    t.prog.Vm.Program.funcs.(g).Vm.Program.name
            | Vm.Instr.LoadIndex | Vm.Instr.StoreIndex -> (
                match Points_to.access t.pts pc with
                | Some a when access_may_touch_cell a cell ->
                    fail pc "indexed access may alias the cell"
                | _ -> ())
            | _ -> ()
          done
        end)
      loop.member;
    match !bad with Some m -> Error m | None -> Ok ()
  end

(* ---- privatization: must-written-before-read, every iteration ---------- *)

let transfer_block t (loop : loop) ~cell bid entry =
  let b = loop.cfg.Cfa.Cfg.blocks.(bid) in
  let w = ref entry in
  for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
    match t.prog.Vm.Program.code.(pc) with
    | Vm.Instr.StoreGlobal a when a = cell -> w := true
    | _ -> ()
  done;
  !w

let prove_privatizable_uncached t (loop : loop) ~cell =
  match check_direct_only t loop ~cell with
  | Error _ as e -> e
  | Ok () ->
      let nblocks = Array.length loop.cfg.Cfa.Cfg.blocks in
      let header = loop.l.Cfa.Loops.header in
      (* Must-analysis: [entry_written.(bid)] = on every intra-iteration
         path from the header to the entry of [bid], the cell has been
         stored. Top = [true]; the header is pinned [false] (an
         iteration starts with nothing written); meet is AND, so only
         [false] propagates and the fixpoint terminates. *)
      let entry_written = Array.make nblocks true in
      entry_written.(header) <- false;
      let changed = ref true in
      while !changed do
        changed := false;
        Array.iteri
          (fun bid m ->
            if m then begin
              let exit = transfer_block t loop ~cell bid entry_written.(bid) in
              List.iter
                (fun s ->
                  if
                    s <> header && loop.member.(s) && entry_written.(s)
                    && not exit
                  then begin
                    entry_written.(s) <- false;
                    changed := true
                  end)
                loop.cfg.Cfa.Cfg.blocks.(bid).Cfa.Cfg.succs
            end)
          loop.member
      done;
      let result = ref (Ok ()) in
      let fail pc fmt =
        Printf.ksprintf
          (fun m ->
            if !result = Ok () then
              result := Error (Printf.sprintf "pc %d: %s" pc m))
          fmt
      in
      (* Read check: a [LoadGlobal cell] at a point the write is not yet
         certain means some path reads the previous iteration's (or the
         pre-loop) value. *)
      Array.iteri
        (fun bid m ->
          if m then begin
            let b = loop.cfg.Cfa.Cfg.blocks.(bid) in
            let w = ref entry_written.(bid) in
            for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
              match t.prog.Vm.Program.code.(pc) with
              | Vm.Instr.LoadGlobal a when a = cell ->
                  if not !w then
                    fail pc "read may execute before the iteration's write"
              | Vm.Instr.StoreGlobal a when a = cell -> w := true
              | _ -> ()
            done
          end)
        loop.member;
      (* Back-edge check: the cell must be definitely overwritten by the
         time any iteration ends, or the value of a non-writing
         iteration would carry — and last-value copy-out would be
         ill-defined for WAW removal. *)
      List.iter
        (fun (u, _) ->
          if not (transfer_block t loop ~cell u entry_written.(u)) then
            fail
              loop.cfg.Cfa.Cfg.blocks.(u).Cfa.Cfg.last
              "an iteration may reach the back edge without writing")
        loop.l.Cfa.Loops.back_edges;
      !result

let prove_privatizable t (loop : loop) ~cell =
  let key = (loop.fid, loop.l.Cfa.Loops.header, cell) in
  match Hashtbl.find_opt t.priv_memo key with
  | Some r -> r
  | None ->
      let r = prove_privatizable_uncached t loop ~cell in
      Hashtbl.add t.priv_memo key r;
      r

(* ---- reduction: one commutative fold of the cell ------------------------ *)

(* Symbolic operand-stack value for the fold walk: the loaded
   accumulator, a fold of it under one operator, or anything else. *)
type sv = Acc | Fold of Minic.Ast.binop | Val

(* Walk the straight-line span from the accumulator load [r] up to (not
   including) the store [s], proving the stored value is
   [fold op old_value operands] for a single associative commutative
   [op] whose other operands never involve the accumulator. A pop from
   below the walk's own frame is a value computed before the load; it
   cannot contain the accumulator (the load at [r] is the loop's only
   read of the cell), so it is a plain [Val]. *)
let fold_walk (prog : Vm.Program.t) ~r ~s =
  let stack = ref [] in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> Val
  in
  let ok = ref true in
  let refute () = ok := false in
  let pc = ref r in
  while !ok && !pc < s do
    (match prog.code.(!pc) with
    | Vm.Instr.LoadGlobal _ when !pc = r -> push Acc
    | Vm.Instr.Const _ | Vm.Instr.LoadLocal _ | Vm.Instr.LoadGlobal _
    | Vm.Instr.MakeRefGlobal _ | Vm.Instr.MakeRefLocal _ ->
        push Val
    | Vm.Instr.StoreLocal _ | Vm.Instr.StoreGlobal _ | Vm.Instr.Pop
    | Vm.Instr.Print ->
        if pop () <> Val then refute ()
    | Vm.Instr.LoadIndex ->
        if pop () <> Val then refute ();
        if pop () <> Val then refute ();
        push Val
    | Vm.Instr.StoreIndex ->
        if pop () <> Val then refute ();
        if pop () <> Val then refute ();
        if pop () <> Val then refute ()
    | Vm.Instr.Unop _ ->
        if pop () <> Val then refute ();
        push Val
    | Vm.Instr.Binop op -> (
        let b = pop () in
        let a = pop () in
        match (a, b) with
        | Val, Val -> push Val
        | (Acc, Val | Val, Acc) when Minic.Ast.assoc_commutative op ->
            push (Fold op)
        | (Fold op', Val | Val, Fold op') when op' = op -> push (Fold op)
        | _ -> refute ())
    | Vm.Instr.Dup2 -> (
        match !stack with
        | Val :: Val :: _ ->
            push Val;
            push Val
        | _ -> refute ())
    | Vm.Instr.Jmp _ | Vm.Instr.Br _ | Vm.Instr.Call _ | Vm.Instr.Ret
    | Vm.Instr.Halt ->
        (* excluded by the straight-line precondition *)
        refute ());
    incr pc
  done;
  if not !ok then None
  else match !stack with [ Fold op ] -> Some op | _ -> None

let prove_reduction_uncached t (loop : loop) ~cell =
  match check_direct_only t loop ~cell with
  | Error _ as e -> e
  | Ok () -> (
      let loads = ref [] and stores = ref [] in
      Array.iteri
        (fun bid m ->
          if m then begin
            let b = loop.cfg.Cfa.Cfg.blocks.(bid) in
            for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
              match t.prog.Vm.Program.code.(pc) with
              | Vm.Instr.LoadGlobal a when a = cell -> loads := pc :: !loads
              | Vm.Instr.StoreGlobal a when a = cell -> stores := pc :: !stores
              | _ -> ()
            done
          end)
        loop.member;
      match (!loads, !stores) with
      | [ r ], [ s ] when r < s ->
          (* The fold must be one uninterruptible expression: no control
             transfer inside the span, and no branch target entering it
             (compiled expressions are straight-line and entered only at
             their first instruction — this re-checks the property
             instead of assuming it). *)
          let straight = ref true in
          for pc = r + 1 to s - 1 do
            if Vm.Instr.is_control t.prog.Vm.Program.code.(pc) then
              straight := false
          done;
          Array.iteri
            (fun pc instr ->
              match instr with
              | Vm.Instr.Jmp tgt | Vm.Instr.Br { target = tgt; _ } ->
                  if tgt > r && tgt <= s then straight := false
              | _ -> ignore pc)
            t.prog.Vm.Program.code;
          if not !straight then
            Error "accumulator update is not one straight-line expression"
          else (
            match fold_walk t.prog ~r ~s with
            | Some op -> Ok op
            | None ->
                Error
                  "stored value is not a single associative commutative fold \
                   of the accumulator")
      | [], [ _ ] -> Error "cell is written but never read in the loop"
      | [ _ ], [] -> Error "cell is read but never written in the loop"
      | [], [] -> Error "cell is not accessed in the loop"
      | _ ->
          Error
            "cell has multiple in-loop reads or writes (not a single \
             accumulator update)")

let prove_reduction t (loop : loop) ~cell =
  let key = (loop.fid, loop.l.Cfa.Loops.header, cell) in
  match Hashtbl.find_opt t.red_memo key with
  | Some r -> r
  | None ->
      let r = prove_reduction_uncached t loop ~cell in
      Hashtbl.add t.red_memo key r;
      r

let direct_cells t (loop : loop) =
  let cells = ref [] in
  Array.iteri
    (fun bid m ->
      if m then begin
        let b = loop.cfg.Cfa.Cfg.blocks.(bid) in
        for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
          match t.prog.Vm.Program.code.(pc) with
          | Vm.Instr.LoadGlobal a | Vm.Instr.StoreGlobal a ->
              cells := a :: !cells
          | _ -> ()
        done
      end)
    loop.member;
  List.sort_uniq compare !cells

let cell_live_out t (loop : loop) ~cell =
  let live = ref false in
  Array.iteri
    (fun pc _ ->
      if (not !live) && not (in_loop loop pc) then
        match Points_to.access t.pts pc with
        | Some a when (not a.Points_to.is_write) && access_may_touch_cell a cell
          ->
            live := true
        | _ -> ())
    t.prog.Vm.Program.code;
  !live
