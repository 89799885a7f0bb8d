(* The register IR: three-address instructions over per-function virtual
   registers, produced by {!Lower} from the stack bytecode and executed
   by {!Exec} after {!Regalloc} maps virtual registers onto a window of
   physical slots.

   Virtual register space of a function with [nl] scalar slots (its
   parameters plus every slot a [LoadLocal]/[StoreLocal] names) and a
   maximum operand-stack depth [maxd]:

   - [0 .. nl-1]: the scalar frame slots ("L registers"), parameters
     first (parameter [i] is vreg [i]), then the other named slots in
     slot order — the canonical, always-current value of each local.
     Frame memory never holds them. Local-array cells get no register:
     they live in frame memory, reached through [RefL] operands.
   - [nl .. nl+maxd-1]: the canonical stack registers ("S registers") —
     at every block boundary the operand stack of depth [d] lives in
     S_0..S_{d-1}, which is what makes the symbolic stacks of
     predecessor blocks meet.
   - above that: block-local SSA temporaries.

   Hook transparency is carried by {e tick segments}: every instruction
   that can fire an event, trap, or transfer control owns a contiguous
   range [seg_lo..seg_hi] of original stack pcs, and sits at its last
   one ([epc = seg_hi]). Its closure first gates on fuel, then advances
   the instruction clock by the segment length, fires [on_instr] per
   covered pc, and only then performs its effect — so the event stream
   is byte-identical to the reference engine. Pure instructions
   (register moves, proven-integer arithmetic, pruned global loads) own
   no pcs; the instructions they were folded out of are covered
   positionally by the next segment. Every pc of a segment but the last
   is therefore a clock tick and nothing else, which is what lets
   {!Exec} stop a run out of fuel at any pc of a segment by itself.

   Operand positions that the reference engine tag-checks carry the
   statically known tag of the value ([ty_int] elides the check,
   [ty_ref] always traps; a lowering with any [ty_unk] runs on the
   switch interpreter instead, see {!Exec.exec}). *)

type operand =
  | Reg of int  (** virtual register *)
  | Imm of int  (** constant: folded [Const], or a packed global ref *)
  | RefL of int * int
      (** frame-relative array ref: [pack_ref (frame_base+off) len] *)

(* Static tag knowledge, used to elide runtime tag checks. *)
let ty_int = 'i'
let ty_ref = 'r'
let ty_unk = '?'

type move = { m_dst : int; m_src : operand; m_ty : char }

type call_info = {
  ci_fid : int;
  ci_args : operand array;
      (** caller operands, read in the caller's frame (a [RefL] argument
          is the caller's array) and written to callee vregs [0..n-1] *)
  ci_atags : string;  (** static tag per argument *)
  ci_dst : int;  (** caller vreg receiving the return value *)
}

type kind =
  | Mov of { dst : int; src : operand; ty : char }
  | Bin of {
      dst : int;
      op : Minic.Ast.binop;
      a : operand;
      b : operand;
      ta : char;  (** static tag of [a]; non-[ty_int] checks at run time *)
      tb : char;
    }
  | Un of { dst : int; op : Minic.Ast.unop; a : operand; ta : char }
  | LoadG of { dst : int; addr : int; ev : bool }
  | StoreG of { addr : int; v : operand; tv : char; ev : bool }
  | LoadIx of {
      dst : int;
      r : operand;
      ix : operand;
      tr : char;
      tix : char;
      ev : bool;
    }
  | StoreIx of {
      r : operand;
      ix : operand;
      v : operand;
      tr : char;
      tix : char;
      tv : char;
      ev : bool;
    }
  | PrintI of { v : operand; tv : char }
  | JmpI of int  (** IR target (block id until patched) *)
  | BrI of {
      c : operand;
      tc : char;
      target : int;  (** taken = condition zero; fallthrough otherwise *)
      bkind : Vm.Instr.branch_kind;
      cid : int;
    }
  | CallI of call_info
  | RetI of { v : operand; vt : char }
  | HaltI of { v : operand; tv : char }
  | EndB  (** synthetic block end: ticks + canonicalization moves only *)

type t = {
  kind : kind;
  epc : int;  (** source stack pc this instruction maps back to; -1 = synthetic *)
  seg_lo : int;
  seg_hi : int;  (** covered stack pcs; [seg_lo > seg_hi] = pure *)
  moves : move array;  (** applied after the fuel gate (canonicalization) *)
  d_reads : int;  (** reference [n_reads] delta across the segment *)
  d_writes : int;
}

let segmented i = i.seg_lo <= i.seg_hi
let seg_len i = if segmented i then i.seg_hi - i.seg_lo + 1 else 0

(* [reg] names a virtual register; disasm passes the allocation map's
   physical name instead of the default "vN". *)
let vname r = Printf.sprintf "v%d" r

let operand_to_string ?(reg = vname) o =
  match o with
  | Reg r -> reg r
  | Imm n -> Printf.sprintf "#%d" n
  | RefL (off, len) -> Printf.sprintf "&fp[%d]:%d" off len

let chk t = if t = ty_int then "" else if t = ty_ref then "!r" else "!?"

let kind_to_string ?(reg = vname) k =
  let opnd = operand_to_string ~reg in
  match k with
  | Mov { dst; src; _ } -> Printf.sprintf "%s := %s" (reg dst) (opnd src)
  | Bin { dst; op; a; b; ta; tb } ->
      Format.asprintf "%s := %s%s %a %s%s" (reg dst) (chk ta) (opnd a)
        Minic.Ast.pp_binop op (chk tb) (opnd b)
  | Un { dst; op; a; ta } ->
      Format.asprintf "%s := %a %s%s" (reg dst) Minic.Ast.pp_unop op (chk ta)
        (opnd a)
  | LoadG { dst; addr; ev } ->
      Printf.sprintf "%s := g[%d]%s" (reg dst) addr (if ev then " ev" else "")
  | StoreG { addr; v; ev; _ } ->
      Printf.sprintf "g[%d] := %s%s" addr (opnd v) (if ev then " ev" else "")
  | LoadIx { dst; r; ix; tr; tix; ev } ->
      Printf.sprintf "%s := %s%s[%s%s]%s" (reg dst) (chk tr) (opnd r) (chk tix)
        (opnd ix)
        (if ev then " ev" else "")
  | StoreIx { r; ix; v; tr; tix; ev; _ } ->
      Printf.sprintf "%s%s[%s%s] := %s%s" (chk tr) (opnd r) (chk tix) (opnd ix)
        (opnd v)
        (if ev then " ev" else "")
  | PrintI { v; tv } -> Printf.sprintf "print %s%s" (chk tv) (opnd v)
  | JmpI t -> Printf.sprintf "jmp @%d" t
  | BrI { c; tc; target; bkind; cid } ->
      let ks =
        match bkind with
        | Vm.Instr.BrIf -> "if"
        | Vm.Instr.BrLoop -> "loop"
        | Vm.Instr.BrSc -> "sc"
      in
      Printf.sprintf "brz[%s,c%d] %s%s @%d" ks cid (chk tc) (opnd c) target
  | CallI ci ->
      Printf.sprintf "%s := call f%d(%s)" (reg ci.ci_dst) ci.ci_fid
        (String.concat ", " (Array.to_list (Array.map opnd ci.ci_args)))
  | RetI { v; _ } -> Printf.sprintf "ret %s" (opnd v)
  | HaltI { v; tv } -> Printf.sprintf "halt %s%s" (chk tv) (opnd v)
  | EndB -> "endb"

let to_string ?(reg = vname) i =
  let seg =
    if segmented i then Printf.sprintf " ;[%d..%d]" i.seg_lo i.seg_hi else ""
  in
  let mv =
    if Array.length i.moves = 0 then ""
    else
      Printf.sprintf " {%s}"
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun m ->
                   Printf.sprintf "%s:=%s" (reg m.m_dst)
                     (operand_to_string ~reg m.m_src))
                 i.moves)))
  in
  kind_to_string ~reg i.kind ^ mv ^ seg
