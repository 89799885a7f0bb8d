(* Virtual-register liveness over a function's IR slice.

   Instruction-granular backward dataflow: successors are derived
   directly from the terminators (everything else falls through), and
   a register is used only where an instruction or one of its
   canonicalization moves reads it. Nothing outside the IR reads a
   register — a run that traps, out of fuel or otherwise, ends there —
   so a value lives exactly as long as the fast path needs it. *)

open Instr

type t = {
  nvregs : int;
  live_in : Bytes.t array;  (** per local IR index, one byte per vreg *)
  live_out : Bytes.t array;
  uses : int list array;
  defs : int list array;
}

let reg_uses acc = function Reg r -> r :: acc | Imm _ | RefL _ -> acc

let instr_uses (ins : Instr.t) =
  let acc = ref [] in
  let op o = acc := reg_uses !acc o in
  (match ins.kind with
  | Mov { src; _ } -> op src
  | Bin { a; b; _ } ->
      op a;
      op b
  | Un { a; _ } -> op a
  | LoadG _ -> ()
  | StoreG { v; _ } -> op v
  | LoadIx { r; ix; _ } ->
      op r;
      op ix
  | StoreIx { r; ix; v; _ } ->
      op r;
      op ix;
      op v
  | PrintI { v; _ } -> op v
  | JmpI _ | EndB -> ()
  | BrI { c; _ } -> op c
  | CallI ci -> Array.iter op ci.ci_args
  | RetI { v; _ } -> op v
  | HaltI { v; _ } -> op v);
  Array.iter (fun m -> op m.m_src) ins.moves;
  !acc

let instr_defs (ins : Instr.t) =
  let acc = ref [] in
  (match ins.kind with
  | Mov { dst; _ }
  | Bin { dst; _ }
  | Un { dst; _ }
  | LoadG { dst; _ }
  | LoadIx { dst; _ } ->
      acc := dst :: !acc
  | CallI ci -> acc := ci.ci_dst :: !acc
  | StoreG _ | StoreIx _ | PrintI _ | JmpI _ | BrI _ | RetI _ | HaltI _ | EndB
    ->
      ());
  Array.iter (fun m -> acc := m.m_dst :: !acc) ins.moves;
  !acc

(* Local successors of the instruction at local index [li]; [-1] for the
   edge out of the function (none: every path ends at [RetI]). *)
let succs (ins : Instr.t) ~base ~count li =
  match ins.kind with
  | JmpI t -> [ t - base ]
  | BrI { target; _ } ->
      let ft = li + 1 in
      if ft < count && ft <> target - base then [ target - base; ft ]
      else [ target - base ]
  | RetI _ | HaltI _ -> []
  | _ -> if li + 1 < count then [ li + 1 ] else []

let analyze (lw : Lower.t) (fi : Lower.func_ir) =
  let base = fi.ir_first and count = fi.ir_count in
  let n = fi.nvregs in
  let uses = Array.make count [] and defs = Array.make count [] in
  let succ = Array.make count [] in
  for li = 0 to count - 1 do
    let ins = lw.instrs.(base + li) in
    uses.(li) <- instr_uses ins;
    defs.(li) <- instr_defs ins;
    succ.(li) <- succs ins ~base ~count li
  done;
  let live_in = Array.init count (fun _ -> Bytes.make n '\000') in
  let live_out = Array.init count (fun _ -> Bytes.make n '\000') in
  let changed = ref true in
  while !changed do
    changed := false;
    for li = count - 1 downto 0 do
      let out = live_out.(li) in
      List.iter
        (fun s ->
          let si = live_in.(s) in
          for v = 0 to n - 1 do
            if
              Bytes.unsafe_get si v = '\001'
              && Bytes.unsafe_get out v <> '\001'
            then begin
              Bytes.unsafe_set out v '\001';
              changed := true
            end
          done)
        succ.(li);
      let inb = live_in.(li) in
      (* live_in = uses ∪ (live_out \ defs) *)
      let tmp = Bytes.copy out in
      List.iter (fun d -> if d < n then Bytes.set tmp d '\000') defs.(li);
      List.iter (fun u -> if u < n then Bytes.set tmp u '\001') uses.(li);
      if not (Bytes.equal tmp inb) then begin
        Bytes.blit tmp 0 inb 0 n;
        changed := true
      end
    done
  done;
  { nvregs = n; live_in; live_out; uses; defs }
