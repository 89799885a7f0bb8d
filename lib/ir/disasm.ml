(* Side-by-side disassembly: stack bytecode on the left, the allocated
   register IR on the right, aligned by the tick segments the IR
   instructions own. Pure IR instructions (folded constants, stack
   shuffles that became renames, canonicalization moves) own no stack
   pcs and appear on lines of their own; conversely, segment interiors
   — stack pcs fused into one IR instruction — show an empty right
   column, which makes the compression visible pc by pc. *)

let left_width = 46

let to_string (prog : Vm.Program.t) =
  match Lower.lower ~hooked:true ~pruned:(fun _ -> false) prog with
  | None ->
      ";; register lowering unavailable for this program (engine falls \
       back to switch); stack bytecode only\n\n" ^ Vm.Disasm.to_string prog
  | Some lw ->
      let b = Buffer.create 4096 in
      let row l r =
        if r = "" then Buffer.add_string b l
        else begin
          Buffer.add_string b l;
          let pad = left_width - String.length l in
          if pad > 0 then Buffer.add_string b (String.make pad ' ');
          Buffer.add_string b " | ";
          Buffer.add_string b r
        end;
        Buffer.add_char b '\n'
      in
      let stack_cell pc =
        Printf.sprintf "%4d [line %3d]  %s" pc
          (Vm.Program.line_of_pc prog pc)
          (Vm.Instr.to_string prog.Vm.Program.code.(pc))
      in
      let emit_range ?header name lo hi (alloc : Regalloc.alloc) =
        let reg v =
          let s = alloc.Regalloc.map.(v) in
          if s < Regalloc.nregs then Printf.sprintf "r%d" s
          else Printf.sprintf "w%d" s
        in
        row (Printf.sprintf ";; %s" name) "";
        (match header with Some h -> row (";; " ^ h) "" | None -> ());
        for gi = lo to hi do
          let ins = lw.Lower.instrs.(gi) in
          let ir_cell = Printf.sprintf "ir%-4d %s" gi (Instr.to_string ~reg ins) in
          if Instr.segmented ins then begin
            row (stack_cell ins.Instr.seg_lo) ir_cell;
            for pc = ins.Instr.seg_lo + 1 to ins.Instr.seg_hi do
              row (stack_cell pc) ""
            done
          end
          else row "" ir_cell
        done;
        Buffer.add_char b '\n'
      in
      emit_range "preamble" 0 1 (Regalloc.identity 1);
      Array.iteri
        (fun fid (fi : Lower.func_ir) ->
          let f = fi.Lower.ff in
          let alloc = Regalloc.allocate lw fi in
          emit_range
            (Printf.sprintf "function %s (fid %d)" f.Vm.Program.name fid)
            ~header:
              (Printf.sprintf
                 "%d stack pcs -> %d IR instrs; %d vregs -> %d-slot window, \
                  %d spill(s)"
                 (f.Vm.Program.code_end - f.Vm.Program.entry)
                 fi.Lower.ir_count fi.Lower.nvregs alloc.Regalloc.win_size
                 alloc.Regalloc.spills)
            fi.Lower.ir_first
            (fi.Lower.ir_first + fi.Lower.ir_count - 1)
            alloc)
        lw.Lower.funcs;
      Buffer.contents b
