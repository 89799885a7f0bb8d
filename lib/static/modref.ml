type summary = {
  mod_regions : Points_to.region list;
  mod_complete : bool;
  ref_regions : Points_to.region list;
  ref_complete : bool;
  escaping_params : bool array;
}

type t = { summaries : summary array }

let summary t fid = t.summaries.(fid)

(* ---- escaping parameters ----------------------------------------------- *)

(* Per-block abstract operand stack tracking which slots' values sit
   where. The walk is intraprocedural and block-local: each block starts
   from an empty abstract stack, and any value that would be consumed
   below it (possible only at join-carried stack depth, which Mini-C's
   compiler produces solely for short-circuit predicates — never
   reference values) is treated as untracked. A [Slot s] consumed by a
   store, or passed to a callee whose matching parameter escapes, marks
   slot [s] escaping; so does one left on the stack when the block ends
   (it flows somewhere this walk cannot see). *)
type av = Slot of int | Other

let block_bounds (prog : Vm.Program.t) (f : Vm.Program.func_info) =
  (* Leaders: function entry, branch targets, instructions after a
     control transfer. We only need linear spans that reset the
     abstract stack at every leader, not a full CFG. *)
  let leader = Array.make (f.code_end - f.entry) false in
  let mark pc = if pc >= f.entry && pc < f.code_end then leader.(pc - f.entry) <- true in
  mark f.entry;
  for pc = f.entry to f.code_end - 1 do
    match prog.code.(pc) with
    | Vm.Instr.Jmp t | Vm.Instr.Br { target = t; _ } ->
        mark t;
        mark (pc + 1)
    | Vm.Instr.Ret | Vm.Instr.Halt -> mark (pc + 1)
    | _ -> ()
  done;
  leader

let escape_fixpoint (prog : Vm.Program.t) =
  let escapes =
    Array.map
      (fun (f : Vm.Program.func_info) -> Array.make f.nparams false)
      prog.funcs
  in
  let mark_changed = ref true in
  let mark fid slot changed =
    let f = prog.funcs.(fid) in
    if slot >= 0 && slot < f.nparams && not escapes.(fid).(slot) then begin
      escapes.(fid).(slot) <- true;
      changed := true
    end
  in
  while !mark_changed do
    mark_changed := false;
    let changed = mark_changed in
    Array.iter
      (fun (f : Vm.Program.func_info) ->
        let leader = block_bounds prog f in
        let stack = ref [] in
        let push v = stack := v :: !stack in
        let pop () =
          match !stack with
          | v :: rest ->
              stack := rest;
              v
          | [] -> Other
        in
        let escape v = match v with Slot s -> mark f.fid s changed | Other -> () in
        for pc = f.entry to f.code_end - 1 do
          if leader.(pc - f.entry) then begin
            (* a value flowing across a join is out of this walk's sight *)
            List.iter escape !stack;
            stack := []
          end;
          match prog.code.(pc) with
          | Vm.Instr.Const _ | Vm.Instr.LoadGlobal _ | Vm.Instr.MakeRefGlobal _
          | Vm.Instr.MakeRefLocal _ ->
              push Other
          | Vm.Instr.LoadLocal s -> push (Slot s)
          | Vm.Instr.StoreLocal s ->
              (* copying into another slot: the copy can escape later,
                 which the walk cannot track — treat the store of a
                 tracked value into any slot as an escape of its source
                 (free conservatism; direct [x[i]]-style parameter use
                 never stores the reference). Storing into the same slot
                 is a no-op for escape purposes. *)
              let v = pop () in
              (match v with Slot s' when s' = s -> () | _ -> escape v)
          | Vm.Instr.StoreGlobal _ -> escape (pop ())
          | Vm.Instr.LoadIndex ->
              let _idx = pop () in
              let _ref = pop () in
              push Other
          | Vm.Instr.StoreIndex ->
              let v = pop () in
              let _idx = pop () in
              let _ref = pop () in
              escape v
          | Vm.Instr.Binop _ ->
              let _ = pop () in
              let _ = pop () in
              push Other
          | Vm.Instr.Unop _ ->
              let _ = pop () in
              push Other
          | Vm.Instr.Br _ | Vm.Instr.Pop | Vm.Instr.Print ->
              let _ = pop () in
              ()
          | Vm.Instr.Jmp _ | Vm.Instr.Halt -> ()
          | Vm.Instr.Dup2 -> (
              match !stack with
              | a :: b :: _ ->
                  push b;
                  push a
              | _ ->
                  stack := [];
                  push Other;
                  push Other)
          | Vm.Instr.Ret ->
              escape (pop ())
              (* a returned reference is visible to every caller *)
          | Vm.Instr.Call g ->
              let callee = prog.funcs.(g) in
              (* arguments are pushed left to right, so the top of the
                 stack is the last parameter *)
              for slot = callee.nparams - 1 downto 0 do
                let v = pop () in
                match v with
                | Slot s ->
                    if slot < Array.length escapes.(g) && escapes.(g).(slot)
                    then mark f.fid s changed
                | Other -> ()
              done;
              push Other
        done;
        List.iter escape !stack)
      prog.funcs
  done;
  escapes

(* ---- mod/ref fixpoint --------------------------------------------------- *)

let analyze (prog : Vm.Program.t) (pts : Points_to.t) =
  let n = Array.length prog.funcs in
  let degraded = pts.Points_to.degraded in
  let escapes = escape_fixpoint prog in
  let summaries =
    Array.init n (fun fid ->
        {
          mod_regions = [];
          mod_complete = not degraded;
          ref_regions = [];
          ref_complete = not degraded;
          escaping_params = escapes.(fid);
        })
  in
  if not degraded then begin
    let summary_of (f : Vm.Program.func_info) =
      let mods = ref [] and refs = ref [] in
      let mod_c = ref true and ref_c = ref true in
      for pc = f.entry to f.code_end - 1 do
        match Points_to.access pts pc with
        | Some a ->
            let regions, complete =
              if a.Points_to.is_write then (mods, mod_c) else (refs, ref_c)
            in
            if a.Points_to.complete then
              regions := List.rev_append a.Points_to.regions !regions
            else complete := false
        | None -> ()
      done;
      List.iter
        (fun g ->
          let s = summaries.(g) in
          mods := List.rev_append s.mod_regions !mods;
          refs := List.rev_append s.ref_regions !refs;
          if not s.mod_complete then mod_c := false;
          if not s.ref_complete then ref_c := false)
        (Vm.Program.callees_in prog f.entry (f.code_end - 1));
      {
        mod_regions = List.sort_uniq compare !mods;
        mod_complete = !mod_c;
        ref_regions = List.sort_uniq compare !refs;
        ref_complete = !ref_c;
        escaping_params = escapes.(f.fid);
      }
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun (f : Vm.Program.func_info) ->
          let s = summary_of f in
          if
            s.mod_regions <> summaries.(f.fid).mod_regions
            || s.mod_complete <> summaries.(f.fid).mod_complete
            || s.ref_regions <> summaries.(f.fid).ref_regions
            || s.ref_complete <> summaries.(f.fid).ref_complete
          then begin
            summaries.(f.fid) <- s;
            changed := true
          end)
        prog.funcs
    done
  end;
  { summaries }

let overlaps regions complete (target : Points_to.access) =
  (not complete)
  || (not target.Points_to.complete)
  || List.exists
       (fun r ->
         List.exists (Points_to.may_overlap r) target.Points_to.regions)
       regions

let may_write t fid target =
  let s = t.summaries.(fid) in
  overlaps s.mod_regions s.mod_complete target

let may_read t fid target =
  let s = t.summaries.(fid) in
  overlaps s.ref_regions s.ref_complete target

let cell_overlaps regions complete addr =
  (not complete)
  || List.exists
       (fun r ->
         Points_to.may_overlap r (Points_to.Global { base = addr; len = 1 }))
       regions

let may_write_cell t fid ~addr =
  let s = t.summaries.(fid) in
  cell_overlaps s.mod_regions s.mod_complete addr

let may_read_cell t fid ~addr =
  let s = t.summaries.(fid) in
  cell_overlaps s.ref_regions s.ref_complete addr

let touches_cell t fid ~addr =
  may_write_cell t fid ~addr || may_read_cell t fid ~addr
