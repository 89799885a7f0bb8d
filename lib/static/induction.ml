(* Loop induction variables and affine array subscripts over the VM IR.

   Three layers of facts, all per-program:

   - write-once constant globals: a global cell with exactly one
     [Const k; StoreGlobal] site in the whole program, and not covered by
     any [MakeRefGlobal] range (an indexed store could rewrite it), acts
     as a symbolic constant for loads the store provably precedes — this
     is how [for (f = 0; f < nfiles; f++)] with [nfiles = <literal>] set
     up earlier in the same function gets a constant trip count;

   - basic induction variables: a local slot whose only store inside a
     natural loop is [s := s (+|-) c] executed exactly once per
     iteration, with a constant initial value recovered from the loop's
     entry edges and a constant bound from the header's exit condition
     when both are visible;

   - affine subscript facts: a per-function abstract interpretation of
     the operand stack in the lattice [Top | Cst k | mul*slot + add],
     mirroring {!Points_to}'s stack dataflow, that records at every
     [LoadIndex]/[StoreIndex] the affine form of the index operand.
     Power-of-two masks ([x & (2^k - 1)]) reduce to the identity when
     the operand's value range — known for induction variables — fits
     the mask, which is the shape every circular-buffer subscript in the
     bundled workloads takes. *)

(* ---- affine values ------------------------------------------------------ *)

type av = Top | Cst of int | Aff of { slot : int; mul : int; add : int }

let norm = function Aff { mul = 0; add; _ } -> Cst add | v -> v
let av_equal (a : av) (b : av) = a = b
let av_join a b = if a = b then a else Top

let av_to_string = function
  | Top -> "?"
  | Cst k -> string_of_int k
  | Aff { slot; mul; add } -> Printf.sprintf "%d*l%d%+d" mul slot add

(* ---- per-loop facts ----------------------------------------------------- *)

type iv = {
  slot : int;
  step : int;  (** value change per iteration; never 0 *)
  update_pc : int;  (** pc of the [StoreLocal] update *)
  init : int option;  (** constant value on loop entry *)
  trip : int option;  (** body executions per loop entry *)
  range : (int * int) option;
      (** inclusive bounds of the slot's value at any pc of the loop
          body, post-update slack included *)
}

type loop_facts = {
  fid : int;
  header_bid : int;
  header_pc : int;  (** pc of the loop's [BrLoop] predicate *)
  depth : int;  (** nesting depth of the header block *)
  member : bool array;  (** by bid *)
  ivs : iv list;
}

type func_facts = {
  cfg : Cfa.Cfg.t;
  dom : Cfa.Dominance.t;
  loops : loop_facts array;
  index_av : av array;  (** by [pc - entry]; [Top] when unknown *)
}

type t = {
  prog : Vm.Program.t;
  funcs : func_facts option array;  (** by fid; [None] when degraded *)
  fid_of_pc : int array;
  const_global : (int, int) Hashtbl.t;  (** cell address -> value *)
  const_store_pc : (int, int) Hashtbl.t;  (** cell address -> store pc *)
}

exception Degrade

(* ---- write-once constant globals ---------------------------------------- *)

(* Coverage keeps the [MakeRefGlobal] ranges, not their cells: a
   registry program passes 25K-229K cells by reference against a few
   hundred instructions, and only the few write-once candidates are
   ever tested. *)
let const_globals (prog : Vm.Program.t) =
  let stores = Hashtbl.create 16 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Vm.Instr.StoreGlobal a ->
          Hashtbl.replace stores a
            (pc :: Option.value ~default:[] (Hashtbl.find_opt stores a))
      | _ -> ())
    prog.code;
  let ref_covered = Vm.Ranges.global_refs prog in
  let const_global = Hashtbl.create 16 in
  let const_store_pc = Hashtbl.create 16 in
  Hashtbl.iter
    (fun a sites ->
      match sites with
      | [ pc ] when pc > 0 && not (Vm.Ranges.mem ref_covered a) -> (
          match prog.code.(pc - 1) with
          | Vm.Instr.Const k ->
              Hashtbl.replace const_global a k;
              Hashtbl.replace const_store_pc a pc
          | _ -> ())
      | _ -> ())
    stores;
  (const_global, const_store_pc)

(* A [LoadGlobal a] at [load_pc] sees the write-once constant iff the
   single store dominates it within the same function: no other store
   site exists, so on every path reaching the load the cell already
   holds [k], and it can never change afterwards. *)
let const_at t ~load_pc a =
  match
    (Hashtbl.find_opt t.const_global a, Hashtbl.find_opt t.const_store_pc a)
  with
  | Some k, Some store_pc when t.fid_of_pc.(store_pc) = t.fid_of_pc.(load_pc)
    -> (
      let fid = t.fid_of_pc.(load_pc) in
      match t.funcs.(fid) with
      | None -> None
      | Some ff ->
          let sb = Cfa.Cfg.block_at ff.cfg store_pc in
          let lb = Cfa.Cfg.block_at ff.cfg load_pc in
          if
            (sb.bid = lb.bid && store_pc < load_pc)
            || (sb.bid <> lb.bid
               && Cfa.Dominance.dominates ff.dom sb.bid lb.bid)
          then Some k
          else None)
  | _ -> None

(* ---- induction-variable recognition ------------------------------------- *)

(* The recognized update shape: [s := s + c] / [s := s - c] (either
   operand order for [+]). Returns the step. *)
let update_step (code : Vm.Instr.t array) ~store_pc ~slot =
  if store_pc < 3 then None
  else
    match (code.(store_pc - 3), code.(store_pc - 2), code.(store_pc - 1)) with
    | Vm.Instr.LoadLocal s, Vm.Instr.Const c, Vm.Instr.Binop Minic.Ast.Add
      when s = slot ->
        Some c
    | Vm.Instr.Const c, Vm.Instr.LoadLocal s, Vm.Instr.Binop Minic.Ast.Add
      when s = slot ->
        Some c
    | Vm.Instr.LoadLocal s, Vm.Instr.Const c, Vm.Instr.Binop Minic.Ast.Sub
      when s = slot ->
        Some (-c)
    | _ -> None

(* Constant initial value on loop entry: walk backwards from each
   non-back-edge predecessor of the header through unique-predecessor
   chains until a [StoreLocal slot] is found; it must be [Const k] and
   every entry path must agree. Skipping unrelated instructions is sound
   because ref-covered slots were excluded and calls cannot write caller
   locals. *)
let entry_const (prog : Vm.Program.t) (cfg : Cfa.Cfg.t) (lf : loop_facts) slot
    =
  let header = cfg.blocks.(lf.header_bid) in
  let entry_preds =
    List.filter (fun p -> not lf.member.(p)) header.Cfa.Cfg.preds
  in
  let find_in_chain bid0 =
    let rec go bid fuel =
      if fuel = 0 then None
      else
        let b = cfg.blocks.(bid) in
        let rec scan pc =
          if pc < b.Cfa.Cfg.first then None
          else
            match prog.code.(pc) with
            | Vm.Instr.StoreLocal s when s = slot ->
                if pc > 0 then
                  match prog.code.(pc - 1) with
                  | Vm.Instr.Const k -> Some k
                  | _ -> Some min_int (* found the store; not a constant *)
                else Some min_int
            | _ -> scan (pc - 1)
        in
        match scan b.Cfa.Cfg.last with
        | Some v -> Some v
        | None -> (
            match b.Cfa.Cfg.preds with
            | [ p ] -> go p (fuel - 1)
            | _ -> None)
    in
    go bid0 64
  in
  match entry_preds with
  | [] -> None
  | p :: rest -> (
      match find_in_chain p with
      | Some k when k <> min_int ->
          if List.for_all (fun p' -> find_in_chain p' = Some k) rest then
            Some k
          else None
      | _ -> None)

(* Constant loop bound from the header's exit condition: the header
   block of a compiled [for]/[while] ends in
   [<lhs>; <rhs>; Binop rel; BrLoop]; accept [LoadLocal slot] against a
   constant (literal or write-once global) on either side. Returns the
   relation normalized to the slot on the left. *)
let header_bound t (code : Vm.Instr.t array) (header : Cfa.Cfg.block) slot =
  let last = header.Cfa.Cfg.last in
  if last < header.Cfa.Cfg.first + 3 then None
  else
    let rel =
      match code.(last - 1) with
      | Vm.Instr.Binop ((Minic.Ast.Lt | Le | Gt | Ge) as r) -> Some r
      | _ -> None
    in
    let operand pc =
      match code.(pc) with
      | Vm.Instr.LoadLocal s when s = slot -> Some `Slot
      | Vm.Instr.Const k -> Some (`Const k)
      | Vm.Instr.LoadGlobal a -> (
          match const_at t ~load_pc:pc a with
          | Some k -> Some (`Const k)
          | None -> None)
      | _ -> None
    in
    match (rel, operand (last - 3), operand (last - 2)) with
    | Some r, Some `Slot, Some (`Const b) -> Some (r, b)
    | Some r, Some (`Const b), Some `Slot ->
        let flipped =
          match r with
          | Minic.Ast.Lt -> Minic.Ast.Gt
          | Minic.Ast.Le -> Minic.Ast.Ge
          | Minic.Ast.Gt -> Minic.Ast.Lt
          | Minic.Ast.Ge -> Minic.Ast.Le
          | r -> r
        in
        Some (flipped, b)
    | _ -> None

let trip_and_range ~init ~step ~rel ~bound =
  (* [last] is the final value of the variable for which the continue
     condition still holds; the range's slack past [last] covers the
     value after the final update. *)
  let cdiv_floor a b = if a >= 0 then a / b else -((-a + b - 1) / b) in
  match (step > 0, rel) with
  | true, Minic.Ast.Lt when init < bound ->
      let last = init + (cdiv_floor (bound - 1 - init) step * step) in
      Some (((last - init) / step) + 1, (init, last + step))
  | true, Minic.Ast.Le when init <= bound ->
      let last = init + (cdiv_floor (bound - init) step * step) in
      Some (((last - init) / step) + 1, (init, last + step))
  | false, Minic.Ast.Gt when init > bound ->
      let last = init - (cdiv_floor (init - bound - 1) (-step) * -step) in
      Some (((init - last) / -step) + 1, (last + step, init))
  | false, Minic.Ast.Ge when init >= bound ->
      let last = init - (cdiv_floor (init - bound) (-step) * -step) in
      Some (((init - last) / -step) + 1, (last + step, init))
  | true, (Minic.Ast.Lt | Minic.Ast.Le) | false, (Minic.Ast.Gt | Minic.Ast.Ge)
    ->
      (* Condition already false on entry: the body never runs. *)
      Some (0, (init, init))
  | _ -> None (* the step fights the relation: no bounded progress *)

let loop_ivs t (prog : Vm.Program.t) (cfg : Cfa.Cfg.t) dom depth_of
    (l : Cfa.Loops.loop) covered =
  let member = Array.make (Array.length cfg.Cfa.Cfg.blocks) false in
  List.iter (fun b -> member.(b) <- true) l.Cfa.Loops.body;
  let lf =
    {
      fid = cfg.Cfa.Cfg.func.Vm.Program.fid;
      header_bid = l.Cfa.Loops.header;
      header_pc = cfg.Cfa.Cfg.blocks.(l.Cfa.Loops.header).Cfa.Cfg.last;
      depth = depth_of l.Cfa.Loops.header;
      member;
      ivs = [];
    }
  in
  if l.Cfa.Loops.degenerate then lf
  else begin
    let stores = Hashtbl.create 8 in
    List.iter
      (fun bid ->
        let b = cfg.Cfa.Cfg.blocks.(bid) in
        for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
          match prog.code.(pc) with
          | Vm.Instr.StoreLocal s ->
              Hashtbl.replace stores s
                (pc :: Option.value ~default:[] (Hashtbl.find_opt stores s))
          | _ -> ()
        done)
      l.Cfa.Loops.body;
    let ivs =
      Hashtbl.fold
        (fun slot sites acc ->
          match sites with
          | [ store_pc ] when not (Vm.Ranges.mem covered slot) -> (
              match update_step prog.code ~store_pc ~slot with
              | Some step when step <> 0 ->
                  let ub = (Cfa.Cfg.block_at cfg store_pc).Cfa.Cfg.bid in
                  (* Exactly once per iteration: the update block sits at
                     this loop's depth (not in an inner loop) and
                     dominates every back-edge source. *)
                  if
                    member.(ub)
                    && depth_of ub = lf.depth
                    && List.for_all
                         (fun (u, _) -> Cfa.Dominance.dominates dom ub u)
                         l.Cfa.Loops.back_edges
                  then begin
                    let init = entry_const prog cfg lf slot in
                    let trip, range =
                      match
                        ( init,
                          header_bound t prog.code
                            cfg.Cfa.Cfg.blocks.(lf.header_bid) slot )
                      with
                      | Some init, Some (rel, bound) -> (
                          match trip_and_range ~init ~step ~rel ~bound with
                          | Some (trip, range) -> (Some trip, Some range)
                          | None -> (None, None))
                      | _ -> (None, None)
                    in
                    { slot; step; update_pc = store_pc; init; trip; range }
                    :: acc
                  end
                  else acc
              | _ -> acc)
          | _ -> acc)
        stores []
    in
    { lf with ivs }
  end

(* ---- affine stack interpretation ---------------------------------------- *)

(* Value range of an affine form at a block, resolved through the
   innermost enclosing loop that binds the slot as an induction
   variable. *)
let range_of_av (loops : loop_facts array) ~bid v =
  match norm v with
  | Cst k -> Some (k, k)
  | Aff { slot; mul; add } ->
      Array.to_list loops
      |> List.find_map (fun (lf : loop_facts) ->
             if lf.member.(bid) then
               List.find_map
                 (fun iv ->
                   if iv.slot = slot then
                     Option.map
                       (fun (lo, hi) ->
                         let a = (mul * lo) + add and b = (mul * hi) + add in
                         (min a b, max a b))
                       iv.range
                   else None)
                 lf.ivs
             else None)
  | Top -> None

let is_pow2_mask m = m >= 0 && m land (m + 1) = 0

let av_binop loops ~bid op a b =
  let a = norm a and b = norm b in
  let r =
    match ((op : Minic.Ast.binop), a, b) with
    | Add, Cst x, Cst y -> Cst (x + y)
    | Add, Aff f, Cst k | Add, Cst k, Aff f -> Aff { f with add = f.add + k }
    | Add, Aff f, Aff g when f.slot = g.slot ->
        Aff { f with mul = f.mul + g.mul; add = f.add + g.add }
    | Sub, Cst x, Cst y -> Cst (x - y)
    | Sub, Aff f, Cst k -> Aff { f with add = f.add - k }
    | Sub, Cst k, Aff f -> Aff { slot = f.slot; mul = -f.mul; add = k - f.add }
    | Sub, Aff f, Aff g when f.slot = g.slot ->
        Aff { f with mul = f.mul - g.mul; add = f.add - g.add }
    | Mul, Cst x, Cst y -> Cst (x * y)
    | Mul, Aff f, Cst k | Mul, Cst k, Aff f ->
        Aff { f with mul = f.mul * k; add = f.add * k }
    | Div, Cst x, Cst y when y > 0 && x >= 0 -> Cst (x / y)
    | Mod, Cst x, Cst y when y > 0 && x >= 0 -> Cst (x mod y)
    | Shl, Cst x, Cst y when y >= 0 && y < 62 -> Cst (x lsl y)
    | Shl, Aff f, Cst k when k >= 0 && k < 62 ->
        Aff { f with mul = f.mul lsl k; add = f.add lsl k }
    | Shr, Cst x, Cst y when x >= 0 && y >= 0 && y < 62 -> Cst (x asr y)
    | BitAnd, Cst x, Cst y -> Cst (x land y)
    | BitOr, Cst x, Cst y -> Cst (x lor y)
    | BitXor, Cst x, Cst y -> Cst (x lxor y)
    | BitAnd, (Aff _ as v), Cst m | BitAnd, Cst m, (Aff _ as v)
      when is_pow2_mask m -> (
        (* x & (2^k - 1) is the identity when x provably stays within
           the mask — the circular-buffer subscripts of the workloads. *)
        match range_of_av loops ~bid v with
        | Some (lo, hi) when lo >= 0 && hi <= m -> v
        | _ -> Top)
    | _ -> Top
  in
  norm r

module Av_stack = struct
  type t = av list option

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> (
        try List.for_all2 av_equal x y
        with Invalid_argument _ -> raise Degrade)
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> (
        try Some (List.map2 av_join x y)
        with Invalid_argument _ -> raise Degrade)
end

module Av_solver = Dataflow.Make (Av_stack)

(* [iv_update pc] identifies the recognized IV update store at [pc]
   (slot, step): affine stack entries over that slot are rewritten in
   terms of the new value instead of being dropped. Any other store to a
   slot invalidates stale affine entries over it. *)
let step_av t loops ~bid ~iv_update instr ~pc stack =
  let pop = function [] -> raise Degrade | v :: rest -> (v, rest) in
  match (instr : Vm.Instr.t) with
  | Vm.Instr.Const k -> Cst k :: stack
  | LoadLocal s -> Aff { slot = s; mul = 1; add = 0 } :: stack
  | StoreLocal s ->
      let _, st = pop stack in
      let rewrite v =
        match norm v with
        | Aff f when f.slot = s -> (
            match iv_update pc with
            | Some (slot, step) when slot = s ->
                (* new = old + step, so old = new - step *)
                Aff { f with add = f.add - (f.mul * step) }
            | _ -> Top)
        | v -> v
      in
      List.map rewrite st
  | LoadGlobal a -> (
      match const_at t ~load_pc:pc a with
      | Some k -> Cst k :: stack
      | None -> Top :: stack)
  | StoreGlobal _ -> snd (pop stack)
  | MakeRefGlobal _ | MakeRefLocal _ -> Top :: stack
  | LoadIndex ->
      let _idx, st = pop stack in
      let _ref, st = pop st in
      Top :: st
  | StoreIndex ->
      let _v, st = pop stack in
      let _idx, st = pop st in
      snd (pop st)
  | Binop op ->
      let b, st = pop stack in
      let a, st = pop st in
      av_binop loops ~bid op a b :: st
  | Unop Minic.Ast.Neg -> (
      let v, st = pop stack in
      match norm v with
      | Cst k -> Cst (-k) :: st
      | Aff f -> Aff { f with mul = -f.mul; add = -f.add } :: st
      | Top -> Top :: st)
  | Unop _ -> Top :: snd (pop stack)
  | Jmp _ -> stack
  | Br _ -> snd (pop stack)
  | Call fid' ->
      let nparams = t.prog.funcs.(fid').Vm.Program.nparams in
      let rec drop n st = if n = 0 then st else drop (n - 1) (snd (pop st)) in
      Top :: drop nparams stack
  | Ret -> snd (pop stack)
  | Pop -> snd (pop stack)
  | Dup2 -> (
      match stack with a :: b :: _ -> a :: b :: stack | _ -> raise Degrade)
  | Print -> snd (pop stack)
  | Halt -> stack

let solve_function t (loops : loop_facts array) (cfg : Cfa.Cfg.t) =
  let f = cfg.Cfa.Cfg.func in
  let updates = Hashtbl.create 8 in
  Array.iter
    (fun lf ->
      List.iter
        (fun iv -> Hashtbl.replace updates iv.update_pc (iv.slot, iv.step))
        lf.ivs)
    loops;
  let iv_update pc = Hashtbl.find_opt updates pc in
  let index_av = Array.make (f.Vm.Program.code_end - f.Vm.Program.entry) Top in
  let run_block ~observe (b : Cfa.Cfg.block) st =
    let st = ref st in
    for pc = b.Cfa.Cfg.first to b.Cfa.Cfg.last do
      (if observe then
         match (t.prog.code.(pc), !st) with
         | Vm.Instr.LoadIndex, idx :: _ ->
             index_av.(pc - f.Vm.Program.entry) <- norm idx
         | Vm.Instr.StoreIndex, _ :: idx :: _ ->
             index_av.(pc - f.Vm.Program.entry) <- norm idx
         | _ -> ());
      st :=
        step_av t loops ~bid:b.Cfa.Cfg.bid ~iv_update t.prog.code.(pc) ~pc !st
    done;
    !st
  in
  let transfer b = function
    | None -> None
    | Some st -> Some (run_block ~observe:false b st)
  in
  let init (b : Cfa.Cfg.block) =
    if b.Cfa.Cfg.bid = cfg.Cfa.Cfg.entry_bid then Some [] else None
  in
  let facts =
    Av_solver.solve ~direction:Dataflow.Forward ~cfg ~init ~transfer
  in
  Array.iter
    (fun (b : Cfa.Cfg.block) ->
      match facts.Av_solver.input.(b.Cfa.Cfg.bid) with
      | None -> ()
      | Some st -> ignore (run_block ~observe:true b st))
    cfg.Cfa.Cfg.blocks;
  index_av

(* ---- analysis entry ----------------------------------------------------- *)

let analyze (prog : Vm.Program.t) =
  let const_global, const_store_pc = const_globals prog in
  let t =
    {
      prog;
      funcs = Array.make (Array.length prog.funcs) None;
      fid_of_pc = Vm.Program.fid_of_pc_table prog;
      const_global;
      const_store_pc;
    }
  in
  Array.iter
    (fun (f : Vm.Program.func_info) ->
      try
        let cfg = Cfa.Cfg.build prog f in
        let dom = Cfa.Dominance.of_cfg cfg in
        let nl = Cfa.Analysis.loops_of prog cfg dom in
        let depth_of bid = nl.Cfa.Loops.depth.(bid) in
        (* Local slots a local-array reference may alias: an indexed
           store through [MakeRefLocal] could write them, so they are
           never trusted as scalar induction variables (calls, by
           contrast, cannot write caller locals). *)
        let covered = Vm.Ranges.local_refs prog f in
        (* Structural facts first — published early so [const_at] can
           resolve same-function dominance for trip bounds — then the
           CFG fixpoint for subscripts. *)
        t.funcs.(f.fid) <- Some { cfg; dom; loops = [||]; index_av = [||] };
        let loop_facts =
          Array.map
            (fun l -> loop_ivs t prog cfg dom depth_of l covered)
            nl.Cfa.Loops.loops
        in
        t.funcs.(f.fid) <-
          Some { cfg; dom; loops = loop_facts; index_av = [||] };
        let index_av = solve_function t loop_facts cfg in
        t.funcs.(f.fid) <- Some { cfg; dom; loops = loop_facts; index_av }
      with Degrade -> t.funcs.(f.fid) <- None)
    prog.funcs;
  t

(* ---- queries ------------------------------------------------------------ *)

let func_facts t pc =
  let fid =
    if pc >= 0 && pc < Array.length t.fid_of_pc then t.fid_of_pc.(pc) else -1
  in
  if fid < 0 then None else t.funcs.(fid)

let index_fact t pc =
  match func_facts t pc with
  | None -> Top
  | Some ff ->
      let entry = ff.cfg.Cfa.Cfg.func.Vm.Program.entry in
      if pc - entry >= 0 && pc - entry < Array.length ff.index_av then
        ff.index_av.(pc - entry)
      else Top

let index_range t pc =
  match func_facts t pc with
  | None -> None
  | Some ff ->
      let bid = (Cfa.Cfg.block_at ff.cfg pc).Cfa.Cfg.bid in
      range_of_av ff.loops ~bid (index_fact t pc)

(* ---- iteration phase ---------------------------------------------------- *)

type phase = Before | After | Ambiguous

(* Where does an access at [pc] sit relative to the IV update within one
   iteration? Intra-iteration paths are paths in the loop subgraph that
   start at the header and never re-enter it (re-entering starts the
   next iteration). The access is definitely [After] when every such
   path to it passes the update block, definitely [Before] when none
   can. Computed by two reachability sweeps; loop bodies are small. *)
let phase_of ff (lf : loop_facts) (iv : iv) pc =
  let ub = (Cfa.Cfg.block_at ff.cfg iv.update_pc).Cfa.Cfg.bid in
  let ab = (Cfa.Cfg.block_at ff.cfg pc).Cfa.Cfg.bid in
  if ab = ub then if pc > iv.update_pc then After else Before
  else begin
    let n = Array.length ff.cfg.Cfa.Cfg.blocks in
    let sweep ~start ~skip =
      let seen = Array.make n false in
      let q = Queue.create () in
      let push s =
        if lf.member.(s) && s <> lf.header_bid && s <> skip && not seen.(s)
        then begin
          seen.(s) <- true;
          Queue.push s q
        end
      in
      List.iter push start;
      while not (Queue.is_empty q) do
        let b = Queue.pop q in
        List.iter push ff.cfg.Cfa.Cfg.blocks.(b).Cfa.Cfg.succs
      done;
      seen
    in
    let avoiding_update =
      sweep ~start:ff.cfg.Cfa.Cfg.blocks.(lf.header_bid).Cfa.Cfg.succs
        ~skip:ub
    in
    let through_update =
      sweep ~start:ff.cfg.Cfa.Cfg.blocks.(ub).Cfa.Cfg.succs ~skip:(-1)
    in
    if ab = lf.header_bid then Before
    else
      match (avoiding_update.(ab), through_update.(ab)) with
      | true, false -> Before
      | false, true -> After
      | _ -> Ambiguous
  end

type siv = {
  iv : iv;
  loop : loop_facts;
  head_phase : phase;
  tail_phase : phase;
}

(* The innermost loop containing both pcs whose induction variable is
   [slot], with each access's per-iteration phase. *)
let common_siv t ~head_pc ~tail_pc ~slot =
  match (func_facts t head_pc, func_facts t tail_pc) with
  | Some ff, Some ff' when ff == ff' ->
      let hb = (Cfa.Cfg.block_at ff.cfg head_pc).Cfa.Cfg.bid in
      let tb = (Cfa.Cfg.block_at ff.cfg tail_pc).Cfa.Cfg.bid in
      Array.to_list ff.loops
      |> List.filter (fun lf -> lf.member.(hb) && lf.member.(tb))
      |> List.sort (fun a b -> compare b.depth a.depth)
      |> List.find_map (fun lf ->
             List.find_map
               (fun iv ->
                 if iv.slot = slot then
                   Some
                     {
                       iv;
                       loop = lf;
                       head_phase = phase_of ff lf iv head_pc;
                       tail_phase = phase_of ff lf iv tail_pc;
                     }
                 else None)
               lf.ivs)
  | _ -> None

(* Is the loop's body executed at most once per program run? True when
   the enclosing function runs at most once and no outer loop repeats
   the entry. Cross-execution dependence instances are then impossible,
   which is what licenses iteration-distance claims about every dynamic
   instance of a (head, tail) pair. *)
let loop_entered_once (lf : loop_facts) ~called_once =
  called_once lf.fid && lf.depth = 1
