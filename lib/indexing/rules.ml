type t = {
  ipdom : int array;
  ipdom_target : Bytes.t;
      (* [ipdom_target] holds '\001' at [pc] iff some construct label
         has [pc] as its immediate post-dominator — i.e. rule (5) can
         possibly fire here. Most executed pcs are not a join point of
         any construct, so the per-instruction fast path is one byte
         load and a branch instead of a stack-top inspection. Bytes
         rather than bool array so the whole program's flags fit in a
         few cache lines, and indexed unsafely: every pc the engines
         pass is in [0, code length), the array's exact extent. *)
  tgt_pfx : int array;
      (* [tgt_pfx.(pc)] = number of ipdom-target pcs below [pc]; length
         code+1. A pc range [lo..hi] contains a rule-(5) join point iff
         [tgt_pfx.(hi+1) <> tgt_pfx.(lo)] — two loads decide whether
         {!on_instr_range} can advance the clock in bulk or must probe
         per pc. *)
  tr : Index_tree.t;
  nodes : Node.store;
  mutable forced : int;
}

let create ~ipdom ~tree =
  let n = Array.length ipdom in
  let ipdom_target = Bytes.make n '\000' in
  Array.iter
    (fun d -> if d >= 0 && d < n then Bytes.set ipdom_target d '\001')
    ipdom;
  let tgt_pfx = Array.make (n + 1) 0 in
  for pc = 0 to n - 1 do
    tgt_pfx.(pc + 1) <-
      (tgt_pfx.(pc) + if Bytes.get ipdom_target pc <> '\000' then 1 else 0)
  done;
  {
    ipdom;
    ipdom_target;
    tgt_pfx;
    tr = tree;
    nodes = Index_tree.nodes tree;
    forced = 0;
  }

let tree t = t.tr

(* Rule (5): close every construct whose immediate post-dominator is
   this instruction. Out of line so [on_instr] itself stays small enough
   to inline into the hook closure. *)
let rec pops t pc =
  if Index_tree.depth t.tr > 0 then begin
    let c = Index_tree.peek t.tr in
    if (not (Node.is_func t.nodes c)) && t.ipdom.(Node.label t.nodes c) = pc
    then begin
      ignore (Index_tree.pop t.tr);
      pops t pc
    end
  end

let[@inline] on_instr t ~pc =
  Index_tree.tick t.tr;
  if Bytes.unsafe_get t.ipdom_target pc <> '\000' then pops t pc

(* Equivalent to [on_instr] at every pc of [lo..hi] in order. Ranges
   with no ipdom target in them — most executed segments — advance the
   clock in one add; rule (5) cannot fire inside them, and the clock is
   only observable at events, which the caller (the ring drain) replays
   strictly after this whole range. *)
(* Does [lo, hi] contain a rule-(5) join point? Two prefix-sum loads;
   the register engine asks this once per IR segment at closure-build
   time to decide whether the segment must appear in the event ring at
   all — target-free segments only move the clock, which the ring
   carries on the events themselves. *)
let range_has_target t ~lo ~hi =
  Array.unsafe_get t.tgt_pfx (hi + 1) <> Array.unsafe_get t.tgt_pfx lo

let on_instr_range t ~lo ~hi =
  if Array.unsafe_get t.tgt_pfx (hi + 1) = Array.unsafe_get t.tgt_pfx lo then
    Index_tree.bulk_tick t.tr (hi - lo + 1)
  else
    for pc = lo to hi do
      Index_tree.tick t.tr;
      if Bytes.unsafe_get t.ipdom_target pc <> '\000' then pops t pc
    done

let on_branch t ~pc ~kind ~taken =
  match kind with
  | Vm.Instr.BrSc -> ()
  | Vm.Instr.BrIf -> ignore (Index_tree.push t.tr ~label:pc ~is_func:false)
  | Vm.Instr.BrLoop ->
      (* Rule (4): close the previous iteration (and any break/continue
         guards it left open), then open the next one unless exiting. *)
      ignore (Index_tree.pop_through t.tr ~label:pc);
      if not taken then ignore (Index_tree.push t.tr ~label:pc ~is_func:false)

let on_call t ~entry_pc =
  ignore (Index_tree.push t.tr ~label:entry_pc ~is_func:true)

(* Rule (2). Constructs above the function node whose ipdom was jumped
   over should not exist (the epilogue post-dominates the body); pop them
   defensively if present. Top level and option-free: this runs on every
   return. *)
let rec on_ret t =
  if Index_tree.depth t.tr = 0 then invalid_arg "Rules.on_ret: empty stack";
  let c = Index_tree.pop t.tr in
  if not (Node.is_func t.nodes c) then begin
    t.forced <- t.forced + 1;
    on_ret t
  end

let finish t =
  while Index_tree.depth t.tr > 0 do
    ignore (Index_tree.pop t.tr)
  done

let forced_pops t = t.forced
