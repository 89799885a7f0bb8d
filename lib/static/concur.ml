(* The concurrency model implied by spawning a construct.

   Advice proposes running a construct's repeating units in parallel:
   the iterations of a [CLoop], or the dynamic call instances of a
   [CProc] turned into futures. The happens-before structure this
   licenses is the classic fork-join shape —

     prologue  -->  spawn  -->  unit_0 ... unit_{n-1}  -->  join  -->  epilogue

   — where the spawn edge orders everything before the construct against
   every unit, the join edge orders every unit against the continuation,
   and {e only the units themselves are mutually unordered}. Two
   instruction instances may therefore happen in parallel exactly when
   both execute inside the construct's dynamic extent, in {e different}
   units. That reduces may-happen-in-parallel enumeration to the cross
   product of one static region with itself: the pcs of the construct's
   body span plus the full bodies of every function its units can
   transitively call (code run on a unit's behalf is part of the unit).

   A [CCond] has no repeating unit — its arms are alternatives, not
   parallel work — so it has no concurrent region at all. *)

type unit_kind = Loop_iterations | Proc_instances

type region = {
  cid : int;
  kind : unit_kind;
  header_pc : int;
      (* the [BrLoop] predicate pc for loops, the entry pc for procs *)
  fid : int;
      (* the function whose single activation all units share: the
         loop's enclosing function, or the spawned procedure itself
         (each instance gets a fresh activation of it — see
         {!Race}'s frame rules) *)
  event_pcs : int array;
      (* memory-event pcs of the region, sorted ascending, deduplicated *)
  callee_fids : int list;  (* transitively callable functions, sorted *)
}

let unit_kind_to_string = function
  | Loop_iterations -> "loop iterations"
  | Proc_instances -> "call instances"

(* Transitive closure of the callee set, seeded from the construct's
   body span. The same traversal as {!Depend.construct_proven_independent}
   uses for its all-pruned check: a unit's dynamic extent is its body
   span plus everything reachable through [Call]. *)
let closure (prog : Vm.Program.t) ~body_first ~body_last =
  let seen = Hashtbl.create 8 in
  let rec visit fid =
    if not (Hashtbl.mem seen fid) then begin
      Hashtbl.add seen fid ();
      let f = prog.Vm.Program.funcs.(fid) in
      List.iter visit (Vm.Program.callees_in prog f.entry (f.code_end - 1))
    end
  in
  List.iter visit (Vm.Program.callees_in prog body_first body_last);
  Hashtbl.fold (fun fid () acc -> fid :: acc) seen [] |> List.sort compare

let of_construct (prog : Vm.Program.t) (c : Vm.Program.construct_info) =
  match c.kind with
  | Vm.Program.CCond -> None
  | Vm.Program.CLoop | Vm.Program.CProc ->
      let kind =
        match c.kind with
        | Vm.Program.CLoop -> Loop_iterations
        | _ -> Proc_instances
      in
      let callee_fids = closure prog ~body_first:c.body_first ~body_last:c.body_last in
      let pcs = ref [] in
      let add_range first last =
        for pc = first to last do
          if Points_to.is_event_pc prog pc then pcs := pc :: !pcs
        done
      in
      add_range c.body_first c.body_last;
      List.iter
        (fun fid ->
          let f = prog.Vm.Program.funcs.(fid) in
          add_range f.entry (f.code_end - 1))
        callee_fids;
      let event_pcs =
        Array.of_list (List.sort_uniq compare !pcs)
      in
      Some { cid = c.cid; kind; header_pc = c.head_pc; fid = c.fid;
             event_pcs; callee_fids }

(* Enumerate the unordered may-happen-in-parallel pairs of the region:
   every (p, q) with p <= q, including p = q — the same static access
   can execute in two different units, so self-pairs are real candidates
   (a write racing its own instance in another iteration is the
   canonical WAW). The callback returns [false] to stop early (the
   caller has seen enough witnesses). *)
let iter_mhp_pairs region f =
  let n = Array.length region.event_pcs in
  let continue = ref true in
  let i = ref 0 in
  while !continue && !i < n do
    let j = ref !i in
    while !continue && !j < n do
      if not (f region.event_pcs.(!i) region.event_pcs.(!j)) then
        continue := false;
      incr j
    done;
    incr i
  done
