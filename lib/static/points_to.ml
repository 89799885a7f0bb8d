type region =
  | Global of { base : int; len : int }
  | Frame of { fid : int; off : int; len : int }

type access = {
  pc : int;
  fid : int;
  is_write : bool;
  regions : region list;
  complete : bool;
  own_frame_direct : bool;
}

type t = {
  prog : Vm.Program.t;
  accesses : access option array;
  degraded : bool;
}

let is_event_pc (prog : Vm.Program.t) pc =
  match prog.code.(pc) with
  | Vm.Instr.LoadGlobal _ | Vm.Instr.StoreGlobal _ | Vm.Instr.LoadIndex
  | Vm.Instr.StoreIndex ->
      true
  | _ -> false

let may_overlap a b =
  match (a, b) with
  | Global { base = b1; len = l1 }, Global { base = b2; len = l2 } ->
      b1 < b2 + l2 && b2 < b1 + l1
  | ( Frame { fid = f1; off = o1; len = l1 },
      Frame { fid = f2; off = o2; len = l2 } ) ->
      f1 = f2 && o1 < o2 + l2 && o2 < o1 + l1
  | Global _, Frame _ | Frame _, Global _ -> false

let regions_may_alias a b =
  (not (a.complete && b.complete))
  || List.exists (fun ra -> List.exists (may_overlap ra) b.regions) a.regions

let exact_global = function
  | { complete = true; regions = [ Global { base; len = 1 } ]; _ } -> Some base
  | _ -> None

let same_single_array a b =
  a.complete && b.complete
  &&
  match (a.regions, b.regions) with
  | [ Global { base = ba; len = la } ], [ Global { base = bb; len = lb } ] ->
      ba = bb && la = lb
  | _ -> false

let pp_region ppf = function
  | Global { base; len } -> Format.fprintf ppf "g[%d..%d)" base (base + len)
  | Frame { fid; off; len } ->
      Format.fprintf ppf "f%d[%d..%d)" fid off (off + len)

let region_to_string r = Format.asprintf "%a" pp_region r

(* ---- abstract values --------------------------------------------------- *)

(* A tracked reference: a creation-site region plus whether it was
   reached without passing through a parameter slot or memory. [direct]
   is what distinguishes "this activation's frame" from "some
   activation's frame" under recursion. *)
module Ref = struct
  type t = { region : region; direct : bool }

  let compare (a : t) (b : t) = compare a b
end

module Rset = Set.Make (Ref)

type absval = { refs : Rset.t; top : bool }

let vint = { refs = Rset.empty; top = false }
let vtop = { refs = Rset.empty; top = true }
let vref region = { refs = Rset.singleton { Ref.region; direct = true }; top = false }
let vjoin a b = { refs = Rset.union a.refs b.refs; top = a.top || b.top }
let vequal a b = Rset.equal a.refs b.refs && a.top = b.top
let is_refy v = v.top || not (Rset.is_empty v.refs)

let strip_direct v =
  { v with refs = Rset.map (fun r -> { r with Ref.direct = false }) v.refs }

(* Raised on an inconsistent abstract stack (shape mismatch at a join,
   underflow): possible only for hand-crafted bytecode. The caller
   degrades the whole analysis rather than trusting partial facts. *)
exception Degrade

(* ---- whole-program environment ---------------------------------------- *)

type env = {
  slots : (int * int, absval) Hashtbl.t;  (** (fid, slot) -> may-hold *)
  ret_refs : bool array;  (** fid -> may return a reference *)
  mutable mem_refs : bool;  (** a reference escaped into memory *)
  mutable changed : bool;
}

let slot_val env fid s =
  match Hashtbl.find_opt env.slots (fid, s) with Some v -> v | None -> vint

let record_slot env fid s v =
  let cur = slot_val env fid s in
  let nv = vjoin cur v in
  if not (vequal cur nv) then begin
    Hashtbl.replace env.slots (fid, s) nv;
    env.changed <- true
  end

let record_mem_escape env =
  if not env.mem_refs then begin
    env.mem_refs <- true;
    env.changed <- true
  end

let record_ret_ref env fid =
  if not env.ret_refs.(fid) then begin
    env.ret_refs.(fid) <- true;
    env.changed <- true
  end

(* ---- abstract transfer ------------------------------------------------- *)

(* One instruction over the abstract stack (head = top of stack).
   [record] distinguishes the solver passes (pure) from the recording
   pass that feeds the global environment and, once converged, the
   access table via [observe]. *)
let step env (funcs : Vm.Program.func_info array) fid ~record ~observe instr
    stack =
  let pop = function [] -> raise Degrade | v :: rest -> (v, rest) in
  let mem_val () = if env.mem_refs then vtop else vint in
  match (instr : Vm.Instr.t) with
  | Const _ -> vint :: stack
  | LoadLocal s -> slot_val env fid s :: stack
  | StoreLocal s ->
      let v, st = pop stack in
      (* Defensive: scalar slots never hold references in compiled
         code, but a stored ref must still flow if one ever lands
         here. Stored-then-reloaded references lose directness — a
         slot outlives nothing, but keeping the lattice simple here
         costs no precision on compiler output. *)
      if record && is_refy v then record_slot env fid s (strip_direct v);
      st
  | LoadGlobal a ->
      (* The access target is the static cell, not the loaded value. *)
      observe ~is_write:false (vref (Global { base = a; len = 1 }));
      mem_val () :: stack
  | StoreGlobal a ->
      let v, st = pop stack in
      observe ~is_write:true (vref (Global { base = a; len = 1 }));
      if record && is_refy v then record_mem_escape env;
      st
  | MakeRefGlobal (base, len) -> vref (Global { base; len }) :: stack
  | MakeRefLocal (off, len) -> vref (Frame { fid; off; len }) :: stack
  | LoadIndex ->
      let _idx, st = pop stack in
      let r, st = pop st in
      observe ~is_write:false r;
      mem_val () :: st
  | StoreIndex ->
      let v, st = pop stack in
      let _idx, st = pop st in
      let r, st = pop st in
      observe ~is_write:true r;
      if record && is_refy v then record_mem_escape env;
      st
  | Binop _ ->
      let _, st = pop stack in
      let _, st = pop st in
      vint :: st
  | Unop _ ->
      let _, st = pop stack in
      vint :: st
  | Jmp _ -> stack
  | Br _ -> snd (pop stack)
  | Call fid' ->
      let callee = funcs.(fid') in
      (* Arguments occupy the top [nparams] slots, first parameter
         deepest; the interpreter copies them into callee slots
         [0 .. nparams-1] in that order. *)
      let rec take n st acc =
        if n = 0 then (acc, st)
        else
          match st with
          | [] -> raise Degrade
          | v :: rest -> take (n - 1) rest (v :: acc)
      in
      let args, st = take callee.nparams stack [] in
      if record then
        List.iteri
          (fun i v ->
            if is_refy v then record_slot env callee.fid i (strip_direct v))
          args;
      (if env.ret_refs.(fid') then vtop else vint) :: st
  | Ret ->
      let v, st = pop stack in
      if record && is_refy v then record_ret_ref env fid;
      st
  | Pop -> snd (pop stack)
  | Dup2 -> (
      match stack with
      | a :: b :: _ -> a :: b :: stack
      | _ -> raise Degrade)
  | Print -> snd (pop stack)
  | Halt -> stack

(* ---- per-function solve ------------------------------------------------ *)

module Stack_lat = struct
  type t = absval list option

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> (
        try List.for_all2 vequal x y with Invalid_argument _ -> raise Degrade)
    | _ -> false

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some x, Some y -> (
        try Some (List.map2 vjoin x y)
        with Invalid_argument _ -> raise Degrade)
end

module Solver = Dataflow.Make (Stack_lat)

let no_observe ~is_write:_ _ = ()

let solve_function env (code : Vm.Instr.t array) funcs (cfg : Cfa.Cfg.t) =
  let fid = cfg.func.Vm.Program.fid in
  let transfer (b : Cfa.Cfg.block) = function
    | None -> None
    | Some st ->
        let st = ref st in
        for pc = b.first to b.last do
          st :=
            step env funcs fid ~record:false ~observe:no_observe code.(pc) !st
        done;
        Some !st
  in
  let init (b : Cfa.Cfg.block) =
    if b.bid = cfg.entry_bid then Some [] else None
  in
  Solver.solve ~direction:Dataflow.Forward ~cfg ~init ~transfer

(* Walk every reachable block from its fixpoint entry fact, feeding the
   environment ([record]) and optionally the access sink. *)
let record_pass env (code : Vm.Instr.t array) funcs (cfg : Cfa.Cfg.t)
    (facts : Solver.facts) sink =
  let fid = cfg.func.Vm.Program.fid in
  Array.iter
    (fun (b : Cfa.Cfg.block) ->
      match facts.Solver.input.(b.bid) with
      | None -> ()
      | Some st ->
          let st = ref st in
          for pc = b.first to b.last do
            let observe ~is_write v = sink ~pc ~fid ~is_write v in
            st := step env funcs fid ~record:true ~observe code.(pc) !st
          done)
    cfg.blocks

let access_of_absval ~pc ~fid ~is_write v =
  let complete = not v.top in
  let regions =
    Rset.fold (fun (r : Ref.t) acc -> r.region :: acc) v.refs []
    |> List.sort_uniq compare
  in
  let own_frame_direct =
    complete
    && (not (Rset.is_empty v.refs))
    && Rset.for_all
         (fun (r : Ref.t) ->
           r.direct
           && match r.region with Frame f -> f.fid = fid | Global _ -> false)
         v.refs
  in
  { pc; fid; is_write; regions; complete; own_frame_direct }

let degraded_result (prog : Vm.Program.t) =
  let n = Array.length prog.code in
  let accesses = Array.make n None in
  Array.iter
    (fun (f : Vm.Program.func_info) ->
      for pc = f.entry to f.code_end - 1 do
        if is_event_pc prog pc then
          accesses.(pc) <-
            Some
              {
                pc;
                fid = f.fid;
                is_write =
                  (match prog.code.(pc) with
                  | Vm.Instr.StoreGlobal _ | Vm.Instr.StoreIndex -> true
                  | _ -> false);
                regions = [];
                complete = false;
                own_frame_direct = false;
              }
      done)
    prog.funcs;
  { prog; accesses; degraded = true }

let analyze (prog : Vm.Program.t) =
  let funcs = prog.funcs in
  let cfgs = Array.map (Cfa.Cfg.build prog) funcs in
  let env =
    {
      slots = Hashtbl.create 64;
      ret_refs = Array.make (Array.length funcs) false;
      mem_refs = false;
      changed = true;
    }
  in
  try
    (* Outer fixpoint: the per-function stack solutions depend on the
       slot table / escape flags, which the recording passes grow
       monotonically; the reference universe is finite (one entry per
       MakeRef site, doubled by [direct]), so this converges. *)
    let code = prog.code in
    let solve_all () =
      Array.map (fun cfg -> solve_function env code funcs cfg) cfgs
    in
    let facts = ref (solve_all ()) in
    while env.changed do
      env.changed <- false;
      Array.iteri
        (fun i cfg ->
          record_pass env code funcs cfg
            (!facts).(i)
            (fun ~pc:_ ~fid:_ ~is_write:_ _ -> ()))
        cfgs;
      if env.changed then facts := solve_all ()
    done;
    let accesses = Array.make (Array.length prog.code) None in
    Array.iteri
      (fun i cfg ->
        record_pass env code funcs cfg
          (!facts).(i)
          (fun ~pc ~fid ~is_write v ->
            accesses.(pc) <- Some (access_of_absval ~pc ~fid ~is_write v)))
      cfgs;
    { prog; accesses; degraded = false }
  with Degrade -> degraded_result prog

let access t pc = t.accesses.(pc)
