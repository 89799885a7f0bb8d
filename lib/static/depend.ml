type verdict = Must_independent | May_dependent | Must_dependent

let verdict_to_string = function
  | Must_independent -> "must-indep"
  | May_dependent -> "may-dep"
  | Must_dependent -> "must-dep"

let verdict_of_string = function
  | "must-indep" -> Some Must_independent
  | "may-dep" -> Some May_dependent
  | "must-dep" -> Some Must_dependent
  | _ -> None

type t = {
  prog : Vm.Program.t;
  pts : Points_to.t;
  modref : Modref.t;
  legality : Legality.t;
  race : Race.t;
  dist : Distance.t;
  loop_depth : int array;
  fid_of_pc : int array;  (** -1 for the entry preamble *)
  live : bool array;
  called_once : bool array;
  prune : bool array;
  npruned : int;
  nevents : int;
  must_reach : Reaching_defs.t option array;  (** by fid, live only *)
}

let points t = t.pts
let modref t = t.modref
let legality t = t.legality
let race t = t.race
let distance t = t.dist
let degraded t = t.pts.Points_to.degraded
let prune_mask t = t.prune
let pruned_count t = t.npruned
let event_count t = t.nevents
let called_once t fid = t.called_once.(fid)
let live t fid = t.live.(fid)

(* ---- call graph -------------------------------------------------------- *)

(* Functions reachable from [main] via Call instructions in reachable
   code. Event pcs of unreachable functions never execute: they are
   trivially prunable and must not veto anyone else's pruning. *)
let live_fids (prog : Vm.Program.t) =
  let n = Array.length prog.funcs in
  let live = Array.make n false in
  let rec visit fid =
    if not live.(fid) then begin
      live.(fid) <- true;
      let f = prog.funcs.(fid) in
      List.iter visit (Vm.Program.callees_in prog f.entry (f.code_end - 1))
    end
  in
  visit prog.main_fid;
  live

(* [called_once.(f)]: every run executes the body of [f] at most once.
   True when f has a single live call site that itself runs at most
   once: either the entry preamble (executed exactly once), or a
   non-loop pc of a called-once function other than f itself. *)
let called_once_tbl (prog : Vm.Program.t) fid_of_pc live loop_depth =
  let n = Array.length prog.funcs in
  let sites = Array.make n [] in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Vm.Instr.Call g ->
          let caller = fid_of_pc.(pc) in
          if caller = -1 || live.(caller) then sites.(g) <- pc :: sites.(g)
      | _ -> ())
    prog.code;
  let once = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun f s ->
        if not once.(f) then
          match s with
          | [ site ] ->
              let caller = fid_of_pc.(site) in
              let ok =
                if caller = -1 then true
                else loop_depth.(site) = 0 && caller <> f && once.(caller)
              in
              if ok then begin
                once.(f) <- true;
                changed := true
              end
          | _ -> ())
      sites
  done;
  once

(* ---- cell-level refinement --------------------------------------------- *)

(* Two accesses to the {e same} global array whose subscript value sets
   provably never meet touch disjoint cells on every execution — the
   distance engine's [No_dep] promotes region-overlapping pairs to
   independent. Identity of the array (single complete [Global] region
   with the same extent) is what turns subscript-value disjointness into
   address disjointness. *)
let same_array_no_dep dist (a : Points_to.access) (b : Points_to.access) =
  Points_to.same_single_array a b
  && Distance.no_dep dist ~head_pc:a.Points_to.pc ~tail_pc:b.Points_to.pc

(* ---- pruning ----------------------------------------------------------- *)

(* Pruning a pc removes its [on_read]/[on_write] hook call, which (a)
   drops every edge the pc would head or tail, and (b) stops updating
   the shadow cells of the addresses it touches. (a) is harmless only if
   the pc can form no edge; (b) is harmless only if no {e other} pc's
   edge detection consults those cells. Hence:

   - a read is prunable iff its address set is complete and disjoint
     from every live write's (no RAW in, no WAR out — and its
     last-reader shadow entry can only matter to an aliasing write);
   - a write is prunable iff additionally no live {e read} and no other
     live {e write} can alias it (a skipped write leaves a stale
     last-writer cell that would corrupt a later aliasing access's
     attribution, not merely drop an edge), and it cannot form a WAW
     edge with itself: it executes at most once per shadow lifetime of
     its cells. That last fact holds when the pc is outside every
     natural loop and either every region is the current activation's
     own frame (frame release clears the cells between activations) or
     the enclosing function body runs at most once per program. *)
(* The prune derivation proper, over an access {e getter} rather than
   the points-to table directly: [widen_prune] re-runs it with accesses
   whose regions have been sharpened by IR-derived hints, keeping one
   derivation for both the base and the widened mask. *)
let compute_prune_with (prog : Vm.Program.t)
    (pts : Points_to.t) (get : int -> Points_to.access option)
    (dist : Distance.t) fid_of_pc live called_once loop_depth =
  let n = Array.length prog.code in
  let prune = Array.make n false in
  if pts.Points_to.degraded then (prune, 0, 0)
  else begin
    let live_accesses = ref [] in
    for pc = 0 to n - 1 do
      match get pc with
      | Some a when live.(a.Points_to.fid) -> live_accesses := a :: !live_accesses
      | _ -> ()
    done;
    let reads, writes =
      List.partition (fun a -> not a.Points_to.is_write) !live_accesses
    in
    let disjoint a b =
      (not (Points_to.regions_may_alias a b))
      || same_array_no_dep dist a b
    in
    let nevents = ref 0 and npruned = ref 0 in
    for pc = 0 to n - 1 do
      if Points_to.is_event_pc prog pc then begin
        let fid = fid_of_pc.(pc) in
        let dead = fid >= 0 && not live.(fid) in
        let p =
          if dead then true
          else
            match get pc with
            | None -> true (* unreachable within its function: never runs *)
            | Some a when not a.Points_to.is_write ->
                a.Points_to.complete && List.for_all (disjoint a) writes
            | Some a ->
                a.Points_to.complete
                && List.for_all (disjoint a) reads
                && List.for_all
                     (fun w -> w.Points_to.pc = pc || disjoint a w)
                     writes
                && loop_depth.(pc) = 0
                && (a.Points_to.own_frame_direct || called_once.(fid))
        in
        prune.(pc) <- p;
        incr nevents;
        if p then incr npruned
      end
    done;
    (prune, !npruned, !nevents)
  end

let compute_prune prog pts dist fid_of_pc live called_once loop_depth =
  compute_prune_with prog pts (Points_to.access pts) dist fid_of_pc live
    called_once loop_depth

(* ---- analysis entry ---------------------------------------------------- *)

let analyze ?analysis (prog : Vm.Program.t) =
  let pts = Points_to.analyze prog in
  let analysis =
    match analysis with Some a -> a | None -> Cfa.Analysis.analyze prog
  in
  let loop_depth = analysis.Cfa.Analysis.loop_depth_of_pc in
  let fid_of_pc = Vm.Program.fid_of_pc_table prog in
  let live = live_fids prog in
  let called_once = called_once_tbl prog fid_of_pc live loop_depth in
  let dist =
    Distance.analyze ~called_once:(fun fid -> called_once.(fid)) prog
  in
  let prune, npruned, nevents =
    compute_prune prog pts dist fid_of_pc live called_once loop_depth
  in
  let modref = Modref.analyze prog pts in
  let legality = Legality.analyze prog pts modref in
  let race =
    Race.analyze prog pts (Legality.privatize legality) dist
      ~called_once:(fun fid -> called_once.(fid))
  in
  let must_reach = Array.make (Array.length prog.funcs) None in
  if not pts.Points_to.degraded then begin
    Array.iter
      (fun (f : Vm.Program.func_info) ->
        if live.(f.fid) then begin
          let cfg = Cfa.Cfg.build prog f in
          let gen pc =
            match Points_to.access pts pc with
            | Some a -> a.Points_to.is_write
            | None -> false
          in
          let kills ~pc ~def =
            match Points_to.access pts def with
            | None -> true
            | Some target -> (
                match prog.code.(pc) with
                | Vm.Instr.StoreGlobal _ | Vm.Instr.StoreIndex -> (
                    match Points_to.access pts pc with
                    | Some w -> Points_to.regions_may_alias w target
                    | None -> false)
                | Vm.Instr.StoreLocal s ->
                    (* Scalar slots are laid out apart from local
                       arrays, but a kill here is free conservatism. *)
                    Points_to.regions_may_alias
                      {
                        Points_to.pc;
                        fid = f.fid;
                        is_write = true;
                        regions =
                          [ Points_to.Frame { fid = f.fid; off = s; len = 1 } ];
                        complete = true;
                        own_frame_direct = true;
                      }
                      target
                | Vm.Instr.Call g -> Modref.may_write modref g target
                | _ -> false)
          in
          must_reach.(f.fid) <-
            Some (Reaching_defs.analyze ~mode:Reaching_defs.Must ~cfg ~gen ~kills)
        end)
      prog.funcs
  end;
  {
    prog;
    pts;
    modref;
    legality;
    race;
    dist;
    loop_depth;
    fid_of_pc;
    live;
    called_once;
    prune;
    npruned;
    nevents;
    must_reach;
  }

(* ---- hint-widened pruning ---------------------------------------------- *)

(* Re-derive the prune mask with externally proven regions substituted
   for incomplete accesses. [region_hint pc = Some (base, len)] asserts
   that whenever the event at [pc] fires, its address lies in the global
   region [base, base+len) — {!Ir.Refine.region_hints} derives such
   facts from register-IR def-use chains that the abstract-stack
   points-to analysis cannot follow.

   Widening is monotone: upgrading an access from incomplete to a
   concrete region can only turn [regions_may_alias] answers from "may"
   to "no" (an incomplete access aliases everything), so the widened
   mask is a superset of [t.prune]. The stored verdict layer keeps using
   [t.prune]: a widened pc still classifies through its (unwidened)
   points-to record, so profile verdict lines are identical whether or
   not the caller applies the widened mask — the engine-side pruning
   stays behaviorally invisible, as [alchemist check] requires.

   Returns the widened mask and the number of pcs it adds. *)
let widen_prune t ~(region_hint : int -> (int * int) option) =
  if t.pts.Points_to.degraded then (Array.copy t.prune, 0)
  else begin
    let get pc =
      match Points_to.access t.pts pc with
      | Some a when not a.Points_to.complete -> (
          match region_hint pc with
          | Some (base, len) ->
              Some
                {
                  a with
                  Points_to.regions = [ Points_to.Global { base; len } ];
                  complete = true;
                }
          | None -> Some a)
      | other -> other
    in
    let prune, npruned, _ =
      compute_prune_with t.prog t.pts get t.dist t.fid_of_pc t.live
        t.called_once t.loop_depth
    in
    (* Monotonicity holds by construction; keep the base mask's pcs even
       so, which pins the invariant structurally. *)
    Array.iteri (fun pc p -> if p then prune.(pc) <- true) t.prune;
    (prune, max 0 (npruned - t.npruned))
  end

(* ---- verdicts ---------------------------------------------------------- *)

let direction_ok kind (h : Points_to.access) (t : Points_to.access) =
  match (kind : Shadow.Dependence.kind) with
  | Raw -> h.is_write && not t.is_write
  | War -> (not h.is_write) && t.is_write
  | Waw -> h.is_write && t.is_write

(* Shared classification returning the reason alongside the verdict. *)
let classify t ~kind ~head_pc ~tail_pc =
  let n = Array.length t.prog.Vm.Program.code in
  let acc pc =
    if pc < 0 || pc >= n then None else Points_to.access t.pts pc
  in
  let event pc = pc >= 0 && pc < n && Points_to.is_event_pc t.prog pc in
  if not (event head_pc) then
    (Must_independent, Printf.sprintf "head pc %d is not a memory-event pc" head_pc)
  else if not (event tail_pc) then
    (Must_independent, Printf.sprintf "tail pc %d is not a memory-event pc" tail_pc)
  else
    match (acc head_pc, acc tail_pc) with
    | None, _ when not t.pts.Points_to.degraded ->
        ( Must_independent,
          Printf.sprintf "head pc %d is unreachable and never executes" head_pc )
    | _, None when not t.pts.Points_to.degraded ->
        ( Must_independent,
          Printf.sprintf "tail pc %d is unreachable and never executes" tail_pc )
    | Some h, Some tl ->
        if not (direction_ok kind h tl) then
          ( Must_independent,
            Printf.sprintf "access directions do not match a %s edge"
              (match kind with Raw -> "RAW" | War -> "WAR" | Waw -> "WAW") )
        else if t.prune.(head_pc) then
          ( Must_independent,
            Printf.sprintf "head pc %d is statically pruned (alias-free)"
              head_pc )
        else if t.prune.(tail_pc) then
          ( Must_independent,
            Printf.sprintf "tail pc %d is statically pruned (alias-free)"
              tail_pc )
        else if not (Points_to.regions_may_alias h tl) then
          ( Must_independent,
            Printf.sprintf "regions are disjoint: {%s} vs {%s}"
              (String.concat ", "
                 (List.map Points_to.region_to_string h.Points_to.regions))
              (String.concat ", "
                 (List.map Points_to.region_to_string tl.Points_to.regions)) )
        else if same_array_no_dep t.dist h tl then
          ( Must_independent,
            Printf.sprintf "same array, disjoint subscripts: %s"
              (snd (Distance.classify t.dist ~head_pc ~tail_pc)) )
        else begin
          let must =
            match (kind : Shadow.Dependence.kind) with
            | War -> false (* head is a read: no last-writer argument *)
            | Raw | Waw -> (
                match (Points_to.exact_global h, Points_to.exact_global tl) with
                | Some a, Some b
                  when a = b && h.Points_to.fid = tl.Points_to.fid -> (
                    match t.must_reach.(h.Points_to.fid) with
                    | Some rd ->
                        Reaching_defs.reaches rd ~def:head_pc ~use:tail_pc
                    | None -> false)
                | _ -> false)
          in
          if must then
            ( Must_dependent,
              Printf.sprintf
                "write at pc %d must reach pc %d (same global cell, every path)"
                head_pc tail_pc )
          else (May_dependent, "cannot be statically refuted")
        end
    | _ -> (May_dependent, "points-to analysis degraded")

let verdict t ~kind ~head_pc ~tail_pc =
  fst (classify t ~kind ~head_pc ~tail_pc)

let explain t ~kind ~head_pc ~tail_pc =
  snd (classify t ~kind ~head_pc ~tail_pc)

(* ---- construct-level facts --------------------------------------------- *)

let construct_proven_independent t ~cid =
  let c = t.prog.Vm.Program.constructs.(cid) in
  (not (degraded t))
  &&
  (* Every edge attributed to a construct has its head inside the
     construct's dynamic extent: the body span, or code run on its
     behalf by callees. If all those event pcs are pruned, no edge can
     ever reach this construct. *)
  let seen = Hashtbl.create 8 in
  let ok = ref true in
  let check_range first last =
    let pc = ref first in
    while !ok && !pc <= last do
      if Points_to.is_event_pc t.prog !pc && not t.prune.(!pc) then ok := false;
      incr pc
    done
  in
  let rec check_fid fid =
    if !ok && not (Hashtbl.mem seen fid) then begin
      Hashtbl.add seen fid ();
      let f = t.prog.Vm.Program.funcs.(fid) in
      check_range f.entry (f.code_end - 1);
      if !ok then
        List.iter check_fid
          (Vm.Program.callees_in t.prog f.entry (f.code_end - 1))
    end
  in
  check_range c.body_first c.body_last;
  if !ok then
    List.iter check_fid (Vm.Program.callees_in t.prog c.body_first c.body_last);
  !ok

let frame_owner t ~head_pc ~tail_pc =
  let n = Array.length t.prog.Vm.Program.code in
  let acc pc =
    if pc < 0 || pc >= n then None else Points_to.access t.pts pc
  in
  match (acc head_pc, acc tail_pc) with
  | Some h, Some tl
    when h.Points_to.own_frame_direct
         && tl.Points_to.own_frame_direct
         && h.Points_to.fid = tl.Points_to.fid ->
      Some h.Points_to.fid
  | _ -> None

(* ---- iteration-distance bounds ------------------------------------------ *)

(* A distance verdict constrains addresses only when both endpoints hit
   the same array: any dynamic edge between them then has its instances
   related by the subscript equation. *)
let same_single_array t ~head_pc ~tail_pc =
  let n = Array.length t.prog.Vm.Program.code in
  let acc pc =
    if pc < 0 || pc >= n then None else Points_to.access t.pts pc
  in
  match (acc head_pc, acc tail_pc) with
  | Some h, Some tl -> Points_to.same_single_array h tl
  | _ -> false

let distance_bound t ~head_pc ~tail_pc =
  if degraded t then None
  else if same_single_array t ~head_pc ~tail_pc then
    Distance.bound t.dist ~head_pc ~tail_pc
  else None

let distance_verdict t ~head_pc ~tail_pc =
  if degraded t || not (same_single_array t ~head_pc ~tail_pc) then
    (Distance.Unknown, "endpoints do not target one common array")
  else Distance.classify t.dist ~head_pc ~tail_pc
