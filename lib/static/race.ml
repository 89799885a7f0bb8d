(* Static race detection for profile-advised parallelizations.

   {!Concur} gives the happens-before model a spawn implies: only the
   construct's units (loop iterations / proc call instances) are
   mutually unordered, so may-happen-in-parallel pairs are exactly the
   pairs of region event pcs executing in different units. This module
   checks every such pair that conflicts (at least one write, regions
   may alias) and produces a per-construct verdict. Soundness is
   one-sided by design: [Race_free] must never be claimed when a
   licensed interleaving can diverge from sequential output (the qcheck
   differential in test_race regresses exactly this); [Racy] and
   [Unknown] are allowed to be conservative, and precision is benched.

   A conflicting pair is exempt — provably not a race — in exactly
   these cases:

   - {b frame freshness}: both accesses provably target the current
     activation's own frame. Distinct activations occupy disjoint
     frames, so the pair can only meet when two units share one
     activation: for a spawned loop that is the loop's own function
     (its single activation is shared by every iteration — such pairs
     stay conflicts), while any callee activation is created inside one
     unit and dies there. For a spawned proc every activation,
     including the proc's own, is per-unit fresh.
   - {b transform legality} (loops only): both accesses resolve to the
     same exact global cell and the (loop, cell) pair carries a
     privatization or reduction proof. The spawn advice this verdict
     guards already licenses rewriting that cell into per-unit private
     state ({!Privatize}), which removes it from shared memory — the
     exemption covers only the proven cell's own edges, mirroring the
     legality engine's relative-verdict semantics.
   - {b subscript disjointness}: both accesses index the same single
     global array and {!Distance.no_dep} proves the subscript value
     sets never meet on any execution (this also covers proven
     distances [d >= trip]: the distance engine demotes those to
     [No_dep], since no dependent pair fits inside one loop entry).
   - {b same-iteration confinement} (loops only): both subscripts are
     affine in an induction variable of {e the spawned loop itself}
     with equal coefficients and equal phase-adjusted offsets, so equal
     subscript values force equal iteration numbers — the pair can only
     meet inside one unit, where program order applies. The check
     verifies the binding loop is the spawned loop: a verdict about an
     inner or outer loop's iterations says nothing about which {e unit}
     the instances belong to and must not exempt anything.

   Everything else that conflicts is a witness, and any event access
   whose address set the points-to layer could not bound makes the
   construct [Unknown] (never [Race_free]). *)

module Status = struct
  type t = Race_free | Unknown | Racy

  let to_string = function
    | Race_free -> "race-free"
    | Unknown -> "unknown"
    | Racy -> "racy"

  let of_string = function
    | "race-free" -> Some Race_free
    | "unknown" -> Some Unknown
    | "racy" -> Some Racy
    | _ -> None

  (* Profile merges keep the higher rank: [Racy] claims least about
     safety, so disagreement between merged files degrades away from
     licensing a transform. *)
  let rank = function Race_free -> 0 | Unknown -> 1 | Racy -> 2
end

type witness = {
  pc1 : int;
  pc2 : int;  (* pc1 <= pc2; equal for a self-WAW across units *)
  line1 : int;
  line2 : int;  (* source lines of the two accesses *)
  cell : string;  (* the contested location, named for humans *)
  kind : Shadow.Dependence.kind;
}

type verdict = Race_free | Racy of witness list | Unknown of string

let kind_to_string = function
  | Shadow.Dependence.Raw -> "RAW"
  | Shadow.Dependence.War -> "WAR"
  | Shadow.Dependence.Waw -> "WAW"

type t = {
  prog : Vm.Program.t;
  pts : Points_to.t;
  priv : Privatize.t;
  dist : Distance.t;
  called_once : int -> bool;
  memo : (int, verdict option) Hashtbl.t;  (* by cid *)
}

let analyze (prog : Vm.Program.t) (pts : Points_to.t) (priv : Privatize.t)
    (dist : Distance.t) ~called_once =
  { prog; pts; priv; dist; called_once; memo = Hashtbl.create 16 }

(* Enough witnesses to name every distinct variable in any realistic
   construct without making the quadratic pair scan pay for hopeless
   cases: the verdict is decided by the first witness. *)
let witness_cap = 16

let symbol_at t addr =
  List.find_map
    (fun (name, base, len) ->
      if addr >= base && addr < base + len then Some (name, base, len)
      else None)
    t.prog.Vm.Program.global_layout

let named_cell t addr =
  match symbol_at t addr with
  | Some (name, _, 1) -> name
  | Some (name, base, _) -> Printf.sprintf "%s[%d]" name (addr - base)
  | None -> Printf.sprintf "global %d" addr

let describe_cell t (a : Points_to.access) (b : Points_to.access) =
  match (Points_to.exact_global a, Points_to.exact_global b) with
  | Some ca, Some cb when ca = cb -> named_cell t ca
  | _ -> (
      let overlapping =
        List.find_map
          (fun ra ->
            List.find_map
              (fun rb ->
                if Points_to.may_overlap ra rb then Some ra else None)
              b.Points_to.regions)
          a.Points_to.regions
      in
      match overlapping with
      | Some (Points_to.Global { base; _ }) -> (
          match symbol_at t base with
          | Some (name, _, 1) -> name
          | Some (name, _, _) -> name ^ "[]"
          | None -> Printf.sprintf "global %d" base)
      | Some (Points_to.Frame { fid; off; _ }) ->
          Printf.sprintf "%s frame+%d"
            t.prog.Vm.Program.funcs.(fid).Vm.Program.name off
      | None -> "?")

(* Same-iteration confinement: both subscripts affine in one induction
   variable of the loop headed at [header_pc], equal coefficients,
   equal phase-adjusted offsets. Then subscript_1(j1) = subscript_2(j2)
   forces [mul*step*(j1 - j2) = 0], i.e. [j1 = j2]: every colliding
   pair of instances lives in one iteration — one unit, where program
   order still applies. The binding-loop identity check is what makes
   this sound: {!Induction.common_siv} may resolve the slot against an
   inner or enclosing loop, whose iteration numbers repeat (or stand
   still) across the {e spawned} loop's units. *)
let same_iteration_confined t ~header_pc ~pc1 ~pc2 =
  let ind = Distance.induction t.dist in
  match (Induction.index_fact ind pc1, Induction.index_fact ind pc2) with
  | ( Induction.Aff { slot = s1; mul = m1; add = a1 },
      Induction.Aff { slot = s2; mul = m2; add = a2 } )
    when s1 = s2 && m1 = m2 && m1 <> 0 -> (
      match Induction.common_siv ind ~head_pc:pc1 ~tail_pc:pc2 ~slot:s1 with
      | Some s when s.Induction.loop.Induction.header_pc = header_pc -> (
          let step = s.Induction.iv.Induction.step in
          let phased add = function
            | Induction.Before -> Some add
            | Induction.After -> Some (add + (m1 * step))
            | Induction.Ambiguous -> None
          in
          match
            (phased a1 s.Induction.head_phase, phased a2 s.Induction.tail_phase)
          with
          | Some o1, Some o2 -> o1 = o2
          | _ -> false)
      | _ -> false)
  | _ -> false

(* Is the conflicting pair provably not a race? See the module header
   for the soundness argument behind each arm. [loop] is [Some] exactly
   for spawned-loop regions whose natural loop was found. *)
let pair_exempt t (region : Concur.region) loop (a : Points_to.access)
    (b : Points_to.access) =
  (* frame freshness *)
  (a.Points_to.own_frame_direct && b.Points_to.own_frame_direct
  && (match region.Concur.kind with
     | Concur.Proc_instances -> true
     | Concur.Loop_iterations -> a.Points_to.fid <> region.Concur.fid))
  (* transform legality, per proven (loop, cell) *)
  || (match (loop, Points_to.exact_global a, Points_to.exact_global b) with
     | Some l, Some ca, Some cb when ca = cb -> (
         match Privatize.prove_reduction t.priv l ~cell:ca with
         | Ok _ -> true
         | Error _ -> (
             match Privatize.prove_privatizable t.priv l ~cell:ca with
             | Ok () -> true
             | Error _ -> false))
     | _ -> false)
  (* subscript facts over one common array *)
  || (Points_to.same_single_array a b
     && (Distance.no_dep t.dist ~head_pc:a.Points_to.pc
           ~tail_pc:b.Points_to.pc
        || (region.Concur.kind = Concur.Loop_iterations
           && loop <> None
           && same_iteration_confined t ~header_pc:region.Concur.header_pc
                ~pc1:a.Points_to.pc ~pc2:b.Points_to.pc)))

let witness_of t (a : Points_to.access) (b : Points_to.access) =
  let kind =
    if a.Points_to.is_write && b.Points_to.is_write then Shadow.Dependence.Waw
    else if a.Points_to.is_write then Shadow.Dependence.Raw
    else Shadow.Dependence.War
  in
  {
    pc1 = a.Points_to.pc;
    pc2 = b.Points_to.pc;
    line1 = Vm.Program.line_of_pc t.prog a.Points_to.pc;
    line2 = Vm.Program.line_of_pc t.prog b.Points_to.pc;
    cell = describe_cell t a b;
    kind;
  }

let classify_uncached t cid =
  let c = t.prog.Vm.Program.constructs.(cid) in
  match Concur.of_construct t.prog c with
  | None -> None  (* CCond: no concurrent units to race *)
  | Some region ->
      Some
        (if t.pts.Points_to.degraded then
           Unknown "points-to analysis degraded: address sets are unbounded"
         else
           match region.Concur.kind with
           | Concur.Proc_instances when t.called_once c.Vm.Program.fid ->
               (* at most one unit ever exists, so nothing is unordered *)
               Race_free
           | _ -> (
               let loop =
                 match region.Concur.kind with
                 | Concur.Loop_iterations ->
                     Privatize.loop_at_header t.priv ~br_pc:c.Vm.Program.head_pc
                 | Concur.Proc_instances -> None
               in
               match (region.Concur.kind, loop) with
               | Concur.Loop_iterations, None ->
                   (* degenerate header-only loop: the body runs at most
                      once per entry, so each entry has one unit *)
                   Race_free
               | _ ->
                   let access pc = Points_to.access t.pts pc in
                   let incomplete_pc = ref (-1) in
                   Array.iter
                     (fun pc ->
                       match access pc with
                       | Some a when not a.Points_to.complete ->
                           if !incomplete_pc < 0 then incomplete_pc := pc
                       | _ -> ())
                     region.Concur.event_pcs;
                   let witnesses = ref [] in
                   let nwit = ref 0 in
                   Concur.iter_mhp_pairs region (fun p q ->
                       (match (access p, access q) with
                       | Some a, Some b
                         when a.Points_to.complete && b.Points_to.complete
                              && (a.Points_to.is_write || b.Points_to.is_write)
                              && (p <> q || a.Points_to.is_write)
                              && Points_to.regions_may_alias a b
                              && not (pair_exempt t region loop a b) ->
                           witnesses := witness_of t a b :: !witnesses;
                           incr nwit
                       | _ -> ());
                       !nwit < witness_cap);
                   if !nwit > 0 then Racy (List.rev !witnesses)
                   else if !incomplete_pc >= 0 then
                     Unknown
                       (Printf.sprintf
                          "the access at pc %d (line %d) has an unbounded \
                           address set"
                          !incomplete_pc
                          (Vm.Program.line_of_pc t.prog !incomplete_pc))
                   else Race_free))

let verdict t ~cid =
  match Hashtbl.find_opt t.memo cid with
  | Some v -> v
  | None ->
      let v = classify_uncached t cid in
      Hashtbl.add t.memo cid v;
      v

let status_of_verdict = function
  | Race_free -> Status.Race_free
  | Racy _ -> Status.Racy
  | Unknown _ -> Status.Unknown

let status t ~cid = Option.map status_of_verdict (verdict t ~cid)

let explain t ~cid =
  match verdict t ~cid with
  | None -> "a conditional has no concurrent units"
  | Some Race_free ->
      "no conflicting access pair survives the happens-before and exemption \
       analysis"
  | Some (Racy ws) ->
      Printf.sprintf "%d conflicting access pair%s may interleave across units"
        (List.length ws)
        (if List.length ws = 1 then "" else "s")
  | Some (Unknown reason) -> reason
