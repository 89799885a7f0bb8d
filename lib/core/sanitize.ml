type category =
  | Impossible_edge
  | Distance_violation
  | Frame_misattribution
  | Verdict_mismatch
  | Distbound_mismatch
  | Legality_mismatch
  | Legality_violation
  | Race_mismatch

let category_to_string = function
  | Impossible_edge -> "impossible-edge"
  | Distance_violation -> "distance-violation"
  | Frame_misattribution -> "frame-misattribution"
  | Verdict_mismatch -> "verdict-mismatch"
  | Distbound_mismatch -> "distbound-mismatch"
  | Legality_mismatch -> "legality-mismatch"
  | Legality_violation -> "legality-violation"
  | Race_mismatch -> "race-mismatch"

let all_categories =
  [
    Impossible_edge;
    Distance_violation;
    Frame_misattribution;
    Verdict_mismatch;
    Distbound_mismatch;
    Legality_mismatch;
    Legality_violation;
    Race_mismatch;
  ]

type issue = {
  cid : int;
  key : Profile.edge_key;
  category : category;
  reason : string;
}

let pp_issue ppf { cid; key; reason; _ } =
  Format.fprintf ppf "construct %d: %d -> %d %s: %s" cid key.Profile.head_pc
    key.Profile.tail_pc
    (match key.Profile.kind with
    | Shadow.Dependence.Raw -> "RAW"
    | Shadow.Dependence.War -> "WAR"
    | Shadow.Dependence.Waw -> "WAW")
    reason

let check ~dep (profile : Profile.t) =
  let prog = profile.Profile.prog in
  let legality = Static.Depend.legality dep in
  let issues = ref [] in
  let add cid key category reason =
    issues := { cid; key; category; reason } :: !issues
  in
  (* Recorded edges vs the analysis. *)
  Array.iter
    (fun (cp : Profile.construct_profile) ->
      Profile.iter_edges cp (fun (k : Profile.edge_key) s ->
          (match
             Static.Depend.verdict dep ~kind:k.kind ~head_pc:k.head_pc
               ~tail_pc:k.tail_pc
           with
          | Static.Depend.Must_independent ->
              add cp.Profile.cid k Impossible_edge
                (Printf.sprintf "statically impossible edge: %s"
                   (Static.Depend.explain dep ~kind:k.kind ~head_pc:k.head_pc
                      ~tail_pc:k.tail_pc))
          | Static.Depend.May_dependent | Static.Depend.Must_dependent -> ());
          (* A proven distance of [d] iterations forces at least [d]
             retired instructions between any two dynamic instances, so
             an observed minimum below it is impossible. *)
          (match
             Static.Depend.distance_bound dep ~head_pc:k.head_pc
               ~tail_pc:k.tail_pc
           with
          | Some d when s.Profile.min_tdep < d ->
              add cp.Profile.cid k Distance_violation
                (Printf.sprintf
                   "observed min Tdep %d below the proven static lower bound \
                    of %d iterations"
                   s.Profile.min_tdep d)
          | _ -> ());
          match Static.Depend.frame_owner dep ~head_pc:k.head_pc ~tail_pc:k.tail_pc with
          | None -> ()
          | Some fid ->
              (* Both endpoints live in one activation frame of [fid]:
                 frame release invalidates their shadow state, so the
                 edge is confined to a single activation. Receivers must
                 be completed constructs inside it — loops/conditionals
                 of [fid]. The activation's own CProc (and everything
                 outer) is still active when the tail executes, so it
                 can never legitimately receive such an edge. *)
              let c = prog.Vm.Program.constructs.(cp.Profile.cid) in
              if c.Vm.Program.fid <> fid then
                add cp.Profile.cid k Frame_misattribution
                  (Printf.sprintf
                     "own-frame edge of function %d attributed to a construct \
                      of function %d"
                     fid c.Vm.Program.fid)
              else if c.Vm.Program.kind = Vm.Program.CProc then
                add cp.Profile.cid k Frame_misattribution
                  "own-frame edge attributed to the enclosing procedure \
                   construct (its activation cannot have completed)"))
    profile.Profile.by_cid;
  (* Stored verdicts vs recomputed ones. *)
  let check_verdicts stored =
    let tbl = Hashtbl.create (List.length stored) in
    List.iter (fun (key, v) -> Hashtbl.replace tbl key v) stored;
    let recorded = Hashtbl.create 64 in
    Array.iter
      (fun (cp : Profile.construct_profile) ->
        Profile.iter_edges cp (fun (k : Profile.edge_key) _ ->
            let key = Profile.Key.pack ~head_pc:k.head_pc ~tail_pc:k.tail_pc k.kind in
            if not (Hashtbl.mem recorded key) then begin
              Hashtbl.add recorded key ();
              match Hashtbl.find_opt tbl key with
              | None ->
                  add (-1) k Verdict_mismatch
                    "recorded edge has no stored verdict"
              | Some v ->
                  let v' =
                    Static.Depend.verdict dep ~kind:k.kind ~head_pc:k.head_pc
                      ~tail_pc:k.tail_pc
                  in
                  if v <> v' then
                    add (-1) k Verdict_mismatch
                      (Printf.sprintf
                         "stored verdict %s disagrees with analysis %s"
                         (Static.Depend.verdict_to_string v)
                         (Static.Depend.verdict_to_string v'))
            end))
      profile.Profile.by_cid;
    List.iter
      (fun (key, _) ->
        if not (Hashtbl.mem recorded key) then
          add (-1) (Profile.Key.unpack key) Verdict_mismatch
            "stored verdict for an edge the profile does not record")
      stored
  in
  (* Stored distance bounds vs recomputed ones and observed minima. *)
  let check_distbounds stored =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (key, d) -> Hashtbl.replace tbl key d) stored;
    let recorded = Hashtbl.create 64 in
    Array.iter
      (fun (cp : Profile.construct_profile) ->
        Profile.iter_edges cp (fun (k : Profile.edge_key) s ->
            let key =
              Profile.Key.pack ~head_pc:k.head_pc ~tail_pc:k.tail_pc k.kind
            in
            if not (Hashtbl.mem recorded key) then begin
              Hashtbl.add recorded key ();
              let stored_d = Hashtbl.find_opt tbl key in
              let fresh_d =
                Static.Depend.distance_bound dep ~head_pc:k.head_pc
                  ~tail_pc:k.tail_pc
              in
              (match (stored_d, fresh_d) with
              | Some d, Some d' when d <> d' ->
                  add (-1) k Distbound_mismatch
                    (Printf.sprintf
                       "stored distance bound %d disagrees with analysis %d"
                       d d')
              | Some d, None ->
                  add (-1) k Distbound_mismatch
                    (Printf.sprintf
                       "stored distance bound %d the analysis cannot prove"
                       d)
              | None, Some d' ->
                  add (-1) k Distbound_mismatch
                    (Printf.sprintf
                       "recorded edge is missing its stored distance bound \
                        (analysis proves %d)"
                       d')
              | _ -> ());
              match stored_d with
              | Some d when s.Profile.min_tdep < d ->
                  add (-1) k Distance_violation
                    (Printf.sprintf
                       "stored distance bound %d contradicts the observed \
                        min Tdep %d"
                       d s.Profile.min_tdep)
              | _ -> ()
            end))
      profile.Profile.by_cid;
    List.iter
      (fun (key, _) ->
        if not (Hashtbl.mem recorded key) then
          add (-1) (Profile.Key.unpack key) Distbound_mismatch
            "stored distance bound for an edge the profile does not record")
      stored
  in
  (* Stored legality verdicts vs recomputed ones, plus the dynamic
     cross-check: a [Privatizable] claim means every in-loop read of the
     cell sees a same-iteration in-loop write — so a recorded RAW edge
     on that cell whose tail sits inside the proof's loop span while its
     head sits outside is an observed read-before-write iteration (the
     read saw a pre-loop writer), refuting the claim with dynamic
     evidence regardless of what the analysis recomputes. *)
  let check_legality stored =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (key, v) -> Hashtbl.replace tbl key v) stored;
    let recorded = Hashtbl.create 64 in
    Array.iter
      (fun (cp : Profile.construct_profile) ->
        Profile.iter_edges cp (fun (k : Profile.edge_key) _ ->
            let key =
              Profile.Key.pack ~head_pc:k.head_pc ~tail_pc:k.tail_pc k.kind
            in
            if not (Hashtbl.mem recorded key) then begin
              Hashtbl.add recorded key ();
              let stored_v = Hashtbl.find_opt tbl key in
              let fresh_v =
                Static.Legality.classify legality ~kind:k.kind
                  ~head_pc:k.head_pc ~tail_pc:k.tail_pc
              in
              match (stored_v, fresh_v) with
              | Some v, Some v' when v <> v' ->
                  add (-1) k Legality_mismatch
                    (Printf.sprintf
                       "stored legality %s disagrees with analysis %s"
                       (Static.Legality.verdict_to_string v)
                       (Static.Legality.verdict_to_string v'))
              | Some v, None ->
                  add (-1) k Legality_mismatch
                    (Printf.sprintf
                       "stored legality %s for an edge the analysis does \
                        not classify"
                       (Static.Legality.verdict_to_string v))
              | None, Some v' ->
                  add (-1) k Legality_mismatch
                    (Printf.sprintf
                       "recorded edge is missing its stored legality \
                        verdict (analysis says %s)"
                       (Static.Legality.verdict_to_string v'))
              | Some _, Some _ | None, None -> ()
            end))
      profile.Profile.by_cid;
    List.iter
      (fun (key, v) ->
        let k = Profile.Key.unpack key in
        if not (Hashtbl.mem recorded key) then
          add (-1) k Legality_mismatch
            "stored legality verdict for an edge the profile does not record"
        else if v = Static.Legality.Privatizable then
          match
            Static.Legality.proof legality ~kind:k.Profile.kind
              ~head_pc:k.Profile.head_pc ~tail_pc:k.Profile.tail_pc
          with
          | Some
              { Static.Legality.cell = Some cell; span = Some (lo, hi); _ }
            ->
              Array.iter
                (fun (cp : Profile.construct_profile) ->
                  Profile.iter_edges cp (fun (e : Profile.edge_key) s ->
                      if
                        e.Profile.kind = Shadow.Dependence.Raw
                        && e.Profile.tail_pc >= lo
                        && e.Profile.tail_pc <= hi
                        && (e.Profile.head_pc < lo || e.Profile.head_pc > hi)
                        && List.mem cell s.Profile.addrs
                      then
                        add cp.Profile.cid e Legality_violation
                          (Printf.sprintf
                             "observed read-before-write iteration refutes \
                              the stored Privatizable verdict for cell %d \
                              (in-loop read at pc %d saw a writer at pc %d \
                              outside the loop)"
                             cell e.Profile.tail_pc e.Profile.head_pc)))
                profile.Profile.by_cid
          | _ -> ())
      stored
  in
  (* Stored race statuses vs recomputed ones. A flipped status is the
     dangerous corruption this block exists for: a [racy] construct
     rewritten [race-free] would license parsim to drop its ordering
     edges. Construct-level issues reuse the edge-key slot with a
     synthetic self-edge at the construct's head pc. *)
  let check_race stored =
    let race = Static.Depend.race dep in
    let key_of (c : Vm.Program.construct_info) =
      {
        Profile.head_pc = c.Vm.Program.head_pc;
        tail_pc = c.Vm.Program.head_pc;
        kind = Shadow.Dependence.Raw;
      }
    in
    let ncid = Array.length prog.Vm.Program.constructs in
    let stored_tbl = Hashtbl.create 16 in
    List.iter
      (fun (cid, s) ->
        if cid < 0 || cid >= ncid then
          add cid
            { Profile.head_pc = 0; tail_pc = 0; kind = Shadow.Dependence.Raw }
            Race_mismatch
            (Printf.sprintf "stored race status for unknown construct %d" cid)
        else begin
          Hashtbl.replace stored_tbl cid s;
          let c = prog.Vm.Program.constructs.(cid) in
          let cp = Profile.get profile cid in
          if cp.Profile.instances = 0 then
            add cid (key_of c) Race_mismatch
              "stored race status for a construct the profile does not record"
          else
            match Static.Race.status race ~cid with
            | None ->
                add cid (key_of c) Race_mismatch
                  (Printf.sprintf
                     "stored race status %s for a construct the detector \
                      does not classify"
                     (Static.Race.Status.to_string s))
            | Some s' ->
                if s <> s' then
                  add cid (key_of c) Race_mismatch
                    (Printf.sprintf
                       "stored race status %s disagrees with analysis %s"
                       (Static.Race.Status.to_string s)
                       (Static.Race.Status.to_string s'))
        end)
      stored;
    Array.iter
      (fun (cp : Profile.construct_profile) ->
        if
          cp.Profile.instances > 0
          && (not (Hashtbl.mem stored_tbl cp.Profile.cid))
          && Static.Race.status race ~cid:cp.Profile.cid <> None
        then
          add cp.Profile.cid
            (key_of prog.Vm.Program.constructs.(cp.Profile.cid))
            Race_mismatch "recorded construct is missing its stored race status")
      profile.Profile.by_cid
  in
  Option.iter
    (fun (s : Profile.static) ->
      check_verdicts s.verdicts;
      check_distbounds s.distbounds;
      check_legality s.legality;
      check_race s.race)
    profile.Profile.static;
  List.sort
    (fun a b ->
      match compare a.cid b.cid with
      | 0 -> (
          match
            Profile.Key.compare
              (Profile.Key.pack ~head_pc:a.key.Profile.head_pc
                 ~tail_pc:a.key.Profile.tail_pc a.key.Profile.kind)
              (Profile.Key.pack ~head_pc:b.key.Profile.head_pc
                 ~tail_pc:b.key.Profile.tail_pc b.key.Profile.kind)
          with
          | 0 -> compare a.category b.category
          | c -> c)
      | c -> c)
    !issues
