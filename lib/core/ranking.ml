type entry = {
  cid : int;
  name : string;
  kind : Vm.Program.construct_kind;
  line : int;
  ttotal : int;
  instances : int;
  violations : Violation.summary;
  static_indep : bool;
  dist_bounded : bool;
  legality_known : bool;
  priv_edges : int;
  red_edges : int;
  blocking_edges : int;
  race_status : Static.Race.Status.t option;
}

let entry_of (t : Profile.t) dep (c : Vm.Program.construct_info) =
  let p = Profile.get t c.cid in
  (* Does at least one of this construct's recorded edges carry a proven
     minimum iteration distance? *)
  let dist_bounded =
    match dep with
    | Some d ->
        List.exists
          (fun ((k : Profile.edge_key), _) ->
            Static.Depend.distance_bound d ~head_pc:k.head_pc
              ~tail_pc:k.tail_pc
            <> None)
          (Profile.edges_sorted p)
    | None -> false
  in
  (* Partition the construct's recorded edges by transform legality:
     proven removable by privatization, by reduction rewrite, or
     blocking (everything else — serializing edges and unclassified RAW
     dataflow). *)
  let priv_edges = ref 0 and red_edges = ref 0 and blocking_edges = ref 0 in
  Option.iter
    (fun d ->
      List.iter
        (fun ((k : Profile.edge_key), _) ->
          match
            Static.Legality.classify (Static.Depend.legality d) ~kind:k.kind
              ~head_pc:k.head_pc ~tail_pc:k.tail_pc
          with
          | Some Static.Legality.Privatizable -> incr priv_edges
          | Some Static.Legality.Reduction -> incr red_edges
          | Some Static.Legality.Serializing | None -> incr blocking_edges)
        (Profile.edges_sorted p))
    dep;
  {
    cid = c.cid;
    name = Format.asprintf "%a" Vm.Program.pp_construct c;
    kind = c.kind;
    line = c.loc.Minic.Srcloc.line;
    ttotal = p.ttotal;
    instances = p.instances;
    violations = Violation.summarize t ~cid:c.cid;
    static_indep =
      (match dep with
      | Some d -> Static.Depend.construct_proven_independent d ~cid:c.cid
      | None -> false);
    dist_bounded;
    legality_known = dep <> None;
    priv_edges = !priv_edges;
    red_edges = !red_edges;
    blocking_edges = !blocking_edges;
    race_status =
      Option.bind dep (fun d ->
          Static.Race.status (Static.Depend.race d) ~cid:c.cid);
  }

let rank ?dep ?(min_instructions = 1) (t : Profile.t) =
  (* A profile that carries a static block came from a run with the
     static layer on; recompute the analysis (cheap, deterministic)
     unless the caller shares one. A profile without one (trace_locals)
     ranks without the static columns rather than claiming facts the
     run never established. *)
  let dep =
    match (dep, t.Profile.static) with
    | Some _, _ -> dep
    | None, Some _ -> Some (Static.Depend.analyze t.prog)
    | None, None -> None
  in
  Array.to_list t.prog.constructs
  |> List.map (entry_of t dep)
  |> List.filter (fun e -> e.instances > 0 && e.ttotal >= min_instructions)
  |> List.sort (fun a b -> compare b.ttotal a.ttotal)

let remove_with_singletons (t : Profile.t) entries ~cid =
  let removed = Hashtbl.create 16 in
  Hashtbl.replace removed cid ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun e ->
        if not (Hashtbl.mem removed e.cid) then begin
          let p = Profile.get t e.cid in
          let total_parent_occurrences = ref 0 in
          let all_removed = ref (Hashtbl.length p.parents > 0) in
          let max_parent_instances = ref 0 in
          Hashtbl.iter
            (fun parent_cid count ->
              let count = !count in
              total_parent_occurrences := !total_parent_occurrences + count;
              if parent_cid < 0 || not (Hashtbl.mem removed parent_cid) then
                all_removed := false
              else
                max_parent_instances :=
                  max !max_parent_instances
                    (Profile.get t parent_cid).Profile.instances)
            p.parents;
          (* "Single nested instance per instance": the construct only ever
             occurs inside removed constructs, at most once per enclosing
             instance. *)
          if !all_removed && e.instances <= !max_parent_instances then begin
            Hashtbl.replace removed e.cid ();
            changed := true
          end
        end)
      entries
  done;
  List.filter (fun e -> not (Hashtbl.mem removed e.cid)) entries

let pp_entry ppf e =
  Format.fprintf ppf
    "%s Tdur=%d, inst=%d (RAW viol %d/%d, WAW %d/%d, WAR %d/%d)%s%s%s%s%s%s"
    e.name
    e.ttotal e.instances e.violations.Violation.raw_violating
    e.violations.Violation.raw_total e.violations.Violation.waw_violating
    e.violations.Violation.waw_total e.violations.Violation.war_violating
    e.violations.Violation.war_total
    (if e.static_indep then " [statically independent]" else "")
    (if e.dist_bounded then " [distance-bounded]" else "")
    (if e.priv_edges > 0 then " [priv]" else "")
    (if e.red_edges > 0 then " [red]" else "")
    (match e.race_status with
    | Some Static.Race.Status.Race_free -> " [race-free]"
    | Some Static.Race.Status.Racy -> " [racy]"
    | Some Static.Race.Status.Unknown | None -> "")
    (if e.legality_known then Printf.sprintf " blocking=%d" e.blocking_edges
     else "")
