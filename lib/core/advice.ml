type removable = {
  edge : Profile.edge_key;
  transform : Static.Legality.verdict;
      (* Privatizable or Reduction, never Serializing *)
  var : string option;
}

type suggestion =
  | Spawnable of {
      statically_proven : bool;
      static_min_distance : int option;
      removable : removable list;
      race_verdict : Static.Race.Status.t option;
    }
  | Join_before of { line : int; var : string option }
  | Blocking_raw of { head_line : int; tail_line : int; var : string option }
  | Reduce of { var : string; line : int }
  | Privatize of { var : string; kinds : Shadow.Dependence.kind list }
  | Hoist_reset of { var : string; line : int }

type t = {
  cid : int;
  construct : string;
  verdict : [ `Parallelizable | `Needs_transforms | `Not_amenable ];
  suggestions : suggestion list;
}

(* The bare global name at an address (no element index). *)
let var_of_addr (prog : Vm.Program.t) addr =
  List.find_map
    (fun (name, base, len) ->
      if addr >= base && addr < base + len then Some name else None)
    prog.global_layout

let first_var prog (s : Profile.edge_stats) =
  List.find_map (var_of_addr prog) (List.rev s.addrs)

(* Is the instruction at [pc] a constant reset of a global ([Const k;
   StoreGlobal a] — e.g. gzip's [last_flags = 0])? *)
let is_const_reset (prog : Vm.Program.t) pc =
  pc > 0
  &&
  match (prog.code.(pc - 1), prog.code.(pc)) with
  | Vm.Instr.Const _, Vm.Instr.StoreGlobal _ -> true
  | _ -> false

(* [pc] is the StoreGlobal of a reduction update of address [a]?
   Reduction recognition: [v op= e] compiles to
   [LoadGlobal a; <e>; Binop op; StoreGlobal a] with an associative,
   commutative [op]. The window bounds how far back the load may be. *)
let is_reduction_store (prog : Vm.Program.t) pc =
  match prog.code.(pc) with
  | Vm.Instr.StoreGlobal a when pc >= 2 -> (
      match prog.code.(pc - 1) with
      | Vm.Instr.Binop op when Minic.Ast.assoc_commutative op ->
          let lo = max 0 (pc - 12) in
          let found = ref false in
          for j = lo to pc - 2 do
            if prog.code.(j) = Vm.Instr.LoadGlobal a then found := true
          done;
          !found
      | _ -> false)
  | _ -> false

(* [pc] is the LoadGlobal feeding a reduction update of the same
   address (the read side of [v op= e])? *)
let is_reduction_load (prog : Vm.Program.t) pc =
  match prog.code.(pc) with
  | Vm.Instr.LoadGlobal a ->
      let hi = min (Array.length prog.code - 1) (pc + 12) in
      let found = ref false in
      for j = pc + 1 to hi do
        if (not !found) && prog.code.(j) = Vm.Instr.StoreGlobal a then
          if is_reduction_store prog j then found := true
      done;
      !found
  | _ -> false

let advise ?dep (p : Profile.t) ~cid =
  let prog = p.prog in
  (* Same recomputation policy as {!Ranking.rank}: a profile with a
     static block licenses rebuilding the analysis; one without gets
     dynamic-only advice. *)
  let dep =
    match (dep, p.Profile.static) with
    | Some _, _ -> dep
    | None, Some _ -> Some (Static.Depend.analyze prog)
    | None, None -> None
  in
  let cp = Profile.get p cid in
  let construct =
    Format.asprintf "%a" Vm.Program.pp_construct prog.constructs.(cid)
  in
  let edges = Profile.edges_sorted cp in
  let violating, long =
    List.partition (fun (_, s) -> Violation.is_violating cp s) edges
  in
  let v_raw, v_waw_war =
    List.partition
      (fun ((k : Profile.edge_key), _) -> k.kind = Shadow.Dependence.Raw)
      violating
  in
  (* A violating RAW on variable v is transformable as a reduction when
     every such edge on v is the self-chain of an associative
     read-modify-write update. *)
  (* A violating RAW whose tails all lie in the continuation after the
     construct's instances is a claim point, not a blocker: the
     continuation joins the future there (the paper's flush_block
     checksum edges only prevent the final call from overlapping, not
     the calls inside the loop). Tails observed while another instance
     was active (cross-iteration, cross-call) do block. *)
  let claims, v_raw =
    List.partition
      (fun (_, (s : Profile.edge_stats)) -> not s.tail_internal)
      v_raw
  in
  let claim_joins =
    List.map
      (fun ((k : Profile.edge_key), s) ->
        Join_before
          { line = Vm.Program.line_of_pc prog k.tail_pc; var = first_var prog s })
      claims
    |> List.sort_uniq compare
  in
  let raw_by_var = Hashtbl.create 8 in
  let unnamed_raw = ref [] in
  List.iter
    (fun ((k : Profile.edge_key), s) ->
      match first_var prog s with
      | Some var ->
          Hashtbl.replace raw_by_var var
            ((k, s) :: Option.value ~default:[] (Hashtbl.find_opt raw_by_var var))
      | None -> unnamed_raw := (k, s) :: !unnamed_raw)
    v_raw;
  let reductions = ref [] and blockers = ref [] in
  let block_edge ((k : Profile.edge_key), s) =
    blockers :=
      Blocking_raw
        {
          head_line = Vm.Program.line_of_pc prog k.head_pc;
          tail_line = Vm.Program.line_of_pc prog k.tail_pc;
          var = first_var prog s;
        }
      :: !blockers
  in
  Hashtbl.iter
    (fun var edges ->
      let reducible =
        List.for_all
          (fun ((k : Profile.edge_key), _) ->
            is_reduction_store prog k.head_pc && is_reduction_load prog k.tail_pc)
          edges
      in
      if reducible then
        let (k : Profile.edge_key), _ = List.hd edges in
        reductions :=
          Reduce { var; line = Vm.Program.line_of_pc prog k.head_pc }
          :: !reductions
      else List.iter block_edge edges)
    raw_by_var;
  List.iter block_edge !unnamed_raw;
  let blockers = List.rev !blockers in
  let reductions = List.sort compare !reductions in
  (* Join points: tails of the long-distance RAW edges (dedup by line). *)
  let joins =
    List.filter_map
      (fun ((k : Profile.edge_key), s) ->
        if k.kind = Shadow.Dependence.Raw then
          Some
            (Join_before
               {
                 line = Vm.Program.line_of_pc prog k.tail_pc;
                 var = first_var prog s;
               })
        else None)
      long
    |> List.sort_uniq compare
  in
  (* Privatization / hoisting: group violating WAR/WAW by variable. *)
  let by_var = Hashtbl.create 8 in
  List.iter
    (fun ((k : Profile.edge_key), s) ->
      match first_var prog s with
      | None -> ()
      | Some var ->
          let kinds, reset =
            Option.value ~default:([], None) (Hashtbl.find_opt by_var var)
          in
          let kinds =
            if List.mem k.kind kinds then kinds else k.kind :: kinds
          in
          let reset =
            match reset with
            | Some _ -> reset
            | None ->
                if
                  k.kind = Shadow.Dependence.Waw
                  && is_const_reset prog k.head_pc
                then Some (Vm.Program.line_of_pc prog k.head_pc)
                else None
          in
          Hashtbl.replace by_var var (kinds, reset))
    v_waw_war;
  let transforms =
    Hashtbl.fold
      (fun var (kinds, reset) acc ->
        (match reset with
        | Some line -> Hoist_reset { var; line }
        | None -> Privatize { var; kinds })
        :: acc)
      by_var []
    |> List.sort compare
  in
  (* The static race detector's status for this construct. *)
  let race_verdict =
    Option.bind dep (fun d -> Static.Race.status (Static.Depend.race d) ~cid)
  in
  let verdict =
    if blockers <> [] then `Not_amenable
    else if transforms <> [] || reductions <> [] then `Needs_transforms
    else if race_verdict = Some Static.Race.Status.Racy then
      (* Dynamic evidence alone said "spawn as-is", but the detector has
         a concrete interference witness the profiled input just never
         exercised — demote: the races must be resolved first. *)
      `Needs_transforms
    else `Parallelizable
  in
  (* Tightest proven iteration distance among the construct's recorded
     edges — "the overlap window is at least this wide". *)
  let distance_bound_of (k : Profile.edge_key) =
    Option.bind dep (fun d ->
        Static.Depend.distance_bound d ~head_pc:k.head_pc ~tail_pc:k.tail_pc)
  in
  let static_min_distance =
    List.fold_left
      (fun acc (k, _) ->
        match (distance_bound_of k, acc) with
        | Some d, Some m -> Some (min d m)
        | Some d, None -> Some d
        | None, acc -> acc)
      None edges
  in
  (* The exact transform the legality engine proves removes each
     removable recorded edge. This is the actionable half of the
     advice: the listed transforms are {e proven} legal, not
     pattern-guessed like the dynamic [Reduce]/[Privatize] suggestions
     above. *)
  let legality_of (k : Profile.edge_key) =
    Option.bind dep (fun d ->
        Static.Legality.classify (Static.Depend.legality d) ~kind:k.kind
          ~head_pc:k.head_pc ~tail_pc:k.tail_pc)
  in
  let removable =
    List.filter_map
      (fun ((k : Profile.edge_key), s) ->
        match legality_of k with
        | Some
            ((Static.Legality.Privatizable | Static.Legality.Reduction) as v)
          ->
            Some { edge = k; transform = v; var = first_var prog s }
        | _ -> None)
      edges
    |> List.sort compare
  in
  let suggestions =
    if blockers = [] then
      let statically_proven =
        match dep with
        | Some d -> Static.Depend.construct_proven_independent d ~cid
        | None -> false
      in
      Spawnable { statically_proven; static_min_distance; removable;
                  race_verdict }
      :: reductions
      @ transforms @ claim_joins @ joins
    else blockers @ reductions @ transforms @ claim_joins
  in
  { cid; construct; verdict; suggestions }

let privatization_list t =
  List.filter_map
    (function
      | Privatize { var; _ } | Hoist_reset { var; _ } -> Some var | _ -> None)
    t.suggestions
  |> List.sort_uniq compare

let reduction_list t =
  List.filter_map
    (function Reduce { var; _ } -> Some var | _ -> None)
    t.suggestions
  |> List.sort_uniq compare

let pp_suggestion ppf = function
  | Spawnable { statically_proven; static_min_distance; removable;
                race_verdict } ->
      if statically_proven then
        Format.fprintf ppf
          "annotate as a future: statically proven independent (holds on all \
           inputs)"
      else
        Format.fprintf ppf
          "annotate as a future: no read reaches it before it finishes \
           (dynamic evidence only)";
      Option.iter
        (fun d ->
          Format.fprintf ppf
            "; recorded dependences proven >= %d iteration%s apart" d
            (if d = 1 then "" else "s"))
        static_min_distance;
      List.iter
        (fun { edge; transform; var } ->
          Format.fprintf ppf "; %s edge %d->%d%s removable by %s"
            (Shadow.Dependence.kind_to_string edge.Profile.kind)
            edge.Profile.head_pc edge.Profile.tail_pc
            (match var with Some v -> " on " ^ v | None -> "")
            (match transform with
            | Static.Legality.Privatizable -> "privatization"
            | Static.Legality.Reduction -> "reduction rewrite"
            | Static.Legality.Serializing -> "no transform"))
        removable;
      Option.iter
        (fun s ->
          Format.fprintf ppf "; static race check: %s"
            (Static.Race.Status.to_string s))
        race_verdict
  | Join_before { line; var } ->
      Format.fprintf ppf "join the future before line %d%a" line
        (fun ppf -> function
          | Some v -> Format.fprintf ppf " (first conflicting read of %s)" v
          | None -> ())
        var
  | Blocking_raw { head_line; tail_line; var } ->
      Format.fprintf ppf
        "blocking RAW: line %d -> line %d%a (distance below the construct's \
         duration)"
        head_line tail_line
        (fun ppf -> function
          | Some v -> Format.fprintf ppf " on %s" v
          | None -> ())
        var
  | Reduce { var; line } ->
      Format.fprintf ppf
        "rewrite %s (updated at line %d) as a reduction: per-thread partials \
         merged at the join"
        var line
  | Privatize { var; kinds } ->
      Format.fprintf ppf "privatize %s (%s conflicts with the continuation)"
        var
        (String.concat "/" (List.map Shadow.Dependence.kind_to_string kinds))
  | Hoist_reset { var; line } ->
      Format.fprintf ppf
        "hoist the reset of %s (line %d) into the continuation and keep a \
         private copy"
        var line

let pp ppf t =
  let verdict =
    match t.verdict with
    | `Parallelizable -> "parallelizable as-is"
    | `Needs_transforms -> "parallelizable after transforms"
    | `Not_amenable -> "not amenable (violating RAW)"
  in
  Format.fprintf ppf "@[<v>%s: %s@,%a@]" t.construct verdict
    (Format.pp_print_list (fun ppf s ->
         Format.fprintf ppf "  - %a" pp_suggestion s))
    t.suggestions
