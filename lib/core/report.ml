let line_of_pc (t : Profile.t) pc = Vm.Program.line_of_pc t.prog pc

let name_of_addr (prog : Vm.Program.t) addr =
  List.find_map
    (fun (name, base, len) ->
      if addr < base || addr >= base + len then None
      else if len = 1 then Some name
      else Some (Printf.sprintf "%s[%d]" name (addr - base)))
    prog.global_layout

let conflict_names (t : Profile.t) (s : Profile.edge_stats) =
  let names =
    List.filter_map (name_of_addr t.prog) (List.rev s.addrs)
    |> List.sort_uniq compare
  in
  match names with [] -> "" | l -> "  on " ^ String.concat ", " l

(* One column of the static block as a per-edge lookup ([None]
   everywhere when the profile has no static block). *)
let edge_lookup (t : Profile.t) column =
  match t.Profile.static with
  | None -> fun _ -> None
  | Some s ->
      let l = column s in
      let tbl = Hashtbl.create (max 1 (List.length l)) in
      List.iter (fun (key, v) -> Hashtbl.replace tbl key v) l;
      fun (k : Profile.edge_key) ->
        Hashtbl.find_opt tbl
          (Profile.Key.pack ~head_pc:k.head_pc ~tail_pc:k.tail_pc k.kind)

(* The race-status tag for a construct header: [race-free] says the
   detector proved every may-happen-in-parallel access pair of a spawned
   execution non-conflicting, [racy] that it holds a concrete witness
   pair, [race-unknown] that an unbounded access kept it from
   deciding. *)
let race_tag (t : Profile.t) cid =
  match
    Option.bind t.Profile.static (fun s -> List.assoc_opt cid s.Profile.race)
  with
  | Some Static.Race.Status.Race_free -> "  [race-free]"
  | Some Static.Race.Status.Racy -> "  [racy]"
  | Some Static.Race.Status.Unknown -> "  [race-unknown]"
  | None -> ""

let render_edges buf (t : Profile.t) p ~max_edges ~kinds =
  (* The static-verdict column tells [must-dep] edges (real, provable)
     from [may-dep] ones (where only the dynamic distance is evidence);
     [Must_independent] never appears on a recorded edge — the
     sanitizer fails first. A [dist>=d] tag says the edge's endpoints
     are at least [d] loop iterations apart on every input, so the
     observed [Tdep] is not an accident of this run's data. The
     legality column answers "so what do I do about this edge?": [priv]
     marks an edge a privatization removes, [red] one a reduction
     rewrite removes, [serial] one that genuinely orders iterations. *)
  let verdict_of = edge_lookup t (fun s -> s.Profile.verdicts) in
  let distbound_of = edge_lookup t (fun s -> s.Profile.distbounds) in
  let legality_of = edge_lookup t (fun s -> s.Profile.legality) in
  let edges =
    Profile.edges_sorted p
    |> List.filter (fun ((k : Profile.edge_key), _) -> List.mem k.kind kinds)
  in
  let shown = List.filteri (fun i _ -> i < max_edges) edges in
  List.iter
    (fun ((k : Profile.edge_key), (s : Profile.edge_stats)) ->
      Buffer.add_string buf
        (Printf.sprintf "     %s: line %d -> line %d  Tdep=%d%s%s%s%s%s\n"
           (Shadow.Dependence.kind_to_string k.kind)
           (line_of_pc t k.head_pc) (line_of_pc t k.tail_pc) s.min_tdep
           (if Violation.is_violating p s then "  *" else "")
           (conflict_names t s)
           (match verdict_of k with
           | None -> ""
           | Some v ->
               Printf.sprintf "  [%s]" (Static.Depend.verdict_to_string v))
           (match distbound_of k with
           | None -> ""
           | Some d -> Printf.sprintf "  [dist>=%d]" d)
           (match legality_of k with
           | None -> ""
           | Some v ->
               Printf.sprintf "  [%s]" (Static.Legality.verdict_to_string v))))
    shown;
  let hidden = List.length edges - List.length shown in
  if hidden > 0 then
    Buffer.add_string buf (Printf.sprintf "     ... %d more\n" hidden)

let render_construct ?(max_edges = 8)
    ?(kinds = [ Shadow.Dependence.Raw ]) (t : Profile.t) ~cid =
  let buf = Buffer.create 256 in
  let c = t.prog.constructs.(cid) in
  let p = Profile.get t cid in
  Buffer.add_string buf
    (Format.asprintf "%a Tdur=%d, inst=%d%s\n" Vm.Program.pp_construct c
       p.ttotal p.instances (race_tag t cid));
  render_edges buf t p ~max_edges ~kinds;
  Buffer.contents buf

let render ?(top = 10) ?(max_edges = 8) ?(kinds = [ Shadow.Dependence.Raw ])
    (t : Profile.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Profile\n";
  (* Of the ranking's columns, render prints only the race tag, and the
     profile stores those: rank without the static block, which runs no
     analysis, and take each tag from the stored statuses. *)
  let entries = Ranking.rank { t with Profile.static = None } in
  List.iteri
    (fun i (e : Ranking.entry) ->
      if i < top then begin
        Buffer.add_string buf
          (Printf.sprintf "%d. %s Tdur=%d, inst=%d%s\n" (i + 1) e.name e.ttotal
             e.instances (race_tag t e.cid));
        render_edges buf t (Profile.get t e.cid) ~max_edges ~kinds
      end)
    entries;
  Buffer.contents buf
