type candidate = {
  rank : int;
  entry : Alchemist.Ranking.entry;
  advice : Alchemist.Advice.t;
  simulated : Parsim.Speedup.report option;
}

type t = {
  candidates : candidate list;
  instructions : int;
  profile : Alchemist.Profile.t;
}

let explore ?fuel ?(cores = 4) ?spawn_overhead ?(top = 8) ?(min_share = 0.02)
    (prog : Vm.Program.t) =
  (* Profile, rank and advise with one static analysis. It is confined to
     this scope, so it is unreachable while the candidates are simulated,
     when every site's fold table is alive. *)
  let profile, instructions, picked =
    let facts = Alchemist.Profiler.prepare_facts prog in
    let dep = Alchemist.Profiler.facts_dep facts in
    let result = Alchemist.Profiler.run ?fuel ~facts prog in
    let profile = result.Alchemist.Profiler.profile in
    let instructions =
      result.Alchemist.Profiler.stats.Alchemist.Profiler.instructions
    in
    let threshold = int_of_float (min_share *. float_of_int instructions) in
    let entries =
      Alchemist.Ranking.rank ~dep profile
      |> List.filter (fun (e : Alchemist.Ranking.entry) ->
             e.cid <> prog.cid_of_pc.(prog.funcs.(prog.main_fid).entry)
             && e.ttotal >= threshold)
    in
    let picked =
      List.filteri (fun i _ -> i < top) entries
      |> List.map (fun (entry : Alchemist.Ranking.entry) ->
             (entry, Alchemist.Advice.advise ~dep profile ~cid:entry.cid))
    in
    (profile, instructions, picked)
  in
  (* Every candidate worth simulating shares one instrumented run. *)
  let worth_simulating (advice : Alchemist.Advice.t) =
    advice.Alchemist.Advice.verdict <> `Not_amenable
  in
  let reports =
    Parsim.Speedup.analyze_many ?fuel ~cores ?spawn_overhead prog
      (List.filter (fun (_, advice) -> worth_simulating advice) picked
      |> List.map (fun ((entry : Alchemist.Ranking.entry), advice) ->
             {
               Parsim.Speedup.head_pc = prog.constructs.(entry.cid).head_pc;
               privatize = Alchemist.Advice.privatization_list advice;
               reduce = Alchemist.Advice.reduction_list advice;
             }))
  in
  let unclaimed = ref reports in
  let candidates =
    List.mapi
      (fun i (entry, advice) ->
        let simulated =
          if not (worth_simulating advice) then None
          else
            match !unclaimed with
            | r :: rest ->
                unclaimed := rest;
                Some r
            | [] -> assert false
        in
        { rank = i + 1; entry; advice; simulated })
      picked
  in
  let sorted =
    List.stable_sort
      (fun a b ->
        let s c =
          match c.simulated with
          | Some r -> r.Parsim.Speedup.speedup
          | None -> neg_infinity
        in
        compare (s b) (s a))
      candidates
  in
  { candidates = sorted; instructions; profile }

let best t =
  List.find_opt (fun c -> c.simulated <> None) t.candidates

let pp ppf t =
  Format.fprintf ppf "@[<v>explored %d candidates over a %d-instruction run:@,"
    (List.length t.candidates) t.instructions;
  List.iter
    (fun c ->
      Format.fprintf ppf "@,#%d by size: %a@," c.rank Alchemist.Ranking.pp_entry
        c.entry;
      Format.fprintf ppf "%a@," Alchemist.Advice.pp c.advice;
      match c.simulated with
      | Some r ->
          Format.fprintf ppf "  simulated: %a@," Parsim.Speedup.pp_report r
      | None -> Format.fprintf ppf "  (not simulated)@,")
    t.candidates;
  Format.fprintf ppf "@]"
