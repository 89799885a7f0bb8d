type edge = {
  head_pc : int;
  tail_pc : int;
  kind : [ `Raw | `War | `Waw ];
  head_ctx : int;
  min_distance : int;
  count : int;
}

type result = {
  edges : edge list;
  contexts : (int * int list) list;
  instructions : int;
}

type stats = { mutable min_distance : int; mutable count : int }

let run ?fuel ?(trace_locals = false) (prog : Vm.Program.t) =
  (* Interned calling contexts: a context is its parent id + a call-site
     entry pc, hash-consed so ids are cheap to attach to accesses. *)
  let intern : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let chains : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add chains 0 [];
  let next_id = ref 1 in
  let ctx_stack = ref [ 0 ] in
  let current () = List.hd !ctx_stack in
  let push_ctx entry_pc =
    let parent = current () in
    let id =
      match Hashtbl.find_opt intern (parent, entry_pc) with
      | Some id -> id
      | None ->
          let id = !next_id in
          incr next_id;
          Hashtbl.add intern (parent, entry_pc) id;
          Hashtbl.add chains id (Hashtbl.find chains parent @ [ entry_pc ]);
          id
    in
    ctx_stack := id :: !ctx_stack
  in
  let pop_ctx () = ctx_stack := List.tl !ctx_stack in
  let table : (int * int * [ `Raw | `War | `Waw ] * int, stats) Hashtbl.t =
    Hashtbl.create 256
  in
  let on_dep (d : int Pair_shadow.dep) =
    let key = (d.head_pc, d.tail_pc, d.kind, d.head_ctx) in
    match Hashtbl.find_opt table key with
    | Some s ->
        s.count <- s.count + 1;
        if d.distance < s.min_distance then s.min_distance <- d.distance
    | None -> Hashtbl.add table key { min_distance = d.distance; count = 1 }
  in
  let sm = Pair_shadow.create ~on_dep () in
  let time = ref 0 in
  let hooks =
    {
      Vm.Hooks.noop with
      on_instr = (fun ~pc:_ -> incr time);
      on_read =
        (fun ~pc ~addr ->
          Pair_shadow.read sm ~addr ~pc ~time:!time ~ctx:(current ()));
      on_write =
        (fun ~pc ~addr ->
          Pair_shadow.write sm ~addr ~pc ~time:!time ~ctx:(current ()));
      on_call = (fun ~pc ~fid:_ -> push_ctx pc);
      on_ret = (fun ~pc:_ ~fid:_ -> pop_ctx ());
      on_frame_release =
        (fun ~base ~size -> Pair_shadow.clear_range sm ~base ~size);
    }
  in
  (* The clock is the only per-instruction state: hand the engine the
     bulk contract and let every segment ride on the event stamps. *)
  let clock =
    {
      Ir.Engine.instr_range = (fun ~lo ~hi -> time := !time + (hi - lo + 1));
      range_has_target = (fun ~lo:_ ~hi:_ -> false);
      set_time = (fun t -> time := t);
    }
  in
  let r = Ir.Engine.run_hooked ~trace_locals ~clock ?fuel hooks prog in
  let edges =
    Hashtbl.fold
      (fun (head_pc, tail_pc, kind, head_ctx) (s : stats) acc ->
        ({
           head_pc;
           tail_pc;
           kind;
           head_ctx;
           min_distance = s.min_distance;
           count = s.count;
         }
          : edge)
        :: acc)
      table []
    |> List.sort (fun (a : edge) (b : edge) -> compare a.min_distance b.min_distance)
  in
  let contexts = Hashtbl.fold (fun id chain acc -> (id, chain) :: acc) chains [] in
  { edges; contexts; instructions = r.Vm.Machine.instructions }

let contexts_of_pair result ~head_pc ~tail_pc =
  result.edges
  |> List.filter_map (fun e ->
         if e.head_pc = head_pc && e.tail_pc = tail_pc then Some e.head_ctx
         else None)
  |> List.sort_uniq compare
