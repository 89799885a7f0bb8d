type edge = {
  head_pc : int;
  tail_pc : int;
  kind : [ `Raw | `War | `Waw ];
  min_distance : int;
  count : int;
}

type result = { edges : edge list; instructions : int }

type stats = { mutable min_distance : int; mutable count : int }

let run ?fuel ?(trace_locals = false) (prog : Vm.Program.t) =
  let table : (int * int * [ `Raw | `War | `Waw ], stats) Hashtbl.t =
    Hashtbl.create 256
  in
  let on_dep (d : unit Pair_shadow.dep) =
    let key = (d.head_pc, d.tail_pc, d.kind) in
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
        (fun ~pc ~addr -> Pair_shadow.read sm ~addr ~pc ~time:!time ~ctx:());
      on_write =
        (fun ~pc ~addr -> Pair_shadow.write sm ~addr ~pc ~time:!time ~ctx:());
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
      (fun (head_pc, tail_pc, kind) (s : stats) acc ->
        ({ head_pc; tail_pc; kind; min_distance = s.min_distance; count = s.count }
          : edge)
        :: acc)
      table []
    |> List.sort (fun (a : edge) (b : edge) -> compare a.min_distance b.min_distance)
  in
  { edges; instructions = r.Vm.Machine.instructions }
