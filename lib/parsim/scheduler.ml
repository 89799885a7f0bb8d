type config = { cores : int; spawn_overhead : int; join_overhead : int }

let default_config = { cores = 4; spawn_overhead = 50; join_overhead = 25 }

type task_schedule = { task : int; core : int; start : int; finish : int }

type schedule = {
  seq_time : int;
  par_time : int;
  speedup : float;
  tasks : int;
  stall_time : int;
  busy : int array;
  placements : task_schedule array;
}

(* Per-instance stall profile: (tail_off, accumulated stall at and after
   that offset), ascending. The head of a downstream constraint executes at
   [start + off + stalls_before off]. *)
type profile = { start : int; stalls : (int * int) list }

let stalls_before (p : profile) off =
  let rec go acc = function
    | (o, s) :: rest when o <= off -> go (acc + s) rest
    | _ -> acc
  in
  go 0 p.stalls

let exec_time (p : profile) off = p.start + off + stalls_before p off

(* Constraints grouped by tail location, sorted by tail offset so stall
   accumulation within an instance/segment is processed in order. One
   counting pass lays the buckets out in one array: bucket [b] is
   [items.(first.(b)) .. items.(first.(b+1) - 1)], locations outside
   [0, n) are left out. Within a bucket the constraints come in reverse
   list order, then stably sorted by [tail_off]. *)
type buckets = { first : int array; items : Task_graph.folded_constraint array }

let buckets ~n ~select (g : Task_graph.t) =
  let first = Array.make (n + 1) 0 in
  List.iter
    (fun (c : Task_graph.folded_constraint) ->
      let b = select c.location in
      if b >= 0 && b < n then first.(b + 1) <- first.(b + 1) + 1)
    g.constraints;
  for b = 1 to n do
    first.(b) <- first.(b) + first.(b - 1)
  done;
  match g.constraints with
  | [] -> { first; items = [||] }
  | c0 :: _ ->
      let items = Array.make first.(n) c0 in
      (* each bucket filled from its end: reverse list order *)
      let fill = Array.sub first 1 n in
      List.iter
        (fun (c : Task_graph.folded_constraint) ->
          let b = select c.location in
          if b >= 0 && b < n then begin
            fill.(b) <- fill.(b) - 1;
            items.(fill.(b)) <- c
          end)
        g.constraints;
      for b = 0 to n - 1 do
        let lo = first.(b) and len = first.(b + 1) - first.(b) in
        if len > 1 then begin
          let a = Array.sub items lo len in
          Array.stable_sort
            (fun (x : Task_graph.folded_constraint) y ->
              Int.compare x.tail_off y.tail_off)
            a;
          Array.blit a 0 items lo len
        end
      done;
      { first; items }

let simulate ?(config = default_config) (g : Task_graph.t) =
  let n = Array.length g.instances in
  let profiles = Array.make (max n 1) { start = 0; stalls = [] } in
  let finish = Array.make (max n 1) 0 in
  let cores_of = Array.make (max n 1) 0 in
  let free = Array.make config.cores 0 in
  let busy = Array.make config.cores 0 in
  let total_stalls = ref 0 in
  let segs =
    buckets ~n:(n + 1)
      ~select:(function Task_graph.CSegment m -> m | _ -> -1)
      g
  in
  let insts =
    buckets ~n ~select:(function Task_graph.CInstance j -> j | _ -> -1) g
  in
  let backbone = ref 0 in
  let prev_end = ref 0 in
  for m = 0 to n do
    (* Segment m: backbone between instance m-1's end and instance m's
       start (or program end for m = n). *)
    let seg_start_seq = !prev_end in
    let seg_end_seq =
      if m < n then g.instances.(m).Task_graph.start else g.total
    in
    let seg_stall = ref 0 in
    for k = segs.first.(m) to segs.first.(m + 1) - 1 do
      let c = segs.items.(k) in
      if c.head_instance < m then begin
        let arrival = !backbone + (c.tail_off - seg_start_seq) + !seg_stall in
        let required = exec_time profiles.(c.head_instance) c.head_off in
        if required > arrival then seg_stall := !seg_stall + (required - arrival)
      end
    done;
    total_stalls := !total_stalls + !seg_stall;
    backbone := !backbone + (seg_end_seq - seg_start_seq) + !seg_stall;
    if m < n then begin
      (* Spawn instance m on the first free worker. *)
      backbone := !backbone + config.spawn_overhead;
      let core = ref 0 in
      for c = 1 to config.cores - 1 do
        if free.(c) < free.(!core) then core := c
      done;
      let st = max !backbone free.(!core) in
      let dur =
        g.instances.(m).Task_graph.stop - g.instances.(m).Task_graph.start
      in
      (* Internal stalls at this instance's dependence tails. *)
      let stalls = ref [] in
      let acc = ref 0 in
      for k = insts.first.(m) to insts.first.(m + 1) - 1 do
        let c = insts.items.(k) in
        if c.head_instance < m then begin
          let arrival = st + c.tail_off + !acc in
          let required = exec_time profiles.(c.head_instance) c.head_off in
          if required > arrival then begin
            let s = required - arrival in
            acc := !acc + s;
            stalls := (c.tail_off, s) :: !stalls
          end
        end
      done;
      total_stalls := !total_stalls + !acc;
      profiles.(m) <- { start = st; stalls = List.rev !stalls };
      finish.(m) <- st + dur + !acc;
      cores_of.(m) <- !core;
      free.(!core) <- finish.(m) + config.join_overhead;
      busy.(!core) <- busy.(!core) + dur;
      prev_end := g.instances.(m).Task_graph.stop
    end
  done;
  (* Join all futures at program exit. *)
  let par_time = Array.fold_left max !backbone (Array.sub finish 0 n) in
  {
    seq_time = g.total;
    par_time = max par_time 1;
    speedup = float_of_int g.total /. float_of_int (max par_time 1);
    tasks = n;
    stall_time = !total_stalls;
    busy;
    placements =
      Array.init n (fun m ->
          {
            task = m;
            core = cores_of.(m);
            start = profiles.(m).start;
            finish = finish.(m);
          });
  }
