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

module Flat = struct
  type t = {
    seq_time : int;
    par_time : int;
    speedup : float;
    stall_time : int;
    busy : int array;
    core : int array;
    start : int array;
    finish : int array;
  }
end

(* Per-instance stall profiles, appended instance by instance: instance
   [m]'s stalls are entries [first.(m) .. first.(m+1) - 1], each a tail
   offset and the stall accumulated at and before it, in ascending
   offset order. The head of a downstream constraint executes at [start
   + off + (the accumulated stall of the last entry at or before off)]. *)
type stalls = {
  first : int array;
  mutable off : int array;
  mutable cum : int array;
  mutable len : int;
}

let push_stall st ~off ~cum =
  if st.len = Array.length st.off then begin
    let size = max 64 (2 * st.len) in
    let grow a =
      let b = Array.make size 0 in
      Array.blit a 0 b 0 st.len;
      b
    in
    st.off <- grow st.off;
    st.cum <- grow st.cum
  end;
  st.off.(st.len) <- off;
  st.cum.(st.len) <- cum;
  st.len <- st.len + 1

let exec_time st (start : int array) h off =
  let lo = st.first.(h) and hi = st.first.(h + 1) in
  let stalled =
    if hi = lo || st.off.(lo) > off then 0
    else begin
      (* invariant: off.(lo) <= off < off.(hi) (hi may be the end) *)
      let lo = ref lo and hi = ref hi in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) lsr 1 in
        if st.off.(mid) <= off then lo := mid else hi := mid
      done;
      st.cum.(!lo)
    end
  in
  start.(h) + off + stalled

(* Stable merge of two sorted runs of constraint numbers, src.(lo ..
   mid-1) and src.(mid .. hi-1), into dst, by tail offset. *)
let merge (cons : int array) (src : int array) (dst : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if
      !i < mid
      && (!j >= hi || cons.((src.(!i) lsl 2) + 2) <= cons.((src.(!j) lsl 2) + 2))
    then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* Loads the constraints [first .. first + len - 1] into [order] stably
   sorted by tail offset: a bottom-up merge sort that ping-pongs between
   [order] and the scratch buffer [tmp], both reused for every group.
   Groups arrive mostly sorted already (tails arrive in time order), so
   a sorted group costs one pass. *)
let load_sorted (cons : int array) ~first ~len ~order ~tmp =
  let sorted = ref true in
  for k = 0 to len - 1 do
    order.(k) <- first + k;
    if k > 0 && cons.(((first + k - 1) lsl 2) + 2) > cons.(((first + k) lsl 2) + 2)
    then sorted := false
  done;
  if not !sorted then begin
    let src = ref order and dst = ref tmp and width = ref 1 in
    while !width < len do
      let lo = ref 0 in
      while !lo < len do
        let mid = min (!lo + !width) len in
        let hi = min (!lo + (2 * !width)) len in
        merge cons !src !dst !lo mid hi;
        lo := hi
      done;
      let s = !src in
      src := !dst;
      dst := s;
      width := 2 * !width
    done;
    if !src != order then Array.blit !src 0 order 0 len
  end

(* The constraints of location [loc], loaded into [order] sorted by tail
   offset; returns how many. [cursor.(0)] is the next unread group: the
   walk asks for every location in ascending order, as the groups are. *)
let take_group (g : Task_graph.Flat.t) cursor ~loc ~order ~tmp =
  let k = cursor.(0) in
  if k < g.n_groups && g.groups.(2 * k) = loc then begin
    let first = g.groups.((2 * k) + 1) in
    let stop =
      if k + 1 < g.n_groups then g.groups.((2 * k) + 3) else g.n_constraints
    in
    cursor.(0) <- k + 1;
    load_sorted g.constraints ~first ~len:(stop - first) ~order ~tmp;
    stop - first
  end
  else 0

let largest_group (g : Task_graph.Flat.t) =
  let m = ref 0 in
  for k = 0 to g.n_groups - 1 do
    let stop =
      if k + 1 < g.n_groups then g.groups.((2 * k) + 3) else g.n_constraints
    in
    m := max !m (stop - g.groups.((2 * k) + 1))
  done;
  !m

let simulate_flat ?(config = default_config) (g : Task_graph.Flat.t) =
  if config.cores < 1 then
    invalid_arg
      (Printf.sprintf "Scheduler.simulate: cores must be at least 1, got %d"
         config.cores);
  let n = g.n_instances in
  let cons = g.constraints in
  let start = Array.make n 0 in
  let finish = Array.make n 0 in
  let core_of = Array.make n 0 in
  let free = Array.make config.cores 0 in
  let busy = Array.make config.cores 0 in
  let st = { first = Array.make (n + 1) 0; off = [||]; cum = [||]; len = 0 } in
  let width = largest_group g in
  let order = Array.make width 0 and tmp = Array.make width 0 in
  let cursor = [| 0 |] in
  let total_stalls = ref 0 in
  let backbone = ref 0 in
  let prev_end = ref 0 in
  for m = 0 to n do
    (* Segment m: backbone between instance m-1's end and instance m's
       start (or program end for m = n). *)
    let seg_start_seq = !prev_end in
    let seg_end_seq = if m < n then g.starts.(m) else g.total in
    let seg_stall = ref 0 in
    let k =
      take_group g cursor ~loc:(Task_graph.Flat.segment m) ~order ~tmp
    in
    for x = 0 to k - 1 do
      let b = order.(x) lsl 2 in
      let h = cons.(b) in
      if h < m then begin
        let arrival = !backbone + (cons.(b + 2) - seg_start_seq) + !seg_stall in
        let required = exec_time st start h cons.(b + 1) in
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
      let s = max !backbone free.(!core) in
      let dur = g.stops.(m) - g.starts.(m) in
      (* Internal stalls at this instance's dependence tails. *)
      let acc = ref 0 in
      let k =
        take_group g cursor ~loc:(Task_graph.Flat.instance m) ~order ~tmp
      in
      for x = 0 to k - 1 do
        let b = order.(x) lsl 2 in
        let h = cons.(b) in
        if h < m then begin
          let arrival = s + cons.(b + 2) + !acc in
          let required = exec_time st start h cons.(b + 1) in
          if required > arrival then begin
            acc := !acc + (required - arrival);
            push_stall st ~off:cons.(b + 2) ~cum:!acc
          end
        end
      done;
      st.first.(m + 1) <- st.len;
      total_stalls := !total_stalls + !acc;
      start.(m) <- s;
      finish.(m) <- s + dur + !acc;
      core_of.(m) <- !core;
      free.(!core) <- finish.(m) + config.join_overhead;
      busy.(!core) <- busy.(!core) + dur;
      prev_end := g.stops.(m)
    end
  done;
  (* Join all futures at program exit. *)
  let par_time = ref !backbone in
  for m = 0 to n - 1 do
    if finish.(m) > !par_time then par_time := finish.(m)
  done;
  let par_time = max !par_time 1 in
  {
    Flat.seq_time = g.total;
    par_time;
    speedup = float_of_int g.total /. float_of_int par_time;
    stall_time = !total_stalls;
    busy;
    core = core_of;
    start;
    finish;
  }

let simulate ?config (g : Task_graph.t) =
  let s = simulate_flat ?config (Task_graph.flatten g) in
  {
    seq_time = s.seq_time;
    par_time = s.par_time;
    speedup = s.speedup;
    tasks = Array.length s.start;
    stall_time = s.stall_time;
    busy = s.busy;
    placements =
      Array.init (Array.length s.start) (fun m ->
          { task = m; core = s.core.(m); start = s.start.(m); finish = s.finish.(m) });
  }
