type instance = { idx : int; start : int; stop : int }
type constraint_location = CInstance of int | CSegment of int

type folded_constraint = {
  head_instance : int;
  location : constraint_location;
  head_off : int;
  tail_off : int;
  kinds : Shadow.Dependence.kind list;
}

type t = {
  total : int;
  instances : instance array;
  constraints : folded_constraint list;
  dropped_privatized : int;
  cross_deps : int;
}

type site = {
  head_pc : int;
  privatized : (int * int) list;
  reductions : (int * int) list;
}

(* The kinds folded into one constraint, as a bit mask; [kinds_of_mask]
   decodes it into one shared list per mask, in RAW, WAR, WAW order. *)
let kind_bit = function
  | Shadow.Dependence.Raw -> 1
  | Shadow.Dependence.War -> 2
  | Shadow.Dependence.Waw -> 4

let kinds_of_mask =
  Array.init 8 (fun m ->
      List.filter
        (fun k -> m land kind_bit k <> 0)
        Shadow.Dependence.[ Raw; War; Waw ])

module Flat = struct
  type t = {
    total : int;
    n_instances : int;
    starts : int array;
    stops : int array;
    n_constraints : int;
    constraints : int array;
    n_groups : int;
    groups : int array;
    dropped_privatized : int;
    cross_deps : int;
  }

  let segment m = 2 * m
  let instance m = (2 * m) + 1
end

let location_of_code code =
  if code land 1 = 0 then CSegment (code lsr 1) else CInstance (code lsr 1)

let view (g : Flat.t) =
  let c = g.constraints in
  let acc = ref [] in
  for k = g.n_groups - 1 downto 0 do
    let location = location_of_code g.groups.(2 * k) in
    let first = g.groups.((2 * k) + 1) in
    let stop =
      if k + 1 < g.n_groups then g.groups.((2 * k) + 3) else g.n_constraints
    in
    for e = stop - 1 downto first do
      let b = e lsl 2 in
      acc :=
        {
          head_instance = c.(b);
          location;
          head_off = c.(b + 1);
          tail_off = c.(b + 2);
          kinds = kinds_of_mask.(c.(b + 3));
        }
        :: !acc
    done
  done;
  {
    total = g.total;
    instances =
      Array.init g.n_instances (fun i ->
          { idx = i; start = g.starts.(i); stop = g.stops.(i) });
    constraints = !acc;
    dropped_privatized = g.dropped_privatized;
    cross_deps = g.cross_deps;
  }

let flatten (g : t) =
  let n = Array.length g.instances in
  let code = function
    | CSegment m when m >= 0 && m <= n -> Flat.segment m
    | CInstance j when j >= 0 && j < n -> Flat.instance j
    | _ -> -1
  in
  (* One counting pass by location; list order is kept within each. *)
  let locations = (2 * n) + 1 in
  let first = Array.make (locations + 1) 0 in
  List.iter
    (fun c ->
      let k = code c.location in
      if k >= 0 then first.(k + 1) <- first.(k + 1) + 1)
    g.constraints;
  let n_groups = ref 0 in
  for k = 0 to locations - 1 do
    if first.(k + 1) > 0 then incr n_groups;
    first.(k + 1) <- first.(k + 1) + first.(k)
  done;
  let constraints = Array.make (4 * first.(locations)) 0 in
  let groups = Array.make (2 * !n_groups) 0 in
  let g_at = ref 0 in
  for k = 0 to locations - 1 do
    if first.(k + 1) > first.(k) then begin
      groups.(2 * !g_at) <- k;
      groups.((2 * !g_at) + 1) <- first.(k);
      incr g_at
    end
  done;
  List.iter
    (fun c ->
      let k = code c.location in
      if k >= 0 then begin
        let b = first.(k) lsl 2 in
        first.(k) <- first.(k) + 1;
        constraints.(b) <- c.head_instance;
        constraints.(b + 1) <- c.head_off;
        constraints.(b + 2) <- c.tail_off;
        constraints.(b + 3) <-
          List.fold_left (fun m k -> m lor kind_bit k) 0 c.kinds
      end)
    g.constraints;
  {
    Flat.total = g.total;
    n_instances = n;
    starts = Array.map (fun (i : instance) -> i.start) g.instances;
    stops = Array.map (fun (i : instance) -> i.stop) g.instances;
    n_constraints = Array.length constraints / 4;
    constraints;
    n_groups = !n_groups;
    groups;
    dropped_privatized = g.dropped_privatized;
    cross_deps = g.cross_deps;
  }

(* One site's state during the shared run. Instance tracking follows the
   outermost activations of the construct headed at [head_pc]: completed
   intervals in [starts]/[stops] (disjoint, in sequential order), plus the
   open one from [cur_start] while [depth > 0]. The address filters are
   one byte per address up to the highest filtered one: bit 1 set for a
   reduction range, bit 0 for a privatized one.

   The fold table is the flat graph's constraint table being filled. A
   tail lies at the run's current location — the open instance while
   [depth > 0], else the segment before the next instance — and the
   location only moves forward, so every location's constraints are one
   contiguous stretch of [cons], opened at [open_first] when its first
   constraint arrives. [last.(i)] is the newest constraint of head
   instance [i] (-1 for none): it belongs to the open location exactly
   when it lies at or after [open_first], which makes the fold lookup one
   array read. *)
type tracker = {
  is_proc : bool;
  filter : Bytes.t;
  mutable starts : int array;
  mutable stops : int array;
  mutable last : int array;
  mutable n_completed : int;
  mutable bshift : int;
  mutable bfirst : int array;
  mutable n_buckets : int;
  mutable depth : int;
  mutable cur_start : int;
  mutable pending_claim : bool;
  mutable cons : int array;
  mutable n_cons : int;
  mutable groups : int array;
  mutable n_groups : int;
  mutable open_loc : int;
  mutable open_first : int;
  mutable dropped : int;
  mutable cross : int;
}

let reduction_bit = 2
let privatized_bit = 1

let filter_of (s : site) =
  let hi =
    List.fold_left
      (fun hi (base, len) -> max hi (base + len))
      0 (s.privatized @ s.reductions)
  in
  let filter = Bytes.make hi '\000' in
  let mark bit (base, len) =
    for a = max base 0 to base + len - 1 do
      Bytes.set filter a (Char.chr (Char.code (Bytes.get filter a) lor bit))
    done
  in
  List.iter (mark privatized_bit) s.privatized;
  List.iter (mark reduction_bit) s.reductions;
  filter

let tracker_of (prog : Vm.Program.t) (s : site) =
  let is_proc =
    match Vm.Program.construct_at prog s.head_pc with
    | Some c -> c.kind = Vm.Program.CProc
    | None ->
        invalid_arg
          (Printf.sprintf "Task_graph.collect: pc %d heads no construct" s.head_pc)
  in
  {
    is_proc;
    filter = filter_of s;
    starts = [||];
    stops = [||];
    last = [||];
    n_completed = 0;
    bshift = 0;
    bfirst = [||];
    n_buckets = 0;
    depth = 0;
    cur_start = 0;
    pending_claim = false;
    cons = [||];
    n_cons = 0;
    groups = [||];
    n_groups = 0;
    open_loc = -1;
    open_first = 0;
    dropped = 0;
    cross = 0;
  }

let[@inline] filter_at tr addr =
  if addr >= 0 && addr < Bytes.length tr.filter then
    Char.code (Bytes.unsafe_get tr.filter addr)
  else 0

let grow a ~used ~size =
  let b = Array.make size 0 in
  Array.blit a 0 b 0 used;
  b

let open_location tr loc =
  if loc < tr.open_loc then
    invalid_arg "Task_graph.collect: a dependence tail went back in time";
  let k = tr.n_groups in
  if 2 * (k + 1) > Array.length tr.groups then
    tr.groups <- grow tr.groups ~used:(2 * k) ~size:(max 32 (4 * k));
  tr.groups.(2 * k) <- loc;
  tr.groups.((2 * k) + 1) <- tr.n_cons;
  tr.n_groups <- k + 1;
  tr.open_loc <- loc;
  tr.open_first <- tr.n_cons

(* Folds one dependence into the binding constraint of (head instance
   [head], location [loc]): the one with maximum [head_off - tail_off]. *)
let fold tr ~head ~loc ~head_off ~tail_off ~bit =
  tr.cross <- tr.cross + 1;
  if loc <> tr.open_loc then open_location tr loc;
  let e = tr.last.(head) in
  if e >= tr.open_first then begin
    let cons = tr.cons in
    let b = e lsl 2 in
    if head_off - tail_off > cons.(b + 1) - cons.(b + 2) then begin
      cons.(b + 1) <- head_off;
      cons.(b + 2) <- tail_off
    end;
    cons.(b + 3) <- cons.(b + 3) lor bit
  end
  else begin
    let e = tr.n_cons in
    if (e + 1) lsl 2 > Array.length tr.cons then
      tr.cons <- grow tr.cons ~used:(e lsl 2) ~size:(max 64 (8 * e));
    let cons = tr.cons in
    let b = e lsl 2 in
    cons.(b) <- head;
    cons.(b + 1) <- head_off;
    cons.(b + 2) <- tail_off;
    cons.(b + 3) <- bit;
    tr.last.(head) <- e;
    tr.n_cons <- e + 1
  end

(* The time-bucket index: bucket [b] covers times [b lsl bshift, (b+1)
   lsl bshift) and [bfirst.(b)] is the first completed instance that
   stops after the bucket starts. The buckets are kept at most about
   twice as many as the instances by doubling their width, and rebuilt
   at the finest width that budget allows whenever the instance count
   doubles. *)
let set_buckets tr i stop =
  let nb = ((stop - 1) asr tr.bshift) + 1 in
  if nb > tr.n_buckets then begin
    if nb > Array.length tr.bfirst then
      tr.bfirst <- grow tr.bfirst ~used:tr.n_buckets ~size:(max 64 (2 * nb));
    Array.fill tr.bfirst tr.n_buckets (nb - tr.n_buckets) i;
    tr.n_buckets <- nb
  end

let index_instance tr n stop =
  let budget = (2 * (n + 1)) + 64 in
  if n >= 64 && n land (n - 1) = 0 then begin
    tr.bshift <- 0;
    while ((stop - 1) asr tr.bshift) + 1 > budget do
      tr.bshift <- tr.bshift + 1
    done;
    tr.n_buckets <- 0;
    for i = 0 to n do
      set_buckets tr i tr.stops.(i)
    done
  end
  else begin
    while ((stop - 1) asr tr.bshift) + 1 > budget do
      let half = (tr.n_buckets + 1) / 2 in
      for b = 0 to half - 1 do
        tr.bfirst.(b) <- tr.bfirst.(2 * b)
      done;
      tr.n_buckets <- half;
      tr.bshift <- tr.bshift + 1
    done;
    set_buckets tr n stop
  end

let on_push tr ~tenter =
  if tr.depth = 0 then tr.cur_start <- tenter;
  tr.depth <- tr.depth + 1

(* Returns [true] when a procedure future was completed: it is claimed
   where its return value is consumed — immediately after the call unless
   the value is discarded (a [Pop] at the return target). *)
let on_pop tr ~texit =
  tr.depth <- tr.depth - 1;
  if tr.depth = 0 then begin
    let n = tr.n_completed in
    if n = Array.length tr.starts then begin
      let size = max 64 (2 * n) in
      tr.starts <- grow tr.starts ~used:n ~size;
      tr.stops <- grow tr.stops ~used:n ~size;
      tr.last <- grow tr.last ~used:n ~size
    end;
    tr.starts.(n) <- tr.cur_start;
    tr.stops.(n) <- texit;
    tr.last.(n) <- -1;
    tr.n_completed <- n + 1;
    index_instance tr n texit;
    tr.is_proc && not tr.pending_claim
  end
  else false

let claim tr (prog : Vm.Program.t) ~pc ~now =
  tr.pending_claim <- false;
  if prog.code.(pc) <> Vm.Instr.Pop then begin
    let i = tr.n_completed - 1 in
    fold tr ~head:i
      ~loc:(Flat.segment tr.n_completed)
      ~head_off:(tr.stops.(i) - tr.starts.(i))
      ~tail_off:now
      ~bit:(kind_bit Shadow.Dependence.Raw)
  end

(* The completed instance whose interval holds [th], or -1 (backbone).
   Most heads lie after the last completed instance or inside it; the
   rest start from their time bucket's first instance still running at
   the bucket's start, and step past the ones that stop by [th]. *)
let completed_at tr th =
  let last = tr.n_completed - 1 in
  if last < 0 || th >= tr.stops.(last) || th < tr.starts.(0) then -1
  else if th >= tr.starts.(last) then last
  else begin
    let i = ref tr.bfirst.(th asr tr.bshift) in
    while tr.stops.(!i) <= th do
      incr i
    done;
    if tr.starts.(!i) <= th then !i else -1
  end

(* A dependence constrains the schedule when its head lies in a completed
   instance: the tail is then either in the open instance or in the
   backbone after the last completed one. A head in the open instance
   (the tail is too — the dependence is internal) or in the backbone
   (sequentially ordered anyway) constrains nothing. *)
let on_dep tr ~kind ~head_time ~tail_time ~addr =
  let f = filter_at tr addr in
  if
    f land reduction_bit <> 0
    || (f land privatized_bit <> 0 && kind <> Shadow.Dependence.Raw)
  then tr.dropped <- tr.dropped + 1
  else if not (tr.depth > 0 && head_time >= tr.cur_start) then begin
    let i = completed_at tr head_time in
    if i >= 0 then begin
      let head_off = head_time - tr.starts.(i) in
      if tr.depth > 0 && tail_time >= tr.cur_start then
        fold tr ~head:i ~loc:(Flat.instance tr.n_completed) ~head_off
          ~tail_off:(tail_time - tr.cur_start) ~bit:(kind_bit kind)
      else
        fold tr ~head:i
          ~loc:(Flat.segment tr.n_completed)
          ~head_off ~tail_off:tail_time ~bit:(kind_bit kind)
    end
  end

(* Hands the tracker's tables over to the graph and lets go of them, so
   the graph is garbage once the consumer is done with it. *)
let flat_of tr ~total =
  let g =
    {
      Flat.total;
      n_instances = tr.n_completed;
      starts = tr.starts;
      stops = tr.stops;
      n_constraints = tr.n_cons;
      constraints = tr.cons;
      n_groups = tr.n_groups;
      groups = tr.groups;
      dropped_privatized = tr.dropped;
      cross_deps = tr.cross;
    }
  in
  tr.starts <- [||];
  tr.stops <- [||];
  tr.cons <- [||];
  tr.groups <- [||];
  g

let collect_many ?(engine = Vm.Machine.Register) ?fuel ?(trace_locals = false)
    (prog : Vm.Program.t) sites ~f =
  if sites = [] then []
  else begin
    let trackers = Array.of_list (List.map (tracker_of prog) sites) in
    (* Sites by head pc: push/pop reach only the trackers of that pc. *)
    let by_pc = Array.make (Array.length prog.code) [||] in
    List.iteri
      (fun k (s : site) ->
        by_pc.(s.head_pc) <- Array.append by_pc.(s.head_pc) [| trackers.(k) |])
      sites;
    (* Procedure sites whose instance just completed, claimed at the next
       instruction: the call's return target. *)
    let pending = Array.make (Array.length trackers) trackers.(0) in
    let n_pending = ref 0 in
    let push_hook nodes c =
      let ts = by_pc.(Indexing.Node.label nodes c) in
      for k = 0 to Array.length ts - 1 do
        on_push ts.(k) ~tenter:(Indexing.Node.tenter nodes c)
      done
    in
    let pop_hook nodes c =
      let ts = by_pc.(Indexing.Node.label nodes c) in
      for k = 0 to Array.length ts - 1 do
        let tr = ts.(k) in
        if on_pop tr ~texit:(Indexing.Node.texit nodes c) then begin
          tr.pending_claim <- true;
          pending.(!n_pending) <- tr;
          incr n_pending
        end
      done
    in
    (* The hooks read a node only while it is live and the sink ignores
       the edge's nodes, so no completed node is ever looked at again:
       the pool needs to retain none, and a zero capacity recycles each
       node as soon as it is retirable instead of filling the paper's
       1M-node store. *)
    let tree =
      Indexing.Index_tree.create ~pool_capacity:0 ~on_push:push_hook
        ~on_pop:pop_hook ()
    in
    let ipdom = (Cfa.Analysis.analyze prog).Cfa.Analysis.ipdom_of_pc in
    let rules = Indexing.Rules.create ~ipdom ~tree in
    let claim_pending ~pc =
      let now = Indexing.Index_tree.now tree in
      for k = 0 to !n_pending - 1 do
        claim pending.(k) prog ~pc ~now
      done;
      n_pending := 0
    in
    let sink ~kind ~head_pc:_ ~head_time ~head_node:_ ~tail_pc:_ ~tail_time
        ~tail_node:_ ~addr =
      for k = 0 to Array.length trackers - 1 do
        on_dep trackers.(k) ~kind ~head_time ~tail_time ~addr
      done
    in
    let shadow = Shadow.Shadow_memory.create ~sink () in
    let hooks =
      {
        Vm.Hooks.on_instr =
          (fun ~pc ->
            Indexing.Rules.on_instr rules ~pc;
            if !n_pending > 0 then claim_pending ~pc);
        on_read =
          (fun ~pc ~addr ->
            Shadow.Shadow_memory.read shadow ~addr ~pc
              ~time:(Indexing.Index_tree.now tree)
              ~node:(Indexing.Index_tree.peek tree));
        on_write =
          (fun ~pc ~addr ->
            Shadow.Shadow_memory.write shadow ~addr ~pc
              ~time:(Indexing.Index_tree.now tree)
              ~node:(Indexing.Index_tree.peek tree));
        on_branch =
          (fun ~pc ~kind ~cid:_ ~taken ->
            Indexing.Rules.on_branch rules ~pc ~kind ~taken);
        on_call = (fun ~pc ~fid:_ -> Indexing.Rules.on_call rules ~entry_pc:pc);
        on_ret = (fun ~pc:_ ~fid:_ -> Indexing.Rules.on_ret rules);
        on_frame_release =
          (fun ~base ~size -> Shadow.Shadow_memory.clear_range shadow ~base ~size);
      }
    in
    (* The profiler's clock contract, plus one obligation of ours: a
       pending claim happens at the return target, so every segment
       holding one stays in the stream. The return target is always a
       segment's first pc (a call ends its segment), and nothing but a
       return can leave a claim pending, so a kept range that starts
       with claims pending starts at their return target: tick its first
       pc, claim, then tick the rest — what per-pc delivery does. *)
    let targets = Bytes.make (Array.length prog.code + 1) '\000' in
    Array.iteri
      (fun pc (i : Vm.Instr.t) ->
        match i with
        | Call fid when Array.length by_pc.(prog.funcs.(fid).entry) > 0 ->
            Bytes.set targets (pc + 1) '\001'
        | _ -> ())
      prog.code;
    let clock =
      {
        Ir.Engine.instr_range =
          (fun ~lo ~hi ->
            if !n_pending > 0 then begin
              Indexing.Rules.on_instr rules ~pc:lo;
              claim_pending ~pc:lo;
              if hi > lo then Indexing.Rules.on_instr_range rules ~lo:(lo + 1) ~hi
            end
            else Indexing.Rules.on_instr_range rules ~lo ~hi);
        range_has_target =
          (fun ~lo ~hi ->
            Indexing.Rules.range_has_target rules ~lo ~hi
            || Bytes.get targets lo <> '\000');
        set_time = Indexing.Index_tree.set_now tree;
      }
    in
    let r = Ir.Engine.run_hooked ~engine ~trace_locals ~clock ?fuel hooks prog in
    Indexing.Rules.finish rules;
    let total = r.Vm.Machine.instructions in
    Array.iter
      (fun tr ->
        tr.last <- [||];
        tr.bfirst <- [||])
      trackers;
    (* One site at a time: its tables pass to its graph, which is garbage
       once [f] returns. *)
    Array.to_list trackers |> List.map (fun tr -> f (flat_of tr ~total))
  end

let collect ?engine ?fuel ?trace_locals ?(privatized = []) ?(reductions = [])
    prog ~head_pc =
  match
    collect_many ?engine ?fuel ?trace_locals prog
      [ { head_pc; privatized; reductions } ]
      ~f:view
  with
  | [ g ] -> g
  | _ -> assert false
