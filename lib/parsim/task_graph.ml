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

(* The fold table of one site: the binding constraint per (head instance,
   location), keyed by the packed int [head_instance lsl 32 lor loc]
   where [loc] is [2m] for [CInstance m] and [2m+1] for [CSegment m] (the
   interval arrays could never hold 2^31 instances). Entries are stored
   in insertion order in one stride-4 array (key, head_off, tail_off,
   kinds mask), found through an open-addressing index of entry numbers
   plus one (0 = empty slot). *)
type folds = {
  mutable ent : int array;
  mutable n : int;
  mutable index : int array;
  mutable mask : int;
}

let new_folds () =
  { ent = Array.make (16 lsl 2) 0; n = 0; index = Array.make 32 0; mask = 31 }

let no_folds = { ent = [||]; n = 0; index = [||]; mask = 0 }

let[@inline] slot_of key mask =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

let grow_index f =
  let size = 2 * (f.mask + 1) in
  let index = Array.make size 0 in
  let mask = size - 1 in
  for e = 0 to f.n - 1 do
    let s = ref (slot_of f.ent.(e lsl 2) mask) in
    while index.(!s) <> 0 do
      s := (!s + 1) land mask
    done;
    index.(!s) <- e + 1
  done;
  f.index <- index;
  f.mask <- mask

(* Top-level rather than local to [fold_into]: without flambda a local
   recursive function closing over its arguments allocates per call. *)
let rec probe f ~key ~head_off ~tail_off ~bit s =
  let e = f.index.(s) in
  if e = 0 then begin
    let e = f.n in
    if (e + 1) lsl 2 > Array.length f.ent then begin
      let bigger = Array.make (2 * Array.length f.ent) 0 in
      Array.blit f.ent 0 bigger 0 (e lsl 2);
      f.ent <- bigger
    end;
    let b = e lsl 2 in
    f.ent.(b) <- key;
    f.ent.(b + 1) <- head_off;
    f.ent.(b + 2) <- tail_off;
    f.ent.(b + 3) <- bit;
    f.index.(s) <- e + 1;
    f.n <- e + 1;
    if 2 * f.n > f.mask then grow_index f
  end
  else begin
    let ent = f.ent in
    let b = (e - 1) lsl 2 in
    if ent.(b) <> key then
      probe f ~key ~head_off ~tail_off ~bit ((s + 1) land f.mask)
    else begin
      if head_off - tail_off > ent.(b + 1) - ent.(b + 2) then begin
        ent.(b + 1) <- head_off;
        ent.(b + 2) <- tail_off
      end;
      ent.(b + 3) <- ent.(b + 3) lor bit
    end
  end

let fold_into f ~key ~head_off ~tail_off ~kind =
  probe f ~key ~head_off ~tail_off ~bit:(kind_bit kind) (slot_of key f.mask)

(* The constraints in the order their keys were first folded. *)
let constraints_of f =
  let acc = ref [] in
  for e = f.n - 1 downto 0 do
    let b = e lsl 2 in
    let key = f.ent.(b) in
    let loc = key land 0xFFFF_FFFF in
    acc :=
      {
        head_instance = key lsr 32;
        location =
          (if loc land 1 = 0 then CInstance (loc lsr 1)
           else CSegment (loc lsr 1));
        head_off = f.ent.(b + 1);
        tail_off = f.ent.(b + 2);
        kinds = kinds_of_mask.(f.ent.(b + 3));
      }
      :: !acc
  done;
  !acc

(* One site's state during the shared run. Instance tracking follows the
   outermost activations of the construct headed at [head_pc]: completed
   intervals in [starts]/[stops] (disjoint, in sequential order), plus the
   open one from [cur_start] while [depth > 0]. The address filters are
   one byte per address up to the highest filtered one: bit 1 set for a
   reduction range, bit 0 for a privatized one. *)
type tracker = {
  is_proc : bool;
  filter : Bytes.t;
  mutable starts : int array;
  mutable stops : int array;
  mutable n_completed : int;
  mutable depth : int;
  mutable cur_start : int;
  mutable pending_claim : bool;
  mutable folds : folds;
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
    n_completed = 0;
    depth = 0;
    cur_start = 0;
    pending_claim = false;
    folds = new_folds ();
    dropped = 0;
    cross = 0;
  }

let[@inline] filter_at tr addr =
  if addr >= 0 && addr < Bytes.length tr.filter then
    Char.code (Bytes.unsafe_get tr.filter addr)
  else 0

let fold tr ~head_instance ~loc ~head_off ~tail_off ~kind =
  tr.cross <- tr.cross + 1;
  fold_into tr.folds ~key:((head_instance lsl 32) lor loc) ~head_off ~tail_off ~kind

let on_push tr (c : Indexing.Node.t) =
  if tr.depth = 0 then tr.cur_start <- c.tenter;
  tr.depth <- tr.depth + 1

(* Returns [true] when a procedure future was completed: it is claimed
   where its return value is consumed — immediately after the call unless
   the value is discarded (a [Pop] at the return target). *)
let on_pop tr (c : Indexing.Node.t) =
  tr.depth <- tr.depth - 1;
  if tr.depth = 0 then begin
    let n = tr.n_completed in
    if n = Array.length tr.starts then begin
      let size = max 64 (2 * n) in
      let grow a =
        let b = Array.make size 0 in
        Array.blit a 0 b 0 n;
        b
      in
      tr.starts <- grow tr.starts;
      tr.stops <- grow tr.stops
    end;
    tr.starts.(n) <- tr.cur_start;
    tr.stops.(n) <- c.texit;
    tr.n_completed <- n + 1;
    tr.is_proc && not tr.pending_claim
  end
  else false

let claim tr (prog : Vm.Program.t) ~pc ~now =
  tr.pending_claim <- false;
  if prog.code.(pc) <> Vm.Instr.Pop then begin
    let i = tr.n_completed - 1 in
    fold tr ~head_instance:i
      ~loc:((tr.n_completed lsl 1) lor 1)
      ~head_off:(tr.stops.(i) - tr.starts.(i))
      ~tail_off:now ~kind:Shadow.Dependence.Raw
  end

(* The completed instance whose interval holds [th], or -1 (backbone).
   Most heads lie after the last completed instance or inside it; only
   the rest pay for the binary search. *)
let completed_at tr th =
  let last = tr.n_completed - 1 in
  if last < 0 || th >= tr.stops.(last) || th < tr.starts.(0) then -1
  else if th >= tr.starts.(last) then last
  else begin
    (* invariant: starts.(lo) <= th < starts.(hi) *)
    let lo = ref 0 and hi = ref last in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) lsr 1 in
      if th < tr.starts.(mid) then hi := mid else lo := mid
    done;
    if th < tr.stops.(!lo) then !lo else -1
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
        fold tr ~head_instance:i ~loc:(tr.n_completed lsl 1) ~head_off
          ~tail_off:(tail_time - tr.cur_start) ~kind
      else
        fold tr ~head_instance:i
          ~loc:((tr.n_completed lsl 1) lor 1)
          ~head_off ~tail_off:tail_time ~kind
    end
  end

let graph_of tr ~total =
  let constraints = constraints_of tr.folds in
  tr.folds <- no_folds;
  {
    total;
    instances =
      Array.init tr.n_completed (fun i ->
          { idx = i; start = tr.starts.(i); stop = tr.stops.(i) });
    constraints;
    dropped_privatized = tr.dropped;
    cross_deps = tr.cross;
  }

let collect_many ?fuel ?(trace_locals = false) (prog : Vm.Program.t) sites ~f =
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
       instruction. *)
    let pending = Array.make (Array.length trackers) trackers.(0) in
    let n_pending = ref 0 in
    let push_hook (c : Indexing.Node.t) =
      let ts = by_pc.(c.label) in
      for k = 0 to Array.length ts - 1 do
        on_push ts.(k) c
      done
    in
    let pop_hook (c : Indexing.Node.t) =
      let ts = by_pc.(c.label) in
      for k = 0 to Array.length ts - 1 do
        let tr = ts.(k) in
        if on_pop tr c then begin
          tr.pending_claim <- true;
          pending.(!n_pending) <- tr;
          incr n_pending
        end
      done
    in
    let tree = Indexing.Index_tree.create ~on_push:push_hook ~on_pop:pop_hook () in
    let ipdom = (Cfa.Analysis.analyze prog).Cfa.Analysis.ipdom_of_pc in
    let rules = Indexing.Rules.create ~ipdom ~tree in
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
            if !n_pending > 0 then begin
              let now = Indexing.Index_tree.now tree in
              for k = 0 to !n_pending - 1 do
                claim pending.(k) prog ~pc ~now
              done;
              n_pending := 0
            end);
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
    let r = Vm.Machine.run_hooked ~trace_locals ?fuel hooks prog in
    Indexing.Rules.finish rules;
    let total = r.Vm.Machine.instructions in
    (* One site at a time: its fold table is released as its graph is
       built, and the graph is garbage once [f] returns. *)
    Array.to_list trackers |> List.map (fun tr -> f (graph_of tr ~total))
  end

let collect ?fuel ?trace_locals ?(privatized = []) ?(reductions = []) prog
    ~head_pc =
  match
    collect_many ?fuel ?trace_locals prog
      [ { head_pc; privatized; reductions } ]
      ~f:Fun.id
  with
  | [ g ] -> g
  | _ -> assert false
