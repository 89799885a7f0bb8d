type edge_key = { head_pc : int; tail_pc : int; kind : Shadow.Dependence.kind }

module Key = struct
  type t = int

  let kind_tag = function
    | Shadow.Dependence.Raw -> 0
    | Shadow.Dependence.War -> 1
    | Shadow.Dependence.Waw -> 2

  let kind_of_tag = function
    | 0 -> Shadow.Dependence.Raw
    | 1 -> Shadow.Dependence.War
    | _ -> Shadow.Dependence.Waw

  let pack ~head_pc ~tail_pc kind =
    (head_pc lsl 31) lor (tail_pc lsl 2) lor kind_tag kind

  let head_pc k = k lsr 31
  let tail_pc k = (k lsr 2) land 0x1FFF_FFFF
  let kind k = kind_of_tag (k land 3)
  let unpack k = { head_pc = head_pc k; tail_pc = tail_pc k; kind = kind k }
  let compare (a : int) b = compare a b
end

type edge_stats = {
  mutable min_tdep : int;
  mutable count : int;
  mutable addrs : int list;
  mutable tail_internal : bool;
}

(* Open-addressing int-keyed table (linear probing, power-of-two
   capacity). [record_edge] runs once per attributed dependence — on
   gzip that is ~1.9M probes per run — and a bucket-list Hashtbl costs a
   pointer chase (usually a cache miss) plus a [Some] allocation per
   probe. Here a hit is one array scan with no allocation. Keys are
   {!Key.pack} values: always [>= 0], so [min_int] marks an empty slot. *)
module Etbl = struct
  type 'a t = {
    mutable keys : int array;
    mutable vals : 'a array;
    mutable size : int;
    mutable mask : int;
    dummy : 'a;
  }

  let no_key = min_int

  let create dummy n =
    let cap = ref 8 in
    while !cap < n do
      cap := !cap * 2
    done;
    {
      keys = Array.make !cap no_key;
      vals = Array.make !cap dummy;
      size = 0;
      mask = !cap - 1;
      dummy;
    }

  (* Fibonacci-style multiplicative mix: packed keys differ mostly in a
     few bit ranges; spread them across the table. The probe index is
     always masked to the power-of-two capacity, so the loop's loads are
     in bounds by construction and safely unchecked. *)
  let[@inline] slot t k =
    let mask = t.mask in
    let keys = t.keys in
    let i = ref ((k * 0x5DEECE66D) land mask) in
    while
      let k' = Array.unsafe_get keys !i in
      k' <> k && k' <> no_key
    do
      i := (!i + 1) land mask
    done;
    !i

  let[@inline] key_at t i = t.keys.(i)
  let[@inline] val_at t i = t.vals.(i)

  let grow t =
    let keys = t.keys and vals = t.vals in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap no_key;
    t.vals <- Array.make cap t.dummy;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k <> no_key then begin
          let j = slot t k in
          t.keys.(j) <- k;
          t.vals.(j) <- vals.(i)
        end)
      keys

  (* Install [v] at the empty slot [i] previously returned by {!slot};
     keeps the load factor at most 1/2. *)
  let install t i k v =
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > t.mask then grow t

  let find_opt t k =
    let i = slot t k in
    if t.keys.(i) = k then Some t.vals.(i) else None

  let mem t k = t.keys.(slot t k) = k

  let add t k v =
    let i = slot t k in
    if t.keys.(i) = k then t.vals.(i) <- v else install t i k v

  let iter f t =
    Array.iteri (fun i k -> if k <> no_key then f k t.vals.(i)) t.keys

  let fold f t acc =
    let acc = ref acc in
    Array.iteri (fun i k -> if k <> no_key then acc := f k t.vals.(i) !acc) t.keys;
    !acc

  let length t = t.size
end

type construct_profile = {
  cid : int;
  mutable ttotal : int;
  mutable instances : int;
  edges : edge_stats Etbl.t;
  parents : (int, int ref) Hashtbl.t;
  mutable nesting : int;
  mutable cache_key : Key.t;
  mutable cache_stats : edge_stats;
  mutable cache_parent_cid : int;
  mutable cache_parent_count : int ref;
}

type static = {
  verdicts : (Key.t * Static.Depend.verdict) list;
      (* one global association (verdicts are construct-independent),
         sorted by packed key *)
  distbounds : (Key.t * int) list;
      (* proven minimum dependence distance in loop iterations, by packed
         key, sorted; only bounds >= 1 are kept *)
  legality : (Key.t * Static.Legality.verdict) list;
      (* transform-legality verdicts by packed key, sorted; only edges
         the legality engine classifies appear (all recorded WAR/WAW,
         plus RAW edges proven reductions) *)
  race : (int * Static.Race.Status.t) list;
      (* race-detector statuses by construct id, sorted; only recorded
         (instances > 0) loop/proc constructs appear — conditionals
         have no concurrent units and unexecuted constructs have no
         profile entry to validate against *)
}

type t = {
  prog : Vm.Program.t;
  by_cid : construct_profile array;
  mutable total_instructions : int;
  mutable static : static option;  (* [None] = no static layer ran *)
}

let dummy_stats () =
  { min_tdep = max_int; count = 0; addrs = []; tail_internal = false }

let create (prog : Vm.Program.t) =
  (* One shared sentinel: it is never mutated (only ever compared or
     replaced), so every construct's empty table can point at it. *)
  let dummy = dummy_stats () in
  {
    prog;
    by_cid =
      Array.map
        (fun (c : Vm.Program.construct_info) ->
          {
            cid = c.cid;
            ttotal = 0;
            instances = 0;
            edges = Etbl.create dummy 8;
            parents = Hashtbl.create 4;
            nesting = 0;
            cache_key = min_int;
            cache_stats = dummy;
            cache_parent_cid = min_int;
            cache_parent_count = ref 0;
          })
        prog.constructs;
    total_instructions = 0;
    static = None;
  }

let get t cid = t.by_cid.(cid)

let enter t ~cid =
  let p = t.by_cid.(cid) in
  p.nesting <- p.nesting + 1

let bump_parent (p : construct_profile) parent_cid n =
  match Hashtbl.find_opt p.parents parent_cid with
  | Some r ->
      r := !r + n;
      r
  | None ->
      let r = ref n in
      Hashtbl.add p.parents parent_cid r;
      r

let leave t ~cid ~duration ~parent_cid =
  let p = t.by_cid.(cid) in
  p.nesting <- p.nesting - 1;
  p.instances <- p.instances + 1;
  (* §III-B: aggregate only at the outermost recursion level, otherwise
     nested activations would be double-counted. *)
  if p.nesting = 0 then p.ttotal <- p.ttotal + duration;
  (* A construct's dynamic parent is almost always the same static
     construct (a loop completes under the same enclosing loop every
     iteration) — memoize the counter cell and skip the Hashtbl probe. *)
  if p.cache_parent_cid = parent_cid then
    p.cache_parent_count := !(p.cache_parent_count) + 1
  else begin
    let r = bump_parent p parent_cid 1 in
    p.cache_parent_cid <- parent_cid;
    p.cache_parent_count <- r
  end

let note_addr s addr =
  (* bounded 3-slot sample of distinct conflicting addresses *)
  match s.addrs with
  | [] -> s.addrs <- [ addr ]
  | [ a ] -> if a <> addr then s.addrs <- addr :: s.addrs
  | [ a; b ] -> if a <> addr && b <> addr then s.addrs <- addr :: s.addrs
  | _ -> ()

let record_edge t ~cid ~head_pc ~tail_pc ~kind ~tdep ~addr =
  let p = t.by_cid.(cid) in
  (* the tail is happening right now: another instance of this construct
     is active iff its recursion/iteration nesting counter is nonzero *)
  let key = Key.pack ~head_pc ~tail_pc kind in
  let s =
    if p.cache_key = key then p.cache_stats
    else begin
      let i = Etbl.slot p.edges key in
      let s =
        if Etbl.key_at p.edges i = key then Etbl.val_at p.edges i
        else begin
          let s =
            { min_tdep = tdep; count = 0; addrs = []; tail_internal = false }
          in
          Etbl.install p.edges i key s;
          s
        end
      in
      p.cache_key <- key;
      p.cache_stats <- s;
      s
    end
  in
  s.count <- s.count + 1;
  if tdep < s.min_tdep then s.min_tdep <- tdep;
  if p.nesting > 0 then s.tail_internal <- true;
  note_addr s addr

let mean_duration p = if p.instances = 0 then 0 else p.ttotal / p.instances

(* Union of two <=3-address samples, keeping the three smallest: taking
   the k smallest commutes with union, so merge stays associative and
   commutative (byte-identical profiles regardless of shard order). *)
let merge_addrs xs ys =
  let l = List.sort_uniq compare (List.rev_append xs ys) in
  List.filteri (fun i _ -> i < 3) l

let verdict_rank = function
  | Static.Depend.Must_independent -> 0
  | Static.Depend.May_dependent -> 1
  | Static.Depend.Must_dependent -> 2

let recorded_keys t =
  Array.fold_left
    (fun acc (cp : construct_profile) ->
      Etbl.fold (fun k _ acc -> k :: acc) cp.edges acc)
    [] t.by_cid
  |> List.sort_uniq compare

let attach_static t ~verdict ~distbound ~legality ~race =
  let keys = recorded_keys t in
  let classified f =
    List.filter_map
      (fun k -> Option.map (fun v -> (k, v)) (f (Key.unpack k)))
      keys
  in
  t.static <-
    Some
      {
        verdicts = List.map (fun k -> (k, verdict (Key.unpack k))) keys;
        distbounds =
          classified (fun k ->
              match distbound k with Some d when d >= 1 -> Some d | _ -> None);
        legality = classified legality;
        race =
          Array.to_list t.by_cid
          |> List.filter_map (fun (cp : construct_profile) ->
                 if cp.instances > 0 then
                   Option.map (fun s -> (cp.cid, s)) (race cp.cid)
                 else None);
      }

(* Set union of two key-sorted lists. Same-key conflicts — impossible
   when both sides analyzed the same program, conceivable for
   hand-edited files — resolve through [pick], which is associative and
   commutative for every list, so [merge]'s laws hold. *)
let merge_sorted pick xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | ((kx, vx) as x) :: xs', ((ky, vy) as y) :: ys' ->
        if kx < ky then go xs' ys (x :: acc)
        else if ky < kx then go xs ys' (y :: acc)
        else go xs' ys' ((kx, pick vx vy) :: acc)
  in
  go xs ys []

let merge_static a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b ->
      let higher rank x y = if rank x >= rank y then x else y in
      Some
        {
          (* the lower-ranked verdict, deterministically *)
          verdicts =
            merge_sorted
              (fun x y -> if verdict_rank x <= verdict_rank y then x else y)
              a.verdicts b.verdicts;
          (* both sides proved their bound for the same program, so the
             smaller one is still proven *)
          distbounds = merge_sorted Int.min a.distbounds b.distbounds;
          (* the weaker claim: [Serializing] and [Racy] license nothing,
             so a disagreement degrades toward safety *)
          legality =
            merge_sorted
              (higher Static.Legality.verdict_rank)
              a.legality b.legality;
          race = merge_sorted (higher Static.Race.Status.rank) a.race b.race;
        }

let merge a b =
  if a.prog.Vm.Program.code <> b.prog.Vm.Program.code then
    invalid_arg "Profile.merge: profiles of different programs";
  let out = create a.prog in
  out.total_instructions <- a.total_instructions + b.total_instructions;
  out.static <- merge_static a.static b.static;
  Array.iteri
    (fun cid (dst : construct_profile) ->
      let add (src : construct_profile) =
        dst.ttotal <- dst.ttotal + src.ttotal;
        dst.instances <- dst.instances + src.instances;
        Etbl.iter
          (fun key (s : edge_stats) ->
            match Etbl.find_opt dst.edges key with
            | Some d ->
                d.count <- d.count + s.count;
                if s.min_tdep < d.min_tdep then d.min_tdep <- s.min_tdep;
                if s.tail_internal then d.tail_internal <- true;
                d.addrs <- merge_addrs d.addrs s.addrs
            | None ->
                Etbl.add dst.edges key
                  {
                    min_tdep = s.min_tdep;
                    count = s.count;
                    addrs = merge_addrs s.addrs [];
                    tail_internal = s.tail_internal;
                  })
          src.edges;
        Hashtbl.iter
          (fun parent n -> ignore (bump_parent dst parent !n))
          src.parents
      in
      add a.by_cid.(cid);
      add b.by_cid.(cid))
    out.by_cid;
  out

let iter_edges p f = Etbl.iter (fun k s -> f (Key.unpack k) s) p.edges
let fold_edges p f acc = Etbl.fold (fun k s acc -> f (Key.unpack k) s acc) p.edges acc
let num_edges p = Etbl.length p.edges

let find_edge p ~head_pc ~tail_pc kind =
  Etbl.find_opt p.edges (Key.pack ~head_pc ~tail_pc kind)

let edges_sorted p =
  Etbl.fold (fun k v acc -> (k, v) :: acc) p.edges []
  |> List.sort (fun (ka, a) (kb, b) ->
         match compare a.min_tdep b.min_tdep with
         | 0 -> Key.compare ka kb
         | c -> c)
  |> List.map (fun (k, v) -> (Key.unpack k, v))

let cid_of_head_pc t pc =
  if pc < 0 || pc >= Array.length t.prog.cid_of_pc then None
  else
    let cid = t.prog.cid_of_pc.(pc) in
    if cid < 0 then None else Some cid
