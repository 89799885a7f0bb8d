(** Per-construct dependence-distance profiles.

    One {!construct_profile} per static construct, keyed by construct id.
    An entry records the paper's Fig. 2 quantities: total executed
    instructions ([ttotal], summed over outermost instances only —
    §III-B's recursion rule), the instance count, and for every static
    dependence edge crossing out of the construct the minimum observed
    distance [Tdep] (the minimum bounds exploitable concurrency).

    Edges are keyed by a single tagged int ({!Key.t}) packing
    [(head_pc, tail_pc, kind)], so the per-dependence bottom-up walk
    neither allocates a key record nor hashes a structured value; the
    unpacked {!edge_key} view is recovered on demand via {!Key.unpack}
    and the {!iter_edges}/{!fold_edges} traversals. *)

type edge_key = { head_pc : int; tail_pc : int; kind : Shadow.Dependence.kind }
(** Unpacked view of an edge key (reporting / analysis convenience). *)

module Key : sig
  type t = int
  (** [(head_pc lsl 31) lor (tail_pc lsl 2) lor kind] — pcs fit easily in
      29/31 bits for any program this VM can hold. A pc outside
      [\[0, 2^29)] aliases another key, so pcs from outside the program
      (a profile file) must be range-checked before packing, as
      {!Profile_io.read} does. *)

  val pack : head_pc:int -> tail_pc:int -> Shadow.Dependence.kind -> t
  val unpack : t -> edge_key
  val head_pc : t -> int
  val tail_pc : t -> int
  val kind : t -> Shadow.Dependence.kind
  val compare : t -> t -> int
end

module Etbl : sig
  type 'a t
  (** Open-addressing table keyed by {!Key.t} (linear probing,
      power-of-two capacity): int-keyed, avalanche-mixed hash, no
      polymorphic comparison — and, unlike [Hashtbl], no per-probe
      allocation and no bucket-list pointer chase on the hot path
      (one probe per attributed dependence). *)

  val mem : 'a t -> Key.t -> bool

  val add : 'a t -> Key.t -> 'a -> unit
  (** Insert, replacing any existing binding for the key. *)
end
(** Edge tables. Traverse via {!iter_edges}/{!fold_edges}. *)

type edge_stats = {
  mutable min_tdep : int;
  mutable count : int;  (** dynamic occurrences attributed to this edge *)
  mutable addrs : int list;
      (** up to three distinct conflicting addresses — enough to name the
          variable(s) behind the edge in reports and transformation
          advice. Most recent first when recorded live; sorted ascending
          after a {!merge}. *)
  mutable tail_internal : bool;
      (** some occurrence's tail executed while another instance of this
          construct was active (e.g. a later loop iteration) — as opposed
          to tails in the continuation after all instances, which a
          future-based transform handles with a join (Advice) *)
}

type construct_profile = {
  cid : int;
  mutable ttotal : int;
  mutable instances : int;
  edges : edge_stats Etbl.t;
  parents : (int, int ref) Hashtbl.t;
      (** direct dynamic parent cid -> instance count (drives Fig. 6(b)'s
          "single nested instance per instance" removal); the key [-1]
          stands for the execution root *)
  mutable nesting : int;  (** live recursion depth of this static construct *)
  mutable cache_key : Key.t;
      (** last edge key recorded on this construct ([min_int] = none) —
          a 1-entry memo that skips the table probe when a loop keeps
          hitting the same static edge *)
  mutable cache_stats : edge_stats;  (** stats cell memoized for [cache_key] *)
  mutable cache_parent_cid : int;
      (** last dynamic parent cid seen by {!leave} ([min_int] = none) —
          a 1-entry memo that skips the parents probe while iterating
          under an unchanged enclosing construct *)
  mutable cache_parent_count : int ref;  (** counter cell for the memo *)
}

type static = {
  verdicts : (Key.t * Static.Depend.verdict) list;
      (** static classification of every recorded edge, sorted by packed
          key; one global list — a verdict depends only on the edge, not
          on which construct it was attributed to *)
  distbounds : (Key.t * int) list;
      (** proven minimum dependence distance in loop iterations for
          recorded edges, sorted by packed key; only bounds [>= 1] are
          kept, so absence of a key means "nothing proven". Any dynamic
          instance of the edge must be at least this many retired
          instructions apart ([min_tdep >= d]) — the invariant
          [alchemist check] enforces. *)
  legality : (Key.t * Static.Legality.verdict) list;
      (** transform-legality verdicts for recorded edges, sorted by
          packed key: every WAR/WAW edge classified
          [Privatizable]/[Reduction]/[Serializing], plus RAW edges
          proven reductions (unclassified RAW edges are absent — see
          {!Static.Legality.classify}) *)
  race : (int * Static.Race.Status.t) list;
      (** race-detector statuses by construct id, sorted ascending; only
          recorded (instances > 0) constructs the detector classifies
          appear — conditionals spawn no concurrent units, so they are
          absent *)
}
(** What the static layer established about a profile's recorded edges
    and constructs. Each list may be empty. *)

type t = {
  prog : Vm.Program.t;
  by_cid : construct_profile array;
  mutable total_instructions : int;
  mutable static : static option;
      (** [Some] exactly when the static layer ran: every default-mode
          run. [None] for a [trace_locals] profile, whose event set the
          static facts do not model. *)
}

val create : Vm.Program.t -> t

val enter : t -> cid:int -> unit
(** Instance start: bumps the recursion nesting counter. *)

val leave : t -> cid:int -> duration:int -> parent_cid:int -> unit
(** Instance completion (Table I lines 18–22): counts the instance,
    aggregates [duration] into [ttotal] only at outermost recursion
    depth, and records the dynamic parent. *)

val record_edge :
  t ->
  cid:int ->
  head_pc:int ->
  tail_pc:int ->
  kind:Shadow.Dependence.kind ->
  tdep:int ->
  addr:int ->
  unit
(** Table II lines 8–13: insert the static edge or lower its minimum. *)

val attach_static :
  t ->
  verdict:(edge_key -> Static.Depend.verdict) ->
  distbound:(edge_key -> int option) ->
  legality:(edge_key -> Static.Legality.verdict option) ->
  race:(int -> Static.Race.Status.t option) ->
  unit
(** Store the static layer's facts about every currently recorded edge
    and construct in [static]: a verdict per edge (deduplicated across
    constructs), the [>= 1] distance bounds, the legality-classified
    edges, and the race status of every recorded ([instances > 0])
    construct the detector classifies. *)

val merge : t -> t -> t
(** Combine two profiles of the {e same} program (e.g. different inputs —
    the paper gathers multiple profile runs): instance counts and totals
    add, per-edge minima take the min, edge sets union, per-edge address
    samples take the three smallest of the union (which makes [merge]
    associative and commutative, see test_parallel). A [None] static
    block is the identity; two blocks merge list by list. Verdict lists
    union by key; since both sides classify with the same program,
    same-key verdicts agree — ties nevertheless resolve deterministically
    so the laws hold unconditionally. Distance-bound lists union by key
    with same-key conflicts taking the minimum (still proven, still
    associative/commutative); legality lists union by key with conflicts
    keeping the weaker claim (max rank — degrades toward [Serializing]);
    race lists union by cid with conflicts keeping the higher
    {!Static.Race.Status.rank} (degrades toward [Racy]).
    @raise Invalid_argument if the programs differ. *)

val get : t -> int -> construct_profile

val mean_duration : construct_profile -> int
(** [ttotal / instances] — the per-instance [Tdur] used for the
    [Tdep > Tdur] test (0 when the construct never completed). *)

val iter_edges : construct_profile -> (edge_key -> edge_stats -> unit) -> unit
val fold_edges :
  construct_profile -> (edge_key -> edge_stats -> 'a -> 'a) -> 'a -> 'a

val num_edges : construct_profile -> int

val find_edge :
  construct_profile ->
  head_pc:int ->
  tail_pc:int ->
  Shadow.Dependence.kind ->
  edge_stats option

val edges_sorted : construct_profile -> (edge_key * edge_stats) list
(** Sorted by ascending minimum distance (ties broken by packed key, so
    the order is deterministic). *)

val cid_of_head_pc : t -> int -> int option
