(** Transform-legality verdicts for recorded dependence edges.

    {!Depend} says whether an edge can occur; this module says what a
    parallelizing transform may legally do about it. Each loop-carried
    WAR/WAW edge gets one of three verdicts, ordered from strongest to
    weakest claim:

    - [Privatizable]: give each iteration (thread) its own copy of the
      location — legal because {!Privatize.prove_privatizable} shows the
      cell is written before any read on every intra-iteration path and
      definitely written by every back edge, so no value carries between
      iterations and last-value copy-out is well-defined. Removes the
      WAR/WAW edges on the cell.
    - [Reduction]: accumulate into per-thread partials and fold them at
      the join — legal because {!Privatize.prove_reduction} shows the
      loop's only accesses to the cell form a single associative,
      commutative fold. Removes {e all} edges on the cell, RAW
      included.
    - [Serializing]: neither proof holds; the edge genuinely orders
      iterations (the lattice bottom, always safe to claim).

    RAW edges are classified only when the reduction proof applies
    ({!classify} returns [None] otherwise): a RAW edge that is not a
    reduction is simply a dataflow fact, not a transform opportunity.

    Verdicts persist as a profile file's [legality] lines and feed the
    report tags, [Advice.Spawnable]'s removable-edge list, the
    sanitizer's dynamic cross-check, and parsim's legality-aware
    speedup simulation. *)

type verdict = Privatizable | Reduction | Serializing

val verdict_to_string : verdict -> string
(** ["priv"], ["red"], ["serial"] — the tags of a profile file's
    [legality] lines. *)

val verdict_of_string : string -> verdict option

val verdict_rank : verdict -> int
(** [Privatizable] = 0, [Reduction] = 1, [Serializing] = 2. Profile
    merges keep the {e higher} rank: [Serializing] claims least, so
    disagreement (impossible for same-program profiles, possible for a
    corrupted file) degrades toward safety. *)

type t

(** Everything a consumer may want to know about one classified edge. *)
type proof = {
  verdict : verdict;
  reason : string;  (** why this verdict (refutation text for [Serializing]) *)
  cell : int option;  (** the global cell both endpoints address, when exact *)
  span : (int * int) option;
      (** inclusive pc bounds of the proof's loop — the sanitizer's
          dynamic cross-check needs to tell in-loop from out-of-loop
          edge endpoints *)
  op : Minic.Ast.binop option;  (** the fold operator, for [Reduction] *)
  copy_out : bool;
      (** [Privatizable] only: the cell may be read after the loop, so
          the transform must copy the last iteration's value out *)
}

val analyze : Vm.Program.t -> Points_to.t -> Modref.t -> t
(** Shares the {!Points_to} and {!Modref} facts already computed by
    {!Depend.analyze}; classifications are memoized per edge. *)

val privatize : t -> Privatize.t
(** The privatization/reduction proof engine built during {!analyze} —
    shared with {!Race} so both layers argue from the same proofs. *)

val classify :
  t -> kind:Shadow.Dependence.kind -> head_pc:int -> tail_pc:int ->
  verdict option
(** [Some] for every WAR/WAW edge; for RAW edges, [Some Reduction] when
    the proof holds and [None] otherwise. *)

val proof :
  t -> kind:Shadow.Dependence.kind -> head_pc:int -> tail_pc:int ->
  proof option
(** Full detail behind {!classify}, same [None] policy. *)

val explain :
  t -> kind:Shadow.Dependence.kind -> head_pc:int -> tail_pc:int -> string
(** Human-readable justification (report footnotes, sanitizer
    messages); meaningful even when {!classify} returns [None]. *)

val loop_transforms :
  t -> br_pc:int -> (int * int) list * (int * int) list
(** For the natural loop headed by the [BrLoop] predicate at [br_pc]
    (a [CLoop] construct's [head_pc]): the [(base, len)] address ranges
    of its directly-accessed global cells proven [Privatizable] and
    proven [Reduction] — exactly the shape parsim's task-graph
    collection consumes to drop removable constraints. Cells proving
    both ways are reported once, as reductions (the stronger
    transform: it also licenses dropping RAW edges). *)
