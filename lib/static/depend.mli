(** Loop-carried dependence classifier and instrumentation-pruning
    oracle.

    Built on {!Points_to} (which regions can each memory-event pc
    touch?) and {!Reaching_defs} (which writes must reach which reads?),
    this module answers two questions:

    - {!verdict}: for a [(head_pc, tail_pc, kind)] dependence edge, is
      it {!Must_independent} (cannot occur in any execution),
      {!May_dependent} (cannot be refuted), or {!Must_dependent}
      (occurs in every execution that reaches the tail)? The profile
      sanitizer fails on any dynamic edge classified [Must_independent];
      reports surface all three.
    - {!prune_mask}: which event pcs can skip their shadow-memory hooks
      {e without changing a single profile byte}? A pc is prunable only
      if it can participate in no edge {e and} skipping its shadow
      update cannot corrupt the attribution of anyone else's edges (see
      the per-condition comments in the implementation — the write case
      is strictly harder than the read case).

    Scope and soundness stance: verdicts model the profiler's default
    event set ([trace_locals = false]); [Must_independent] never rests
    on intraprocedural reachability (globals persist across activations,
    so CFG order refutes nothing), only on direction, region
    disjointness, or a pruned endpoint; [Must_dependent] is claimed only
    for exact static global cells within one activation of the enclosing
    function. *)

type verdict = Must_independent | May_dependent | Must_dependent

val verdict_to_string : verdict -> string
(** ["must-indep"], ["may-dep"], ["must-dep"] — the tags of a profile
    file's [verdict] lines. *)

val verdict_of_string : string -> verdict option

type t

val analyze : ?analysis:Cfa.Analysis.t -> Vm.Program.t -> t
(** [analysis] shares an already-computed CFA result (the profiler has
    one); omitted, it is recomputed. *)

val points : t -> Points_to.t

val modref : t -> Modref.t
(** Interprocedural mod/ref summaries computed during {!analyze} (they
    also feed the must-reaching-definitions kill function at [Call]
    sites). *)

val legality : t -> Legality.t
(** The transform-legality classifier built on the same {!Points_to}
    and {!Modref} facts — see {!Legality.classify}. *)

val race : t -> Race.t
(** The static race detector built on the same points-to, privatization,
    and distance facts — see {!Race.verdict}. Construction is lazy per
    construct, so carrying it costs nothing until queried. *)

val distance : t -> Distance.t
(** The dependence-distance engine built during {!analyze} (shares its
    [called_once] facts). *)

val degraded : t -> bool

val verdict :
  t -> kind:Shadow.Dependence.kind -> head_pc:int -> tail_pc:int -> verdict

val explain :
  t -> kind:Shadow.Dependence.kind -> head_pc:int -> tail_pc:int -> string
(** Human-readable justification of {!verdict} for the same edge
    (sanitizer failure messages, report footnotes). *)

val prune_mask : t -> bool array
(** Indexed by pc; [true] exactly at event pcs whose hooks may be
    skipped. Two accesses count as disjoint when their regions cannot
    alias or when they touch the same global array at subscripts the
    distance engine proves never meet ({!Distance.no_dep}). The array
    is shared, not copied — treat as read-only. *)

val pruned_count : t -> int

val widen_prune :
  t -> region_hint:(int -> (int * int) option) -> bool array * int
(** Re-derive the prune mask with externally proven regions substituted
    for incomplete accesses: [region_hint pc = Some (base, len)] asserts
    that whenever the event at [pc] fires, its address lies in the
    global region [base, base+len) — {!Ir.Refine.region_hints} supplies
    such facts from register-IR def-use chains the abstract-stack
    points-to analysis cannot follow. The result is a fresh array, a
    superset of {!prune_mask} (widening is monotone), paired with the
    number of pcs it adds. Verdicts and stored profiles keep using the
    base mask, so applying the widened mask to an engine changes no
    profile byte. *)

val event_count : t -> int
(** Memory-event pcs in live code (denominator for the pruning rate). *)

val called_once : t -> int -> bool
(** The function body executes at most once per program run. *)

val live : t -> int -> bool
(** The function is reachable from [main] through [Call] instructions in
    reachable functions. *)

val construct_proven_independent : t -> cid:int -> bool
(** Every event pc that could head an edge attributed to this construct
    (its body span plus the bodies of all transitively callable
    functions) is pruned — so the construct provably receives no
    dependence edges at all, the strongest "spawnable" evidence the
    static layer can give. *)

val frame_owner : t -> head_pc:int -> tail_pc:int -> int option
(** [Some fid] when both endpoints provably address the {e current}
    activation frame of [fid]. Such an edge is confined to one
    activation (frame release invalidates shadow state), so it can only
    be attributed to completed constructs {e inside} that activation:
    loops and conditionals of [fid], never a [CProc] — the sanitizer's
    frame-ownership check. *)

val distance_bound : t -> head_pc:int -> tail_pc:int -> int option
(** Proven minimum dependence distance in loop iterations ([>= 1])
    between two event pcs, valid for every dynamic edge instance: both
    endpoints resolve to the same single global array and the
    {!Distance} tests prove the separation. Since [d] iterations apart
    implies at least [d] retired instructions apart, any recorded edge
    between the pcs must satisfy [min_tdep >= d] — the invariant the
    sanitizer and [alchemist check] enforce, and the bound persisted in
    a profile file's [distbound] lines. *)

val distance_verdict :
  t -> head_pc:int -> tail_pc:int -> Distance.verdict * string
(** Raw distance classification with its justification, gated on the
    same same-array requirement as {!distance_bound} ([Unknown]
    otherwise). *)
