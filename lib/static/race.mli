(** Static race detection for profile-advised parallelizations.

    Given the fork-join happens-before structure a spawn advice implies
    ({!Concur}), check every may-happen-in-parallel access pair of the
    construct's region and emit a per-construct verdict. The contract
    is one-sided soundness: {!Race_free} is claimed only when every
    conflicting pair is provably exempt — frame freshness, a
    privatization/reduction proof for the pair's own cell (the advice
    already licenses that rewrite; the exemption mirrors the legality
    engine's relative-verdict semantics), subscript-set disjointness,
    or same-iteration confinement in the spawned loop itself. {!Racy}
    and {!Unknown} may be conservative; precision shows in [table5]'s
    gated column and [alchemist verify], soundness is regressed
    (test_race's qcheck differential).

    Statuses persist as a profile file's [race] lines and feed
    [alchemist verify], advice demotion, the sanitizer cross-check,
    report/ranking tags, and parsim's refusal diagnostic. *)

(** Payload-free verdict summary — what profiles store and merges
    combine. Constructors mirror {!verdict} without the evidence. *)
module Status : sig
  type t = Race_free | Unknown | Racy

  val to_string : t -> string
  (** ["race-free"], ["unknown"], ["racy"] — the [race] line tags. *)

  val of_string : string -> t option

  val rank : t -> int
  (** [Race_free] = 0, [Unknown] = 1, [Racy] = 2. Merges keep the
      higher rank: disagreement degrades away from licensing. *)
end

type witness = {
  pc1 : int;
  pc2 : int;  (** [pc1 <= pc2]; equal for a self-WAW across units *)
  line1 : int;
  line2 : int;  (** source lines of the two accesses *)
  cell : string;  (** the contested location, named for humans *)
  kind : Shadow.Dependence.kind;
      (** [Waw] when both write; otherwise [Raw] if the lower pc is the
          writer, [War] if it is the reader *)
}

type verdict = Race_free | Racy of witness list | Unknown of string

val kind_to_string : Shadow.Dependence.kind -> string
(** ["RAW"], ["WAR"], ["WAW"]. *)

type t

val analyze :
  Vm.Program.t ->
  Points_to.t ->
  Privatize.t ->
  Distance.t ->
  called_once:(int -> bool) ->
  t
(** Shares the facts {!Depend.analyze} already computed (including
    {!Legality}'s privatization engine); verdicts are memoized per
    construct, so construction is cheap and unprofiled constructs cost
    nothing. *)

val verdict : t -> cid:int -> verdict option
(** [None] for a [CCond] — a conditional has no concurrent units. The
    witness list is capped at 16 entries and deterministic (pairs are
    enumerated in ascending pc order). *)

val status : t -> cid:int -> Status.t option
val status_of_verdict : verdict -> Status.t

val explain : t -> cid:int -> string
(** One-line human justification of the verdict (CLI, reports). *)
