(** The Alchemist workflow, automated (the paper's §IV-B2 methodology):

    "We first run the sequential version through Alchemist to collect
    profiles. We then look for large constructs with few violating static
    RAW dependences and try to parallelize those constructs, using the
    WAW and WAR profiles as hints for where to insert variable
    privatization."

    [explore] does exactly that: profile once; rank constructs; for each
    of the top candidates derive {!Alchemist.Advice}; for candidates that
    are parallelizable (possibly after transforms), run the what-if
    simulator with the advice-derived privatization list; report
    everything, best simulated speedup first.

    One call runs at most two instrumented executions whatever the
    candidate count: the profiling run and, when some candidate is
    simulated, one collection run that serves them all
    ({!Parsim.Speedup.analyze_many}). The static analysis is prepared
    once and shared by the profiler, the ranking and every advice
    call. *)

type candidate = {
  rank : int;  (** position in the size ranking (1-based) *)
  entry : Alchemist.Ranking.entry;
  advice : Alchemist.Advice.t;
  simulated : Parsim.Speedup.report option;
      (** [None] when the advice verdict is [`Not_amenable] *)
}

type t = {
  candidates : candidate list;  (** best simulated speedup first *)
  instructions : int;
  profile : Alchemist.Profile.t;
}

val explore :
  ?fuel:int ->
  ?cores:int ->
  ?spawn_overhead:int ->
  ?top:int ->
  ?min_share:float ->
  Vm.Program.t ->
  t
(** Examine the [top] (default 8) largest constructs covering at least
    [min_share] (default 0.02) of the run, skipping the root [main].
    Candidates whose advice says [`Not_amenable] are reported but not
    simulated. *)

val best : t -> candidate option
(** The candidate with the highest simulated speedup, if any. *)

val pp : Format.formatter -> t -> unit
(** A §IV-B2-style narrative: each candidate with its verdict, advice and
    simulated speedup. *)
