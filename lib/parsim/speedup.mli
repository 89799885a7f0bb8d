(** End-to-end parallelization what-if analysis (drives Table V).

    [analyze_many] runs one collection pass for any number of chosen
    constructs, applies each one's requested privatizations, schedules
    each on [cores] workers, and reports sequential vs simulated-parallel
    time per construct; [analyze] is its one-construct case. *)

type request = {
  head_pc : int;  (** the construct to parallelize *)
  privatize : string list;
      (** globals given thread-local copies (drops WAR/WAW) *)
  reduce : string list;
      (** associative accumulators rewritten as per-thread partials (drops
          all dependence kinds on them) *)
}

type report = {
  construct : string;  (** display name of the parallelized construct *)
  head_pc : int;
  seq_instructions : int;
  par_instructions : int;
  speedup : float;
  tasks : int;
  constraints : int;  (** folded scheduling constraints *)
  cross_deps : int;  (** dynamic dependences that crossed instances *)
  dropped_privatized : int;
  stall_time : int;
  race_refusal : string option;
      (** [Some diagnostic] when a [~race] detector was supplied and it
          calls the construct racy — the simulation then dropped {e no}
          edges (neither proven-legal ranges nor hand-named lists), so
          the reported speedup is what the ordering constraints allow *)
}

val analyze_many :
  ?fuel:int ->
  ?trace_locals:bool ->
  ?cores:int ->
  ?spawn_overhead:int ->
  ?join_overhead:int ->
  ?legality:Static.Legality.t ->
  ?race:Static.Race.t ->
  Vm.Program.t ->
  request list ->
  report list
(** One report per request, in request order, from a single instrumented
    run ({!Task_graph.collect_many}). Each report equals what {!analyze}
    gives for that request alone. [legality] adds the ranges the
    transform-legality engine {e proves} removable for the loop at each
    [head_pc] ({!Transform.legality_ranges}) — with no hand-named lists,
    the simulation then drops exactly the proven-removable edges and
    nothing else. [race] gates every drop on the static race detector:
    when it calls a request's construct racy, no edges are dropped for
    that request and its [race_refusal] carries the diagnostic.
    Each graph is scheduled flat ({!Scheduler.simulate_flat}) as soon as
    it is collected: no constraint or instance record is built.
    @raise Invalid_argument for an unknown global name, a [head_pc] that
    heads no construct, or [cores < 1] (checked before the run). *)

val analyze :
  ?fuel:int ->
  ?trace_locals:bool ->
  ?cores:int ->
  ?spawn_overhead:int ->
  ?join_overhead:int ->
  ?privatize:string list ->
  ?reduce:string list ->
  ?legality:Static.Legality.t ->
  ?race:Static.Race.t ->
  Vm.Program.t ->
  head_pc:int ->
  report
(** The one-request case of {!analyze_many}; [privatize] and [reduce]
    default to empty. *)

val loop_head_at_line : Vm.Program.t -> int -> int
(** pc of the loop construct headed at a source line.
    @raise Invalid_argument if there is none. *)

val proc_head : Vm.Program.t -> string -> int
(** pc of a procedure construct. @raise Invalid_argument if unknown. *)

val pp_report : Format.formatter -> report -> unit
