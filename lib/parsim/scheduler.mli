(** Discrete scheduler for future-style parallel execution.

    Replays the task graph under the paper's execution model (Fig. 1): the
    backbone (main thread) runs serial segments in sequential order and
    spawns each instance at its sequential entry point; instances run on
    the first free of [cores] workers; every folded constraint stalls its
    tail until [start_par(head_instance) + value] — the Fig. 1 shift of
    the dependence interval by [Tdep - Tdur]. Program exit joins all
    outstanding futures.

    The simulated clock counts bytecode instructions, so
    [speedup = seq_time / par_time] is directly comparable to Table V's
    wall-clock ratios.

    One loop schedules both graph layouts: it walks a
    {!Task_graph.Flat.t} location by location (segment 0, instance 0,
    segment 1, ...) with one cursor over the group table, stably sorts
    each group by tail offset in a reused scratch buffer, and keeps start
    times, stalls and placements in int arrays. Constraints whose head
    instance is not earlier than their location constrain nothing. *)

type config = {
  cores : int;  (** worker threads (the paper uses 4) *)
  spawn_overhead : int;  (** backbone instructions per spawn *)
  join_overhead : int;  (** worker instructions per task completion *)
}

val default_config : config
(** 4 cores, 50-instruction spawn, 25-instruction join. *)

type task_schedule = {
  task : int;  (** instance index *)
  core : int;
  start : int;  (** simulated start time *)
  finish : int;  (** simulated completion (including internal stalls) *)
}

type schedule = {
  seq_time : int;
  par_time : int;
  speedup : float;
  tasks : int;
  stall_time : int;  (** total backbone + worker stalls from constraints *)
  busy : int array;  (** per-core busy instructions *)
  placements : task_schedule array;  (** one per instance, in spawn order *)
}

(** A schedule with its placements as int arrays, indexed by instance. *)
module Flat : sig
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

val simulate_flat : ?config:config -> Task_graph.Flat.t -> Flat.t
(** Schedules a flat graph, allocating arrays sized to the graph and
    nothing per instance or per constraint.
    @raise Invalid_argument if [config.cores < 1]. *)

val simulate : ?config:config -> Task_graph.t -> schedule
(** Schedules a list-view graph: {!Task_graph.flatten} (out-of-range
    locations are left out), then {!simulate_flat}, with the placements
    as records.
    @raise Invalid_argument if [config.cores < 1]. *)
