(** Profile persistence.

    A profile is written as a line-oriented text format tied to the
    program it came from by a code fingerprint, so profiles from several
    runs (different inputs) can be collected offline and merged with
    {!Profile.merge} later — the paper's "gathering and analyzing profile
    runs".

    Format:
    {v
    alchemist-profile <1|5>
    fingerprint <hex>
    total <instructions>
    verdict <head_pc> <tail_pc> <RAW|WAR|WAW> <must-indep|may-dep|must-dep>
    distbound <head_pc> <tail_pc> <RAW|WAR|WAW> <d>
    legality <head_pc> <tail_pc> <RAW|WAR|WAW> <priv|red|serial>
    race <cid> <race-free|unknown|racy>
    construct <cid> <ttotal> <instances>
    edge <cid> <head_pc> <tail_pc> <RAW|WAR|WAW> <min_tdep> <count> <internal:0|1> <addr>*
    parent <cid> <parent_cid> <count>
    v}
    The [verdict], [distbound], [legality] and [race] lines are the
    static block ({!Profile.static}, each section key-sorted and possibly
    empty). Header 5 says the block is present — every default-mode
    profile — and header 1 that it is absent, as in a [trace_locals]
    profile, whose events the static facts do not model. Distance
    bounds are always [>= 1].

    The reader accepts these two headers only and rejects, with the
    1-based line number of the offending input line:
    - a static line in a header-1 file;
    - a pc outside the program's code, a construct id outside the
      program, a parent id outside [\[-1, constructs)], an edge count
      or instance count below 1, and an internal flag other than 0 or
      1 — fields {!Profile.Key.pack} or the writer could not reproduce;
    - duplicate lines of any kind;
    - a [distbound] or [legality] line naming an edge the [edge] lines
      do not record, and a [race] line naming an unrecorded construct
      (stored [verdict] lines are exempt; the sanitizer diagnoses
      those). *)

val fingerprint : Vm.Program.t -> string
(** A stable hash of the code array (hex). *)

val input_fingerprint : Vm.Program.t -> string
(** A stable hash of the program's input identity: its global-segment
    size and initialized global data ([global_inits]), the only program
    components {!fingerprint} does not cover that the VM reads. The pair
    [(fingerprint, input_fingerprint)] content-addresses a profiling
    run's program+input — the registry service's cache key. *)

val hash_string : string -> string
(** The same stable (FNV-1a) hash over raw bytes, for composing cache
    keys from already-rendered components. *)

val write : Profile.t -> Buffer.t -> unit
val to_string : Profile.t -> string

val read : Vm.Program.t -> string -> (Profile.t, string) result
(** Parses a serialized profile against [prog]; fails on a header other
    than 1 or 5, fingerprint mismatch, and malformed, out-of-range,
    duplicate or truncated input (see above). Every error but
    ["truncated profile"] starts with the 1-based input line number,
    e.g. ["line 7: duplicate construct 3"]; no input raises. *)

val save : Profile.t -> string -> unit
(** Write to a file. *)

val load : Vm.Program.t -> string -> (Profile.t, string) result
(** Read from a file. *)
