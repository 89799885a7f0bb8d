(** The benchmark registry: the eight Table III rows. *)

val all : Workload.t list
(** In Table III order: 197.parser, bzip2, gzip-1.3.5, 130.li, ogg, aes,
    par2, delaunay. *)

val find : string -> Workload.t
(** Look up by Table III name. @raise Not_found for unknown names. *)

val names : string list

val of_spec : string -> (Workload.t * int) option
(** Parses a source spec as the CLI and [alchemist serve] take it:
    [workload:NAME] names a workload at its default scale and
    [workload:NAME:SCALE] at [SCALE]; anything else is a Mini-C file
    path ([None]).
    @raise Not_found for an unknown [NAME].
    @raise Invalid_argument when [SCALE] is not a positive integer. *)
