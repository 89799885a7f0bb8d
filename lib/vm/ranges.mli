(** Sets of integers given as unions of [[base, base+len)] ranges: the
    extents of [MakeRefGlobal]/[MakeRefLocal] operands, which an indexed
    access may reach.

    The ranges are kept, sorted and merged, never their cells: building
    a set costs [O(r log r)] for [r] ranges and a membership test a
    binary search, whatever the arrays span. Passes over a program's
    code that ask "could an array reference write this cell?" therefore
    cost what the code does, not what its arrays hold. *)

type t

val of_list : (int * int) list -> t
(** [(base, len)] pairs, in any order, possibly overlapping; a range
    with [len <= 0] covers nothing. *)

val mem : t -> int -> bool

val global_refs : Program.t -> t
(** The extents of every [MakeRefGlobal] in the program: the global
    cells an indexed access may reach. *)

val local_refs : Program.t -> Program.func_info -> t
(** The extents of the [MakeRefLocal]s in one function's code: the
    frame slots an indexed access of that function may reach. *)
