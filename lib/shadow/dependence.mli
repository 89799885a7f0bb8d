(** Dynamic dependence edges. *)

type kind = Raw | War | Waw

type access = {
  pc : int;  (** static program point *)
  time : int;  (** instruction timestamp *)
  node : Indexing.Node.t;
      (** handle of the enclosing construct instance at the event; the
          pool may have recycled it since (see {!Indexing.Node.covers}) *)
}

type t = { kind : kind; head : access; tail : access; addr : int }
(** [head] happened before [tail] at memory address [addr]; [distance] is
    the paper's [Tdep]. *)

val distance : t -> int
val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit
