(** Abstract syntax of Mini-C.

    Mini-C is the C subset Alchemist's workloads are written in: integer
    scalars, fixed-size integer arrays (globals, locals, and by-reference
    array parameters), functions, and the full structured control-flow zoo
    ([if]/[else], [while], [do]/[while], [for], [break], [continue],
    [return]). Every node carries its source location. *)

type unop = Neg | LogNot | BitNot

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | BitAnd
  | BitOr
  | BitXor
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | LogAnd  (** short-circuit && *)
  | LogOr  (** short-circuit || *)

type expr = { edesc : edesc; eloc : Srcloc.t }

and edesc =
  | IntLit of int
  | Var of string
  | Index of string * expr  (** [a[i]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list

type lvalue =
  | LVar of string * Srcloc.t
  | LIndex of string * expr * Srcloc.t  (** [a[i] = ...] *)

type stmt = { sdesc : sdesc; sloc : Srcloc.t }

and sdesc =
  | DeclScalar of string * expr option  (** [int x;] / [int x = e;] *)
  | DeclArray of string * int  (** [int a[N];] *)
  | Assign of lvalue * expr
  | OpAssign of binop * lvalue * expr  (** [x += e] etc.; [x++] is [x += 1] *)
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | DoWhile of stmt * expr
  | For of stmt option * expr option * stmt option * stmt
      (** [for (init; cond; update) body]; missing cond means [1]. *)
  | Break
  | Continue
  | Return of expr option
  | ExprStmt of expr  (** expression evaluated for effect, e.g. a call *)
  | Print of expr
  | Block of stmt list

type ret_ty = RetInt | RetVoid

type param = PScalar of string | PArray of string
(** [PArray] parameters are passed by reference, like C array parameters. *)

type func = {
  fname : string;
  fret : ret_ty;
  fparams : param list;
  fbody : stmt list;
  floc : Srcloc.t;
}

type global =
  | GScalar of string * int * Srcloc.t  (** name, initial value *)
  | GArray of string * int * Srcloc.t  (** name, length (zero-initialized) *)

type program = { globals : global list; funcs : func list }

val global_name : global -> string
val param_name : param -> string

val assoc_commutative : binop -> bool
(** [+], [*], [&], [|], [^]: the operators a reduction may fold with. *)

val pp_unop : Format.formatter -> unop -> unit
val pp_binop : Format.formatter -> binop -> unit

val binop_to_string : binop -> string
(** Source spelling, e.g. ["+"], ["^"]. *)
