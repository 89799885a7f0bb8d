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
  | LogAnd
  | LogOr

type expr = { edesc : edesc; eloc : Srcloc.t }

and edesc =
  | IntLit of int
  | Var of string
  | Index of string * expr
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list

type lvalue = LVar of string * Srcloc.t | LIndex of string * expr * Srcloc.t
type stmt = { sdesc : sdesc; sloc : Srcloc.t }

and sdesc =
  | DeclScalar of string * expr option
  | DeclArray of string * int
  | Assign of lvalue * expr
  | OpAssign of binop * lvalue * expr
  | If of expr * stmt * stmt option
  | While of expr * stmt
  | DoWhile of stmt * expr
  | For of stmt option * expr option * stmt option * stmt
  | Break
  | Continue
  | Return of expr option
  | ExprStmt of expr
  | Print of expr
  | Block of stmt list

type ret_ty = RetInt | RetVoid
type param = PScalar of string | PArray of string

type func = {
  fname : string;
  fret : ret_ty;
  fparams : param list;
  fbody : stmt list;
  floc : Srcloc.t;
}

type global =
  | GScalar of string * int * Srcloc.t
  | GArray of string * int * Srcloc.t

type program = { globals : global list; funcs : func list }

let global_name = function GScalar (n, _, _) | GArray (n, _, _) -> n
let param_name = function PScalar n | PArray n -> n

let assoc_commutative = function
  | Add | Mul | BitAnd | BitOr | BitXor -> true
  | _ -> false

let unop_to_string = function Neg -> "-" | LogNot -> "!" | BitNot -> "~"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | BitAnd -> "&"
  | BitOr -> "|"
  | BitXor -> "^"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | LogAnd -> "&&"
  | LogOr -> "||"

let pp_unop ppf u = Format.pp_print_string ppf (unop_to_string u)
let pp_binop ppf b = Format.pp_print_string ppf (binop_to_string b)
