(** Bytecode instruction set.

    Mini-C compiles to a stack machine over a single flat code array, so a
    program counter (pc) uniquely identifies a static instruction — pcs are
    the "program points" that dependence edges connect, and instruction
    retirement count is the paper's timestamp.

    Memory model: one flat integer address space. Globals live at the
    bottom; every function activation bump-allocates a fresh block for its
    locals (paper's stack, but with per-activation shadow invalidation so
    address reuse cannot manufacture false dependences). Operand-stack
    slots are registers: they never generate memory events. *)

type branch_kind =
  | BrIf  (** [if]/[else] predicate — starts a conditional construct *)
  | BrLoop  (** loop predicate — each evaluation starts a new iteration *)
  | BrSc  (** short-circuit [&&]/[||] — not a profiled construct *)

type t =
  | Const of int  (** push literal *)
  | LoadLocal of int  (** push frame slot; memory read *)
  | StoreLocal of int  (** pop into frame slot; memory write *)
  | LoadGlobal of int  (** push global at address; memory read *)
  | StoreGlobal of int  (** pop into global address; memory write *)
  | MakeRefGlobal of int * int  (** [base, len]: push reference *)
  | MakeRefLocal of int * int  (** [offset, len]: push frame-based ref *)
  | LoadIndex  (** pop index, pop ref; push element; memory read *)
  | StoreIndex  (** pop value, pop index, pop ref; memory write *)
  | Binop of Minic.Ast.binop  (** arithmetic only, never [LogAnd]/[LogOr] *)
  | Unop of Minic.Ast.unop
  | Jmp of int
  | Br of { target : int; kind : branch_kind; cid : int }
      (** pop; jump to [target] if zero. [cid] is the static construct id
          for [BrIf]/[BrLoop] predicates, [-1] for [BrSc]. *)
  | Call of int  (** function id; pops the arguments *)
  | Ret  (** pop return value, release frame, push value at caller *)
  | Pop  (** discard top of operand stack *)
  | Dup2  (** duplicate the top two stack slots (for [a[i] op= e]) *)
  | Print  (** pop and record on the output channel *)
  | Halt

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val is_predicate : t -> bool
(** [true] for [Br] with kind [BrIf] or [BrLoop]. *)

val is_control : t -> bool
(** [true] for instructions that transfer control ([Jmp], [Br], [Call],
    [Ret], [Halt]): the points where straight-line execution ends. *)
