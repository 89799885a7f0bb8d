(** Compiled Mini-C program: flat code array plus static metadata tables. *)

type func_info = {
  fid : int;
  name : string;
  entry : int;  (** pc of the first instruction *)
  epilogue : int;  (** pc of the single [Ret]; post-dominates the body *)
  code_end : int;  (** one past the last pc belonging to this function *)
  nparams : int;
  param_is_array : bool array;
  frame_slots : int;  (** addresses a frame occupies (scalars + arrays) *)
  ret : Minic.Ast.ret_ty;
  loc : Minic.Srcloc.t;
}

type construct_kind = CProc | CLoop | CCond

type construct_info = {
  cid : int;
  kind : construct_kind;
  head_pc : int;  (** function entry pc, or the predicate's [Br] pc *)
  fid : int;  (** enclosing function *)
  loc : Minic.Srcloc.t;
  cname : string;  (** display name, e.g. ["Method flush_block"] *)
  body_first : int;
  body_last : int;
      (** the pcs of the construct's repeating region, inclusive: the
          whole function for [CProc], condition+body+update for loops
          (covering do-while bodies that precede their predicate), both
          arms for [CCond]. Used to tell continuation tails from
          intra-region tails. *)
}

type t = {
  code : Instr.t array;
  locs : Minic.Srcloc.t array;  (** source location per pc *)
  funcs : func_info array;
  constructs : construct_info array;
  cid_of_pc : int array;  (** pc -> construct id headed there, or [-1] *)
  globals_size : int;
  global_layout : (string * int * int) list;  (** name, base address, len *)
  global_inits : (int * int) list;  (** address, initial value *)
  main_fid : int;
}

val func_of_pc : t -> int -> func_info
(** The function whose code region contains the pc.
    @raise Invalid_argument if the pc belongs to the entry preamble. *)

val fid_of_pc_table : t -> int array
(** pc -> the fid of the function whose code contains it, or [-1] for
    the entry preamble. *)

val callees_in : t -> int -> int -> int list
(** [callees_in p first last]: the fids called by [Call] instructions
    at pcs [first..last], sorted and deduplicated. *)

val line_of_pc : t -> int -> int
(** Source line of the instruction at [pc] (0 for synthesized code). *)

val construct_at : t -> int -> construct_info option
(** The construct headed at [pc], if any. *)

val find_func : t -> string -> func_info option
val find_global : t -> string -> (int * int) option
(** [find_global p name] is [Some (base_address, length)]; length 1 for
    scalars. *)

val pp_construct : Format.formatter -> construct_info -> unit
