type func_info = {
  fid : int;
  name : string;
  entry : int;
  epilogue : int;
  code_end : int;
  nparams : int;
  param_is_array : bool array;
  frame_slots : int;
  ret : Minic.Ast.ret_ty;
  loc : Minic.Srcloc.t;
}

type construct_kind = CProc | CLoop | CCond

type construct_info = {
  cid : int;
  kind : construct_kind;
  head_pc : int;
  fid : int;
  loc : Minic.Srcloc.t;
  cname : string;
  body_first : int;
  body_last : int;
}

type t = {
  code : Instr.t array;
  locs : Minic.Srcloc.t array;
  funcs : func_info array;
  constructs : construct_info array;
  cid_of_pc : int array;
  globals_size : int;
  global_layout : (string * int * int) list;
  global_inits : (int * int) list;
  main_fid : int;
}

let func_of_pc t pc =
  let found = ref None in
  Array.iter
    (fun f -> if pc >= f.entry && pc < f.code_end then found := Some f)
    t.funcs;
  match !found with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Program.func_of_pc: pc %d" pc)

let fid_of_pc_table t =
  let a = Array.make (Array.length t.code) (-1) in
  Array.iter
    (fun f ->
      for pc = f.entry to f.code_end - 1 do
        a.(pc) <- f.fid
      done)
    t.funcs;
  a

let callees_in t first last =
  let acc = ref [] in
  for pc = first to last do
    match t.code.(pc) with Instr.Call g -> acc := g :: !acc | _ -> ()
  done;
  List.sort_uniq compare !acc

let line_of_pc t pc =
  if pc >= 0 && pc < Array.length t.locs then t.locs.(pc).Minic.Srcloc.line
  else 0

let construct_at t pc =
  if pc < 0 || pc >= Array.length t.cid_of_pc then None
  else
    let cid = t.cid_of_pc.(pc) in
    if cid < 0 then None else Some t.constructs.(cid)

let find_func t name = Array.find_opt (fun f -> f.name = name) t.funcs

let find_global t name =
  List.find_map
    (fun (n, base, len) -> if n = name then Some (base, len) else None)
    t.global_layout

let pp_construct ppf c =
  let kind =
    match c.kind with CProc -> "Method" | CLoop -> "Loop" | CCond -> "Cond"
  in
  Format.fprintf ppf "%s %s" kind c.cname
