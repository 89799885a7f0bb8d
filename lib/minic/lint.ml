type kind = Global | Local | Param

type info = {
  name : string;
  loc : Srcloc.t;
  kind : kind;
  mutable read : bool;
  mutable written : bool;
}

(* Scoped symbol table: innermost scope first, lexical shadowing as in
   the compiler. Resolution failure is not an error here — the lint may
   run on programs the type checker will reject, and a lint must never
   fail where the compiler would have produced a better message. *)
let resolve scopes name =
  List.find_map (List.find_opt (fun i -> i.name = name)) scopes

let is_global scopes name =
  Option.fold ~none:false ~some:(fun i -> i.kind = Global) (resolve scopes name)

let mark_read scopes name =
  Option.iter (fun i -> i.read <- true) (resolve scopes name)

let mark_written scopes name =
  Option.iter (fun i -> i.written <- true) (resolve scopes name)

(* --- loop-shape lints ------------------------------------------------

   Four "this loop does redundant or unparallelizable work" shapes the
   dependence profiler later pays for event by event:

   - a subscript expression whose variables are all unmodified inside
     the loop computes the same address every iteration — the load (or
     the address computation) is hoistable;
   - a loop condition mentioning no variable, array cell or call at all
     is decided at compile time (an [if] or an infinite loop in
     disguise);
   - a reduction-shaped accumulate whose accumulator the same loop also
     passes to a call: the callee sees partial sums, which blocks the
     per-thread reduction rewrite;
   - a global scalar the loop writes that is neither privatizable
     (written before any read in the iteration) nor a reduction.

   All are proofs, not heuristics: a warning only fires when the shape
   holds on every execution. Calls make globals unprovable — any callee
   may write them — so a loop containing a call disqualifies global
   variables from the invariance argument. *)

let rec expr_mentions x (e : Ast.expr) =
  match e.edesc with
  | Ast.Var y -> y = x
  | Ast.IntLit _ -> false
  | Ast.Index (a, i) -> a = x || expr_mentions x i
  | Ast.Unop (_, a) -> expr_mentions x a
  | Ast.Binop (_, a, b) -> expr_mentions x a || expr_mentions x b
  | Ast.Call (_, args) -> List.exists (expr_mentions x) args

(* [Some (x, op)] for [x op= e] and [x = x op e] / [x = e op x] where
   [op] is associative-commutative and [e] does not mention [x] (a
   second read of the accumulator is not a reduction). *)
let reduction_shape (s : Ast.stmt) =
  match s.sdesc with
  | Ast.OpAssign (op, Ast.LVar (x, _), e)
    when Ast.assoc_commutative op && not (expr_mentions x e) ->
      Some (x, op)
  | Ast.Assign (Ast.LVar (x, _), { edesc = Ast.Binop (op, a, b); _ })
    when Ast.assoc_commutative op -> (
      match (a.Ast.edesc, b.Ast.edesc) with
      | Ast.Var y, _ when y = x && not (expr_mentions x b) -> Some (x, op)
      | _, Ast.Var y when y = x && not (expr_mentions x a) -> Some (x, op)
      | _ -> None)
  | _ -> None

(* No variable, array cell or call: the condition's value is fixed. *)
let rec const_cond (e : Ast.expr) =
  match e.edesc with
  | Ast.IntLit _ -> true
  | Ast.Var _ | Ast.Index _ | Ast.Call _ -> false
  | Ast.Unop (_, a) -> const_cond a
  | Ast.Binop (_, a, b) -> const_cond a && const_cond b

type access = Read | Write

(* What one loop's lints need, collected while the walk is inside the
   loop and decided when it leaves. A loop covers its condition, body
   and [for] update; its {e direct region} is that minus the nested
   loops, which judge their own accumulates and shared writes. *)
type loop = {
  cond : Ast.expr option;
  mutable assigned : string list;
      (** scalar names (re)assigned per iteration: assignment targets
          and declarations (a [DeclScalar] re-initializes every
          iteration); nested loops' included *)
  mutable has_call : bool;  (** any call in the loop, nested loops' too *)
  mutable subscripts : (string * Ast.expr * info list list) list;
      (** subscripts whose innermost loop this is, with the scopes in
          force where each appears (a loop-body local is out of scope by
          the time the loop exits), judged at loop exit *)
  mutable passed : (string * string) list;
      (** (x, f): callee [f] receives [x] as a bare argument (the
          by-reference escape the usage lint also assumes); nested
          loops' included *)
  mutable accums : (string * Ast.binop * Srcloc.t) list;
      (** reduction-shaped accumulates of the direct region *)
  mutable first : (string * access) list;
      (** global scalar -> its first counted access in the direct
          region; a write under an [if] does not count *)
  mutable wrote : (string * Srcloc.t) list;
      (** global scalar -> its first write in the direct region *)
}

type env = {
  scopes : info list list;
  loops : loop list;  (** enclosing loops, innermost first *)
  region : loop option;
      (** the loop whose direct region the walk is in: the innermost
          one, except in a [for] init, which runs once before its loop
          and so belongs to no loop's region *)
  guarded : bool;  (** under an [if] within that region *)
  scalars : string list;  (** the scalar globals *)
  infos : info list ref;  (** every declaration, newest first *)
  warnings : Diag.warning list ref;  (** the loop-shape warnings *)
}

let warn env loc fmt =
  Printf.ksprintf
    (fun m -> env.warnings := Diag.warning loc "%s" m :: !(env.warnings))
    fmt

let in_loop env f = match env.loops with l :: _ -> f l | [] -> ()

let declare env ?(written = false) kind name loc =
  let i = { name; loc; kind; read = false; written } in
  env.infos := i :: !(env.infos);
  i

let bind scopes i =
  match scopes with top :: rest -> (i :: top) :: rest | [] -> [ [ i ] ]

(* Accesses to global scalars in the direct region, for the shared-write
   lint. A local or parameter that shadows a global is not the global. *)
let shared_scalar env x = List.mem x env.scalars && is_global env.scopes x

let see_read env x =
  match env.region with
  | Some l when shared_scalar env x && not (List.mem_assoc x l.first) ->
      l.first <- (x, Read) :: l.first
  | _ -> ()

let see_write env x loc =
  match env.region with
  | Some l when shared_scalar env x ->
      if not (List.mem_assoc x l.wrote) then l.wrote <- (x, loc) :: l.wrote;
      if not (env.guarded || List.mem_assoc x l.first) then
        l.first <- (x, Write) :: l.first
  | _ -> ()

let rec expr env (e : Ast.expr) =
  match e.edesc with
  | IntLit _ -> ()
  | Var x ->
      mark_read env.scopes x;
      see_read env x
  | Index (a, i) ->
      mark_read env.scopes a;
      in_loop env (fun l -> l.subscripts <- (a, i, env.scopes) :: l.subscripts);
      expr env i
  | Unop (_, e) -> expr env e
  | Binop (_, a, b) ->
      expr env a;
      expr env b
  | Call (f, args) ->
      in_loop env (fun l -> l.has_call <- true);
      (* An array argument is passed by reference: the callee may read
         or write through it, so a bare [Var] in an argument list counts
         as both. The lint has no type information to tell arrays from
         scalars here; the conservative reading avoids false "dead
         store" reports (at the cost of missing some on scalars passed
         to calls). *)
      List.iter
        (fun (a : Ast.expr) ->
          (match a.Ast.edesc with
          | Var x ->
              mark_written env.scopes x;
              in_loop env (fun l -> l.passed <- (x, f) :: l.passed)
          | _ -> ());
          expr env a)
        args

(* [lv = e], or [lv op= e] when [update] (which reads the old value). *)
let assign env (s : Ast.stmt) ~update lv e =
  expr env e;
  (match lv with
  | Ast.LVar (x, _) ->
      if update then begin
        mark_read env.scopes x;
        see_read env x
      end;
      mark_written env.scopes x;
      in_loop env (fun l -> l.assigned <- x :: l.assigned);
      see_write env x s.sloc
  | Ast.LIndex (a, i, _) ->
      (* An indexed write through a parameter lands in the caller's
         array (arrays are passed by reference), so it is a real use —
         unlike reassigning a scalar parameter, which stays invisible. *)
      Option.iter
        (fun info ->
          info.written <- true;
          if update || info.kind = Param then info.read <- true)
        (resolve env.scopes a);
      in_loop env (fun l -> l.subscripts <- (a, i, env.scopes) :: l.subscripts);
      expr env i);
  match (reduction_shape s, env.region) with
  | Some (x, op), Some l -> l.accums <- (x, op, s.sloc) :: l.accums
  | _ -> ()

let leave env l =
  (* [Some vars] when every variable the subscript reads is provably
     unchanged across iterations; [None] when anything blocks the proof
     (a call with a global in [scopes], an array cell, or an
     assigned/unprovable variable). *)
  let rec invariant_vars scopes (e : Ast.expr) =
    match e.edesc with
    | Ast.IntLit _ -> Some []
    | Ast.Var x ->
        if List.mem x l.assigned then None
        else if l.has_call && is_global scopes x then None
        else Some [ x ]
    | Ast.Index _ | Ast.Call _ -> None
    | Ast.Unop (_, a) -> invariant_vars scopes a
    | Ast.Binop (_, a, b) -> (
        match (invariant_vars scopes a, invariant_vars scopes b) with
        | Some va, Some vb -> Some (va @ vb)
        | _ -> None)
  in
  List.iter
    (fun (name, (i : Ast.expr), scopes) ->
      match invariant_vars scopes i with
      | Some (_ :: _ as vars) ->
          let vars = List.sort_uniq compare vars in
          warn env i.eloc
            "loop-invariant subscript of '%s' (%s never change%s in the loop)"
            name (String.concat ", " vars)
            (if List.length vars = 1 then "s" else "")
      | _ -> ())
    l.subscripts;
  List.iter
    (fun (x, op, loc) ->
      (* a variable the loop condition reads drives the trip count — an
         induction/control variable ([i++] under [i < n]), never a
         reduction accumulator *)
      if not (Option.fold ~none:false ~some:(expr_mentions x) l.cond) then
        match
          List.sort_uniq compare
            (List.filter_map
               (fun (y, f) -> if y = x then Some f else None)
               l.passed)
        with
        | [] -> ()
        | f :: _ ->
            warn env loc
              "reduction-shaped accumulator '%s' ('%s' shape) escapes via \
               call to '%s' (blocks the per-thread reduction rewrite)"
              x (Ast.binop_to_string op) f)
    l.accums;
  (* A write-first global is the privatizable shape, a reduction-shaped
     accumulate the rewritable one; anything else races once the
     iterations are spawned. *)
  List.iter
    (fun (x, loc) ->
      if not (List.exists (fun (y, _, _) -> y = x) l.accums) then
        Option.iter
          (warn env loc
             "shared global '%s' written in a loop is neither privatizable \
              nor a reduction (%s) — spawned iterations would race on it"
             x)
          (match List.assoc_opt x l.first with
          | Some Write -> None
          | Some Read -> Some "an iteration reads it before writing"
          | None -> Some "only some iterations write it"))
    l.wrote;
  in_loop env (fun p ->
      p.assigned <- l.assigned @ p.assigned;
      p.has_call <- p.has_call || l.has_call;
      p.passed <- l.passed @ p.passed)

let rec stmt env (s : Ast.stmt) =
  match s.sdesc with
  | DeclScalar (x, init) ->
      Option.iter (expr env) init;
      in_loop env (fun l -> l.assigned <- x :: l.assigned);
      bind env.scopes (declare env ~written:(init <> None) Local x s.sloc)
  | DeclArray (x, _) -> bind env.scopes (declare env Local x s.sloc)
  | Assign (lv, e) ->
      assign env s ~update:false lv e;
      env.scopes
  | OpAssign (_, lv, e) ->
      assign env s ~update:true lv e;
      env.scopes
  | If (c, t, f) ->
      expr env c;
      let branch = { env with scopes = [] :: env.scopes; guarded = true } in
      ignore (stmt branch t);
      Option.iter (fun f -> ignore (stmt branch f)) f;
      env.scopes
  | While (c, b) | DoWhile (b, c) ->
      loop env (Some c) None b;
      env.scopes
  | For (init, cond, update, body) ->
      (* The induction variable declared in [init] scopes over the whole
         statement. [init] runs once, before the loop: it is judged in
         the enclosing loop's context, and its assignments do not make a
         variable loop-variant. *)
      let scopes = [] :: env.scopes in
      let scopes =
        match init with
        | Some s -> stmt { env with scopes; region = None } s
        | None -> scopes
      in
      loop { env with scopes } cond update body;
      env.scopes
  | Break | Continue -> env.scopes
  | Return e ->
      Option.iter (expr env) e;
      env.scopes
  | ExprStmt e | Print e ->
      expr env e;
      env.scopes
  | Block body ->
      ignore
        (List.fold_left
           (fun scopes s -> stmt { env with scopes } s)
           ([] :: env.scopes) body);
      env.scopes

and loop env cond update body =
  (* A [for] with no condition never warns: there is nothing to be
     constant. *)
  Option.iter
    (fun (c : Ast.expr) ->
      if const_cond c then
        warn env c.eloc "loop condition is provably constant")
    cond;
  let l =
    {
      cond;
      assigned = [];
      has_call = false;
      subscripts = [];
      passed = [];
      accums = [];
      first = [];
      wrote = [];
    }
  in
  let inner =
    { env with loops = l :: env.loops; region = Some l; guarded = false }
  in
  (* The condition's reads precede (the next) iteration's body, so they
     count as reads of another iteration's value — for a do-while too. *)
  Option.iter (expr inner) cond;
  ignore (stmt { inner with scopes = [] :: env.scopes } body);
  Option.iter (fun u -> ignore (stmt inner u)) update;
  leave env l

let program (p : Ast.program) =
  let env =
    {
      scopes = [];
      loops = [];
      region = None;
      guarded = false;
      scalars =
        List.filter_map
          (function Ast.GScalar (n, _, _) -> Some n | Ast.GArray _ -> None)
          p.globals;
      infos = ref [];
      warnings = ref [];
    }
  in
  let globals =
    List.map
      (function
        | Ast.GScalar (n, _, loc) | Ast.GArray (n, _, loc) ->
            declare env Global n loc)
      p.globals
  in
  List.iter
    (fun (f : Ast.func) ->
      let params =
        List.map
          (fun prm -> declare env Param (Ast.param_name prm) f.floc)
          f.fparams
      in
      ignore
        (List.fold_left
           (fun scopes s -> stmt { env with scopes } s)
           [ []; params; globals ] f.fbody))
    p.funcs;
  let usage =
    List.rev !(env.infos)
    |> List.filter_map (fun i ->
         match i.kind with
         | Param ->
             (* A parameter is initialized by every call, so the only
                interesting fact is that the callee ignores it. *)
             if not i.read then
               Some (Diag.warning i.loc "unused parameter '%s'" i.name)
             else None
         | Local | Global ->
             let what =
               match i.kind with Local -> "variable" | _ -> "global"
             in
             if (not i.read) && not i.written then
               Some (Diag.warning i.loc "unused %s '%s'" what i.name)
             else if not i.read then
               Some
                 (Diag.warning i.loc
                    "%s '%s' is assigned but never read (dead stores)" what
                    i.name)
             else None)
  in
  usage @ !(env.warnings)
  |> List.sort (fun (a : Diag.warning) b ->
         match compare a.wloc b.wloc with 0 -> compare a.wmsg b.wmsg | c -> c)
