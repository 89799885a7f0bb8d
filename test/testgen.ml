(* A QCheck generator of random, well-typed, terminating Mini-C programs.

   Termination by construction: all loops are [for] loops with constant
   trip counts over fresh counters (optionally exited early by break /
   skipped by continue), and the call graph is a DAG (main -> f0 -> f1 ->
   f2). Runtime traps are avoided by construction too: divisions and
   modulos use non-zero constants, shifts use small constants, and array
   indices are masked.

   Arrays cross calls by reference: every function takes an [int q[]]
   parameter and declares a local array [la], and each call passes one
   in-scope array (a global, the caller's local, or its own [q]). Every
   array has 16 cells, so the masked indices fit all of them. *)

open Minic.Ast
module Gen = QCheck.Gen

let loc = Minic.Srcloc.dummy
let e d = { edesc = d; eloc = loc }
let s d = { sdesc = d; sloc = loc }

type genv = {
  scalars : string list;  (** in-scope scalar names (locals + globals) *)
  arrays : string list;  (** in-scope array names *)
  callees : string list;  (** int functions this function may call *)
  mutable fresh : int;
}

let fresh env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

let safe_binops = [ Add; Sub; Mul; BitAnd; BitOr; BitXor; Lt; Le; Gt; Ge; Eq; Ne ]

let rec gen_expr env depth : expr Gen.t =
  let open Gen in
  let leaf =
    frequency
      [
        (3, map (fun n -> e (IntLit n)) (int_range (-20) 40));
        ( (if env.scalars = [] then 0 else 4),
          map (fun v -> e (Var v)) (oneofl env.scalars) );
        ( (if env.arrays = [] then 0 else 2),
          oneofl env.arrays >>= fun a ->
          map
            (fun ix ->
              e (Index (a, e (Binop (BitAnd, ix, e (IntLit 15))))))
            (if depth > 0 then gen_expr env (depth - 1)
             else map (fun n -> e (IntLit n)) (int_range 0 15)) );
      ]
  in
  if depth = 0 then leaf
  else
    frequency
      [
        (2, leaf);
        ( 4,
          oneofl safe_binops >>= fun op ->
          gen_expr env (depth - 1) >>= fun a ->
          map (fun b -> e (Binop (op, a, b))) (gen_expr env (depth - 1)) );
        ( 1,
          (* safe division / modulo / shift by constants *)
          oneofl [ `Div; `Mod; `Shl; `Shr ] >>= fun which ->
          gen_expr env (depth - 1) >>= fun a ->
          map
            (fun k ->
              match which with
              | `Div -> e (Binop (Div, a, e (IntLit (k + 1))))
              | `Mod -> e (Binop (Mod, a, e (IntLit (k + 2))))
              | `Shl -> e (Binop (Shl, e (Binop (BitAnd, a, e (IntLit 1023))), e (IntLit (k mod 5))))
              | `Shr -> e (Binop (Shr, a, e (IntLit (k mod 5)))))
            (int_range 0 6) );
        ( 1,
          oneofl [ Neg; LogNot; BitNot ] >>= fun op ->
          map (fun a -> e (Unop (op, a))) (gen_expr env (depth - 1)) );
        ( 1,
          oneofl [ LogAnd; LogOr ] >>= fun op ->
          gen_expr env (depth - 1) >>= fun a ->
          map (fun b -> e (Binop (op, a, b))) (gen_expr env (depth - 1)) );
        ( (if env.callees = [] then 0 else 1),
          gen_call env (e (IntLit 1)) );
      ]

(* A call passes a scalar and one in-scope array, by reference. *)
and gen_call env arg : expr Gen.t =
  let open Gen in
  oneofl env.callees >>= fun f ->
  map (fun a -> e (Call (f, [ arg; e (Var a) ]))) (oneofl env.arrays)

let gen_lvalue env : (lvalue * bool) Gen.t =
  (* bool: lvalue is an array slot (needs masked index) *)
  let open Gen in
  frequency
    [
      ( (if env.scalars = [] then 0 else 3),
        map (fun v -> (LVar (v, loc), false)) (oneofl env.scalars) );
      ( (if env.arrays = [] then 0 else 2),
        oneofl env.arrays >>= fun a ->
        map
          (fun ix ->
            (LIndex (a, e (Binop (BitAnd, ix, e (IntLit 15))), loc), true))
          (gen_expr env 1) );
    ]

let rec gen_stmt env ~in_loop ~depth : stmt Gen.t =
  let open Gen in
  let simple =
    frequency
      [
        ( 4,
          gen_lvalue env >>= fun (lv, _) ->
          map (fun ex -> s (Assign (lv, ex))) (gen_expr env 2) );
        ( 2,
          gen_lvalue env >>= fun (lv, _) ->
          oneofl [ Add; Sub; BitXor; BitOr ] >>= fun op ->
          map (fun ex -> s (OpAssign (op, lv, ex))) (gen_expr env 1) );
        (1, map (fun ex -> s (Print ex)) (gen_expr env 1));
        ( (if env.callees = [] then 0 else 1),
          map (fun c -> s (ExprStmt c)) (gen_call env (e (IntLit 2))) );
      ]
  in
  if depth = 0 then simple
  else
    frequency
      [
        (4, simple);
        ( 2,
          (* if / if-else *)
          gen_expr env 2 >>= fun cond ->
          gen_block env ~in_loop ~depth:(depth - 1) ~len:2 >>= fun then_ ->
          frequency
            [
              (1, return (s (If (cond, s (Block then_), None))));
              ( 1,
                map
                  (fun else_ -> s (If (cond, s (Block then_), Some (s (Block else_)))))
                  (gen_block env ~in_loop ~depth:(depth - 1) ~len:2) );
            ] );
        ( 2,
          (* bounded for loop with a fresh counter *)
          int_range 0 6 >>= fun trips ->
          let i = fresh env "i" in
          let env' = { env with scalars = i :: env.scalars } in
          gen_block env' ~in_loop:true ~depth:(depth - 1) ~len:3 >>= fun body ->
          (* occasionally add break/continue guards *)
          frequency
            [
              (3, return body);
              ( 1,
                return
                  (s (If (e (Binop (Eq, e (Var i), e (IntLit 3))), s Break, None))
                  :: body) );
              ( 1,
                return
                  (s
                     (If
                        ( e (Binop (Eq, e (Var i), e (IntLit 2))),
                          s Continue,
                          None ))
                  :: body) );
            ]
          >>= fun body ->
          return
            (s
               (For
                  ( Some (s (DeclScalar (i, Some (e (IntLit 0))))),
                    Some (e (Binop (Lt, e (Var i), e (IntLit trips)))),
                    Some (s (OpAssign (Add, LVar (i, loc), e (IntLit 1)))),
                    s (Block body) ))) );
        ( 1,
          (* local declaration + use *)
          let x = fresh env "x" in
          gen_expr env 2 >>= fun init ->
          let env' = { env with scalars = x :: env.scalars } in
          map
            (fun rest -> s (Block (s (DeclScalar (x, Some init)) :: rest)))
            (gen_block env' ~in_loop ~depth:(depth - 1) ~len:2) );
      ]
  |> fun g ->
  ignore in_loop;
  g

and gen_block env ~in_loop ~depth ~len : stmt list Gen.t =
  let open Gen in
  int_range 1 len >>= fun n ->
  let rec go k acc =
    if k = 0 then return (List.rev acc)
    else gen_stmt env ~in_loop ~depth >>= fun st -> go (k - 1) (st :: acc)
  in
  go n []

let local_array = s (DeclArray ("la", 16))

let gen_func ~name ~callees ~globals ~garrays : func Gen.t =
  let open Gen in
  let params = [ PScalar "p"; PArray "q" ] in
  let env =
    {
      scalars = "p" :: globals;
      arrays = "q" :: "la" :: garrays;
      callees;
      fresh = 0;
    }
  in
  gen_block env ~in_loop:false ~depth:3 ~len:4 >>= fun body ->
  gen_expr env 2 >>= fun ret ->
  return
    {
      fname = name;
      fret = RetInt;
      fparams = params;
      fbody = (local_array :: body) @ [ s (Return (Some ret)) ];
      floc = loc;
    }

let gen_program : program Gen.t =
  let open Gen in
  let globals = [ "g0"; "g1"; "g2" ] in
  let garrays = [ "arr0"; "arr1" ] in
  gen_func ~name:"f2" ~callees:[] ~globals ~garrays >>= fun f2 ->
  gen_func ~name:"f1" ~callees:[ "f2" ] ~globals ~garrays >>= fun f1 ->
  gen_func ~name:"f0" ~callees:[ "f1"; "f2" ] ~globals ~garrays >>= fun f0 ->
  let env =
    {
      scalars = globals;
      arrays = "la" :: garrays;
      callees = [ "f0"; "f1"; "f2" ];
      fresh = 100;
    }
  in
  gen_block env ~in_loop:false ~depth:3 ~len:5 >>= fun body ->
  gen_expr env 1 >>= fun ret ->
  let main =
    {
      fname = "main";
      fret = RetInt;
      fparams = [];
      fbody =
        (local_array :: body)
        @ [ s (Return (Some (e (Binop (BitAnd, ret, e (IntLit 255)))))) ];
      floc = loc;
    }
  in
  return
    {
      globals =
        List.map (fun g -> GScalar (g, 1, loc)) globals
        @ List.map (fun a -> GArray (a, 16, loc)) garrays;
      funcs = [ f2; f1; f0; main ];
    }

let arbitrary_program =
  QCheck.make ~print:(fun p -> Minic.Pretty.program_to_string p) gen_program
