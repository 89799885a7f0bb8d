type verdict = Privatizable | Reduction | Serializing

let verdict_to_string = function
  | Privatizable -> "priv"
  | Reduction -> "red"
  | Serializing -> "serial"

let verdict_of_string = function
  | "priv" -> Some Privatizable
  | "red" -> Some Reduction
  | "serial" -> Some Serializing
  | _ -> None

let verdict_rank = function Privatizable -> 0 | Reduction -> 1 | Serializing -> 2

type proof = {
  verdict : verdict;
  reason : string;
  cell : int option;
  span : (int * int) option;
  op : Minic.Ast.binop option;
  copy_out : bool;
}

type t = {
  prog : Vm.Program.t;
  pts : Points_to.t;
  priv : Privatize.t;
  memo : (int * int * int, proof option) Hashtbl.t;
      (* (kind tag, head_pc, tail_pc) *)
}

let analyze (prog : Vm.Program.t) (pts : Points_to.t) (modref : Modref.t) =
  { prog; pts; priv = Privatize.analyze prog pts modref; memo = Hashtbl.create 64 }

let privatize t = t.priv

let kind_tag = function
  | Shadow.Dependence.Raw -> 0
  | Shadow.Dependence.War -> 1
  | Shadow.Dependence.Waw -> 2

let serial reason =
  { verdict = Serializing; reason; cell = None; span = None; op = None;
    copy_out = false }

(* One classification for both RAW and WAR/WAW edges. The shared
   skeleton: resolve both endpoints to one exact global cell, find the
   innermost natural loop containing both pcs, then run the transform
   proofs against that (loop, cell). WAR/WAW edges bottom out at
   [Serializing]; a RAW edge is only meaningful here as a reduction, so
   anything short of that proof yields [None]. *)
let classify_uncached t ~kind ~head_pc ~tail_pc =
  let n = Array.length t.prog.Vm.Program.code in
  let acc pc = if pc < 0 || pc >= n then None else Points_to.access t.pts pc in
  let raw = kind = Shadow.Dependence.Raw in
  let bottom reason = if raw then None else Some (serial reason) in
  if t.pts.Points_to.degraded then bottom "points-to analysis degraded"
  else
    match (acc head_pc, acc tail_pc) with
    | Some h, Some tl -> (
        match (Points_to.exact_global h, Points_to.exact_global tl) with
        | Some a, Some b when a = b -> (
            match Privatize.innermost_common_loop t.priv ~pc1:head_pc ~pc2:tail_pc with
            | None -> bottom "endpoints share no natural loop"
            | Some loop -> (
                let span = Some (Privatize.loop_span loop) in
                match Privatize.prove_reduction t.priv loop ~cell:a with
                | Ok op ->
                    Some
                      {
                        verdict = Reduction;
                        reason =
                          Printf.sprintf
                            "single %s-fold accumulator: per-thread partials \
                             commute"
                            (Minic.Ast.binop_to_string op);
                        cell = Some a;
                        span;
                        op = Some op;
                        copy_out = false;
                      }
                | Error red_reason ->
                    if raw then None
                    else (
                      match Privatize.prove_privatizable t.priv loop ~cell:a with
                      | Ok () ->
                          Some
                            {
                              verdict = Privatizable;
                              reason =
                                "cell is definitely written before any read \
                                 on every iteration path";
                              cell = Some a;
                              span;
                              op = None;
                              copy_out =
                                Privatize.cell_live_out t.priv loop ~cell:a;
                            }
                      | Error priv_reason ->
                          Some
                            {
                              verdict = Serializing;
                              reason =
                                Printf.sprintf "not privatizable (%s); not a \
                                                reduction (%s)"
                                  priv_reason red_reason;
                              cell = Some a;
                              span;
                              op = None;
                              copy_out = false;
                            })))
        | Some _, Some _ -> bottom "endpoints address different global cells"
        | _ -> bottom "an endpoint is not an exact single global cell")
    | _ -> bottom "an endpoint is unreachable or not a memory event"

let proof t ~kind ~head_pc ~tail_pc =
  let key = (kind_tag kind, head_pc, tail_pc) in
  match Hashtbl.find_opt t.memo key with
  | Some p -> p
  | None ->
      let p = classify_uncached t ~kind ~head_pc ~tail_pc in
      Hashtbl.add t.memo key p;
      p

let classify t ~kind ~head_pc ~tail_pc =
  Option.map (fun p -> p.verdict) (proof t ~kind ~head_pc ~tail_pc)

let explain t ~kind ~head_pc ~tail_pc =
  match proof t ~kind ~head_pc ~tail_pc with
  | Some p -> p.reason
  | None -> "RAW edge with no reduction proof: a plain dataflow fact"

let loop_transforms t ~br_pc =
  match Privatize.loop_at_header t.priv ~br_pc with
  | None -> ([], [])
  | Some loop ->
      List.fold_left
        (fun (privs, reds) cell ->
          match Privatize.prove_reduction t.priv loop ~cell with
          | Ok _ -> (privs, (cell, 1) :: reds)
          | Error _ -> (
              match Privatize.prove_privatizable t.priv loop ~cell with
              | Ok () -> ((cell, 1) :: privs, reds)
              | Error _ -> (privs, reds)))
        ([], [])
        (List.rev (Privatize.direct_cells t.priv loop))
