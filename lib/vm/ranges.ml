(* Disjoint half-open intervals, sorted: [lo.(i) < hi.(i) < lo.(i+1)]. *)
type t = { lo : int array; hi : int array }

let of_list ranges =
  let sorted =
    List.sort compare
      (List.filter_map
         (fun (base, len) -> if len > 0 then Some (base, base + len) else None)
         ranges)
  in
  (* merge overlapping and touching neighbours *)
  let merged =
    List.fold_left
      (fun acc (l, h) ->
        match acc with
        | (pl, ph) :: rest when l <= ph -> (pl, max ph h) :: rest
        | _ -> (l, h) :: acc)
      [] sorted
    |> List.rev
  in
  {
    lo = Array.of_list (List.map fst merged);
    hi = Array.of_list (List.map snd merged);
  }

let mem t x =
  (* the last interval starting at or before [x], if any, decides *)
  let rec go a b =
    (* invariant: lo.(a) <= x, and every interval past [b] starts after x *)
    if a >= b then x < t.hi.(a)
    else
      let m = (a + b + 1) / 2 in
      if t.lo.(m) <= x then go m b else go a (m - 1)
  in
  Array.length t.lo > 0 && t.lo.(0) <= x && go 0 (Array.length t.lo - 1)

let refs (code : Instr.t array) first last extent =
  let acc = ref [] in
  for pc = first to last do
    Option.iter (fun r -> acc := r :: !acc) (extent code.(pc))
  done;
  of_list !acc

let global_refs (p : Program.t) =
  refs p.code 0 (Array.length p.code - 1) (function
    | Instr.MakeRefGlobal (base, len) -> Some (base, len)
    | _ -> None)

let local_refs (p : Program.t) (f : Program.func_info) =
  refs p.code f.entry (f.code_end - 1) (function
    | Instr.MakeRefLocal (off, len) -> Some (off, len)
    | _ -> None)
