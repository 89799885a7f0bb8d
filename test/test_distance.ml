(* The static dependence-distance engine (Static.Distance) against a
   brute-force oracle.

   The random property compiles single-loop programs of the shape

     for (i = i0; i < B; i = i + s) { A[m1*i + c1] = A[m2*i + c2] + 1; }

   and simulates the loop's subscript values directly: every pair of
   iterations whose write and read addresses collide yields an observed
   iteration distance. A static verdict is consistent iff

     No_dep            -> no pair collides
     Exact_distance d  -> every colliding pair is exactly d apart
     Min_distance d    -> every colliding pair is at least d apart
     Unknown           -> (always consistent)

   checked for all three edge directions (write->read, read->write,
   write->write). The handcrafted table pins each test in the engine —
   strong SIV, non-integer refutation, GCD, bounded enumeration, ZIV,
   value-range disjointness, the power-of-two mask identity and
   write-once const globals — to its exact verdict, so a regression in
   any one test cannot hide behind the others returning Unknown. *)

module Dep = Static.Depend
module Dist = Static.Distance

(* --- shared helpers --------------------------------------------------- *)

(* The store and the first load of the program's only array; the
   templates put both inside the loop body. *)
let event_pcs (prog : Vm.Program.t) =
  let store = ref (-1) and load = ref (-1) in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Vm.Instr.StoreIndex -> store := pc
      | Vm.Instr.LoadIndex -> if !load < 0 then load := pc
      | _ -> ())
    prog.code;
  (!store, !load)

let analyze src =
  let prog = Vm.Compile.compile_source src in
  let dep = Dep.analyze prog in
  let store, load = event_pcs prog in
  (dep, store, load)

(* --- handcrafted table ------------------------------------------------ *)

type expected = V of Dist.verdict | Bounded of int
(* [V]: the exact verdict (whose [Dist.bound] must agree); [Bounded d] is
   shorthand for [V (Exact_distance d)] — kept separate only to make the
   table read as "this one must persist a bound". *)

let handcrafted =
  [
    (* Equal coefficients, offsets 3 apart: strong SIV. *)
    ( "strong SIV exact",
      {|int A[512];
int main() { int i; for (i = 2; i < 32; i = i + 1) { A[i + 3] = A[i] + 1; } return 0; }|},
      Bounded 3 );
    (* The par2 gfexp shape: a wide wrap-around offset in a long loop. *)
    ( "gfexp-style distance 255",
      {|int A[900];
int main() { int i; for (i = 0; i < 300; i = i + 1) { A[i + 255] = A[i] + 1; } return 0; }|},
      Bounded 255 );
    (* 2i+1 vs 2i: the iteration difference would be 1/2. *)
    ( "strong SIV non-integer",
      {|int A[512];
int main() { int i; for (i = 0; i < 20; i = i + 1) { A[2 * i + 1] = A[2 * i] + 1; } return 0; }|},
      V Dist.No_dep );
    (* 2j1 = 4j2 + 1 has no integer solutions: gcd(2,4) does not divide 1. *)
    ( "GCD refutation",
      {|int A[512];
int main() { int i; for (i = 0; i < 20; i = i + 1) { A[2 * i] = A[4 * i + 1] + 1; } return 0; }|},
      V Dist.No_dep );
    (* Different coefficients, solutions exist: bounded enumeration finds
       the closest pair (i = 5 reads what i = 0 wrote). *)
    ( "enumerated minimum",
      {|int A[512];
int main() { int i; for (i = 0; i < 16; i = i + 1) { A[i] = A[2 * i + 5] + 1; } return 0; }|},
      V (Dist.Min_distance 5) );
    ( "ZIV distinct cells",
      {|int A[512];
int main() { int i; for (i = 0; i < 8; i = i + 1) { A[5] = A[9] + 1; } return 0; }|},
      V Dist.No_dep );
    (* Same constant cell every iteration: a real dependence at distance
       1, which no distance test in the engine claims to bound. *)
    ( "ZIV same cell",
      {|int A[512];
int main() { int i; for (i = 0; i < 8; i = i + 1) { A[5] = A[5] + 1; } return 0; }|},
      V Dist.Unknown );
    (* A constant subscript outside the affine side's value range. *)
    ( "constant outside range",
      {|int A[512];
int main() { int i; for (i = 8; i < 20; i = i + 1) { A[3] = A[i] + 1; } return 0; }|},
      V Dist.No_dep );
    (* i & 31 is the identity while i stays in [0, 31], so the masked
       subscript is still affine and strong SIV applies. *)
    ( "power-of-two mask identity",
      {|int A[512];
int main() { int i; for (i = 0; i < 21; i = i + 1) { A[(i & 31) + 16] = A[i] + 1; } return 0; }|},
      Bounded 16 );
    (* G is written exactly once (a const global), so A[G] is a known
       constant cell — and i's range [8, 20] excludes it. *)
    ( "write-once const global",
      {|int G; int A[512];
int main() { int i; G = 7; for (i = 8; i < 20; i = i + 1) { A[G] = A[i] + 1; } return 0; }|},
      V Dist.No_dep );
  ]

let test_handcrafted () =
  List.iter
    (fun (name, src, expected) ->
      let dep, store, load = analyze src in
      let v, why = Dep.distance_verdict dep ~head_pc:store ~tail_pc:load in
      let expected_v =
        match expected with Bounded d -> Dist.Exact_distance d | V v -> v
      in
      Alcotest.(check string)
        (Printf.sprintf "%s verdict (%s)" name why)
        (Dist.verdict_to_string expected_v)
        (Dist.verdict_to_string v);
      let expected_bound =
        match expected with
        | Bounded d -> Some d
        | V (Dist.Exact_distance d) | V (Dist.Min_distance d) ->
            if d >= 1 then Some d else None
        | V _ -> None
      in
      Alcotest.(check (option int))
        (name ^ " bound") expected_bound
        (Dep.distance_bound dep ~head_pc:store ~tail_pc:load))
    handcrafted

(* --- random affine loops vs. brute force ------------------------------ *)

type spec = {
  i0 : int;  (** initial induction value *)
  step : int;  (** positive stride *)
  trip : int;  (** iteration count (>= 1) *)
  le : bool;  (** header uses [<=] instead of [<] *)
  m1 : int;  (** write-subscript coefficient *)
  e1 : int;  (** extra write offset (the base shift keeps indices >= 0) *)
  m2 : int;  (** read-subscript coefficient *)
  e2 : int;  (** extra read offset *)
}

let iters s = List.init s.trip (fun t -> s.i0 + (t * s.step))

(* Offset making [m*i + c] non-negative over all iterations (negative
   coefficients walk the array downward). *)
let offset m extra s =
  let mn = List.fold_left (fun acc i -> min acc (m * i)) 0 (iters s) in
  extra - mn

let subscript m c =
  if m = 0 then string_of_int c
  else if m = 1 then Printf.sprintf "i + %d" c
  else Printf.sprintf "%d * i + %d" m c

let source s =
  let c1 = offset s.m1 s.e1 s and c2 = offset s.m2 s.e2 s in
  let last = s.i0 + ((s.trip - 1) * s.step) in
  let bound = if s.le then last else last + 1 in
  Printf.sprintf
    "int A[512];\n\
     int main() {\n\
    \  int i;\n\
    \  for (i = %d; i %s %d; i = i + %d) {\n\
    \    A[%s] = A[%s] + 1;\n\
    \  }\n\
    \  return 0;\n\
     }\n"
    s.i0
    (if s.le then "<=" else "<")
    bound s.step (subscript s.m1 c1) (subscript s.m2 c2)

(* Iteration distances of every colliding (head, tail) pair. *)
let brute_dists s ~mh ~ch ~mt ~ct =
  let dists = ref [] in
  List.iteri
    (fun th ih ->
      List.iteri
        (fun tt it ->
          if (mh * ih) + ch = (mt * it) + ct then
            dists := abs (th - tt) :: !dists)
        (iters s))
    (iters s);
  !dists

let consistent verdict dists =
  match verdict with
  | Dist.Unknown -> true
  | Dist.No_dep -> dists = []
  | Dist.Exact_distance d -> List.for_all (fun x -> x = d) dists
  | Dist.Min_distance d -> List.for_all (fun x -> x >= d) dists

let gen_spec =
  QCheck.Gen.(
    let m_gen = frequency [ (4, int_range 0 3); (1, int_range (-2) (-1)) ] in
    map
      (fun ((i0, step, (trip, le)), ((m1, e1), (m2, e2))) ->
        { i0; step; trip; le; m1; e1; m2; e2 })
      (pair
         (triple (int_range 0 3) (int_range 1 3)
            (pair (int_range 1 16) bool))
         (pair
            (pair m_gen (int_range 0 4))
            (pair m_gen (int_range 0 4)))))

let arb_spec = QCheck.make ~print:source gen_spec

let test_random_vs_brute_force () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"static distance consistent with simulation"
       ~count:150 arb_spec (fun s ->
         let dep, store, load = analyze (source s) in
         let c1 = offset s.m1 s.e1 s and c2 = offset s.m2 s.e2 s in
         let check what ~head ~tail ~mh ~ch ~mt ~ct =
           let v, why = Dep.distance_verdict dep ~head_pc:head ~tail_pc:tail in
           let dists = brute_dists s ~mh ~ch ~mt ~ct in
           if not (consistent v dists) then
             QCheck.Test.fail_reportf
               "%s: verdict %s (%s) inconsistent with distances {%s} in\n%s"
               what
               (Dist.verdict_to_string v)
               why
               (String.concat ","
                  (List.map string_of_int (List.sort_uniq compare dists)))
               (source s)
           else true
         in
         check "write->read" ~head:store ~tail:load ~mh:s.m1 ~ch:c1 ~mt:s.m2
           ~ct:c2
         && check "read->write" ~head:load ~tail:store ~mh:s.m2 ~ch:c2 ~mt:s.m1
              ~ct:c1
         && check "write->write" ~head:store ~tail:store ~mh:s.m1 ~ch:c1
              ~mt:s.m1 ~ct:c1))

(* The end-to-end invariant the sanitizer enforces: profile a random
   affine loop and cross-check every recorded edge (including its
   observed min Tdep vs. any proven bound) — zero discrepancies. *)
let test_random_profiles_sanitize () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"random affine loops sanitize clean" ~count:60
       arb_spec (fun s ->
         let prog = Vm.Compile.compile_source (source s) in
         let r = Alchemist.Profiler.run ~fuel:2_000_000 prog in
         match
           Alchemist.Sanitize.check ~dep:(Static.Depend.analyze prog)
             r.Alchemist.Profiler.profile
         with
         | [] -> true
         | issue :: _ ->
             QCheck.Test.fail_reportf "sanitizer: %s in\n%s"
               (Format.asprintf "%a" Alchemist.Sanitize.pp_issue issue)
               (source s)))

let suite =
  [
    ("handcrafted verdicts", `Quick, test_handcrafted);
    ("random vs brute force", `Quick, test_random_vs_brute_force);
    ("random profiles sanitize", `Quick, test_random_profiles_sanitize);
  ]
