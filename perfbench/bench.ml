(* The registry benchmark's measuring process; perfbench/run.py builds
   and drives it.

     bench.exe run --workload W [--seed N] --seconds S [--trace 0|1]
                   [--profiles DIR] [--out FILE]
     bench.exe save-profiles [--seed N] --dir DIR

   [run] measures one workload in this single-threaded process and prints
   the result object as its last line of standard output; S is the run's
   time budget from the start of the process. [save-profiles]
   writes the profiles the [check] workload reads, one file per registry
   program, so that their making does not count in [check]'s memory. *)

open Perfbench

let default_seed = 20090314

let usage () =
  prerr_endline
    "usage: bench.exe run --workload profile|explore|check [--seed N] \
     --seconds S [--trace 0|1] [--profiles DIR] [--out FILE]\n\
    \       bench.exe save-profiles [--seed N] --dir DIR";
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let profile_path dir name = Filename.concat dir (name ^ ".prof")

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let cmd, kv =
    match args with c :: rest -> (c, opts [] rest) | [] -> usage ()
  in
  let get k = List.assoc_opt k kv in
  let int k default =
    match get k with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let seed = int "--seed" default_seed in
  match cmd with
  | "save-profiles" ->
      let dir = match get "--dir" with Some d -> d | None -> usage () in
      Array.iter
        (fun p ->
          write_file (profile_path dir (Suite.name p)) (Suite.saved_profile p))
        (Suite.programs ~seed Suite.registry_bases)
  | "run" ->
      let seconds =
        match Option.bind (get "--seconds") float_of_string_opt with
        | Some s -> s
        | None -> usage ()
      in
      let traced =
        match get "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ()
      in
      let suite =
        match get "--workload" with
        | Some "profile" -> Suite.profile
        | Some "explore" -> Suite.explore
        | Some "check" ->
            let dir =
              match get "--profiles" with Some d -> d | None -> usage ()
            in
            let saved = Hashtbl.create 16 in
            List.iter
              (fun (name, _) ->
                Hashtbl.replace saved name (read_file (profile_path dir name)))
              Suite.registry_bases;
            Suite.check ~saved:(Hashtbl.find saved)
        | _ -> usage ()
      in
      Printf.eprintf "perfbench: workload %s, seed %d, %.1f s, trace %b\n%!"
        suite.Suite.wname seed seconds traced;
      let programs = Suite.programs ~seed suite.Suite.bases in
      let run =
        (if traced then Harness.run_traced else Harness.run_untraced)
          ~suite ~programs ~seed ~seconds ()
      in
      Option.iter (Harness.write_details run) (get "--out");
      Printf.eprintf "perfbench: %d rounds, %d ops, %d failed\n%!" run.Harness.rounds
        run.Harness.tally.Harness.attempted run.Harness.tally.Harness.failed;
      print_endline (Harness.result_line run)
  | _ -> usage ()
