let all =
  [
    Mini_parser.workload;
    Mini_bzip2.workload;
    Mini_gzip.workload;
    Mini_lisp.workload;
    Mini_ogg.workload;
    Aes_ctr.workload;
    Par2.workload;
    Delaunay.workload;
    Stencil.workload;
  ]

let find name = List.find (fun (w : Workload.t) -> w.name = name) all
let names = List.map (fun (w : Workload.t) -> w.Workload.name) all

let of_spec spec =
  match String.split_on_char ':' spec with
  | [ "workload"; name ] ->
      let w = find name in
      Some (w, w.Workload.default_scale)
  | [ "workload"; name; scale ] -> (
      let w = find name in
      match int_of_string_opt scale with
      | Some n when n >= 1 -> Some (w, n)
      | _ ->
          invalid_arg
            (Printf.sprintf "bad scale %S in %s: expected a positive integer"
               scale spec))
  | _ -> None
