(* Entry point: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--hirc PATH]

   The last line of standard output is the run's JSON result. *)

let () = Hir_dialect.Ops.register ()

let usage () =
  prerr_endline
    "usage: bench.exe --workload cold_compile|sim_regress --seed N \
     --seconds S --trace 0|1 [--hirc PATH]";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and hirc = ref "_build/default/bin/hirc.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--hirc" :: v :: rest -> hirc := v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds =
    match (!seed, !seconds) with
    | Some s, Some t when t > 0. -> (s, t)
    | _ -> usage ()
  in
  let outcome =
    match !workload with
    | Some "cold_compile" -> Cold.run ~hirc:!hirc ~seed ~seconds ~trace:!trace
    | Some "sim_regress" -> Simreg.run ~seed ~seconds ~trace:!trace
    | _ -> usage ()
  in
  let catalogue = if !trace then Metrics.per_layer else Metrics.end_to_end in
  print_endline
    (Metrics.result_line ~catalogue ~correct:outcome.Common.correct
       ~attempted:outcome.Common.attempted ~failed:outcome.Common.failed
       outcome.Common.values)
