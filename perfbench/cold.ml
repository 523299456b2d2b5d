(* cold_compile: cold compiles from text through [Driver.compile_job],
   one job at a time, with no cache.  The time goes to the frontend,
   the passes, codegen, printing, the resource model and the driver's
   own staging. *)

open Hir_ir
open Hir_dialect
module Driver = Hir_driver.Driver
module Model = Hir_resources.Model
module K = Hir_kernels

type design = {
  name : string;
  text : string;
  top : string option;
  pe_n : int option;  (* GEMM/systolic size: one 3-DSP multiplier per PE *)
}

let pipeline = Hir_driver.Pipeline.default ~optimize:true

let of_build ?pe_n name (m, f) =
  { name; text = Printer.op_to_string m; top = Some (Ops.func_name f); pe_n }

(* The design mix: the nine registry kernels, the example designs, and
   the unrolled GEMM and systolic arrays at n = 8 and n = 16 (the
   registry's GEMM is n = 16 and its systolic array n = 8, so those two
   sizes are not repeated). *)
let designs ~examples_dir () =
  let registry =
    List.map
      (fun (k : K.Kernels.t) ->
        let pe_n =
          if k.K.Kernels.name = K.Gemm.name then Some K.Gemm.n
          else if k.K.Kernels.name = K.Systolic.name then Some K.Systolic.n
          else None
        in
        of_build ?pe_n k.K.Kernels.name (k.K.Kernels.build ()))
      K.Kernels.all
  in
  let examples =
    List.map
      (fun f ->
        let path = Filename.concat examples_dir (f ^ ".hir") in
        { name = path; text = In_channel.with_open_bin path In_channel.input_all;
          top = None; pe_n = None })
      [ "transpose"; "stencil_1d"; "fifo" ]
  in
  registry @ examples
  @ [
      of_build ~pe_n:8 "gemm_8" (K.Gemm.build ~n:8 ());
      of_build ~pe_n:16 "systolic_16" (K.Systolic.build ~n:16 ());
    ]

let job d = Driver.job_of_text ?top:d.top ~pipeline ~name:d.name d.text

(* ------------------------------------------------------------------ *)
(* Checks, each computed apart from the timed path                     *)

(* The job's usage must equal the resource model of the same source
   compiled directly through [Emit.compile], and a GEMM/systolic array
   of size n spends 3 DSPs (one 32x32 multiplier) per PE. *)
let check_output d (o : Driver.output) =
  let direct =
    Ir.with_isolated_ids (fun () ->
        let m = Parser.parse_string ~file:d.name d.text in
        match Ops.lookup_func m o.Driver.top_name with
        | None -> None
        | Some f ->
          let e = Hir_codegen.Emit.compile ~optimize:true ~module_op:m ~top:f () in
          Some (Model.design_usage e.Hir_codegen.Emit.design))
  in
  Common.check (direct = Some o.Driver.usage) "%s: usage differs from Emit.compile" d.name;
  Option.iter
    (fun n ->
      Common.check (o.Driver.usage.Model.dsp = 3 * n * n) "%s: %d DSPs, expected 3*%d^2"
        d.name o.Driver.usage.Model.dsp n)
    d.pe_n

(* One compile of design [i], checked: [Ok] with no degradations, and
   the same Verilog as the design's first compile in this run. *)
let compile_checked ~first ~failed compile i d =
  match compile d with
  | Ok o -> (
    Common.check (o.Driver.degradations = []) "%s: degraded: %s" d.name
      (String.concat "; " o.Driver.degradations);
    match first.(i) with
    | None -> first.(i) <- Some o
    | Some o1 ->
      Common.check (String.equal o.Driver.verilog o1.Driver.verilog)
        "%s: Verilog differs between rounds" d.name)
  | Error e ->
    (* A failed operation: counted in [failed], not a wrong output. *)
    incr failed;
    prerr_endline (Driver.error_to_string e)

let cold d = Driver.compile_job (job d)

(* ------------------------------------------------------------------ *)
(* Layer attribution (traced run)                                       *)

(* The compile layers, read from the spans [compile_job] records in the
   trace it is given: span name -> metric.  Time in none of these
   spans is the driver's own ([driver.unattributed_ms]). *)
let span_metrics =
  [ ("parse", "ir.parse_ms"); ("verify", "hir.verify_ms"); ("emit", "codegen.emit_ms");
    ("print", "verilog.print_ms") ]
  @ List.map
      (fun (p : Pass.t) -> ("pass:" ^ p.Pass.name, "pass." ^ p.Pass.name ^ "_ms"))
      (Hir_driver.Pipeline.to_passes pipeline)

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* [compile_job] with a trace; its wall time, span times and allocated
   words are added to [totals]. *)
let traced_compile totals d =
  let tr = Hir_driver.Trace.create () in
  let w0 = Common.alloc_words () in
  let r, dt = Common.time (fun () -> Driver.compile_job ~trace:tr (job d)) in
  add totals "compile.alloc_mw" ((Common.alloc_words () -. w0) /. 1e6);
  let spanned =
    List.fold_left
      (fun acc (sp : Hir_driver.Trace.span) ->
        match List.assoc_opt sp.Hir_driver.Trace.sp_name span_metrics with
        | Some k ->
          let v = sp.Hir_driver.Trace.sp_dur_us /. 1000. in
          add totals k v;
          acc +. v
        | None -> acc)
      0. (Hir_driver.Trace.spans tr)
  in
  add totals "driver.unattributed_ms" (Common.ms dt -. spanned);
  add totals "compile_job_ms" (Common.ms dt);
  r

let count_ops root =
  let n = ref 0 in
  Ir.Walk.ops_pre root ~f:(fun _ -> incr n);
  !n

(* Ops in the design's functions after the default pipeline, each
   function optimized in its own cone as [compile_job]'s staged path
   does it. *)
let ops_after_passes d =
  Ir.with_isolated_ids (fun () ->
      let plan =
        Hir_driver.Incr.normalize ~file:d.name ~text:d.text
          (Parser.parse_string ~file:d.name d.text)
      in
      List.fold_left
        (fun acc (fn, (fi : Hir_driver.Incr.fn_info)) ->
          if fi.Hir_driver.Incr.fi_extern then acc
          else
            let text, _ =
              Hir_driver.Incr.optimize_fn plan
                ~passes:(Hir_driver.Pipeline.to_passes pipeline) ~instrument:ignore fn
            in
            acc + count_ops (Parser.parse_string ~file:fn text))
        0 plan.Hir_driver.Incr.pl_fns)

(* Shared definitions placed in a design's Verilog. *)
let count_defs verilog =
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix:"module hirdef_" l)
       (String.split_on_char '\n' verilog))

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let min_ops = 200

(* The tail percentile every run is guaranteed enough samples for. *)
let tail_pct = Option.get (Stats.tail_percentile min_ops)

let run ~hirc ~seed ~seconds ~trace =
  let setup = Common.timed_setup (fun () -> Array.of_list (designs ~examples_dir:"examples/designs" ())) in
  let ds = setup.Common.state in
  let order = Gen.compile_order ~seed (Array.length ds) in
  let first = Array.make (Array.length ds) None in
  let latencies = ref [] in
  let failed = ref 0 in
  (* One round: every design once, in the run's seeded order. *)
  let round compile () =
    Array.iter (fun i -> compile_checked ~first ~failed compile i ds.(i)) order;
    Array.length order
  in
  let timed d =
    let r, dt = Common.time (fun () -> cold d) in
    latencies := dt :: !latencies;
    r
  in
  (* Each design with its first output; a design that never compiled
     has already failed. *)
  let compiled () =
    List.filter_map
      (fun (d, o) -> Option.map (fun o -> (d, o)) o)
      (List.combine (Array.to_list ds) (Array.to_list first))
  in
  let sum f = float_of_int (List.fold_left (fun acc (d, o) -> acc + f d o) 0 (compiled ())) in
  let finish ~ops values =
    List.iter (fun (d, o) -> check_output d o) (compiled ());
    { Common.correct = Common.all_checks_passed (); attempted = ops; failed = !failed; values }
  in
  if not trace then begin
    let rounds, ops, wall =
      Common.run_rounds ~between:setup.Common.again ~seconds ~min_ops (round timed)
    in
    finish ~ops
      [
        ("setup_s", setup.Common.median ());
        ("peak_rss_mb", Common.peak_rss_mb "self");
        ("round_s", Stats.median rounds);
        ("jobs_per_s", float_of_int ops /. wall);
        ("latency_ms_p50", Common.ms (Stats.median !latencies));
        ("latency_ms_tail", Common.ms (Stats.percentile !latencies tail_pct));
        ("verilog_bytes", sum (fun _ o -> String.length o.Driver.verilog));
        ("model_lut", sum (fun _ o -> o.Driver.usage.Model.lut));
        ("model_ff", sum (fun _ o -> o.Driver.usage.Model.ff));
        ("model_dsp", sum (fun _ o -> o.Driver.usage.Model.dsp));
        ("model_bram", sum (fun _ o -> o.Driver.usage.Model.bram));
      ]
  end
  else begin
    (* Untraced rounds and rounds with a trace given to every job, in
       turn; the traced rounds' spans partition [compile_job]'s time. *)
    let totals = Hashtbl.create 32 in
    let plain, traced, ops =
      Common.alternate_rounds ~seconds:(seconds /. 2.) (round cold) (fun () ->
          let n, dt = Common.time (round (traced_compile totals)) in
          add totals "round_ms" (Common.ms dt);
          n)
    in
    let n = float_of_int (List.length traced) in
    let per_round k = Option.value ~default:0. (Hashtbl.find_opt totals k) /. n in
    finish ~ops
      (Common.with_zeros
         (List.map (fun k -> (k, per_round k))
            ("driver.unattributed_ms" :: "compile.alloc_mw" :: List.map snd span_metrics)
         @ [
             ("pass.rewrites",
              sum (fun _ o ->
                  List.fold_left
                    (fun acc (s : Pass.stat) -> List.fold_left (fun a (_, c) -> a + c) acc s.Pass.counters)
                    0 o.Driver.pass_stats));
             ("ir.ops_after_passes", sum (fun d _ -> ops_after_passes d));
             ("codegen.defs", sum (fun _ o -> count_defs o.Driver.verilog));
             (* The benchmark's own time in a traced round: the loop,
                the checks and the span readings. *)
             ("workload.unattributed_ms", per_round "round_ms" -. per_round "compile_job_ms");
             ( "trace.overhead_pct",
               100. *. ((Stats.median traced /. Stats.median plain) -. 1.) );
           ]
         @ Serve.service_layers ~hirc ~seed ~seconds:(seconds /. 4.)))
  end
