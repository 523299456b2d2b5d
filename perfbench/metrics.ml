(* The benchmark's metric catalogue and its result line.  BENCHMARK.json
   at the repository root declares exactly these names (a test checks
   it), and [result_line] refuses to print any other set. *)

(* The workloads BENCHMARK.json declares. *)
let workloads = [ "cold_compile"; "sim_regress" ]

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Printed by every untraced run, whatever the workload.  Each is
   measured on that workload's own operations; README.md says what an
   operation and a round are on each. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "round_s" "s" Lower;
    m "jobs_per_s" "1/s" Higher;
    m "latency_ms_p50" "ms" Lower;
    m "latency_ms_tail" "ms" Lower;
    m "verilog_bytes" "B" Lower;
    m "model_lut" "count" Lower;
    m "model_ff" "count" Lower;
    m "model_dsp" "count" Lower;
    m "model_bram" "count" Lower;
  ]

(* Printed by every traced run.  A layer the workload does not run
   reads 0. *)
let per_layer =
  [
    m "ir.parse_ms" "ms" Lower;
    m "hir.verify_ms" "ms" Lower;
    m "pass.canonicalize_ms" "ms" Lower;
    m "pass.precision-opt_ms" "ms" Lower;
    m "pass.unroll_ms" "ms" Lower;
    m "pass.delay-elim_ms" "ms" Lower;
    m "pass.rewrites" "count" Lower;
    m "ir.ops_after_passes" "count" Lower;
    m "codegen.emit_ms" "ms" Lower;
    m "codegen.defs" "count" Higher;
    m "verilog.print_ms" "ms" Lower;
    m "driver.unattributed_ms" "ms" Lower;
    m "compile.alloc_mw" "Mword" Lower;
    m "cache.lookup_ms" "ms" Lower;
    m "cache.store_ms" "ms" Lower;
    m "cache.job_hit_ratio" "ratio" Higher;
    m "cache.link_hit_ratio" "ratio" Higher;
    m "cache.fn_hit_ratio" "ratio" Higher;
    m "cache.vmod_hit_ratio" "ratio" Higher;
    m "cache.src_hit_ratio" "ratio" Higher;
    m "serve.queue_ms_p50" "ms" Lower;
    m "serve.run_ms_p50" "ms" Lower;
    m "serve.wire_ms_mean" "ms" Lower;
    m "journal.append_ms" "ms" Lower;
    m "rtl.flatten_ms" "ms" Lower;
    m "sim.create_ms" "ms" Lower;
    m "sim.settle_ns_per_cycle" "ns" Lower;
    m "sim.clock_ns_per_cycle" "ns" Lower;
    m "harness.agents_ns_per_cycle" "ns" Lower;
    m "sim.assigns_evaluated" "count" Lower;
    m "sim.assigns_skipped" "count" Higher;
    m "sim.settles" "count" Lower;
    m "sim.partitions" "count" Lower;
    m "workload.unattributed_ms" "ms" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

(* Full precision: the driver compares raw values across runs. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of a run's standard output.  [values] must name every
   metric of [catalogue] exactly once, and nothing else. *)
let result_line ~catalogue ~correct ~attempted ~failed values =
  let names = List.map (fun m -> m.name) catalogue in
  let given = List.map fst values in
  if List.sort compare names <> List.sort compare given || not (List.for_all valid_name names)
  then
    invalid_arg
      (Printf.sprintf "Metrics.result_line: expected {%s}, got {%s}"
         (String.concat "," names) (String.concat "," given));
  let field m =
    let v = List.assoc m.name values in
    if not (Float.is_finite v) then
      invalid_arg ("Metrics.result_line: not a number: " ^ m.name);
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field catalogue))
