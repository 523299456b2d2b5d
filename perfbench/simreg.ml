(* sim_regress: functional verification of the registry kernels in the
   RTL simulator.  Set-up compiles each kernel once; every timed round
   runs a fixed set of seeded stimuli per kernel, each through a fresh
   [Harness.run] with its defaults, and checks every output against the
   kernel's plain-OCaml reference model. *)

open Hir_dialect
module Harness = Hir_rtl.Harness
module Sim = Hir_rtl.Sim
module Emit = Hir_codegen.Emit
module Model = Hir_resources.Model
module K = Hir_kernels

type stimulus = {
  inputs : Harness.input list;
  expected : Bitvec.t array;
}

type case = {
  name : string;
  count : int;  (* stimuli per round *)
  make : int -> stimulus;  (* from a stimulus seed *)
  valid : int -> bool;  (* output indices the reference defines *)
  out_arg : int;  (* memref argument holding the output *)
}

let all _ = true
let range (lo, hi) i = i >= lo && i <= hi
let unary input reference = { inputs = [ Harness.Tensor input; Harness.Out_tensor ]; expected = reference input }

let binary (a, b) reference =
  { inputs = [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ]; expected = reference a b }

(* Stimulus counts weight the round.  GEMM and systolic elaborate large
   netlists; the small kernels spend their time in the cycle loop, where
   every settle crosses the partitioned engine's cross-domain barrier
   (2 partitions on a 2-core host), whose latency swings about 2x with
   host load.  Most operations are therefore systolic runs, so the
   median operation is elaboration-bound and steady; the loop still
   takes a share of every round, and its per-cycle costs are measured
   on every kernel in the traced run. *)
let cases =
  let open K in
  [
    { name = Transpose.name; count = 8; out_arg = 1; valid = all;
      make = (fun seed -> unary (Transpose.make_input ~seed) Transpose.reference) };
    { name = Stencil1d.name; count = 6; out_arg = 1; valid = range Stencil1d.valid_range;
      make = (fun seed -> unary (Stencil1d.make_input ~seed) Stencil1d.reference) };
    { name = Histogram.name; count = 4; out_arg = 1; valid = all;
      make = (fun seed -> unary (Histogram.make_input ~seed) Histogram.reference) };
    { name = Gemm.name; count = 4; out_arg = 2; valid = all;
      make = (fun seed -> binary (Gemm.make_inputs ~seed) Gemm.reference) };
    { name = Systolic.name; count = 48; out_arg = 2; valid = all;
      make = (fun seed -> binary (Systolic.make_inputs ~seed ()) (fun a b -> Systolic.reference a b)) };
    { name = Convolution.name; count = 6; out_arg = 1; valid = Convolution.is_valid_index;
      make = (fun seed -> unary (Convolution.make_input ~seed) Convolution.reference) };
    { name = Fifo.name; count = 6; out_arg = 1; valid = all;
      make = (fun seed -> unary (Fifo.make_input ~seed) Fifo.reference) };
    { name = Elementwise_max.name; count = 6; out_arg = 2; valid = all;
      make = (fun seed -> binary (Elementwise_max.make_inputs ~seed) Elementwise_max.reference) };
    { name = Taskparallel.name; count = 6; out_arg = 1; valid = range Taskparallel.valid_range;
      make = (fun seed -> unary (Taskparallel.make_input ~seed) Taskparallel.reference) };
  ]

(* One compiled kernel with its cycle budget and this run's stimuli. *)
type prepared = {
  case : case;
  emitted : Emit.emitted;
  cycles : int;
  stimuli : stimulus array;
}

let prepare ~seed case =
  let k = Option.get (K.Kernels.find case.name) in
  let m, f = k.K.Kernels.build () in
  let emitted = Emit.compile ~optimize:true ~module_op:m ~top:f () in
  let cycles =
    match k.K.Kernels.check () with
    | Ok r -> r.Interp.cycles
    | Error e -> failwith (case.name ^ ": interpreter check failed: " ^ e)
  in
  let seeds = Gen.stimulus_seeds ~seed ~kernel:case.name ~count:case.count in
  { case; emitted; cycles; stimuli = Array.map case.make seeds }

(* Every output element at every valid index equals the reference, and
   no assertion fired. *)
let check p (s : stimulus) (r : Harness.run_result) agents =
  let actual = Harness.nth_tensor agents p.case.out_arg in
  let ok = ref (r.Harness.failures = [] && Array.length actual = Array.length s.expected) in
  Array.iteri
    (fun i e ->
      if !ok && p.case.valid i then
        match actual.(i) with Some got when Bitvec.equal got e -> () | _ -> ok := false)
    s.expected;
  !ok

(* ------------------------------------------------------------------ *)
(* Traced simulation: [Harness.run]'s steps called one by one          *)

type phase = { mutable flatten : float; mutable create : float; mutable settle : float;
               mutable clock : float; mutable agents : float; mutable cycles : int }

(* [Harness.run]'s default number of cycles run past the budget. *)
let extra_cycles = 8

let traced_run ph p (s : stimulus) =
  let t = Common.now in
  let t0 = t () in
  let flat = Hir_rtl.Flatten.flatten p.emitted.Emit.design in
  let t1 = t () in
  let sim = Sim.create flat in
  let t2 = t () in
  ph.flatten <- ph.flatten +. (t1 -. t0);
  ph.create <- ph.create +. (t2 -. t1);
  let agents = Harness.setup_agents sim ~emitted:p.emitted ~inputs:s.inputs in
  let start = Sim.writer sim "t_start" in
  let total = p.cycles + extra_cycles in
  for c = 0 to total - 1 do
    start (Bitvec.of_bool (c = 0));
    let a0 = t () in
    List.iter Harness.agent_drive agents;
    let a1 = t () in
    Sim.settle_only sim;
    let a2 = t () in
    List.iter Harness.agent_observe agents;
    let a3 = t () in
    Sim.clock sim;
    let a4 = t () in
    ph.agents <- ph.agents +. (a1 -. a0) +. (a3 -. a2);
    ph.settle <- ph.settle +. (a2 -. a1);
    ph.clock <- ph.clock +. (a4 -. a3)
  done;
  ph.cycles <- ph.cycles + total;
  (Harness.finish_run sim ~emitted:p.emitted ~total, agents)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)

let min_ops = 1000

(* The tail percentile every run is guaranteed enough samples for. *)
let tail_pct = Option.get (Stats.tail_percentile min_ops)

let run ~seed ~seconds ~trace =
  let setup = Common.timed_setup (fun () -> List.map (prepare ~seed) cases) in
  let prepared = setup.Common.state in
  (* The order of the round's operations, seeded. *)
  let ops =
    Array.of_list
      (List.concat_map (fun p -> List.init (Array.length p.stimuli) (fun i -> (p, i))) prepared)
  in
  Gen.Rng.shuffle (Gen.stream seed "sim-order") ops;
  let latencies = ref [] and failed = ref 0 in
  let counters = Hashtbl.create 8 in
  let simulate (p, i) =
    let s = p.stimuli.(i) in
    let result, dt =
      Common.time (fun () ->
          match
            Hir_ir.Pass.with_counters (fun () ->
                Harness.run ~emitted:p.emitted ~inputs:s.inputs ~cycles:p.cycles ())
          with
          | v -> Ok v
          | exception e -> Error e)
    in
    latencies := dt :: !latencies;
    match result with
    | Error e ->
      (* A failed operation: counted in [failed], not a wrong output. *)
      incr failed;
      Printf.eprintf "%s: stimulus %d: %s\n" p.case.name i (Printexc.to_string e)
    | Ok ((r, agents), ctr) ->
      List.iter
        (fun (k, v) ->
          let old = Option.value ~default:0 (Hashtbl.find_opt counters k) in
          Hashtbl.replace counters k (if k = "sim.partitions" then max old v else old + v))
        ctr;
      Common.check (check p s r agents) "%s: stimulus %d: output differs from the reference"
        p.case.name i
  in
  let round () =
    Array.iter simulate ops;
    Array.length ops
  in
  let finish ~ops values =
    { Common.correct = Common.all_checks_passed (); attempted = ops; failed = !failed; values }
  in
  if not trace then begin
    let rounds, n_ops, wall =
      Common.run_rounds ~between:setup.Common.again ~seconds ~min_ops round
    in
    let designs = List.map (fun p -> p.emitted.Emit.design) prepared in
    let usage = List.fold_left (fun acc d -> Model.( ++ ) acc (Model.design_usage d)) Model.zero designs in
    finish ~ops:n_ops
      [
        ("setup_s", setup.Common.median ());
        ("peak_rss_mb", Common.peak_rss_mb "self");
        ("round_s", Stats.median rounds);
        ("jobs_per_s", float_of_int n_ops /. wall);
        ("latency_ms_p50", Common.ms (Stats.median !latencies));
        ("latency_ms_tail", Common.ms (Stats.percentile !latencies tail_pct));
        ( "verilog_bytes",
          float_of_int
            (List.fold_left
               (fun acc d -> acc + String.length (Hir_verilog.Pretty.design_to_string d))
               0 designs) );
        ("model_lut", float_of_int usage.Model.lut);
        ("model_ff", float_of_int usage.Model.ff);
        ("model_dsp", float_of_int usage.Model.dsp);
        ("model_bram", float_of_int usage.Model.bram);
      ]
  end
  else begin
    (* Untraced rounds and rounds with [Harness.run]'s steps called and
       timed one by one, in turn. *)
    let ph = { flatten = 0.; create = 0.; settle = 0.; clock = 0.; agents = 0.; cycles = 0 } in
    let traced_round () =
      Array.iter
        (fun (p, i) ->
          let s = p.stimuli.(i) in
          let r, agents = traced_run ph p s in
          Common.check (check p s r agents) "%s: stimulus %d: traced output differs"
            p.case.name i)
        ops;
      Array.length ops
    in
    let plain, traced, n_ops = Common.alternate_rounds ~seconds round traced_round in
    let n = float_of_int (List.length traced) in
    let per_round x = Common.ms x /. n in
    let per_cycle x = x *. 1e9 /. float_of_int ph.cycles in
    let counter k =
      float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters k))
      /. float_of_int (List.length plain)
    in
    let layer_ms = per_round (ph.flatten +. ph.create +. ph.settle +. ph.clock +. ph.agents) in
    finish ~ops:n_ops
      (Common.with_zeros
         [
           ("rtl.flatten_ms", per_round ph.flatten);
           ("sim.create_ms", per_round ph.create);
           ("sim.settle_ns_per_cycle", per_cycle ph.settle);
           ("sim.clock_ns_per_cycle", per_cycle ph.clock);
           ("harness.agents_ns_per_cycle", per_cycle ph.agents);
           ("sim.assigns_evaluated", counter "sim.assigns_evaluated");
           ("sim.assigns_skipped", counter "sim.assigns_skipped");
           ("sim.settles", counter "sim.settles");
           ( "sim.partitions",
             float_of_int
               (max 1 (Option.value ~default:0 (Hashtbl.find_opt counters "sim.partitions"))) );
           (* The traced rounds' time outside those steps: the checks,
              the stimulus set-up and the benchmark's own clock reads. *)
           ("workload.unattributed_ms", per_round (List.fold_left ( +. ) 0. traced) -. layer_ms);
           ("trace.overhead_pct", 100. *. ((Stats.median traced /. Stats.median plain) -. 1.));
         ])
  end
