(* Tests for the benchmark's own code: the statistics it reports, the
   determinism of its seeded generators, and the agreement between its
   metric catalogue and BENCHMARK.json. *)

open Perfbench
module J = Hir_driver.Protocol.Json

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let test_tail_rule () =
  let check n expected =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) expected (Stats.tail_percentile n)
  in
  check 1 None;
  check 39 None;
  check 40 (Some 75.);
  check 100 (Some 90.);
  check 999 (Some 98.);
  check 1000 (Some 99.);
  check 20000 (Some 99.)

let test_percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p99" 99. (Stats.percentile xs 99.);
  Alcotest.(check (float 0.)) "p100" 100. (Stats.percentile xs 100.);
  Alcotest.(check (float 0.)) "median even" 50.5 (Stats.median xs);
  Alcotest.(check (float 0.)) "median odd" 2. (Stats.median [ 3.; 1.; 2. ])

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)

let test_stimulus_determinism () =
  let s seed = Gen.stimulus_seeds ~seed ~kernel:"gemm" ~count:16 in
  Alcotest.(check (array int)) "same seed" (s 7) (s 7);
  Alcotest.(check bool) "other seed" false (s 7 = s 8);
  Alcotest.(check bool) "other kernel" false
    (s 7 = Gen.stimulus_seeds ~seed:7 ~kernel:"fifo" ~count:16);
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0) (s 3));
  Alcotest.(check (array int)) "order" (Gen.compile_order ~seed:5 14) (Gen.compile_order ~seed:5 14);
  Alcotest.(check (list int)) "order is a permutation" (List.init 14 Fun.id)
    (List.sort compare (Array.to_list (Gen.compile_order ~seed:5 14)))

let session ?(conn = 0) seed =
  Gen.session ~seed ~conn ~base:[| 3; 5; 3; 5 |] ~slot_tops:[| "a"; "a"; "b"; "b" |]
    ~switch_tops:[| "x"; "y"; "z" |]

let blocks s n = List.init n (fun _ -> Gen.next_block s)

let describe (j : Gen.job) =
  Printf.sprintf "%s %s [%s]" (Gen.kind_to_string j.Gen.kind) j.Gen.req.Gen.top
    (String.concat "," (Array.to_list (Array.map string_of_int j.Gen.req.Gen.consts)))

let test_stream_determinism () =
  let d s = List.map (List.map describe) (blocks s 20) in
  Alcotest.(check (list (list string))) "same seed" (d (session 11)) (d (session 11));
  Alcotest.(check bool) "other seed" false (d (session 11) = d (session 12));
  Alcotest.(check bool) "other connection" false (d (session 11) = d (session ~conn:1 11))

let test_stream_shape () =
  let s = session 4 in
  let prev = ref (Gen.{ consts = [| 3; 5; 3; 5 |]; top = "x" }) in
  List.iter
    (fun block ->
      let count k = List.length (List.filter (fun (j : Gen.job) -> j.Gen.kind = k) block) in
      List.iter
        (fun k -> Alcotest.(check int) (Gen.kind_to_string k) Gen.per_kind (count k))
        [ Gen.Edit; Gen.Resubmit; Gen.Switch ];
      List.iter
        (fun (j : Gen.job) ->
          let r = j.Gen.req in
          (match j.Gen.kind with
          | Gen.Resubmit -> Alcotest.(check bool) "resubmits the previous request" true (r = !prev)
          | Gen.Switch ->
            Alcotest.(check bool) "switch keeps the source" true (r.Gen.consts = !prev.Gen.consts);
            Alcotest.(check bool) "switch top" true (List.mem r.Gen.top [ "x"; "y"; "z" ])
          | Gen.Edit ->
            let changed =
              List.filter (fun i -> r.Gen.consts.(i) <> !prev.Gen.consts.(i)) [ 0; 1; 2; 3 ]
            in
            Alcotest.(check int) "an edit changes one constant" 1 (List.length changed);
            let slot = List.hd changed in
            Alcotest.(check string) "edit top" (if slot < 2 then "a" else "b") r.Gen.top);
          prev := r)
        block)
    (blocks s 50)

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                     *)

let all_metrics = Metrics.end_to_end @ Metrics.per_layer

let test_names () =
  List.iter
    (fun (m : Metrics.metric) ->
      Alcotest.(check bool) ("valid name " ^ m.Metrics.name) true (Metrics.valid_name m.Metrics.name))
    all_metrics;
  List.iter
    (fun bad -> Alcotest.(check bool) ("invalid " ^ bad) false (Metrics.valid_name bad))
    [ ""; "_x"; "a b"; "p/s"; "a\"b"; String.make 65 'a' ];
  let names = List.map (fun (m : Metrics.metric) -> m.Metrics.name) all_metrics in
  Alcotest.(check int) "unique" (List.length names) (List.length (List.sort_uniq compare names))

let catalogue_of_json j key =
  match J.mem key j with
  | Some (J.Arr items) ->
    List.map
      (fun m ->
        ( Option.get (J.field_str m "name"),
          Option.get (J.field_str m "unit"),
          Option.get (J.field_str m "better") ))
      items
  | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key

let catalogue ms =
  List.map
    (fun (m : Metrics.metric) ->
      (m.Metrics.name, m.Metrics.unit_, match m.Metrics.better with Metrics.Lower -> "lower" | Metrics.Higher -> "higher"))
    ms

let test_benchmark_json () =
  let j =
    match J.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (catalogue Metrics.end_to_end) (catalogue_of_json j "end_to_end");
  Alcotest.check triple "per_layer" (catalogue Metrics.per_layer) (catalogue_of_json j "per_layer");
  let workloads =
    match J.mem "workloads" j with
    | Some (J.Arr ws) -> List.map (fun w -> Option.get (J.field_str w "name")) ws
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" Metrics.workloads workloads

(* The printed result names exactly the catalogue, and nothing else is
   accepted. *)
let test_result_line () =
  let values = List.mapi (fun i (m : Metrics.metric) -> (m.Metrics.name, 0.5 +. float_of_int i)) Metrics.end_to_end in
  let line = Metrics.result_line ~catalogue:Metrics.end_to_end ~correct:true ~attempted:3 ~failed:0 values in
  (match J.parse line with
  | Ok j ->
    let printed =
      match J.mem "metrics" j with Some (J.Obj fields) -> List.map fst fields | _ -> []
    in
    Alcotest.(check (list string)) "printed names"
      (List.map (fun (m : Metrics.metric) -> m.Metrics.name) Metrics.end_to_end) printed;
    Alcotest.(check (option int)) "attempted" (Some 3) (J.field_int j "attempted")
  | Error e -> Alcotest.failf "result line is not JSON: %s" e);
  Alcotest.(check bool) "missing metric refused" true
    (match Metrics.result_line ~catalogue:Metrics.end_to_end ~correct:true ~attempted:1 ~failed:0 (List.tl values) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
                  Alcotest.test_case "percentiles" `Quick test_percentiles ]);
      ("gen", [ Alcotest.test_case "stimulus determinism" `Quick test_stimulus_determinism;
                Alcotest.test_case "stream determinism" `Quick test_stream_determinism;
                Alcotest.test_case "stream shape" `Quick test_stream_shape ]);
      ("metrics", [ Alcotest.test_case "names" `Quick test_names;
                    Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
                    Alcotest.test_case "result line" `Quick test_result_line ]);
    ]
