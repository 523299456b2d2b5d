(* Order statistics shared by the benchmark's workloads and tests. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile xs p =
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The reporting rule for a latency tail: below 40 samples only the
   median is reported (None); otherwise the highest whole percentile
   that leaves at least ten samples beyond it. *)
let tail_percentile n =
  if n < 40 then None
  else Some (Float.floor (100. *. (1. -. (10. /. float_of_int n))))
