(* Clock, memory and scratch-directory helpers shared by the workloads. *)

(* Monotonic wall clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by this domain so far (minor + direct major, without
   double-counting promotions). *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.)

(* The result of one run, before printing. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* A failed correctness check: reported on stderr, and the run's
   [correct] becomes false. *)
let problems = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        prerr_endline ("check failed: " ^ msg);
        problems := msg :: !problems
      end)
    fmt

let all_checks_passed () = !problems = []

(* A timed set-up: its state, and [again], which repeats the set-up,
   discards the result and keeps the time.  A workload repeats it after
   every timed round, so the set-up samples span the run as the rounds
   do; [median ()] is the reported set-up time. *)
type 'a setup = { state : 'a; again : unit -> unit; median : unit -> float }

let timed_setup f =
  let state, dt = time f in
  let times = ref [ dt ] in
  let again () = times := snd (time (fun () -> ignore (Sys.opaque_identity (f ())))) :: !times in
  { state; again; median = (fun () -> Stats.median !times) }

(* Whole rounds until they have taken [seconds] and at least [min_ops]
   operations ran.  [round ()] returns the round's operation count;
   [between ()] runs after each round, outside its time.  Returns the
   round times, the operations and the rounds' total time. *)
let run_rounds ?(between = ignore) ~seconds ~min_ops round =
  let rec go rounds ops total =
    let n, dt = time round in
    let rounds = dt :: rounds and ops = ops + n and total = total +. dt in
    between ();
    if total >= seconds && ops >= min_ops then (List.rev rounds, ops, total)
    else go rounds ops total
  in
  go [] 0 0.

(* Untraced and traced rounds in turn until [seconds] have passed, so
   that a drift in the host's speed reaches both alike: the round times
   of each and the operations of both. *)
let alternate_rounds ~seconds plain traced =
  let t0 = now () in
  let rec go ps ts ops =
    let n, dp = time plain in
    let m, dt = time traced in
    let ps = dp :: ps and ts = dt :: ts and ops = ops + n + m in
    if now () -. t0 >= seconds then (ps, ts, ops) else go ps ts ops
  in
  go [] [] 0

(* Scratch space for one run, inside the working directory. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_root = ".perfbench-tmp"

let scratch_dir name =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  let dir =
    Filename.concat scratch_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ());
  dir

(* Per-layer values: every catalogue metric, zero where the workload
   does not run that layer. *)
let with_zeros values =
  List.map
    (fun (m : Metrics.metric) ->
      (m.Metrics.name, Option.value ~default:0. (List.assoc_opt m.Metrics.name values)))
    Metrics.per_layer

let ms s = s *. 1000.
