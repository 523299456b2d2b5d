(* The serve_edit job stream, for the cache, service and journal
   layers of a traced run: the real `hirc serve` binary, with a
   write-ahead journal and a compile cache in a fresh directory and its
   default worker count, driven by two connections in a closed loop.
   Each connection runs its own seeded editing session against one
   shared multi-kernel module (see [Gen.session]): constant edits (an
   incremental recompile of one cone), exact resubmissions under a new
   id (whole-job hits) and top switches on an unchanged source (link
   hits).  It is not a declared workload (see README.md). *)

open Hir_ir
open Hir_dialect
module Driver = Hir_driver.Driver
module P = Hir_driver.Protocol
module J = P.Json
module K = Hir_kernels

let connections = 2
let source_name = "shared.hir"

(* Functions whose two multiplier weights the edits change, and the top
   compiled after an edit of each. *)
let editable =
  [ ("stencil_1d_op", K.Stencil1d.name); ("stencilA_op", K.Taskparallel.name);
    ("stencilB_op", K.Taskparallel.name) ]

let weights = [ K.Stencil1d.w0; K.Stencil1d.w1 ]

(* Tops whose cones no edit touches, so a switch is always a link hit.
   GEMM is in the module but not a switch target: each reply is
   checked against a cacheless compile, and a 16x16 GEMM would make
   that check dominate the run. *)
let switch_tops =
  [| K.Transpose.name; K.Histogram.name; K.Convolution.name; K.Fifo.name;
     K.Elementwise_max.name |]

(* ------------------------------------------------------------------ *)
(* The shared module as a template over the editable constants         *)

type template = {
  pieces : string array;  (* text around the slots, in text order *)
  order : int array;  (* slot index of each gap between pieces *)
  base : int array;
  slot_tops : string array;
}

let find_from s sub i =
  let n = String.length sub and len = String.length s in
  let rec go i = if i + n > len then None else if String.sub s i n = sub then Some i else go (i + 1) in
  go i

let rfind_before s sub i =
  let n = String.length sub in
  let rec go i = if i < 0 then None else if String.sub s i n = sub then Some i else go (i - 1) in
  go (i - n)

let template () =
  let texts =
    List.concat_map
      (fun (k : K.Kernels.t) ->
        if k.K.Kernels.name = K.Systolic.name then []
        else
          let m, _ = k.K.Kernels.build () in
          List.map
            (fun f -> (Ops.func_name f, Printer.op_to_string f))
            (Ir.Walk.find_all m "hir.func"))
      K.Kernels.all
  in
  let text = Hir_driver.Incr.module_of_texts texts Printer.op_to_string in
  let slots =
    List.concat_map
      (fun (fn, top) ->
        let sym = Option.get (find_from text ("sym_name = @" ^ fn ^ "}") 0) in
        let start = Option.get (rfind_before text "\"hir.func\"()" sym) in
        List.map
          (fun w ->
            let lit = Printf.sprintf "\"hir.constant\"() {value = %d}" w in
            let at = Option.get (find_from text lit start) in
            if at > sym || (match find_from text lit (at + 1) with Some j -> j < sym | None -> false)
            then failwith ("serve_edit: no unique weight constant in @" ^ fn);
            let digits = at + String.length lit - 1 - String.length (string_of_int w) in
            (digits, String.length (string_of_int w), w, top))
          weights)
      editable
  in
  let slots = Array.of_list slots in
  let order = Array.init (Array.length slots) Fun.id in
  Array.sort (fun a b -> compare (let p, _, _, _ = slots.(a) in p) (let p, _, _, _ = slots.(b) in p)) order;
  let pieces =
    Array.init (Array.length slots + 1) (fun i ->
        let from = if i = 0 then 0 else let p, l, _, _ = slots.(order.(i - 1)) in p + l in
        let upto = if i = Array.length slots then String.length text else let p, _, _, _ = slots.(order.(i)) in p in
        String.sub text from (upto - from))
  in
  { pieces; order;
    base = Array.map (fun (_, _, w, _) -> w) slots;
    slot_tops = Array.map (fun (_, _, _, top) -> top) slots }

let render t consts =
  let b = Buffer.create (32 * 1024) in
  Buffer.add_string b t.pieces.(0);
  Array.iteri
    (fun i slot ->
      Buffer.add_string b (string_of_int consts.(slot));
      Buffer.add_string b t.pieces.(i + 1))
    t.order;
  Buffer.contents b

let request_line ~id ~source ~top =
  J.to_line
    (J.Obj
       [ ("op", J.Str "compile"); ("id", J.Str id); ("name", J.Str source_name);
         ("source", J.Str source); ("top", J.Str top); ("verilog", J.Bool true) ])

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)

type server = { pid : int; clients : P.Client.t array; trace_file : string }

let rec connect path ~pid ~deadline =
  match P.Client.connect_unix path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "serve_edit: hirc serve exited at start-up");
    if Common.now () > deadline then failwith "serve_edit: hirc serve did not start";
    Unix.sleepf 0.005;
    connect path ~pid ~deadline

let live = ref []

(* A server not stopped through the protocol is killed and reaped. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* A server in [dir], writing its trace there when it stops. *)
let start ~hirc ~dir =
  let sock = Filename.concat dir "s.sock" in
  let trace_file = Filename.concat dir "trace.json" in
  let args =
    [ hirc; "serve"; "--socket"; sock; "--journal"; Filename.concat dir "journal";
      "--cache-dir"; Filename.concat dir "cache"; "--trace"; trace_file ]
  in
  let pid = Unix.create_process hirc (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  live := pid :: !live;
  let deadline = Common.now () +. 30. in
  let clients = Array.init connections (fun _ -> connect sock ~pid ~deadline) in
  { pid; clients; trace_file }

let call s j =
  P.Client.send s.clients.(0) j;
  match P.Client.recv s.clients.(0) with
  | Some r -> r
  | None -> failwith "serve_edit: server closed the connection"

let stop s =
  ignore (call s (J.Obj [ ("op", J.Str "shutdown") ]));
  Array.iter P.Client.close s.clients;
  ignore (Unix.waitpid [] s.pid);
  live := List.filter (( <> ) s.pid) !live

(* ------------------------------------------------------------------ *)
(* Replies and their check                                              *)

type reply = {
  req : Gen.request;
  kind : Gen.kind option;  (* None: a warm-up job *)
  ok : bool;
  verilog_digest : string;
  latency : float;  (* client-side, s *)
  run_s : float;  (* the server's compile_job time *)
}

let reply_of frame ~req ~kind ~latency =
  let status = J.field_str frame "status" in
  {
    req; kind;
    ok = status = Some "ok";
    verilog_digest = Digest.string (Option.value ~default:"" (J.field_str frame "verilog"));
    latency;
    run_s = Option.value ~default:0. (J.field_num frame "seconds");
  }

let cacheless t (req : Gen.request) =
  Driver.compile_job
    (Driver.job_of_text ~top:req.Gen.top ~pipeline:(Hir_driver.Pipeline.default ~optimize:true)
       ~name:source_name (render t req.Gen.consts))

(* Every reply is [ok] and carries the Verilog of an in-process,
   cacheless compile of the same request. *)
let check_replies t replies =
  let memo = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let key = (r.req.Gen.consts, r.req.Gen.top) in
      let expected =
        match Hashtbl.find_opt memo key with
        | Some d -> d
        | None ->
          let d =
            match cacheless t r.req with
            | Ok o -> Some (Digest.string o.Driver.verilog)
            | Error e ->
              prerr_endline (Driver.error_to_string e);
              None
          in
          Hashtbl.replace memo key d;
          d
      in
      Common.check r.ok "reply for @%s not ok" r.req.Gen.top;
      Common.check
        ((not r.ok) || expected = Some r.verilog_digest)
        "reply for @%s differs from a cacheless compile" r.req.Gen.top)
    replies

(* ------------------------------------------------------------------ *)
(* Driving the server                                                   *)

(* Warm-up: every top once on the base source, one at a time. *)
let warm_up s t =
  let tops = List.sort_uniq compare (Array.to_list t.slot_tops @ Array.to_list switch_tops) in
  List.mapi
    (fun i top ->
      let req = { Gen.consts = t.base; top } in
      let line = request_line ~id:(Printf.sprintf "warm-%d" i) ~source:(render t t.base) ~top in
      let t0 = Common.now () in
      P.Client.send_line s.clients.(0) line;
      match P.Client.recv s.clients.(0) with
      | Some frame -> reply_of frame ~req ~kind:None ~latency:(Common.now () -. t0)
      | None -> failwith "serve_edit: server closed the connection")
    tops

(* One round: the next block of every connection's session, in a
   closed loop (a connection sends its next job when the previous reply
   arrives); the round ends when every block is done. *)
let round s t sessions ~next_id ~on_reply =
  let blocks = Array.map Gen.next_block sessions in
  let pending = Array.make connections None in
  let send c =
    match blocks.(c) with
    | [] -> ()
    | (job : Gen.job) :: rest ->
      blocks.(c) <- rest;
      let line = request_line ~id:(next_id ()) ~source:(render t job.Gen.req.Gen.consts) ~top:job.Gen.req.Gen.top in
      let t0 = Common.now () in
      P.Client.send_line s.clients.(c) line;
      pending.(c) <- Some (job, t0)
  in
  for c = 0 to connections - 1 do send c done;
  let n = ref 0 in
  let rec loop () =
    let waiting = List.filter (fun c -> pending.(c) <> None) (List.init connections Fun.id) in
    if waiting <> [] then begin
      let fds = List.map (fun c -> s.clients.(c).P.Client.fd) waiting in
      let ready, _, _ = Unix.select fds [] [] 120. in
      if ready = [] then failwith "serve_edit: no reply within 120 s";
      List.iter
        (fun c ->
          if List.mem s.clients.(c).P.Client.fd ready then
            match (pending.(c), P.Client.recv s.clients.(c)) with
            | Some (job, t0), Some frame ->
              let latency = Common.now () -. t0 in
              pending.(c) <- None;
              incr n;
              on_reply (reply_of frame ~req:job.Gen.req ~kind:(Some job.Gen.kind) ~latency);
              send c
            | _, None -> failwith "serve_edit: server closed the connection"
            | None, Some _ -> ())
        waiting;
      loop ()
    end
  in
  loop ();
  !n

(* A warmed server's session: whole rounds for [seconds], then its
   metrics, then stop.  Returns the replies in completion order,
   warm-up first, and the metrics reply. *)
let session ~seed ~seconds s t ~warm =
  let sessions =
    Array.init connections (fun conn ->
        Gen.session ~seed ~conn ~base:t.base ~slot_tops:t.slot_tops ~switch_tops)
  in
  let replies = ref (List.rev warm) in
  let ids = ref 0 in
  let next_id () = incr ids; Printf.sprintf "job-%d" !ids in
  ignore
    (Common.run_rounds ~seconds ~min_ops:0 (fun () ->
         round s t sessions ~next_id ~on_reply:(fun r -> replies := r :: !replies)));
  let metrics = call s (J.Obj [ ("op", J.Str "metrics") ]) in
  stop s;
  (List.rev !replies, metrics)

(* ------------------------------------------------------------------ *)
(* Traced-run figures                                                   *)

let field_path j path = List.fold_left (fun j k -> Option.bind j (J.mem k)) (Some j) path
let num j path = Option.value ~default:0. (Option.bind (field_path j path) J.num_opt)

(* Mean time per job of each span name in the server's Chrome trace. *)
let span_means file ~jobs =
  let doc = In_channel.with_open_bin file In_channel.input_all in
  let totals = Hashtbl.create 16 in
  (match J.parse doc with
  | Ok j -> (
    match J.mem "traceEvents" j with
    | Some (J.Arr events) ->
      List.iter
        (fun e ->
          match (J.field_str e "ph", J.field_str e "name", J.field_num e "dur") with
          | Some "X", Some name, Some dur ->
            Hashtbl.replace totals name (dur +. Option.value ~default:0. (Hashtbl.find_opt totals name))
          | _ -> ())
        events
    | _ -> Common.check false "server trace has no traceEvents")
  | Error e -> Common.check false "server trace does not parse: %s" e);
  fun name -> Option.value ~default:0. (Hashtbl.find_opt totals name) /. 1000. /. float_of_int jobs

(* The same job stream, replayed in-process in completion order against
   a fresh cache: hit ratio per entry kind. *)
let replay_kind_ratios t replies ~dir =
  let cache = Hir_driver.Cache.create ~dir () in
  List.iter
    (fun r ->
      ignore
        (Driver.compile_job ~cache
           (Driver.job_of_text ~top:r.req.Gen.top ~pipeline:(Hir_driver.Pipeline.default ~optimize:true)
              ~name:source_name (render t r.req.Gen.consts))))
    replies;
  List.map
    (fun (kind, (st : Hir_driver.Cache.kind_stat)) ->
      let total = st.Hir_driver.Cache.k_hits + st.Hir_driver.Cache.k_misses in
      ( Printf.sprintf "cache.%s_hit_ratio" (Hir_driver.Cache.kind_to_string kind),
        if total = 0 then 0. else float_of_int st.Hir_driver.Cache.k_hits /. float_of_int total ))
    (Hir_driver.Cache.kind_stats cache)

(* Journal records of the workload's own jobs: admit + done, each
   fsynced, per job. *)
let journal_append_ms t replies ~dir =
  let j = Hir_driver.Journal.open_journal ~dir in
  let times =
    List.mapi
      (fun i r ->
        let source = render t r.req.Gen.consts in
        let id = Printf.sprintf "job-%d" i in
        let a =
          { Hir_driver.Journal.a_client = "bench"; a_id = id;
            a_digest =
              Hir_driver.Journal.digest_of_request ~kernel:None ~name:(Some source_name)
                ~source:(Some source) ~top:(Some r.req.Gen.top) ~passes:None;
            a_kernel = None; a_name = Some source_name; a_source = Some source;
            a_top = Some r.req.Gen.top; a_passes = None; a_priority = 0; a_deadline = None;
            a_want_verilog = true }
        in
        snd
          (Common.time (fun () ->
               let ok r = Common.check (Result.is_ok r) "journal append failed" in
               ok (Hir_driver.Journal.append_admit j a);
               ok (Hir_driver.Journal.append_done j ~client:"bench" ~id ~status:"ok"))))
      replies
  in
  Hir_driver.Journal.close j;
  Common.ms (Stats.median times)

(* ------------------------------------------------------------------ *)
(* The session                                                          *)

(* Scratch directories for one process's server, cache and journal. *)
let fresh_dirs () =
  let root = Common.scratch_dir "serve" in
  let n = ref 0 in
  fun name ->
    incr n;
    let d = Filename.concat root (Printf.sprintf "%s-%d" name !n) in
    Unix.mkdir d 0o755;
    d

(* The cache, service and journal layers, from a session of [seconds]
   on a server writing its own trace; every reply is checked against a
   cacheless in-process compile.  Times are per job. *)
let service_layers ~hirc ~seed ~seconds =
  let fresh = fresh_dirs () in
  let t = template () in
  let s = start ~hirc ~dir:(fresh "server") in
  let replies, metrics = session ~seed ~seconds s t ~warm:(warm_up s t) in
  check_replies t replies;
  let span = span_means s.trace_file ~jobs:(List.length replies) in
  let timed = List.filter (fun r -> r.kind <> None) replies in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0. timed /. float_of_int (List.length timed) in
  let m path = num metrics path in
  replay_kind_ratios t replies ~dir:(fresh "replay-cache")
  @ [
      ("cache.lookup_ms", span "cache-lookup");
      ("cache.store_ms", span "cache-store");
      ("serve.queue_ms_p50", Common.ms (m [ "latency"; "queue"; "p50_s" ]));
      ("serve.run_ms_p50", Common.ms (Stats.median (List.map (fun r -> r.run_s) timed)));
      ("serve.wire_ms_mean", Common.ms (mean (fun r -> r.latency) -. m [ "latency"; "total"; "mean_s" ]));
      ( "journal.append_ms",
        journal_append_ms t (List.filteri (fun i _ -> i < 200) timed) ~dir:(fresh "journal") );
    ]
