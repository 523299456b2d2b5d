(* Seeded input generators.  Every input a workload feeds the program
   comes from here, as a pure function of the run's --seed, so the
   same seed reproduces the same inputs whatever the run length. *)

(* splitmix64 on OCaml's 63-bit ints (the state wraps; only the
   determinism matters, not 64-bit fidelity). *)
module Rng = struct
  type t = { mutable s : int }

  let mix z =
    let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
    let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
    z lxor (z lsr 31)

  let create seed = { s = mix (seed + 0x1e3779b97f4a7c15) }

  let next t =
    t.s <- t.s + 0x1e3779b97f4a7c15;
    mix t.s land max_int

  let int t bound = next t mod bound

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* A sub-seed for one named stream of a run. *)
let derive seed parts = Rng.mix (List.fold_left (fun acc p -> Rng.mix (acc + p)) seed parts)
let stream seed name = Rng.create (derive seed [ Hashtbl.hash name ])

(* The order in which a cold_compile round visits its [n] designs. *)
let compile_order ~seed n =
  let a = Array.init n Fun.id in
  Rng.shuffle (stream seed "compile-order") a;
  a

(* [count] stimulus seeds for one kernel of sim_regress, each a small
   positive int as the kernels' input generators expect. *)
let stimulus_seeds ~seed ~kernel ~count =
  let r = stream seed ("stimulus:" ^ kernel) in
  Array.init count (fun _ -> 1 + Rng.int r 0xFFFFFF)

(* ------------------------------------------------------------------ *)
(* serve_edit job stream                                                *)

(* Each connection runs its own editing session against the shared
   module: a state of constant values (one per editable slot), and the
   last request sent.  A request is the constants it compiles plus its
   top function. *)
type kind = Edit | Resubmit | Switch

type request = { consts : int array; top : string }
type job = { kind : kind; req : request }

type session = {
  rng : Rng.t;
  slot_tops : string array;  (* top compiled after editing slot i *)
  switch_tops : string array;  (* tops whose cones no edit touches *)
  mutable current : int array;
  mutable last : request;
}

(* One block: [per_kind] jobs of each kind, in a seeded order. *)
let per_kind = 2

let kind_to_string = function Edit -> "edit" | Resubmit -> "resubmit" | Switch -> "switch"

let session ~seed ~conn ~base ~slot_tops ~switch_tops =
  if Array.length base <> Array.length slot_tops || switch_tops = [||] then
    invalid_arg "Gen.session";
  {
    rng = stream seed ("serve-conn-" ^ string_of_int conn);
    slot_tops;
    switch_tops;
    current = Array.copy base;
    (* The warm-up compiled every top on the base source, so the first
       resubmission is already a whole-job hit. *)
    last = { consts = Array.copy base; top = switch_tops.(0) };
  }

let next_job s kind =
  let req =
    match kind with
    | Resubmit -> s.last
    | Switch ->
      { consts = s.current; top = s.switch_tops.(Rng.int s.rng (Array.length s.switch_tops)) }
    | Edit ->
      let slot = Rng.int s.rng (Array.length s.current) in
      let old = s.current.(slot) in
      let v = ref old in
      while !v = old do
        v := 2 + Rng.int s.rng 65534
      done;
      let consts = Array.copy s.current in
      consts.(slot) <- !v;
      s.current <- consts;
      { consts; top = s.slot_tops.(slot) }
  in
  s.last <- req;
  { kind; req }

let next_block s =
  let kinds = Array.concat (List.map (fun k -> Array.make per_kind k) [ Edit; Resubmit; Switch ]) in
  Rng.shuffle s.rng kinds;
  Array.to_list (Array.map (next_job s) kinds)
