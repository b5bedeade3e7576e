(* The one sampler every workload and ledger row is measured with: it
   warms up, takes repeated samples, and summarises them by median and
   quartiles.  Wall time and CPU time are kept apart: wall time is what
   a user waits for, CPU time is what the process itself burned (the two
   differ when the machine is shared).

   Calibration.  On a shared machine the speed of the CPU itself drifts:
   on the 2-vCPU VM this benchmark was sized on, a fixed loop's CPU time
   swings by more than 2x over tens of seconds as neighbours come and
   go, far more than any bound a regression gate could use.  Each sample therefore also times a fixed calibration
   kernel (pure OCaml hashing, maps and sorting; no code of the program)
   just before and just after the measured call, and records the
   machine's speed as the kernel's reference time over its measured
   time.  A time scaled by that speed is the time the call would have
   taken on the reference machine; the benchmark reports times scaled
   this way and prints the raw ones beside them. *)

type sample = {
  wall_s : float;  (** elapsed wall-clock seconds *)
  cpu_s : float;  (** process CPU seconds *)
  words : float;  (** words allocated (minor + major - promoted) *)
  speed : float;
      (** machine speed around the sample: reference kernel time over
          measured kernel time (1 when not calibrated) *)
}

module Int_map = Map.Make (Int)

let kernel () =
  let h = Hashtbl.create 64 in
  let m = ref Int_map.empty in
  let acc = ref 0 in
  for i = 0 to 5_000 do
    let k = (i * 7919) land 4095 in
    Hashtbl.replace h k (i :: Option.value ~default:[] (Hashtbl.find_opt h k));
    m := Int_map.add (k lxor i) i !m;
    acc := !acc + List.length (List.sort compare [ k; i; k lxor i; 3 ])
  done;
  !acc + Int_map.cardinal !m + Hashtbl.length h

(** The kernel's time on the reference machine (a 2-vCPU VM at its usual
    speed); only a scale, so every calibrated time shares it. *)
let kernel_reference_s = 0.0025

(* the fastest of five timed kernel runs: interference only ever adds
   time, so the minimum is the steadiest reading of the machine's speed *)
let kernel_s () =
  let one () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (kernel ()));
    Unix.gettimeofday () -. t0
  in
  List.fold_left (fun m _ -> Float.min m (one ())) infinity [ 1; 2; 3; 4; 5 ]

(** Wall time scaled to the reference machine's speed. *)
let ref_s s = s.wall_s *. s.speed

type summary = { n : int; median : float; q1 : float; q3 : float }

(* Exact only after a minor collection: OCaml 5 folds the minor heap's
   allocation and direct major allocation into these counters when the
   minor heap is collected, so without one a reading lags by up to a
   minor heap. *)
let allocated_words () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> invalid_arg "Sampler.median: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by the "exclusive" method, the default of Python's
   [statistics.quantiles(data, n=4)], so the spreads reported here are
   the ones a reader recomputes from the printed samples. *)
let quartiles (xs : float list) : float * float * float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sampler.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let cut i =
      (* clamped to 1..n-1 before [delta] is taken, exactly as Python *)
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 2, cut 3)

let summarise (xs : float list) : summary =
  let q1, _, q3 = quartiles xs in
  { n = List.length xs; median = median xs; q1; q3 }

(** The [p]-th percentile (0..100), interpolating linearly between the
    closest ranks. *)
let percentile (xs : float list) p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sampler.percentile: no samples"
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(** Relative spread of a summary: interquartile range over median. *)
let spread s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. abs_float s.median

(** One uncalibrated sample ([speed] = 1). *)
let measure_raw (f : unit -> 'a) : 'a * sample =
  let w0 = allocated_words () in
  let c0 = Sys.time () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let c1 = Sys.time () in
  let w1 = allocated_words () in
  (r, { wall_s = t1 -. t0; cpu_s = c1 -. c0; words = w1 -. w0; speed = 1. })

(** One sample with the calibration kernel timed just before and after. *)
let measure (f : unit -> 'a) : 'a * sample =
  let k0 = kernel_s () in
  let r, s = measure_raw f in
  let k1 = kernel_s () in
  (r, { s with speed = kernel_reference_s /. ((k0 +. k1) /. 2.) })

(** [repeat ~seconds ~min_samples f]: one untimed warm-up call, then
    timed calls until [seconds] of wall time have passed and at least
    [min_samples] were taken.  Returns every timed result with its
    sample, oldest first. *)
let repeat ?(warmup = true) ~seconds ~min_samples (f : unit -> 'a) :
    ('a * sample) list =
  if warmup then ignore (f ());
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go n acc =
    if n >= min_samples && Unix.gettimeofday () >= deadline then List.rev acc
    else go (n + 1) (measure f :: acc)
  in
  go 0 []
