(* The benchmark's own tests: the sampler's statistics, the ledger's
   faithfulness to the soak it replays, and the ledger's arithmetic. *)

open Core
open Perfbench

let close = Alcotest.float 1e-9

(* reference values from Python's statistics.quantiles(data, n=4) *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Sampler.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "unsorted" [ 3.; 1.; 2. ] (1., 2., 3.);
  check "pair" [ 5.; 5. ] (5., 5., 5.);
  check "1..4" [ 4.; 2.; 1.; 3. ] (1.25, 2.5, 3.75)

let test_median_percentile () =
  Alcotest.check close "odd median" 2. (Sampler.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Sampler.median [ 4.; 1.; 3.; 2. ]);
  let xs = List.init 101 float_of_int in
  Alcotest.check close "p50" 50. (Sampler.percentile xs 50.);
  Alcotest.check close "p99" 99. (Sampler.percentile xs 99.);
  Alcotest.check close "p98 of 0..10" 9.8
    (Sampler.percentile (List.init 11 float_of_int) 98.);
  let s = Sampler.summarise [ 1.; 2.; 3.; 4. ] in
  Alcotest.check close "spread" ((3.75 -. 1.25) /. 2.5) (Sampler.spread s)

let tiny_cfg seed = { Soak.default with Soak.txns = 60; seed }

(* Capturing checks itself against Soak.run (steps, commits, aborts,
   segments); replaying must then answer every step as the soak did. *)
let test_replay_responses () =
  List.iter
    (fun impl ->
      List.iter
        (fun seed ->
          let c = Ledger.capture impl (tiny_cfg seed) in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d responses" (Registry.name impl) seed)
            0 (Ledger.response_mismatches c))
        [ 1; 2 ])
    Registry.all

let test_ledger_sums () =
  let caps = List.map (fun impl -> Ledger.capture impl (tiny_cfg 1)) Registry.all in
  let l = Ledger.measure ~seconds:0.5 ~min_rounds:20 caps in
  (* a layer's raw self time may dip below 0 only by noise within the
     stated tolerance *)
  List.iter
    (fun (r : Ledger.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s self time %.1f ns is non-negative" r.Ledger.name
           r.Ledger.ns)
        true
        (r.Ledger.ns >= -.Ledger.tolerance *. l.Ledger.total.Ledger.ns))
    l.Ledger.raw;
  Alcotest.(check bool)
    (Printf.sprintf "rows sum to sim.step within tolerance (gap %.1f%%)"
       (100. *. Ledger.gap l))
    true (Ledger.within_tolerance l);
  Alcotest.(check bool) "steps counted" true (l.Ledger.steps > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "sampler",
        [
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "median and percentiles" `Quick
            test_median_percentile;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "replay answers as the soak did" `Quick
            test_replay_responses;
          Alcotest.test_case "rows sum to the step" `Quick test_ledger_sums;
        ] );
    ]
