(* The flight recorder: the window over a log (wraparound, and the law
   that it behaves as the old ring did), the JSONL artifact round-trip and
   its index check, deterministic replay of a dumped schedule, the golden
   Figure-1 timeline, registry prefix lookup, and unsat-core provenance. *)

open Core

let j = Obs_json.to_string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Access_log.entry equality via the artifact codecs *)
let entry_eq (a : Access_log.entry) (b : Access_log.entry) =
  a.Access_log.index = b.Access_log.index
  && a.Access_log.pid = b.Access_log.pid
  && a.Access_log.tid = b.Access_log.tid
  && Oid.equal a.Access_log.oid b.Access_log.oid
  && a.Access_log.changed = b.Access_log.changed
  && j (Flight.prim_json a.Access_log.prim)
     = j (Flight.prim_json b.Access_log.prim)
  && j (Flight.value_json a.Access_log.response)
     = j (Flight.value_json b.Access_log.response)

(* a log of [n] writes, step i by process [pid_of i] in its own txn *)
let log_of ~pid_of n =
  let log = Access_log.create () in
  for i = 0 to n - 1 do
    let pid = pid_of i in
    Access_log.record log ~pid ~tid:(Some (Tid.v pid))
      ~oid:(Oid.of_int (i mod 3)) ~prim:(Primitive.Write (Value.int i))
      ~response:Value.unit ~changed:true
  done;
  log

(* ------------------------------------------------------------------ *)
(* the window: a cap keeps the log's trailing steps *)

let test_wraparound () =
  let fl = Flight.create ~cap:4 () in
  Flight.attach fl (log_of ~pid_of:(fun _ -> 1) 10);
  Alcotest.(check int) "recorded" 10 (Flight.recorded fl);
  Alcotest.(check int) "dropped" 6 (Flight.dropped fl);
  Alcotest.(check (list int))
    "last cap steps retained, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Access_log.entry) -> e.Access_log.index)
       (Log_ref.entries (Flight.steps fl)));
  Flight.reset fl;
  Alcotest.(check int) "reset empties" 0 (Flight.recorded fl);
  Alcotest.(check int) "reset clears drops" 0 (Flight.dropped fl)

let test_wraparound_export () =
  let fl = Flight.create ~cap:3 () in
  Flight.attach fl (log_of ~pid_of:(fun i -> 1 + (i mod 2)) 5);
  let text = Flight.to_jsonl fl in
  match Flight.parse text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok fl' ->
      Alcotest.(check int) "dropped survives import" 2 (Flight.dropped fl');
      Alcotest.(check int) "recorded survives import" 5 (Flight.recorded fl');
      Alcotest.(check string) "re-export is identical" text
        (Flight.to_jsonl fl')

(* The window against the ring it replaced (Flight_ring_ref), which a
   per-step hook filled: random logs over every primitive kind, any cap
   from 1 to twice the length, and the recorder reset or re-attached to a
   second log part way through. *)
let gen_window_case =
  let open QCheck.Gen in
  let value =
    oneof
      [
        return Value.unit;
        map Value.bool bool;
        map Value.int (int_range (-5) 300);
        map2 Value.pair (map Value.int small_nat) (map Value.bool bool);
      ]
  in
  let prim =
    oneof
      [
        return Primitive.Read;
        map (fun v -> Primitive.Write v) value;
        map2
          (fun expected desired -> Primitive.Cas { expected; desired })
          value value;
        map (fun n -> Primitive.Fetch_add n) small_signed_int;
        map (fun p -> Primitive.Try_lock p) (int_range 1 40);
        map (fun p -> Primitive.Unlock p) (int_range 1 40);
        map (fun p -> Primitive.Load_linked p) (int_range 1 40);
        map2
          (fun p v -> Primitive.Store_conditional (p, v))
          (int_range 1 40) value;
      ]
  in
  let step =
    map3
      (fun (pid, tid) (oid, p) (resp, changed) ->
        (pid, tid, oid, p, resp, changed))
      (pair (int_range 1 40) (opt (int_range 1 12)))
      (pair (int_range 0 4) prim)
      (pair value bool)
  in
  list_size (0 -- 60) step >>= fun steps ->
  let n = List.length steps in
  map3
    (fun cap cut reattach -> (steps, cap, cut, reattach))
    (int_range 1 (max 1 (2 * n)))
    (int_range 0 n) bool

let test_window_law =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"window = ring oracle"
       (QCheck.make gen_window_case ~print:(fun (steps, cap, cut, reattach) ->
            Printf.sprintf "%d steps, cap %d, %s before step %d"
              (List.length steps) cap
              (if reattach then "re-attach" else "reset")
              cut))
       (fun (steps, cap, cut, reattach) ->
         let fl = Flight.create ~cap () in
         let ring = Flight_ring_ref.create ~cap in
         let log = ref (Access_log.create ()) in
         Flight.attach fl !log;
         (* the ring's hook: record each step as the attached log takes it *)
         let hooked = ref true in
         let cut_here () =
           Flight_ring_ref.reset ring;
           if reattach then begin
             log := Access_log.create ();
             Flight.attach fl !log
           end
           else begin
             Flight.reset fl;
             hooked := false
           end
         in
         let n = List.length steps in
         List.iteri
           (fun i (pid, tid, oid, prim, response, changed) ->
             if i = cut then cut_here ();
             Access_log.record !log ~pid ~tid:(Option.map Tid.v tid)
               ~oid:(Oid.of_int oid) ~prim ~response ~changed;
             if !hooked then
               Flight_ring_ref.record ring
                 (Access_log.get !log (Access_log.length !log - 1)))
           steps;
         if cut = n then cut_here ();
         let names = [| "a"; "b"; "c" |] in
         let verdict =
           {
             Flight.source = "law";
             verdict = "unsat";
             axiom = "none";
             witness_txns = [ Tid.v 1 ];
             witness_steps = [ cut ];
           }
         in
         Flight.set_names fl names;
         Flight.set_meta fl "tm" "law";
         Flight.add_verdict fl verdict;
         Flight_ring_ref.set_names ring names;
         Flight_ring_ref.set_meta ring "tm" "law";
         Flight_ring_ref.add_verdict ring verdict;
         let text = Flight_ring_ref.to_jsonl ring in
         Log_ref.entries (Flight.steps fl) = Flight_ring_ref.steps ring
         && Flight.recorded fl = Flight_ring_ref.recorded ring
         && Flight.dropped fl = Flight_ring_ref.dropped ring
         && List.for_all
              (fun i ->
                Flight.find_step fl i = Flight_ring_ref.find_step ring i)
              (List.init (n + 2) (fun i -> i - 1))
         && Flight.to_jsonl fl = text
         &&
         match Flight.parse text with
         | Ok fl' -> Flight.to_jsonl fl' = text
         | Error _ -> false))

(* ------------------------------------------------------------------ *)
(* a parsed step can only be the next index after the declared drops *)

let four_step_lines () =
  let fl = Flight.create () in
  Flight.attach fl (log_of ~pid_of:(fun _ -> 1) 4);
  (* lines 1 and 2 are the header and the objects; steps i = 0..3 follow *)
  String.split_on_char '\n' (Flight.to_jsonl fl)

let expect_rejected ~sub lines =
  match Flight.parse (String.concat "\n" lines) with
  | Ok _ -> Alcotest.fail "parse accepted a non-consecutive step index"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names %S" msg sub)
        true (contains ~sub msg)

let test_parse_index_gap () =
  (* drop step 1: line 4 then holds step 2 *)
  expect_rejected ~sub:"line 4: step index 2 where 1 was expected"
    (List.filteri (fun i _ -> i <> 3) (four_step_lines ()))

let test_parse_index_order () =
  (* swap steps 1 and 2 *)
  let l = Array.of_list (four_step_lines ()) in
  let s1 = l.(3) in
  l.(3) <- l.(4);
  l.(4) <- s1;
  expect_rejected ~sub:"line 4: step index 2 where 1 was expected"
    (Array.to_list l)

(* An artifact's step fields are bounded by the widths of the packed log
   word: a pid past {!Access_log.max_pid} (it also sizes the rebuilt
   log's per-process heads), an oid past [max_oid] or a transaction past
   [max_tid] is an error naming its line, never a wrapped field *)
let with_field key v line =
  let key = Printf.sprintf "\"%s\":" key in
  let rec find i =
    if String.sub line i (String.length key) = key then i else find (i + 1)
  in
  let start = find 0 + String.length key in
  let stop = String.index_from line start ',' in
  String.sub line 0 start ^ string_of_int v
  ^ String.sub line stop (String.length line - stop)

(* line 3 holds step 0 *)
let parse_with key v =
  Flight.parse
    (String.concat "\n"
       (List.mapi
          (fun i l -> if i = 2 then with_field key v l else l)
          (four_step_lines ())))

let test_parse_bound key v ~sub () =
  match parse_with key v with
  | Ok _ -> Alcotest.failf "parse accepted %s %d" key v
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names %S" msg sub)
        true (contains ~sub msg)

let test_parse_pid_bound pid =
  test_parse_bound "pid" pid
    ~sub:(Printf.sprintf "line 3: pid %d outside 0..4095" pid)

let test_parse_full_width () =
  List.iter
    (fun (key, v) ->
      match parse_with key v with
      | Ok fl ->
          let e = Access_log.step (Flight.steps fl) 0 in
          Alcotest.(check int)
            (key ^ " reads back")
            v
            (match key with
            | "pid" -> e.Access_log.pid
            | "oid" -> Oid.to_int e.Access_log.oid
            | _ -> Option.fold ~none:(-1) ~some:Tid.to_int e.Access_log.tid)
      | Error msg -> Alcotest.failf "%s %d rejected: %s" key v msg)
    [ ("pid", Access_log.max_pid); ("oid", Access_log.max_oid);
      ("tid", Access_log.max_tid) ]

(* ------------------------------------------------------------------ *)
(* record -> export -> import round-trip on a real execution *)

let record_delta1 () =
  let impl = Registry.find_exn "candidate" in
  let fl = Flight.create () in
  let (_ : Pcl_harness.run) =
    Flight.with_recorder fl (fun () ->
        Pcl_harness.run impl Pcl_constructions.delta1)
  in
  Flight.set_meta fl "tm" "candidate";
  fl

let test_roundtrip () =
  let fl = record_delta1 () in
  Flight.add_verdict fl
    {
      Flight.source = "demo";
      verdict = "unsat";
      axiom = "demo axiom";
      witness_txns = [ Tid.v 1 ];
      witness_steps = [ 3; 4 ];
    };
  Alcotest.(check bool) "recorded something" true (Flight.recorded fl > 0);
  let text = Flight.to_jsonl fl in
  match Flight.parse text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok fl' ->
      Alcotest.(check string) "re-export is identical" text
        (Flight.to_jsonl fl');
      Alcotest.(check bool) "steps round-trip" true
        (List.for_all2 entry_eq
           (Log_ref.entries (Flight.steps fl))
           (Log_ref.entries (Flight.steps fl')));
      Alcotest.(check bool) "history rounds-trips" true
        (List.for_all2 Event.equal
           (History.to_list (Flight.history fl))
           (History.to_list (Flight.history fl')));
      Alcotest.(check (list (pair string string)))
        "meta round-trips" (Flight.meta fl) (Flight.meta fl');
      Alcotest.(check int) "verdicts round-trip" 1
        (List.length (Flight.verdicts fl'))

(* ------------------------------------------------------------------ *)
(* deterministic replay: the schedule stored in a dumped artifact
   reproduces the recorded step stream bit-for-bit *)

let test_replay_from_artifact () =
  let fl = record_delta1 () in
  let text = Flight.to_jsonl fl in
  let fl' = Result.get_ok (Flight.parse text) in
  let schedule_str =
    Option.get (Flight.meta_value fl' "schedule")
  in
  let atoms = Result.get_ok (Schedule.of_string schedule_str) in
  let impl = Registry.find_exn "candidate" in
  let fl2 = Flight.create () in
  let (_ : Pcl_harness.run) =
    Flight.with_recorder fl2 (fun () -> Pcl_harness.run impl atoms)
  in
  Alcotest.(check int)
    "same number of steps"
    (Flight.steps fl').Access_log.len
    (Flight.steps fl2).Access_log.len;
  Alcotest.(check bool) "replayed steps are bit-identical" true
    (List.for_all2 entry_eq
       (Log_ref.entries (Flight.steps fl'))
       (Log_ref.entries (Flight.steps fl2)))

let test_schedule_string_roundtrip () =
  let atoms =
    [ Schedule.Steps (1, 7); Schedule.Until_done 3; Schedule.Steps (12, 1) ]
  in
  let s = Schedule.to_string atoms in
  Alcotest.(check string) "compact form" "p1:7,p3:*,p12:1" s;
  Alcotest.(check bool) "of_string inverts to_string" true
    (Result.get_ok (Schedule.of_string s) = atoms);
  Alcotest.(check bool) "bad token rejected" true
    (Result.is_error (Schedule.of_string "p1:x"))

let test_negative_steps_rejected () =
  Alcotest.(check (result reject string))
    "the error names the token"
    (Error "negative step count in \"p1:-3\"")
    (Schedule.of_string "p1:-3,p3:*");
  Alcotest.(check bool) "zero steps still parse" true
    (Schedule.of_string "p1:0" = Ok [ Schedule.Steps (1, 0) ])

(* The solo spins [pcl_tm trace --log] stalls on: a reader behind a
   suspended committer re-runs one failing step (a try-lock on tl-lock, a
   locked-cell read on tl2-clock, a read of the odd sequence word on
   norec) until the harness's 50,000-step budget ends.  The test rules
   write each run's stdout and stderr; the digests were taken from runs
   that stepped every attempt one at a time, so a bulk append that drifts
   by one entry changes them. *)
let spin_logs =
  [ ( "tl-lock", "dbe889b3aae9ce6e754beb93034b90a2",
      {|{"schema":1,"type":"reason","code":"PCL-E106","message":"p3 stalled; its last step was #50004","pid":3,"step":50004,"object":"lock:b1","prim":"trylock"}|}
    );
    ( "tl2-clock", "8498407988b7bbe4dcfaaae1e6f9b660",
      {|{"schema":1,"type":"reason","code":"PCL-E106","message":"p2 stalled; its last step was #50022","pid":2,"step":50022,"object":"tv:a","prim":"read"}|}
    );
    ( "norec", "3d366b52a992fbaef90a37495d791315",
      {|{"schema":1,"type":"reason","code":"PCL-E106","message":"p3 stalled; its last step was #50007","pid":3,"step":50007,"object":"seq","prim":"read"}|}
    ) ]

let test_spin_log (tm, digest, reason) () =
  let file ext = Printf.sprintf "spin-%s.%s" tm ext in
  Alcotest.(check string) "stdout digest" digest
    (Digest.to_hex (Digest.file (file "log")));
  Alcotest.(check string) "reason line" (reason ^ "\n")
    (In_channel.with_open_bin (file "err") In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* golden render: Figure 1 (top) for the candidate TM *)

let test_golden_figure1 () =
  let impl = Registry.find_exn "candidate" in
  let c = Result.get_ok (Pcl_constructions.build impl) in
  let rendered =
    Pcl_figures.render_timeline impl
      (Pcl_constructions.alpha1_s1_alpha3 c)
      ~highlight_steps:(fun run ->
        match Pcl_harness.nth_step_of_pid run 1 c.Pcl_constructions.k1 with
        | Some e -> [ e.Access_log.index ]
        | None -> [])
  in
  let expected =
    String.concat "\n"
      [
        "step        0          10         ";
        "p1         (rrrrrcrc..............";
        "p3         .........(rrrrrcrcrcrcC";
        "witness            ^              ";
        "x:cell:b1  .......-x.-..-.........";
        "x:cell:b3  .-..-.........-x.......";
        Timeline.legend;
        "";
      ]
  in
  Alcotest.(check string) "figure 1 golden render" expected rendered

(* ------------------------------------------------------------------ *)
(* registry prefix lookup *)

let test_registry_lookup () =
  (match Registry.lookup "tl" with
  | Registry.Ambiguous candidates ->
      Alcotest.(check (list string))
        "ambiguous candidates listed" [ "tl-lock"; "tl2-clock" ] candidates
  | _ -> Alcotest.fail "expected Ambiguous for \"tl\"");
  (match Registry.lookup "tl2" with
  | Registry.Found (module M : Tm_intf.S) ->
      Alcotest.(check string) "unique prefix resolves" "tl2-clock" M.name
  | _ -> Alcotest.fail "expected Found for \"tl2\"");
  (match Registry.lookup "nope" with
  | Registry.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown for \"nope\"");
  (match Registry.find_exn "tl" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the candidates" true
        (contains ~sub:"tl-lock" msg && contains ~sub:"tl2-clock" msg)
  | _ -> Alcotest.fail "expected Invalid_argument for ambiguous find_exn");
  (* the new TM corners made two more one-letter prefixes ambiguous; pin
     the exact error text so shell-completion docs stay honest *)
  (match Registry.find_exn "l" with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "\"l\" ambiguity message"
        "Registry.find_exn: \"l\" is ambiguous (matches llsc-candidate, \
         lp-progressive)"
        msg
  | _ -> Alcotest.fail "expected Invalid_argument for \"l\"");
  match Registry.find_exn "p" with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "\"p\" ambiguity message"
        "Registry.find_exn: \"p\" is ambiguous (matches pram-local, \
         pwf-readers)"
        msg
  | _ -> Alcotest.fail "expected Invalid_argument for \"p\""

(* ------------------------------------------------------------------ *)
(* provenance: the unsat core of write-skew under serializability is the
   skewing pair itself *)

let test_provenance_write_skew () =
  let a = Anomalies.find "write-skew" in
  let checker = Checkers.find_exn "serializability" in
  match Provenance.of_unsat checker a.Anomalies.history with
  | None -> Alcotest.fail "serializability should reject write-skew"
  | Some p ->
      Alcotest.(check (list int))
        "core is the skewing pair" [ 1; 2 ]
        (List.sort compare (List.map Tid.to_int p.Provenance.txns));
      Alcotest.(check string) "source" "serializability" p.Provenance.source;
      Alcotest.(check bool) "axiom is worded" true
        (String.length p.Provenance.axiom > 0)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_wraparound;
          Alcotest.test_case "wraparound export" `Quick
            test_wraparound_export;
          test_window_law;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "index gap rejected" `Quick test_parse_index_gap;
          Alcotest.test_case "index order rejected" `Quick
            test_parse_index_order;
          Alcotest.test_case "pid max_int rejected" `Quick
            (test_parse_pid_bound max_int);
          Alcotest.test_case "pid 10^9 rejected" `Quick
            (test_parse_pid_bound 1_000_000_000);
          Alcotest.test_case "pid one past its width rejected" `Quick
            (test_parse_pid_bound (Access_log.max_pid + 1));
          Alcotest.test_case "oid one past its width rejected" `Quick
            (test_parse_bound "oid" (Access_log.max_oid + 1)
               ~sub:"line 3: Access_log.record: oid 262144 outside 0..262143");
          Alcotest.test_case "tid one past its width rejected" `Quick
            (test_parse_bound "tid" (Access_log.max_tid + 1)
               ~sub:
                 "line 3: Access_log.record: tid 4294967295 outside \
                  0..4294967294");
          Alcotest.test_case "fields at full width accepted" `Quick
            test_parse_full_width;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "replay from artifact" `Quick
            test_replay_from_artifact;
          Alcotest.test_case "schedule strings" `Quick
            test_schedule_string_roundtrip;
          Alcotest.test_case "negative step count rejected" `Quick
            test_negative_steps_rejected;
        ] );
      ( "spin logs",
        List.map
          (fun ((tm, _, _) as pin) ->
            Alcotest.test_case tm `Quick (test_spin_log pin))
          spin_logs );
      ( "timeline",
        [ Alcotest.test_case "figure 1 golden" `Quick test_golden_figure1 ] );
      ( "registry",
        [ Alcotest.test_case "prefix lookup" `Quick test_registry_lookup ] );
      ( "provenance",
        [
          Alcotest.test_case "write-skew core" `Quick
            test_provenance_write_skew;
        ] );
    ]
