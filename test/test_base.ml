(* Unit and property tests for the shared-memory substrate (tm_base). *)

open Core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let value_tests =
  [
    Alcotest.test_case "initial value is 0" `Quick (fun () ->
        check "initial" true (Value.equal Value.initial (Value.int 0)));
    Alcotest.test_case "equal structural" `Quick (fun () ->
        check "pair eq" true
          (Value.equal
             (Value.pair (Value.int 1) (Value.bool true))
             (Value.pair (Value.int 1) (Value.bool true)));
        check "pair neq" false
          (Value.equal
             (Value.pair (Value.int 1) (Value.bool true))
             (Value.pair (Value.int 2) (Value.bool true))));
    Alcotest.test_case "to_int on ints only" `Quick (fun () ->
        check_int "int" 7 (Value.to_int_exn (Value.int 7));
        check "none" true (Value.to_int (Value.bool true) = None);
        Alcotest.check_raises "exn" (Invalid_argument "Value.to_int_exn: (VBool true)")
          (fun () -> ignore (Value.to_int_exn (Value.bool true))));
    Alcotest.test_case "to_pair/to_list" `Quick (fun () ->
        let p = Value.pair (Value.int 1) (Value.int 2) in
        check "pair" true (Value.to_pair_exn p = (Value.int 1, Value.int 2));
        let l = Value.list [ Value.int 1 ] in
        check "list" true (Value.to_list_exn l = [ Value.int 1 ]));
    Alcotest.test_case "compact printing" `Quick (fun () ->
        check_str "int" "7" (Value.to_string (Value.int 7));
        check_str "pair" "(1,true)"
          (Value.to_string (Value.pair (Value.int 1) (Value.bool true)));
        check_str "list" "[1;2]"
          (Value.to_string (Value.list [ Value.int 1; Value.int 2 ])));
  ]

let primitive_tests =
  [
    Alcotest.test_case "triviality classification" `Quick (fun () ->
        check "read trivial" true (Primitive.trivial Primitive.Read);
        check "ll trivial" true (Primitive.trivial (Primitive.Load_linked 1));
        check "write non-trivial" true
          (Primitive.non_trivial (Primitive.Write Value.unit));
        check "cas non-trivial" true
          (Primitive.non_trivial
             (Primitive.Cas { expected = Value.unit; desired = Value.unit }));
        check "faa non-trivial" true
          (Primitive.non_trivial (Primitive.Fetch_add 0));
        check "trylock non-trivial" true
          (Primitive.non_trivial (Primitive.Try_lock 1));
        check "unlock non-trivial" true
          (Primitive.non_trivial (Primitive.Unlock 1));
        check "sc non-trivial" true
          (Primitive.non_trivial (Primitive.Store_conditional (1, Value.unit))));
  ]

let obj () = Base_object.create (Value.int 0)

let base_object_tests =
  [
    Alcotest.test_case "read returns state, unchanged" `Quick (fun () ->
        let o = obj () in
        let v, changed = Base_object.apply o Primitive.Read in
        check "value" true (Value.equal v (Value.int 0));
        check "unchanged" false changed);
    Alcotest.test_case "write updates, reports change" `Quick (fun () ->
        let o = obj () in
        let _, ch1 = Base_object.apply o (Primitive.Write (Value.int 5)) in
        check "changed" true ch1;
        let _, ch2 = Base_object.apply o (Primitive.Write (Value.int 5)) in
        check "same value unchanged" false ch2;
        check "state" true (Value.equal (Base_object.value o) (Value.int 5)));
    Alcotest.test_case "cas succeeds iff expected matches" `Quick (fun () ->
        let o = obj () in
        let r, _ =
          Base_object.apply o
            (Primitive.Cas { expected = Value.int 0; desired = Value.int 1 })
        in
        check "success" true (Value.to_bool_exn r);
        let r, ch =
          Base_object.apply o
            (Primitive.Cas { expected = Value.int 0; desired = Value.int 2 })
        in
        check "failure" false (Value.to_bool_exn r);
        check "failure no change" false ch;
        check "state" true (Value.equal (Base_object.value o) (Value.int 1)));
    Alcotest.test_case "fetch_add returns old value" `Quick (fun () ->
        let o = obj () in
        let r, _ = Base_object.apply o (Primitive.Fetch_add 3) in
        check_int "old" 0 (Value.to_int_exn r);
        let r, _ = Base_object.apply o (Primitive.Fetch_add 4) in
        check_int "old2" 3 (Value.to_int_exn r);
        check_int "state" 7 (Value.to_int_exn (Base_object.value o)));
    Alcotest.test_case "fetch_add 0 reports no change" `Quick (fun () ->
        let o = obj () in
        let _, ch = Base_object.apply o (Primitive.Fetch_add 0) in
        check "unchanged" false ch);
    Alcotest.test_case "locks are exclusive and reentrant-aware" `Quick
      (fun () ->
        let o = obj () in
        let r, _ = Base_object.apply o (Primitive.Try_lock 1) in
        check "p1 acquires" true (Value.to_bool_exn r);
        let r, _ = Base_object.apply o (Primitive.Try_lock 2) in
        check "p2 denied" false (Value.to_bool_exn r);
        let r, _ = Base_object.apply o (Primitive.Try_lock 1) in
        check "p1 re-acquires (held)" true (Value.to_bool_exn r);
        check "holder" true (Base_object.lock_holder o = Some 1));
    Alcotest.test_case "unlock by non-holder is a no-op" `Quick (fun () ->
        let o = obj () in
        ignore (Base_object.apply o (Primitive.Try_lock 1));
        let _, ch = Base_object.apply o (Primitive.Unlock 2) in
        check "no change" false ch;
        check "still held" true (Base_object.locked o);
        ignore (Base_object.apply o (Primitive.Unlock 1));
        check "released" false (Base_object.locked o));
    Alcotest.test_case "ll/sc succeeds when undisturbed" `Quick (fun () ->
        let o = obj () in
        let v, ch = Base_object.apply o (Primitive.Load_linked 1) in
        check "ll reads" true (Value.equal v (Value.int 0));
        check "ll trivial effect" false ch;
        let r, _ =
          Base_object.apply o (Primitive.Store_conditional (1, Value.int 9))
        in
        check "sc ok" true (Value.to_bool_exn r);
        check "state" true (Value.equal (Base_object.value o) (Value.int 9)));
    Alcotest.test_case "sc without reservation fails" `Quick (fun () ->
        let o = obj () in
        let r, ch =
          Base_object.apply o (Primitive.Store_conditional (1, Value.int 9))
        in
        check "sc fails" false (Value.to_bool_exn r);
        check "no change" false ch);
    Alcotest.test_case "write invalidates ll reservation" `Quick (fun () ->
        let o = obj () in
        ignore (Base_object.apply o (Primitive.Load_linked 1));
        ignore (Base_object.apply o (Primitive.Write (Value.int 5)));
        let r, _ =
          Base_object.apply o (Primitive.Store_conditional (1, Value.int 9))
        in
        check "sc fails" false (Value.to_bool_exn r));
    Alcotest.test_case "successful cas invalidates ll reservation" `Quick
      (fun () ->
        let o = obj () in
        ignore (Base_object.apply o (Primitive.Load_linked 1));
        ignore
          (Base_object.apply o
             (Primitive.Cas { expected = Value.int 0; desired = Value.int 1 }));
        let r, _ =
          Base_object.apply o (Primitive.Store_conditional (1, Value.int 9))
        in
        check "sc fails" false (Value.to_bool_exn r));
    Alcotest.test_case "sc invalidates other reservations" `Quick (fun () ->
        let o = obj () in
        ignore (Base_object.apply o (Primitive.Load_linked 1));
        ignore (Base_object.apply o (Primitive.Load_linked 2));
        let r, _ =
          Base_object.apply o (Primitive.Store_conditional (1, Value.int 5))
        in
        check "first sc ok" true (Value.to_bool_exn r);
        let r, _ =
          Base_object.apply o (Primitive.Store_conditional (2, Value.int 6))
        in
        check "second sc fails" false (Value.to_bool_exn r));
  ]

let memory_tests =
  [
    Alcotest.test_case "alloc/find/name round trip" `Quick (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m ~name:"a" (Value.int 1) in
        let b = Memory.alloc m ~name:"b" (Value.int 2) in
        check "find a" true (Memory.find m "a" = Some a);
        check "find b" true (Memory.find m "b" = Some b);
        check "find missing" true (Memory.find m "c" = None);
        check_str "name_of" "b" (Memory.name_of m b);
        check_int "n_objects" 2 (Memory.n_objects m));
    Alcotest.test_case "duplicate name rejected" `Quick (fun () ->
        let m = Memory.create () in
        ignore (Memory.alloc m ~name:"a" Value.unit);
        check "raises" true
          (try
             ignore (Memory.alloc m ~name:"a" Value.unit);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "many allocations grow the table" `Quick (fun () ->
        let m = Memory.create () in
        for i = 0 to 99 do
          ignore (Memory.alloc m ~name:(Printf.sprintf "o%d" i) (Value.int i))
        done;
        check_int "count" 100 (Memory.n_objects m);
        check "values" true
          (Value.equal (Memory.peek m (Memory.find_exn m "o57")) (Value.int 57)));
    Alcotest.test_case "apply logs steps in order" `Quick (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m ~name:"a" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 a (Primitive.Write (Value.int 1)));
        ignore (Memory.apply m ~pid:2 ~tid:(Tid.v 9) a Primitive.Read);
        let log = Log_ref.of_log (Memory.log m) in
        check_int "length" 2 (List.length log);
        let e0 = List.nth log 0 and e1 = List.nth log 1 in
        check_int "idx0" 0 e0.Access_log.index;
        check_int "idx1" 1 e1.Access_log.index;
        check_int "pid" 2 e1.Access_log.pid;
        check "tid" true (e1.Access_log.tid = Some (Tid.v 9));
        check "response" true (Value.equal e1.Access_log.response (Value.int 1));
        check_int "step_count" 2 (Memory.step_count m));
    Alcotest.test_case "peek is not logged" `Quick (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m ~name:"a" (Value.int 0) in
        ignore (Memory.peek m a);
        check_int "no steps" 0 (Memory.step_count m));
    Alcotest.test_case "per-transaction footprint off the log columns" `Quick
      (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m ~name:"a" (Value.int 0) in
        let b = Memory.alloc m ~name:"b" (Value.int 0) in
        ignore (Memory.apply m ~pid:1 ~tid:(Tid.v 1) a Primitive.Read);
        ignore
          (Memory.apply m ~pid:1 ~tid:(Tid.v 1) b (Primitive.Write (Value.int 2)));
        ignore (Memory.apply m ~pid:2 ~tid:(Tid.v 2) a Primitive.Read);
        let log = Memory.log m in
        let t1_steps = ref 0 in
        Access_log.iter log ~f:(fun e ->
            if e.Access_log.tid = Some (Tid.v 1) then incr t1_steps);
        check_int "t1 steps" 2 !t1_steps;
        match Contention.summarize (Access_log.whole log) with
        | [ s1; s2 ] ->
            check "t1 first" true (Tid.equal s1.Contention.tid (Tid.v 1));
            check "t2 second" true (Tid.equal s2.Contention.tid (Tid.v 2));
            check "a trivial" true (Oid.Map.find a s1.Contention.objects = false);
            check "b non-trivial" true
              (Oid.Map.find b s1.Contention.objects = true);
            check_int "t2 touches a only" 1
              (Oid.Map.cardinal s2.Contention.objects)
        | l -> Alcotest.failf "expected two summaries, got %d" (List.length l));
    (* the count is checked before anything else: each memory below
       refuses the append for its own reason, and still raises on -1 *)
    Alcotest.test_case "repeat_last rejects a negative count on every path"
      `Quick (fun () ->
        let memory () =
          let m = Memory.create () in
          (m, Memory.alloc m ~name:"a" (Value.int 0))
        in
        let hooked, a = memory () in
        Memory.set_fault_hook hooked (fun ~pid:_ ~tid:_ ~step:_ _ _ -> None);
        ignore (Memory.apply hooked ~pid:1 a Primitive.Read);
        let changed, a = memory () in
        ignore (Memory.apply changed ~pid:1 a (Primitive.Write (Value.int 1)));
        let empty, _ = memory () in
        List.iter
          (fun (name, m) ->
            check (name ^ ": -1 raises") true
              (try
                 ignore (Memory.repeat_last m (-1));
                 false
               with Invalid_argument _ -> true);
            check (name ^ ": 0 refused") false (Memory.repeat_last m 0);
            check (name ^ ": 5 refused") false (Memory.repeat_last m 5))
          [ ("fault hook", hooked); ("changed", changed); ("empty", empty) ]);
  ]

(* chunked vectors: growth must be seamless across chunk boundaries, so
   drive them with tiny chunks (chunk_bits:2 = 4-element chunks) and
   cross many boundaries *)

let vec_tests =
  [
    Alcotest.test_case "intvec growth across chunk boundaries" `Quick
      (fun () ->
        let v = Intvec.create ~chunk_bits:2 () in
        for i = 0 to 99 do
          Intvec.push v (i * 3);
          check_int "length tracks pushes" (i + 1) (Intvec.length v)
        done;
        for i = 0 to 99 do
          check_int "get" (i * 3) (Intvec.get v i);
          check_int "unsafe_get" (i * 3) (Intvec.unsafe_get v i)
        done;
        check "to_list" true
          (Intvec.to_list v = List.init 100 (fun i -> i * 3)));
    Alcotest.test_case "intvec get bounds" `Quick (fun () ->
        let v = Intvec.create ~chunk_bits:2 () in
        Intvec.push v 1;
        check_int "get" 1 (Intvec.get v 0);
        check "get oob" true
          (try
             ignore (Intvec.get v 1);
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "intvec prefix is independent" `Quick (fun () ->
        let v = Intvec.create ~chunk_bits:2 () in
        for i = 0 to 20 do Intvec.push v i done;
        let c = Intvec.prefix v 21 in
        let p = Intvec.prefix v 9 in
        check "prefix out of bounds" true
          (try
             ignore (Intvec.prefix v 22);
             false
           with Invalid_argument _ -> true);
        for i = 0 to 20 do Intvec.push v (100 + i) done;
        check_int "copy unaffected" 21 (Intvec.length c);
        check_int "copy still old" 7 (Intvec.get c 7);
        check "prefix holds the first 9" true
          (Intvec.to_list p = List.init 9 Fun.id);
        (* a prefix ending mid-chunk grows past the cut without touching
           the source *)
        for i = 9 to 30 do Intvec.push p (-i) done;
        check "prefix extends" true
          (Intvec.to_list p
          = List.init 9 Fun.id @ List.init 22 (fun i -> -(i + 9)));
        check "source untouched" true
          (Intvec.to_list v = List.init 21 Fun.id @ List.init 21 (( + ) 100)));
    Alcotest.test_case "objvec growth across chunk boundaries" `Quick
      (fun () ->
        let v = Objvec.create ~chunk_bits:2 ~dummy:"" () in
        for i = 0 to 99 do
          Objvec.push v (string_of_int i)
        done;
        check_int "length" 100 (Objvec.length v);
        for i = 0 to 99 do
          check_str "get" (string_of_int i) (Objvec.get v i)
        done;
        check "to_list" true
          (Objvec.to_list v = List.init 100 string_of_int);
        check "get oob" true
          (try
             ignore (Objvec.get v 100);
             false
           with Invalid_argument _ -> true));
  ]

(* Shared chunks: [push_n] installs one chunk of [v]s in every whole-chunk
   slot it appends, which is sound only while a full chunk is never
   written again.  Random interleavings of [push] and [push_n] (counts
   0-600) on both vectors must equal the same single pushes, read back
   whole after every operation, and a prefix taken mid-sequence must keep
   reading what it held when it was taken.  The boxed column holds one
   physical string per value, so the read-back allocates nothing. *)
let gen_vec_program =
  QCheck.Gen.(
    triple
      (list_size (1 -- 30)
         (frequency
            [ (3, map (fun v -> (v, None)) (int_range 0 999));
              (2,
               map2 (fun v n -> (v, Some n)) (int_range 0 999)
                 (int_range 0 600)) ]))
      nat nat)

let aliasing_law bits =
  let names = Array.init 1000 string_of_int in
  QCheck.Test.make ~count:150
    ~name:(Printf.sprintf "push_n = single pushes, chunk_bits %d" bits)
    (QCheck.make gen_vec_program)
    (fun (ops, cut, at) ->
      let iv = Intvec.create ~chunk_bits:bits () in
      let ov = Objvec.create ~chunk_bits:bits ~dummy:"" () in
      let model = ref [||] and len = ref 0 in
      let add v =
        if !len = Array.length !model then begin
          let m = Array.make (max 16 (2 * !len)) 0 in
          Array.blit !model 0 m 0 !len;
          model := m
        end;
        !model.(!len) <- v;
        incr len
      in
      let cut = cut mod List.length ops in
      let prefix = ref None in
      let ok = ref true in
      List.iteri
        (fun k (v, n) ->
          (match n with
          | None ->
              Intvec.push iv v;
              Objvec.push ov names.(v);
              add v
          | Some n ->
              Intvec.push_n iv v n;
              Objvec.push_n ov names.(v) n;
              for _ = 1 to n do add v done);
          ok := !ok && Intvec.length iv = !len && Objvec.length ov = !len;
          for i = 0 to !len - 1 do
            ok :=
              !ok
              && Intvec.get iv i = !model.(i)
              && Objvec.get ov i == names.(!model.(i))
          done;
          (match !prefix with
          | Some (p, held) -> ok := !ok && Intvec.to_list p = held
          | None -> ());
          if k = cut then begin
            let m = at mod (!len + 1) in
            prefix := Some (Intvec.prefix iv m, List.init m (Array.get !model))
          end)
        ops;
      !ok)

(* Chunk 0 opens at 32 slots and grows fourfold by copying up to a full
   chunk (none of that below chunk_bits 6).  A prefix taken just before,
   at and just after every growth and chunk boundary, for chunk_bits
   2..8, holds what it held, then extends on its own exactly as a
   vector of as many pushes would, and leaves its source untouched. *)
let test_prefix_boundaries () =
  List.iter
    (fun bits ->
      let size = 1 lsl bits in
      let total = max 520 ((2 * size) + 2) in
      let v = Intvec.create ~chunk_bits:bits () in
      for i = 0 to total - 1 do
        Intvec.push v i
      done;
      let cuts =
        List.concat_map
          (fun b -> [ b - 1; b; b + 1 ])
          [ 32; 128; 512; size; 2 * size ]
        |> List.sort_uniq compare
      in
      List.iter
        (fun n ->
          let what = Printf.sprintf "chunk_bits %d, prefix %d" bits n in
          let p = Intvec.prefix v n in
          check (what ^ " holds") true (Intvec.to_list p = List.init n Fun.id);
          let fresh = Intvec.create ~chunk_bits:bits () in
          for i = 0 to n - 1 do
            Intvec.push fresh i
          done;
          for i = 0 to size + 40 do
            Intvec.push p (-i);
            Intvec.push fresh (-i)
          done;
          check (what ^ " extends as pushes") true
            (Intvec.to_list p = Intvec.to_list fresh);
          check (what ^ " leaves its source") true
            (Intvec.to_list v = List.init total Fun.id))
        cuts)
    [ 2; 3; 4; 5; 6; 7; 8 ]

let vec_laws =
  Alcotest.test_case "prefix at every growth boundary" `Quick
    test_prefix_boundaries
  :: List.map
       (fun bits -> QCheck_alcotest.to_alcotest (aliasing_law bits))
       [ 2; 3; 4; 5; 6; 7; 8 ]

(* the flat access log: bounds, views and the per-process heads *)

let log_bounds_tests =
  [
    Alcotest.test_case "get and sub check bounds" `Quick (fun () ->
        let m = Memory.create () in
        let a = Memory.alloc m ~name:"a" (Value.int 0) in
        for i = 1 to 5 do
          ignore (Memory.apply m ~pid:1 a (Primitive.Write (Value.int i)))
        done;
        let log = Memory.log m in
        let oob f =
          try
            ignore (f ());
            false
          with Invalid_argument _ -> true
        in
        check "get -1" true (oob (fun () -> Access_log.get log (-1)));
        check "get len" true (oob (fun () -> Access_log.get log 5));
        check "window neg pos" true
          (oob (fun () -> Access_log.window log ~pos:(-1) ~len:1));
        check "window neg len" true
          (oob (fun () -> Access_log.window log ~pos:0 ~len:(-1)));
        check "window past end" true
          (oob (fun () -> Access_log.window log ~pos:3 ~len:3));
        let w = Access_log.window log ~pos:3 ~len:2 ~first:10 in
        check_int "window ok" 2 (List.length (Log_ref.entries w));
        check_int "step numbered from first" 11 (Access_log.step w 1).index;
        check "step -1" true (oob (fun () -> Access_log.step w (-1)));
        check "step len" true (oob (fun () -> Access_log.step w 2));
        check "window empty at end" true
          (Log_ref.entries (Access_log.window log ~pos:5 ~len:0) = []));
  ]

(* a fuzzed log: random steps over a few objects/transactions and up to
   40 processes, driven through Memory so the per-process heads are built
   (and regrown past 16 and 32 pids) incrementally *)
let gen_log_ops =
  QCheck.(
    list_of_size Gen.(0 -- 120)
      (quad (int_range 1 40) (int_range 0 3) (int_range 0 2)
         (int_range 0 9)))

let build_log ops =
  let m = Memory.create () in
  let oids =
    Array.init 3 (fun i ->
        Memory.alloc m ~name:(Printf.sprintf "o%d" i) (Value.int 0))
  in
  List.iter
    (fun (pid, t, o, v) ->
      let tid = if t = 0 then None else Some (Tid.v t) in
      let prim =
        if v mod 2 = 0 then Primitive.Read
        else Primitive.Write (Value.int v)
      in
      ignore (Memory.apply m ~pid ?tid oids.(o) prim))
    ops;
  Memory.log m

(* The bulk append the scheduler's spin fast-forward uses: [repeat_last]
   leaves the log [n] single records of the last step's fields would.
   Two appends of different steps with records between them, across
   chunk boundaries (128-slot chunks: prefixes up to 300 steps, repeats
   up to 400), so the records and the second append follow chunks the
   first append shared *)
let gen_record =
  QCheck.(
    quad (int_range 1 40) (int_range 0 3) (int_range 0 2) (int_range 0 9))

let repeat_law =
  QCheck.Test.make ~count:200 ~name:"repeat_last = n records of the last step"
    QCheck.(
      quad
        (list_of_size Gen.(1 -- 300) gen_record)
        (int_range 0 400)
        (list_of_size Gen.(1 -- 60) gen_record)
        (int_range 0 400))
    (fun (ops, n1, between, n2) ->
      let bulk = build_log ops and single = build_log ops in
      let repeat n =
        let last = Access_log.get single (Access_log.length single - 1) in
        Access_log.repeat_last bulk n;
        for _ = 1 to n do
          Access_log.record single ~pid:last.pid ~tid:last.tid ~oid:last.oid
            ~prim:last.prim ~response:last.response ~changed:last.changed
        done
      in
      let record (pid, t, o, v) =
        List.iter
          (fun log ->
            Access_log.record log ~pid
              ~tid:(if t = 0 then None else Some (Tid.v t))
              ~oid:(Oid.of_int o)
              ~prim:
                (if v mod 2 = 0 then Primitive.Read
                 else Primitive.Write (Value.int v))
              ~response:(Value.int v) ~changed:(v mod 2 = 1))
          [ bulk; single ]
      in
      repeat n1;
      List.iter record between;
      repeat n2;
      let same_at i =
        Access_log.pid_at bulk i = Access_log.pid_at single i
        && Access_log.tid_int_at bulk i = Access_log.tid_int_at single i
        && Access_log.tid_at bulk i = Access_log.tid_at single i
        && Oid.equal (Access_log.oid_at bulk i) (Access_log.oid_at single i)
        && Access_log.prim_at bulk i = Access_log.prim_at single i
        && Value.equal (Access_log.response_at bulk i)
             (Access_log.response_at single i)
        && Access_log.changed_at bulk i = Access_log.changed_at single i
        && Access_log.get bulk i = Access_log.get single i
      in
      let same_heads pid =
        Access_log.last_index_by_pid bulk pid
        = Access_log.last_index_by_pid single pid
        && Access_log.pid_step_count bulk pid
           = Access_log.pid_step_count single pid
      in
      Access_log.length bulk = Access_log.length single
      && List.for_all same_at (List.init (Access_log.length bulk) Fun.id)
      && List.for_all same_heads (List.init 42 Fun.id))

(* The packed step word: every field reads back as recorded, at every
   width's extremes (0 and the maximum) and in between, so a field one
   bit short would truncate here; the fuzzed logs above stay far below
   every width.  One past a width raises and records nothing. *)
let gen_wide_step =
  let open QCheck.Gen in
  let field max = oneof [ return 0; return max; int_range 0 max ] in
  quad (field Access_log.max_pid) (field Access_log.max_oid)
    (opt (field Access_log.max_tid))
    bool

let round_trip_law =
  QCheck.Test.make ~count:300 ~name:"a recorded step reads back field for field"
    (QCheck.make QCheck.Gen.(list_size (1 -- 200) gen_wide_step))
    (fun steps ->
      let log = Access_log.create () in
      List.iteri
        (fun i (pid, oid, tid, changed) ->
          Access_log.record log ~pid ~tid:(Option.map Tid.v tid)
            ~oid:(Oid.of_int oid) ~prim:Primitive.Read ~response:(Value.int i)
            ~changed)
        steps;
      List.length steps = Access_log.length log
      && List.for_all Fun.id
           (List.mapi
              (fun i (pid, oid, tid, changed) ->
                Access_log.get log i
                = {
                    Access_log.index = i;
                    pid;
                    tid = Option.map Tid.v tid;
                    oid = Oid.of_int oid;
                    prim = Primitive.Read;
                    response = Value.int i;
                    changed;
                  }
                && Access_log.pid_at log i = pid
                && Oid.to_int (Access_log.oid_at log i) = oid
                && Access_log.tid_int_at log i = Option.value tid ~default:(-1)
                && Access_log.changed_at log i = changed)
              steps))

let test_field_widths () =
  let log = Access_log.create () in
  let record ?(pid = 0) ?(oid = 0) ?tid () =
    Access_log.record log ~pid ~tid:(Option.map Tid.v tid)
      ~oid:(Oid.of_int oid) ~prim:Primitive.Read ~response:Value.unit
      ~changed:false
  in
  let refused what f =
    check what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  record ~pid:Access_log.max_pid ~oid:Access_log.max_oid
    ~tid:Access_log.max_tid ();
  refused "pid one past" (record ~pid:(Access_log.max_pid + 1));
  refused "negative pid" (record ~pid:(-1));
  refused "oid one past" (record ~oid:(Access_log.max_oid + 1));
  refused "tid one past" (record ~tid:(Access_log.max_tid + 1));
  refused "tid max_int" (record ~tid:max_int);
  check_int "refused steps are not recorded" 1 (Access_log.length log);
  check_int "nor counted" 0
    (Access_log.pid_step_count log (Access_log.max_pid + 1));
  check_int "widths: 12 pid bits" 4095 Access_log.max_pid;
  check_int "18 oid bits" 262_143 Access_log.max_oid;
  check_int "32 bits of tid + 1" 4_294_967_294 Access_log.max_tid

let log_prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~count:100 ~name:"window step = get, renumbered"
         QCheck.(triple gen_log_ops small_nat small_nat)
         (fun (ops, a, b) ->
           let log = build_log ops in
           let n = Access_log.length log in
           let pos = a mod (n + 1) in
           let len = b mod (n - pos + 1) in
           let w = Access_log.window log ~pos ~len ~first:(a + b) in
           w.first = a + b
           && List.for_all
                (fun k ->
                  Access_log.step w k
                  = { (Access_log.get log (pos + k)) with index = a + b + k })
                (List.init len Fun.id)));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:100
         ~name:"per-process heads = filter over entries" gen_log_ops
         (fun ops ->
           let log = build_log ops in
           let entries = Log_ref.of_log log in
           List.for_all
             (fun pid ->
               let mine =
                 List.filter (fun e -> e.Access_log.pid = pid) entries
               in
               let last = List.nth_opt (List.rev mine) 0 in
               Access_log.pid_step_count log pid = List.length mine
               && Access_log.last_by_pid log pid = last
               && Access_log.last_index_by_pid log pid
                  = (match last with
                    | Some e -> e.Access_log.index
                    | None -> -1))
             (99 :: List.init 42 Fun.id)));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:100 ~name:"per-field reads = get" gen_log_ops
         (fun ops ->
           let log = build_log ops in
           List.for_all
             (fun i ->
               let e = Access_log.get log i in
               e.Access_log.index = i
               && Access_log.pid_at log i = e.Access_log.pid
               && Access_log.tid_at log i = e.Access_log.tid
               && Access_log.tid_int_at log i
                  = (match e.Access_log.tid with
                    | Some t -> Tid.to_int t
                    | None -> -1)
               && Oid.equal (Access_log.oid_at log i) e.Access_log.oid
               && Access_log.prim_at log i = e.Access_log.prim
               && Value.equal (Access_log.response_at log i)
                    e.Access_log.response
               && Access_log.changed_at log i = e.Access_log.changed)
             (List.init (Access_log.length log) Fun.id)));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:100 ~name:"summarize = the entry-list summarize"
         gen_log_ops (fun ops ->
           let log = build_log ops in
           let same (s1 : Contention.access_summary)
               (s2 : Contention.access_summary) =
             Tid.equal s1.tid s2.tid
             && Oid.Map.equal Bool.equal s1.objects s2.objects
           in
           List.equal same
             (Contention.summarize (Access_log.whole log))
             (Log_ref.summarize (Log_ref.of_log log))));
    QCheck_alcotest.to_alcotest repeat_law;
    QCheck_alcotest.to_alcotest round_trip_law;
    Alcotest.test_case "one past each field's width raises" `Quick
      test_field_widths;
  ]

(* An object state (value, lock holder, LL reservations) and one
   primitive of each of the eight kinds, over small pids and ints *)
let gen_state_prim =
  let open QCheck.Gen in
  let small = int_range 0 3 in
  let v = map Value.int small in
  let state = triple small (opt small) (list_size (0 -- 3) small) in
  let prim =
    oneof
      [ return Primitive.Read;
        map (fun x -> Primitive.Write x) v;
        map2 (fun expected desired -> Primitive.Cas { expected; desired }) v v;
        map (fun d -> Primitive.Fetch_add d) (int_range (-1) 1);
        map (fun p -> Primitive.Try_lock p) small;
        map (fun p -> Primitive.Unlock p) small;
        map (fun p -> Primitive.Load_linked p) small;
        map2 (fun p x -> Primitive.Store_conditional (p, x)) small v ]
  in
  pair state prim

let object_of (value, holder, reserved) =
  let o = Base_object.create (Value.int value) in
  Option.iter (fun p -> ignore (Base_object.apply o (Primitive.Try_lock p)))
    holder;
  List.iter (fun p -> ignore (Base_object.apply o (Primitive.Load_linked p)))
    reserved;
  o

let state_of o =
  (Base_object.value o, Base_object.lock_holder o, Base_object.reservations o)

(* The law the spin fast-forward rests on: a step that reports no change
   is a fixed point — the same primitive, applied to the state it left,
   answers an equal response, again reports no change and leaves value,
   lock holder and reservations equal.  [Load_linked] and [Fetch_add 0]
   report no change yet may touch the reservations, hence the check of
   the post-state rather than of the pre-state. *)
let fixed_point_law =
  QCheck.Test.make ~count:2000 ~name:"unchanged step is a fixed point"
    (QCheck.make
       ~print:(fun ((v, h, rs), p) ->
         Printf.sprintf "value %d, holder %s, reserved [%s]; %s" v
           (match h with Some p -> string_of_int p | None -> "-")
           (String.concat ";" (List.map string_of_int rs))
           (Primitive.show p))
       gen_state_prim)
    (fun (st, prim) ->
      let o = object_of st in
      let r1, changed1 = Base_object.apply o prim in
      changed1
      ||
      let after1 = state_of o in
      let r2, changed2 = Base_object.apply o prim in
      let v1, h1, rs1 = after1 and v2, h2, rs2 = state_of o in
      Value.equal r1 r2 && (not changed2) && Value.equal v1 v2 && h1 = h2
      && rs1 = rs2)

(* property tests *)

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest fixed_point_law;
    QCheck_alcotest.to_alcotest
      (Test.make ~count:200 ~name:"fetch_add accumulates"
         (list (int_range (-50) 50))
         (fun deltas ->
           let o = Base_object.create (Value.int 0) in
           List.iter
             (fun d -> ignore (Base_object.apply o (Primitive.Fetch_add d)))
             deltas;
           Value.to_int_exn (Base_object.value o)
           = List.fold_left ( + ) 0 deltas));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:200 ~name:"cas model equivalence"
         (list (pair (int_range 0 3) (int_range 0 3)))
         (fun ops ->
           let o = Base_object.create (Value.int 0) in
           let model = ref 0 in
           List.for_all
             (fun (e, d) ->
               let r, _ =
                 Base_object.apply o
                   (Primitive.Cas
                      { expected = Value.int e; desired = Value.int d })
               in
               let expect_ok = !model = e in
               if expect_ok then model := d;
               Value.to_bool_exn r = expect_ok
               && Value.to_int_exn (Base_object.value o) = !model)
             ops));
    QCheck_alcotest.to_alcotest
      (Test.make ~count:100 ~name:"lock holder model"
         (list (pair bool (int_range 1 3)))
         (fun ops ->
           let o = Base_object.create Value.unit in
           let holder = ref None in
           List.for_all
             (fun (lock, p) ->
               if lock then begin
                 let r, _ = Base_object.apply o (Primitive.Try_lock p) in
                 let expect = !holder = None || !holder = Some p in
                 if !holder = None then holder := Some p;
                 Value.to_bool_exn r = expect
               end
               else begin
                 ignore (Base_object.apply o (Primitive.Unlock p));
                 if !holder = Some p then holder := None;
                 Base_object.lock_holder o = !holder
               end)
             ops));
  ]

let () =
  Alcotest.run "base"
    [
      ("value", value_tests);
      ("primitive", primitive_tests);
      ("base_object", base_object_tests);
      ("memory", memory_tests);
      ("vectors", vec_tests @ vec_laws);
      ("access_log", log_bounds_tests @ log_prop_tests);
      ("properties", prop_tests);
    ]
