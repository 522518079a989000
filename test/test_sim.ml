(* Tests for the discrete-event engine and cooperative process package. *)

open Kite_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

(* Pop every entry, returning (key, value) pairs in pop order. *)
let drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let k = Heap.top_key h in
      let v = Heap.pop h in
      go ((k, v) :: acc)
  in
  go []

let test_heap_order () =
  let h = Heap.create ~dummy:(-1) in
  List.iter (fun k -> Heap.add h ~key:k k) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  Alcotest.(check (list int))
    "sorted" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.map snd (drain h))

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:"" in
  List.iter (fun v -> Heap.add h ~key:7 v) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (list string))
    "insertion order on equal keys"
    [ "a"; "b"; "c"; "d" ]
    (List.map snd (drain h))

let test_heap_interleaved () =
  let h = Heap.create ~dummy:0 in
  Heap.add h ~key:3 3;
  Heap.add h ~key:1 1;
  check_int "min" 1 (Heap.top_key h);
  check_int "val" 1 (Heap.pop h);
  Heap.add h ~key:2 2;
  check_int "size" 2 (Heap.size h);
  check_int "min2" 2 (Heap.top_key h)

let test_heap_empty () =
  let h = Heap.create ~dummy:0 in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop raises" (Invalid_argument "Heap.pop: empty heap")
    (fun () -> ignore (Heap.pop h));
  Alcotest.check_raises "top_key raises"
    (Invalid_argument "Heap.top_key: empty heap") (fun () ->
      ignore (Heap.top_key h))

(* Regression: a popped value must not stay reachable from the heap's
   vacated slots, or fired thunks and the buffers they capture live until
   a later push overwrites the slot. *)
let test_heap_releases_popped () =
  let h = Heap.create ~dummy:(ref 0) in
  let collected = ref false in
  (* Allocate and pop in a helper so no stack slot of the test keeps the
     values alive. *)
  let[@inline never] fill_and_drain () =
    let first = ref 1 and second = ref 2 in
    Gc.finalise (fun _ -> collected := true) second;
    Heap.add h ~key:1 first;
    Heap.add h ~key:2 second;
    ignore (Sys.opaque_identity (Heap.pop h));
    ignore (Sys.opaque_identity (Heap.pop h))
  in
  fill_and_drain ();
  Gc.full_major ();
  check_bool "second popped value collected" true !collected;
  check_bool "heap still usable" true (Heap.is_empty h)

(* Random interleavings of adds and pops, with few distinct keys and
   prios so ties are common: pop order must be a stable sort on
   (key, prio) of the entries present, i.e. ties broken by insertion. *)
let prop_heap_matches_stable_sort =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k p -> `Add (k, p)) (0 -- 4) (0 -- 2));
          (2, return `Pop);
        ])
  in
  QCheck.Test.make ~name:"heap pops in stable (key, prio, insertion) order"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       QCheck.Gen.(list_size (0 -- 200) op))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      (* Reference: live entries as (key, prio, insertion index). *)
      let live = ref [] and n = ref 0 and ok = ref true in
      let ref_pop () =
        match List.stable_sort compare !live with
        | [] -> None
        | ((_, _, i) as e) :: _ ->
            live := List.filter (fun x -> x <> e) !live;
            Some i
      in
      List.iter
        (function
          | `Add (key, prio) ->
              Heap.add h ~key ~prio !n;
              live := (key, prio, !n) :: !live;
              incr n
          | `Pop -> (
              match ref_pop () with
              | None -> ok := !ok && Heap.is_empty h
              | Some i -> ok := !ok && Heap.pop h = i))
        ops;
      let rec rest () =
        match ref_pop () with
        | None -> Heap.is_empty h
        | Some i -> Heap.pop h = i && rest ()
      in
      !ok && Heap.size h = List.length !live && rest ())

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in nondecreasing key order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Heap.create ~dummy:0 in
      List.iter (fun k -> Heap.add h ~key:k k) keys;
      List.map fst (drain h) = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_split_independent () =
  let a = Rng.create 1 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  check_bool "streams differ" true (xa <> xb)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check_bool "float range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_gaussian_mean () =
  let r = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.gaussian r ~mean:10.0 ~stdev:2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 10" true (abs_float (mean -. 10.0) < 0.1)

let test_rng_exponential_positive () =
  let r = Rng.create 13 in
  for _ = 1 to 1000 do
    check_bool "positive" true (Rng.exponential r ~mean:5.0 > 0.0)
  done

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule_at e (Time.us 30) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule_at e (Time.us 10) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule_at e (Time.us 20) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time.us 30) (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule_at e (Time.us 5) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_after e (Time.ms 1) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  check_bool "not fired" false !fired;
  check_bool "marked" true (Engine.cancelled h)

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.ms i) (fun () -> incr count))
  done;
  Engine.run_until e (Time.ms 5);
  check_int "first five" 5 !count;
  check_int "clock advanced" (Time.ms 5) (Engine.now e);
  Engine.run e;
  check_int "rest" 10 !count

(* [run_until] lands the clock exactly on the limit, whether the last
   event fired before it or no event was due at all, and cancelled
   events stay counted as pending until the queue reaps them. *)
let test_engine_run_until_limit () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e 10 ignore);
  let late = Engine.schedule_at e 50 ignore in
  ignore (Engine.schedule_at e 90 ignore);
  Engine.cancel late;
  check_int "pending counts cancelled" 3 (Engine.pending e);
  Engine.run_until e 37;
  check_int "clock at limit" 37 (Engine.now e);
  check_int "two left" 2 (Engine.pending e);
  Engine.run_until e 50;
  check_int "clock on the cancelled event" 50 (Engine.now e);
  check_int "cancelled reaped" 1 (Engine.pending e);
  Engine.run_until e 60;
  check_int "idle advance" 60 (Engine.now e);
  Engine.run_until e 40;
  check_int "no rewind" 60 (Engine.now e);
  Engine.run e;
  check_int "drained" 0 (Engine.pending e);
  check_int "last event" 90 (Engine.now e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.ms 2) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument
       "Engine.schedule_at: 1000000 is in the past (now 2000000)") (fun () ->
      ignore (Engine.schedule_at e (Time.ms 1) (fun () -> ())))

let test_engine_cascading () =
  (* Events scheduling further events at the same instant run this step. *)
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule_at e (Time.us 1) (fun () ->
         log := "a" :: !log;
         ignore
           (Engine.schedule_at e (Time.us 1) (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Process                                                             *)
(* ------------------------------------------------------------------ *)

let run_sim f =
  let e = Engine.create () in
  let s = Process.scheduler e in
  f e s;
  Engine.run e;
  (e, s)

let test_process_sleep () =
  let wake = ref (-1) in
  let e, _ =
    run_sim (fun e s ->
        Process.spawn s ~name:"sleeper" (fun () ->
            Process.sleep (Time.ms 5);
            wake := Engine.now e))
  in
  ignore e;
  check_int "woke at 5ms" (Time.ms 5) !wake

let test_process_interleave () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        Process.spawn s ~name:"a" (fun () ->
            log := "a1" :: !log;
            Process.sleep (Time.ms 2);
            log := "a2" :: !log);
        Process.spawn s ~name:"b" (fun () ->
            log := "b1" :: !log;
            Process.sleep (Time.ms 1);
            log := "b2" :: !log))
  in
  Alcotest.(check (list string))
    "interleaving" [ "a1"; "b1"; "b2"; "a2" ] (List.rev !log)

let test_process_yield () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        Process.spawn s ~name:"a" (fun () ->
            log := "a1" :: !log;
            Process.yield ();
            log := "a2" :: !log);
        Process.spawn s ~name:"b" (fun () -> log := "b" :: !log))
  in
  Alcotest.(check (list string)) "yield lets b run" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_process_live_count () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  Process.spawn s ~name:"p" (fun () -> Process.sleep (Time.ms 1));
  check_int "one live" 1 (Process.live s);
  Engine.run e;
  check_int "none live" 0 (Process.live s)

let test_process_failure () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  Process.spawn s ~name:"boom" (fun () -> failwith "bang");
  (try
     Engine.run e;
     Alcotest.fail "expected Process_failure"
   with Process.Process_failure (name, Failure msg) ->
     Alcotest.(check string) "name" "boom" name;
     Alcotest.(check string) "msg" "bang" msg)

let test_condition_signal () =
  let log = ref [] in
  let _ =
    run_sim (fun e s ->
        let c = Condition.create () in
        Process.spawn s ~name:"waiter" (fun () ->
            Condition.wait c;
            log := Engine.now e :: !log);
        Process.spawn s ~name:"signaler" (fun () ->
            Process.sleep (Time.ms 3);
            Condition.signal c))
  in
  Alcotest.(check (list int)) "woke at 3ms" [ Time.ms 3 ] !log

let test_condition_fifo () =
  let log = ref [] in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        for i = 1 to 3 do
          Process.spawn s ~name:"w" (fun () ->
              Condition.wait c;
              log := i :: !log)
        done;
        Process.spawn s ~name:"sig" (fun () ->
            Process.sleep (Time.us 1);
            Condition.signal c;
            Condition.signal c;
            Condition.signal c))
  in
  Alcotest.(check (list int)) "fifo wakeups" [ 1; 2; 3 ] (List.rev !log)

let test_condition_broadcast () =
  let woke = ref 0 in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        for _ = 1 to 5 do
          Process.spawn s ~name:"w" (fun () ->
              Condition.wait c;
              incr woke)
        done;
        Process.spawn s ~name:"b" (fun () ->
            Process.sleep (Time.us 1);
            Condition.broadcast c))
  in
  check_int "all woke" 5 !woke

let test_condition_timeout () =
  let out = ref `Signaled in
  let t = ref 0 in
  let _ =
    run_sim (fun e s ->
        let c = Condition.create () in
        Process.spawn s ~name:"w" (fun () ->
            out := Condition.timed_wait c (Time.ms 2);
            t := Engine.now e))
  in
  check_bool "timed out" true (!out = `Timeout);
  check_int "at 2ms" (Time.ms 2) !t

let test_condition_timed_wait_signaled () =
  let out = ref `Timeout in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        Process.spawn s ~name:"w" (fun () ->
            out := Condition.timed_wait c (Time.ms 10));
        Process.spawn s ~name:"s" (fun () ->
            Process.sleep (Time.ms 1);
            Condition.signal c))
  in
  check_bool "signaled" true (!out = `Signaled)

let test_condition_timeout_not_stealing () =
  (* After a timed_wait times out, its stale queue entry must not swallow a
     signal destined for a later waiter. *)
  let woke = ref false in
  let _ =
    run_sim (fun _ s ->
        let c = Condition.create () in
        Process.spawn s ~name:"t" (fun () ->
            ignore (Condition.timed_wait c (Time.ms 1)));
        Process.spawn s ~name:"w" (fun () ->
            Process.sleep (Time.ms 2);
            Condition.wait c;
            woke := true);
        Process.spawn s ~name:"s" (fun () ->
            Process.sleep (Time.ms 3);
            Condition.signal c))
  in
  check_bool "real waiter woke" true !woke

let test_mailbox_order () =
  let got = ref [] in
  let _ =
    run_sim (fun _ s ->
        let mb = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            for _ = 1 to 3 do
              got := Mailbox.recv mb :: !got
            done);
        Process.spawn s ~name:"tx" (fun () ->
            Mailbox.send mb 1;
            Process.sleep (Time.us 1);
            Mailbox.send mb 2;
            Mailbox.send mb 3))
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let t = ref 0 in
  let _ =
    run_sim (fun e s ->
        let mb = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            ignore (Mailbox.recv mb);
            t := Engine.now e);
        Process.spawn s ~name:"tx" (fun () ->
            Process.sleep (Time.ms 7);
            Mailbox.send mb ()))
  in
  check_int "recv completed at send time" (Time.ms 7) !t

let test_mailbox_timeout () =
  let out = ref (Some 0) in
  let _ =
    run_sim (fun _ s ->
        let mb : int Mailbox.t = Mailbox.create () in
        Process.spawn s ~name:"rx" (fun () ->
            out := Mailbox.recv_timeout mb (Time.ms 1)))
  in
  check_bool "timed out empty" true (!out = None)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "hypercalls";
  Metrics.add m "hypercalls" 4;
  check_int "count" 5 (Metrics.count m "hypercalls");
  check_int "missing" 0 (Metrics.count m "nope");
  Metrics.add_busy m "vcpu0" (Time.ms 30);
  Alcotest.(check (float 1e-9))
    "util" 0.3
    (Metrics.utilization m "vcpu0" ~total:(Time.ms 100));
  Metrics.record_sample m "lat" 1.5;
  Metrics.record_sample m "lat" 2.5;
  Alcotest.(check (list (float 1e-9))) "samples" [ 1.5; 2.5 ]
    (Metrics.samples m "lat");
  let s = Metrics.summary m "lat" in
  check_int "summary n" 2 s.Kite_stats.Summary.n;
  Alcotest.(check (float 1e-9)) "summary mean" 2.0 s.Kite_stats.Summary.mean;
  (match Metrics.summary m "nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "summary of an empty series should raise");
  (* The total variant: None instead of raising for empty series. *)
  check_bool "summary_opt empty" true (Metrics.summary_opt m "nope" = None);
  (match Metrics.summary_opt m "lat" with
  | Some s -> check_int "summary_opt n" 2 s.Kite_stats.Summary.n
  | None -> Alcotest.fail "summary_opt of a recorded series");
  (* Key enumeration is per store and sorted. *)
  Alcotest.(check (list string)) "counter names" [ "hypercalls" ]
    (Metrics.names m);
  Alcotest.(check (list string)) "busy names" [ "vcpu0" ] (Metrics.busy_names m);
  Alcotest.(check (list string)) "series names" [ "lat" ]
    (Metrics.series_names m);
  Metrics.reset m;
  check_int "reset" 0 (Metrics.count m "hypercalls")

let test_time_pp () =
  Alcotest.(check string) "ns" "17ns" (Time.to_string (Time.ns 17));
  Alcotest.(check string) "us" "2.00us" (Time.to_string (Time.us 2));
  Alcotest.(check string) "ms" "3.50ms" (Time.to_string (Time.ns 3_500_000));
  Alcotest.(check string) "s" "2.000s" (Time.to_string (Time.sec 2))

let prop_sleep_accumulates =
  QCheck.Test.make ~name:"sequential sleeps accumulate" ~count:50
    QCheck.(list_of_size Gen.(1 -- 10) (1 -- 1000))
    (fun spans ->
      let e = Engine.create () in
      let s = Process.scheduler e in
      let finish = ref 0 in
      Process.spawn s ~name:"p" (fun () ->
          List.iter (fun sp -> Process.sleep (Time.us sp)) spans;
          finish := Engine.now e);
      Engine.run e;
      !finish = Time.us (List.fold_left ( + ) 0 spans))

let suite =
  [
    ("heap ordering", `Quick, test_heap_order);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap interleaved ops", `Quick, test_heap_interleaved);
    ("heap empty", `Quick, test_heap_empty);
    ("heap releases popped values", `Quick, test_heap_releases_popped);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng int bounds", `Quick, test_rng_bounds);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng gaussian mean", `Quick, test_rng_gaussian_mean);
    ("rng exponential positive", `Quick, test_rng_exponential_positive);
    ("engine time ordering", `Quick, test_engine_ordering);
    ("engine same-time fifo", `Quick, test_engine_same_time_fifo);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine run_until", `Quick, test_engine_run_until);
    ("engine run_until limit", `Quick, test_engine_run_until_limit);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine cascading events", `Quick, test_engine_cascading);
    ("process sleep", `Quick, test_process_sleep);
    ("process interleave", `Quick, test_process_interleave);
    ("process yield", `Quick, test_process_yield);
    ("process live count", `Quick, test_process_live_count);
    ("process failure propagates", `Quick, test_process_failure);
    ("condition signal", `Quick, test_condition_signal);
    ("condition fifo", `Quick, test_condition_fifo);
    ("condition broadcast", `Quick, test_condition_broadcast);
    ("condition timeout", `Quick, test_condition_timeout);
    ("condition timed_wait signaled", `Quick, test_condition_timed_wait_signaled);
    ("condition timeout not stealing", `Quick, test_condition_timeout_not_stealing);
    ("mailbox order", `Quick, test_mailbox_order);
    ("mailbox blocking recv", `Quick, test_mailbox_blocking_recv);
    ("mailbox timeout", `Quick, test_mailbox_timeout);
    ("metrics", `Quick, test_metrics);
    ("time pretty-printing", `Quick, test_time_pp);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_matches_stable_sort;
    QCheck_alcotest.to_alcotest prop_sleep_accumulates;
  ]
