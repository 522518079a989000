(* Happens-before race detector: injected-violation fixtures (each
   finding must name both access sites), HB-edge soundness of the sim's
   synchronization primitives under the seeded schedule explorer, the
   source lint, and a schedule-seed sweep of the full driver stack with
   the detector and the protocol checker as co-oracles. *)

open Kite_sim
module Race = Kite_race.Race
module Check = Kite_check.Check
module Report = Kite_check.Report
module Fault = Kite_fault.Fault
module Scenario = Kite.Scenario

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let finding_mentions report rule needles =
  List.exists
    (fun (f : Report.finding) ->
      List.for_all (contains f.Report.message) needles)
    (Report.by_rule report rule)

(* One detector wired into a fresh engine+scheduler; the body spawns
   processes, then the sim runs to quiescence. *)
let run_fixture ?schedule_seed body =
  let report = Report.create () in
  let d = Race.create ~name:"fixture" report in
  let e = Engine.create ?schedule_seed () in
  let s = Process.scheduler e in
  Process.set_race s (Some d);
  body e s;
  Engine.run e;
  Process.set_race s None;
  report

(* ------------------------------------------------------------------ *)
(* Injected violations: the detector must find them and name both      *)
(* access sites                                                        *)
(* ------------------------------------------------------------------ *)

(* The classic lost update: A reads the shared counter, blocks, and
   writes back the stale value after B has modified it. *)
let test_injected_lost_update () =
  let ctr = ref 0 in
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"A" (fun () ->
            Race.scoped_read ~loc:"fixture:ctr" ~site:"A.load" ();
            let v = !ctr in
            Process.sleep (Time.ms 2);
            Race.scoped_write ~loc:"fixture:ctr" ~site:"A.store";
            ctr := v + 1);
        Process.spawn s ~name:"B" (fun () ->
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:ctr" ~site:"B.store";
            ctr := !ctr + 10))
  in
  check_bool "a lost update is reported" true
    (Report.by_rule report "race-lost-update" <> []);
  check_bool "the finding names both access sites" true
    (finding_mentions report "race-lost-update" [ "A.load"; "A.store" ]);
  check_bool "the interfering writer is named" true
    (finding_mentions report "race-lost-update" [ "B.store" ])

(* Same read-block-write shape with nobody interfering this run: still
   an atomicity violation (warning), because another schedule could
   interleave a writer. *)
let test_injected_atomicity () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"A" (fun () ->
            Race.scoped_read ~loc:"fixture:state" ~site:"A.check" ();
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:state" ~site:"A.commit"))
  in
  check_int "no errors" 0 (Report.errors report);
  check_bool "atomicity violation reported" true
    (Report.by_rule report "race-atomicity" <> []);
  check_bool "both sites named" true
    (finding_mentions report "race-atomicity" [ "A.check"; "A.commit" ])

(* Two writers with no happens-before path at all. *)
let test_injected_unordered () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"W1" (fun () ->
            Race.scoped_write ~loc:"fixture:slot" ~site:"W1.put");
        Process.spawn s ~name:"W2" (fun () ->
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:slot" ~site:"W2.put"))
  in
  check_bool "unordered writes reported" true
    (Report.by_rule report "race-unordered" <> []);
  check_bool "both sites named" true
    (finding_mentions report "race-unordered" [ "W1.put"; "W2.put" ])

(* The blit accessors check the page range as [read]/[write] do and are
   the same accesses to the detector: an unsynchronised [write_from] and
   [read_into] on one page yield exactly the finding [write] and [read]
   do, with the same sites. *)
let test_page_blit_accessors () =
  let module Page = Kite_xen.Page in
  let page = Page.alloc () in
  let buf = Bytes.make 16 'x' in
  let rejects what f =
    check_bool (what ^ " raises Invalid_argument") true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "read_into past the end" (fun () ->
      Page.read_into page ~off:4090 ~len:10 buf ~dst_off:0);
  rejects "read_into negative offset" (fun () ->
      Page.read_into page ~off:(-1) ~len:4 buf ~dst_off:0);
  rejects "read_into negative length" (fun () ->
      Page.read_into page ~off:0 ~len:(-1) buf ~dst_off:0);
  rejects "write_from past the end" (fun () ->
      Page.write_from page ~off:4090 buf ~src_off:0 ~len:10);
  rejects "write_from negative offset" (fun () ->
      Page.write_from page ~off:(-1) buf ~src_off:0 ~len:4);
  rejects "write_from negative length" (fun () ->
      Page.write_from page ~off:0 buf ~src_off:0 ~len:(-1));
  let findings ~write ~read =
    let report =
      run_fixture (fun _ s ->
          Process.spawn s ~name:"W" (fun () -> write ());
          Process.spawn s ~name:"R" (fun () ->
              Process.sleep (Time.ms 1);
              read ()))
    in
    (* The first line names location, kinds, processes and sites; the
       captured stacks after it differ by call site. *)
    List.map
      (fun (f : Report.finding) ->
        List.hd (String.split_on_char '\n' f.Report.message))
      (Report.by_rule report "race-unordered")
  in
  let blit =
    findings
      ~write:(fun () -> Page.write_from page ~off:8 buf ~src_off:0 ~len:16)
      ~read:(fun () -> Page.read_into page ~off:8 ~len:16 buf ~dst_off:0)
  in
  let copy =
    findings
      ~write:(fun () -> Page.write page ~off:8 buf)
      ~read:(fun () -> ignore (Page.read page ~off:8 ~len:16))
  in
  check_bool "the unsynchronised pair is reported" true (blit <> []);
  check_bool "the finding names both page sites" true
    (List.exists
       (fun m -> contains m "Page.write" && contains m "Page.read")
       blit);
  Alcotest.(check (list string)) "same findings as write/read" copy blit

(* ------------------------------------------------------------------ *)
(* HB edges: synchronized code is clean, dropped signals are not edges *)
(* ------------------------------------------------------------------ *)

(* Mailbox send→recv orders the receiver after the sender — including
   when the sender has already exited by the time the message is
   received. *)
let test_mailbox_edge_dead_sender () =
  for seed = 1 to 5 do
    let mb = Mailbox.create ~label:"mb" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          Process.spawn s ~name:"sender" (fun () ->
              Race.scoped_write ~loc:"fixture:box" ~site:"sender.fill";
              Mailbox.send mb ());
          Process.spawn s ~name:"receiver" (fun () ->
              Process.sleep (Time.ms 5);
              Mailbox.recv mb;
              Race.scoped_write ~loc:"fixture:box" ~site:"receiver.drain"))
    in
    check_int
      (Printf.sprintf "seed %d: recv from dead sender is an edge" seed)
      0 (Report.count report)
  done

(* A broadcast wakes every waiter (double wake): each acquires the
   signaller's clock, so their reads of the published value are clean. *)
let test_condition_double_wake () =
  for seed = 1 to 5 do
    let c = Condition.create ~label:"cond" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          for w = 1 to 2 do
            Process.spawn s
              ~name:(Printf.sprintf "waiter%d" w)
              (fun () ->
                Condition.wait c;
                Race.scoped_read ~loc:"fixture:published"
                  ~site:"waiter.consume" ())
          done;
          Process.spawn s ~name:"publisher" (fun () ->
              Process.sleep (Time.ms 1);
              Race.scoped_write ~loc:"fixture:published"
                ~site:"publisher.produce";
              Condition.broadcast c))
    in
    check_int
      (Printf.sprintf "seed %d: broadcast orders both waiters" seed)
      0 (Report.count report)
  done

(* Channel names are built lazily, the first time a live detector needs
   one.  A condition made before the detector is armed still gets its
   creation-order name, with or without a label, and still carries its
   signal-to-wake edge. *)
let test_channel_names_stable () =
  let c0 = Condition.create () in
  let c1 = Condition.create ~label:"late" () in
  let name0 = Condition.chan c0 in
  let id0 =
    match String.split_on_char ':' name0 with
    | [ "cond"; id ] -> int_of_string id
    | _ -> Alcotest.failf "unexpected unlabelled channel name %S" name0
  in
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"waiter" (fun () ->
            Condition.wait c1;
            Race.scoped_read ~loc:"fixture:pre" ~site:"waiter.read" ());
        Process.spawn s ~name:"signaller" (fun () ->
            Process.sleep (Time.ms 1);
            Race.scoped_write ~loc:"fixture:pre" ~site:"signaller.write";
            Condition.signal c1))
  in
  check_int "pre-armed condition carries its edge" 0 (Report.count report);
  Alcotest.(check string)
    "labelled name, built under the detector"
    (Printf.sprintf "cond:%d:late" (id0 + 1))
    (Condition.chan c1)

(* A signal with no waiter is dropped — it must NOT smuggle an edge to a
   process that never actually waited. *)
let test_condition_signal_before_wait () =
  for seed = 1 to 5 do
    let c = Condition.create ~label:"cond" () in
    let report =
      run_fixture ~schedule_seed:seed (fun _ s ->
          Process.spawn s ~name:"early" (fun () ->
              Race.scoped_write ~loc:"fixture:flag" ~site:"early.set";
              Condition.signal c);
          Process.spawn s ~name:"late" (fun () ->
              Process.sleep (Time.ms 2);
              (* Never waits: the dropped signal is not an edge. *)
              Race.scoped_write ~loc:"fixture:flag" ~site:"late.set"))
    in
    check_bool
      (Printf.sprintf "seed %d: dropped signal is not an edge" seed)
      true
      (Report.by_rule report "race-unordered" <> [])
  done

(* Exited processes release an "@exit" edge that quiesce points may
   claim; a teardown that joins it is ordered after everything the dead
   process did. *)
let test_quiesce_edge () =
  let report =
    run_fixture (fun _ s ->
        Process.spawn s ~name:"worker" (fun () ->
            Race.scoped_write ~loc:"fixture:resource" ~site:"worker.use");
        Process.spawn s ~name:"teardown" (fun () ->
            Process.sleep (Time.ms 5);
            Race.scoped_quiesce ();
            Race.scoped_write ~loc:"fixture:resource" ~site:"teardown.free"))
  in
  check_int "quiesce orders teardown after the dead worker" 0
    (Report.count report)

(* ------------------------------------------------------------------ *)
(* Schedule explorer                                                   *)
(* ------------------------------------------------------------------ *)

(* The same seed must reproduce the same interleaving exactly; the
   unseeded engine keeps the documented FIFO tie-break. *)
let explore_order ?schedule_seed () =
  let log = ref [] in
  let e = Engine.create ?schedule_seed () in
  let s = Process.scheduler e in
  for i = 1 to 6 do
    Process.spawn s
      ~name:(Printf.sprintf "p%d" i)
      (fun () ->
        log := (2 * i) :: !log;
        Process.yield ();
        log := ((2 * i) + 1) :: !log)
  done;
  Engine.run e;
  List.rev !log

let test_explorer_determinism () =
  List.iter
    (fun seed ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d reproduces its interleaving" seed)
        (explore_order ~schedule_seed:seed ())
        (explore_order ~schedule_seed:seed ()))
    [ 1; 2; 3; 7; 42 ];
  Alcotest.(check (list int))
    "unseeded runs keep FIFO order on ties"
    (explore_order ()) (explore_order ());
  check_bool "some seed deviates from FIFO" true
    (List.exists
       (fun seed -> explore_order ~schedule_seed:seed () <> explore_order ())
       [ 1; 2; 3; 7; 42 ])

(* ------------------------------------------------------------------ *)
(* Source lint                                                         *)
(* ------------------------------------------------------------------ *)

let test_lint_flags_bad_source () =
  let file = Filename.temp_file "kite_lint_bad" ".ml" in
  let oc = open_out file in
  output_string oc
    "let leak gt d =\n\
    \  let h = Grant_table.map_one gt ~mapper:d 7 in\n\
    \  ignore h\n\n\
     let hot tr =\n\
    \  Kite_trace.Trace.note tr \"unguarded\"\n";
  close_out oc;
  let report = Report.create () in
  Kite_lint.Lint.lint_file report file;
  Sys.remove file;
  check_bool "unguarded hook flagged" true
    (Report.by_rule report "lint-hook-unguarded" <> []);
  check_bool "unpaired grant map flagged" true
    (Report.by_rule report "lint-grant-unpaired" <> [])

let test_lint_accepts_guarded_source () =
  let file = Filename.temp_file "kite_lint_ok" ".ml" in
  let oc = open_out file in
  output_string oc
    "let paired gt d =\n\
    \  let h = Grant_table.map_one gt ~mapper:d 7 in\n\
    \  Grant_table.unmap_one gt h\n\n\
     let guarded tr =\n\
    \  match tr with\n\
    \  | Some tr -> Kite_trace.Trace.note tr \"guarded\"\n\
    \  | None -> ()\n";
  close_out oc;
  let report = Report.create () in
  Kite_lint.Lint.lint_file report file;
  Sys.remove file;
  check_int "clean file lints clean" 0 (Report.count report)

(* lint-teardown-missing keys on the one arm entry point: a file that
   builds a hypervisor and arms its layers must register a teardown. *)
let teardown_findings source =
  let file = Filename.temp_file "kite_lint_teardown" ".ml" in
  let oc = open_out file in
  output_string oc source;
  close_out oc;
  let report = Report.create () in
  Kite_lint.Lint.lint_file report file;
  Sys.remove file;
  List.length (Report.by_rule report "lint-teardown-missing")

let test_lint_teardown_rule () =
  check_int "hv create + arm, no teardown: flagged" 1
    (teardown_findings
       "let testbed () =\n\
       \  let hv = Hypervisor.create ~seed:1 () in\n\
       \  let ctx = Xen_ctx.create hv in\n\
       \  Scenario.arm ctx \"t-\";\n\
       \  ctx\n");
  check_int "hv create + Ring.attach_check alone: not flagged" 0
    (teardown_findings
       "let testbed c =\n\
       \  let hv = Hypervisor.create ~seed:1 () in\n\
       \  let r = Ring.create ~order:4 in\n\
       \  Ring.attach_check r c ~name:\"r\";\n\
       \  (hv, r)\n");
  check_int "hv create + arm + teardown: not flagged" 0
    (teardown_findings
       "let testbed dd stop shut =\n\
       \  let hv = Hypervisor.create ~seed:1 () in\n\
       \  let ctx = Xen_ctx.create hv in\n\
       \  Scenario.arm ctx \"t-\";\n\
       \  Scenario.register_teardown ctx ~dd ~stop_backend:stop\n\
       \    ~shutdown_frontend:shut;\n\
       \  ctx\n")

(* ------------------------------------------------------------------ *)
(* Schedule-seed sweep of the driver stack                             *)
(* ------------------------------------------------------------------ *)

(* The stress shape of test_mq's sweep, run under ten explorer seeds
   with the race detector and protocol checker as co-oracles: whatever
   the interleaving, the drivers must stay free of detector findings.
   Every third seed crashes and restarts the driver domain mid-I/O to
   sweep the reconnect and teardown edges too. *)
let sweep_net ~schedule_seed ~crash report =
  Scenario.set_schedule_seed (Some schedule_seed);
  let sink = Race.sink ~report () in
  Race.set_default (Some sink);
  Check.set_default (Some (Check.default_config, report));
  Fun.protect
    ~finally:(fun () ->
      Scenario.set_schedule_seed None;
      Race.set_default None;
      Check.set_default None)
  @@ fun () ->
  let s = Scenario.network ~flavor:Scenario.Kite ~seed:schedule_seed () in
  let restored = ref (not crash) and ok = ref 0 and done_ = ref false in
  Scenario.when_net_ready s (fun () ->
      if crash then
        Scenario.crash_and_restart_net s ~flavor:Scenario.Kite
          ~at:(Time.ms 5)
          ~on_restored:(fun ~downtime:_ -> restored := true)
          ();
      let seq = ref 0 in
      while not !restored do
        incr seq;
        ignore
          (Kite_net.Stack.ping s.Scenario.client_stack
             ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 20) ~seq:!seq ());
        Process.sleep (Time.ms 5)
      done;
      for k = 1 to 3 do
        match
          Kite_net.Stack.ping s.Scenario.client_stack
            ~dst:s.Scenario.guest_ip ~timeout:(Time.ms 100) ~seq:(!seq + k)
            ()
        with
        | Some _ -> incr ok
        | None -> ()
      done;
      done_ := true);
  Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 60);
  Scenario.teardown_all ();
  check_bool
    (Printf.sprintf "schedule seed %d: net workload completed" schedule_seed)
    true !done_;
  check_int
    (Printf.sprintf "schedule seed %d: steady-state pings answered"
       schedule_seed)
    3 !ok

let sweep_blk ~schedule_seed ~crash report =
  Scenario.set_schedule_seed (Some schedule_seed);
  let sink = Race.sink ~report () in
  Race.set_default (Some sink);
  Check.set_default (Some (Check.default_config, report));
  Fun.protect
    ~finally:(fun () ->
      Scenario.set_schedule_seed None;
      Race.set_default None;
      Check.set_default None)
  @@ fun () ->
  let s = Scenario.storage ~flavor:Scenario.Kite ~seed:schedule_seed () in
  let verify_errors = ref 0 and done_ = ref false in
  Scenario.when_blk_ready s (fun () ->
      if crash then
        Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
          ~at:(Time.ms 2) ();
      let front = s.Scenario.blkfront in
      let fill k = Char.chr (Char.code 'a' + (k mod 26)) in
      for k = 0 to 3 do
        Kite_drivers.Blkfront.write front ~sector:(k * 8)
          (Bytes.make 4096 (fill k))
      done;
      for k = 0 to 3 do
        Bytes.iter
          (fun ch -> if ch <> fill k then incr verify_errors)
          (Kite_drivers.Blkfront.read front ~sector:(k * 8) ~count:8)
      done;
      done_ := true);
  Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 60);
  Scenario.teardown_all ();
  check_bool
    (Printf.sprintf "schedule seed %d: blk workload completed" schedule_seed)
    true !done_;
  check_int
    (Printf.sprintf "schedule seed %d: zero corrupted bytes" schedule_seed)
    0 !verify_errors

let test_schedule_seed_sweep () =
  let report = Report.create () in
  for schedule_seed = 1 to 10 do
    let crash = schedule_seed mod 3 = 0 in
    if schedule_seed mod 2 = 0 then sweep_blk ~schedule_seed ~crash report
    else sweep_net ~schedule_seed ~crash report
  done;
  check_int "zero detector/checker errors across ten schedules" 0
    (Report.errors report);
  check_int "zero detector warnings across ten schedules" 0
    (Report.warnings report)

let suite =
  [
    ("race: injected lost update", `Quick, test_injected_lost_update);
    ("race: injected atomicity violation", `Quick, test_injected_atomicity);
    ("race: injected unordered writes", `Quick, test_injected_unordered);
    ("race: page blit accessors", `Quick, test_page_blit_accessors);
    ("race: recv from dead sender", `Quick, test_mailbox_edge_dead_sender);
    ("race: channel names stable", `Quick, test_channel_names_stable);
    ("race: broadcast double wake", `Quick, test_condition_double_wake);
    ( "race: signal before wait is no edge",
      `Quick,
      test_condition_signal_before_wait );
    ("race: quiesce claims exit edges", `Quick, test_quiesce_edge);
    ("race: explorer determinism", `Quick, test_explorer_determinism);
    ("lint: flags bad source", `Quick, test_lint_flags_bad_source);
    ("lint: accepts guarded source", `Quick, test_lint_accepts_guarded_source);
    ("lint: teardown rule keys on arm", `Quick, test_lint_teardown_rule);
    ("race: ten-schedule stress sweep", `Slow, test_schedule_seed_sweep);
  ]
