(* kite_trace: span accounting invariants, Chrome JSON export, and the
   zero-events-when-disabled guarantee. *)

open Kite_sim
open Kite
module Trace = Kite_trace.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* A minimal JSON validator (no external dependency): parses the full
   grammar we emit and returns the number of array elements.            *)
(* ------------------------------------------------------------------ *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr () |> ignore
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "value"
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then pos := !pos + String.length lit
    else fail ("literal " ^ lit)
  and number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "number"
  and str () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            (match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> incr pos
            | Some 'u' -> pos := !pos + 5
            | _ -> fail "escape");
            go ()
        | c when Char.code c < 0x20 -> fail "control char in string"
        | _ ->
            incr pos;
            go ()
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            members ()
        | Some '}' -> incr pos
        | _ -> fail "object"
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      0
    end
    else
      let rec elems count =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            skip_ws ();
            elems (count + 1)
        | Some ']' ->
            incr pos;
            count + 1
        | _ -> fail "array"
      in
      elems 0
  in
  skip_ws ();
  let count = arr () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  count

(* Every completed span must be well-formed: stages in traversal order,
   consecutive, inside the span, and their durations summing to at most
   (here: exactly) the span total. *)
let assert_spans_well_formed tr =
  List.iter
    (fun sp ->
      check_bool "span ends after it begins" true
        (Trace.(sp.span_end_at >= sp.span_begin_at));
      check_bool "has stages" true (sp.Trace.span_stages <> []);
      let total =
        List.fold_left
          (fun acc (_, start, stop) ->
            check_bool "stage interval ordered" true (stop >= start);
            check_bool "stage inside span" true
              (start >= sp.Trace.span_begin_at && stop <= sp.Trace.span_end_at);
            acc + (stop - start))
          0 sp.Trace.span_stages
      in
      check_bool "stage durations sum <= span total" true
        (total <= sp.Trace.span_end_at - sp.Trace.span_begin_at);
      (* Stages are consecutive: each starts where the previous stopped. *)
      ignore
        (List.fold_left
           (fun prev (_, start, stop) ->
             (match prev with
             | Some p -> check_int "stages consecutive" p start
             | None -> ());
             Some stop)
           None sp.Trace.span_stages))
    (Trace.spans tr)

(* ------------------------------------------------------------------ *)
(* Span API unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_span_accounting () =
  let tr = Trace.create ~name:"unit" () in
  Trace.span_begin tr ~at:100 ~kind:"k" ~key:"a" ~id:1 ~stage:"s1";
  Trace.span_hop tr ~at:250 ~kind:"k" ~key:"a" ~id:1 ~stage:"s2" ~args:[];
  Trace.span_hop tr ~at:400 ~kind:"k" ~key:"a" ~id:1 ~stage:"s3" ~args:[];
  check_int "open until ended" 1 (Trace.open_spans tr);
  Trace.span_end tr ~at:1000 ~kind:"k" ~key:"a" ~id:1;
  check_int "closed" 0 (Trace.open_spans tr);
  (match Trace.spans tr with
  | [ sp ] ->
      check_int "begin" 100 sp.Trace.span_begin_at;
      check_int "end" 1000 sp.Trace.span_end_at;
      Alcotest.(check (list (triple string int int)))
        "stages partition the lifetime"
        [ ("s1", 100, 250); ("s2", 250, 400); ("s3", 400, 1000) ]
        sp.Trace.span_stages
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans));
  assert_spans_well_formed tr;
  (* Hops and ends for unknown spans are ignored, not fatal — but they
     are counted so the checker can surface instrumentation bugs. *)
  check_int "no orphan hops yet" 0 (Trace.orphan_hops tr);
  check_int "no orphan ends yet" 0 (Trace.orphan_ends tr);
  Trace.span_hop tr ~at:1 ~kind:"k" ~key:"zzz" ~id:9 ~stage:"s" ~args:[];
  Trace.span_end tr ~at:2 ~kind:"k" ~key:"zzz" ~id:9;
  check_int "still one span" 1 (List.length (Trace.spans tr));
  check_int "orphan hop counted" 1 (Trace.orphan_hops tr);
  check_int "orphan end counted" 1 (Trace.orphan_ends tr)

let test_buffer_limit () =
  let tr = Trace.create ~limit:10 ~name:"tiny" () in
  for i = 1 to 25 do
    Trace.charge tr ~at:i ~domain:"d" ~op:"hypercall.x" ~cost:7
  done;
  check_int "capped" 10 (Trace.events tr);
  check_int "overflow counted" 15 (Trace.dropped tr);
  (* The hypercall profile aggregates exactly regardless of the buffer. *)
  match Trace.hypercall_profile [ tr ] with
  | [ (_, "d", "hypercall.x", 25, 175) ] -> ()
  | _ -> Alcotest.fail "profile should be exact despite drops"

(* ------------------------------------------------------------------ *)
(* Scenario integration                                                *)
(* ------------------------------------------------------------------ *)

let with_sink f =
  let sink = Trace.sink () in
  Trace.set_default (Some sink);
  Fun.protect ~finally:(fun () -> Trace.set_default None) (fun () -> f ());
  sink

let test_network_scenario_traced () =
  let sink =
    with_sink (fun () ->
        let s = Scenario.network ~flavor:Scenario.Kite () in
        Scenario.when_net_ready s (fun () ->
            for seq = 1 to 3 do
              ignore
                (Kite_net.Stack.ping s.Scenario.client_stack
                   ~dst:s.Scenario.guest_ip ~seq ())
            done);
        Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5))
  in
  match Trace.traces sink with
  | [ tr ] ->
      check_bool "events recorded" true (Trace.events tr > 0);
      check_int "nothing dropped" 0 (Trace.dropped tr);
      let spans = Trace.spans tr in
      check_bool "net.tx spans completed" true
        (List.exists (fun sp -> sp.Trace.span_kind = "net.tx") spans);
      assert_spans_well_formed tr;
      (* Every net.tx span visits frontend -> queue -> ring -> backend
         -> deliver. *)
      List.iter
        (fun sp ->
          if sp.Trace.span_kind = "net.tx" then
            Alcotest.(check (list string))
              "net.tx stage sequence"
              [ "frontend"; "queue"; "ring"; "backend"; "deliver" ]
              (List.map (fun (st, _, _) -> st) sp.Trace.span_stages))
        spans;
      (* The Chrome export parses and is non-empty. *)
      let json = Trace.to_chrome_json [ tr ] in
      check_bool "chrome json non-empty" true (parse_json json > 0);
      (* The driver domain issued traced hypercalls. *)
      check_bool "hypercall profile non-empty" true
        (Trace.hypercall_profile [ tr ] <> [])
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

let test_storage_scenario_traced () =
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        let dev = Scenario.blockdev s in
        Scenario.when_blk_ready s (fun () ->
            let data = Bytes.make 4096 't' in
            dev.Kite_vfs.Blockdev.write ~sector:0 data;
            ignore (dev.Kite_vfs.Blockdev.read ~sector:0 ~count:8);
            dev.Kite_vfs.Blockdev.flush ());
        Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 5))
  in
  match Trace.traces sink with
  | [ tr ] ->
      let spans = Trace.spans tr in
      check_bool "blk spans completed" true
        (List.exists (fun sp -> sp.Trace.span_kind = "blk") spans);
      assert_spans_well_formed tr;
      List.iter
        (fun sp ->
          if sp.Trace.span_kind = "blk" then
            Alcotest.(check (list string))
              "blk stage sequence"
              [ "frontend"; "queue"; "ring"; "backend"; "map"; "device";
                "complete" ]
              (List.map (fun (st, _, _) -> st) sp.Trace.span_stages))
        spans;
      let json = Trace.to_chrome_json [ tr ] in
      check_bool "chrome json non-empty" true (parse_json json > 0)
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

(* Spans crossing a driver-domain crash/restart.  Requests journaled at
   the crash are replayed into the rebuilt backend without re-issuing
   span_begin, so a replayed request's single span legitimately begins
   before the outage and ends after it — the partition invariants must
   hold across that straddle, and no span may be left open. *)
let test_spans_cross_restart () =
  let writes = 64 in
  let downtime = ref None in
  let replayed = ref 0 in
  let sink =
    with_sink (fun () ->
        let s = Scenario.storage ~flavor:Scenario.Kite () in
        Scenario.when_blk_ready s (fun () ->
            Scenario.crash_and_restart_blk s ~flavor:Scenario.Kite
              ~at:(Time.ms 2)
              ~on_restored:(fun ~downtime:d -> downtime := Some d)
              ();
            let front = s.Scenario.blkfront in
            for k = 0 to writes - 1 do
              let data = Bytes.make Kite_drivers.Blkfront.sector_size 'r' in
              Kite_drivers.Blkfront.write front ~sector:k data
            done);
        Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 7200);
        replayed := Kite_drivers.Blkfront.replayed s.Scenario.blkfront)
  in
  let dt = match !downtime with Some d -> d | None -> Alcotest.fail "no restore" in
  check_bool "crash landed on a non-empty journal" true (!replayed > 0);
  match Trace.traces sink with
  | [ tr ] ->
      (* Every request completed exactly once, nothing left open. *)
      check_int "no span leaks across the restart" 0 (Trace.open_spans tr);
      let spans =
        List.filter (fun sp -> sp.Trace.span_kind = "blk") (Trace.spans tr)
      in
      check_int "one completed span per write" writes (List.length spans);
      assert_spans_well_formed tr;
      (* The replayed request's span straddles the whole outage... *)
      let straddle =
        match
          List.find_opt
            (fun sp -> sp.Trace.span_end_at - sp.Trace.span_begin_at >= dt)
            spans
        with
        | Some sp -> sp
        | None -> Alcotest.fail "no span straddles the outage"
      in
      (* ...and bounds the crash instant: it ends one replay after the
         restore, so [span_end_at - dt] sits just past the crash.  Spans
         partition cleanly on both sides of that boundary. *)
      let boundary = straddle.Trace.span_end_at - dt in
      check_bool "spans completed before the crash" true
        (List.exists (fun sp -> sp.Trace.span_end_at < boundary) spans);
      check_bool "spans began after the restart" true
        (List.exists (fun sp -> sp.Trace.span_begin_at > boundary) spans)
  | ts -> Alcotest.failf "expected 1 traced machine, got %d" (List.length ts)

let test_disabled_emits_nothing () =
  (* No default sink: the scenario must run completely untraced. *)
  check_bool "no ambient sink" true (Trace.default () = None);
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let got = ref None in
  Scenario.when_net_ready s (fun () ->
      got :=
        Kite_net.Stack.ping s.Scenario.client_stack ~dst:s.Scenario.guest_ip
          ~seq:1 ());
  Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5);
  check_bool "traffic flowed" true (!got <> None);
  check_bool "no tracer attached" true (s.Scenario.ctx.Kite_drivers.Xen_ctx.trace = None);
  check_bool "hypervisor tracer off" true
    (Kite_xen.Hypervisor.trace s.Scenario.hv = None)

let test_breakdown_totals_last () =
  let tr = Trace.create () in
  Trace.span_begin tr ~at:0 ~kind:"k" ~key:"x" ~id:1 ~stage:"a";
  Trace.span_hop tr ~at:10 ~kind:"k" ~key:"x" ~id:1 ~stage:"b" ~args:[];
  Trace.span_end tr ~at:30 ~kind:"k" ~key:"x" ~id:1;
  match Trace.breakdown [ tr ] with
  | [ ("k", stages) ] ->
      Alcotest.(check (list string))
        "stage order with TOTAL last" [ "a"; "b"; "TOTAL" ]
        (List.map fst stages);
      Alcotest.(check (list (list (float 1e-9))))
        "durations" [ [ 10. ]; [ 20. ]; [ 30. ] ] (List.map snd stages)
  | _ -> Alcotest.fail "expected one kind"

let test_breakdown_tables_render () =
  let tr = Trace.create ~name:"unit" () in
  Trace.span_begin tr ~at:0 ~kind:"net.tx" ~key:"p" ~id:1 ~stage:"frontend";
  Trace.span_hop tr ~at:1000 ~kind:"net.tx" ~key:"p" ~id:1 ~stage:"ring"
    ~args:[];
  Trace.span_end tr ~at:3000 ~kind:"net.tx" ~key:"p" ~id:1;
  match Trace_report.breakdown_tables [ tr ] with
  | [ table ] ->
      let text = Kite_stats.Table.render table in
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun needle -> check_bool needle true (contains needle))
        [ "net.tx"; "frontend"; "ring"; "TOTAL" ]
  | ts -> Alcotest.failf "expected one breakdown table, got %d" (List.length ts)

(* The shared escaper, over arbitrary bytes: no raw control byte
   survives, and the quoted result is a JSON string the validator
   accepts. *)
let prop_json_escape =
  QCheck.Test.make ~name:"json escape yields valid JSON strings" ~count:500
    QCheck.(string_gen Gen.char)
    (fun s ->
      let e = Kite_stats.Json.escape s in
      String.for_all (fun c -> Char.code c >= 0x20) e
      && parse_json ("[\"" ^ e ^ "\"]") = 1)

let suite =
  [
    ("span accounting", `Quick, test_span_accounting);
    ("buffer limit + exact profile", `Quick, test_buffer_limit);
    ("breakdown totals last", `Quick, test_breakdown_totals_last);
    ("breakdown tables render", `Quick, test_breakdown_tables_render);
    ("network scenario traced", `Quick, test_network_scenario_traced);
    ("storage scenario traced", `Quick, test_storage_scenario_traced);
    ("spans cross crash/restart", `Quick, test_spans_cross_restart);
    ("disabled tracer emits nothing", `Quick, test_disabled_emits_nothing);
    QCheck_alcotest.to_alcotest prop_json_escape;
  ]
