(* The benchmark harness.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   One process, one OCaml domain.  A run repeats identical rounds of the
   workload (same seed, so the same simulated work) until [--seconds] of
   host time have passed, and reports host-time figures as medians over
   the rounds after the first.  Each round builds a fresh testbed, so
   set-up time is measured once per round and again in set-up-only
   repetitions.  Every simulated figure is checked to repeat exactly
   across rounds.

   [--trace 0] prints the end-to-end metrics; [--trace 1] additionally
   runs the per-layer microbenchmarks, alternates traced and untraced
   rounds, runs the stacked observability ablation, records spans and GC
   pauses, and prints the per-layer metrics.  The last line of standard
   output is one JSON object: correct, attempted, failed, metrics. *)

open Kite_sim
module W = Workloads
module Hv = Kite_xen.Hypervisor

let handshake_slice = Time.us 50
let slice = Time.ms 1
let sim_limit = Time.sec 600
let setup_reps = 3
let ablation_scale = 0.25
let micro_budget_ns = 200_000_000

(* Abort rather than overrun the per-run time limit. *)
let host_deadline = ref max_int

(* Run the machine in fixed simulated slices until [flag] is set.  The
   slicing is the same traced or not, so it cannot change the digest;
   each slice is a span in traced rounds. *)
let run_until ?(spans = false) hv flag step =
  let t0 = Hv.now hv in
  while not !flag do
    if Hv.now hv - t0 > sim_limit then failwith "simulation did not finish";
    if Probe.now_ns () > !host_deadline then failwith "host time limit hit";
    if spans then begin
      let h0 = Probe.now_ns () in
      Hv.run_for hv step;
      Probe.record ~cat:"engine" "engine.slice" h0 (Probe.now_ns ());
      Probe.poll_gc ()
    end
    else Hv.run_for hv step
  done

type round = {
  setups : (float * float) list;
      (** (testbed build + server start, handshake) seconds of the
          round's own set-up and of the set-up-only repetitions before it *)
  timed_s : float;  (** host time, handshake complete -> last completion *)
  words : float;
  gc : Probe.gc_delta;
  pause_s : float;  (** GC pause time in the timed phase (traced only) *)
  sim_ns : int;
  outcome : W.outcome;
  deltas : (string * float) list;  (** simulated counters over the load *)
  findings : int;  (** checker + race findings *)
  digest : string;
}

let delta c0 c1 =
  List.map
    (fun (k, v1) ->
      (k, v1 -. Option.value (List.assoc_opt k c0) ~default:0.0))
    c1

let digest (o : W.outcome) deltas =
  let b = Buffer.create (8 * Array.length o.W.latencies) in
  Printf.bprintf b "%d %d\n" o.W.attempted o.W.failed;
  Array.iter (fun v -> Printf.bprintf b "%d," v) o.W.latencies;
  List.iter (fun (k, v) -> Printf.bprintf b "\n%s=%.17g" k v) deltas;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Build the testbed (server side included) and run it until the
   handshake completes: the set-up time, in its two parts.  An empty
   minor heap at the start keeps collections of earlier garbage out of
   it. *)
let set_up build =
  Gc.minor ();
  let t0 = Probe.now_ns () in
  let bed = Probe.span ~cat:"core" "setup.testbed" build in
  let t1 = Probe.now_ns () in
  Probe.span ~cat:"core" "setup.handshake" (fun () ->
      run_until bed.W.hv bed.W.ready handshake_slice);
  (bed, Probe.secs (t1 - t0), Probe.secs (Probe.now_ns () - t1))

(* Set up and tear down, with no load. *)
let setup_only (w : W.t) ~seed =
  let build = w.W.build ~seed ~scale:1.0 in
  ignore (W.arm w.W.layers);
  Fun.protect ~finally:W.disarm (fun () ->
      let _, build_s, handshake_s = set_up build in
      Kite.Scenario.teardown_all ();
      (build_s, handshake_s))

(* One full round, after [setup_reps] set-up-only repetitions.  A full
   major collection first frees the previous round's testbed, so every
   set-up and timed phase starts from a similar heap, the set-up samples
   spread over the whole run as the rounds do, and the peak heap
   reflects one testbed, not the garbage of several. *)
let round (w : W.t) ~seed ~layers ~scale ~spans ~setup_reps =
  Gc.full_major ();
  let setups = List.init setup_reps (fun _ -> setup_only w ~seed) in
  let build = w.W.build ~seed ~scale in
  let report = W.arm layers in
  Fun.protect ~finally:W.disarm (fun () ->
      let bed, build_s, handshake_s = set_up build in
      Probe.span ~cat:"core" "setup.inputs" (fun () ->
          run_until bed.W.hv (bed.W.prepare ()) slice);
      let c0 = bed.W.counters () in
      let sim0 = Hv.now bed.W.hv in
      let pause0 = Probe.gc_pause_s () in
      let gc0 = Gc.quick_stat () in
      let w0 = Probe.words () in
      let t3 = Probe.now_ns () in
      bed.W.start ();
      run_until ~spans bed.W.hv bed.W.finished slice;
      let t4 = Probe.now_ns () in
      let words = Probe.words () -. w0 in
      let gc = Probe.gc_since gc0 in
      let pause_s = Probe.gc_pause_s () -. pause0 in
      let sim_ns = Hv.now bed.W.hv - sim0 in
      let deltas = delta c0 (bed.W.counters ()) in
      let outcome = bed.W.collect () in
      Probe.span ~cat:"core" "teardown" Kite.Scenario.teardown_all;
      {
        setups = (build_s, handshake_s) :: setups;
        timed_s = Probe.secs (t4 - t3);
        words;
        gc;
        pause_s;
        sim_ns;
        outcome;
        deltas;
        findings = Kite_check.Report.count report;
        digest = digest outcome deltas;
      })

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median = Probe.median

(* Nearest-rank percentile of sorted samples, in us; [None] when fewer
   than ten samples lie beyond it. *)
let percentile_us sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n = 0 || n - rank < 10 then None
  else Some (float_of_int sorted.(max 0 (rank - 1)) /. 1e3)

(* The rounds the medians are taken over: all but the warm-up round. *)
let measured = function [ r ] -> [ r ] | _ :: rs -> rs | [] -> []

let count deltas k = Option.value (List.assoc_opt k deltas) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let errors = ref []
let fail msg = errors := msg :: !errors

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    fail "a metric is not finite";
    "0"
  end

let print_result ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-44s %16.6f %s\n" name v unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  List.iter (Printf.printf "CHECK FAILED: %s\n") (List.rev !errors);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!errors = []) attempted failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Checks shared by every round                                        *)
(* ------------------------------------------------------------------ *)

let check_round ~what ~reference r =
  List.iter (fun e -> fail (what ^ ": " ^ e)) r.outcome.W.errors;
  if r.findings > 0 then
    fail (Printf.sprintf "%s: %d checker/race findings" what r.findings);
  if r.digest <> reference.digest then
    fail (Printf.sprintf "%s: simulated digest %s differs from %s" what r.digest
            reference.digest)

let sim_metrics r =
  let o = r.outcome in
  let sorted = Array.copy o.W.latencies in
  Array.sort compare sorted;
  let pct name q =
    match percentile_us sorted q with
    | Some v -> (name, v, "us")
    | None ->
        fail (Printf.sprintf "%s: fewer than 10 samples beyond it" name);
        (name, nan, "us")
  in
  let completed = float_of_int (Array.length o.W.latencies) in
  let hypercalls =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"hypercall." k then acc +. v else acc)
      0.0 r.deltas
  in
  [
    pct "sim_p50_us" 0.5;
    pct "sim_p99_us" 0.99;
    pct "sim_p999_us" 0.999;
    ("sim_hypercalls_per_op", ratio hypercalls completed, "count");
  ]

let completed r = float_of_int (Array.length r.outcome.W.latencies)

let end_to_end ~rounds ~setups ~peak_words =
  let ms = measured rounds in
  let r = List.hd rounds in
  [
    ( "host_ops_per_s",
      median (List.map (fun r -> completed r /. r.timed_s) ms),
      "ops/s" );
    ( "host_words_per_op",
      median (List.map (fun r -> r.words /. completed r) ms),
      "words" );
    ( "host_peak_heap_mb",
      float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0,
      "MiB" );
    ("setup_s", median setups, "s");
  ]
  @ sim_metrics r

let per_layer_counters r =
  let d = r.deltas in
  let ops = completed r in
  let per_op k = ratio (count d k) ops in
  let requests = count d "blkback.requests" in
  let segments = count d "blkback.segments" in
  [
    ("xen.hypercall.evtchn_send_per_op", per_op "hypercall.evtchn_send", "count");
    ("xen.hypercall.grant_copy_per_op", per_op "hypercall.grant_copy", "count");
    ("xen.hypercall.grant_map_per_op", per_op "hypercall.grant_map", "count");
    ("xen.hypercall.grant_unmap_per_op", per_op "hypercall.grant_unmap", "count");
    ( "xen.vcpu_busy_frac.driver_domain",
      ratio (count d "busy.driver_domain") (float_of_int r.sim_ns),
      "ratio" );
    ("drivers.blkback.segments_per_request", ratio segments requests, "count");
    ( "drivers.blkback.grant_maps_per_segment",
      ratio (count d "grant.maps") segments,
      "ratio" );
    ( "drivers.blkback.indirect_frac",
      ratio (count d "blkback.indirect") requests,
      "ratio" );
    ("drivers.blkfront.resubmits", count d "blkfront.resubmits", "count");
    ("drivers.netback.rx_dropped", count d "netback.rx_dropped", "count");
    ("drivers.netfront.tx_dropped", count d "netfront.tx_dropped", "count");
    ("devices.nic.tx_per_op", per_op "nic.tx", "count");
    ("devices.nic.dropped", count d "nic.dropped", "count");
    ("devices.nvme.ops_per_request", ratio (count d "nvme.ops") requests, "count");
    ("net.tcp.retransmissions", count d "tcp.retransmissions", "count");
    ( "bench.failed_frac",
      ratio (float_of_int r.outcome.W.failed)
        (float_of_int r.outcome.W.attempted),
      "ratio" );
  ]

(* Stacked ablation: bare, then each observability layer armed on top
   of the previous ones.  Each step reports the host time and words it
   added over the step before, and whether arming it changed the
   simulated digest. *)
let ablation (w : W.t) ~seed =
  let run layers name =
    let r =
      Probe.span ~cat:"ablation" ("ablation." ^ name) (fun () ->
          round w ~seed ~layers ~scale:ablation_scale ~spans:false
            ~setup_reps:0)
    in
    List.iter (fun e -> fail ("ablation " ^ name ^ ": " ^ e)) r.outcome.W.errors;
    if r.findings > 0 then
      fail (Printf.sprintf "ablation %s: %d checker/race findings" name r.findings);
    r
  in
  let _, rows =
    List.fold_left
      (fun (prev, rows) (i, layer) ->
        let name = W.layer_name layer in
        let r = run (List.filteri (fun j _ -> j <= i) W.all_layers) name in
        ( r,
          rows
          @ [
              (name ^ ".host_s_added", r.timed_s -. prev.timed_s, "s");
              ( name ^ ".words_per_op_added",
                (r.words /. completed r) -. (prev.words /. completed prev),
                "words" );
              ( name ^ ".sim_digest_match",
                (if r.digest = prev.digest then 1.0 else 0.0),
                "bool" );
            ] ))
      (run [] "bare", [])
      (List.mapi (fun i l -> (i, l)) W.all_layers)
  in
  rows

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S host seconds of measured rounds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (have %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let seed = !seed and traced = !trace = 1 in
  let t_start = Probe.now_ns () in
  host_deadline := t_start + 170_000_000_000;
  let budget_end = t_start + (!seconds * 1_000_000_000) in
  if traced then Probe.start_gc_events ();
  Probe.tracing := traced;
  let micro = if traced then Micro.run_all ~budget_ns:micro_budget_ns else [] in
  (* Rounds until the budget is spent, at least three.  A traced run
     alternates untraced and traced rounds, starting untraced.  The peak
     heap is read after the first round: later rounds reuse the heap,
     but its fragmentation creeps up with their number, which depends
     on host speed. *)
  let peak_words = ref 0 in
  let rec loop i acc =
    if i >= 3 && Probe.now_ns () >= budget_end then List.rev acc
    else begin
      let spans = traced && i mod 2 = 1 in
      Probe.tracing := spans;
      let r =
        round w ~seed ~layers:w.W.layers ~scale:1.0 ~spans ~setup_reps
      in
      Probe.tracing := traced;
      if i = 0 then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (i + 1) ((spans, r) :: acc)
    end
  in
  let all = loop 0 [] in
  let rounds = List.map snd all in
  let reference = List.hd rounds in
  List.iteri
    (fun i r -> check_round ~what:(Printf.sprintf "round %d" i) ~reference r)
    rounds;
  let attempted =
    List.fold_left (fun acc r -> acc + r.outcome.W.attempted) 0 rounds
  in
  let failed = List.fold_left (fun acc r -> acc + r.outcome.W.failed) 0 rounds in
  let setup_parts = List.concat_map (fun r -> r.setups) rounds in
  let setups = List.map (fun (b, h) -> b +. h) setup_parts in
  Printf.printf "workload %s seed %d: %d rounds, digest %s\n" w.W.name seed
    (List.length rounds) reference.digest;
  List.iteri
    (fun i (spans, r) ->
      Printf.printf "round %d%s: %.3f s timed, %.0f ops/s, %.1f words/op\n" i
        (if spans then " (traced)" else "")
        r.timed_s (completed r /. r.timed_s) (r.words /. completed r))
    all;
  let ms = measured rounds in
  let gcs = List.map (fun r -> r.gc) ms in
  Printf.printf
    "gc per round: %.0f minor, %.0f major collections, %.1f promoted words/op\n"
    (median (List.map (fun g -> float_of_int g.Probe.minor_collections) gcs))
    (median (List.map (fun g -> float_of_int g.Probe.major_collections) gcs))
    (median
       (List.map (fun r -> r.gc.Probe.promoted_words /. completed r) ms));
  if not traced then
    print_result ~attempted ~failed
      (end_to_end ~rounds ~setups ~peak_words:!peak_words)
  else begin
    let untraced = List.filter_map (fun (s, r) -> if s then None else Some r) all in
    let traced_rounds = List.filter_map (fun (s, r) -> if s then Some r else None) all in
    let med f l = median (List.map f l) in
    let abl = ablation w ~seed in
    let metrics =
      [
        ( "sim.sim_s_per_host_s",
          med (fun r -> Time.to_sec_f r.sim_ns /. r.timed_s) (measured untraced),
          "ratio" );
      ]
      @ micro
      @ per_layer_counters reference
      @ abl
      @ [
          ( "gc.minor_collections",
            med (fun r -> float_of_int r.gc.Probe.minor_collections) traced_rounds,
            "count" );
          ( "gc.major_collections",
            med (fun r -> float_of_int r.gc.Probe.major_collections) traced_rounds,
            "count" );
          ( "gc.promoted_words_per_op",
            med (fun r -> r.gc.Probe.promoted_words /. completed r) traced_rounds,
            "words" );
          ("gc.pause_s", med (fun r -> r.pause_s) traced_rounds, "s");
          ("core.setup.testbed_s", median (List.map fst setup_parts), "s");
          ("core.setup.handshake_s", median (List.map snd setup_parts), "s");
          ( "bench.trace_overhead",
            med (fun r -> r.timed_s) traced_rounds
            /. med (fun r -> r.timed_s) (measured untraced),
            "ratio" );
        ]
    in
    (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf ".bench_out/spans-%s-%d.json" w.W.name seed in
    Probe.tracing := false;
    Probe.write_spans path;
    Printf.printf "spans: %s\n" path;
    print_result ~attempted ~failed metrics
  end;
  if !errors <> [] then exit 1
