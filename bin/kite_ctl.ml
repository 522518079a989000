(* kite_ctl — command-line front end for the Kite reproduction.

   Mirrors the xl-flavoured workflow of the paper's artifact: list and run
   experiments, replay boots, print domain topology and security reports.

     kite_ctl list
     kite_ctl run fig9 --quick
     kite_ctl check fig7
     kite_ctl trace fig7 --out trace.json --breakdown --hypercalls
     kite_ctl faults fig11 --seed 7 --plan faults.txt
     kite_ctl top fig7 --sort rate
     kite_ctl metrics fig7 --json
     kite_ctl path fig7 --waterfall
     kite_ctl path --saturation
     kite_ctl flight restart-recovery
     kite_ctl incident restart-recovery --require incident,crash,restart,slo
     kite_ctl boot kite-network
     kite_ctl security
     kite_ctl topology --flavor kite *)

open Cmdliner

let quick_arg =
  let doc = "Run at reduced scale (smoke pass)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let full_arg =
  let doc = "Run the experiments at full scale (default: quick)." in
  Arg.(value & flag & info [ "full" ] ~doc)

(* Experiment selection, shared by run/check/trace: resolve [id] ('all'
   runs everything) and apply [run_one] to each selected experiment. *)
let for_experiments id run_one =
  if id = "all" then begin
    List.iter run_one Kite.Experiments.all;
    `Ok ()
  end
  else
    match List.find_opt (fun (i, _, _) -> i = id) Kite.Experiments.all with
    | Some exp ->
        run_one exp;
        `Ok ()
    | None -> `Error (false, "unknown experiment " ^ id ^ "; try 'list'")

(* Set a run-wide sink and hand it back. *)
let arm set sink =
  set (Some sink);
  sink

(* Run the selected experiments under whichever run-wide sinks the caller
   armed, once per schedule seed in [seeds], tearing each experiment's
   testbeds down so the end-of-run audits run ([before_teardown] runs
   first, while they are still live).  Every sink and the schedule seed
   are cleared afterwards, whatever happens; [render] then runs only if
   every id resolved.  [progress] is the verb of a per-experiment line. *)
let run_under ~full ?(seeds = [ None ]) ?progress ?(before_teardown = ignore)
    id render =
  let quick = not full in
  let rec sweep = function
    | [] -> `Ok ()
    | seed :: rest -> (
        Kite.Scenario.set_schedule_seed seed;
        match
          for_experiments id (fun (eid, _desc, f) ->
              Option.iter
                (fun verb ->
                  Printf.printf "%s %s%s...\n%!" verb eid
                    (match seed with
                    | Some s -> Printf.sprintf " under schedule seed %d" s
                    | None -> ""))
                progress;
              ignore (f ~quick);
              before_teardown ();
              Kite.Scenario.teardown_all ())
        with
        | `Ok () -> sweep rest
        | `Error _ as e -> e)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Kite.Scenario.set_schedule_seed None;
        Kite_check.Check.set_default None;
        Kite_race.Race.set_default None;
        Kite_trace.Trace.set_default None;
        Kite_fault.Fault.set_default None;
        Kite_metrics.Registry.set_default None;
        Kite_path.Path.set_default None;
        Kite_flight.Flight.set_default None)
      (fun () -> sweep seeds)
  in
  match outcome with `Error _ as e -> e | `Ok () -> render ()

let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

let strict_arg =
  let doc = "Exit nonzero on warnings too, not just errors." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let findings_json_arg = json_arg "Emit the findings as JSON instead of text."

(* Print the checker's findings; exit 1 on errors, or on warnings too
   under [--strict]. *)
let findings ~json ~strict report =
  if json then print_string (Kite_check.Report.to_json report)
  else Kite_check.Report.print report;
  let errors = Kite_check.Report.errors report in
  let warnings = Kite_check.Report.warnings report in
  if errors > 0 || (strict && warnings > 0) then exit 1;
  `Ok ()

let checker report =
  Kite_check.Check.set_default (Some (Kite_check.Check.default_config, report))

(* ------------------------------------------------------------------ *)
(* list                                                                *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun (id, desc, _) -> Printf.printf "%-12s %s\n" id desc)
      Kite.Experiments.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the available experiments.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let id_arg =
    let doc = "Experiment id (see $(b,list)); 'all' runs everything." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run quick id =
    for_experiments id (fun (eid, desc, f) ->
        Printf.printf "\n### %s — %s\n%!" eid desc;
        let outcome = f ~quick in
        List.iter Kite_stats.Table.print outcome.Kite.Experiments.tables)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment (or 'all').")
    Term.(ret (const run $ quick_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let id_arg =
    let doc =
      "Experiment id to check (see $(b,list)); 'all' checks everything."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run full strict json id =
    let report = Kite_check.Report.create () in
    checker report;
    run_under ~full
      ?progress:(if json then None else Some "checking")
      id
      (fun () -> findings ~json ~strict report)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run experiments under the protocol-invariant checker (grants, \
          rings, xenstore, scheduler) and report violations.")
    Term.(ret (const run $ full_arg $ strict_arg $ findings_json_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* race                                                                *)
(* ------------------------------------------------------------------ *)

let race_cmd =
  let id_arg =
    let doc =
      "Experiment id to explore (see $(b,list)); 'all' explores \
       everything."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let sweep_arg =
    let doc = "Number of schedule seeds to sweep (default 1)." in
    Arg.(value & opt int 1 & info [ "sweep" ] ~docv:"N" ~doc)
  in
  let seed0_arg =
    let doc = "First schedule seed of the sweep (default 1)." in
    Arg.(value & opt int 1 & info [ "schedule-seed" ] ~docv:"SEED" ~doc)
  in
  let run full strict json sweep seed0 id =
    let report = Kite_check.Report.create () in
    (* One shared report: the race detector and the protocol checker are
       co-oracles for every schedule explored. *)
    Kite_race.Race.set_default (Some (Kite_race.Race.sink ~report ()));
    checker report;
    run_under ~full
      ~seeds:(List.init (max 1 sweep) (fun i -> Some (seed0 + i)))
      ?progress:(if json then None else Some "racing")
      id
      (fun () -> findings ~json ~strict report)
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Run experiments under the happens-before race detector, \
          sweeping randomized schedules ($(b,--sweep)) with the protocol \
          checker as co-oracle.")
    Term.(
      ret
        (const run $ full_arg $ strict_arg $ findings_json_arg $ sweep_arg
       $ seed0_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let paths_arg =
    let doc = "Files or directories to lint (default: lib)." in
    Arg.(value & pos_all string [ "lib" ] & info [] ~docv:"PATH" ~doc)
  in
  let run json paths =
    let report = Kite_check.Report.create () in
    let linted = Kite_lint.Lint.lint_paths report paths in
    if json then print_string (Kite_check.Report.to_json report)
    else begin
      Printf.printf "linted %d files\n" linted;
      Kite_check.Report.print report
    end;
    if Kite_check.Report.errors report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check the sources for instrumentation discipline: \
          guarded hot hooks, paired grant map/unmap and watch/unwatch, \
          testbed teardown registration.")
    Term.(const run $ findings_json_arg $ paths_arg)

(* ------------------------------------------------------------------ *)
(* boot                                                                *)
(* ------------------------------------------------------------------ *)

let profiles =
  [
    ("kite-network", Kite_profiles.Boot.kite_network);
    ("kite-storage", Kite_profiles.Boot.kite_storage);
    ("kite-dhcp", Kite_profiles.Boot.kite_dhcp);
    ("linux", Kite_profiles.Boot.linux_driver_domain);
  ]

let boot_cmd =
  let profile_arg =
    let doc =
      "Boot profile: " ^ String.concat ", " (List.map fst profiles) ^ "."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROFILE" ~doc)
  in
  let run name =
    match List.assoc_opt name profiles with
    | None -> `Error (false, "unknown profile " ^ name)
    | Some boot ->
        let engine = Kite_sim.Engine.create () in
        let sched = Kite_sim.Process.scheduler engine in
        Printf.printf "booting %s...\n" (Kite_profiles.Boot.name boot);
        let acc = ref 0 in
        List.iter
          (fun st ->
            acc := !acc + st.Kite_profiles.Boot.duration;
            Printf.printf "  [%6.2fs] %s\n"
              (Kite_sim.Time.to_sec_f !acc)
              st.Kite_profiles.Boot.stage_name)
          (Kite_profiles.Boot.stages boot);
        Kite_profiles.Boot.run sched boot ~on_ready:(fun at ->
            Printf.printf "ready after %s (simulated)\n"
              (Kite_sim.Time.to_string at));
        Kite_sim.Engine.run engine;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Replay a domain's boot sequence on the simulator.")
    Term.(ret (const run $ profile_arg))

(* ------------------------------------------------------------------ *)
(* security                                                            *)
(* ------------------------------------------------------------------ *)

let security_cmd =
  let run quick =
    List.iter
      (fun id ->
        match Kite.Experiments.find id with
        | Some f ->
            List.iter Kite_stats.Table.print
              (f ~quick).Kite.Experiments.tables
        | None -> ())
      [ "fig4a"; "fig4b"; "table3"; "fig5" ]
  in
  Cmd.v
    (Cmd.info "security"
       ~doc:"Print the full security report (syscalls, images, CVEs, gadgets).")
    Term.(const run $ quick_arg)

(* ------------------------------------------------------------------ *)
(* topology                                                            *)
(* ------------------------------------------------------------------ *)

let topology_cmd =
  let flavor_arg =
    let doc = "Driver-domain flavor: kite or linux." in
    Arg.(value & opt string "kite" & info [ "flavor" ] ~doc)
  in
  let run flavor_s =
    let flavor =
      match String.lowercase_ascii flavor_s with
      | "linux" -> Kite.Scenario.Linux
      | _ -> Kite.Scenario.Kite
    in
    let s = Kite.Scenario.network ~flavor () in
    Kite.Scenario.when_net_ready s (fun () -> ());
    Kite_xen.Hypervisor.run_for s.Kite.Scenario.hv (Kite_sim.Time.sec 2);
    Printf.printf "domains:\n";
    List.iter
      (fun d -> Format.printf "  %a@." Kite_xen.Domain.pp d)
      (Kite_xen.Hypervisor.domains s.Kite.Scenario.hv);
    let bridge = Kite_drivers.Net_app.bridge s.Kite.Scenario.net_app in
    Printf.printf "bridge %s ports:\n" (Kite_net.Bridge.name bridge);
    List.iter
      (fun p -> Printf.printf "  %s\n" (Kite_net.Netdev.name p))
      (Kite_net.Bridge.ports bridge);
    Printf.printf "xenstore (device paths):\n";
    let xs = Kite_xen.Hypervisor.store s.Kite.Scenario.hv in
    List.iter
      (fun domid ->
        let base = Printf.sprintf "/local/domain/%s" domid in
        List.iter
          (fun sub ->
            Printf.printf "  %s/%s\n" base sub)
          (Kite_xen.Xenstore.directory xs ~path:base))
      (Kite_xen.Xenstore.directory xs ~path:"/local/domain")
  in
  Cmd.v
    (Cmd.info "topology"
       ~doc:"Boot the network testbed and print its domain/bridge topology.")
    Term.(const run $ flavor_arg)

(* ------------------------------------------------------------------ *)
(* capture                                                             *)
(* ------------------------------------------------------------------ *)

let capture_cmd =
  let run () =
    let s = Kite.Scenario.network ~flavor:Kite.Scenario.Kite () in
    (* tcpdump on the guest's paravirtual interface. *)
    let cap =
      Kite_net.Capture.attach
        (Kite_xen.Hypervisor.engine s.Kite.Scenario.hv)
        (Kite_net.Stack.dev s.Kite.Scenario.guest_stack)
    in
    Kite.Scenario.when_net_ready s (fun () ->
        ignore
          (Kite_net.Stack.ping s.Kite.Scenario.client_stack
             ~dst:s.Kite.Scenario.guest_ip ~seq:1 ());
        let sock =
          Kite_net.Stack.udp_bind s.Kite.Scenario.client_stack ~port:40000
        in
        Kite_net.Stack.udp_send s.Kite.Scenario.client_stack sock
          ~dst:s.Kite.Scenario.guest_ip ~dst_port:9 (Bytes.of_string "probe"));
    Kite_xen.Hypervisor.run_for s.Kite.Scenario.hv (Kite_sim.Time.sec 3);
    Printf.printf "captured %d frames on the guest VIF:\n"
      (Kite_net.Capture.captured cap);
    List.iter print_endline (Kite_net.Capture.dump cap)
  in
  Cmd.v
    (Cmd.info "capture"
       ~doc:
         "Run a ping + UDP probe through the Kite network domain and dump \
          a tcpdump-style capture from the guest interface.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let id_arg =
    let doc =
      "Experiment id to trace (see $(b,list)); 'all' traces everything."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_arg =
    let doc = "Write Chrome trace-event JSON to $(docv) (Perfetto-loadable)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let breakdown_arg =
    let doc = "Print per-hop latency-breakdown tables for the traced spans." in
    Arg.(value & flag & info [ "breakdown" ] ~doc)
  in
  let hypercalls_arg =
    let doc = "Print the per-domain hypercall profile (xentrace-style)." in
    Arg.(value & flag & info [ "hypercalls" ] ~doc)
  in
  let fail_on_drop_arg =
    let doc =
      "Exit nonzero if any bounded trace buffer dropped events (the \
       Chrome export and breakdowns would silently under-count)."
    in
    Arg.(value & flag & info [ "fail-on-drop" ] ~doc)
  in
  let run full out breakdown hypercalls fail_on_drop id =
    let sink = arm Kite_trace.Trace.set_default (Kite_trace.Trace.sink ()) in
    run_under ~full ~progress:"tracing" id (fun () ->
        let ts = Kite_trace.Trace.traces sink in
        Kite_stats.Table.print (Kite.Trace_report.summary_table ts);
        (match out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Kite_trace.Trace.to_chrome_json ts);
            close_out oc;
            Printf.printf "wrote %s (load in Perfetto or chrome://tracing)\n"
              path
        | None -> ());
        if breakdown then
          List.iter Kite_stats.Table.print (Kite.Trace_report.breakdown_tables ts);
        if hypercalls then
          Kite_stats.Table.print (Kite.Trace_report.hypercall_table ts);
        let lost = Kite.Trace_report.total_dropped ts in
        if fail_on_drop && lost > 0 then begin
          Printf.eprintf
            "FAIL: %d trace event(s) dropped at the buffer limit; raise \
             ?limit or trace a smaller experiment\n"
            lost;
          exit 1
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run experiments under the event tracer: export Chrome \
          trace-event JSON, per-hop latency breakdowns and per-domain \
          hypercall profiles.")
    Term.(
      ret
        (const run $ full_arg $ out_arg $ breakdown_arg $ hypercalls_arg
       $ fail_on_drop_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let id_arg =
    let doc =
      "Experiment id to run under fault injection (see $(b,list)); 'all' \
       runs everything."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let seed_arg =
    let doc =
      "Injection seed: the same seed and plan reproduce the same faults."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let plan_arg =
    let doc =
      "Read the injection plan from $(docv) (one spec per line: POINT \
       key=K first=N every=N count=N prob=F).  Default: the built-in \
       device-error plan."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let json_arg =
    json_arg "Emit the injection/recovery log as JSON instead of text."
  in
  let run full seed plan_file json id =
    let plan_r =
      match plan_file with
      | None -> Ok Kite_fault.Fault.default_plan
      | Some path -> (
          (* Read in a loop: the plan may arrive on a pipe or process
             substitution, where in_channel_length cannot seek. *)
          try
            let ic = open_in path in
            let b = Buffer.create 256 in
            (try
               while true do
                 Buffer.add_channel b ic 1
               done
             with End_of_file -> ());
            close_in ic;
            Kite_fault.Fault.plan_of_string (Buffer.contents b)
          with Sys_error msg -> Error msg)
    in
    match plan_r with
    | Error msg -> `Error (false, "bad plan: " ^ msg)
    | Ok plan ->
        let sink =
          arm Kite_fault.Fault.set_default (Kite_fault.Fault.sink ~seed plan)
        in
        run_under ~full
          ?progress:(if json then None else Some "injecting faults into")
          id
          (fun () ->
            let fs = Kite_fault.Fault.faults sink in
            if json then print_string (Kite_fault.Fault.to_json fs)
            else Kite_fault.Fault.print fs;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run experiments under seeded fault injection (device errors, \
          dropped notifications, xenstore loss, ring corruption) and \
          report what was injected and how the drivers recovered.")
    Term.(ret (const run $ full_arg $ seed_arg $ plan_arg $ json_arg $ id_arg))

(* ------------------------------------------------------------------ *)
(* metrics / top                                                       *)
(* ------------------------------------------------------------------ *)

(* Run the selected experiments with a metrics sink armed (every testbed
   machine attaches a registry and its Dom0 sampler), then hand the
   collected registries to [render]. *)
let with_metrics ~full ~progress id render =
  let sink =
    arm Kite_metrics.Registry.set_default (Kite_metrics.Registry.sink ())
  in
  run_under ~full ?progress:(if progress then Some "measuring" else None) id
    (fun () ->
      render (Kite_metrics.Registry.registries sink);
      `Ok ())

let metrics_id_arg =
  let doc =
    "Experiment id to measure (see $(b,list)); 'all' measures everything."
  in
  Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)

let metrics_cmd =
  let json_arg = json_arg "Emit every registry (values + alerts) as JSON." in
  let prom_arg =
    let doc =
      "Write the Prometheus text exposition of all registries to $(docv) \
       ('-' for stdout) — the same output the httpd /metrics route serves."
    in
    Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)
  in
  let list_arg =
    let doc = "Also print the registered metric families per machine." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let run full json prom listf id =
    with_metrics ~full ~progress:(not json && prom <> Some "-") id (fun rs ->
        if json then print_string (Kite_metrics.Registry.to_json rs)
        else begin
          Kite_stats.Table.print (Kite.Metrics_report.top_table rs);
          if listf then
            Kite_stats.Table.print (Kite.Metrics_report.families_table rs);
          if List.exists (fun r -> Kite_metrics.Registry.alerts r <> []) rs
          then Kite_stats.Table.print (Kite.Metrics_report.alerts_table rs)
        end;
        match prom with
        | None -> ()
        | Some "-" -> print_string (Kite_metrics.Registry.to_prometheus rs)
        | Some path ->
            let oc = open_out path in
            output_string oc (Kite_metrics.Registry.to_prometheus rs);
            close_out oc;
            Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run experiments under live telemetry and dump the collected \
          registries (table, JSON or Prometheus exposition).")
    Term.(ret (const run $ full_arg $ json_arg $ prom_arg $ list_arg
              $ metrics_id_arg))

let top_cmd =
  let sort_arg =
    let doc =
      "Sort rows descending by $(b,rate) (summed frontend tx+rx+io \
       per-second rates) or $(b,busy) (the machine's busiest histogram, \
       by observation count).  Default: build order."
    in
    Arg.(value & opt (some string) None & info [ "sort" ] ~docv:"KEY" ~doc)
  in
  let run full sort_s id =
    let sort =
      match sort_s with
      | None -> Ok None
      | Some "rate" -> Ok (Some Kite.Metrics_report.By_rate)
      | Some "busy" -> Ok (Some Kite.Metrics_report.By_busy)
      | Some other -> Error other
    in
    match sort with
    | Error other ->
        `Error (false, "unknown sort key " ^ other ^ "; use rate or busy")
    | Ok sort ->
        with_metrics ~full ~progress:true id (fun rs ->
            Kite_stats.Table.print (Kite.Metrics_report.top_table ?sort rs);
            if List.exists (fun r -> Kite_metrics.Registry.alerts r <> []) rs
            then Kite_stats.Table.print (Kite.Metrics_report.alerts_table rs))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "xentop-style summary: run experiments under live telemetry and \
          print per-machine throughput, ring occupancy, grant usage, \
          block latency quantiles and health alerts.")
    Term.(ret (const run $ full_arg $ sort_arg $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* path                                                                *)
(* ------------------------------------------------------------------ *)

let path_cmd =
  let waterfall_arg =
    let doc =
      "Print only the per-stage waterfall table (skip the per-device and \
       CPU-profile tables)."
    in
    Arg.(value & flag & info [ "waterfall" ] ~doc)
  in
  let saturation_arg =
    let doc =
      "Run the $(b,latency-waterfall) experiment instead: open-loop \
       offered-load sweep over the measured storage capacity, locating \
       the knee where queueing overtakes service.  EXPERIMENT is ignored."
    in
    Arg.(value & flag & info [ "saturation" ] ~doc)
  in
  let json_arg =
    json_arg "Emit every engine (waterfall + CPU profile) as JSON."
  in
  let run full waterfall saturation json id =
    let quick = not full in
    if saturation then begin
      let outcome = Kite.Experiments.latency_waterfall ~quick in
      List.iter Kite_stats.Table.print outcome.Kite.Experiments.tables;
      Kite.Scenario.teardown_all ();
      `Ok ()
    end
    else begin
      (* The engine decomposes the tracer's spans, so arm both sinks:
         every testbed machine gets a tracer and a path engine tapping
         it (plus the CPU-profiler hooks). *)
      ignore (arm Kite_trace.Trace.set_default (Kite_trace.Trace.sink ()));
      let psink = arm Kite_path.Path.set_default (Kite_path.Path.sink ()) in
      run_under ~full
        ?progress:(if json then None else Some "attributing")
        id
        (fun () ->
          let ps = Kite_path.Path.paths psink in
          if json then print_string (Kite_path.Path.to_json ps)
          else begin
            Kite_stats.Table.print (Kite.Path_report.waterfall_table ps);
            if not waterfall then begin
              Kite_stats.Table.print (Kite.Path_report.devices_table ps);
              Kite_stats.Table.print (Kite.Path_report.cpu_table ps)
            end
          end;
          `Ok ())
    end
  in
  Cmd.v
    (Cmd.info "path"
       ~doc:
         "Run experiments under critical-path attribution and print the \
          per-stage latency waterfall (queueing vs service vs \
          notification wait), per-device totals and the continuous CPU \
          profile.")
    Term.(
      ret
        (const run $ full_arg $ waterfall_arg $ saturation_arg $ json_arg
       $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* flight / incident                                                   *)
(* ------------------------------------------------------------------ *)

(* Shared harness: arm every layer the recorder taps — checker (findings
   + the recorders' own audits), tracer (spans), metrics (alert edges,
   deltas), the path engine (incident waterfalls) and the flight sink
   itself — run the selected experiments, then hand the recorders and
   the shared report to [render].
   No fault sink: a default injection plan would perturb the experiments
   (restart-recovery arms its own note-only injector when none is set).
   [before_teardown] runs between an experiment and its teardown, while
   the testbeds are still live — the manual-trigger hook. *)
let with_flight ~full ~progress ?(before_teardown = fun _ -> ()) id render =
  let report = Kite_check.Report.create () in
  checker report;
  ignore (arm Kite_trace.Trace.set_default (Kite_trace.Trace.sink ()));
  ignore
    (arm Kite_metrics.Registry.set_default (Kite_metrics.Registry.sink ()));
  ignore (arm Kite_path.Path.set_default (Kite_path.Path.sink ()));
  let fsink = arm Kite_flight.Flight.set_default (Kite_flight.Flight.sink ()) in
  run_under ~full
    ?progress:(if progress then Some "recording" else None)
    ~before_teardown:(fun () ->
      before_teardown (Kite_flight.Flight.flights fsink))
    id
    (fun () -> render (Kite_flight.Flight.flights fsink) report)

let flight_cmd =
  let json_arg =
    json_arg "Emit the recorders (rings, incidents, SLOs) as JSON."
  in
  let run full json id =
    with_flight ~full ~progress:(not json) id (fun fls report ->
        if json then print_string (Kite_flight.Flight.to_json fls)
        else begin
          Kite_stats.Table.print (Kite.Flight_report.summary_table fls);
          if List.exists (fun fl -> Kite_flight.Flight.slo_evals fl <> []) fls
          then Kite_stats.Table.print (Kite.Flight_report.slo_table fls);
          List.iter
            (fun fl ->
              List.iter
                (fun inc ->
                  print_endline (Kite.Flight_report.incident_headline fl inc))
                (Kite_flight.Flight.incidents fl))
            fls;
          if Kite_check.Report.errors report > 0 then begin
            Kite_check.Report.print report;
            exit 1
          end
        end;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Run experiments with the always-on flight recorder armed and \
          summarize the black-box rings, incident snapshots and SLO \
          verdicts per machine.")
    Term.(ret (const run $ full_arg $ json_arg $ metrics_id_arg))

(* --require tokens: [incident] (at least one snapshot was frozen) and
   [slo] (some snapshot carries a scored SLO verdict) are structural;
   any other token must appear as a record kind ("crash", "restart",
   "alert", "note", ...) in some incident timeline. *)
let incident_unmet fls tokens =
  let incidents =
    List.concat_map (fun fl -> Kite_flight.Flight.incidents fl) fls
  in
  let timelines = List.map Kite_flight.Flight.incident_timeline incidents in
  let met = function
    | "incident" -> incidents <> []
    | "slo" ->
        List.exists
          (fun inc ->
            List.exists
              (fun e ->
                e.Kite_flight.Slo.ev_count > 0
                && not (Float.is_nan e.Kite_flight.Slo.ev_actual))
              (Kite_flight.Flight.incident_slos inc))
          incidents
    | kind ->
        List.exists
          (List.exists (fun r -> r.Kite_flight.Flight.r_kind = kind))
          timelines
  in
  List.filter (fun tok -> not (met tok)) tokens

let incident_cmd =
  let json_arg =
    json_arg "Emit the full snapshots as JSON instead of rendered tables."
  in
  let out_arg =
    let doc = "Also write the snapshots as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let trigger_arg =
    let doc =
      "Fire a manual trigger on every recorder that saw no incident, \
       while its testbed is still live — an explicit black-box pull."
    in
    Arg.(value & flag & info [ "trigger" ] ~doc)
  in
  let require_arg =
    let doc =
      "Comma-separated acceptance tokens; exit 1 unless every one is \
       present in the captured snapshots.  $(b,incident) = a snapshot \
       exists; $(b,slo) = a snapshot carries a scored SLO verdict; any \
       other token must appear as a timeline record kind (e.g. \
       $(b,crash), $(b,restart), $(b,alert))."
    in
    Arg.(value & opt (list string) [] & info [ "require" ] ~docv:"TOKENS" ~doc)
  in
  let last_arg =
    let doc = "Pre-trigger timeline rows to show per incident." in
    Arg.(value & opt int 40 & info [ "last" ] ~docv:"N" ~doc)
  in
  let run full json out trigger require last id =
    let before_teardown fls =
      if trigger then
        List.iter
          (fun fl ->
            if Kite_flight.Flight.incidents fl = [] then
              Kite_flight.Flight.trigger fl Kite_flight.Flight.Manual
                ~reason:"kite_ctl incident --trigger")
          fls
    in
    with_flight ~full ~progress:(not json) ~before_teardown id
      (fun fls report ->
        let js = lazy (Kite_flight.Flight.to_json fls) in
        if json then print_string (Lazy.force js)
        else begin
          Kite_stats.Table.print (Kite.Flight_report.summary_table fls);
          List.iter
            (fun fl ->
              List.iter
                (fun inc -> Kite.Flight_report.print_incident ~last fl inc)
                (Kite_flight.Flight.incidents fl))
            fls
        end;
        (match out with
        | Some path ->
            let oc = open_out path in
            output_string oc (Lazy.force js);
            close_out oc;
            if not json then Printf.printf "wrote %s\n" path
        | None -> ());
        if Kite_check.Report.errors report > 0 then begin
          Kite_check.Report.print report;
          exit 1
        end;
        match incident_unmet fls require with
        | [] -> `Ok ()
        | missing ->
            Printf.eprintf "FAIL: --require token(s) unmet: %s\n"
              (String.concat ", " missing);
            exit 1)
  in
  Cmd.v
    (Cmd.info "incident"
       ~doc:
         "Run experiments with the flight recorder armed and render every \
          frozen incident snapshot in full: correlated cross-layer \
          timeline, metrics delta, xenstore subtree and SLO verdicts.")
    Term.(
      ret
        (const run $ full_arg $ json_arg $ out_arg $ trigger_arg
       $ require_arg $ last_arg $ metrics_id_arg))

(* ------------------------------------------------------------------ *)
(* attack                                                              *)
(* ------------------------------------------------------------------ *)

let attack_cmd =
  let module Campaign = Kite_adversary.Campaign in
  let seed_arg =
    let doc = "Campaign seed (even seeds attack storage, odd network)." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let sweep_arg =
    let doc = "Run campaigns for seeds 1..$(docv) instead of one seed." in
    Arg.(value & opt (some int) None & info [ "sweep" ] ~docv:"N" ~doc)
  in
  let class_arg =
    let doc =
      "Restrict the campaign to these attack classes (comma-separated \
       slugs, e.g. $(b,bad-gref,replay,evtchn-storm))."
    in
    Arg.(value & opt (list string) [] & info [ "class" ] ~docv:"SLUGS" ~doc)
  in
  let json_arg = json_arg "Emit the campaign results as a JSON array." in
  let run seed sweep slugs json =
    let only =
      List.fold_left
        (fun acc s ->
          match acc with
          | Error _ as e -> e
          | Ok l -> (
              match Kite_drivers.Guest_fault.of_slug s with
              | Some a -> Ok (a :: l)
              | None -> Error s))
        (Ok []) slugs
    in
    match only with
    | Error s -> `Error (false, "unknown attack class " ^ s)
    | Ok l ->
        let only = match l with [] -> None | l -> Some l in
        let seeds =
          match sweep with
          | Some n -> List.init n (fun i -> i + 1)
          | None -> [ seed ]
        in
        let results =
          List.map
            (fun seed ->
              let r = Campaign.run ?only ~seed () in
              if not json then Format.printf "%a@." Campaign.pp_result r;
              r)
            seeds
        in
        if json then
          print_string
            ("[" ^ String.concat "," (List.map Campaign.to_json results) ^ "]\n");
        let failed = List.filter (fun r -> not r.Campaign.ok) results in
        if failed = [] then `Ok ()
        else begin
          Printf.eprintf "FAIL: %d/%d campaign(s) violated the oracle\n"
            (List.length failed) (List.length results);
          exit 1
        end
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run seeded byzantine-frontend attack campaigns against the \
          network and storage backends: every attack class must be \
          detected as a typed guest fault, every hostile device \
          quarantined or rejected, and the co-hosted honest guest's p99 \
          must stay within its SLO with zero checker errors.")
    Term.(ret (const run $ seed_arg $ sweep_arg $ class_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* swarm                                                               *)
(* ------------------------------------------------------------------ *)

let swarm_cmd =
  let module Swarm = Kite_swarm.Swarm in
  let clients_arg =
    let doc = "Total simulated clients (sessions) to fire." in
    Arg.(value & opt int 5_000 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let profile_arg =
    let doc =
      Printf.sprintf "Traffic profile (one of %s)." Kite_swarm.Profile.names
    in
    Arg.(value & opt string "web" & info [ "profile" ] ~docv:"NAME" ~doc)
  in
  let app_arg =
    let doc = "Server application: httpd, kvstore, memcache or sqldb." in
    Arg.(value & opt string "httpd" & info [ "app" ] ~docv:"APP" ~doc)
  in
  let flavor_arg =
    let doc = "Domain flavor: kite or linux." in
    Arg.(value & opt string "kite" & info [ "flavor" ] ~docv:"FLAVOR" ~doc)
  in
  let impair_arg =
    let doc =
      "Seeded link impairments on the cable, e.g. \
       $(b,loss=0.01,reorder=0.005,delay=200us,jitter=50us)."
    in
    Arg.(value & opt (some string) None & info [ "impair" ] ~docv:"SPEC" ~doc)
  in
  let seed_arg =
    let doc = "Swarm seed (arrivals, session shapes, think timing)." in
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Session arrival rate override (sessions/s)." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let sweep_arg =
    let doc = "Run campaigns for seeds 1..$(docv) instead of one seed." in
    Arg.(value & opt (some int) None & info [ "sweep" ] ~docv:"N" ~doc)
  in
  let json_arg = json_arg "Emit the campaign results as a JSON array." in
  let run clients profile app flavor impair seed rate sweep json =
    let flavor_v =
      match String.lowercase_ascii flavor with
      | "kite" -> Ok Kite.Scenario.Kite
      | "linux" -> Ok Kite.Scenario.Linux
      | f -> Error ("unknown flavor " ^ f)
    in
    let impair_v =
      match impair with
      | None -> Ok None
      | Some s -> Result.map Option.some (Kite_net.Impair.spec_of_string s)
    in
    match (flavor_v, impair_v) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok flavor, Ok impair -> (
        let report = Kite_check.Report.create () in
        checker report;
        let seeds =
          match sweep with
          | Some n -> List.init (max 1 n) (fun i -> i + 1)
          | None -> [ seed ]
        in
        match
          List.map
            (fun seed ->
              if not json then
                Printf.printf "swarm: %d %s clients of %s traffic (seed %d)...\n%!"
                  clients app profile seed;
              let r =
                Kite.Experiments.swarm_campaign ~flavor ~app ?impair ~profile
                  ~clients ?rate ~seed ()
              in
              Kite.Scenario.teardown_all ();
              r)
            seeds
        with
        | exception (Invalid_argument e | Failure e) ->
            Kite_check.Check.set_default None;
            `Error (false, e)
        | results ->
            Kite_check.Check.set_default None;
            if json then
              print_string
                ("["
                ^ String.concat "," (List.map Swarm.result_to_json results)
                ^ "]\n")
            else begin
              Kite_stats.Table.print (Kite.Swarm_report.campaign_table results);
              Kite_check.Report.print report
            end;
            (* The asserted part: accounting must balance, no client may
               vanish, and the checker must stay silent.  SLO misses only
               fail the run on a clean link at the default rate — under
               --impair or an overload --rate they are the measurement. *)
            let broken =
              List.filter
                (fun (r : Swarm.result) ->
                  r.Swarm.sw_clients < clients
                  || r.Swarm.sw_completed + r.Swarm.sw_errors
                     <> r.Swarm.sw_offered)
                results
            in
            let slo_misses =
              if impair = None && rate = None then
                List.filter
                  (fun (r : Swarm.result) ->
                    List.exists
                      (fun e -> not e.Kite_flight.Slo.ev_met)
                      r.Swarm.sw_slos)
                  results
              else []
            in
            let errors = Kite_check.Report.errors report in
            if broken <> [] || slo_misses <> [] || errors > 0 then begin
              Printf.eprintf
                "FAIL: %d campaign(s) broke accounting, %d missed SLOs, %d \
                 checker error(s)\n"
                (List.length broken) (List.length slo_misses) errors;
              exit 1
            end;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Fire an open-loop population of simulated clients (heavy-tailed \
          arrivals, connection churn, flash crowds, drip-feed slowloris, \
          optional link impairments) at a server app through the full \
          split-driver path, and report goodput, latency percentiles and \
          SLO verdicts under a protocol checker.")
    Term.(
      ret
        (const run $ clients_arg $ profile_arg $ app_arg $ flavor_arg
       $ impair_arg $ seed_arg $ rate_arg $ sweep_arg $ json_arg))

let () =
  let info =
    Cmd.info "kite_ctl" ~version:"1.0"
      ~doc:"Drive the Kite (EuroSys'22) reproduction."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            check_cmd;
            race_cmd;
            lint_cmd;
            boot_cmd;
            security_cmd;
            topology_cmd;
            capture_cmd;
            trace_cmd;
            faults_cmd;
            metrics_cmd;
            top_cmd;
            path_cmd;
            flight_cmd;
            incident_cmd;
            attack_cmd;
            swarm_cmd;
          ]))
