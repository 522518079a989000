(* Integration tests over the top-level scenarios and experiment
   runners — the checks behind EXPERIMENTS.md's shape claims. *)

open Kite_sim
open Kite

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Scenario plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let test_network_scenario_boots () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  let ready = ref false in
  Scenario.when_net_ready s (fun () -> ready := true);
  Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 2);
  check_bool "netfront connected" true !ready;
  check_bool "netback instance exists" true
    (Kite_drivers.Netback.instances
       (Kite_drivers.Net_app.netback s.Scenario.net_app)
    <> []);
  (* Domain inventory matches the paper's testbed. *)
  check_int "domains: dom0 + dd + domu" 3
    (List.length (Kite_xen.Hypervisor.domains s.Scenario.hv))

(* Hand-built testbeds (scale, mq-scale) take their hypervisor from the
   same helper as network/storage, so a run-wide schedule seed reaches
   every engine. *)
let test_hypervisor_schedule_seed () =
  let explored () =
    Engine.explored
      (Kite_xen.Hypervisor.engine (Scenario.hypervisor ~seed:1 ()))
  in
  Fun.protect
    ~finally:(fun () -> Scenario.set_schedule_seed None)
    (fun () ->
      Scenario.set_schedule_seed (Some 3);
      check_bool "run-wide seed arms the explorer" true (explored ());
      Scenario.set_schedule_seed None;
      check_bool "no seed keeps FIFO order" false (explored ()))

(* With all seven run-wide sinks set, every way of building a machine
   arms all seven layers, in one fixed order that consecutive instance
   numbers pin: check, race, trace, fault, metrics, path, flight. *)
let test_arm_all_layers () =
  let report = Kite_check.Report.create () in
  Kite_check.Check.set_default
    (Some (Kite_check.Check.default_config, report));
  Kite_race.Race.set_default (Some (Kite_race.Race.sink ~report ()));
  Kite_trace.Trace.set_default (Some (Kite_trace.Trace.sink ()));
  Kite_fault.Fault.set_default (Some (Kite_fault.Fault.sink []));
  Kite_metrics.Registry.set_default (Some (Kite_metrics.Registry.sink ()));
  Kite_path.Path.set_default (Some (Kite_path.Path.sink ()));
  Kite_flight.Flight.set_default (Some (Kite_flight.Flight.sink ()));
  let armed what tag ctx =
    let some name = function
      | Some x -> name x
      | None -> Alcotest.failf "%s: layer not armed" what
    in
    let open Kite_drivers.Xen_ctx in
    let names =
      [
        some Kite_check.Check.name ctx.check;
        some Kite_race.Race.name ctx.race;
        some Kite_trace.Trace.name ctx.trace;
        some Kite_fault.Fault.name ctx.fault;
        some Kite_metrics.Registry.name ctx.metrics;
        some Kite_path.Path.name ctx.path;
        some Kite_flight.Flight.name ctx.flight;
      ]
    in
    let tl = String.length tag in
    let first =
      let n = List.hd names in
      int_of_string (String.sub n tl (String.length n - tl))
    in
    Alcotest.(check (list string))
      (what ^ ": instance names in arm order")
      (List.init 7 (fun k -> tag ^ string_of_int (first + k)))
      names
  in
  Fun.protect
    ~finally:(fun () ->
      Scenario.teardown_all ();
      Kite_check.Check.set_default None;
      Kite_race.Race.set_default None;
      Kite_trace.Trace.set_default None;
      Kite_fault.Fault.set_default None;
      Kite_metrics.Registry.set_default None;
      Kite_path.Path.set_default None;
      Kite_flight.Flight.set_default None)
    (fun () ->
      let net = Scenario.network ~flavor:Scenario.Kite () in
      armed "network" "net-Kite-" net.Scenario.ctx;
      let blk = Scenario.storage ~flavor:Scenario.Linux () in
      armed "storage" "blk-Linux-" blk.Scenario.bctx;
      let hv = Kite_xen.Hypervisor.create ~seed:1 () in
      let ctx = Kite_drivers.Xen_ctx.create hv in
      Scenario.arm ctx "hand-";
      armed "hand-built" "hand-" ctx)

(* Arming a layer must not change what the simulation does.  A short
   storage workload (concurrent 4 KiB writes and reads, a 128 KiB write
   and read riding indirect descriptors, a read of never-written
   sectors) runs bare and then with one layer armed; every request must
   complete at the same simulated instant and every read return the same
   bytes.  Metrics is left out: it is the one layer that is not
   digest-neutral, by design (its sampler's backend-state probe and the
   backends' stats publishers make charged xenstore accesses; DESIGN.md
   section 11). *)
let blk_workload () =
  let b = Scenario.storage ~flavor:Scenario.Kite ~seed:3 () in
  let bf = b.Scenario.blkfront in
  let done_at = ref [] in
  let op i f =
    Kite_xen.Hypervisor.spawn b.Scenario.bhv b.Scenario.bdomu
      ~name:(Printf.sprintf "op%d" i) (fun () ->
        Process.sleep (Time.us (15 * i));
        let got = f () in
        done_at :=
          (i, Kite_xen.Hypervisor.now b.Scenario.bhv, Digest.to_hex got)
          :: !done_at)
  in
  let write i sector n =
    op i (fun () ->
        Kite_drivers.Blkfront.write bf ~sector
          (Bytes.init (n * 512) (fun k -> Char.chr ((k + i) land 0xff)));
        Digest.string "")
  and read i sector n =
    op i (fun () ->
        Digest.bytes (Kite_drivers.Blkfront.read bf ~sector ~count:n))
  in
  Scenario.when_blk_ready b (fun () ->
      List.iteri
        (fun i sector -> write i sector 8)
        [ 0; 8; 16; 4096; 24; 8192 ];
      write 6 1024 256;
      read 7 0 8;
      read 8 8 16;
      read 9 1024 256;
      read 10 65536 8;
      write 11 1024 8;
      read 12 4096 8;
      read 13 1024 256);
  Kite_xen.Hypervisor.run_for b.Scenario.bhv (Time.sec 2);
  Scenario.teardown_all ();
  List.sort compare !done_at

let test_layers_digest_neutral () =
  let disarm () =
    Kite_check.Check.set_default None;
    Kite_race.Race.set_default None;
    Kite_trace.Trace.set_default None;
    Kite_path.Path.set_default None;
    Kite_flight.Flight.set_default None
  in
  let bare = blk_workload () in
  check_int "every request completed" 14 (List.length bare);
  List.iter
    (fun (layer, arm) ->
      arm ();
      let armed = Fun.protect ~finally:disarm blk_workload in
      Alcotest.(check (list (triple int int string)))
        (layer ^ ": completion instants and read contents")
        bare armed)
    [
      ( "check",
        fun () ->
          Kite_check.Check.set_default
            (Some (Kite_check.Check.default_config, Kite_check.Report.create ()))
      );
      ( "trace",
        fun () -> Kite_trace.Trace.set_default (Some (Kite_trace.Trace.sink ()))
      );
      ( "path",
        fun () -> Kite_path.Path.set_default (Some (Kite_path.Path.sink ())) );
      ( "flight",
        fun () ->
          Kite_flight.Flight.set_default (Some (Kite_flight.Flight.sink ())) );
      ( "race",
        fun () ->
          Kite_race.Race.set_default
            (Some (Kite_race.Race.sink ~report:(Kite_check.Report.create ()) ()))
      );
    ]

let test_storage_scenario_boots () =
  let s = Scenario.storage ~flavor:Scenario.Linux () in
  let ready = ref false in
  Scenario.when_blk_ready s (fun () -> ready := true);
  Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 2);
  check_bool "blkfront connected" true !ready;
  check_bool "capacity visible" true
    (Kite_drivers.Blkfront.capacity_sectors s.Scenario.blkfront > 0)

let test_scenario_blockdev_end_to_end () =
  let s = Scenario.storage ~flavor:Scenario.Kite () in
  let dev = Scenario.blockdev s in
  let ok = ref false in
  Scenario.when_blk_ready s (fun () ->
      let data = Bytes.make 4096 'e' in
      dev.Kite_vfs.Blockdev.write ~sector:64 data;
      let back = dev.Kite_vfs.Blockdev.read ~sector:64 ~count:8 in
      ok := Bytes.equal back data);
  Kite_xen.Hypervisor.run_for s.Scenario.bhv (Time.sec 5);
  check_bool "write/read through the split driver" true !ok;
  check_bool "reached the physical device" true
    (Kite_devices.Nvme.writes s.Scenario.nvme > 0)

let test_scenario_flavors_differ () =
  (* Same workload, both flavors: Kite must be strictly faster on the
     cold-latency path, and both must complete. *)
  let ping flavor =
    let s = Scenario.network ~flavor () in
    let rtt = ref None in
    Scenario.when_net_ready s (fun () ->
        rtt := Kite_net.Stack.ping s.Scenario.client_stack ~dst:s.Scenario.guest_ip ~seq:1 ());
    Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5);
    Option.get !rtt
  in
  let k = ping Scenario.Kite and l = ping Scenario.Linux in
  check_bool
    (Printf.sprintf "kite (%s) < linux (%s)" (Time.to_string k)
       (Time.to_string l))
    true (k < l)

let test_overheads_override () =
  let s =
    Scenario.network_with_overheads ~overheads:Kite_drivers.Overheads.zero ()
  in
  let rtt = ref None in
  Scenario.when_net_ready s (fun () ->
      rtt :=
        Kite_net.Stack.ping s.Scenario.client_stack ~dst:s.Scenario.guest_ip
          ~seq:1 ());
  Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 5);
  match !rtt with
  | Some span ->
      (* With zero overheads the path cost is just devices + hypercalls. *)
      check_bool "well under the kite cold latency" true (span < Time.us 120)
  | None -> Alcotest.fail "ping failed"

(* ------------------------------------------------------------------ *)
(* Experiment registry                                                 *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  (* Every table/figure of the paper's evaluation section has a runner. *)
  List.iter
    (fun required ->
      check_bool ("registry has " ^ required) true (List.mem required ids))
    [
      "fig1a"; "fig4a"; "fig4b"; "fig4c"; "fig5"; "table3"; "fig6"; "fig7";
      "fig8a"; "fig8b"; "fig9"; "fig10"; "table4"; "fig11"; "fig12"; "fig13";
      "fig14"; "fig15"; "fig16"; "dhcp"; "table1"; "restart-recovery";
      "scale"; "memory"; "abl-persist"; "abl-batch"; "abl-indirect";
      "abl-threads";
    ];
  check_bool "find works" true (Experiments.find "fig9" <> None);
  check_bool "find rejects junk" true (Experiments.find "fig99" = None);
  check_bool "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids))

let run_exp id =
  match Experiments.find id with
  | Some f -> f ~quick:true
  | None -> Alcotest.failf "no experiment %s" id

let cell_matrix table =
  (* Parse the rendered table back into rows of trimmed cells. *)
  let lines = String.split_on_char '\n' (Kite_stats.Table.render table) in
  List.filter_map
    (fun line ->
      if String.length line > 0 && line.[0] = '|' then
        Some
          (String.split_on_char '|' line
          |> List.map String.trim
          |> List.filter (fun c -> c <> ""))
      else None)
    lines

let float_cell row i = float_of_string (List.nth row i)

let test_fig4c_boot_claim () =
  (* Claim C1: Kite boots at least 10x faster. *)
  let o = run_exp "fig4c" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  let time_of name =
    match List.find_opt (fun r -> List.hd r = name) rows with
    | Some r -> float_cell r 1
    | None -> Alcotest.failf "missing row %s" name
  in
  let kite = time_of "kite-network" and linux = time_of "linux-driver-domain" in
  check_bool
    (Printf.sprintf "10x boot (%.1f vs %.1f)" kite linux)
    true
    (linux /. kite >= 10.0)

let test_fig6_throughput_claim () =
  (* Claim C2-throughput: both ~7 Gbps, loss under 1.5%. *)
  let o = run_exp "fig6" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  List.iter
    (fun row ->
      match row with
      | [ _name; gbps; loss ] ->
          check_bool "about 7 Gbps" true
            (float_of_string gbps > 6.0 && float_of_string gbps < 7.5);
          check_bool "loss < 1.5%" true (float_of_string loss < 1.5)
      | _ -> ())
    (List.tl rows)

let test_fig7_latency_claim () =
  (* Kite's latency is lower than Linux's on every benchmark. *)
  let o = run_exp "fig7" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  List.iter
    (fun row ->
      match row with
      | [ name; linux; kite ] when name <> "benchmark" ->
          check_bool (name ^ ": kite <= linux") true
            (float_of_string kite <= float_of_string linux +. 0.01)
      | _ -> ())
    rows

let test_table3_claim () =
  (* All eleven CVEs mitigated on both Kite domains. *)
  let o = run_exp "table3" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  let cve_rows =
    List.filter (fun r -> String.length (List.hd r) > 3
                          && String.sub (List.hd r) 0 3 = "CVE") rows
  in
  check_int "eleven CVE rows" 11 (List.length cve_rows);
  List.iter
    (fun row ->
      check_bool (List.hd row ^ " mitigated everywhere") true
        (List.nth row 3 = "yes" && List.nth row 4 = "yes"))
    cve_rows

let test_abl_persistent_claim () =
  let o = run_exp "abl-persist" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  match rows with
  | _hdr :: [ _; on_maps; _; _ ] :: [ _; off_maps; _; _ ] :: _ ->
      check_bool "persistent needs far fewer maps" true
        (int_of_string on_maps * 10 < int_of_string off_maps)
  | _ -> Alcotest.fail "unexpected table shape"

let test_scale_claim () =
  let o = run_exp "scale" in
  let rows = cell_matrix (List.hd o.Experiments.tables) in
  match rows with
  | _hdr :: [ _; one ] :: [ _; two ] :: _ ->
      let f = float_of_string two /. float_of_string one in
      check_bool (Printf.sprintf "near-linear scaling (%.2fx)" f) true
        (f > 1.8)
  | _ -> Alcotest.fail "unexpected table shape"

(* §5.2 motivates fast boots with failure recovery: the measured
   crash-to-reconnect downtime of a Kite driver domain must be >= 10x
   below Linux's, on the storage and the network path alike. *)
let test_restart_claim () =
  let o = run_exp "restart-recovery" in
  (* Downtime cells like "7.001s": compare the seconds. *)
  let downtime rows name =
    match List.find_opt (fun r -> List.hd r = name) rows with
    | Some r ->
        let s = List.nth r 1 in
        float_of_string (String.sub s 0 (String.length s - 1))
    | None -> Alcotest.failf "missing %s" name
  in
  match o.Experiments.tables with
  | storage :: network :: _ ->
      List.iter
        (fun (what, table) ->
          let rows = cell_matrix table in
          check_bool (what ^ ": kite recovers 10x faster") true
            (downtime rows "Linux" /. downtime rows "Kite" >= 10.0))
        [ ("storage", storage); ("network", network) ]
  | _ -> Alcotest.fail "unexpected table shape"

(* The multi-queue dataplane (simulated Gbps, so deterministic): four
   negotiated queues carry >= 2x the aggregate Tx of one, and the
   machinery is free when unused — one negotiated queue within 1.1x of
   the legacy flat single-ring layout on an identical workload. *)
let test_mq_scale_claim () =
  let duration = Time.ms 3 in
  let one = Experiments.mq_run ~duration ~mq:true 1 in
  let four = Experiments.mq_run ~duration ~mq:true 4 in
  let ratio = four /. one in
  check_bool (Printf.sprintf "4 queues >= 2x of 1 (%.2fx)" ratio) true
    (ratio >= 2.0)

let test_mq_overhead_claim () =
  let legacy, mq1 = Experiments.mq_overhead ~quick:true in
  let ratio = legacy /. mq1 in
  check_bool
    (Printf.sprintf "1-queue mq within 1.1x of legacy (%.2fx)" ratio)
    true (ratio < 1.1)

(* Accounting golden: the counter names, hypercall counts and vCPU busy
   times of one ping run and one storage run.  The hypervisor resolves
   its accounting cells once per domain; these values pin that it still
   creates, counts and names exactly what it always did. *)
let accounting m =
  let names = Metrics.names m in
  ( names,
    List.filter_map
      (fun n ->
        if String.starts_with ~prefix:"hypercall." n then
          Some (n, Metrics.count m n)
        else None)
      names,
    List.map (fun n -> (n, Metrics.busy m n)) (Metrics.busy_names m) )

let check_accounting what m ~names ~hypercalls ~busy =
  let got_names, got_hypercalls, got_busy = accounting m in
  Alcotest.(check (list string)) (what ^ " counter names") names got_names;
  Alcotest.(check (list (pair string int)))
    (what ^ " hypercall counts") hypercalls got_hypercalls;
  Alcotest.(check (list (pair string int))) (what ^ " vcpu busy") busy got_busy

let test_accounting_golden () =
  let s = Scenario.network ~flavor:Scenario.Kite () in
  Scenario.when_net_ready s (fun () ->
      for seq = 1 to 3 do
        ignore
          (Kite_net.Stack.ping s.Scenario.client_stack
             ~dst:s.Scenario.guest_ip ~seq ())
      done);
  Kite_xen.Hypervisor.run_for s.Scenario.hv (Time.sec 2);
  Scenario.teardown_all ();
  check_accounting "network"
    (Kite_xen.Hypervisor.metrics s.Scenario.hv)
    ~names:
      [
        "hypercall.evtchn_send";
        "hypercall.grant_copy";
        "hypercall.grant_map";
        "hypercall.xenstore_op";
        "nic.eth-cli.rx";
        "nic.eth-cli.tx";
        "nic.eth-srv.rx";
        "nic.eth-srv.tx";
      ]
    ~hypercalls:
      [
        ("hypercall.evtchn_send", 13);
        ("hypercall.grant_copy", 8);
        ("hypercall.grant_map", 1);
        ("hypercall.xenstore_op", 23);
      ]
    ~busy:[ ("vcpu.Kite-netdd", 649180); ("vcpu.domu", 337300) ];
  let b = Scenario.storage ~flavor:Scenario.Kite () in
  Scenario.when_blk_ready b (fun () ->
      let bf = b.Scenario.blkfront in
      Kite_drivers.Blkfront.write bf ~sector:0 (Bytes.make 4096 'k');
      ignore (Kite_drivers.Blkfront.read bf ~sector:0 ~count:8);
      Kite_drivers.Blkfront.flush bf);
  Kite_xen.Hypervisor.run_for b.Scenario.bhv (Time.sec 2);
  Scenario.teardown_all ();
  check_accounting "storage"
    (Kite_xen.Hypervisor.metrics b.Scenario.bhv)
    ~names:
      [
        "hypercall.evtchn_send";
        "hypercall.grant_map";
        "hypercall.grant_unmap";
        "hypercall.xenstore_op";
        "nvme.nvme0.flush";
        "nvme.nvme0.read";
        "nvme.nvme0.write";
      ]
    ~hypercalls:
      [
        ("hypercall.evtchn_send", 6);
        ("hypercall.grant_map", 2);
        ("hypercall.grant_unmap", 1);
        ("hypercall.xenstore_op", 29);
      ]
    ~busy:[ ("vcpu.Kite-stordd", 584200); ("vcpu.domu", 396300) ]

let suite =
  [
    ("network scenario boots", `Quick, test_network_scenario_boots);
    ("storage scenario boots", `Quick, test_storage_scenario_boots);
    ("arm pass arms all seven layers", `Quick, test_arm_all_layers);
    ( "hypervisor honours the schedule seed",
      `Quick,
      test_hypervisor_schedule_seed );
    ("accounting golden", `Quick, test_accounting_golden);
    ("layers are digest-neutral on storage", `Quick, test_layers_digest_neutral);
    ("blockdev end to end", `Quick, test_scenario_blockdev_end_to_end);
    ("flavors differ on cold latency", `Quick, test_scenario_flavors_differ);
    ("overheads override", `Quick, test_overheads_override);
    ("experiment registry complete", `Quick, test_registry_complete);
    ("fig4c: 10x faster boot (C1)", `Quick, test_fig4c_boot_claim);
    ("fig6: ~7Gbps, low loss (C2)", `Slow, test_fig6_throughput_claim);
    ("fig7: kite latency lower", `Slow, test_fig7_latency_claim);
    ("table3: all CVEs mitigated", `Quick, test_table3_claim);
    ("ablation: persistent grants", `Quick, test_abl_persistent_claim);
    ("extension: multi-NIC scaling", `Slow, test_scale_claim);
    ("extension: restart recovery", `Quick, test_restart_claim);
    ("extension: mq scaling", `Quick, test_mq_scale_claim);
    ("extension: mq free when unused", `Quick, test_mq_overhead_claim);
  ]
