open Kite_sim
open Kite_xen
open Kite_net
open Kite_drivers

type flavor = Kite | Linux

let flavor_name = function Kite -> "Kite" | Linux -> "Linux"

let overheads_of = function
  | Kite -> Overheads.kite
  | Linux -> Overheads.linux

(* Guest (DomU runs Ubuntu in both configurations) and client per-packet
   stack costs; see DESIGN.md §7. *)
let guest_rx_cost = Time.ns 1100
let client_rx_cost = Time.us 1

(* Every testbed built here registers an orderly-teardown closure;
   [teardown_all] runs them so end-of-run audits (grant leaks, orphaned
   watches) inspect a quiesced system rather than steady-state buffers.
   Registration is unconditional — the final audit only runs when a
   checker is active (Check.set_default), but the quiesce/stop/shutdown
   sequence itself must not depend on one being set. *)
let scenario_seq = ref 0
let teardowns : (unit -> unit) list ref = ref []

(* Run-wide schedule-exploration seed (kite_ctl race --sweep, test
   sweeps): when set, every engine built here draws PCT-style random
   priorities for same-instant events from this seed, so one process
   image can be rerun under many interleavings.  An explicit
   [?schedule_seed] argument to [network]/[storage] overrides it. *)
let schedule_seed : int option ref = ref None
let set_schedule_seed s = schedule_seed := s

let hypervisor ~seed ?schedule_seed:sseed () =
  let sseed = match sseed with Some _ -> sseed | None -> !schedule_seed in
  Hypervisor.create ~seed ?schedule_seed:sseed ()

let teardown_all () =
  let fs = List.rev !teardowns in
  teardowns := [];
  List.iter (fun f -> try f () with _ -> ()) fs

(* The incident snapshot's xenstore view: a DFS dump of the /local/domain
   subtree, captured lazily at trigger time (so a crash trigger that runs
   before Xenstore.rm still sees the doomed domain's home). *)
let store_dump ctx () =
  let xs = Hypervisor.store ctx.Xen_ctx.hv in
  let rec walk path acc =
    let acc =
      match Xenstore.read xs ~path with
      | Some v when v <> "" -> (path, v) :: acc
      | _ -> acc
    in
    List.fold_left
      (fun acc child -> walk (path ^ "/" ^ child) acc)
      acc (Xenstore.directory xs ~path)
  in
  List.rev (walk "/local/domain" [])

(* Arm every layer whose run-wide sink is set ([default ()]) on one
   machine: create the machine's instance (named [tag] plus a run-wide
   sequence number), store it on the context and wire it into the
   machine-wide primitives.  Rings and per-device driver state are
   instrumented later, as drivers connect.  The order is fixed, and it
   decides the instance names: path taps the tracer's span stream and
   mirrors into the registry, so it follows trace and metrics; the
   flight recorder taps every other layer, so it comes last. *)
let arm ctx tag =
  let hv = ctx.Xen_ctx.hv in
  let sched = Hypervisor.sched hv and store = Hypervisor.store hv in
  let name () =
    incr scenario_seq;
    Printf.sprintf "%s%d" tag !scenario_seq
  in
  (match Kite_check.Check.default () with
  | Some (config, report) ->
      let c = Kite_check.Check.create ~config ~name:(name ()) report in
      ctx.Xen_ctx.check <- Some c;
      Process.set_check sched (Some c);
      Grant_table.set_check ctx.Xen_ctx.gt (Some c);
      Xenstore.set_check store (Some c);
      Xenbus.set_check ctx.Xen_ctx.xb (Some c)
  | None -> ());
  (* Findings land in the sink's shared report, beside the checker's. *)
  (match Kite_race.Race.default () with
  | Some sink ->
      let r = Kite_race.Race.create_in sink ~name:(name ()) in
      ctx.Xen_ctx.race <- Some r;
      Process.set_race sched (Some r);
      Xenstore.set_race store (Some r);
      Event_channel.set_race ctx.Xen_ctx.ec (Some r);
      Grant_table.set_race ctx.Xen_ctx.gt (Some r)
  | None -> ());
  (match Kite_trace.Trace.default () with
  | Some sink ->
      let tr = Kite_trace.Trace.create_in sink ~name:(name ()) in
      ctx.Xen_ctx.trace <- Some tr;
      (* Covers the hypervisor's charges and the scheduler. *)
      Hypervisor.set_trace hv (Some tr);
      (* An orphaned hop/end (no span open on the thread) means a broken
         begin/end pairing somewhere in the instrumentation; the tracer
         counts them, and teardown surfaces a non-zero count as a checker
         warning instead of letting them vanish. *)
      teardowns :=
        (fun () ->
          let hops = Kite_trace.Trace.orphan_hops tr in
          let ends = Kite_trace.Trace.orphan_ends tr in
          if hops + ends > 0 then
            match Kite_check.Check.default () with
            | Some (_, report) ->
                Kite_check.Report.add report
                  {
                    Kite_check.Report.severity = Kite_check.Report.Warning;
                    subsystem = "trace";
                    rule = "span-orphaned";
                    provenance = Kite_trace.Trace.name tr;
                    message =
                      Printf.sprintf
                        "%d orphaned span event(s) (%d hop, %d end): \
                         span_hop/span_end with no span open on the thread"
                        (hops + ends) hops ends;
                  }
            | None -> ())
        :: !teardowns
  | None -> ());
  (* Each machine's injector is seeded from the sink, so two runs with
     the same seed and plan inject at identical points.  Devices
     (NVMe/NIC) are attached by the testbed. *)
  (match Kite_fault.Fault.default () with
  | Some sink ->
      let f = Kite_fault.Fault.create_in sink ~name:(name ()) in
      ctx.Xen_ctx.fault <- Some f;
      Event_channel.set_fault ctx.Xen_ctx.ec (Some f);
      Xenstore.set_fault store (Some f)
  | None -> ());
  (* Scheduler and per-domain busy gauges, grant-table and event-channel
     counters, all polled at sampling time (the services keep their own
     counts), plus a Dom0 sampler daemon that snapshots every instrument
     on the registry's interval; it is stop-guarded through the teardown
     list so audited runs quiesce. *)
  (match Kite_metrics.Registry.default () with
  | Some sink ->
      let module R = Kite_metrics.Registry in
      let r = R.create_in sink ~name:(name ()) in
      let gt = ctx.Xen_ctx.gt and ec = ctx.Xen_ctx.ec in
      ctx.Xen_ctx.metrics <- Some r;
      Hypervisor.set_metrics hv (Some r);
      R.counter_fn r "kite_grant_maps_total" ~help:"Grant map operations" []
        (fun () -> Grant_table.map_count gt);
      R.counter_fn r "kite_grant_unmaps_total" ~help:"Grant unmap operations"
        [] (fun () -> Grant_table.unmap_count gt);
      R.counter_fn r "kite_grant_copies_total"
        ~help:"GNTTABOP_copy operations" []
        (fun () -> Grant_table.copy_count gt);
      R.gauge_fn r "kite_grant_active" ~help:"Grants currently in the table" []
        (fun () -> float_of_int (Grant_table.active_grants gt));
      R.counter_fn r "kite_evtchn_notifications_total"
        ~help:"Notify hypercalls issued (before coalescing)" []
        (fun () -> Event_channel.notifications_sent ec);
      R.counter_fn r "kite_evtchn_delivered_total"
        ~help:"Handler invocations performed (after coalescing)" []
        (fun () -> Event_channel.notifications_delivered ec);
      R.counter_fn r "kite_evtchn_dropped_total"
        ~help:"Notifications lost to fault injection" []
        (fun () -> Event_channel.notifications_dropped ec);
      let stop = ref false in
      teardowns := (fun () -> stop := true) :: !teardowns;
      Hypervisor.spawn hv (Hypervisor.dom0 hv) ~daemon:true
        ~name:"metrics-sampler" (fun () ->
          while not !stop do
            Process.sleep (R.interval r);
            if not !stop then
              Kite_metrics.Registry.sample r ~at:(Hypervisor.now hv)
          done)
  | None -> ());
  (* The path engine taps the tracer's span stream additively (so it
     composes with the flight recorder's primary span observer); arming
     it on the hypervisor also arms the scheduler/occupancy profiler. *)
  (match Kite_path.Path.default () with
  | Some sink ->
      let p = Kite_path.Path.create_in sink ~name:(name ()) in
      ctx.Xen_ctx.path <- Some p;
      Hypervisor.set_path hv (Some p);
      Option.iter (Kite_path.Path.tap_trace p) ctx.Xen_ctx.trace;
      Option.iter (Kite_path.Path.wire_metrics p) ctx.Xen_ctx.metrics
  | None -> ());
  (* The recorder taps the other layers plus the run's shared checker
     report (with several machines the last-built one receives the
     findings records).  Teardown seals any open incident and runs the
     recorder's own audit. *)
  match Kite_flight.Flight.default () with
  | Some sink ->
      let module F = Kite_flight.Flight in
      let fl =
        F.create_in sink ~name:(name ()) ~now:(fun () -> Hypervisor.now hv)
      in
      ctx.Xen_ctx.flight <- Some fl;
      Option.iter (F.tap_trace fl) ctx.Xen_ctx.trace;
      Option.iter (F.tap_fault fl) ctx.Xen_ctx.fault;
      Option.iter (F.tap_metrics fl) ctx.Xen_ctx.metrics;
      Option.iter (F.tap_path fl) ctx.Xen_ctx.path;
      (match Kite_check.Check.default () with
      | Some (_, report) -> F.tap_report fl report
      | None -> ());
      F.set_store_source fl (store_dump ctx);
      teardowns :=
        (fun () ->
          Kite_flight.Flight.mark fl ~what:"teardown"
            ~msg:"scenario teardown";
          F.seal_all fl;
          match Kite_check.Check.default () with
          | Some (_, report) -> F.audit fl report
          | None -> ())
        :: !teardowns
  | None -> ()

(* The orderly teardown of one split-driver machine: drain in-flight
   I/O, stop the backend (unregisters its watch), give its threads a
   beat to park, then close the frontend; audit only when a checker is
   armed. *)
let register_teardown ctx ~dd ~stop_backend ~shutdown_frontend =
  let hv = ctx.Xen_ctx.hv in
  teardowns :=
    (fun () ->
      Hypervisor.run_for hv (Time.sec 1);
      Hypervisor.spawn hv dd ~name:"teardown" (fun () ->
          stop_backend ();
          Process.sleep (Time.ms 1);
          (* The sleep is the only thing ordering us after the parked
             backend threads; claim their exit edges explicitly. *)
          if Kite_race.Race.active () then Kite_race.Race.scoped_quiesce ();
          shutdown_frontend ());
      Hypervisor.run_for hv (Time.ms 50);
      match ctx.Xen_ctx.check with
      | Some c ->
          Kite_check.Check.finalize c
            ~pending:(Engine.pending (Hypervisor.engine hv))
      | None -> ())
    :: !teardowns

(* Edge-triggered backend-health probe: silent until the handshake first
   reaches Connected, then any other state (a crashed or closing
   backend) raises a structured alert until the frontend's recovery
   reconnects.  Evaluated at sampling time from the Dom0 sampler, so the
   xenstore read is charged like any other Dom0 access. *)
let backend_state_probe ctx ~dev ~path reg =
  let seen_connected = ref false in
  Kite_metrics.Registry.probe reg ~name:"kite_backend_state"
    [ ("dev", dev) ]
    (fun () ->
      let st =
        Xenbus.read_state ctx.Xen_ctx.xb
          (Hypervisor.dom0 ctx.Xen_ctx.hv)
          ~path
      in
      if st = Xenbus.Connected then (
        seen_connected := true;
        Kite_metrics.Registry.Healthy)
      else if !seen_connected then
        Kite_metrics.Registry.Alert
          (Format.asprintf "backend %s state %a (expected Connected)" dev
             Xenbus.pp_state st)
      else Kite_metrics.Registry.Healthy)

(* What both testbeds start from: a seeded hypervisor, its driver context
   armed with the run-wide layers, the driver domain (sized by the
   flavor's OS profile) and the guest, plus — when a registry is armed —
   the backend-state probe for the [ty] device the testbed registers as
   devid 0. *)
let machine ~kind ~flavor ~seed ~schedule_seed ~profile ~dd_name ~ty =
  let hv = hypervisor ~seed ?schedule_seed () in
  let ctx = Xen_ctx.create hv in
  arm ctx (kind ^ "-" ^ flavor_name flavor ^ "-");
  let profile = Kite_profiles.Os_profile.get profile in
  let dd =
    Hypervisor.create_domain hv
      ~name:(flavor_name flavor ^ dd_name)
      ~kind:Domain.Driver_domain
      ~vcpus:profile.Kite_profiles.Os_profile.vcpus
      ~mem_mb:profile.Kite_profiles.Os_profile.assigned_mem_mb
  in
  let domu =
    Hypervisor.create_domain hv ~name:"domu" ~kind:Domain.Dom_u ~vcpus:22
      ~mem_mb:5120
  in
  (match ctx.Xen_ctx.metrics with
  | Some r ->
      backend_state_probe ctx ~dev:(ty ^ "0")
        ~path:(Xenbus.backend_path ~backend:dd ~frontend:domu ~ty ~devid:0)
        r
  | None -> ());
  (hv, ctx, dd, domu)

type net = {
  hv : Hypervisor.t;
  ctx : Xen_ctx.t;
  sched : Process.sched;
  dd : Domain.t;
  domu : Domain.t;
  guest_stack : Stack.t;
  guest_tcp : Tcp.t;
  client_stack : Stack.t;
  client_tcp : Tcp.t;
  netfront : Netfront.t;
  mutable net_app : Net_app.t;
  server_nic : Kite_devices.Nic.t;
  client_nic : Kite_devices.Nic.t;
  guest_ip : Ipv4addr.t;
}

let network ?overheads_override ~flavor ?(seed = 2022) ?schedule_seed
    ?num_queues ?impair () =
  let hv, ctx, dd, domu =
    machine ~kind:"net" ~flavor ~seed ~schedule_seed
      ~profile:
        (match flavor with
        | Kite -> Kite_profiles.Os_profile.Kite_network
        | Linux -> Kite_profiles.Os_profile.Linux_network)
      ~dd_name:"-netdd" ~ty:"vif"
  in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  (* The testbed's two 82599ES NICs and the SFP+ cable (Table 2). *)
  let server_nic =
    Kite_devices.Nic.create sched metrics ~name:"eth-srv" ~queue_limit:8192 ()
  in
  let client_nic =
    Kite_devices.Nic.create sched metrics ~name:"eth-cli" ~queue_limit:8192 ()
  in
  Kite_devices.Nic.connect server_nic client_nic ~propagation:(Time.ns 500);
  (* Link impairments ride the cable, one independent seeded stream per
     direction, so enabling them never perturbs any other RNG. *)
  (match impair with
  | Some spec when spec <> Kite_net.Impair.none ->
      Kite_devices.Nic.set_impair server_nic
        (Some (Kite_net.Impair.create ~seed:(seed * 2 + 1) spec));
      Kite_devices.Nic.set_impair client_nic
        (Some (Kite_net.Impair.create ~seed:(seed * 2 + 2) spec))
  | _ -> ());
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"01:00.0" (Kite_devices.Pci.Nic server_nic);
  Kite_devices.Pci.assignable_add pci ~bdf:"01:00.0";
  let nic =
    match Kite_devices.Pci.attach pci ~bdf:"01:00.0" dd with
    | Kite_devices.Pci.Nic n -> n
    | Kite_devices.Pci.Nvme _ -> assert false
  in
  let overheads =
    Option.value overheads_override ~default:(overheads_of flavor)
  in
  Kite_devices.Nic.set_fault nic ctx.Xen_ctx.fault;
  let net_app = Net_app.run ctx ~domain:dd ~nic ~overheads () in
  (* The queue count is wired at both layers: the toolstack writes the
     guest-config hint and the frontend is given the explicit ask (the
     ask survives reconnects either way). *)
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0
    ?queues:num_queues ();
  let netfront =
    Netfront.create ctx ~domain:domu ~backend:dd ~devid:0 ?num_queues ()
  in
  let guest_ip = Ipv4addr.of_string "10.0.0.2" in
  let guest_stack =
    Stack.create sched ~name:"guest" ~dev:(Netfront.netdev netfront)
      ~mac:(Macaddr.make_local 100) ~ip:guest_ip
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:guest_rx_cost ()
  in
  let client_stack =
    Stack.create sched ~name:"client" ~dev:(Netif.of_nic client_nic)
      ~mac:(Macaddr.make_local 200)
      ~ip:(Ipv4addr.of_string "10.0.0.9")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:client_rx_cost ()
  in
  let s =
    {
      hv;
      ctx;
      sched;
      dd;
      domu;
      guest_stack;
      guest_tcp = Tcp.attach guest_stack;
      client_stack;
      client_tcp = Tcp.attach client_stack;
      netfront;
      net_app;
      server_nic;
      client_nic;
      guest_ip;
    }
  in
  (* [s.net_app] is read at teardown time: after a crash-and-restart
     cycle it is the respawned backend. *)
  register_teardown ctx ~dd
    ~stop_backend:(fun () -> Netback.stop (Net_app.netback s.net_app))
    ~shutdown_frontend:(fun () -> Netfront.shutdown netfront);
  s

let when_net_ready net f =
  Process.spawn net.sched ~name:"when-ready" (fun () ->
      Netfront.wait_connected net.netfront;
      (* Give ARP/bridge learning a beat, as a human experimenter would. *)
      Process.sleep (Time.ms 5);
      f ())

type blk = {
  bhv : Hypervisor.t;
  bctx : Xen_ctx.t;
  bsched : Process.sched;
  bdd : Domain.t;
  bdomu : Domain.t;
  blkfront : Blkfront.t;
  mutable blk_app : Blk_app.t;
  nvme : Kite_devices.Nvme.t;
}

let storage ~flavor ?(seed = 2022) ?schedule_seed
    ?(feature_persistent = true) ?(feature_indirect = true)
    ?(batching = true) ?num_queues () =
  let hv, ctx, dd, domu =
    machine ~kind:"blk" ~flavor ~seed ~schedule_seed
      ~profile:
        (match flavor with
        | Kite -> Kite_profiles.Os_profile.Kite_storage
        | Linux -> Kite_profiles.Os_profile.Linux_storage)
      ~dd_name:"-stordd" ~ty:"vbd"
  in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  (* Samsung 970 EVO Plus-ish NVMe (Table 2). *)
  let nvme =
    Kite_devices.Nvme.create sched metrics ~name:"nvme0"
      ~capacity_sectors:(1 lsl 26) (* 32 GiB addressed by the experiments *)
      ()
  in
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"02:00.0" (Kite_devices.Pci.Nvme nvme);
  Kite_devices.Pci.assignable_add pci ~bdf:"02:00.0";
  ignore (Kite_devices.Pci.attach pci ~bdf:"02:00.0" dd);
  Kite_devices.Nvme.set_fault nvme ctx.Xen_ctx.fault;
  let blk_app =
    Blk_app.run ctx ~domain:dd ~nvme ~overheads:(overheads_of flavor)
      ~feature_persistent ~feature_indirect ~batching ()
  in
  Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0
    ?queues:num_queues ();
  let blkfront =
    Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0 ?num_queues ()
  in
  let s =
    { bhv = hv; bctx = ctx; bsched = sched; bdd = dd; bdomu = domu;
      blkfront; blk_app; nvme }
  in
  (* Backend first: its persistent-reference sweep must unmap before
     blkfront revokes the pool. *)
  register_teardown ctx ~dd
    ~stop_backend:(fun () -> Blkback.stop (Blk_app.blkback s.blk_app))
    ~shutdown_frontend:(fun () -> Blkfront.shutdown blkfront);
  s

let blockdev blk =
  {
    Kite_vfs.Blockdev.name = "xvda";
    capacity_sectors = Blkfront.capacity_sectors blk.blkfront;
    read = (fun ~sector ~count -> Blkfront.read blk.blkfront ~sector ~count);
    write = (fun ~sector data -> Blkfront.write blk.blkfront ~sector data);
    flush = (fun () -> Blkfront.flush blk.blkfront);
  }

let when_blk_ready blk f =
  Hypervisor.spawn blk.bhv blk.bdomu ~name:"when-ready" (fun () ->
      Blkfront.wait_connected blk.blkfront;
      f ())

(* Crash-and-restart cycles (the restart-recovery experiment): destroy
   the driver domain mid-flight, rebuild it with its flavor's boot
   profile, respawn the backend application and re-register the device,
   then wait for the frontend's own recovery to reconnect.  Downtime is
   crash instant -> frontend reconnected. *)

let boot_profile_net = function
  | Kite -> Kite_profiles.Boot.kite_network
  | Linux -> Kite_profiles.Boot.linux_driver_domain

let boot_profile_blk = function
  | Kite -> Kite_profiles.Boot.kite_storage
  | Linux -> Kite_profiles.Boot.linux_driver_domain

let crash_and_restart_blk s ~flavor ~at ?on_restored () =
  let hv = s.bhv in
  Hypervisor.spawn hv (Hypervisor.dom0 hv) ~name:"dd-reboot" (fun () ->
      Process.sleep at;
      let gen0 = Blkfront.reconnects s.blkfront in
      let t0 = Hypervisor.now hv in
      Blkback.crash (Blk_app.blkback s.blk_app);
      Toolstack.crash_driver_domain s.bctx s.bdd;
      Toolstack.restart_driver_domain s.bctx s.bdd
        ~boot:(boot_profile_blk flavor)
        ~respawn:(fun () ->
          s.blk_app <-
            Blk_app.run s.bctx ~domain:s.bdd ~nvme:s.nvme
              ~overheads:(overheads_of flavor) ();
          Toolstack.add_vbd s.bctx ~backend:s.bdd ~frontend:s.bdomu ~devid:0
            ())
        ~on_ready:(fun () ->
          while
            not
              (Blkfront.reconnects s.blkfront > gen0
              && Blkfront.is_connected s.blkfront)
          do
            Process.sleep (Time.ms 1)
          done;
          let downtime = Hypervisor.now hv - t0 in
          (match s.bctx.Xen_ctx.flight with
          | Some fl ->
              Kite_flight.Flight.mark fl ~what:"recovery"
                ~msg:
                  (Printf.sprintf "blkfront reconnected, downtime %d ns"
                     downtime)
          | None -> ());
          match on_restored with Some f -> f ~downtime | None -> ()))

let crash_and_restart_net s ~flavor ~at ?on_restored () =
  let hv = s.hv in
  Hypervisor.spawn hv (Hypervisor.dom0 hv) ~name:"dd-reboot" (fun () ->
      Process.sleep at;
      let gen0 = Netfront.reconnects s.netfront in
      let t0 = Hypervisor.now hv in
      Netback.crash (Net_app.netback s.net_app);
      Toolstack.crash_driver_domain s.ctx s.dd;
      Toolstack.restart_driver_domain s.ctx s.dd
        ~boot:(boot_profile_net flavor)
        ~respawn:(fun () ->
          (* Same physical NIC: the respawned app re-wraps it and builds a
             fresh bridge; the crashed app's bridge is orphaned. *)
          s.net_app <-
            Net_app.run s.ctx ~domain:s.dd ~nic:s.server_nic
              ~overheads:(overheads_of flavor) ();
          Toolstack.add_vif s.ctx ~backend:s.dd ~frontend:s.domu ~devid:0 ())
        ~on_ready:(fun () ->
          while
            not
              (Netfront.reconnects s.netfront > gen0
              && Netfront.connected s.netfront)
          do
            Process.sleep (Time.ms 1)
          done;
          let downtime = Hypervisor.now hv - t0 in
          (match s.ctx.Xen_ctx.flight with
          | Some fl ->
              Kite_flight.Flight.mark fl ~what:"recovery"
                ~msg:
                  (Printf.sprintf "netfront reconnected, downtime %d ns"
                     downtime)
          | None -> ());
          match on_restored with Some f -> f ~downtime | None -> ()))

let network_with_overheads ~overheads ?seed () =
  network ~overheads_override:overheads ~flavor:Kite ?seed ()
