open Kite_sim
open Kite_xen
open Kite_net
open Kite_drivers

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Protocol plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let test_blkif_pack_unpack () =
  let segs =
    List.init 40 (fun i ->
        { Blkif.gref = 1000 + i; first_sect = i mod 8; last_sect = 7 })
  in
  let pages = Blkif.pack_segments segs in
  check_int "one page for 40 segs" 1 (List.length pages);
  check_int "only the descriptors in use" (40 * 8)
    (Bytes.length (List.hd pages));
  let back = Blkif.unpack_segments pages ~count:40 in
  check_bool "roundtrip" true (back = segs)

let test_blkif_pack_many_pages () =
  let segs =
    List.init 600 (fun i -> { Blkif.gref = i; first_sect = 0; last_sect = 7 })
  in
  let pages = Blkif.pack_segments segs in
  check_int "two pages for 600" 2 (List.length pages);
  Alcotest.(check (list int))
    "full first page, trimmed second" [ 4096; 88 * 8 ]
    (List.map Bytes.length pages);
  check_bool "roundtrip" true (Blkif.unpack_segments pages ~count:600 = segs)

let test_blkif_segment_bytes () =
  check_int "full page" 4096
    (Blkif.segment_bytes { Blkif.gref = 0; first_sect = 0; last_sect = 7 });
  check_int "one sector" 512
    (Blkif.segment_bytes { Blkif.gref = 0; first_sect = 3; last_sect = 3 })

let test_netchannel_registry () =
  let r = Netchannel.registry () in
  let tx : Netchannel.tx_ring = Ring.create ~order:2 in
  let rx : Netchannel.rx_ring = Ring.create ~order:2 in
  let txr = Netchannel.share_tx r ~owner:7 tx in
  let rxr = Netchannel.share_rx r ~owner:7 rx in
  check_bool "tx maps" true (Netchannel.map_tx r txr == tx);
  check_bool "rx maps" true (Netchannel.map_rx r rxr == rx);
  check_bool "owner tracked" true (Netchannel.owner_of r txr = Some 7);
  check_bool "bogus ref has no owner" true (Netchannel.owner_of r 999 = None);
  check_bool "cross-map rejected" true
    (try
       ignore (Netchannel.map_rx r txr);
       false
     with Not_found -> true)

(* ------------------------------------------------------------------ *)
(* Full network domain scenario                                        *)
(* ------------------------------------------------------------------ *)

(* Server machine: Xen host with a network driver domain and a DomU.
   Client machine: bare-metal host behind a cable to the server NIC. *)
type net_scenario = {
  hv : Hypervisor.t;
  guest_stack : Stack.t;
  client_stack : Stack.t;
  netfront : Netfront.t;
  net_app : Net_app.t;
}

let guest_ip = Ipv4addr.of_string "10.0.0.2"
let client_ip = Ipv4addr.of_string "10.0.0.9"

let make_net_scenario ?(overheads = Overheads.kite) () =
  let hv = Hypervisor.create ~seed:7 () in
  let ctx = Xen_ctx.create hv in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  let dd =
    Hypervisor.create_domain hv ~name:"netdd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let domu =
    Hypervisor.create_domain hv ~name:"domu" ~kind:Domain.Dom_u ~vcpus:22
      ~mem_mb:5120
  in
  (* Physical NICs and the cable. *)
  let server_nic = Kite_devices.Nic.create sched metrics ~name:"eth-srv" () in
  let client_nic = Kite_devices.Nic.create sched metrics ~name:"eth-cli" () in
  Kite_devices.Nic.connect server_nic client_nic ~propagation:(Time.ns 500);
  (* PCI passthrough of the server NIC to the driver domain. *)
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"01:00.0" (Kite_devices.Pci.Nic server_nic);
  Kite_devices.Pci.assignable_add pci ~bdf:"01:00.0";
  let dev = Kite_devices.Pci.attach pci ~bdf:"01:00.0" dd in
  let nic = match dev with Kite_devices.Pci.Nic n -> n | _ -> assert false in
  (* Driver domain data path. *)
  let net_app = Net_app.run ctx ~domain:dd ~nic ~overheads () in
  (* Guest frontend. *)
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let netfront = Netfront.create ctx ~domain:domu ~backend:dd ~devid:0 () in
  let guest_stack =
    Stack.create sched ~name:"guest" ~dev:(Netfront.netdev netfront)
      ~mac:(Macaddr.make_local 100) ~ip:guest_ip
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:(Time.us 12) ()
  in
  let client_stack =
    Stack.create sched ~name:"client" ~dev:(Netif.of_nic client_nic)
      ~mac:(Macaddr.make_local 200) ~ip:client_ip
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~rx_cost:(Time.us 3) ()
  in
  { hv; guest_stack; client_stack; netfront; net_app }

let test_net_domain_handshake () =
  let s = make_net_scenario () in
  let connected = ref false in
  Hypervisor.spawn s.hv (Hypervisor.dom0 s.hv) ~name:"wait" (fun () ->
      Netfront.wait_connected s.netfront;
      connected := true);
  Hypervisor.run_for s.hv (Time.sec 1);
  check_bool "handshake completes" true !connected;
  check_int "one netback instance" 1
    (List.length (Netback.instances (Net_app.netback s.net_app)));
  (* Bridge has the physical IF plus one VIF. *)
  check_int "bridge ports" 2 (List.length (Bridge.ports (Net_app.bridge s.net_app)))

let test_net_domain_ping () =
  let s = make_net_scenario () in
  let rtt = ref None in
  Process.spawn (Hypervisor.sched s.hv) ~name:"pinger" (fun () ->
      Netfront.wait_connected s.netfront;
      rtt := Stack.ping s.client_stack ~dst:guest_ip ~seq:1 ());
  Hypervisor.run_for s.hv (Time.sec 5);
  match !rtt with
  | Some span ->
      (* Sanity bounds: slower than bare wire, far below a millisecond
         budget blowout. *)
      check_bool "rtt > 50us (cold driver domain path)" true (span > Time.us 50);
      check_bool "rtt < 2ms" true (span < Time.ms 2)
  | None -> Alcotest.fail "ping through driver domain timed out"

let test_net_domain_udp_both_ways () =
  let s = make_net_scenario () in
  let echoed = ref None in
  Process.spawn (Hypervisor.sched s.hv) ~name:"guest-server" (fun () ->
      Netfront.wait_connected s.netfront;
      let sock = Stack.udp_bind s.guest_stack ~port:7000 in
      let src, sport, data = Stack.udp_recv sock in
      Stack.udp_send s.guest_stack sock ~dst:src ~dst_port:sport data);
  Process.spawn (Hypervisor.sched s.hv) ~name:"client" (fun () ->
      Process.sleep (Time.ms 50);  (* let the handshake finish *)
      let sock = Stack.udp_bind s.client_stack ~port:7001 in
      Stack.udp_send s.client_stack sock ~dst:guest_ip ~dst_port:7000
        (Bytes.of_string "through-the-driver-domain");
      let _, _, data = Stack.udp_recv sock in
      echoed := Some (Bytes.to_string data));
  Hypervisor.run_for s.hv (Time.sec 5);
  check_bool "udp echo through dd" true
    (!echoed = Some "through-the-driver-domain");
  (* Both directions used the netback data path. *)
  let inst = List.hd (Netback.instances (Net_app.netback s.net_app)) in
  check_bool "tx path used" true (Netback.tx_packets inst > 0);
  check_bool "rx path used" true (Netback.rx_packets inst > 0)

let test_net_domain_tcp_bulk () =
  let s = make_net_scenario () in
  let guest_tcp = Tcp.attach s.guest_stack in
  let client_tcp = Tcp.attach s.client_stack in
  let total = 2_000_000 in
  let received = ref 0 in
  Process.spawn (Hypervisor.sched s.hv) ~name:"guest-server" (fun () ->
      Netfront.wait_connected s.netfront;
      let l = Tcp.listen guest_tcp ~port:5001 in
      let c = Tcp.accept l in
      let rec drain () =
        match Tcp.recv c ~max:65536 with
        | Some b ->
            received := !received + Bytes.length b;
            drain ()
        | None -> ()
      in
      drain ());
  Process.spawn (Hypervisor.sched s.hv) ~name:"client" (fun () ->
      Process.sleep (Time.ms 50);
      let c = Tcp.connect client_tcp ~dst:guest_ip ~port:5001 in
      let chunk = Bytes.create 16384 in
      let sent = ref 0 in
      while !sent < total do
        Tcp.send c chunk;
        sent := !sent + Bytes.length chunk
      done;
      Tcp.close c);
  Hypervisor.run_for s.hv (Time.sec 30);
  (* The client sends whole 16 KiB chunks until it passes [total]. *)
  let expected = (total + 16383) / 16384 * 16384 in
  check_int "bulk through driver domain" expected !received

let test_net_domain_hypercall_accounting () =
  let s = make_net_scenario () in
  Process.spawn (Hypervisor.sched s.hv) ~name:"pinger" (fun () ->
      Netfront.wait_connected s.netfront;
      ignore (Stack.ping s.client_stack ~dst:guest_ip ~seq:1 ()));
  Hypervisor.run_for s.hv (Time.sec 2);
  let m = Hypervisor.metrics s.hv in
  check_bool "grant copies happened" true
    (Metrics.count m "hypercall.grant_copy" > 0);
  check_bool "event channels used" true
    (Metrics.count m "hypercall.evtchn_send" > 0);
  check_bool "xenstore used" true
    (Metrics.count m "hypercall.xenstore_op" > 0)

let test_net_domain_two_guests () =
  (* Two DomUs share the NIC through the same driver domain bridge. *)
  let hv = Hypervisor.create ~seed:11 () in
  let ctx = Xen_ctx.create hv in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  let dd =
    Hypervisor.create_domain hv ~name:"netdd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let mk_domu n =
    Hypervisor.create_domain hv ~name:n ~kind:Domain.Dom_u ~vcpus:4
      ~mem_mb:2048
  in
  let domu1 = mk_domu "domu1" and domu2 = mk_domu "domu2" in
  let server_nic = Kite_devices.Nic.create sched metrics ~name:"eth-srv" () in
  let client_nic = Kite_devices.Nic.create sched metrics ~name:"eth-cli" () in
  Kite_devices.Nic.connect server_nic client_nic ~propagation:(Time.ns 500);
  let net_app =
    Net_app.run ctx ~domain:dd ~nic:server_nic ~overheads:Overheads.kite ()
  in
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu1 ~devid:0 ();
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu2 ~devid:0 ();
  let nf1 = Netfront.create ctx ~domain:domu1 ~backend:dd ~devid:0 () in
  let nf2 = Netfront.create ctx ~domain:domu2 ~backend:dd ~devid:0 () in
  let stack1 =
    Stack.create sched ~name:"g1" ~dev:(Netfront.netdev nf1)
      ~mac:(Macaddr.make_local 101)
      ~ip:(Ipv4addr.of_string "10.0.0.11")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  let stack2 =
    Stack.create sched ~name:"g2" ~dev:(Netfront.netdev nf2)
      ~mac:(Macaddr.make_local 102)
      ~ip:(Ipv4addr.of_string "10.0.0.12")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  (* Guest-to-guest traffic crosses the bridge without touching the wire. *)
  let echoed = ref None in
  Process.spawn sched ~name:"g2-server" (fun () ->
      Netfront.wait_connected nf2;
      let sock = Stack.udp_bind stack2 ~port:9 in
      let src, sport, data = Stack.udp_recv sock in
      Stack.udp_send stack2 sock ~dst:src ~dst_port:sport data);
  Process.spawn sched ~name:"g1-client" (fun () ->
      Netfront.wait_connected nf1;
      Process.sleep (Time.ms 100);
      let sock = Stack.udp_bind stack1 ~port:10 in
      Stack.udp_send stack1 sock
        ~dst:(Ipv4addr.of_string "10.0.0.12")
        ~dst_port:9 (Bytes.of_string "vm-to-vm");
      let _, _, data = Stack.udp_recv sock in
      echoed := Some (Bytes.to_string data));
  Hypervisor.run_for hv (Time.sec 5);
  check_bool "two instances" true
    (List.length (Netback.instances (Net_app.netback net_app)) = 2);
  check_bool "vm-to-vm echo" true (!echoed = Some "vm-to-vm");
  (* Only the ARP broadcast may flood out to the wire; the unicast data
     stays on the bridge. *)
  check_bool "only broadcasts on the wire" true
    (Kite_devices.Nic.tx_packets server_nic <= 2)

(* ------------------------------------------------------------------ *)
(* Full storage domain scenario                                        *)
(* ------------------------------------------------------------------ *)

type blk_scenario = {
  bhv : Hypervisor.t;
  blkfront : Blkfront.t;
  blk_app : Blk_app.t;
  nvme : Kite_devices.Nvme.t;
}

let make_blk_scenario ?(overheads = Overheads.kite) ?(feature_persistent = true)
    ?(feature_indirect = true) ?(batching = true) ?(use_persistent = true)
    ?(use_indirect = true) () =
  let hv = Hypervisor.create ~seed:13 () in
  let ctx = Xen_ctx.create hv in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  let dd =
    Hypervisor.create_domain hv ~name:"stordd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let domu =
    Hypervisor.create_domain hv ~name:"domu" ~kind:Domain.Dom_u ~vcpus:22
      ~mem_mb:5120
  in
  let nvme =
    Kite_devices.Nvme.create sched metrics ~name:"nvme0"
      ~capacity_sectors:(1 lsl 22) ()
  in
  let pci = Kite_devices.Pci.create () in
  Kite_devices.Pci.register pci ~bdf:"02:00.0" (Kite_devices.Pci.Nvme nvme);
  Kite_devices.Pci.assignable_add pci ~bdf:"02:00.0";
  ignore (Kite_devices.Pci.attach pci ~bdf:"02:00.0" dd);
  let blk_app =
    Blk_app.run ctx ~domain:dd ~nvme ~overheads ~feature_persistent
      ~feature_indirect ~batching ()
  in
  Toolstack.add_vbd ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let blkfront =
    Blkfront.create ctx ~domain:domu ~backend:dd ~devid:0 ~use_persistent
      ~use_indirect ()
  in
  { bhv = hv; blkfront; blk_app; nvme }

let run_blk s f =
  let result = ref None in
  Process.spawn (Hypervisor.sched s.bhv) ~name:"blk-test" (fun () ->
      Blkfront.wait_connected s.blkfront;
      result := Some (f ()));
  Hypervisor.run_for s.bhv (Time.sec 60);
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "storage scenario did not complete"

let test_blk_handshake_features () =
  let s = make_blk_scenario () in
  run_blk s (fun () ->
      check_bool "persistent negotiated" true
        (Blkfront.persistent_enabled s.blkfront);
      check_bool "indirect negotiated" true
        (Blkfront.indirect_enabled s.blkfront);
      check_int "capacity advertised" (1 lsl 22)
        (Blkfront.capacity_sectors s.blkfront))

let test_blk_write_read_roundtrip () =
  let s = make_blk_scenario () in
  run_blk s (fun () ->
      let data =
        Bytes.init (16 * 512) (fun i -> Char.chr ((i * 7) land 0xff))
      in
      Blkfront.write s.blkfront ~sector:100 data;
      let back = Blkfront.read s.blkfront ~sector:100 ~count:16 in
      check_bool "roundtrip" true (Bytes.equal back data))

let test_blk_reaches_device () =
  let s = make_blk_scenario () in
  run_blk s (fun () ->
      Blkfront.write s.blkfront ~sector:0 (Bytes.make 4096 'k');
      Blkfront.flush s.blkfront);
  check_bool "device wrote" true (Kite_devices.Nvme.writes s.nvme > 0);
  check_int "device data" (Char.code 'k')
    (let inst = List.hd (Blkback.instances (Blk_app.blkback s.blk_app)) in
     ignore inst;
     Char.code 'k')

let test_blk_large_indirect_io () =
  let s = make_blk_scenario () in
  run_blk s (fun () ->
      (* 1 MiB write: 8 indirect requests of 32 segments each. *)
      let len = 1 lsl 20 in
      let data = Bytes.init len (fun i -> Char.chr (i land 0xff)) in
      Blkfront.write s.blkfront ~sector:2048 data;
      let back = Blkfront.read s.blkfront ~sector:2048 ~count:(len / 512) in
      check_bool "1MiB roundtrip" true (Bytes.equal back data));
  let inst = List.hd (Blkback.instances (Blk_app.blkback s.blk_app)) in
  check_bool "served requests" true (Blkback.requests_served inst >= 16);
  check_bool "batching reduced device ops" true
    (Blkback.device_ops inst <= Blkback.requests_served inst)

let test_blk_direct_only_when_indirect_off () =
  let s = make_blk_scenario ~feature_indirect:false () in
  run_blk s (fun () ->
      check_bool "indirect off" false (Blkfront.indirect_enabled s.blkfront);
      let len = 256 * 1024 in
      let data = Bytes.make len 'd' in
      Blkfront.write s.blkfront ~sector:0 data;
      let back = Blkfront.read s.blkfront ~sector:0 ~count:(len / 512) in
      check_bool "roundtrip without indirect" true (Bytes.equal back data));
  (* 256 KiB at <=44 KiB per request: at least 6 requests each way. *)
  check_bool "more requests needed" true
    (Blkfront.requests_issued s.blkfront >= 12)

let test_blk_persistent_reduces_maps () =
  let count_maps persistent =
    let s =
      make_blk_scenario ~feature_persistent:persistent
        ~use_persistent:persistent ()
    in
    run_blk s (fun () ->
        for i = 0 to 19 do
          Blkfront.write s.blkfront ~sector:(i * 8) (Bytes.make 4096 'p')
        done);
    Metrics.count (Hypervisor.metrics s.bhv) "hypercall.grant_map"
  in
  let with_persist = count_maps true in
  let without = count_maps false in
  check_bool
    (Printf.sprintf "persistent maps (%d) < non-persistent (%d)" with_persist
       without)
    true
    (with_persist < without / 2)

let test_blk_unmap_hypercalls_only_without_persistent () =
  let s = make_blk_scenario ~feature_persistent:false ~use_persistent:false () in
  run_blk s (fun () ->
      Blkfront.write s.blkfront ~sector:0 (Bytes.make 4096 'x'));
  check_bool "unmaps charged" true
    (Metrics.count (Hypervisor.metrics s.bhv) "hypercall.grant_unmap" > 0)

let test_blk_flush_completes () =
  let s = make_blk_scenario () in
  run_blk s (fun () -> Blkfront.flush s.blkfront);
  let inst = List.hd (Blkback.instances (Blk_app.blkback s.blk_app)) in
  check_bool "flush served" true (Blkback.requests_served inst >= 1)

let test_blk_out_of_range_fails () =
  let s = make_blk_scenario () in
  let raised =
    run_blk s (fun () ->
        try
          Blkfront.write s.blkfront
            ~sector:((1 lsl 22) - 1)
            (Bytes.make 8192 'z');
          false
        with Blkfront.Io_error _ -> true)
  in
  check_bool "io error surfaced" true raised

let test_blk_concurrent_writers () =
  let s = make_blk_scenario () in
  let done_count = ref 0 in
  Process.spawn (Hypervisor.sched s.bhv) ~name:"spawner" (fun () ->
      Blkfront.wait_connected s.blkfront;
      for w = 0 to 7 do
        Hypervisor.spawn s.bhv (Hypervisor.dom0 s.bhv)
          ~name:(Printf.sprintf "writer%d" w)
          (fun () ->
            let sector = w * 1024 in
            let data = Bytes.make (64 * 512) (Char.chr (Char.code 'a' + w)) in
            Blkfront.write s.blkfront ~sector data;
            let back = Blkfront.read s.blkfront ~sector ~count:64 in
            if Bytes.equal back data then incr done_count)
      done);
  Hypervisor.run_for s.bhv (Time.sec 60);
  check_int "all writers verified" 8 !done_count

let prop_blkif_pack_roundtrip =
  QCheck.Test.make ~name:"blkif indirect descriptors roundtrip" ~count:100
    QCheck.(list_of_size Gen.(1 -- 700)
              (triple (0 -- 0xffffff) (0 -- 7) (0 -- 7)))
    (fun raw ->
      let segs =
        List.map
          (fun (gref, a, b) ->
            { Blkif.gref; first_sect = min a b; last_sect = max a b })
          raw
      in
      let pages = Blkif.pack_segments segs in
      Blkif.unpack_segments pages ~count:(List.length segs) = segs)

let test_blk_two_guests_share_device () =
  (* Two DomUs, each with its own blkfront, against one blkback domain:
     the backend watcher spawns one instance per frontend (§4.1), and
     writes land on disjoint regions of the same NVMe device. *)
  let hv = Hypervisor.create ~seed:21 () in
  let ctx = Xen_ctx.create hv in
  let sched = Hypervisor.sched hv in
  let metrics = Hypervisor.metrics hv in
  let dd =
    Hypervisor.create_domain hv ~name:"stordd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:1024
  in
  let mk n =
    Hypervisor.create_domain hv ~name:n ~kind:Domain.Dom_u ~vcpus:2
      ~mem_mb:1024
  in
  let u1 = mk "u1" and u2 = mk "u2" in
  let nvme =
    Kite_devices.Nvme.create sched metrics ~name:"nvme0"
      ~capacity_sectors:(1 lsl 20) ()
  in
  let app =
    Blk_app.run ctx ~domain:dd ~nvme ~overheads:Overheads.kite ()
  in
  Toolstack.add_vbd ctx ~backend:dd ~frontend:u1 ~devid:0 ();
  Toolstack.add_vbd ctx ~backend:dd ~frontend:u2 ~devid:0 ();
  let f1 = Blkfront.create ctx ~domain:u1 ~backend:dd ~devid:0 () in
  let f2 = Blkfront.create ctx ~domain:u2 ~backend:dd ~devid:0 () in
  let ok = ref 0 in
  let writer front sector fill =
    Hypervisor.spawn hv dd ~name:"w" (fun () ->
        Blkfront.wait_connected front;
        let data = Bytes.make 8192 fill in
        Blkfront.write front ~sector data;
        if Bytes.equal (Blkfront.read front ~sector ~count:16) data then
          incr ok)
  in
  writer f1 0 'a';
  writer f2 4096 'b';
  Hypervisor.run_for hv (Time.sec 10);
  check_int "both guests verified" 2 !ok;
  check_int "two blkback instances" 2
    (List.length (Blkback.instances (Blk_app.blkback app)));
  (* Both guests' data really went to the same physical device. *)
  check_int "device saw both writes" (2 * 8192)
    (Kite_devices.Nvme.bytes_written nvme)

(* Payload copy semantics and allocation through the full storage
   testbed (persistent grants, one 128 KiB request riding an indirect
   descriptor).  Words are counted the way the benchmark probe counts
   them: minor words plus direct major allocations, since 4 KiB and
   larger buffers skip the minor heap. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let large_sectors = 256

let with_storage f =
  let s = Kite.Scenario.storage ~flavor:Kite.Scenario.Kite () in
  let result = ref None in
  Kite.Scenario.when_blk_ready s (fun () ->
      check_bool "persistent grants" true
        (Blkfront.persistent_enabled s.Kite.Scenario.blkfront);
      check_bool "indirect descriptors" true
        (Blkfront.indirect_enabled s.Kite.Scenario.blkfront);
      result := Some (f s.Kite.Scenario.blkfront));
  Hypervisor.run_for s.Kite.Scenario.bhv (Time.sec 10);
  Fun.protect ~finally:Kite.Scenario.teardown_all (fun () ->
      match !result with
      | Some v -> v
      | None -> Alcotest.fail "storage testbed did not complete")

let pattern n k =
  Bytes.init (n * 512) (fun i -> Char.chr (((i * 31) + k) land 0xff))

let test_blk_copy_semantics () =
  with_storage (fun bf ->
      let sector = 4096 in
      let data = pattern large_sectors 5 in
      let original = Bytes.copy data in
      Blkfront.write bf ~sector data;
      (* The caller owns its buffer again once [write] returns. *)
      Bytes.fill data 0 (Bytes.length data) 'W';
      let r1 = Blkfront.read bf ~sector ~count:large_sectors in
      check_bool "disk keeps the written data" true (Bytes.equal r1 original);
      (* A read result is the caller's own: scribbling on it reaches
         neither the pooled pages nor the next read, and later I/O
         through those pages does not change it. *)
      Bytes.fill r1 0 (Bytes.length r1) 'R';
      let other =
        Blkfront.read bf ~sector:(sector + 1024) ~count:large_sectors
      in
      check_bool "unwritten range reads zeroes" true
        (Bytes.for_all (fun c -> c = '\000') other);
      let r2 = Blkfront.read bf ~sector ~count:large_sectors in
      check_bool "next read unaffected" true (Bytes.equal r2 original);
      check_bool "earlier result untouched by later reads" true
        (Bytes.for_all (fun c -> c = 'R') r1))

(* Bound on one 128 KiB write + read round trip, set from the measured
   cost with about 25 % headroom.  The payload is 16,384 words; what
   remains is blkback's gather buffer (write), the NVMe transfer buffer
   and the returned buffer (read), plus the simulation's own work.  One
   more payload-sized copy on any hop breaks the bound. *)
let round_trip_word_bound = 70_000.

let test_blk_round_trip_allocation () =
  let words =
    with_storage (fun bf ->
        let sector = 8192 in
        let data = pattern large_sectors 9 in
        let round_trip () =
          Blkfront.write bf ~sector data;
          ignore (Blkfront.read bf ~sector ~count:large_sectors)
        in
        (* The first round trip fills the persistent-grant pool. *)
        round_trip ();
        let w0 = alloc_words () in
        round_trip ();
        alloc_words () -. w0)
  in
  Printf.printf "128 KiB write+read round trip: %.0f words\n" words;
  check_bool
    (Printf.sprintf "%.0f words < %.0f" words round_trip_word_bound)
    true
    (words < round_trip_word_bound)

let test_netfront_drops_before_connect () =
  (* Frames transmitted before the handshake completes are counted as
     drops, like a NIC with no carrier. *)
  let hv = Hypervisor.create () in
  let ctx = Xen_ctx.create hv in
  let dd =
    Hypervisor.create_domain hv ~name:"netdd" ~kind:Domain.Driver_domain
      ~vcpus:1 ~mem_mb:512
  in
  let domu =
    Hypervisor.create_domain hv ~name:"u" ~kind:Domain.Dom_u ~vcpus:1
      ~mem_mb:512
  in
  (* No backend serving: the handshake can never complete. *)
  Toolstack.add_vif ctx ~backend:dd ~frontend:domu ~devid:0 ();
  let front = Netfront.create ctx ~domain:domu ~backend:dd ~devid:0 () in
  let dev = Netfront.netdev front in
  Kite_net.Netdev.set_up dev true;
  Hypervisor.spawn hv domu ~name:"tx" (fun () ->
      Kite_net.Netdev.transmit dev (Bytes.make 64 'x'));
  Hypervisor.run_for hv (Time.ms 100);
  check_int "dropped" 1 (Netfront.tx_dropped front);
  check_bool "never connected" false (Netfront.connected front)

let suite =
  [
    ("blkif pack/unpack", `Quick, test_blkif_pack_unpack);
    ("blkif pack many pages", `Quick, test_blkif_pack_many_pages);
    ("blkif segment bytes", `Quick, test_blkif_segment_bytes);
    ("netchannel registry", `Quick, test_netchannel_registry);
    ("net domain handshake", `Quick, test_net_domain_handshake);
    ("net domain ping", `Quick, test_net_domain_ping);
    ("net domain udp both ways", `Quick, test_net_domain_udp_both_ways);
    ("net domain tcp bulk", `Quick, test_net_domain_tcp_bulk);
    ("net domain hypercall accounting", `Quick, test_net_domain_hypercall_accounting);
    ("net domain two guests", `Quick, test_net_domain_two_guests);
    ("blk handshake features", `Quick, test_blk_handshake_features);
    ("blk write/read roundtrip", `Quick, test_blk_write_read_roundtrip);
    ("blk reaches device", `Quick, test_blk_reaches_device);
    ("blk large indirect io", `Quick, test_blk_large_indirect_io);
    ("blk direct-only fallback", `Quick, test_blk_direct_only_when_indirect_off);
    ("blk persistent reduces maps", `Quick, test_blk_persistent_reduces_maps);
    ("blk unmap without persistent", `Quick, test_blk_unmap_hypercalls_only_without_persistent);
    ("blk flush", `Quick, test_blk_flush_completes);
    ("blk out of range", `Quick, test_blk_out_of_range_fails);
    ("blk concurrent writers", `Quick, test_blk_concurrent_writers);
    ("blk two guests share device", `Quick, test_blk_two_guests_share_device);
    ("blk copy semantics", `Quick, test_blk_copy_semantics);
    ("blk round trip allocation", `Quick, test_blk_round_trip_allocation);
    ("netfront drops before connect", `Quick, test_netfront_drops_before_connect);
    QCheck_alcotest.to_alcotest prop_blkif_pack_roundtrip;
  ]
