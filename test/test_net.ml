open Kite_sim
open Kite_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Addresses and wire formats                                          *)
(* ------------------------------------------------------------------ *)

let test_macaddr () =
  let m = Macaddr.of_string "02:4b:00:00:00:2a" in
  check_str "roundtrip" "02:4b:00:00:00:2a" (Macaddr.to_string m);
  check_bool "broadcast" true (Macaddr.is_broadcast Macaddr.broadcast);
  check_bool "not broadcast" false (Macaddr.is_broadcast m);
  check_bool "make_local distinct" false
    (Macaddr.equal (Macaddr.make_local 1) (Macaddr.make_local 2));
  Alcotest.check_raises "bad" (Invalid_argument "Macaddr.of_string: junk")
    (fun () -> ignore (Macaddr.of_string "junk"))

let test_ipv4addr () =
  let a = Ipv4addr.of_string "192.168.10.7" in
  check_str "roundtrip" "192.168.10.7" (Ipv4addr.to_string a);
  let mask = Ipv4addr.of_string "255.255.255.0" in
  check_bool "same subnet" true
    (Ipv4addr.same_subnet a (Ipv4addr.of_string "192.168.10.200") ~netmask:mask);
  check_bool "different subnet" false
    (Ipv4addr.same_subnet a (Ipv4addr.of_string "192.168.11.1") ~netmask:mask);
  Alcotest.check_raises "bad"
    (Invalid_argument "Ipv4addr.of_string: 1.2.3") (fun () ->
      ignore (Ipv4addr.of_string "1.2.3"))

let test_checksum () =
  (* RFC 1071 example: checksum of 0001 f203 f4f5 f6f7 = 0x220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071" 0x220d (Wire.checksum b ~off:0 ~len:8)

(* Byte-at-a-time RFC 1071 reference: the checksum of the concatenated
   ranges, each summed as 16-bit big-endian words from its own start. *)
let reference_checksum ranges =
  let sum =
    List.fold_left
      (fun acc (b, off, len) ->
        let acc = ref acc in
        for j = 0 to len - 1 do
          let byte = Char.code (Bytes.get b (off + j)) in
          acc := !acc + if j land 1 = 0 then byte lsl 8 else byte
        done;
        !acc)
      0 ranges
  in
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let prop_checksum_matches_reference =
  let gen =
    QCheck.Gen.(
      let* len = 0 -- 1500 in
      let* off = 0 -- 7 in
      let* slack = 0 -- 3 in
      let* bytes = string_size ~gen:char (return (off + len + slack)) in
      let* ph = string_size ~gen:char (return 12) in
      return (Bytes.of_string bytes, off, len, Bytes.of_string ph))
  in
  QCheck.Test.make ~name:"checksum equals the byte-wise reference" ~count:300
    (QCheck.make
       ~print:(fun (_, off, len, _) -> Printf.sprintf "off %d len %d" off len)
       gen)
    (fun (b, off, len, ph) ->
      Wire.checksum b ~off ~len = reference_checksum [ (b, off, len) ]
      (* Two ranges, as the UDP/TCP pseudo-header uses them. *)
      && Wire.checksum_list [ (ph, 0, 12); (b, off, len) ]
         = reference_checksum [ (ph, 0, 12); (b, off, len) ])

let test_checksum_range_checked () =
  let b = Bytes.make 16 '\xff' in
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  raises "negative off" (fun () -> Wire.checksum b ~off:(-1) ~len:4);
  raises "negative len" (fun () -> Wire.checksum b ~off:0 ~len:(-2));
  raises "past the end" (fun () -> Wire.checksum b ~off:13 ~len:4);
  raises "odd tail past the end" (fun () -> Wire.checksum b ~off:0 ~len:17);
  raises "list range past the end" (fun () ->
      Wire.checksum_list [ (b, 0, 12); (b, 10, 7) ]);
  check_int "whole buffer" (reference_checksum [ (b, 0, 16) ])
    (Wire.checksum b ~off:0 ~len:16);
  check_int "empty range at the end" 0xffff (Wire.checksum b ~off:16 ~len:0)

let test_ethernet_roundtrip () =
  let h =
    {
      Ethernet.dst = Macaddr.make_local 1;
      src = Macaddr.make_local 2;
      ethertype = Ethernet.Ipv4;
    }
  in
  let frame = Ethernet.encode h ~payload:(Bytes.of_string "payload") in
  match Ethernet.decode frame with
  | Some (h', p) ->
      check_bool "dst" true (Macaddr.equal h.Ethernet.dst h'.Ethernet.dst);
      check_bool "ethertype" true (h'.Ethernet.ethertype = Ethernet.Ipv4);
      check_str "payload" "payload" (Bytes.to_string p)
  | None -> Alcotest.fail "decode failed"

let test_ethernet_runt () =
  check_bool "runt rejected" true (Ethernet.decode (Bytes.create 5) = None)

let test_arp_roundtrip () =
  let req =
    Arp.request
      ~sender_mac:(Macaddr.make_local 3)
      ~sender_ip:(Ipv4addr.of_string "10.0.0.1")
      ~target_ip:(Ipv4addr.of_string "10.0.0.2")
  in
  (match Arp.decode (Arp.encode req) with
  | Some p ->
      check_bool "op" true (p.Arp.op = Arp.Request);
      check_str "target" "10.0.0.2" (Ipv4addr.to_string p.Arp.target_ip)
  | None -> Alcotest.fail "decode failed");
  let rep = Arp.reply_to req ~my_mac:(Macaddr.make_local 9) in
  check_bool "reply op" true (rep.Arp.op = Arp.Reply);
  check_str "reply sender ip" "10.0.0.2" (Ipv4addr.to_string rep.Arp.sender_ip);
  check_bool "reply to requester" true
    (Macaddr.equal rep.Arp.target_mac req.Arp.sender_mac)

let test_ipv4_roundtrip () =
  let h =
    Ipv4.make_header
      ~src:(Ipv4addr.of_string "10.0.0.1")
      ~dst:(Ipv4addr.of_string "10.0.0.2")
      ~protocol:Ipv4.Udp ~ttl:64
  in
  let pkt = Ipv4.encode h ~payload:(Bytes.of_string "hello") in
  match Ipv4.decode pkt with
  | Some (h', p) ->
      check_str "src" "10.0.0.1" (Ipv4addr.to_string h'.Ipv4.src);
      check_bool "proto" true (h'.Ipv4.protocol = Ipv4.Udp);
      check_str "payload" "hello" (Bytes.to_string p)
  | None -> Alcotest.fail "decode failed"

let test_ipv4_corruption_detected () =
  let h =
    Ipv4.make_header
      ~src:(Ipv4addr.of_string "10.0.0.1")
      ~dst:(Ipv4addr.of_string "10.0.0.2")
      ~protocol:Ipv4.Udp ~ttl:64
  in
  let pkt = Ipv4.encode h ~payload:Bytes.empty in
  Bytes.set pkt 12 '\xde';  (* corrupt the source address *)
  check_bool "checksum catches it" true (Ipv4.decode pkt = None)

let test_icmp_roundtrip () =
  let e = { Icmp.id = 7; seq = 3; payload = Bytes.of_string "ping" } in
  (match Icmp.decode (Icmp.encode (Icmp.Echo_request e)) with
  | Some (Icmp.Echo_request e') ->
      check_int "id" 7 e'.Icmp.id;
      check_int "seq" 3 e'.Icmp.seq
  | _ -> Alcotest.fail "bad echo request");
  match Icmp.decode (Icmp.encode (Icmp.Echo_reply e)) with
  | Some (Icmp.Echo_reply _) -> ()
  | _ -> Alcotest.fail "bad echo reply"

let test_udp_roundtrip () =
  let src = Ipv4addr.of_string "1.2.3.4" and dst = Ipv4addr.of_string "5.6.7.8" in
  let d =
    Udp.encode { Udp.src_port = 1234; dst_port = 80 } ~src ~dst
      ~payload:(Bytes.of_string "data")
  in
  match Udp.decode d ~src ~dst with
  | Some (h, p) ->
      check_int "sport" 1234 h.Udp.src_port;
      check_int "dport" 80 h.Udp.dst_port;
      check_str "payload" "data" (Bytes.to_string p)
  | None -> Alcotest.fail "decode failed"

let test_udp_checksum_detects () =
  let src = Ipv4addr.of_string "1.2.3.4" and dst = Ipv4addr.of_string "5.6.7.8" in
  let d =
    Udp.encode { Udp.src_port = 1; dst_port = 2 } ~src ~dst
      ~payload:(Bytes.of_string "data")
  in
  Bytes.set d 9 'X';
  check_bool "corrupt payload" true (Udp.decode d ~src ~dst = None);
  (* decode with a wrong pseudo-header also fails (note: merely swapping
     src/dst would be invisible — one's-complement addition commutes) *)
  let d2 =
    Udp.encode { Udp.src_port = 1; dst_port = 2 } ~src ~dst
      ~payload:(Bytes.of_string "data")
  in
  check_bool "wrong pseudo header" true
    (Udp.decode d2 ~src:(Ipv4addr.of_string "9.9.9.9") ~dst = None)

let test_tcp_wire_roundtrip () =
  let src = Ipv4addr.of_string "1.1.1.1" and dst = Ipv4addr.of_string "2.2.2.2" in
  let h =
    {
      Tcp_wire.src_port = 5555;
      dst_port = 80;
      seq = 0xdeadbeef;
      ack_num = 42;
      flags = { Tcp_wire.no_flags with syn = true; ack = true };
      window = 256 * 1024;
    }
  in
  let seg = Tcp_wire.encode h ~src ~dst ~payload:(Bytes.of_string "xyz") in
  match Tcp_wire.decode seg ~src ~dst with
  | Some (h', p) ->
      check_int "seq" 0xdeadbeef h'.Tcp_wire.seq;
      check_int "ack" 42 h'.Tcp_wire.ack_num;
      check_bool "syn" true h'.Tcp_wire.flags.Tcp_wire.syn;
      check_bool "fin" false h'.Tcp_wire.flags.Tcp_wire.fin;
      check_int "window survives scaling" (256 * 1024) h'.Tcp_wire.window;
      check_str "payload" "xyz" (Bytes.to_string p)
  | None -> Alcotest.fail "decode failed"

let test_tcp_seq_arith () =
  check_bool "lt" true (Tcp_wire.seq_lt 5 10);
  check_bool "wrap lt" true (Tcp_wire.seq_lt 0xfffffff0 5);
  check_bool "not lt" false (Tcp_wire.seq_lt 10 5);
  check_int "add wraps" 4 (Tcp_wire.seq_add 0xffffffff 5);
  check_bool "leq self" true (Tcp_wire.seq_leq 7 7)

let test_dhcp_roundtrip () =
  let m =
    Dhcp_wire.make ~op:`Boot_request ~xid:0x1234l
      ~chaddr:(Macaddr.make_local 5) ~message_type:Dhcp_wire.Discover
      ~requested_ip:(Ipv4addr.of_string "10.0.0.50")
      ()
  in
  match Dhcp_wire.decode (Dhcp_wire.encode m) with
  | Some m' ->
      check_bool "type" true (m'.Dhcp_wire.message_type = Dhcp_wire.Discover);
      check_bool "xid" true (m'.Dhcp_wire.xid = 0x1234l);
      check_bool "requested" true
        (m'.Dhcp_wire.requested_ip = Some (Ipv4addr.of_string "10.0.0.50"));
      check_bool "no server id" true (m'.Dhcp_wire.server_id = None)
  | None -> Alcotest.fail "decode failed"

let test_dhcp_offer_fields () =
  let m =
    Dhcp_wire.make ~op:`Boot_reply ~xid:7l ~chaddr:(Macaddr.make_local 1)
      ~message_type:Dhcp_wire.Offer
      ~yiaddr:(Ipv4addr.of_string "10.0.0.100")
      ~server_id:(Ipv4addr.of_string "10.0.0.1")
      ~lease_time:3600l ()
  in
  match Dhcp_wire.decode (Dhcp_wire.encode m) with
  | Some m' ->
      check_str "yiaddr" "10.0.0.100" (Ipv4addr.to_string m'.Dhcp_wire.yiaddr);
      check_bool "lease" true (m'.Dhcp_wire.lease_time = Some 3600l)
  | None -> Alcotest.fail "decode failed"

let prop_eth_roundtrip =
  QCheck.Test.make ~name:"ethernet encode/decode roundtrip" ~count:100
    QCheck.(string_of_size Gen.(0 -- 1500))
    (fun payload ->
      let h =
        {
          Ethernet.dst = Macaddr.make_local 1;
          src = Macaddr.make_local 2;
          ethertype = Ethernet.Arp;
        }
      in
      match Ethernet.decode (Ethernet.encode h ~payload:(Bytes.of_string payload)) with
      | Some (_, p) -> Bytes.to_string p = payload
      | None -> false)

let prop_tcp_wire_roundtrip =
  QCheck.Test.make ~name:"tcp segment encode/decode roundtrip" ~count:100
    QCheck.(quad (1 -- 65535) (1 -- 65535)
              (pair (0 -- 0xfffffff) (0 -- 0xfffffff))
              (string_of_size Gen.(0 -- 1460)))
    (fun (sp, dp, (seq, ack), payload) ->
      let src = Ipv4addr.of_string "10.9.9.1" in
      let dst = Ipv4addr.of_string "10.9.9.2" in
      let h =
        {
          Tcp_wire.src_port = sp;
          dst_port = dp;
          seq;
          ack_num = ack;
          flags = { Tcp_wire.no_flags with ack = true; psh = true };
          window = 65536;
        }
      in
      match
        Tcp_wire.decode
          (Tcp_wire.encode h ~src ~dst ~payload:(Bytes.of_string payload))
          ~src ~dst
      with
      | Some (h', p) ->
          h'.Tcp_wire.src_port = sp && h'.Tcp_wire.dst_port = dp
          && h'.Tcp_wire.seq = seq && h'.Tcp_wire.ack_num = ack
          && Bytes.to_string p = payload
      | None -> false)

let prop_udp_roundtrip =
  QCheck.Test.make ~name:"udp encode/decode roundtrip" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 1400)) (pair (1 -- 65535) (1 -- 65535)))
    (fun (payload, (sp, dp)) ->
      let src = Ipv4addr.of_string "9.8.7.6" in
      let dst = Ipv4addr.of_string "6.7.8.9" in
      let d =
        Udp.encode { Udp.src_port = sp; dst_port = dp } ~src ~dst
          ~payload:(Bytes.of_string payload)
      in
      match Udp.decode d ~src ~dst with
      | Some (h, p) ->
          h.Udp.src_port = sp && h.Udp.dst_port = dp
          && Bytes.to_string p = payload
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Netdev and bridge                                                   *)
(* ------------------------------------------------------------------ *)

let test_netdev_pipe () =
  let a, b = Netdev.pipe ~name_a:"a" ~name_b:"b" in
  Netdev.set_up a true;
  Netdev.set_up b true;
  let got = ref "" in
  Netdev.set_rx b (fun f -> got := Bytes.to_string f);
  Netdev.transmit a (Bytes.of_string "hi");
  check_str "delivered" "hi" !got;
  check_int "tx" 1 (Netdev.tx_count a);
  check_int "rx" 1 (Netdev.rx_count b)

let test_netdev_down_drops () =
  let a, b = Netdev.pipe ~name_a:"a" ~name_b:"b" in
  Netdev.set_up a true;
  (* b stays down *)
  let got = ref 0 in
  Netdev.set_rx b (fun _ -> incr got);
  Netdev.transmit a (Bytes.of_string "hi");
  check_int "dropped at down dev" 0 !got;
  (* a down: transmit is a no-op *)
  Netdev.set_up a false;
  Netdev.set_up b true;
  Netdev.transmit a (Bytes.of_string "hi");
  check_int "not sent" 0 !got

let test_netdev_mtu () =
  let a, b = Netdev.pipe ~name_a:"a" ~name_b:"b" in
  Netdev.set_up a true;
  Netdev.set_up b true;
  let got = ref 0 in
  Netdev.set_rx b (fun _ -> incr got);
  Netdev.transmit a (Bytes.create 5000);
  check_int "oversized dropped" 0 !got

let mk_frame ~dst ~src s =
  Ethernet.encode
    { Ethernet.dst; src; ethertype = Ethernet.Other 0x88b5 }
    ~payload:(Bytes.of_string s)

let test_bridge_learning_and_flood () =
  let br = Bridge.create ~name:"xenbr0" in
  (* Three ports, each a pipe; the far ends are the "hosts". *)
  let mk name = Netdev.pipe ~name_a:(name ^ "-br") ~name_b:(name ^ "-host") in
  let p1, h1 = mk "p1" and p2, h2 = mk "p2" and p3, h3 = mk "p3" in
  List.iter (fun d -> Netdev.set_up d true) [ h1; h2; h3 ];
  Bridge.add_port br p1;
  Bridge.add_port br p2;
  Bridge.add_port br p3;
  let got2 = ref [] and got3 = ref [] in
  Netdev.set_rx h2 (fun f -> got2 := f :: !got2);
  Netdev.set_rx h3 (fun f -> got3 := f :: !got3);
  let mac_a = Macaddr.make_local 0xa and mac_b = Macaddr.make_local 0xb in
  (* Unknown destination: flood to all but ingress. *)
  Netdev.transmit h1 (mk_frame ~dst:mac_b ~src:mac_a "one");
  check_int "p2 flooded" 1 (List.length !got2);
  check_int "p3 flooded" 1 (List.length !got3);
  (* mac_b answers from port 2: bridge learns both sides. *)
  Netdev.transmit h2 (mk_frame ~dst:mac_a ~src:mac_b "two");
  check_int "p3 not flooded now" 1 (List.length !got3);
  (* Now a->b is unicast to port 2 only. *)
  Netdev.transmit h1 (mk_frame ~dst:mac_b ~src:mac_a "three");
  check_int "p2 unicast" 2 (List.length !got2);
  check_int "p3 spared" 1 (List.length !got3);
  check_bool "learned a" true (Bridge.lookup br mac_a <> None);
  check_bool "fwd counted" true (Bridge.forwarded br >= 1)

let test_bridge_broadcast () =
  let br = Bridge.create ~name:"br" in
  let p1, h1 = Netdev.pipe ~name_a:"p1" ~name_b:"h1" in
  let p2, h2 = Netdev.pipe ~name_a:"p2" ~name_b:"h2" in
  Netdev.set_up h1 true;
  Netdev.set_up h2 true;
  Bridge.add_port br p1;
  Bridge.add_port br p2;
  let got1 = ref 0 and got2 = ref 0 in
  Netdev.set_rx h1 (fun _ -> incr got1);
  Netdev.set_rx h2 (fun _ -> incr got2);
  Netdev.transmit h1
    (mk_frame ~dst:Macaddr.broadcast ~src:(Macaddr.make_local 1) "bcast");
  check_int "not back out ingress" 0 !got1;
  check_int "to other ports" 1 !got2

let test_bridge_duplicate_port () =
  let br = Bridge.create ~name:"br" in
  let p, _ = Netdev.pipe ~name_a:"p" ~name_b:"h" in
  Bridge.add_port br p;
  Alcotest.check_raises "dup" (Invalid_argument "Bridge.add_port: p already in br")
    (fun () -> Bridge.add_port br p)

(* ------------------------------------------------------------------ *)
(* Stack: ARP, ping, UDP                                               *)
(* ------------------------------------------------------------------ *)

let two_hosts () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let da, db = Netdev.pipe ~name_a:"eth-a" ~name_b:"eth-b" in
  let a =
    Stack.create s ~name:"hostA" ~dev:da ~mac:(Macaddr.make_local 1)
      ~ip:(Ipv4addr.of_string "10.0.0.1")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  let b =
    Stack.create s ~name:"hostB" ~dev:db ~mac:(Macaddr.make_local 2)
      ~ip:(Ipv4addr.of_string "10.0.0.2")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  (e, s, a, b)

let test_stack_arp_resolution () =
  let e, s, a, _b = two_hosts () in
  let mac = ref None in
  Process.spawn s ~name:"resolver" (fun () ->
      mac := Some (Stack.resolve a (Ipv4addr.of_string "10.0.0.2")));
  Engine.run e;
  check_bool "resolved" true (!mac = Some (Macaddr.make_local 2));
  check_bool "cached" true (Stack.arp_cache_size a >= 1)

let test_stack_arp_unreachable () =
  let e, s, a, _b = two_hosts () in
  let failed = ref false in
  Process.spawn s ~name:"resolver" (fun () ->
      try ignore (Stack.resolve a (Ipv4addr.of_string "10.0.0.99"))
      with Stack.Host_unreachable _ -> failed := true);
  Engine.run e;
  check_bool "gave up" true !failed

let test_stack_ping () =
  let e, s, a, _b = two_hosts () in
  let rtt = ref None in
  Process.spawn s ~name:"pinger" (fun () ->
      rtt := Stack.ping a ~dst:(Ipv4addr.of_string "10.0.0.2") ~seq:1 ());
  Engine.run e;
  match !rtt with
  | Some span -> check_bool "nonneg rtt" true (span >= 0)
  | None -> Alcotest.fail "ping timed out"

let test_stack_ping_timeout () =
  let e, s, a, _b = two_hosts () in
  let rtt = ref (Some 1) in
  Process.spawn s ~name:"pinger" (fun () ->
      rtt :=
        Stack.ping a
          ~dst:(Ipv4addr.of_string "10.0.0.123")
          ~timeout:(Time.ms 10) ~seq:1 ());
  Engine.run e;
  check_bool "no reply" true (!rtt = None)

let test_stack_udp () =
  let e, s, a, b = two_hosts () in
  let got = ref None in
  Process.spawn s ~name:"server" (fun () ->
      let sock = Stack.udp_bind b ~port:5353 in
      let src, sport, data = Stack.udp_recv sock in
      got := Some (Ipv4addr.to_string src, sport, Bytes.to_string data);
      (* echo back *)
      Stack.udp_send b sock ~dst:src ~dst_port:sport data);
  let echoed = ref None in
  Process.spawn s ~name:"client" (fun () ->
      let sock = Stack.udp_bind a ~port:9999 in
      Stack.udp_send a sock
        ~dst:(Ipv4addr.of_string "10.0.0.2")
        ~dst_port:5353 (Bytes.of_string "query");
      let _, _, reply = Stack.udp_recv sock in
      echoed := Some (Bytes.to_string reply));
  Engine.run e;
  check_bool "server got it" true (!got = Some ("10.0.0.1", 9999, "query"));
  check_bool "echo" true (!echoed = Some "query")

let test_stack_udp_port_in_use () =
  let _, _, a, _ = two_hosts () in
  ignore (Stack.udp_bind a ~port:53);
  Alcotest.check_raises "in use"
    (Invalid_argument "Stack.udp_bind: port 53 in use") (fun () ->
      ignore (Stack.udp_bind a ~port:53))

let test_stack_no_route () =
  let e, s, a, _ = two_hosts () in
  let failed = ref false in
  Process.spawn s ~name:"tx" (fun () ->
      try
        Stack.send_ip a
          ~dst:(Ipv4addr.of_string "8.8.8.8")
          ~protocol:Ipv4.Udp Bytes.empty
      with Stack.Network_unreachable _ -> failed := true);
  Engine.run e;
  check_bool "no gateway" true !failed

(* ------------------------------------------------------------------ *)
(* TCP                                                                 *)
(* ------------------------------------------------------------------ *)

let two_tcp_hosts () =
  let e, s, a, b = two_hosts () in
  let ta = Tcp.attach a and tb = Tcp.attach b in
  (e, s, a, b, ta, tb)

let test_tcp_connect_and_echo () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let server_saw = ref "" and client_saw = ref "" in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:80 in
      let c = Tcp.accept l in
      match Tcp.recv c ~max:100 with
      | Some data ->
          server_saw := Bytes.to_string data;
          Tcp.send c (Bytes.of_string ("echo:" ^ !server_saw));
          Tcp.close c
      | None -> ());
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:80 in
      Tcp.send c (Bytes.of_string "hello");
      (match Tcp.recv c ~max:100 with
      | Some data -> client_saw := Bytes.to_string data
      | None -> ());
      Tcp.close c);
  Engine.run_until e (Time.sec 10);
  check_str "server" "hello" !server_saw;
  check_str "client" "echo:hello" !client_saw

let test_tcp_refused () =
  let e, s, _a, _b, ta, _tb = two_tcp_hosts () in
  let refused = ref false in
  Process.spawn s ~name:"client" (fun () ->
      try ignore (Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:81)
      with Tcp.Connection_refused _ -> refused := true);
  Engine.run_until e (Time.sec 10);
  check_bool "refused" true !refused

let test_tcp_bulk_transfer () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let total = 1_000_000 in
  let received = ref 0 in
  let checks_ok = ref true in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:5001 in
      let c = Tcp.accept l in
      let rec drain () =
        match Tcp.recv c ~max:65536 with
        | Some data ->
            (* verify the position-dependent pattern *)
            Bytes.iteri
              (fun i ch ->
                let pos = !received + i in
                if Char.code ch <> pos land 0xff then checks_ok := false)
              data;
            received := !received + Bytes.length data;
            drain ()
        | None -> ()
      in
      drain ());
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:5001 in
      let chunk = 8192 in
      let sent = ref 0 in
      while !sent < total do
        let n = min chunk (total - !sent) in
        let data = Bytes.init n (fun i -> Char.chr ((!sent + i) land 0xff)) in
        Tcp.send c data;
        sent := !sent + n
      done;
      Tcp.close c);
  Engine.run_until e (Time.sec 30);
  check_int "all bytes" total !received;
  check_bool "content intact" true !checks_ok

let test_tcp_bidirectional () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let sums = ref [] in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:7 in
      let c = Tcp.accept l in
      for _ = 1 to 5 do
        match Tcp.recv_exact c ~len:4 with
        | Some q -> Tcp.send c (Bytes.of_string (Bytes.to_string q ^ "!"))
        | None -> ()
      done;
      Tcp.close c);
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:7 in
      for i = 1 to 5 do
        Tcp.send c (Bytes.of_string (Printf.sprintf "rq%02d" i));
        match Tcp.recv_exact c ~len:5 with
        | Some r -> sums := Bytes.to_string r :: !sums
        | None -> ()
      done;
      Tcp.close c);
  Engine.run_until e (Time.sec 10);
  Alcotest.(check (list string))
    "pipelined request/response"
    [ "rq01!"; "rq02!"; "rq03!"; "rq04!"; "rq05!" ]
    (List.rev !sums)

let test_tcp_eof_semantics () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let got_eof = ref false in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:9 in
      let c = Tcp.accept l in
      Tcp.send c (Bytes.of_string "bye");
      Tcp.close c);
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:9 in
      (match Tcp.recv_exact c ~len:3 with
      | Some _ -> ()
      | None -> Alcotest.fail "missing data");
      (match Tcp.recv c ~max:10 with
      | None -> got_eof := true
      | Some _ -> ());
      Tcp.close c);
  Engine.run_until e (Time.sec 10);
  check_bool "eof after close" true !got_eof

let test_tcp_send_after_close_raises () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let raised = ref false in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:10 in
      ignore (Tcp.accept l));
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:10 in
      Tcp.close c;
      try Tcp.send c (Bytes.of_string "late")
      with Tcp.Connection_closed _ -> raised := true);
  Engine.run_until e (Time.sec 10);
  check_bool "raised" true !raised

let test_tcp_many_connections () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let served = ref 0 in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:90 in
      let rec serve () =
        let c = Tcp.accept l in
        Process.spawn s ~name:"worker" (fun () ->
            match Tcp.recv c ~max:64 with
            | Some _ ->
                Tcp.send c (Bytes.of_string "ok");
                Tcp.close c;
                incr served
            | None -> ());
        serve ()
      in
      serve ());
  for i = 1 to 10 do
    Process.spawn s ~name:(Printf.sprintf "client%d" i) (fun () ->
        let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:90 in
        Tcp.send c (Bytes.of_string "req");
        ignore (Tcp.recv c ~max:10);
        Tcp.close c)
  done;
  Engine.run_until e (Time.sec 10);
  check_int "all served" 10 !served

(* ------------------------------------------------------------------ *)
(* NAT                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nat_udp_translation () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  (* inside host <-> NAT <-> outside host *)
  let in_host_dev, nat_in = Netdev.pipe ~name_a:"inh" ~name_b:"natin" in
  let nat_out, out_host_dev = Netdev.pipe ~name_a:"natout" ~name_b:"outh" in
  let inside =
    Stack.create s ~name:"inside" ~dev:in_host_dev
      ~mac:(Macaddr.make_local 1)
      ~ip:(Ipv4addr.of_string "192.168.1.10")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~gateway:(Ipv4addr.of_string "192.168.1.1")
      ()
  in
  let outside =
    Stack.create s ~name:"outside" ~dev:out_host_dev
      ~mac:(Macaddr.make_local 2)
      ~ip:(Ipv4addr.of_string "203.0.113.9")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  let nat =
    Nat.create ~inside:nat_in ~outside:nat_out
      ~inside_ip:(Ipv4addr.of_string "192.168.1.1")
      ~public_ip:(Ipv4addr.of_string "203.0.113.1")
      ~public_mac:(Macaddr.make_local 3)
      ~gateway_mac:(Macaddr.make_local 2) ()
  in
  let server_saw = ref None in
  let reply_seen = ref None in
  Process.spawn s ~name:"outside-server" (fun () ->
      let sock = Stack.udp_bind outside ~port:7777 in
      let src, sport, data = Stack.udp_recv sock in
      server_saw := Some (Ipv4addr.to_string src, Bytes.to_string data);
      Stack.udp_send outside sock ~dst:src ~dst_port:sport
        (Bytes.of_string "pong"));
  Process.spawn s ~name:"inside-client" (fun () ->
      let sock = Stack.udp_bind inside ~port:4242 in
      Stack.udp_send inside sock
        ~dst:(Ipv4addr.of_string "203.0.113.9")
        ~dst_port:7777 (Bytes.of_string "ping");
      let src, _, data = Stack.udp_recv sock in
      reply_seen := Some (Ipv4addr.to_string src, Bytes.to_string data));
  Engine.run_until e (Time.sec 5);
  (* The outside server must see the NAT's public address, not the
     private one; the inside client gets the reply transparently. *)
  check_bool "source translated" true
    (!server_saw = Some ("203.0.113.1", "ping"));
  check_bool "reply delivered" true
    (!reply_seen = Some ("203.0.113.9", "pong"));
  check_int "one mapping" 1 (Nat.translations nat);
  check_bool "counters" true (Nat.stats nat = (1, 1))

let test_nat_tcp_translation () =
  (* A TCP connection through the NAT: handshake, request, response. *)
  let e = Engine.create () in
  let s = Process.scheduler e in
  let in_host_dev, nat_in = Netdev.pipe ~name_a:"inh" ~name_b:"natin" in
  let nat_out, out_host_dev = Netdev.pipe ~name_a:"natout" ~name_b:"outh" in
  let inside =
    Stack.create s ~name:"inside" ~dev:in_host_dev
      ~mac:(Macaddr.make_local 1)
      ~ip:(Ipv4addr.of_string "192.168.1.10")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ~gateway:(Ipv4addr.of_string "192.168.1.1")
      ()
  in
  let outside =
    Stack.create s ~name:"outside" ~dev:out_host_dev
      ~mac:(Macaddr.make_local 2)
      ~ip:(Ipv4addr.of_string "203.0.113.9")
      ~netmask:(Ipv4addr.of_string "255.255.255.0")
      ()
  in
  ignore
    (Nat.create ~inside:nat_in ~outside:nat_out
       ~inside_ip:(Ipv4addr.of_string "192.168.1.1")
       ~public_ip:(Ipv4addr.of_string "203.0.113.1")
       ~public_mac:(Macaddr.make_local 3)
       ~gateway_mac:(Macaddr.make_local 2) ());
  let tcp_in = Tcp.attach inside in
  let tcp_out = Tcp.attach outside in
  let served_from = ref None in
  let got = ref None in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tcp_out ~port:80 in
      let c = Tcp.accept l in
      (match Tcp.recv c ~max:64 with
      | Some _ -> Tcp.send c (Bytes.of_string "natted-reply")
      | None -> ());
      served_from := Some (Tcp.state_name c);
      Tcp.close c);
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect tcp_in ~dst:(Ipv4addr.of_string "203.0.113.9") ~port:80 in
      Tcp.send c (Bytes.of_string "hi");
      (match Tcp.recv c ~max:64 with
      | Some b -> got := Some (Bytes.to_string b)
      | None -> ());
      Tcp.close c);
  Engine.run_until e (Time.sec 10);
  check_bool "reply crossed the NAT" true (!got = Some "natted-reply")

let test_tcp_listener_accept_timeout () =
  let e, s, _a, b = two_hosts () in
  let tb = Tcp.attach b in
  let out = ref (Some ()) in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:1000 in
      out := Option.map (fun _ -> ()) (Tcp.accept_timeout l (Time.ms 5)));
  Engine.run_until e (Time.sec 1);
  check_bool "accept timed out" true (!out = None)

let test_tcp_listen_port_in_use () =
  let _, _, a, _ = two_hosts () in
  let ta = Tcp.attach a in
  ignore (Tcp.listen ta ~port:80);
  Alcotest.check_raises "in use" (Invalid_argument "Tcp.listen: port 80 in use")
    (fun () -> ignore (Tcp.listen ta ~port:80))

let test_tcp_empty_send () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let done_ = ref false in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:2 in
      let c = Tcp.accept l in
      ignore (Tcp.recv c ~max:10);
      Tcp.close c);
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:2 in
      Tcp.send c Bytes.empty;  (* zero-length send is a no-op *)
      Tcp.send c (Bytes.of_string "x");
      Tcp.close c;
      done_ := true);
  Engine.run_until e (Time.sec 5);
  check_bool "no deadlock on empty send" true !done_

let test_bridge_remove_port () =
  let br = Bridge.create ~name:"br" in
  let p1, h1 = Netdev.pipe ~name_a:"p1" ~name_b:"h1" in
  let p2, h2 = Netdev.pipe ~name_a:"p2" ~name_b:"h2" in
  Netdev.set_up h1 true;
  Netdev.set_up h2 true;
  Bridge.add_port br p1;
  Bridge.add_port br p2;
  let got2 = ref 0 in
  Netdev.set_rx h2 (fun _ -> incr got2);
  Bridge.remove_port br p2;
  Netdev.transmit h1
    (mk_frame ~dst:Macaddr.broadcast ~src:(Macaddr.make_local 1) "x");
  check_int "removed port spared" 0 !got2;
  check_int "one port left" 1 (List.length (Bridge.ports br))

let test_stack_set_ip () =
  let e, s, a, b = two_hosts () in
  Stack.set_ip b (Ipv4addr.of_string "10.0.0.77");
  let rtt = ref None in
  Process.spawn s ~name:"p" (fun () ->
      rtt := Stack.ping a ~dst:(Ipv4addr.of_string "10.0.0.77") ~seq:1 ());
  Engine.run_until e (Time.sec 3);
  check_bool "pings at new address" true (!rtt <> None)

let test_ipv4_fragment_header () =
  let h =
    {
      (Ipv4.make_header
         ~src:(Ipv4addr.of_string "1.2.3.4")
         ~dst:(Ipv4addr.of_string "5.6.7.8")
         ~protocol:Ipv4.Udp ~ttl:64)
      with
      Ipv4.id = 0x77;
      more_fragments = true;
      frag_offset = 2960;
    }
  in
  match Ipv4.decode (Ipv4.encode h ~payload:(Bytes.make 100 'f')) with
  | Some (h', _) ->
      check_int "id" 0x77 h'.Ipv4.id;
      check_bool "mf" true h'.Ipv4.more_fragments;
      check_int "offset" 2960 h'.Ipv4.frag_offset;
      check_bool "is fragment" true (Ipv4.is_fragment h')
  | None -> Alcotest.fail "decode failed"

let test_udp_fragmentation () =
  (* An 8 KiB datagram (the paper's nuttcp buffer size) crosses a
     1500-byte MTU as six fragments and reassembles transparently. *)
  let e, s, a, b = two_hosts () in
  let got = ref None in
  let payload = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
  Process.spawn s ~name:"rx" (fun () ->
      let sock = Stack.udp_bind b ~port:5001 in
      let _, _, data = Stack.udp_recv sock in
      got := Some data);
  Process.spawn s ~name:"tx" (fun () ->
      let sock = Stack.udp_bind a ~port:5002 in
      Stack.udp_send a sock ~dst:(Ipv4addr.of_string "10.0.0.2")
        ~dst_port:5001 payload);
  Engine.run_until e (Time.sec 2);
  (match !got with
  | Some data -> check_bool "8KiB reassembled intact" true (Bytes.equal data payload)
  | None -> Alcotest.fail "datagram lost");
  (* More than one frame crossed the wire for the one datagram. *)
  check_bool "fragmented on the wire" true (Stack.tx_packets a >= 6)

let test_fragment_reassembly_order () =
  (* Drive the receive path with hand-built fragments arriving out of
     order; the stack must still reassemble. *)
  let e, s, _a, b = two_hosts () in
  let got = ref None in
  Process.spawn s ~name:"rx" (fun () ->
      let sock = Stack.udp_bind b ~port:7 in
      let _, _, data = Stack.udp_recv sock in
      got := Some (Bytes.length data));
  let src = Ipv4addr.of_string "10.0.0.1" in
  let dst = Ipv4addr.of_string "10.0.0.2" in
  let datagram =
    Udp.encode { Udp.src_port = 9; dst_port = 7 } ~src ~dst
      ~payload:(Bytes.make 2000 'z')
  in
  let frag ~off ~len ~mf =
    let h =
      {
        (Ipv4.make_header ~src ~dst ~protocol:Ipv4.Udp ~ttl:64) with
        Ipv4.id = 42;
        more_fragments = mf;
        frag_offset = off;
      }
    in
    Ethernet.encode
      { Ethernet.dst = Stack.mac b; src = Macaddr.make_local 1;
        ethertype = Ethernet.Ipv4 }
      ~payload:(Ipv4.encode h ~payload:(Bytes.sub datagram off len))
  in
  let total = Bytes.length datagram in
  (* Inject after the receiver has bound its socket.  Last fragment
     first, then the middle, then the head; offsets must be multiples of
     8, per the wire encoding. *)
  Process.spawn s ~name:"injector" (fun () ->
      Process.sleep (Time.ms 1);
      Netdev.deliver (Stack.dev b) (frag ~off:1480 ~len:(total - 1480) ~mf:false);
      Netdev.deliver (Stack.dev b) (frag ~off:744 ~len:736 ~mf:true);
      Netdev.deliver (Stack.dev b) (frag ~off:0 ~len:744 ~mf:true));
  Engine.run_until e (Time.sec 1);
  check_bool "reassembled out of order" true (!got = Some 2000)

let test_tcp_no_spurious_retransmit () =
  (* Bidirectional pipelined traffic on a lossless link must not trigger
     fast retransmits: data segments repeating an ack number are not
     duplicate ACKs (regression test). *)
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:6379 in
      let c = Tcp.accept l in
      let rec serve () =
        match Tcp.recv c ~max:65536 with
        | Some b ->
            (* Echo a same-sized response, like a pipelined kv server. *)
            Tcp.send c b;
            serve ()
        | None -> ()
      in
      serve ());
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:6379 in
      let burst = Bytes.create 32768 in
      let got = ref 0 in
      for _ = 1 to 20 do
        Tcp.send c burst
      done;
      while !got < 20 * 32768 do
        match Tcp.recv c ~max:65536 with
        | Some b -> got := !got + Bytes.length b
        | None -> got := max_int
      done;
      Tcp.close c);
  Engine.run_until e (Time.sec 30);
  check_int "no retransmissions (client)" 0 (Tcp.retransmissions ta);
  check_int "no retransmissions (server)" 0 (Tcp.retransmissions tb)

let test_capture_ping () =
  let e, s, a, _b = two_hosts () in
  let cap = Capture.attach e (Stack.dev a) in
  Process.spawn s ~name:"p" (fun () ->
      ignore (Stack.ping a ~dst:(Ipv4addr.of_string "10.0.0.2") ~seq:7 ()));
  Engine.run_until e (Time.sec 2);
  let lines = Capture.dump cap in
  let has needle =
    List.exists
      (fun l ->
        let nh = String.length l and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub l i nn = needle || go (i + 1)) in
        nn = 0 || go 0)
      lines
  in
  check_bool "arp request decoded" true (has "ARP who-has 10.0.0.2");
  check_bool "arp reply decoded" true (has "is-at");
  check_bool "echo request decoded" true (has "ICMP echo request");
  check_bool "echo reply decoded" true (has "ICMP echo reply id");
  check_bool "seq shown" true (has "seq 7");
  check_bool "both directions" true
    (List.exists (fun r -> r.Capture.direction = Capture.Tx) (Capture.records cap)
    && List.exists (fun r -> r.Capture.direction = Capture.Rx) (Capture.records cap))

let test_capture_limit_and_detach () =
  let e, s, a, b = two_hosts () in
  let cap = Capture.attach e ~limit:3 (Stack.dev a) in
  Process.spawn s ~name:"p" (fun () ->
      let sock = Stack.udp_bind a ~port:1 in
      ignore (Stack.udp_bind b ~port:2);
      for _ = 1 to 10 do
        Stack.udp_send a sock ~dst:(Ipv4addr.of_string "10.0.0.2") ~dst_port:2
          (Bytes.of_string "x")
      done);
  Engine.run_until e (Time.sec 1);
  check_bool "ring bounded" true (List.length (Capture.records cap) <= 3);
  check_bool "counted all" true (Capture.captured cap >= 10);
  let before = Capture.captured cap in
  Capture.detach cap;
  Process.spawn s ~name:"p2" (fun () ->
      let sock = Stack.udp_bind a ~port:3 in
      Stack.udp_send a sock ~dst:(Ipv4addr.of_string "10.0.0.2") ~dst_port:2
        (Bytes.of_string "y"));
  Engine.run_until e (Time.sec 2);
  check_int "no capture after detach" before (Capture.captured cap)

let test_capture_tcp_summary () =
  let e, s, _a, _b, ta, tb = two_tcp_hosts () in
  let cap = Capture.attach e (Stack.dev _a) in
  Process.spawn s ~name:"server" (fun () ->
      let l = Tcp.listen tb ~port:80 in
      let c = Tcp.accept l in
      ignore (Tcp.recv c ~max:10);
      Tcp.close c);
  Process.spawn s ~name:"client" (fun () ->
      let c = Tcp.connect ta ~dst:(Ipv4addr.of_string "10.0.0.2") ~port:80 in
      Tcp.send c (Bytes.of_string "hi");
      Tcp.close c);
  Engine.run_until e (Time.sec 5);
  let text = String.concat "\n" (Capture.dump cap) in
  let has needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "syn seen" true (has "TCP [S]");
  check_bool "fin seen" true (has "F");
  check_bool "payload segment" true (has "2 bytes")

let suite =
  [
    ("macaddr", `Quick, test_macaddr);
    ("ipv4addr", `Quick, test_ipv4addr);
    ("internet checksum", `Quick, test_checksum);
    ("checksum range checked", `Quick, test_checksum_range_checked);
    ("ethernet roundtrip", `Quick, test_ethernet_roundtrip);
    ("ethernet runt", `Quick, test_ethernet_runt);
    ("arp roundtrip", `Quick, test_arp_roundtrip);
    ("ipv4 roundtrip", `Quick, test_ipv4_roundtrip);
    ("ipv4 corruption detected", `Quick, test_ipv4_corruption_detected);
    ("icmp roundtrip", `Quick, test_icmp_roundtrip);
    ("udp roundtrip", `Quick, test_udp_roundtrip);
    ("udp checksum detects", `Quick, test_udp_checksum_detects);
    ("tcp wire roundtrip", `Quick, test_tcp_wire_roundtrip);
    ("tcp sequence arithmetic", `Quick, test_tcp_seq_arith);
    ("dhcp roundtrip", `Quick, test_dhcp_roundtrip);
    ("dhcp offer fields", `Quick, test_dhcp_offer_fields);
    ("netdev pipe", `Quick, test_netdev_pipe);
    ("netdev down drops", `Quick, test_netdev_down_drops);
    ("netdev mtu", `Quick, test_netdev_mtu);
    ("bridge learning and flood", `Quick, test_bridge_learning_and_flood);
    ("bridge broadcast", `Quick, test_bridge_broadcast);
    ("bridge duplicate port", `Quick, test_bridge_duplicate_port);
    ("stack arp resolution", `Quick, test_stack_arp_resolution);
    ("stack arp unreachable", `Quick, test_stack_arp_unreachable);
    ("stack ping", `Quick, test_stack_ping);
    ("stack ping timeout", `Quick, test_stack_ping_timeout);
    ("stack udp echo", `Quick, test_stack_udp);
    ("stack udp port in use", `Quick, test_stack_udp_port_in_use);
    ("stack no route", `Quick, test_stack_no_route);
    ("tcp connect and echo", `Quick, test_tcp_connect_and_echo);
    ("tcp refused", `Quick, test_tcp_refused);
    ("tcp bulk transfer", `Quick, test_tcp_bulk_transfer);
    ("tcp bidirectional", `Quick, test_tcp_bidirectional);
    ("tcp eof semantics", `Quick, test_tcp_eof_semantics);
    ("tcp send after close", `Quick, test_tcp_send_after_close_raises);
    ("tcp many connections", `Quick, test_tcp_many_connections);
    ("nat udp translation", `Quick, test_nat_udp_translation);
    ("nat tcp translation", `Quick, test_nat_tcp_translation);
    ("tcp accept timeout", `Quick, test_tcp_listener_accept_timeout);
    ("tcp listen port in use", `Quick, test_tcp_listen_port_in_use);
    ("tcp empty send", `Quick, test_tcp_empty_send);
    ("bridge remove port", `Quick, test_bridge_remove_port);
    ("stack set_ip", `Quick, test_stack_set_ip);
    ("ipv4 fragment header roundtrip", `Quick, test_ipv4_fragment_header);
    ("udp fragmentation end to end", `Quick, test_udp_fragmentation);
    ("fragment reassembly out of order", `Quick, test_fragment_reassembly_order);
    ("tcp no spurious retransmit", `Quick, test_tcp_no_spurious_retransmit);
    ("capture decodes ping", `Quick, test_capture_ping);
    ("capture limit and detach", `Quick, test_capture_limit_and_detach);
    ("capture tcp summary", `Quick, test_capture_tcp_summary);
    QCheck_alcotest.to_alcotest prop_eth_roundtrip;
    QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
    QCheck_alcotest.to_alcotest prop_udp_roundtrip;
    QCheck_alcotest.to_alcotest prop_tcp_wire_roundtrip;
  ]
