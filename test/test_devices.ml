open Kite_sim
open Kite_devices

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup () =
  let e = Engine.create () in
  let s = Process.scheduler e in
  let m = Metrics.create () in
  (e, s, m)

(* ------------------------------------------------------------------ *)
(* NIC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_nic_delivery () =
  let e, s, m = setup () in
  let a = Nic.create s m ~name:"a" () in
  let b = Nic.create s m ~name:"b" () in
  Nic.connect a b ~propagation:(Time.ns 100);
  let got = ref [] in
  Nic.set_rx_handler b (fun frame -> got := Bytes.to_string frame :: !got);
  Process.spawn s ~name:"tx" (fun () ->
      Nic.transmit a (Bytes.of_string "frame1");
      Nic.transmit a (Bytes.of_string "frame2"));
  Engine.run_until e (Time.ms 1);
  Alcotest.(check (list string))
    "in order" [ "frame1"; "frame2" ] (List.rev !got);
  check_int "tx count" 2 (Nic.tx_packets a);
  check_int "rx count" 2 (Nic.rx_packets b);
  check_int "tx bytes" 12 (Nic.tx_bytes a)

let test_nic_serialization_rate () =
  (* A 1250-byte frame at 10 Gbps takes 1 us on the wire. *)
  let e, s, m = setup () in
  let a = Nic.create s m ~name:"a" ~per_packet:0 () in
  let b = Nic.create s m ~name:"b" () in
  Nic.connect a b ~propagation:0;
  let arrival = ref 0 in
  Nic.set_rx_handler b (fun _ -> arrival := Engine.now e);
  Process.spawn s ~name:"tx" (fun () ->
      Nic.transmit a (Bytes.create 1250));
  Engine.run_until e (Time.ms 1);
  check_int "1us serialization" (Time.us 1) !arrival

let test_nic_full_duplex () =
  let e, s, m = setup () in
  let a = Nic.create s m ~name:"a" () in
  let b = Nic.create s m ~name:"b" () in
  Nic.connect a b ~propagation:0;
  let a_got = ref 0 and b_got = ref 0 in
  Nic.set_rx_handler a (fun _ -> incr a_got);
  Nic.set_rx_handler b (fun _ -> incr b_got);
  Process.spawn s ~name:"a-tx" (fun () -> Nic.transmit a (Bytes.create 100));
  Process.spawn s ~name:"b-tx" (fun () -> Nic.transmit b (Bytes.create 100));
  Engine.run_until e (Time.ms 1);
  check_int "a received" 1 !a_got;
  check_int "b received" 1 !b_got

let test_nic_drops_when_full () =
  let e, s, m = setup () in
  let a = Nic.create s m ~name:"a" ~queue_limit:4 () in
  let b = Nic.create s m ~name:"b" () in
  Nic.connect a b ~propagation:0;
  Process.spawn s ~name:"burst" (fun () ->
      (* Burst far beyond the queue limit without yielding. *)
      for _ = 1 to 100 do
        Nic.transmit a (Bytes.create 1500)
      done);
  Engine.run_until e (Time.sec 1);
  check_bool "some dropped" true (Nic.dropped a > 0);
  check_int "conservation" 100 (Nic.tx_packets a + Nic.dropped a);
  check_int "peer got the transmitted ones" (Nic.tx_packets a)
    (Nic.rx_packets b)

let test_nic_double_connect () =
  let _, s, m = setup () in
  let a = Nic.create s m ~name:"a" () in
  let b = Nic.create s m ~name:"b" () in
  let c = Nic.create s m ~name:"c" () in
  Nic.connect a b ~propagation:0;
  Alcotest.check_raises "wired" (Invalid_argument "Nic.connect: NIC already wired")
    (fun () -> Nic.connect a c ~propagation:0)

let test_nic_throughput_cap () =
  (* Offered 2x line rate: delivered throughput within the run window must
     not exceed the line rate. *)
  let e, s, m = setup () in
  let a = Nic.create s m ~name:"a" ~line_rate_gbps:1.0 ~per_packet:0 ~queue_limit:1_000_000 () in
  let b = Nic.create s m ~name:"b" () in
  Nic.connect a b ~propagation:0;
  Nic.set_rx_handler b (fun _ -> ());
  Process.spawn s ~name:"src" (fun () ->
      (* 2 Gbps offered: a 1250-byte frame every 5 us. *)
      for _ = 1 to 2000 do
        Nic.transmit a (Bytes.create 1250);
        Nic.transmit a (Bytes.create 1250);
        Process.sleep (Time.us 10)
      done);
  Engine.run_until e (Time.ms 20);
  let gbps =
    float_of_int (Nic.rx_bytes b * 8) /. Time.to_sec_f (Time.ms 20) /. 1e9
  in
  check_bool "capped at line rate" true (gbps <= 1.01);
  check_bool "saturated" true (gbps > 0.95)

(* ------------------------------------------------------------------ *)
(* NVMe                                                                *)
(* ------------------------------------------------------------------ *)

let test_nvme_rw_roundtrip () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" () in
  let ok = ref false in
  Process.spawn s ~name:"io" (fun () ->
      let data = Bytes.make 1024 'z' in
      Bytes.set data 0 'a';
      Bytes.set data 1023 'b';
      Nvme.write d ~sector:100 data;
      let back = Nvme.read d ~sector:100 ~count:2 in
      ok := Bytes.equal back data);
  Engine.run e;
  check_bool "roundtrip" true !ok;
  check_int "reads" 1 (Nvme.reads d);
  check_int "writes" 1 (Nvme.writes d);
  check_int "bytes" 1024 (Nvme.bytes_written d)

let test_nvme_unwritten_zero () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" () in
  let ok = ref false in
  Process.spawn s ~name:"io" (fun () ->
      let b = Nvme.read d ~sector:12345 ~count:1 in
      ok := Bytes.equal b (Bytes.make 512 '\000'));
  Engine.run e;
  check_bool "zeroes" true !ok

let test_nvme_partial_overwrite () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" () in
  let result = ref "" in
  Process.spawn s ~name:"io" (fun () ->
      Nvme.write d ~sector:0 (Bytes.make 1024 'a');
      Nvme.write d ~sector:1 (Bytes.make 512 'b');
      let back = Nvme.read d ~sector:0 ~count:2 in
      result :=
        Printf.sprintf "%c%c" (Bytes.get back 0) (Bytes.get back 512));
  Engine.run e;
  Alcotest.(check string) "second sector overwritten" "ab" !result

let test_nvme_latency () =
  let e, s, m = setup () in
  let d =
    Nvme.create s m ~name:"ssd" ~read_base:(Time.us 25) ~cmd_overhead:0
      ~bandwidth_mbps:1000.0 ()
  in
  let took = ref 0 in
  Process.spawn s ~name:"io" (fun () ->
      let t0 = Engine.now e in
      ignore (Nvme.read d ~sector:0 ~count:8);  (* 4 KiB *)
      took := Engine.now e - t0);
  Engine.run e;
  (* 25 us base + 4096 B / 1 GB/s = 4.096 us transfer. *)
  check_int "service time" (Time.us 25 + 4096) !took

let test_nvme_queue_parallelism () =
  (* Two concurrent reads at queue depth 2 overlap; at depth 1 serialize. *)
  let run depth =
    let e, s, m = setup () in
    let d =
      Nvme.create s m ~name:"ssd" ~queue_depth:depth
        ~read_base:(Time.us 100) ~bandwidth_mbps:1e9 ()
    in
    let finished = ref 0 in
    for _ = 1 to 2 do
      Process.spawn s ~name:"io" (fun () ->
          ignore (Nvme.read d ~sector:0 ~count:1);
          finished := Engine.now e)
    done;
    Engine.run e;
    !finished
  in
  check_bool "depth2 overlaps" true (run 2 < run 1)

let test_nvme_out_of_range () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" ~capacity_sectors:100 () in
  let raised = ref false in
  Process.spawn s ~name:"io" (fun () ->
      try ignore (Nvme.read d ~sector:99 ~count:2)
      with Nvme.Out_of_range _ -> raised := true);
  Engine.run e;
  check_bool "rejected" true !raised

let test_nvme_unaligned_write () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" () in
  let raised = ref false in
  Process.spawn s ~name:"io" (fun () ->
      try Nvme.write d ~sector:0 (Bytes.create 100)
      with Invalid_argument _ -> raised := true);
  Engine.run e;
  check_bool "rejected" true !raised

let test_nvme_flush () =
  let e, s, m = setup () in
  let d = Nvme.create s m ~name:"ssd" () in
  let done_ = ref false in
  Process.spawn s ~name:"io" (fun () ->
      Nvme.flush d;
      done_ := true);
  Engine.run e;
  check_bool "flush completes" true !done_

(* Random write/read sequences against a reference map from sector to
   its 512 bytes.  Writes of 1-256 sectors land at unaligned sectors in a
   small window, so they overlap and straddle the device's 4 KiB store
   chunks; reads span written, never-written and mixed ranges.  Every
   write's input buffer and every read's result is scribbled on once the
   call returns: neither may reach a later read. *)
type nvme_op = W of int * int * int | R of int * int

let prop_nvme_matches_reference =
  let sec = Nvme.sector_size in
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          ( 1,
            map3 (fun s n k -> W (s, n, k)) (0 -- 1023) (1 -- 256) (0 -- 255)
          );
          (1, map2 (fun s n -> R (s, n)) (0 -- 1535) (1 -- 256));
        ])
  in
  let show = function
    | W (s, n, k) -> Printf.sprintf "W(%d,%d,%d)" s n k
    | R (s, n) -> Printf.sprintf "R(%d,%d)" s n
  in
  QCheck.Test.make ~name:"nvme matches a sector map" ~count:60
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map show l))
       QCheck.Gen.(list_size (1 -- 24) gen_op))
    (fun ops ->
      let e, s, m = setup () in
      let d = Nvme.create s m ~name:"ssd" () in
      let model = Hashtbl.create 64 in
      let expect sector =
        match Hashtbl.find_opt model sector with
        | Some b -> b
        | None -> String.make sec '\000'
      in
      let ok = ref true and ran = ref false in
      Process.spawn s ~name:"io" (fun () ->
          List.iter
            (function
              | W (sector, n, k) ->
                  let data =
                    Bytes.init (n * sec) (fun i ->
                        Char.chr (((i * 13) + k) land 0xff))
                  in
                  Nvme.write d ~sector data;
                  for j = 0 to n - 1 do
                    Hashtbl.replace model (sector + j)
                      (Bytes.sub_string data (j * sec) sec)
                  done;
                  Bytes.fill data 0 (Bytes.length data) '\xee'
              | R (sector, n) ->
                  let back = Nvme.read d ~sector ~count:n in
                  for j = 0 to n - 1 do
                    let got = Bytes.sub_string back (j * sec) sec in
                    if got <> expect (sector + j) then ok := false
                  done;
                  Bytes.fill back 0 (Bytes.length back) '\xdd')
            ops;
          ran := true);
      Engine.run e;
      !ran && !ok)

(* ------------------------------------------------------------------ *)
(* PCI                                                                 *)
(* ------------------------------------------------------------------ *)

let dom ~id ~name ~kind =
  { Kite_xen.Domain.id; name; kind; vcpus = 1; mem_mb = 512 }

let test_pci_passthrough_flow () =
  let _, s, m = setup () in
  let pci = Pci.create () in
  let nic = Nic.create s m ~name:"eth0" () in
  Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
  let dd = dom ~id:1 ~name:"netdd" ~kind:Kite_xen.Domain.Driver_domain in
  (* Attach before assignable-add fails. *)
  (try
     ignore (Pci.attach pci ~bdf:"01:00.0" dd);
     Alcotest.fail "expected Pci_error (not assignable)"
   with Pci.Pci_error _ -> ());
  Pci.assignable_add pci ~bdf:"01:00.0";
  (match Pci.attach pci ~bdf:"01:00.0" dd with
  | Pci.Nic n -> Alcotest.(check string) "same device" "eth0" (Nic.name n)
  | Pci.Nvme _ -> Alcotest.fail "wrong device");
  check_bool "owner" true (Pci.owner pci ~bdf:"01:00.0" = Some dd);
  (* Double attach fails. *)
  let other = dom ~id:2 ~name:"other" ~kind:Kite_xen.Domain.Dom_u in
  (try
     ignore (Pci.attach pci ~bdf:"01:00.0" other);
     Alcotest.fail "expected Pci_error (already attached)"
   with Pci.Pci_error _ -> ());
  Pci.detach pci ~bdf:"01:00.0";
  check_bool "released" true (Pci.owner pci ~bdf:"01:00.0" = None)

let test_pci_iommu_required () =
  let _, s, m = setup () in
  let pci = Pci.create ~iommu:false () in
  let nvme = Nvme.create s m ~name:"ssd" () in
  Pci.register pci ~bdf:"02:00.0" (Pci.Nvme nvme);
  Pci.assignable_add pci ~bdf:"02:00.0";
  let dd = dom ~id:1 ~name:"stor" ~kind:Kite_xen.Domain.Driver_domain in
  (try
     ignore (Pci.attach pci ~bdf:"02:00.0" dd);
     Alcotest.fail "expected Pci_error (no IOMMU)"
   with Pci.Pci_error _ -> ());
  (* Dom0 may still take it. *)
  let d0 = dom ~id:0 ~name:"Dom0" ~kind:Kite_xen.Domain.Dom0 in
  ignore (Pci.attach pci ~bdf:"02:00.0" d0)

let test_pci_unknown_and_duplicate () =
  let _, s, m = setup () in
  let pci = Pci.create () in
  (try
     Pci.assignable_add pci ~bdf:"ff:00.0";
     Alcotest.fail "expected Pci_error (unknown)"
   with Pci.Pci_error _ -> ());
  let nic = Nic.create s m ~name:"eth0" () in
  Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
  (try
     Pci.register pci ~bdf:"01:00.0" (Pci.Nic nic);
     Alcotest.fail "expected Pci_error (duplicate)"
   with Pci.Pci_error _ -> ());
  check_int "inventory" 1 (List.length (Pci.devices pci))

let suite =
  [
    ("nic delivery", `Quick, test_nic_delivery);
    ("nic serialization rate", `Quick, test_nic_serialization_rate);
    ("nic full duplex", `Quick, test_nic_full_duplex);
    ("nic drops when full", `Quick, test_nic_drops_when_full);
    ("nic double connect", `Quick, test_nic_double_connect);
    ("nic throughput cap", `Quick, test_nic_throughput_cap);
    ("nvme rw roundtrip", `Quick, test_nvme_rw_roundtrip);
    ("nvme unwritten zero", `Quick, test_nvme_unwritten_zero);
    ("nvme partial overwrite", `Quick, test_nvme_partial_overwrite);
    ("nvme latency model", `Quick, test_nvme_latency);
    ("nvme queue parallelism", `Quick, test_nvme_queue_parallelism);
    ("nvme out of range", `Quick, test_nvme_out_of_range);
    ("nvme unaligned write", `Quick, test_nvme_unaligned_write);
    ("nvme flush", `Quick, test_nvme_flush);
    QCheck_alcotest.to_alcotest prop_nvme_matches_reference;
    ("pci passthrough flow", `Quick, test_pci_passthrough_flow);
    ("pci iommu required", `Quick, test_pci_iommu_required);
    ("pci unknown and duplicate", `Quick, test_pci_unknown_and_duplicate);
  ]
