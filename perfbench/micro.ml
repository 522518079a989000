(* Per-layer microbenchmarks: host ns and exact allocated words per call
   of one public function of a layer.  Each case builds its fixture
   once and returns a batch closure making [calls] calls. *)

open Kite_sim
module Xen = Kite_xen

type case = {
  prefix : string;  (** metric prefix, e.g. "sim.engine" *)
  per : string;  (** unit of one call, e.g. "event" *)
  calls : int;
  batch : unit -> unit -> unit;  (** fixture -> one batch *)
}

(* [Engine.schedule_at] + [run] over 1000 timed events. *)
let engine =
  {
    prefix = "sim.engine";
    per = "event";
    calls = 1000;
    batch =
      (fun () () ->
        let e = Engine.create () in
        for i = 1 to 1000 do
          ignore (Engine.schedule_at e i ignore)
        done;
        Engine.run e);
  }

(* One process sleeping 1000 times: every sleep is a suspend plus a
   resume through the engine. *)
let process =
  {
    prefix = "sim.process";
    per = "switch";
    calls = 1000;
    batch =
      (fun () () ->
        let e = Engine.create () in
        let sched = Process.scheduler e in
        Process.spawn sched ~name:"micro" (fun () ->
            for _ = 1 to 1000 do
              Process.sleep 1
            done);
        Engine.run e);
  }

(* Request/response pairs through a 32-slot shared ring, in full-ring
   batches. *)
let ring =
  {
    prefix = "xen.ring";
    per = "op";
    calls = 32 * 32;
    batch =
      (fun () ->
        let r : (int, int) Xen.Ring.t = Xen.Ring.create ~order:5 in
        fun () ->
          for _ = 1 to 32 do
            for i = 1 to 32 do
              Xen.Ring.push_request r i
            done;
            ignore (Xen.Ring.push_requests_and_check_notify r);
            let rec drain () =
              match Xen.Ring.take_request r with
              | Some v ->
                  Xen.Ring.push_response r v;
                  drain ()
              | None -> ()
            in
            drain ();
            ignore (Xen.Ring.push_responses_and_check_notify r);
            let rec reap () =
              match Xen.Ring.take_response r with
              | Some _ -> reap ()
              | None -> ()
            in
            reap ()
          done);
  }

(* 4 KiB [Grant_table.copy_from_granted] in a process episode: each
   copy charges its hypercall, so it also suspends and resumes. *)
let grant =
  {
    prefix = "xen.grant";
    per = "copy";
    calls = 256;
    batch =
      (fun () ->
        let hv = Xen.Hypervisor.create () in
        let dom name kind =
          Xen.Hypervisor.create_domain hv ~name ~kind ~vcpus:1 ~mem_mb:128
        in
        let guest = dom "guest" Xen.Domain.Dom_u in
        let backend = dom "backend" Xen.Domain.Driver_domain in
        let gt = Xen.Grant_table.create hv in
        let gref =
          Xen.Grant_table.grant_access gt ~granter:guest ~grantee:backend
            ~page:(Xen.Page.alloc ()) ~writable:false
        in
        fun () ->
          Xen.Hypervisor.spawn hv backend ~name:"micro" (fun () ->
              for _ = 1 to 256 do
                ignore
                  (Xen.Grant_table.copy_from_granted gt ~caller:backend gref
                     ~off:0 ~len:Xen.Page.size)
              done);
          Xen.Hypervisor.run hv);
  }

(* [Xenstore.write] under a directory with a watch armed, so every
   write also fires the watch. *)
let xenstore =
  {
    prefix = "xen.xenstore";
    per = "write";
    calls = 64;
    batch =
      (fun () ->
        let xs = Xen.Xenstore.create () in
        let fired = ref 0 in
        ignore
          (Xen.Xenstore.watch xs ~path:"/backend" ~token:"t"
             (fun ~path:_ ~token:_ -> incr fired));
        let paths = Array.init 64 (Printf.sprintf "/backend/vif/%d") in
        fun () ->
          Array.iter (fun path -> Xen.Xenstore.write xs ~domid:0 ~path "x") paths);
  }

(* [Tcp_wire.encode] of a full 1460 B segment, checksum included. *)
let tcp_wire =
  {
    prefix = "net.tcp_wire";
    per = "segment";
    calls = 100;
    batch =
      (fun () ->
        let payload = Bytes.make 1460 'x' in
        let src = Kite_net.Ipv4addr.of_string "10.0.0.1" in
        let dst = Kite_net.Ipv4addr.of_string "10.0.0.2" in
        let h =
          {
            Kite_net.Tcp_wire.src_port = 1;
            dst_port = 2;
            seq = 42;
            ack_num = 41;
            flags = Kite_net.Tcp_wire.no_flags;
            window = 65536;
          }
        in
        fun () ->
          for _ = 1 to 100 do
            ignore (Kite_net.Tcp_wire.encode h ~src ~dst ~payload)
          done);
  }

let cases = [ engine; process; ring; grant; xenstore; tcp_wire ]

(* Median batch time over [budget_ns] of repeated batches, after one
   warm-up batch; words from one batch, which are exact. *)
let measure ~budget_ns c =
  let run = c.batch () in
  run ();
  let w0 = Probe.words () in
  run ();
  let words = (Probe.words () -. w0) /. float_of_int c.calls in
  let t_end = Probe.now_ns () + budget_ns in
  let rec loop acc =
    let t0 = Probe.now_ns () in
    run ();
    let t1 = Probe.now_ns () in
    let acc = float_of_int (t1 - t0) :: acc in
    if t1 < t_end || List.length acc < 5 then loop acc else acc
  in
  let ns = Probe.median (loop []) /. float_of_int c.calls in
  [
    (Printf.sprintf "%s.ns_per_%s" c.prefix c.per, ns, "ns");
    (Printf.sprintf "%s.words_per_%s" c.prefix c.per, words, "words");
  ]

let run_all ~budget_ns =
  List.concat_map
    (fun c -> Probe.span ~cat:"micro" c.prefix (fun () -> measure ~budget_ns c))
    cases
