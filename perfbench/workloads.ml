(* The four benchmark workloads.  Each one builds a fresh testbed
   through [Kite.Scenario], generates its inputs from the seed, drives
   load through public library functions, checks the outputs, and
   exposes the counters the library modules already keep.  All of it is
   simulated and deterministic: only host time varies between runs. *)

open Kite_sim
module Scenario = Kite.Scenario
module Hv = Kite_xen.Hypervisor
module Report = Kite_check.Report

(* ------------------------------------------------------------------ *)
(* Observability layers (run-wide sinks)                               *)
(* ------------------------------------------------------------------ *)

type layer = Check | Trace | Path | Metrics | Flight | Race

let layer_name = function
  | Check -> "check"
  | Trace -> "trace"
  | Path -> "path"
  | Metrics -> "metrics"
  | Flight -> "flight"
  | Race -> "race"

(* Stacking order of the ablation; [blk-observed] arms all of them.
   Fault stays off: its plan changes the simulated workload by design. *)
let all_layers = [ Check; Trace; Path; Metrics; Flight; Race ]

(* Arm [layers] through their public [set_default] sinks, so every
   testbed built afterwards attaches them.  Checker and race detector
   share one findings report. *)
let arm layers =
  let report = Report.create () in
  let on l = List.mem l layers in
  if on Check then
    Kite_check.Check.set_default
      (Some (Kite_check.Check.default_config, report));
  if on Trace then Kite_trace.Trace.set_default (Some (Kite_trace.Trace.sink ()));
  if on Path then Kite_path.Path.set_default (Some (Kite_path.Path.sink ()));
  if on Metrics then
    Kite_metrics.Registry.set_default (Some (Kite_metrics.Registry.sink ()));
  if on Flight then
    Kite_flight.Flight.set_default (Some (Kite_flight.Flight.sink ()));
  if on Race then Kite_race.Race.set_default (Some (Kite_race.Race.sink ~report ()));
  report

let disarm () =
  Kite_check.Check.set_default None;
  Kite_trace.Trace.set_default None;
  Kite_path.Path.set_default None;
  Kite_metrics.Registry.set_default None;
  Kite_flight.Flight.set_default None;
  Kite_race.Race.set_default None

(* ------------------------------------------------------------------ *)
(* What a workload hands the round loop                                *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  latencies : int array;
      (** simulated ns per completed op, from its scheduled instant, in
          completion order *)
  errors : string list;  (** output-correctness violations *)
}

type bed = {
  hv : Hv.t;
  ready : bool ref;  (** frontend/backend handshake complete *)
  prepare : unit -> bool ref;
      (** spawn input set-up that must precede the load (the blk read
          fill); the flag is set once it is done *)
  start : unit -> unit;  (** spawn the load *)
  finished : bool ref;
  counters : unit -> (string * float) list;
      (** cumulative simulated counters, read before and after the load *)
  collect : unit -> outcome;
}

type t = {
  name : string;
  layers : layer list;  (** sinks armed for the untraced rounds *)
  build : seed:int -> scale:float -> unit -> bed;
      (** generates the inputs, then (on [()]) builds the testbed and
          starts the server side; only the second stage is set-up time *)
}

let ops_at ~scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Growable int buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let contents t = Array.sub t.a 0 t.n
end

(* Every [hypercall.*] counter of the machine, under its own name. *)
let hypercalls hv =
  let m = Hv.metrics hv in
  List.filter_map
    (fun name ->
      if String.starts_with ~prefix:"hypercall." name then
        Some (name, float_of_int (Metrics.count m name))
      else None)
    (Metrics.names m)

let busy hv dom =
  float_of_int
    (Metrics.busy (Hv.metrics hv) ("vcpu." ^ dom.Kite_xen.Domain.name))

let sum f l = float_of_int (List.fold_left (fun acc x -> acc + f x) 0 l)

(* ------------------------------------------------------------------ *)
(* Network testbed (udp-rr-64, httpd-swarm)                            *)
(* ------------------------------------------------------------------ *)

let net_counters (s : Scenario.net) () =
  let module Nb = Kite_drivers.Netback in
  let module Nic = Kite_devices.Nic in
  let nb = Nb.instances (Kite_drivers.Net_app.netback s.Scenario.net_app) in
  hypercalls s.Scenario.hv
  @ [
      ("busy.driver_domain", busy s.Scenario.hv s.Scenario.dd);
      ("netback.rx_dropped", sum Nb.rx_dropped nb);
      ( "netfront.tx_dropped",
        float_of_int (Kite_drivers.Netfront.tx_dropped s.Scenario.netfront) );
      ("nic.tx", float_of_int (Nic.tx_packets s.Scenario.server_nic));
      ( "nic.dropped",
        float_of_int
          (Nic.dropped s.Scenario.server_nic + Nic.dropped s.Scenario.client_nic)
      );
      ( "tcp.retransmissions",
        float_of_int
          (Kite_net.Tcp.retransmissions s.Scenario.guest_tcp
          + Kite_net.Tcp.retransmissions s.Scenario.client_tcp) );
    ]

let net_bed ?impair ~seed () =
  let s = Scenario.network ~flavor:Scenario.Kite ~seed ?impair () in
  let ready = ref false in
  Scenario.when_net_ready s (fun () -> ready := true);
  s, ready

(* udp-rr-64: one client, one request outstanding, paced on a fixed
   8k req/s schedule.  Each 64 B payload carries its sequence number
   and seeded bytes; the guest echoes it.  A reply that has not arrived
   by the end of its 125 us slot counts as failed, and a late one is
   discarded when it turns up in a later slot.  A warm round trip takes
   about 25 us and the first one after an idle spell about 100 us (the
   driver domain's wake-up), so a shorter slot would fail requests by
   construction.  The cable adds a seeded 0-2 us jitter per direction:
   without it every round trip takes the same simulated time and no
   latency figure would depend on the seed. *)
module Udp_rr = struct
  let port = 12865
  let payload = 64
  let rate = 8_000
  let requests = 20_000
  let jitter = { Kite_net.Impair.none with Kite_net.Impair.jitter = Time.us 2 }

  let payloads ~seed n =
    let rng = Rng.create (seed lxor 0x75647072) in
    Array.init n (fun i ->
        let b = Bytes.init payload (fun _ -> Char.unsafe_chr (Rng.byte rng)) in
        Bytes.set_int32_be b 0 (Int32.of_int i);
        b)

  let build ~seed ~scale =
    let n = ops_at ~scale requests in
    let inputs = payloads ~seed n in
    fun () ->
    let s, ready = net_bed ~impair:jitter ~seed () in
    let sched = s.Scenario.sched in
    let guest = s.Scenario.guest_stack and client = s.Scenario.client_stack in
    let ssock = Kite_net.Stack.udp_bind guest ~port in
    Process.spawn sched ~daemon:true ~name:"udp-echo" (fun () ->
        let rec loop () =
          let src, sport, data = Kite_net.Stack.udp_recv ssock in
          Kite_net.Stack.udp_send guest ssock ~dst:src ~dst_port:sport data;
          loop ()
        in
        loop ());
    let finished = ref false in
    let lat = Samples.create () in
    let failed = ref 0 and mismatched = ref 0 in
    let csock = Kite_net.Stack.udp_bind client ~port:(port + 1) in
    let send b =
      Kite_net.Stack.udp_send client csock ~dst:s.Scenario.guest_ip
        ~dst_port:port b
    in
    (* One untimed exchange first, so ARP resolution does not make the
       first timed request miss its slot. *)
    let prepare () =
      let warm = ref false in
      Process.spawn sched ~name:"udp-warm" (fun () ->
          let b = Bytes.make payload '\000' in
          Bytes.set_int32_be b 0 (-1l);
          send b;
          ignore (Kite_net.Stack.udp_recv_timeout csock (Time.ms 10));
          warm := true);
      warm
    in
    let start () =
      Process.spawn sched ~name:"udp-rr" (fun () ->
          let engine = Process.engine sched in
          let gap = Time.sec 1 / rate in
          let t0 = Engine.now engine in
          for i = 0 to n - 1 do
            let slot = t0 + (i * gap) in
            let now = Engine.now engine in
            if now < slot then Process.sleep (slot - now);
            send inputs.(i);
            let deadline = slot + gap in
            let rec await () =
              let left = deadline - Engine.now engine in
              if left <= 0 then incr failed
              else
                match Kite_net.Stack.udp_recv_timeout csock left with
                | None -> incr failed
                | Some (_, _, data) ->
                    if
                      Bytes.length data >= 4
                      && Int32.to_int (Bytes.get_int32_be data 0) = i
                    then begin
                      if not (Bytes.equal data inputs.(i)) then incr mismatched;
                      Samples.add lat (Engine.now engine - slot)
                    end
                    else await ()
            in
            await ()
          done;
          Kite_net.Stack.udp_close client csock;
          finished := true)
    in
    let collect () =
      let latencies = Samples.contents lat in
      {
        attempted = n;
        failed = !failed;
        latencies;
        errors =
          (if !mismatched > 0 then
             [ Printf.sprintf "%d echoes differ from the payload sent" !mismatched ]
           else [])
          @
          if Array.length latencies + !failed <> n then
            [ "completed + failed <> attempted" ]
          else [];
      }
    in
    {
      hv = s.Scenario.hv;
      ready;
      prepare;
      start;
      finished;
      counters = net_counters s;
      collect;
    }
end

(* httpd-swarm: sessions of the [web] swarm profile (lognormal sizes,
   keep-alive, churn) against Kite httpd over TCP, with the profile's
   Pareto session arrivals replaced by Poisson ones at the same rate:
   under Pareto bursts the tail latency and hypercalls per request of
   one round depend too much on which seed drew the bursts.  Each
   request is timed from the instant its session issues it. *)
module Httpd_swarm = struct
  let sessions = 3_000

  let build ~seed ~scale =
    let clients = ops_at ~scale sessions in
    fun () ->
    let s, ready = net_bed ~seed () in
    let sched = s.Scenario.sched in
    let engine = Process.engine sched in
    ignore (Kite_apps.Httpd.start s.Scenario.guest_tcp ~sched ());
    let lat = Samples.create () in
    let result = ref None in
    let finished = ref false in
    let driver =
      {
        Kite_swarm.Swarm.d_app = "httpd";
        d_connect =
          (fun () ->
            match
              Kite_apps.Clients.httpd s.Scenario.client_tcp
                ~dst:s.Scenario.guest_ip ()
            with
            | sess ->
                Some
                  {
                    Kite_swarm.Swarm.c_request =
                      (fun ~size ~slow ->
                        let t0 = Engine.now engine in
                        let ok = sess.Kite_apps.Clients.request ~size ~slow in
                        if ok then Samples.add lat (Engine.now engine - t0);
                        ok);
                    c_close = sess.Kite_apps.Clients.close;
                  }
            | exception _ -> None);
      }
    in
    let profile =
      let web = Option.get (Kite_swarm.Profile.find "web") in
      {
        web with
        Kite_swarm.Profile.arrivals =
          Kite_swarm.Profile.Poisson (Kite_swarm.Profile.rate web);
      }
    in
    let start () =
      Kite_swarm.Swarm.run ~sched ~seed ~profile ~clients ~driver
        ~on_done:(fun r ->
          result := Some r;
          finished := true)
        ()
    in
    let collect () =
      let r = Option.get !result in
      let latencies = Samples.contents lat in
      let open Kite_swarm.Swarm in
      {
        attempted = r.sw_offered;
        failed = r.sw_errors;
        latencies;
        errors =
          (if r.sw_completed + r.sw_errors <> r.sw_offered then
             [ "completed + errors <> offered" ]
           else [])
          @
          if Array.length latencies <> r.sw_completed then
            [ "timed requests <> completed requests" ]
          else [];
      }
    in
    {
      hv = s.Scenario.hv;
      ready;
      prepare = (fun () -> ref true);
      start;
      finished;
      counters = net_counters s;
      collect;
    }
end

(* ------------------------------------------------------------------ *)
(* Storage testbed (blk-mixed, blk-observed)                           *)
(* ------------------------------------------------------------------ *)

(* An open loop of Poisson arrivals through blkfront -> blkback ->
   NVMe: 70 % writes, 30 % reads; 90 % 4 KiB, 10 % 128 KiB (indirect).
   Sectors are drawn from the seed over a 64 MiB span: reads hit the
   lower half, filled at set-up with a seeded pattern and compared byte
   for byte; writes hit the disjoint upper half. *)
module Blk_mixed = struct
  let iops = 10_000.0
  let requests = 20_000
  let sector = Kite_drivers.Blkfront.sector_size
  let half = 32 * 1024 * 1024 / sector
  let small = 4096 / sector
  let large = 128 * 1024 / sector

  type op = { write : bool; at : int; count : int }

  (* The mix is exact in every round (op [i] is a write when
     [i mod 10 < 7] and large when [i / 10 mod 10 = 0]), then shuffled
     by the seed: seeds differ in order, sectors and arrival instants,
     not in how much work a round holds. *)
  let ops ~seed n =
    let rng = Rng.create (seed lxor 0x626c6b6d) in
    let a =
      Array.init n (fun i ->
          let write = i mod 10 < 7 in
          let count = if i / 10 mod 10 = 0 then large else small in
          let base = if write then half else 0 in
          { write; at = base + (count * Rng.int rng (half / count)); count })
    in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

  (* Byte [j] of sector [s] in the read region. *)
  let pattern ~seed s j = Char.unsafe_chr (((s * 131) + (j * 7) + seed) land 0xff)

  let matches ~seed ~at data =
    let ok = ref true in
    for k = 0 to Bytes.length data - 1 do
      if Bytes.unsafe_get data k <> pattern ~seed (at + (k / sector)) (k mod sector)
      then ok := false
    done;
    !ok

  let build ~seed ~scale =
    let n = ops_at ~scale requests in
    let inputs = ops ~seed n in
    fun () ->
    let b = Scenario.storage ~flavor:Scenario.Kite ~seed () in
    let bf = b.Scenario.blkfront in
    let ready = ref false in
    Scenario.when_blk_ready b (fun () -> ready := true);
    let prepare () =
      let filled = ref false in
      Hv.spawn b.Scenario.bhv b.Scenario.bdomu ~name:"fill" (fun () ->
          let chunk = large in
          for c = 0 to (half / chunk) - 1 do
            let at = c * chunk in
            Kite_drivers.Blkfront.write bf ~sector:at
              (Bytes.init (chunk * sector) (fun k ->
                   pattern ~seed (at + (k / sector)) (k mod sector)))
          done;
          filled := true);
      filled
    in
    let payload count = Bytes.make (count * sector) (Char.unsafe_chr (seed land 0xff)) in
    let small_buf = payload small and large_buf = payload large in
    let engine = Process.engine b.Scenario.bsched in
    let lat = Samples.create () in
    let mismatched = ref 0 and io_errors = ref 0 in
    let result = ref None in
    let finished = ref false in
    let fire seq =
      let op = inputs.(seq - 1) in
      let t0 = Engine.now engine in
      match
        if op.write then
          Kite_drivers.Blkfront.write bf ~sector:op.at
            (if op.count = small then small_buf else large_buf)
        else if
          not (matches ~seed ~at:op.at
                 (Kite_drivers.Blkfront.read bf ~sector:op.at ~count:op.count))
        then incr mismatched
      with
      | () ->
          Samples.add lat (Engine.now engine - t0);
          true
      | exception Kite_drivers.Blkfront.Io_error _ ->
          incr io_errors;
          false
    in
    let start () =
      Kite_bench_tools.Openloop.run ~sched:b.Scenario.bsched ~seed ~rate:iops
        ~duration:(Time.sec 3600) ~stop_after:n ~fire
        ~on_done:(fun r ->
          result := Some r;
          finished := true)
        ()
    in
    let counters () =
      let module Bb = Kite_drivers.Blkback in
      let bb = Bb.instances (Kite_drivers.Blk_app.blkback b.Scenario.blk_app) in
      let nvme = b.Scenario.nvme in
      hypercalls b.Scenario.bhv
      @ [
          ("busy.driver_domain", busy b.Scenario.bhv b.Scenario.bdd);
          ("blkback.requests", sum Bb.requests_served bb);
          ("blkback.segments", sum Bb.segments_served bb);
          ("blkback.indirect", sum Bb.indirect_requests bb);
          ( "grant.maps",
            float_of_int
              (Kite_xen.Grant_table.map_count b.Scenario.bctx.Kite_drivers.Xen_ctx.gt)
          );
          ( "blkfront.resubmits",
            float_of_int (Kite_drivers.Blkfront.resubmits bf) );
          ( "nvme.ops",
            float_of_int
              (Kite_devices.Nvme.reads nvme + Kite_devices.Nvme.writes nvme) );
        ]
    in
    let collect () =
      let r = Option.get !result in
      let latencies = Samples.contents lat in
      {
        attempted = r.Kite_bench_tools.Openloop.offered;
        failed = r.Kite_bench_tools.Openloop.offered - r.Kite_bench_tools.Openloop.completed;
        latencies;
        errors =
          (if !mismatched > 0 then
             [ Printf.sprintf "%d reads differ from the set-up fill" !mismatched ]
           else [])
          @ (if r.Kite_bench_tools.Openloop.offered <> n then
               [ "offered <> requested ops" ]
             else [])
          @
          if Array.length latencies + !io_errors <> n then
            [ "completed + failed <> attempted" ]
          else [];
      }
    in
    { hv = b.Scenario.bhv; ready; prepare; start; finished; counters; collect }
end

let all =
  [
    { name = "udp-rr-64"; layers = []; build = Udp_rr.build };
    { name = "blk-mixed"; layers = []; build = Blk_mixed.build };
    { name = "httpd-swarm"; layers = []; build = Httpd_swarm.build };
    { name = "blk-observed"; layers = all_layers; build = Blk_mixed.build };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
