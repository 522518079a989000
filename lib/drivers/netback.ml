open Kite_sim
open Kite_xen
open Kite_net

let rx_backlog_limit = 4096

(* One negotiated Tx/Rx ring pair with its own event channel, backlog
   and worker threads.  Legacy frontends get exactly one of these wired
   to the flat xenstore keys. *)
type queue = {
  qid : int;
  tx_ring : Netchannel.tx_ring;
  rx_ring : Netchannel.rx_ring;
  qport : Event_channel.port;
  backlog : Bytes.t Queue.t;  (* frames from the bridge awaiting Rx slots *)
  pusher_wake : Condition.t;
  soft_wake : Condition.t;
  mutable q_tx_packets : int;
  mutable q_rx_packets : int;
  mutable spurious : int;  (* consecutive wakeups that drained nothing *)
}

type instance = {
  ctx : Xen_ctx.t;
  domain : Domain.t;  (* the driver domain *)
  frontend : Domain.t;
  devid : int;
  ov : Overheads.t;
  queues : queue array;
  mq_mode : bool;
  mutable vif : Netdev.t option;
  mutable last_activity : Time.t;
  retries : int;
  retry_backoff : Time.span;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable rx_dropped : int;
  mutable io_retries : int;
  mutable tx_failed : int;
  mutable m_txbatch : Kite_metrics.Registry.histogram option;
  mutable stop : bool;
  bpath : string;
  guard : Quarantine.t;
  (* tx ids currently being served, across every queue of the device:
     id -> qid.  Detects in-flight replay and cross-queue slot reuse. *)
  inflight : (int, int) Hashtbl.t;
  mutable state_guard : Xenstore.watch_id option;
}

type t = {
  sctx : Xen_ctx.t;
  sdomain : Domain.t;
  soverheads : Overheads.t;
  sretries : int;
  sretry_backoff : Time.span;
  smax_queues : int;
  smax_ring_page_order : int;
  on_vif : frontend:int -> devid:int -> Netdev.t -> unit;
  mutable insts : instance list;
  mutable rejected : (int * int) list;
      (* (frontend domid, devid) refused at the handshake *)
  mutable known : (int * int) list;  (* (frontend domid, devid) seen *)
  new_frontend : (int * int) Mailbox.t;
  mutable stopping : bool;
  mutable watch_id : Xenstore.watch_id option;
}

let instances t = t.insts
let rejected t = t.rejected
let vif i = match i.vif with Some v -> v | None -> assert false
let frontend_domid i = i.frontend.Domain.id
let devid i = i.devid
let quarantine i = i.guard
let tx_packets i = i.tx_packets
let rx_packets i = i.rx_packets
let tx_bytes i = i.tx_bytes
let rx_bytes i = i.rx_bytes
let rx_dropped i = i.rx_dropped
let io_retries i = i.io_retries
let tx_failed i = i.tx_failed
let num_queues i = Array.length i.queues

let hv i = i.ctx.Xen_ctx.hv
let trace i = i.ctx.Xen_ctx.trace
let vif_name i = Printf.sprintf "vif%d.%d" i.frontend.Domain.id i.devid

(* Happens-before channel for the per-queue Rx backlog: the VIF transmit
   callback releases before pushing, the softirq worker acquires after
   popping, so frame contents written by the bridge are ordered before
   the grant-copy that reads them. *)
let backlog_chan i q =
  Printf.sprintf "netback:%s.q%d.backlog" (vif_name i) q.qid

(* Post-crash, the ring is dead and the channel torn down; a late batch
   must not kick it. *)
let notify_frontend i q =
  if not i.stop then
    try Event_channel.notify i.ctx.Xen_ctx.ec q.qport ~from:i.domain
    with Event_channel.Evtchn_error _ -> ()

(* Handler-to-thread wakeup cost: cold after an idle period, warm while
   traffic flows (§3.2's motivation for fast handlers). *)
let charge_wake i =
  let now = Hypervisor.now (hv i) in
  let idle = now - i.last_activity in
  let tier, cost =
    if idle > i.ov.Overheads.warm_window then ("cold", i.ov.Overheads.wake_cold)
    else if idle > i.ov.Overheads.busy_window then
      ("warm", i.ov.Overheads.wake_warm)
    else ("busy", i.ov.Overheads.wake_busy)
  in
  (match trace i with
  | Some tr ->
      Kite_trace.Trace.driver tr ~at:now ~domain:i.domain.Domain.name
        ~name:"netback.wake"
        ~args:
          [
            ("vif", vif_name i); ("tier", tier); ("idle_ns", string_of_int idle);
          ]
  | None -> ());
  Hypervisor.cpu_work (hv i) i.domain cost

let touch i = i.last_activity <- Hypervisor.now (hv i)

(* ------------------------------------------------------------------ *)
(* Trust boundary: every index, reference, length and state the
   frontend publishes is attacker-controlled.  Violations become typed
   Guest_faults feeding the per-device quarantine ladder.              *)
(* ------------------------------------------------------------------ *)

let storm_threshold = 64

(* Retire the device's worker threads and close its channels; the
   xenbus state is left alone.  Idempotent; the teardown half of both
   [stop] and the Detach/Offline quarantine actions.  Process context. *)
let detach_instance i =
  if not i.stop then begin
    i.stop <- true;
    (match i.state_guard with
    | Some id ->
        Xenbus.unwatch i.ctx.Xen_ctx.xb id;
        i.state_guard <- None
    | None -> ());
    Array.iter
      (fun q ->
        Condition.broadcast q.pusher_wake;
        Condition.broadcast q.soft_wake;
        Event_channel.close i.ctx.Xen_ctx.ec q.qport)
      i.queues
  end

(* Detach plus evict: drive our own directory to Closed so the
   toolstack and any honest tooling see the device is gone for good. *)
let offline_instance i =
  detach_instance i;
  let xb = i.ctx.Xen_ctx.xb in
  Xenbus.switch_state xb i.domain ~path:i.bpath Xenbus.Closing;
  Xenbus.switch_state xb i.domain ~path:i.bpath Xenbus.Closed

let apply_quarantine i action =
  let name = Quarantine.action_name action in
  Xen_ctx.quarantined i.ctx ~domid:i.frontend.Domain.id ~device:(vif_name i)
    ~action:name ~faults:(Quarantine.faults i.guard);
  Xen_ctx.note i.ctx ~key:(vif_name i) ("netback.quarantine." ^ name);
  match action with
  | Quarantine.Throttle -> ()  (* workers consult the level per wakeup *)
  | Quarantine.Detach -> detach_instance i
  | Quarantine.Offline -> offline_instance i

(* One rejected attack primitive: checker finding, flight incident,
   then whatever escalation the fault count has earned.  Process
   context (Offline writes xenbus states). *)
let record_fault i ~attack ~detail =
  Xen_ctx.guest_fault i.ctx ~domid:i.frontend.Domain.id ~device:(vif_name i)
    ~attack ~detail ();
  Xen_ctx.note i.ctx ~key:(vif_name i)
    ("netback.guest-fault." ^ Guest_fault.slug attack);
  match Quarantine.note i.guard attack with
  | Some action -> apply_quarantine i action
  | None -> ()

let throttle_penalty i =
  if Quarantine.throttled i.guard && not i.stop then
    Process.sleep (Quarantine.policy i.guard).Quarantine.throttle_penalty

(* The monolithic-kernel backend's extra per-packet grant-table hypercalls
   (see Overheads): recorded at zero duration, profile-only. *)
let kernel_grant_ops i n =
  match trace i with
  | None -> ()
  | Some tr ->
      let at = Hypervisor.now (hv i) in
      for _ = 1 to n do
        Kite_trace.Trace.charge tr ~at ~domain:i.domain.Domain.name
          ~op:"hypercall.grant_op.kernel" ~cost:0
      done

(* Guest -> wire.  Drains Tx requests, grant-copies the whole batch out
   of guest pages in one hypercall, hands the frames to the VIF (hence
   the bridge).  One pusher per queue. *)
let pusher i q () =
  (* Everything in a Tx descriptor is frontend-supplied; check it all
     before the grant table or the wire sees any of it. *)
  let validate req =
    let open Guest_fault in
    let fid = i.frontend.Domain.id in
    let len = req.Netchannel.tx_len in
    let gref = req.Netchannel.tx_gref in
    if len < 0 || len > Page.size then
      Some (Bad_length, Printf.sprintf "tx len %d outside [0,%d]" len Page.size)
    else
      match Grant_table.owner i.ctx.Xen_ctx.gt gref with
      | None -> Some (Bad_gref, Printf.sprintf "tx gref %d unknown or revoked" gref)
      | Some d when d <> fid ->
          Some
            ( Foreign_gref,
              Printf.sprintf "tx gref %d granted by domain %d" gref d )
      | Some _ -> (
          match Hashtbl.find_opt i.inflight req.Netchannel.tx_id with
          | Some qid when qid = q.qid ->
              Some
                ( Replay,
                  Printf.sprintf "tx id %d replayed while in flight"
                    req.Netchannel.tx_id )
          | Some qid ->
              Some
                ( Slot_reuse,
                  Printf.sprintf "tx id %d already live on queue %d"
                    req.Netchannel.tx_id qid )
          | None -> None)
  in
  (* A hostile frontend may never consume responses; a full response
     ring is its loss, not a reason to kill the worker. *)
  let respond req status =
    try
      Ring.push_response q.tx_ring
        { Netchannel.tx_rsp_id = req.Netchannel.tx_id; tx_status = status }
    with Ring.Ring_full -> ()
  in
  let drain () =
    if not (Ring.request_producer_valid q.tx_ring) then begin
      record_fault i ~attack:Guest_fault.Ring_index
        ~detail:
          (Printf.sprintf "tx producer window %d outside [0,%d]"
             (Ring.pending_requests q.tx_ring)
             (Ring.size q.tx_ring));
      0
    end
    else begin
    let rec take acc =
      match Ring.take_request q.tx_ring with
      | Some req ->
          (match trace i with
          | Some tr ->
              Kite_trace.Trace.span_hop tr
                ~at:(Hypervisor.now (hv i))
                ~kind:"net.tx" ~key:(vif_name i) ~id:req.Netchannel.tx_id
                ~stage:"backend" ~args:[]
          | None -> ());
          take (req :: acc)
      | None -> List.rev acc
    in
    match take [] with
    | [] -> 0
    | reqs ->
        (* Validate sequentially, claiming each accepted id as we go:
           a duplicate later in the same drained run is just as much a
           replay as one racing a copy already in progress. *)
        let rev_ok, rev_bad =
          List.fold_left
            (fun (ok, bad) req ->
              match validate req with
              | None ->
                  Hashtbl.replace i.inflight req.Netchannel.tx_id q.qid;
                  (req :: ok, bad)
              | Some fault -> (ok, (req, fault) :: bad))
            ([], []) reqs
        in
        let ok = List.rev rev_ok in
        List.iter
          (fun (req, (attack, detail)) ->
            respond req Netchannel.status_error;
            record_fault i ~attack ~detail)
          (List.rev rev_bad);
        if ok = [] || i.stop then List.length reqs
        else begin
        (* Batched grant copy: the whole drained run rides a single
           hypercall trap. *)
        let frames =
          Grant_table.copy_from_granted_many i.ctx.Xen_ctx.gt
            ~caller:i.domain
            (List.map
               (fun req -> (req.Netchannel.tx_gref, 0, req.Netchannel.tx_len))
               ok)
        in
        List.iter2
          (fun req frame ->
            kernel_grant_ops i i.ov.Overheads.tx_kernel_grant_ops;
            Hypervisor.cpu_work (hv i) i.domain i.ov.Overheads.tx_per_packet;
            i.tx_packets <- i.tx_packets + 1;
            i.tx_bytes <- i.tx_bytes + req.Netchannel.tx_len;
            q.q_tx_packets <- q.q_tx_packets + 1;
            (* Dequeue-to-wire split: [backend] covered validation and
               the batched grant copy; [deliver] is the NIC leg, where
               retry/backoff time lands. *)
            (match trace i with
            | Some tr ->
                Kite_trace.Trace.span_hop tr
                  ~at:(Hypervisor.now (hv i))
                  ~kind:"net.tx" ~key:(vif_name i) ~id:req.Netchannel.tx_id
                  ~stage:"deliver" ~args:[]
            | None -> ());
            (* The frame may reach the physical NIC synchronously (through
               the bridge); a transient NIC error is retried with
               exponential backoff, then the frame is dropped as a wire
               loss. *)
            (match i.vif with
            | Some v ->
                let rec deliver n =
                  try Netdev.deliver v frame with
                  | Kite_devices.Nic.Transient_error _
                    when n < i.retries && not i.stop ->
                      i.io_retries <- i.io_retries + 1;
                      Xen_ctx.note i.ctx ~key:(vif_name i)
                        (Printf.sprintf "netback.tx-retry n=%d" (n + 1));
                      Process.sleep (i.retry_backoff * (1 lsl n));
                      deliver (n + 1)
                  | Kite_devices.Nic.Transient_error _ ->
                      i.tx_failed <- i.tx_failed + 1;
                      Xen_ctx.note i.ctx ~key:(vif_name i) "netback.tx-failed"
                in
                deliver 0
            | None -> ());
            (* Bridge egress: the packet's lifecycle ends here. *)
            (match trace i with
            | Some tr ->
                Kite_trace.Trace.span_end tr
                  ~at:(Hypervisor.now (hv i))
                  ~kind:"net.tx" ~key:(vif_name i) ~id:req.Netchannel.tx_id
            | None -> ());
            Hashtbl.remove i.inflight req.Netchannel.tx_id;
            respond req Netchannel.status_ok)
          ok frames;
        List.length reqs
        end
    end
  in
  let rec loop () =
    if i.stop then ()
    else begin
      let n = drain () in
      if n > 0 then begin
        q.spurious <- 0;
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.domain.Domain.name ~name:"netback.tx-batch"
              ~args:[ ("vif", vif_name i); ("n", string_of_int n) ]
        | None -> ());
        (match i.m_txbatch with
        | Some h -> Kite_metrics.Registry.observe h (float_of_int n)
        | None -> ());
        if Ring.push_responses_and_check_notify q.tx_ring then
          notify_frontend i q;
        touch i
      end
      else if not i.stop then begin
        (* A wakeup that drained nothing: normal in ones and twos
           (both workers are signalled per notify), an attack in
           volume.  The counter resets on any real work. *)
        q.spurious <- q.spurious + 1;
        if q.spurious >= storm_threshold then begin
          q.spurious <- 0;
          record_fault i ~attack:Guest_fault.Evtchn_storm
            ~detail:
              (Printf.sprintf "%d consecutive wakeups with no ring work"
                 storm_threshold)
        end
      end;
      if (not i.stop) && not (Ring.final_check_for_requests q.tx_ring)
      then begin
        Condition.wait q.pusher_wake;
        if not i.stop then begin
          charge_wake i;
          throttle_penalty i
        end
      end;
      loop ()
    end
  in
  loop ()

(* Wire -> guest.  Matches backlogged frames with posted Rx buffers,
   grant-copies the batch into the guest in one hypercall, responds.
   One soft_start per queue, fed by the flow-hash steering in the VIF's
   transmit callback. *)
let soft_start i q () =
  (* An Rx buffer must be a live grant from *this* frontend that we are
     allowed to write into; anything else is an attack on some other
     domain's memory. *)
  let validate req =
    let open Guest_fault in
    let fid = i.frontend.Domain.id in
    let gref = req.Netchannel.rx_gref in
    match Grant_table.inspect i.ctx.Xen_ctx.gt gref with
    | None -> Some (Bad_gref, Printf.sprintf "rx gref %d unknown or revoked" gref)
    | Some (d, _) when d <> fid ->
        Some
          (Foreign_gref, Printf.sprintf "rx gref %d granted by domain %d" gref d)
    | Some (_, false) ->
        Some (Bad_gref, Printf.sprintf "rx gref %d granted read-only" gref)
    | Some _ -> None
  in
  let respond req ~len status =
    try
      Ring.push_response q.rx_ring
        {
          Netchannel.rx_rsp_id = req.Netchannel.rx_id;
          rx_len = len;
          rx_status = status;
        }
    with Ring.Ring_full -> ()
  in
  let drain () =
    if not (Ring.request_producer_valid q.rx_ring) then begin
      record_fault i ~attack:Guest_fault.Ring_index
        ~detail:
          (Printf.sprintf "rx producer window %d outside [0,%d]"
             (Ring.pending_requests q.rx_ring)
             (Ring.size q.rx_ring));
      0
    end
    else begin
    let rec gather acc =
      if Queue.is_empty q.backlog || Ring.pending_requests q.rx_ring = 0 then
        List.rev acc
      else begin
        let frame = Queue.pop q.backlog in
        if Kite_race.Race.active () then
          Kite_race.Race.scoped_acquire ~chan:(backlog_chan i q);
        match Ring.take_request q.rx_ring with
        | Some req -> gather ((req, frame) :: acc)
        | None -> List.rev acc
      end
    in
    match gather [] with
    | [] -> 0
    | pairs ->
        let ok, bad =
          List.partition_map
            (fun (req, frame) ->
              match validate req with
              | None -> Either.Left (req, frame)
              | Some fault -> Either.Right (req, fault))
            pairs
        in
        List.iter
          (fun (req, (attack, detail)) ->
            (* The frame the bad buffer would have carried is a wire
               loss charged to the guest that posted the buffer. *)
            i.rx_dropped <- i.rx_dropped + 1;
            respond req ~len:0 Netchannel.status_error;
            record_fault i ~attack ~detail)
          bad;
        if ok = [] || i.stop then List.length pairs
        else begin
        Grant_table.copy_to_granted_many i.ctx.Xen_ctx.gt ~caller:i.domain
          (List.map
             (fun (req, frame) -> (req.Netchannel.rx_gref, 0, frame))
             ok);
        List.iter
          (fun (req, frame) ->
            kernel_grant_ops i i.ov.Overheads.rx_kernel_grant_ops;
            Hypervisor.cpu_work (hv i) i.domain i.ov.Overheads.rx_per_packet;
            i.rx_packets <- i.rx_packets + 1;
            i.rx_bytes <- i.rx_bytes + Bytes.length frame;
            q.q_rx_packets <- q.q_rx_packets + 1;
            respond req ~len:(Bytes.length frame) Netchannel.status_ok)
          ok;
        List.length pairs
        end
    end
  in
  let rec loop () =
    if i.stop then ()
    else begin
      let n = drain () in
      if n > 0 then begin
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.domain.Domain.name ~name:"netback.rx-batch"
              ~args:[ ("vif", vif_name i); ("n", string_of_int n) ]
        | None -> ());
        if Ring.push_responses_and_check_notify q.rx_ring then
          notify_frontend i q;
        touch i
      end;
      if i.stop
         || Queue.is_empty q.backlog
         || Ring.pending_requests q.rx_ring = 0
      then begin
        (* Re-arm request notifications before sleeping. *)
        if i.stop then ()
        else if not (Ring.final_check_for_requests q.rx_ring) then begin
          Condition.wait q.soft_wake;
          if not i.stop then begin
            charge_wake i;
            throttle_penalty i
          end
        end
        else if Queue.is_empty q.backlog then begin
          Condition.wait q.soft_wake;
          if not i.stop then begin
            charge_wake i;
            throttle_penalty i
          end
        end
      end;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Telemetry: per-vif instruments, Tx-ring stall probes (aggregate and
   per queue), and the live stats nodes real netback exposes under the
   backend xenstore path.                                              *)
(* ------------------------------------------------------------------ *)

let stats_publisher i ~bpath ~interval () =
  let xb = i.ctx.Xen_ctx.xb in
  let put key v =
    Xenbus.write xb i.domain ~path:(bpath ^ "/stats/" ^ key) (string_of_int v)
  in
  let rec loop () =
    Process.sleep interval;
    if not i.stop then begin
      put "tx-packets" i.tx_packets;
      put "rx-packets" i.rx_packets;
      put "tx-bytes" i.tx_bytes;
      put "rx-bytes" i.rx_bytes;
      put "rx-dropped" i.rx_dropped;
      put "io-retries" i.io_retries;
      put "num-queues" (Array.length i.queues);
      loop ()
    end
  in
  loop ()

let attach_metrics i ~bpath =
  match i.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vif = vif_name i in
      let l = [ ("vif", vif); ("side", "backend") ] in
      R.counter_fn r "kite_net_tx_packets_total" ~help:"Guest-to-wire packets"
        l
        (fun () -> i.tx_packets);
      R.counter_fn r "kite_net_tx_bytes_total" ~help:"Guest-to-wire bytes" l
        (fun () -> i.tx_bytes);
      R.counter_fn r "kite_net_rx_packets_total" ~help:"Wire-to-guest packets"
        l
        (fun () -> i.rx_packets);
      R.counter_fn r "kite_net_rx_bytes_total" ~help:"Wire-to-guest bytes" l
        (fun () -> i.rx_bytes);
      R.counter_fn r "kite_net_rx_dropped_total"
        ~help:"Frames dropped with the Rx backlog full" l
        (fun () -> i.rx_dropped);
      R.counter_fn r "kite_net_io_retries_total"
        ~help:"Transient NIC errors retried" l
        (fun () -> i.io_retries);
      R.counter_fn r "kite_net_tx_failed_total"
        ~help:"Frames lost after the retry budget" l
        (fun () -> i.tx_failed);
      R.counter_fn r "kite_guest_faults_total"
        ~help:"Frontend-supplied values rejected at the trust boundary" l
        (fun () -> Quarantine.faults i.guard);
      R.gauge_fn r "kite_guest_quarantine_level"
        ~help:"0 ok / 1 throttled / 2 detached / 3 offline" l
        (fun () -> float_of_int (Quarantine.level i.guard));
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 i.queues |> float_of_int
      in
      List.iter
        (fun (ring_name, pending, free) ->
          let rl = ("ring", ring_name) :: l in
          R.gauge_fn r "kite_net_ring_pending"
            ~help:"Unconsumed ring requests" rl pending;
          R.gauge_fn r "kite_net_ring_free" ~help:"Free request slots" rl free)
        [
          ( "tx",
            (fun () -> sum (fun q -> Ring.pending_requests q.tx_ring)),
            fun () -> sum (fun q -> Ring.free_requests q.tx_ring) );
          ( "rx",
            (fun () -> sum (fun q -> Ring.pending_requests q.rx_ring)),
            fun () -> sum (fun q -> Ring.free_requests q.rx_ring) );
        ];
      R.gauge_fn r "kite_net_rx_backlog"
        ~help:"Frames queued from the bridge awaiting Rx slots"
        [ ("vif", vif) ]
        (fun () ->
          sum (fun q -> Queue.length q.backlog));
      i.m_txbatch <-
        Some
          (R.histogram r "kite_net_tx_batch" ~base:1.0 ~factor:2.0
             ~help:"Tx requests drained per wakeup" [ ("vif", vif) ]);
      R.probe r ~name:"kite_net_tx_ring_stalled" [ ("vif", vif) ]
        (R.stalled_probe
           ~pending:(fun () ->
             if i.stop then 0
             else
               Array.fold_left
                 (fun acc q -> acc + Ring.pending_requests q.tx_ring)
                 0 i.queues)
           ~progress:(fun () -> i.tx_packets)
           ());
      if i.mq_mode then
        Array.iter
          (fun q ->
            let ql = [ ("vif", vif); ("queue", string_of_int q.qid) ] in
            R.counter_fn r "kite_net_queue_tx_packets_total"
              ~help:"Guest-to-wire packets on this queue" ql
              (fun () -> q.q_tx_packets);
            R.counter_fn r "kite_net_queue_rx_packets_total"
              ~help:"Wire-to-guest packets on this queue" ql
              (fun () -> q.q_rx_packets);
            R.probe r ~name:"kite_net_tx_ring_stalled" ql
              (R.stalled_probe
                 ~pending:(fun () ->
                   if i.stop then 0 else Ring.pending_requests q.tx_ring)
                 ~progress:(fun () -> q.q_tx_packets)
                 ()))
          i.queues;
      Hypervisor.spawn i.ctx.Xen_ctx.hv i.domain ~daemon:true
        ~name:
          (Printf.sprintf "netback-stats-%d.%d" i.frontend.Domain.id i.devid)
        (stats_publisher i ~bpath ~interval:(R.interval r))

let make_instance t ~frontend ~devid =
  let ctx = t.sctx in
  let xb = ctx.Xen_ctx.xb in
  let domain = t.sdomain in
  let bpath =
    Xenbus.backend_path ~backend:domain ~frontend ~ty:"vif" ~devid
  in
  let fpath = Xenbus.frontend_path ~frontend ~ty:"vif" ~devid in
  Xenbus.write xb domain ~path:(bpath ^ "/feature-rx-copy") "1";
  Xenbus.write xb domain
    ~path:(bpath ^ "/" ^ Netchannel.key_max_queues)
    (string_of_int t.smax_queues);
  Xenbus.write xb domain
    ~path:(bpath ^ "/" ^ Netchannel.key_max_ring_page_order)
    (string_of_int t.smax_ring_page_order);
  Xenbus.switch_state xb domain ~path:bpath Xenbus.Init_wait;
  Xenbus.wait_for_state xb domain ~path:fpath Xenbus.Initialised;
  let fid = frontend.Domain.id in
  let device = Printf.sprintf "vif%d.%d" fid devid in
  let abuse detail =
    Guest_fault.fail ~domid:fid ~device ~attack:Guest_fault.Xenstore_abuse
      ~detail
  in
  (* Every negotiation key is frontend-supplied: missing or malformed
     ones are a typed handshake fault, not a backend crash. *)
  let want key =
    match Xenbus.read xb domain ~path:(fpath ^ "/" ^ key) with
    | None -> abuse ("missing key " ^ key)
    | Some s -> (
        match int_of_string_opt s with
        | Some v -> v
        | None -> abuse (Printf.sprintf "malformed %s = %S" key s))
  in
  (* Multi-queue negotiation: a frontend that published
     multi-queue-num-queues gets per-queue rings under queue-<n>/;
     a legacy frontend gets the flat keys.  Never trust the frontend
     past our own advertised cap. *)
  let nq_raw =
    Xenbus.read xb domain ~path:(fpath ^ "/" ^ Netchannel.key_num_queues)
  in
  let mq_mode = nq_raw <> None in
  let nq =
    match nq_raw with
    | None -> 1
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> min n t.smax_queues
        | Some n -> abuse (Printf.sprintf "num-queues %d" n)
        | None -> abuse (Printf.sprintf "malformed num-queues %S" s))
  in
  let queues =
    Array.init nq (fun qid ->
        let key k =
          if mq_mode then Netchannel.queue_key qid k else k
        in
        let tx_ref = want (key "tx-ring-ref") in
        let rx_ref = want (key "rx-ring-ref") in
        let qport = want (key "event-channel") in
        let bad_ref detail =
          Guest_fault.fail ~domid:fid ~device
            ~attack:Guest_fault.Bad_ring_ref ~detail
        in
        (* A ring reference is only as trustworthy as its owner: it must
           exist, be the right kind, and have been shared by *this*
           frontend — not hijacked from a neighbour. *)
        let check_ref kind r =
          match Netchannel.owner_of ctx.Xen_ctx.netrings r with
          | None -> bad_ref (Printf.sprintf "unknown %s ring ref %d" kind r)
          | Some d when d <> fid ->
              bad_ref
                (Printf.sprintf "%s ring ref %d shared by domain %d" kind r d)
          | Some _ -> ()
        in
        check_ref "tx" tx_ref;
        check_ref "rx" rx_ref;
        let tx_ring =
          try Netchannel.map_tx ctx.Xen_ctx.netrings tx_ref
          with Not_found ->
            bad_ref (Printf.sprintf "ref %d is not a tx ring" tx_ref)
        in
        let rx_ring =
          try Netchannel.map_rx ctx.Xen_ctx.netrings rx_ref
          with Not_found ->
            bad_ref (Printf.sprintf "ref %d is not an rx ring" rx_ref)
        in
        {
          qid;
          tx_ring;
          rx_ring;
          qport;
          backlog = Queue.create ();
          pusher_wake = Condition.create ~label:"netback tx ring" ();
          soft_wake = Condition.create ~label:"netback rx backlog" ();
          q_tx_packets = 0;
          q_rx_packets = 0;
          spurious = 0;
        })
  in
  (* Mapping all the ring pages is pooled into one batched map
     hypercall (2 pages per queue). *)
  Hypervisor.hypercall ctx.Xen_ctx.hv domain "grant_map"
    ~extra:(2 * nq * (Hypervisor.costs ctx.Xen_ctx.hv).Costs.grant_map);
  Array.iter
    (fun q ->
      try Event_channel.bind ctx.Xen_ctx.ec q.qport domain
      with Event_channel.Evtchn_error msg ->
        Guest_fault.fail ~domid:fid ~device ~attack:Guest_fault.Bad_port
          ~detail:msg)
    queues;
  let i =
    {
      ctx;
      domain;
      frontend;
      devid;
      ov = t.soverheads;
      queues;
      mq_mode;
      vif = None;
      last_activity = Time.zero;
      retries = t.sretries;
      retry_backoff = t.sretry_backoff;
      tx_packets = 0;
      rx_packets = 0;
      tx_bytes = 0;
      rx_bytes = 0;
      rx_dropped = 0;
      io_retries = 0;
      tx_failed = 0;
      m_txbatch = None;
      stop = false;
      bpath;
      guard = Quarantine.create ();
      inflight = Hashtbl.create 64;
      state_guard = None;
    }
  in
  (* The VIF's transmit side (bridge -> guest) feeds the per-queue
     backlogs through the flow-hash steering function; it runs in
     arbitrary context so it only enqueues and signals. *)
  let vif =
    Netdev.create
      ~name:(Printf.sprintf "vif%d.%d" frontend.Domain.id devid)
      ~transmit:(fun frame ->
        let q = queues.(Netchannel.flow_hash frame nq) in
        if Queue.length q.backlog >= rx_backlog_limit then
          i.rx_dropped <- i.rx_dropped + 1
        else begin
          if Kite_race.Race.active () then
            Kite_race.Race.scoped_release ~chan:(backlog_chan i q);
          Queue.push frame q.backlog;
          Condition.signal q.soft_wake
        end)
      ()
  in
  i.vif <- Some vif;
  Array.iter
    (fun q ->
      Event_channel.set_handler ctx.Xen_ctx.ec q.qport domain (fun () ->
          Condition.signal q.pusher_wake;
          Condition.signal q.soft_wake))
    queues;
  (* Satellite: watch the frontend's state node and reject illegal
     frontend-driven transitions — report them, never follow them.  The
     callback runs in engine context, so escalation (which may write
     xenbus states) moves to a spawned process. *)
  i.state_guard <-
    Some
      (Xenbus.guard_peer_state xb domain ~path:fpath
         ~on_illegal:(fun ~from_ ~to_ ->
           let detail = Printf.sprintf "frontend state %s -> %s" from_ to_ in
           Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true
             ~name:(Printf.sprintf "netback-guard-%d.%d" fid devid)
             (fun () ->
               if not i.stop then
                 record_fault i ~attack:Guest_fault.Xenbus_jump ~detail)));
  Xenbus.switch_state xb domain ~path:bpath Xenbus.Connected;
  attach_metrics i ~bpath;
  t.on_vif ~frontend:frontend.Domain.id ~devid vif;
  Array.iter
    (fun q ->
      let suffix = if mq_mode then Printf.sprintf ".q%d" q.qid else "" in
      Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true
        ~name:
          (Printf.sprintf "netback-pusher-%d.%d%s" frontend.Domain.id devid
             suffix)
        (pusher i q);
      Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true
        ~name:
          (Printf.sprintf "netback-soft_start-%d.%d%s" frontend.Domain.id
             devid suffix)
        (soft_start i q))
    queues;
  i

(* A frontend whose handshake failed validation: report, refuse to
   serve (drive our directory straight to Closed) and remember it so
   the device is never retried.  Process context. *)
let reject_frontend t ~frontend ~devid ~attack ~detail =
  let domain = t.sdomain in
  let fid = frontend.Domain.id in
  Xen_ctx.guest_fault t.sctx ~handshake:true ~domid:fid
    ~device:(Printf.sprintf "vif%d.%d" fid devid)
    ~attack ~detail ();
  let bpath = Xenbus.backend_path ~backend:domain ~frontend ~ty:"vif" ~devid in
  Xenbus.switch_state t.sctx.Xen_ctx.xb domain ~path:bpath Xenbus.Closing;
  Xenbus.switch_state t.sctx.Xen_ctx.xb domain ~path:bpath Xenbus.Closed;
  t.rejected <- (fid, devid) :: t.rejected

(* §4.1 backend invocation: a watch on the backend directory wakes a
   dedicated thread that pairs new frontends. *)
let watcher t () =
  let rec loop () =
    let front_domid, devid = Mailbox.recv t.new_frontend in
    if front_domid < 0 || t.stopping then ()
    else begin
      (match Hypervisor.find_domain t.sctx.Xen_ctx.hv front_domid with
      | Some frontend ->
          (* Each handshake gets its own process: a frontend that stalls
             mid-handshake (or turns hostile) must not wedge the watcher
             and starve every other guest's connect. *)
          Hypervisor.spawn t.sctx.Xen_ctx.hv t.sdomain ~daemon:true
            ~name:
              (Printf.sprintf "netback-handshake-%d.%d" front_domid devid)
            (fun () ->
              match make_instance t ~frontend ~devid with
              | i -> if t.stopping then detach_instance i
                     else t.insts <- i :: t.insts
              | exception Guest_fault.Guest_fault { attack; detail; _ } ->
                  reject_frontend t ~frontend ~devid ~attack ~detail)
      | None -> ());
      loop ()
    end
  in
  loop ()

let scan t =
  let xs = Hypervisor.store t.sctx.Xen_ctx.hv in
  let base = Printf.sprintf "/local/domain/%d/backend/vif" t.sdomain.Domain.id in
  List.iter
    (fun frontid ->
      match int_of_string_opt frontid with
      | None -> ()
      | Some fid ->
          List.iter
            (fun devid ->
              match int_of_string_opt devid with
              | None -> ()
              | Some did ->
                  if not (List.mem (fid, did) t.known) then begin
                    t.known <- (fid, did) :: t.known;
                    Mailbox.send t.new_frontend (fid, did)
                  end)
            (Xenstore.directory xs ~path:(base ^ "/" ^ frontid)))
    (Xenstore.directory xs ~path:base)

let serve ctx ~domain ~overheads ?(retries = 4)
    ?(retry_backoff = Time.us 50) ?(max_queues = 8) ?(max_ring_page_order = 2)
    ~on_vif () =
  let t =
    {
      sctx = ctx;
      sdomain = domain;
      soverheads = overheads;
      sretries = retries;
      sretry_backoff = retry_backoff;
      smax_queues = max_queues;
      smax_ring_page_order = max_ring_page_order;
      on_vif;
      insts = [];
      rejected = [];
      known = [];
      new_frontend = Mailbox.create ~label:"netback new frontends" ();
      stopping = false;
      watch_id = None;
    }
  in
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true ~name:"netback-watcher"
    (watcher t);
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:"netback-watch-setup"
    (fun () ->
      let base =
        Printf.sprintf "/local/domain/%d/backend/vif" domain.Domain.id
      in
      t.watch_id <-
        Some
          (Xenbus.watch ctx.Xen_ctx.xb domain ~path:base ~token:"netback"
             (fun ~path:_ ~token:_ -> scan t)));
  t

(* Orderly teardown (what the real backend does on frontend Closing):
   unregister the directory watch, retire the watcher and per-queue
   threads, and close the event channels.  Must run in process context. *)
let stop t =
  t.stopping <- true;
  (match t.watch_id with
  | Some id ->
      Xenbus.unwatch t.sctx.Xen_ctx.xb id;
      t.watch_id <- None
  | None -> ());
  Mailbox.send t.new_frontend (-1, -1);
  List.iter detach_instance t.insts

(* Abrupt death (driver domain destroyed).  No orderly channel close:
   {!Toolstack.crash_driver_domain} tears down event channels and grant
   mappings at the hypervisor; here we only stop the threads from
   touching the dead rings and drop the watch uncharged. *)
let crash t =
  t.stopping <- true;
  (match t.watch_id with
  | Some id ->
      Xenstore.unwatch (Hypervisor.store t.sctx.Xen_ctx.hv) id;
      t.watch_id <- None
  | None -> ());
  Mailbox.send t.new_frontend (-1, -1);
  List.iter
    (fun i ->
      i.stop <- true;
      (match i.state_guard with
      | Some id ->
          Xenstore.unwatch (Hypervisor.store t.sctx.Xen_ctx.hv) id;
          i.state_guard <- None
      | None -> ());
      Array.iter
        (fun q ->
          Queue.clear q.backlog;
          Condition.broadcast q.pusher_wake;
          Condition.broadcast q.soft_wake)
        i.queues)
    t.insts
