open Kite_sim
open Kite_xen
open Kite_net

(* One Tx/Rx ring pair with its own event channel and grant set.  In
   multi-queue mode the frontend runs [num_queues] of these and steers
   frames with {!Netchannel.flow_hash}; legacy mode is exactly one
   queue wired to the flat xenstore keys. *)
type queue = {
  qid : int;
  mutable tx_ring : Netchannel.tx_ring;
  mutable rx_ring : Netchannel.rx_ring;
  mutable qport : Event_channel.port;
  tx_pending : (int, Grant_table.ref_ * Page.t) Hashtbl.t;
  rx_buffers : (int, Grant_table.ref_ * Page.t) Hashtbl.t;
  bufpool : Grant_table.pool;  (* pre-granted Rx buffer pages *)
}

type t = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  ask_queues : int option;  (* explicit queue ask from [create] *)
  want_order : int;  (* extra ring-page order asked for *)
  mutable queues : queue array;
  mutable mq_mode : bool;  (* negotiated multi-queue layout in use *)
  mutable ring_gen : int;  (* bumped on every (re)connect *)
  mutable dev : Netdev.t option;
  tx_slots : Condition.t;
  rx_wake : Condition.t;
  conn_cond : Condition.t;
  mutable connected : bool;
  mutable stop : bool;
  mutable monitor : Xenstore.watch_id option;
  mutable rx_started : bool;
  mutable next_id : int;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable tx_dropped : int;
  mutable reconnects : int;
  mutable tx_lost : int;
}

let connected t = t.connected
let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let tx_bytes t = t.tx_bytes
let rx_bytes t = t.rx_bytes
let tx_dropped t = t.tx_dropped
let reconnects t = t.reconnects
let tx_lost t = t.tx_lost
let num_queues t = Array.length t.queues

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let vif_name t = Printf.sprintf "vif%d.%d" t.domain.Domain.id t.devid

let fpath t =
  Xenbus.frontend_path ~frontend:t.domain ~ty:"vif" ~devid:t.devid

let bpath t =
  Xenbus.backend_path ~backend:t.backend ~frontend:t.domain ~ty:"vif"
    ~devid:t.devid

(* Legacy mode keeps the seed's ring names so existing traces and
   checker reports are unchanged; multi-queue names carry a .qN
   suffix. *)
let ring_name t ~dir q =
  if t.mq_mode then
    Printf.sprintf "%s/vif%d-%s.q%d" t.domain.Domain.name t.devid dir q.qid
  else Printf.sprintf "%s/vif%d-%s" t.domain.Domain.name t.devid dir

let mq_claim t q ~slot =
  match t.ctx.Xen_ctx.check with
  | Some c ->
      Kite_check.Check.mq_claim c ~dev:(vif_name t ^ "-tx") ~queue:q.qid
        ~slot
  | None -> ()

let mq_release t ~slot =
  match t.ctx.Xen_ctx.check with
  | Some c -> Kite_check.Check.mq_release c ~dev:(vif_name t ^ "-tx") ~slot
  | None -> ()

(* Frontend-side telemetry.  Aggregate series are registered once at
   [create] and sum across queues at sampling time, so ring replacement
   on reconnect needs no re-registration; per-queue gauges are added at
   connect time (when the negotiated count is known) with a "queue"
   label. *)
let attach_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vif = vif_name t in
      let l = [ ("vif", vif); ("side", "frontend") ] in
      R.counter_fn r "kite_net_tx_packets_total" ~help:"Frames pushed to Tx"
        l
        (fun () -> t.tx_packets);
      R.counter_fn r "kite_net_tx_bytes_total" ~help:"Bytes pushed to Tx" l
        (fun () -> t.tx_bytes);
      R.counter_fn r "kite_net_rx_packets_total" ~help:"Frames received" l
        (fun () -> t.rx_packets);
      R.counter_fn r "kite_net_rx_bytes_total" ~help:"Bytes received" l
        (fun () -> t.rx_bytes);
      R.counter_fn r "kite_net_tx_dropped_total"
        ~help:"Frames dropped while disconnected" l
        (fun () -> t.tx_dropped);
      R.counter_fn r "kite_net_reconnects_total"
        ~help:"Backend-gone reconnect cycles" l
        (fun () -> t.reconnects);
      R.counter_fn r "kite_net_tx_lost_total"
        ~help:"In-flight Tx frames lost to a backend crash" l
        (fun () -> t.tx_lost);
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 t.queues |> float_of_int
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
        ]

let attach_queue_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      if t.mq_mode then begin
        let module R = Kite_metrics.Registry in
        let vif = vif_name t in
        Array.iter
          (fun q ->
            List.iter
              (fun (ring_name, pending, free) ->
                let rl =
                  [
                    ("vif", vif);
                    ("side", "frontend");
                    ("ring", ring_name);
                    ("queue", string_of_int q.qid);
                  ]
                in
                R.gauge_fn r "kite_net_ring_pending"
                  ~help:"Unconsumed ring requests" rl pending;
                R.gauge_fn r "kite_net_ring_free" ~help:"Free request slots"
                  rl free)
              [
                ( "tx",
                  (fun () -> float_of_int (Ring.pending_requests q.tx_ring)),
                  fun () -> float_of_int (Ring.free_requests q.tx_ring) );
                ( "rx",
                  (fun () -> float_of_int (Ring.pending_requests q.rx_ring)),
                  fun () -> float_of_int (Ring.free_requests q.rx_ring) );
              ])
          t.queues
      end

(* The channel to the backend can die under us (driver-domain crash);
   a failed kick is then recovered by the reconnect path, not fatal. *)
let notify_backend t q =
  try Event_channel.notify t.ctx.Xen_ctx.ec q.qport ~from:t.domain
  with Event_channel.Evtchn_error _ -> ()

let pick_queue t frame =
  t.queues.(Netchannel.flow_hash frame (Array.length t.queues))

(* Guest stack -> Tx ring.  Runs in the transmitting process's context.
   Unlike blkfront there is no journal: a frame caught by a backend crash
   is dropped, exactly as a cable pull would drop it, and the stack's own
   retransmission (if any) deals with it. *)
let transmit t frame =
  if not t.connected then t.tx_dropped <- t.tx_dropped + 1
  else begin
    let id = fresh_id t in
    (match t.ctx.Xen_ctx.trace with
    | Some tr ->
        let at = Hypervisor.now t.ctx.Xen_ctx.hv in
        Kite_trace.Trace.span_begin tr ~at ~kind:"net.tx" ~key:(vif_name t)
          ~id ~stage:"frontend";
        (* Queue-entry hop: everything until the ring push is time spent
           waiting for a free slot — queueing, not service. *)
        Kite_trace.Trace.span_hop tr ~at ~kind:"net.tx" ~key:(vif_name t) ~id
          ~stage:"queue" ~args:[]
    | None -> ());
    (* Re-pick the queue after every wait: a reconnect may have
       renegotiated the queue count while we were parked. *)
    while t.connected && Ring.free_requests (pick_queue t frame).tx_ring = 0
    do
      Condition.wait t.tx_slots
    done;
    if not t.connected then
      (* The backend crashed while we were parked on a full ring. *)
      t.tx_dropped <- t.tx_dropped + 1
    else begin
      let q = pick_queue t frame in
      let len = Bytes.length frame in
      let page = Page.alloc () in
      Page.write page ~off:0 frame;
      let gref =
        Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
          ~grantee:t.backend ~page ~writable:false
      in
      if Kite_race.Race.active () then
        Kite_race.Race.scoped_write
          ~loc:(Printf.sprintf "%s.q%d.tx_pending[%d]" (vif_name t) q.qid id)
          ~site:"Netfront.tx";
      Hashtbl.replace q.tx_pending id (gref, page);
      mq_claim t q ~slot:id;
      Ring.push_request q.tx_ring
        { Netchannel.tx_id = id; tx_gref = gref; tx_len = len };
      t.tx_packets <- t.tx_packets + 1;
      t.tx_bytes <- t.tx_bytes + len;
      (match t.ctx.Xen_ctx.trace with
      | Some tr ->
          Kite_trace.Trace.span_hop tr
            ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
            ~kind:"net.tx" ~key:(vif_name t) ~id ~stage:"ring"
            ~args:[ ("len", string_of_int len); ("q", string_of_int q.qid) ]
      | None -> ());
      if Ring.push_requests_and_check_notify q.tx_ring then notify_backend t q
    end
  end

(* Tx completions involve only pure grant-table updates, so they are safe
   to process inline in the interrupt handler. *)
let drain_tx_responses t q =
  let ring = q.tx_ring in
  let rec go () =
    match Ring.take_response ring with
    | Some rsp ->
        (match Hashtbl.find_opt q.tx_pending rsp.Netchannel.tx_rsp_id with
        | Some (gref, _page) ->
            if Kite_race.Race.active () then
              Kite_race.Race.scoped_write
                ~loc:
                  (Printf.sprintf "%s.q%d.tx_pending[%d]" (vif_name t) q.qid
                     rsp.Netchannel.tx_rsp_id)
                ~site:"Netfront.tx-response";
            Hashtbl.remove q.tx_pending rsp.Netchannel.tx_rsp_id;
            mq_release t ~slot:rsp.Netchannel.tx_rsp_id;
            Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref
        | None -> ());
        Condition.broadcast t.tx_slots;
        go ()
    | None -> if Ring.final_check_for_responses ring then go ()
  in
  go ()

let post_rx_buffer t q gref page =
  let id = fresh_id t in
  Hashtbl.replace q.rx_buffers id (gref, page);
  Ring.push_request q.rx_ring { Netchannel.rx_id = id; rx_gref = gref }

(* Rx completions: copy frames out of our own posted pages (local memcpy)
   and hand them to the guest netdev, then recycle the buffers.  One
   thread drains every queue (all the per-response work is free in the
   model, so a shared drainer loses nothing); re-posting may need a
   notify hypercall, hence the dedicated process.  Spawned once per
   frontend; after a reconnect it simply picks up the fresh queue array
   ([t.queues] and [ring_gen] are re-read each pass).  Responses left in
   a dead ring miss the [rx_buffers] lookup (the table was reset) and
   are discarded without a repost. *)
let rx_thread t () =
  let rec loop () =
    if t.stop then ()
    else begin
      let gen = t.ring_gen in
      let progress = ref false in
      Array.iter
        (fun q ->
          let ring = q.rx_ring in
          let rec drain reposted =
            match Ring.take_response ring with
            | Some rsp ->
                (match
                   Hashtbl.find_opt q.rx_buffers rsp.Netchannel.rx_rsp_id
                 with
                | Some (gref, page) ->
                    Hashtbl.remove q.rx_buffers rsp.Netchannel.rx_rsp_id;
                    if rsp.Netchannel.rx_status = Netchannel.status_ok
                    then begin
                      let frame =
                        Page.read page ~off:0 ~len:rsp.Netchannel.rx_len
                      in
                      t.rx_packets <- t.rx_packets + 1;
                      t.rx_bytes <- t.rx_bytes + rsp.Netchannel.rx_len;
                      match t.dev with
                      | Some dev -> Netdev.deliver dev frame
                      | None -> ()
                    end;
                    let id = fresh_id t in
                    Hashtbl.replace q.rx_buffers id (gref, page);
                    Ring.push_request ring
                      { Netchannel.rx_id = id; rx_gref = gref };
                    drain (reposted + 1)
                | None -> drain reposted)
            | None -> reposted
          in
          let reposted = drain 0 in
          if reposted > 0 then begin
            progress := true;
            if Ring.push_requests_and_check_notify ring then notify_backend t q
          end;
          if Ring.final_check_for_responses ring then progress := true)
        t.queues;
      if (not !progress) && gen = t.ring_gen then Condition.wait t.rx_wake;
      loop ()
    end
  in
  loop ()

let make_queue t ~order ~pool qid =
  {
    qid;
    tx_ring = Ring.create ~order;
    rx_ring = Ring.create ~order;
    qport = -1;
    tx_pending = Hashtbl.create 64;
    rx_buffers = Hashtbl.create 512;
    bufpool =
      (match pool with
      | Some p -> p
      | None ->
          Grant_table.pool t.ctx.Xen_ctx.gt ~granter:t.domain
            ~grantee:t.backend ~writable:true);
  }

let rec connect t () =
  let xb = t.ctx.Xen_ctx.xb in
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Init_wait;
  (* Multi-queue negotiation: the ask comes from [create] or from the
     toolstack's queues-wanted hint; the backend caps it.  A backend
     that advertises no max (or a frontend with no ask) falls back to
     the legacy flat single-ring layout. *)
  let ask =
    match t.ask_queues with
    | Some n -> Some n
    | None -> Xenbus.read_int xb t.domain ~path:(fpath t ^ "/queues-wanted")
  in
  let backend_max =
    Xenbus.read_int xb t.domain
      ~path:(bpath t ^ "/" ^ Netchannel.key_max_queues)
  in
  let nq, mq_mode =
    match (ask, backend_max) with
    | Some n, Some m when m >= 1 && n >= 1 -> (min n m, true)
    | _ -> (1, false)
  in
  let order =
    if not mq_mode then Netchannel.ring_order
    else begin
      let max_order =
        match
          Xenbus.read_int xb t.domain
            ~path:(bpath t ^ "/" ^ Netchannel.key_max_ring_page_order)
        with
        | Some o -> o
        | None -> 0
      in
      Netchannel.ring_order + min t.want_order max_order
    end
  in
  t.mq_mode <- mq_mode;
  (* Rebuild the queue set, carrying buffer pools over so reposted Rx
     grants survive the re-handshake. *)
  let old = t.queues in
  Array.iteri
    (fun idx oq -> if idx >= nq then Grant_table.pool_drain oq.bufpool)
    old;
  t.queues <-
    Array.init nq (fun idx ->
        let pool =
          if idx < Array.length old then Some old.(idx).bufpool else None
        in
        make_queue t ~order ~pool idx);
  t.ring_gen <- t.ring_gen + 1;
  Array.iter
    (fun q ->
      Xen_ctx.instrument_ring t.ctx q.tx_ring ~name:(ring_name t ~dir:"tx" q);
      Xen_ctx.instrument_ring t.ctx q.rx_ring ~name:(ring_name t ~dir:"rx" q))
    t.queues;
  if mq_mode then begin
    Xenbus.write xb t.domain
      ~path:(fpath t ^ "/" ^ Netchannel.key_num_queues)
      (string_of_int nq);
    Xenbus.write xb t.domain
      ~path:(fpath t ^ "/" ^ Netchannel.key_ring_page_order)
      (string_of_int (order - Netchannel.ring_order))
  end;
  Array.iter
    (fun q ->
      let owner = t.domain.Domain.id in
      let tx_ref = Netchannel.share_tx t.ctx.Xen_ctx.netrings ~owner q.tx_ring in
      let rx_ref = Netchannel.share_rx t.ctx.Xen_ctx.netrings ~owner q.rx_ring in
      q.qport <-
        Event_channel.alloc_unbound t.ctx.Xen_ctx.ec t.domain
          ~remote:t.backend;
      let key k =
        if t.mq_mode then fpath t ^ "/" ^ Netchannel.queue_key q.qid k
        else fpath t ^ "/" ^ k
      in
      Xenbus.write xb t.domain ~path:(key "tx-ring-ref")
        (string_of_int tx_ref);
      Xenbus.write xb t.domain ~path:(key "rx-ring-ref")
        (string_of_int rx_ref);
      Xenbus.write xb t.domain ~path:(key "event-channel")
        (string_of_int q.qport))
    t.queues;
  Xenbus.write xb t.domain ~path:(fpath t ^ "/request-rx-copy") "1";
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Initialised;
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Connected;
  Array.iter
    (fun q ->
      Event_channel.set_handler t.ctx.Xen_ctx.ec q.qport t.domain (fun () ->
          drain_tx_responses t q;
          Condition.signal t.rx_wake);
      (* Pre-post a full ring of receive buffers from the queue's pool. *)
      for _ = 1 to Ring.size q.rx_ring do
        let gref, page = Grant_table.pool_take q.bufpool in
        post_rx_buffer t q gref page
      done;
      if Ring.push_requests_and_check_notify q.rx_ring then
        notify_backend t q)
    t.queues;
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Connected;
  t.connected <- true;
  attach_queue_metrics t;
  Condition.broadcast t.conn_cond;
  Condition.broadcast t.tx_slots;
  Condition.broadcast t.rx_wake;
  if not t.rx_started then begin
    t.rx_started <- true;
    Process.spawn (Hypervisor.sched t.ctx.Xen_ctx.hv) ~daemon:true
      ~name:(t.domain.Domain.name ^ "/netfront-rx")
      (rx_thread t)
  end;
  if t.monitor = None then start_monitor t

(* Crash recovery.  Unlike blkfront there is nothing to replay: in-flight
   Tx frames are dropped (counted in [tx_lost]) and every queue's Rx
   buffers go back to its pool (the grants stay live — the backend only
   ever copies), so traffic resumes as soon as the re-handshake of all
   queues against the rebooted backend completes. *)
and reconnect t () =
  Xen_ctx.note t.ctx ~key:(vif_name t) "netfront.reconnect";
  let gt = t.ctx.Xen_ctx.gt in
  Array.iter
    (fun q ->
      t.tx_lost <- t.tx_lost + Hashtbl.length q.tx_pending;
      Hashtbl.iter
        (fun id (gref, _) ->
          mq_release t ~slot:id;
          Grant_table.end_access gt ~granter:t.domain gref)
        q.tx_pending;
      Hashtbl.reset q.tx_pending;
      Hashtbl.iter
        (fun _ (gref, page) -> Grant_table.pool_put q.bufpool (gref, page))
        q.rx_buffers;
      Hashtbl.reset q.rx_buffers;
      Event_channel.close t.ctx.Xen_ctx.ec q.qport)
    t.queues;
  Condition.broadcast t.tx_slots;
  (* Close first: Connected -> Closed -> Initialising is the legal
     reconnect path through the xenbus state machine. *)
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t) Xenbus.Closed;
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t)
    Xenbus.Initialising;
  connect t ();
  Xen_ctx.note t.ctx ~key:(vif_name t)
    (Printf.sprintf "netfront.resume tx_lost=%d" t.tx_lost)

(* The backend-state monitor: armed after the first connect, it turns a
   Closing/Closed/vanished backend into a reconnect cycle.  Watch
   callbacks run in engine context, so the store is read directly and the
   recovery work is spawned as a process. *)
and start_monitor t =
  let store = Hypervisor.store t.ctx.Xen_ctx.hv in
  let state_path = bpath t ^ "/state" in
  t.monitor <-
    Some
      (Xenbus.watch t.ctx.Xen_ctx.xb t.domain ~path:state_path
         ~token:"netfront-monitor" (fun ~path:_ ~token:_ ->
           if (not t.stop) && t.connected then begin
             let gone =
               match Xenstore.read store ~path:state_path with
               | None -> true
               | Some s -> (
                   match Xenbus.state_of_string s with
                   | Some (Xenbus.Closing | Xenbus.Closed) | None -> true
                   | Some _ -> false)
             in
             if gone then begin
               t.connected <- false;
               t.reconnects <- t.reconnects + 1;
               Xen_ctx.note t.ctx ~key:(vif_name t) "netfront.backend-gone";
               Hypervisor.spawn t.ctx.Xen_ctx.hv t.domain
                 ~name:"netfront-reconnect" (reconnect t)
             end
           end))

let create ctx ~domain ~backend ~devid ?num_queues ?(ring_page_order = 0) ()
    =
  let t =
    {
      ctx;
      domain;
      backend;
      devid;
      ask_queues = num_queues;
      want_order = ring_page_order;
      queues = [||];
      mq_mode = false;
      ring_gen = 0;
      dev = None;
      tx_slots = Condition.create ~label:"netfront tx slots" ();
      rx_wake = Condition.create ~label:"netfront rx ring" ();
      conn_cond = Condition.create ~label:"netfront connect" ();
      connected = false;
      stop = false;
      monitor = None;
      rx_started = false;
      next_id = 0;
      tx_packets = 0;
      rx_packets = 0;
      tx_bytes = 0;
      rx_bytes = 0;
      tx_dropped = 0;
      reconnects = 0;
      tx_lost = 0;
    }
  in
  let dev =
    Netdev.create
      ~name:(Printf.sprintf "xn%d" devid)
      ~transmit:(fun frame -> transmit t frame)
      ()
  in
  t.dev <- Some dev;
  attach_metrics t;
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:"netfront-setup" (connect t);
  t

let netdev t = match t.dev with Some d -> d | None -> assert false

let wait_connected t =
  while not t.connected do
    Condition.wait t.conn_cond
  done

(* Frontend close path: retire the Rx thread, revoke every outstanding
   grant (Tx in-flight, and each queue's posted Rx buffers via its pool
   -- all only ever used via grant copy, so revocation is a pure table
   update) and close the per-queue event channels. *)
let shutdown t =
  t.connected <- false;
  t.stop <- true;
  (match t.monitor with
  | Some id ->
      Xenbus.unwatch t.ctx.Xen_ctx.xb id;
      t.monitor <- None
  | None -> ());
  Condition.broadcast t.rx_wake;
  Condition.broadcast t.tx_slots;
  let gt = t.ctx.Xen_ctx.gt in
  Array.iter
    (fun q ->
      Hashtbl.iter
        (fun id (gref, _) ->
          mq_release t ~slot:id;
          Grant_table.end_access gt ~granter:t.domain gref)
        q.tx_pending;
      Hashtbl.reset q.tx_pending;
      Hashtbl.iter
        (fun _ (gref, page) -> Grant_table.pool_put q.bufpool (gref, page))
        q.rx_buffers;
      Hashtbl.reset q.rx_buffers;
      Grant_table.pool_drain q.bufpool;
      Event_channel.close t.ctx.Xen_ctx.ec q.qport)
    t.queues
