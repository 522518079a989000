open Kite_sim
open Kite_xen

let sector_size = 512
let sectors_per_page = Page.size / sector_size

(* How long the frontend waits for a response before suspecting the
   request (or its completion notification) was lost.  Well above any
   normal I/O latency in the model, so it only fires under injected
   faults or a backend crash. *)
let watchdog_timeout = Time.ms 500

exception Io_error of string

(* The in-flight journal entry.  It carries everything needed to re-push
   the request verbatim — the built ring descriptor plus the granted
   data/indirect pages — so the watchdog can re-issue a lost request and
   crash recovery can replay unacknowledged ones into a fresh ring.  The
   grants stay valid across a backend crash (the granter is this, living,
   domain; the hypervisor force-unmaps the dead peer's mappings). *)
type pending = {
  p_id : int;
  cond : Condition.t;
  mutable status : int option;  (* response status once completed *)
  p_req : Blkif.request;
  p_pages : (Grant_table.ref_ * Page.t) list;
  p_indirect : (Grant_table.ref_ * Page.t) list;
}

(* One negotiated ring.  Legacy backends get exactly one, wired to the
   flat xenstore keys; multi-ring backends get [num_queues], each with
   its own ring and event channel.  Requests are steered by
   [p_id mod num_queues], so a crash replay re-steers deterministically
   against whatever count the re-handshake settles on. *)
type queue = {
  qid : int;
  q_ring : Blkif.ring;
  q_port : Event_channel.port;
}

type t = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  backend : Domain.t;
  devid : int;
  want_persistent : bool;
  want_indirect : bool;
  ask_queues : int option;  (* multi-ring ask; None = legacy frontend *)
  want_order : int;  (* extra ring-page order asked for in mq mode *)
  mutable queues : queue array;  (* rebuilt on every (re)connect *)
  mutable mq_mode : bool;
  mutable connected : bool;
  mutable shut : bool;  (* orderly shutdown: monitor must not reconnect *)
  mutable monitor : Xenstore.watch_id option;
  mutable capacity : int;
  mutable backend_persistent : bool;
  mutable backend_indirect : int;  (* max indirect segments; 0 = none *)
  conn_cond : Condition.t;
  slot_cond : Condition.t;
  pending : (int, pending) Hashtbl.t;
  mutable pool : (Grant_table.ref_ * Page.t) list;  (* persistent pages *)
  mutable next_id : int;
  mutable requests : int;
  mutable reconnects : int;
  mutable replayed : int;
  mutable resubmits : int;
  mutable m_lat : Kite_metrics.Registry.histogram option;
}

let capacity_sectors t = t.capacity
let requests_issued t = t.requests
let reconnects t = t.reconnects
let replayed t = t.replayed
let resubmits t = t.resubmits
let is_connected t = t.connected
let indirect_enabled t = t.want_indirect && t.backend_indirect > 0
let persistent_enabled t = t.want_persistent && t.backend_persistent
let num_queues t = Array.length t.queues

let fpath t = Xenbus.frontend_path ~frontend:t.domain ~ty:"vbd" ~devid:t.devid

let bpath t =
  Xenbus.backend_path ~backend:t.backend ~frontend:t.domain ~ty:"vbd"
    ~devid:t.devid

let fresh_id t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  id

let vbd_name t = Printf.sprintf "vbd%d.%d" t.domain.Domain.id t.devid

let ring_name t q =
  if t.mq_mode then
    Printf.sprintf "%s/vbd%d.q%d" t.domain.Domain.name t.devid q.qid
  else Printf.sprintf "%s/vbd%d" t.domain.Domain.name t.devid

(* The multi-queue checker invariant: a request id is a device-global
   slot that must never be in flight on two rings at once. *)
let mq_claim t q ~slot =
  if t.mq_mode then
    match t.ctx.Xen_ctx.check with
    | Some c -> Kite_check.Check.mq_claim c ~dev:(vbd_name t) ~queue:q.qid ~slot
    | None -> ()

let mq_release t ~slot =
  if t.mq_mode then
    match t.ctx.Xen_ctx.check with
    | Some c -> Kite_check.Check.mq_release c ~dev:(vbd_name t) ~slot
    | None -> ()

let queue_for t p = t.queues.(p.p_id mod Array.length t.queues)

(* Data pages: persistent mode reuses a granted pool so the backend's
   mappings stay valid; otherwise grant fresh pages per request and revoke
   them afterwards. *)
(* The pool hand-off needs a happens-before edge of its own: pages cycle
   between submitting processes (and the backend's writes into them), and
   in a real kernel the pool lock is what orders one request's final read
   against the next request's reuse.  put releases, get acquires. *)
let pool_chan t = Printf.sprintf "%s.pool" (vbd_name t)

let get_page t =
  if persistent_enabled t then
    match t.pool with
    | (gref, page) :: rest ->
        if Kite_race.Race.active () then
          Kite_race.Race.scoped_acquire ~chan:(pool_chan t);
        t.pool <- rest;
        (gref, page)
    | [] ->
        let page = Page.alloc () in
        let gref =
          Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
            ~grantee:t.backend ~page ~writable:true
        in
        (gref, page)
  else
    let page = Page.alloc () in
    let gref =
      Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
        ~grantee:t.backend ~page ~writable:true
    in
    (gref, page)

let put_pages t pages =
  if persistent_enabled t then begin
    if Kite_race.Race.active () then
      Kite_race.Race.scoped_release ~chan:(pool_chan t);
    t.pool <- pages @ t.pool
  end
  else
    List.iter
      (fun (gref, _) ->
        Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
      pages

(* The caller's bytes of page [pi] of a [count]-sector request whose
   payload starts at [off] in the caller's buffer: (offset, length). *)
let page_window ~count ~off pi =
  let start = pi * Page.size in
  (off + start, min Page.size ((count * sector_size) - start))

(* Build the journal entry for one blkif request covering [count] sectors
   starting at [sector]: grant the data pages, fill them for writes (from
   [data] at [off]), and pack indirect descriptors if the segment list is
   long. *)
let prepare t op ~sector ~count data ~off =
  let id = fresh_id t in
  let npages = (count + sectors_per_page - 1) / sectors_per_page in
  let pages = List.init npages (fun _ -> get_page t) in
  if op = Blkif.Write then
    List.iteri
      (fun pi (_, page) ->
        let src_off, len = page_window ~count ~off pi in
        Page.write_from page ~off:0 data ~src_off ~len)
      pages;
  let segments =
    List.mapi
      (fun pi (gref, _) ->
        let remaining = count - (pi * sectors_per_page) in
        {
          Blkif.gref;
          first_sect = 0;
          last_sect = min (sectors_per_page - 1) (remaining - 1);
        })
      pages
  in
  let body, indirect_grants =
    if List.length segments <= Blkif.max_direct_segments then
      (Blkif.Direct segments, [])
    else begin
      (* Pack descriptors into granted pages, exactly like the ABI. *)
      let descriptor_pages =
        List.map
          (fun bytes ->
            let page = Page.alloc () in
            Page.write page ~off:0 bytes;
            let gref =
              Grant_table.grant_access t.ctx.Xen_ctx.gt ~granter:t.domain
                ~grantee:t.backend ~page ~writable:false
            in
            (gref, page))
          (Blkif.pack_segments segments)
      in
      ( Blkif.Indirect
          (List.map fst descriptor_pages, List.length segments),
        descriptor_pages )
    end
  in
  {
    p_id = id;
    cond = Condition.create ~label:"blkfront response" ();
    status = None;
    p_req = { Blkif.req_id = id; op; sector; body };
    p_pages = pages;
    p_indirect = indirect_grants;
  }

let notify_backend t q =
  if t.connected then
    try Event_channel.notify t.ctx.Xen_ctx.ec q.q_port ~from:t.domain
    with Event_channel.Evtchn_error _ -> ()
      (* the backend died between our check and the send *)

(* Push a journal entry into its ring.  Also the replay path: pushing the
   same entry again is what re-issue means — same id, same grants, so a
   duplicated response completes nothing twice and a duplicated device
   write is idempotent.  The target queue is re-picked after every wait:
   a reconnect may have renegotiated the queue count. *)
let push_entry t p =
  (* Queue-entry hop: everything until the ring push is time spent
     waiting for a free slot (or for reconnection) — queueing.  The
     watchdog's re-issue path passes here again; the repeated stage is
     merged by name in the breakdown. *)
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      Kite_trace.Trace.span_hop tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:(vbd_name t) ~id:p.p_id ~stage:"queue" ~args:[]
  | None -> ());
  (* Wait for a ring slot; concurrent submitters can steal the slot we
     saw, in which case push raises Ring_full and we go back to sleep.
     A disconnected frontend parks here too: the reconnect path wakes
     [slot_cond] once the fresh rings are connected. *)
  let rec claim_slot () =
    while not t.connected do
      Condition.wait t.slot_cond
    done;
    let q = queue_for t p in
    if Ring.free_requests q.q_ring = 0 then begin
      Condition.wait t.slot_cond;
      claim_slot ()
    end
    else
      match Ring.push_request q.q_ring p.p_req with
      | () -> q
      | exception Ring.Ring_full -> claim_slot ()
  in
  let q = claim_slot () in
  mq_claim t q ~slot:p.p_id;
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      let count =
        match p.p_req.Blkif.body with
        | Blkif.Direct segs -> List.length segs * sectors_per_page
        | Blkif.Indirect (_, n) -> n * sectors_per_page
      in
      Kite_trace.Trace.span_hop tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:(vbd_name t) ~id:p.p_id ~stage:"ring"
        ~args:[ ("sectors", string_of_int count) ]
  | None -> ());
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write
      ~loc:(Printf.sprintf "%s.pending[%d]" (vbd_name t) p.p_id)
      ~site:"Blkfront.push";
  Hashtbl.replace t.pending p.p_id p;
  if Ring.push_requests_and_check_notify q.q_ring then notify_backend t q

(* Responses carry no payload copying that needs process context, so they
   are completed inline in the interrupt handler — one per queue. *)
let handle_event t q () =
  let rec drain () =
    match Ring.take_response q.q_ring with
    | Some rsp ->
        (match Hashtbl.find_opt t.pending rsp.Blkif.rsp_id with
        | Some p ->
            (match t.ctx.Xen_ctx.trace with
            | Some tr ->
                Kite_trace.Trace.span_end tr
                  ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
                  ~kind:"blk" ~key:(vbd_name t) ~id:rsp.Blkif.rsp_id
            | None -> ());
            mq_release t ~slot:rsp.Blkif.rsp_id;
            p.status <- Some rsp.Blkif.status;
            Condition.broadcast p.cond
        | None -> ());
        Condition.broadcast t.slot_cond;
        drain ()
    | None -> if Ring.final_check_for_responses q.q_ring then drain ()
  in
  drain ()

(* Block until the response for [p] arrives.  The watchdog distinguishes
   two loss modes: a lost completion notification (responses are sitting
   in the ring — drain them ourselves and kick the backend) and a lost
   request (nothing will ever come back — re-issue the journal entry).
   While reconnecting it just keeps waiting; replay owns the entry. *)
let await_response t p =
  let misses = ref 0 in
  while p.status = None do
    match Condition.timed_wait p.cond watchdog_timeout with
    | `Signaled -> misses := 0
    | `Timeout ->
        if t.connected && p.status = None then begin
          incr misses;
          if !misses = 1 then begin
            Xen_ctx.note t.ctx ~key:(vbd_name t) "blkfront.watchdog.kick";
            let q = queue_for t p in
            handle_event t q ();
            if p.status = None then notify_backend t q
          end
          else begin
            Xen_ctx.note t.ctx ~key:(vbd_name t) "blkfront.watchdog.reissue";
            t.resubmits <- t.resubmits + 1;
            push_entry t p;
            misses := 0
          end
        end
  done

(* One ring request.  [data] at [off] is the caller's payload: the
   source of a write, the destination of a read. *)
let submit t op ~sector ~count data ~off =
  let p = prepare t op ~sector ~count data ~off in
  (match t.ctx.Xen_ctx.trace with
  | Some tr ->
      Kite_trace.Trace.span_begin tr
        ~at:(Hypervisor.now t.ctx.Xen_ctx.hv)
        ~kind:"blk" ~key:(vbd_name t) ~id:p.p_id ~stage:"frontend"
  | None -> ());
  let t0 = Hypervisor.now t.ctx.Xen_ctx.hv in
  push_entry t p;
  t.requests <- t.requests + 1;
  await_response t p;
  (match t.m_lat with
  | Some h ->
      Kite_metrics.Registry.observe h
        (float_of_int (Hypervisor.now t.ctx.Xen_ctx.hv - t0))
  | None -> ());
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write
      ~loc:(Printf.sprintf "%s.pending[%d]" (vbd_name t) p.p_id)
      ~site:"Blkfront.complete";
  Hashtbl.remove t.pending p.p_id;
  (* Indirect descriptor pages are single-use. *)
  List.iter
    (fun (gref, _) ->
      Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
    p.p_indirect;
  if p.status <> Some Blkif.status_ok then begin
    put_pages t p.p_pages;
    raise
      (Io_error
         (Printf.sprintf "blkfront %s: request %d failed"
            t.domain.Domain.name p.p_id))
  end;
  if op = Blkif.Read then
    List.iteri
      (fun pi (_, page) ->
        let dst_off, len = page_window ~count ~off pi in
        Page.read_into page ~off:0 ~len data ~dst_off)
      p.p_pages;
  put_pages t p.p_pages

let max_sectors_per_request t =
  let max_segs =
    if indirect_enabled t then min t.backend_indirect Blkif.max_indirect_segments
    else Blkif.max_direct_segments
  in
  max_segs * sectors_per_page

(* Split a large operation into ring requests running in parallel.  Each
   request copies its own window of [data] (the write source or the read
   destination) straight to or from its granted pages. *)
let run_chunks t op ~sector ~count data =
  let chunk = max_sectors_per_request t in
  let nchunks = (count + chunk - 1) / chunk in
  if nchunks = 1 then submit t op ~sector ~count data ~off:0
  else begin
    let remaining = ref nchunks in
    let failure = ref None in
    let done_cond = Condition.create () in
    for ci = 0 to nchunks - 1 do
      let first = ci * chunk in
      let n = min chunk (count - first) in
      Hypervisor.spawn t.ctx.Xen_ctx.hv t.domain
        ~name:(Printf.sprintf "blkfront-io-%d" ci)
        (fun () ->
          (try
             submit t op ~sector:(sector + first) ~count:n data
               ~off:(first * sector_size)
           with e -> failure := Some e);
          decr remaining;
          if !remaining = 0 then Condition.broadcast done_cond)
    done;
    while !remaining > 0 do
      Condition.wait done_cond
    done;
    match !failure with Some e -> raise e | None -> ()
  end

let read t ~sector ~count =
  if count <= 0 then invalid_arg "Blkfront.read: count";
  let out = Bytes.create (count * sector_size) in
  run_chunks t Blkif.Read ~sector ~count out;
  out

let write t ~sector data =
  let len = Bytes.length data in
  if len = 0 || len mod sector_size <> 0 then
    invalid_arg "Blkfront.write: length not sector-aligned";
  run_chunks t Blkif.Write ~sector ~count:(len / sector_size) data

let flush t = submit t Blkif.Flush ~sector:0 ~count:0 Bytes.empty ~off:0

(* Per-queue ring telemetry, (re)registered at each connect: the family
   keeps its full label set stable and re-registration with the same
   labels just swaps the sampling closure in place. *)
let attach_queue_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      if t.mq_mode then begin
        let module R = Kite_metrics.Registry in
        let vbd = vbd_name t in
        Array.iter
          (fun q ->
            let ql =
              [
                ("vbd", vbd); ("side", "frontend");
                ("queue", string_of_int q.qid);
              ]
            in
            R.gauge_fn r "kite_blk_ring_pending"
              ~help:"Unconsumed ring requests" ql (fun () ->
                float_of_int (Ring.pending_requests q.q_ring));
            R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" ql
              (fun () -> float_of_int (Ring.free_requests q.q_ring)))
          t.queues
      end

let rec connect t () =
  let xb = t.ctx.Xen_ctx.xb in
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Init_wait;
  t.capacity <-
    Option.value ~default:0 (Xenbus.read_int xb t.domain ~path:(bpath t ^ "/sectors"));
  t.backend_persistent <-
    Xenbus.read xb t.domain ~path:(bpath t ^ "/feature-persistent") = Some "1";
  t.backend_indirect <-
    Option.value ~default:0
      (Xenbus.read_int xb t.domain
         ~path:(bpath t ^ "/feature-max-indirect-segments"));
  (* Multi-ring negotiation: we ask (explicit [num_queues] or the
     toolstack's [queues-wanted] hint), the backend caps.  Either side
     staying silent means the legacy flat single-ring layout. *)
  let ask =
    match t.ask_queues with
    | Some n -> Some n
    | None -> Xenbus.read_int xb t.domain ~path:(fpath t ^ "/queues-wanted")
  in
  let backend_max =
    Xenbus.read_int xb t.domain
      ~path:(bpath t ^ "/" ^ Blkif.key_max_queues)
  in
  let mq_mode =
    match (ask, backend_max) with
    | Some a, Some _ -> a >= 1
    | _ -> false
  in
  let nq =
    if mq_mode then
      max 1 (min (Option.get ask) (Option.get backend_max))
    else 1
  in
  let max_order =
    if mq_mode then
      Option.value ~default:0
        (Xenbus.read_int xb t.domain
           ~path:(bpath t ^ "/" ^ Blkif.key_max_ring_page_order))
    else 0
  in
  let order =
    Blkif.ring_order + if mq_mode then min t.want_order max_order else 0
  in
  t.mq_mode <- mq_mode;
  t.queues <-
    Array.init nq (fun qid ->
        {
          qid;
          q_ring = Ring.create ~order;
          q_port =
            Event_channel.alloc_unbound t.ctx.Xen_ctx.ec t.domain
              ~remote:t.backend;
        });
  Array.iter
    (fun q -> Xen_ctx.instrument_ring t.ctx q.q_ring ~name:(ring_name t q))
    t.queues;
  if mq_mode then begin
    Xenbus.write xb t.domain
      ~path:(fpath t ^ "/" ^ Blkif.key_num_queues)
      (string_of_int nq);
    Xenbus.write xb t.domain
      ~path:(fpath t ^ "/" ^ Blkif.key_ring_page_order)
      (string_of_int (order - Blkif.ring_order))
  end;
  Array.iter
    (fun q ->
      let key k = if mq_mode then Blkif.queue_key q.qid k else k in
      let ring_ref =
        Blkif.share t.ctx.Xen_ctx.blkrings ~owner:t.domain.Domain.id q.q_ring
      in
      Xenbus.write xb t.domain
        ~path:(fpath t ^ "/" ^ key "ring-ref")
        (string_of_int ring_ref);
      Xenbus.write xb t.domain
        ~path:(fpath t ^ "/" ^ key "event-channel")
        (string_of_int q.q_port))
    t.queues;
  Xenbus.write xb t.domain
    ~path:(fpath t ^ "/feature-persistent")
    (if t.want_persistent then "1" else "0");
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Initialised;
  Xenbus.wait_for_state xb t.domain ~path:(bpath t) Xenbus.Connected;
  Array.iter
    (fun q ->
      Event_channel.set_handler t.ctx.Xen_ctx.ec q.q_port t.domain
        (handle_event t q))
    t.queues;
  Xenbus.switch_state xb t.domain ~path:(fpath t) Xenbus.Connected;
  t.connected <- true;
  attach_queue_metrics t;
  Condition.broadcast t.conn_cond;
  Condition.broadcast t.slot_cond;
  if t.monitor = None then start_monitor t

(* Crash recovery.  Runs in its own process once the monitor sees the
   backend close or vanish.  The journal is every pushed-but-unanswered
   request; after the re-handshake each entry is pushed verbatim into the
   fresh rings (re-steered by id, since the queue count may have been
   renegotiated).  An entry completed by the old backend is never
   replayed and a replayed entry's response completes its waiter exactly
   once, so the layer above sees exactly-once semantics. *)
and reconnect t () =
  Xen_ctx.note t.ctx ~key:(vbd_name t) "blkfront.reconnect";
  let journal =
    Hashtbl.fold (fun _ p acc -> p :: acc) t.pending []
    |> List.filter (fun p -> p.status = None)
    |> List.sort (fun a b -> compare a.p_id b.p_id)
  in
  (* The old channels died with the backend; the persistent pool's
     mappings were revoked, so its idle grants can be ended and re-made
     on demand against the rebooted backend.  The old rings are dead,
     so no journal slot is genuinely in flight anywhere: release the
     checker's claims before replay re-claims them on fresh queues. *)
  Array.iter
    (fun q -> Event_channel.close t.ctx.Xen_ctx.ec q.q_port)
    t.queues;
  List.iter (fun p -> mq_release t ~slot:p.p_id) journal;
  List.iter
    (fun (gref, _) ->
      Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
    t.pool;
  t.pool <- [];
  (* Close first: Connected -> Closed -> Initialising is the legal
     reconnect path through the xenbus state machine. *)
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t) Xenbus.Closed;
  Xenbus.switch_state t.ctx.Xen_ctx.xb t.domain ~path:(fpath t)
    Xenbus.Initialising;
  connect t ();
  List.iter
    (fun p ->
      if p.status = None then begin
        t.replayed <- t.replayed + 1;
        push_entry t p
      end)
    journal;
  Xen_ctx.note t.ctx ~key:(vbd_name t)
    (Printf.sprintf "blkfront.replay.done n=%d"
       (List.length (List.filter (fun p -> p.status = None) journal)))

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
         ~token:"blkfront-monitor" (fun ~path:_ ~token:_ ->
           if (not t.shut) && t.connected then begin
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
               Xen_ctx.note t.ctx ~key:(vbd_name t) "blkfront.backend-gone";
               Hypervisor.spawn t.ctx.Xen_ctx.hv t.domain
                 ~name:"blkfront-reconnect" (reconnect t)
             end
           end))

(* Frontend-side telemetry.  Registered once at [create]; closures read
   [t] at sampling time, so ring replacement on reconnect needs no
   re-registration.  Aggregate ring gauges sum over the negotiated
   queues, keeping the seed series names stable whatever the queue
   count; per-queue families are added at connect in mq mode.  The
   request-latency histogram is pushed from [submit] (ns from ring push
   to completed response, covering watchdog re-issues and crash
   replays). *)
let attach_metrics t =
  match t.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vbd = vbd_name t in
      let l = [ ("vbd", vbd); ("side", "frontend") ] in
      R.counter_fn r "kite_blk_requests_total" ~help:"Requests submitted" l
        (fun () -> t.requests);
      R.counter_fn r "kite_blk_reconnects_total"
        ~help:"Backend-gone reconnect cycles" l
        (fun () -> t.reconnects);
      R.counter_fn r "kite_blk_replayed_total"
        ~help:"Journal entries replayed after a crash" l
        (fun () -> t.replayed);
      R.counter_fn r "kite_blk_resubmits_total"
        ~help:"Watchdog re-issues of lost requests" l
        (fun () -> t.resubmits);
      R.gauge_fn r "kite_blk_pool_size"
        ~help:"Idle pages in the persistent-grant pool"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int (List.length t.pool));
      R.gauge_fn r "kite_blk_pending"
        ~help:"Journal entries awaiting a response"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int (Hashtbl.length t.pending));
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 t.queues |> float_of_int
      in
      R.gauge_fn r "kite_blk_ring_pending" ~help:"Unconsumed ring requests" l
        (fun () -> sum (fun q -> Ring.pending_requests q.q_ring));
      R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" l
        (fun () -> sum (fun q -> Ring.free_requests q.q_ring));
      t.m_lat <-
        Some
          (R.histogram r "kite_blk_latency_ns" ~base:1000.0 ~factor:2.0
             ~help:"Request latency, ring push to response (simulated ns)"
             [ ("vbd", vbd) ]);
      R.probe r ~name:"kite_blk_pool_exhausted" [ ("vbd", vbd) ] (fun () ->
          let slots =
            Array.fold_left (fun a q -> a + Ring.size q.q_ring) 0 t.queues
          in
          if
            persistent_enabled t && t.pool = [] && slots > 0
            && Hashtbl.length t.pending >= slots
          then
            R.Alert
              (Printf.sprintf
                 "persistent-grant pool empty with %d requests in flight"
                 (Hashtbl.length t.pending))
          else R.Healthy)

let create ctx ~domain ~backend ~devid ?(use_persistent = true)
    ?(use_indirect = true) ?num_queues:ask_queues ?(ring_page_order = 0) () =
  let t =
    {
      ctx;
      domain;
      backend;
      devid;
      want_persistent = use_persistent;
      want_indirect = use_indirect;
      ask_queues;
      want_order = ring_page_order;
      queues = [||];
      mq_mode = false;
      connected = false;
      shut = false;
      monitor = None;
      capacity = 0;
      backend_persistent = false;
      backend_indirect = 0;
      conn_cond = Condition.create ~label:"blkfront connect" ();
      slot_cond = Condition.create ~label:"blkfront ring slots" ();
      pending = Hashtbl.create 64;
      pool = [];
      next_id = 0;
      requests = 0;
      reconnects = 0;
      replayed = 0;
      resubmits = 0;
      m_lat = None;
    }
  in
  attach_metrics t;
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:"blkfront-setup" (connect t);
  t

let wait_connected t =
  while not t.connected do
    Condition.wait t.conn_cond
  done

(* Frontend close path.  The persistent pool's grants are still mapped on
   the backend side, so this must run {e after} {!Blkback.stop} has swept
   its persistent-reference table; [end_access] on a still-mapped grant is
   a protocol violation the checker reports. *)
let shutdown t =
  t.shut <- true;
  t.connected <- false;
  (match t.monitor with
  | Some id ->
      Xenbus.unwatch t.ctx.Xen_ctx.xb id;
      t.monitor <- None
  | None -> ());
  Hashtbl.iter (fun id _ -> mq_release t ~slot:id) t.pending;
  List.iter
    (fun (gref, _) ->
      Grant_table.end_access t.ctx.Xen_ctx.gt ~granter:t.domain gref)
    t.pool;
  t.pool <- [];
  Array.iter
    (fun q -> Event_channel.close t.ctx.Xen_ctx.ec q.q_port)
    t.queues
