open Kite_sim
open Kite_xen

let sector_size = Kite_devices.Nvme.sector_size

(* One negotiated ring with its own event channel, wake condition and
   request thread.  Legacy frontends get exactly one wired to the flat
   xenstore keys. *)
type rstate = {
  rid : int;
  ring : Blkif.ring;
  rport : Event_channel.port;
  rwake : Condition.t;
  mutable r_requests : int;
  mutable spurious : int;  (* consecutive wakeups that drained nothing *)
}

type instance = {
  ctx : Xen_ctx.t;
  domain : Domain.t;
  frontend : Domain.t;
  devid : int;
  ov : Overheads.t;
  device : Kite_devices.Nvme.t;
  rings : rstate array;
  mq_mode : bool;
  persistent : bool;  (* negotiated *)
  batching : bool;
  (* Grants held mapped across requests (the persistent-reference table of
     §3.3); shared by every ring (persistence is per-device), released in
     one sweep on disconnect. *)
  pmap : (int, unit) Hashtbl.t;
  mutable last_activity : Time.t;
  retries : int;
  retry_backoff : Time.span;
  mutable requests : int;
  mutable segments : int;
  mutable device_ops : int;
  mutable io_retries : int;
  mutable indirect_reqs : int;
  mutable inflight : int;
  mutable stop : bool;
  bpath : string;
  guard : Quarantine.t;
  (* request ids currently being served, across every ring of the
     device: id -> rid.  Detects in-flight replay and cross-ring slot
     reuse. *)
  req_ids : (int, int) Hashtbl.t;
  mutable state_guard : Xenstore.watch_id option;
}

type t = {
  sctx : Xen_ctx.t;
  sdomain : Domain.t;
  soverheads : Overheads.t;
  sdevice : Kite_devices.Nvme.t;
  feature_persistent : bool;
  feature_indirect : bool;
  batching : bool;
  sretries : int;
  sretry_backoff : Time.span;
  smax_queues : int;
  smax_ring_page_order : int;
  mutable insts : instance list;
  mutable rejected : (int * int) list;
      (* (frontend domid, devid) refused at the handshake *)
  mutable known : (int * int) list;
  new_frontend : (int * int) Mailbox.t;
  mutable stopping : bool;
  mutable watch_id : Xenstore.watch_id option;
}

let instances t = t.insts
let rejected t = t.rejected
let frontend_domid i = i.frontend.Domain.id
let devid i = i.devid
let quarantine i = i.guard
let requests_served i = i.requests
let segments_served i = i.segments
let device_ops i = i.device_ops
let io_retries i = i.io_retries
let indirect_requests i = i.indirect_reqs
let inflight i = i.inflight
let persistent_grants i = Hashtbl.length i.pmap
let num_queues i = Array.length i.rings

let hv i = i.ctx.Xen_ctx.hv
let trace i = i.ctx.Xen_ctx.trace
let vbd_name i = Printf.sprintf "vbd%d.%d" i.frontend.Domain.id i.devid

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
        ~name:"blkback.wake"
        ~args:
          [
            ("vbd", vbd_name i); ("tier", tier); ("idle_ns", string_of_int idle);
          ]
  | None -> ());
  Hypervisor.cpu_work (hv i) i.domain cost

let touch i = i.last_activity <- Hypervisor.now (hv i)

(* ------------------------------------------------------------------ *)
(* Trust boundary: every ring index, grant reference, segment
   descriptor, request id and negotiation key the frontend publishes
   is attacker-controlled.  Violations become typed Guest_faults
   feeding the per-device quarantine ladder.                           *)
(* ------------------------------------------------------------------ *)

let storm_threshold = 64

(* Disconnect one instance: retire its request threads, unmap the whole
   persistent-reference table (the real driver's gnttab_unmap sweep on
   disconnect) and close the event channels.  Idempotent; the teardown
   half of both [stop] and the Detach/Offline quarantine actions.
   Process context: the unmap charges hypercall time. *)
let detach_instance i =
  if not i.stop then begin
    i.stop <- true;
    (match i.state_guard with
    | Some id ->
        Xenbus.unwatch i.ctx.Xen_ctx.xb id;
        i.state_guard <- None
    | None -> ());
    Array.iter (fun r -> Condition.broadcast r.rwake) i.rings;
    let grefs = Hashtbl.fold (fun g () acc -> g :: acc) i.pmap [] in
    Hashtbl.reset i.pmap;
    Grant_table.unmap_many i.ctx.Xen_ctx.gt ~grantee:i.domain grefs;
    Array.iter (fun r -> Event_channel.close i.ctx.Xen_ctx.ec r.rport) i.rings
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
  Xen_ctx.quarantined i.ctx ~domid:i.frontend.Domain.id ~device:(vbd_name i)
    ~action:name ~faults:(Quarantine.faults i.guard);
  Xen_ctx.note i.ctx ~key:(vbd_name i) ("blkback.quarantine." ^ name);
  match action with
  | Quarantine.Throttle -> ()  (* the request thread consults the level *)
  | Quarantine.Detach -> detach_instance i
  | Quarantine.Offline -> offline_instance i

(* One rejected attack primitive: checker finding, flight incident,
   then whatever escalation the fault count has earned.  Process
   context (Offline writes xenbus states). *)
let record_fault i ~attack ~detail =
  Xen_ctx.guest_fault i.ctx ~domid:i.frontend.Domain.id ~device:(vbd_name i)
    ~attack ~detail ();
  Xen_ctx.note i.ctx ~key:(vbd_name i)
    ("blkback.guest-fault." ^ Guest_fault.slug attack);
  match Quarantine.note i.guard attack with
  | Some action -> apply_quarantine i action
  | None -> ()

let throttle_penalty i =
  if Quarantine.throttled i.guard && not i.stop then
    Process.sleep (Quarantine.policy i.guard).Quarantine.throttle_penalty

(* A resolved unit of work: one request, its segments and mapped pages. *)
type work = {
  req : Blkif.request;
  segs : Blkif.segment list;
  pages : Page.t list;
  total_bytes : int;
}

let rec split_at n l =
  if n = 0 then ([], l)
  else
    match l with
    | x :: rest ->
        let a, b = split_at (n - 1) rest in
        (x :: a, b)
    | [] -> ([], [])

(* After a crash ([stop] set abruptly) the ring is dead and the channel
   closed: late completions from workers already in the device must not
   touch either.  A hostile frontend that never consumes responses can
   also fill the response side — that is its own loss, never ours
   (Ring_full swallowed). *)
let respond_id i r ~id status =
  if not i.stop then begin
    (try Ring.push_response r.ring { Blkif.rsp_id = id; status }
     with Ring.Ring_full -> ());
    if Ring.push_responses_and_check_notify r.ring then
      try Event_channel.notify i.ctx.Xen_ctx.ec r.rport ~from:i.domain
      with Event_channel.Evtchn_error _ -> ()
  end

let respond i r work status =
  Hashtbl.remove i.req_ids work.req.Blkif.req_id;
  respond_id i r ~id:work.req.Blkif.req_id status

(* Stage-1 validation, before any grant is touched: request-id liveness
   (in-flight replay on the same ring, slot reuse across rings) and the
   shape of the descriptor chain — segment counts against the
   advertised limits, and ownership of every indirect descriptor page.
   Returns the violation, or None for an honest request. *)
let validate_pre i r req =
  let fid = i.frontend.Domain.id in
  let id = req.Blkif.req_id in
  match Hashtbl.find_opt i.req_ids id with
  | Some rid when rid = r.rid ->
      Some
        ( Guest_fault.Replay,
          Printf.sprintf "request id %d replayed while in flight" id )
  | Some rid ->
      Some
        ( Guest_fault.Slot_reuse,
          Printf.sprintf "request id %d already live on ring %d" id rid )
  | None -> (
      match req.Blkif.body with
      | Blkif.Direct segs ->
          let n = List.length segs in
          if n > Blkif.max_direct_segments then
            Some
              ( Guest_fault.Bad_segment,
                Printf.sprintf "%d direct segments (max %d)" n
                  Blkif.max_direct_segments )
          else None
      | Blkif.Indirect (grefs, count) ->
          if count < 0 || count > Blkif.max_indirect_segments then
            Some
              ( Guest_fault.Bad_segment,
                Printf.sprintf "indirect segment count %d (max %d)" count
                  Blkif.max_indirect_segments )
          else begin
            let needed =
              (count + Blkif.segments_per_indirect_page - 1)
              / Blkif.segments_per_indirect_page
            in
            if List.length grefs < needed then
              Some
                ( Guest_fault.Bad_segment,
                  Printf.sprintf
                    "%d descriptor pages published for %d segments"
                    (List.length grefs) count )
            else
              let rec check = function
                | [] -> None
                | g :: rest -> (
                    match Grant_table.owner i.ctx.Xen_ctx.gt g with
                    | None ->
                        Some
                          ( Guest_fault.Bad_gref,
                            Printf.sprintf
                              "indirect descriptor gref %d unknown or revoked"
                              g )
                    | Some d when d <> fid ->
                        Some
                          ( Guest_fault.Foreign_gref,
                            Printf.sprintf
                              "indirect descriptor gref %d granted by domain \
                               %d" g d )
                    | Some _ -> check rest)
              in
              check grefs
          end)

(* Stage-2 validation, once the segment list is resolved (for indirect
   requests that means after parsing the descriptor pages — themselves
   attacker-controlled bytes): per-segment sector geometry, ownership
   of every data gref, and the request's sector range against the
   device capacity. *)
let validate_segs i req segs =
  let fid = i.frontend.Domain.id in
  let sect_per_page = Page.size / sector_size in
  let rec check_seg = function
    | [] -> None
    | s :: rest ->
        if
          s.Blkif.first_sect < 0
          || s.Blkif.last_sect < s.Blkif.first_sect
          || s.Blkif.last_sect >= sect_per_page
        then
          Some
            ( Guest_fault.Bad_segment,
              Printf.sprintf "segment geometry first=%d last=%d (page holds %d)"
                s.Blkif.first_sect s.Blkif.last_sect sect_per_page )
        else (
          match Grant_table.owner i.ctx.Xen_ctx.gt s.Blkif.gref with
          | None ->
              Some
                ( Guest_fault.Bad_gref,
                  Printf.sprintf "data gref %d unknown or revoked"
                    s.Blkif.gref )
          | Some d when d <> fid ->
              Some
                ( Guest_fault.Foreign_gref,
                  Printf.sprintf "data gref %d granted by domain %d"
                    s.Blkif.gref d )
          | Some _ -> check_seg rest)
  in
  match check_seg segs with
  | Some v -> Some v
  | None ->
      let total =
        List.fold_left (fun a s -> a + Blkif.segment_bytes s) 0 segs
      in
      let sectors = total / sector_size in
      let cap = Kite_devices.Nvme.capacity_sectors i.device in
      if req.Blkif.sector < 0 || req.Blkif.sector + sectors > cap then
        Some
          ( Guest_fault.Bad_length,
            Printf.sprintf "sector range [%d, %d) beyond capacity %d"
              req.Blkif.sector
              (req.Blkif.sector + sectors)
              cap )
      else None

(* Prepare a whole drained run with coalesced grant-table hypercalls:
   every indirect descriptor page in the run is mapped (and unmapped)
   in one batched call, and every data gref in the run rides a single
   map hypercall — the grant-op trap cost is amortized across the
   queue's pending requests instead of paid per request.  A 1-request
   run costs exactly what the old per-request path did.

   Every request passes [validate_pre] before any of its grants are
   touched and [validate_segs] once its segments are resolved; a
   violator is answered with status_error and reported as a typed
   Guest_fault (which may quarantine the whole device mid-run). *)
let prepare_run i r reqs =
  let reqs =
    List.filter
      (fun req ->
        match validate_pre i r req with
        | Some (attack, detail) ->
            respond_id i r ~id:req.Blkif.req_id Blkif.status_error;
            record_fault i ~attack ~detail;
            false
        | None ->
            Hashtbl.replace i.req_ids req.Blkif.req_id r.rid;
            true)
      reqs
  in
  match reqs with
  | [] -> []
  | _ when i.stop -> []  (* quarantine offlined the device mid-run *)
  | reqs ->
      List.iter
        (fun req ->
          (match req.Blkif.body with
          | Blkif.Indirect _ -> i.indirect_reqs <- i.indirect_reqs + 1
          | Blkif.Direct _ -> ());
          i.inflight <- i.inflight + 1)
        reqs;
      (* Segment resolution: one map/unmap pair covers every indirect
         descriptor page in the run (parsing the packed bytes, as the
         real driver does). *)
      let ind_grefs =
        List.concat_map
          (fun req ->
            match req.Blkif.body with
            | Blkif.Indirect (grefs, _) -> grefs
            | Blkif.Direct _ -> [])
          reqs
      in
      let ind_pages =
        if ind_grefs = [] then []
        else Grant_table.map_many i.ctx.Xen_ctx.gt ~grantee:i.domain ind_grefs
      in
      let rev_segs, _ =
        List.fold_left
          (fun (acc, pages) req ->
            match req.Blkif.body with
            | Blkif.Direct segs -> (segs :: acc, pages)
            | Blkif.Indirect (grefs, count) ->
                let mine, rest = split_at (List.length grefs) pages in
                let bytes =
                  List.mapi
                    (fun k p ->
                      Page.read p ~off:0 ~len:(Blkif.descriptor_bytes ~count k))
                    mine
                in
                (Blkif.unpack_segments bytes ~count :: acc, rest))
          ([], ind_pages) reqs
      in
      let prepared = List.combine reqs (List.rev rev_segs) in
      if ind_grefs <> [] then
        Grant_table.unmap_many i.ctx.Xen_ctx.gt ~grantee:i.domain ind_grefs;
      (* Stage-2: the resolved segments (possibly parsed out of
         attacker-controlled descriptor pages) are themselves validated
         before the data grefs ride the pooled map hypercall. *)
      let prepared =
        List.filter
          (fun (req, segs) ->
            match validate_segs i req segs with
            | Some (attack, detail) ->
                i.inflight <- i.inflight - 1;
                Hashtbl.remove i.req_ids req.Blkif.req_id;
                respond_id i r ~id:req.Blkif.req_id Blkif.status_error;
                record_fault i ~attack ~detail;
                false
            | None -> true)
          prepared
      in
      if i.stop then []  (* quarantine offlined the device mid-run *)
      else begin
      List.iter
        (fun (req, segs) ->
          let indirect =
            match req.Blkif.body with
            | Blkif.Indirect _ -> true
            | Blkif.Direct _ -> false
          in
          let grefs = List.map (fun s -> s.Blkif.gref) segs in
          (* Persistent grants hit the map fast path (already mapped =>
             free). *)
          let persistent_hits =
            if i.persistent then
              List.length (List.filter (Hashtbl.mem i.pmap) grefs)
            else 0
          in
          match trace i with
          | Some tr ->
              Kite_trace.Trace.span_hop tr
                ~at:(Hypervisor.now (hv i))
                ~kind:"blk" ~key:(vbd_name i) ~id:req.Blkif.req_id
                ~stage:"map"
                ~args:
                  [
                    ("segs", string_of_int (List.length segs));
                    ("persistent_hits", string_of_int persistent_hits);
                    ("indirect", if indirect then "1" else "0");
                  ];
              (* The monolithic-kernel backend's extra per-request
                 grant-table hypercalls (see Overheads): zero duration,
                 profile-only. *)
              let at = Hypervisor.now (hv i) in
              for _ = 1 to i.ov.Overheads.blk_kernel_grant_ops do
                Kite_trace.Trace.charge tr ~at ~domain:i.domain.Domain.name
                  ~op:"hypercall.grant_op.kernel" ~cost:0
              done
          | None -> ())
        prepared;
      (* Data pages: one pooled map hypercall for the whole run. *)
      let all_grefs =
        List.concat_map
          (fun (_, segs) -> List.map (fun s -> s.Blkif.gref) segs)
          prepared
      in
      let all_pages =
        Grant_table.map_many i.ctx.Xen_ctx.gt ~grantee:i.domain all_grefs
      in
      let rev_works, _ =
        List.fold_left
          (fun (acc, pages) (req, segs) ->
            let mine, rest = split_at (List.length segs) pages in
            if i.persistent then
              List.iter
                (fun s ->
                  if Kite_race.Race.active () then
                    Kite_race.Race.scoped_write
                      ~loc:
                        (Printf.sprintf "%s.pmap[%d]" (vbd_name i)
                           s.Blkif.gref)
                      ~site:"Blkback.persist";
                  Hashtbl.replace i.pmap s.Blkif.gref ())
                segs;
            let total_bytes =
              List.fold_left (fun a s -> a + Blkif.segment_bytes s) 0 segs
            in
            (* Per-request and per-segment CPU happens here in the request
               thread, overlapping with device operations already in
               flight. *)
            Hypervisor.cpu_work (hv i) i.domain
              (i.ov.Overheads.blk_per_request
              + (i.ov.Overheads.blk_per_segment * List.length segs));
            ({ req; segs; pages = mine; total_bytes } :: acc, rest))
          ([], all_pages) prepared
      in
      List.rev rev_works
      end

let release i work =
  if not i.persistent then
    Grant_table.unmap_many i.ctx.Xen_ctx.gt ~grantee:i.domain
      (List.map (fun s -> s.Blkif.gref) work.segs)

(* Gather a batch's pages into one buffer / scatter one buffer back.
   Segments and pages are paired positionally and copied straight
   between the pages and the device buffer. *)
let gather works =
  let total = List.fold_left (fun a w -> a + w.total_bytes) 0 works in
  let buf = Bytes.create total in
  let off = ref 0 in
  List.iter
    (fun w ->
      List.iter2
        (fun seg page ->
          let len = Blkif.segment_bytes seg in
          Page.read_into page ~off:(seg.Blkif.first_sect * sector_size) ~len
            buf ~dst_off:!off;
          off := !off + len)
        w.segs w.pages)
    works;
  buf

let scatter works buf =
  let off = ref 0 in
  List.iter
    (fun w ->
      List.iter2
        (fun seg page ->
          let len = Blkif.segment_bytes seg in
          Page.write_from page ~off:(seg.Blkif.first_sect * sector_size) buf
            ~src_off:!off ~len;
          off := !off + len)
        w.segs w.pages)
    works

(* Execute one batch of works sharing an operation and contiguous on the
   device: a single physical operation. *)
let run_batch i r op sector works =
  let total = List.fold_left (fun a w -> a + w.total_bytes) 0 works in
  (match trace i with
  | Some tr ->
      let at = Hypervisor.now (hv i) in
      List.iter
        (fun w ->
          Kite_trace.Trace.span_hop tr ~at ~kind:"blk" ~key:(vbd_name i)
            ~id:w.req.Blkif.req_id ~stage:"device"
            ~args:[ ("merged", string_of_int (List.length works)) ])
        works
  | None -> ());
  (* One submission/completion overhead per (possibly merged) physical
     operation — the term batching amortizes. *)
  Hypervisor.cpu_work (hv i) i.domain i.ov.Overheads.blk_per_request;
  (* Transient device errors (an injected NVMe hiccup) are retried with
     exponential backoff; only after [retries] attempts is the batch
     failed back to the frontend.  A crash mid-batch ([stop] set abruptly)
     makes the worker finish its device op and then do nothing: the
     grants were revoked with the domain and the ring is dead. *)
  let rec perform n =
    try
      (match op with
      | Blkif.Read ->
          let data =
            Kite_devices.Nvme.read i.device ~sector
              ~count:(total / sector_size)
          in
          scatter works data
      | Blkif.Write ->
          Kite_devices.Nvme.write i.device ~sector (gather works)
      | Blkif.Flush -> Kite_devices.Nvme.flush i.device);
      true
    with
    | Kite_devices.Nvme.Transient_error _ when n < i.retries && not i.stop ->
        i.io_retries <- i.io_retries + 1;
        Xen_ctx.note i.ctx ~key:(vbd_name i)
          (Printf.sprintf "blkback.io-retry n=%d" (n + 1));
        Process.sleep (i.retry_backoff * (1 lsl n));
        perform (n + 1)
    | Kite_devices.Nvme.Transient_error _ | Kite_devices.Nvme.Out_of_range _
      ->
        false
  in
  let ok = perform 0 in
  i.inflight <- i.inflight - List.length works;
  if not i.stop then begin
    if ok then begin
      i.device_ops <- i.device_ops + 1;
      List.iter
        (fun w ->
          i.requests <- i.requests + 1;
          r.r_requests <- r.r_requests + 1;
          i.segments <- i.segments + List.length w.segs;
          release i w;
          (match trace i with
          | Some tr ->
              Kite_trace.Trace.span_hop tr
                ~at:(Hypervisor.now (hv i))
                ~kind:"blk" ~key:(vbd_name i) ~id:w.req.Blkif.req_id
                ~stage:"complete" ~args:[]
          | None -> ());
          respond i r w Blkif.status_ok)
        works
    end
    else
      List.iter
        (fun w ->
          release i w;
          respond i r w Blkif.status_error)
        works
  end

(* Group a drained run of requests into batches of device-contiguous,
   same-operation requests (the paper's consecutive-segment batching). *)
let into_batches (i : instance) works =
  if not i.batching then
    List.map (fun w -> (w.req.Blkif.op, w.req.Blkif.sector, [ w ])) works
  else begin
    let batches = ref [] in
    let current = ref None in
    let flush_current () =
      match !current with
      | Some (op, sector, ws) ->
          batches := (op, sector, List.rev ws) :: !batches;
          current := None
      | None -> ()
    in
    (* [end_sector] is where the current batch ends on the device: the
       sector a request must start at to extend it. *)
    let end_sector = ref 0 in
    List.iter
      (fun w ->
        let op = w.req.Blkif.op in
        let sector = w.req.Blkif.sector in
        (match !current with
        | Some (cop, csector, ws)
          when cop = op && op <> Blkif.Flush && !end_sector = sector ->
            current := Some (cop, csector, w :: ws)
        | Some _ ->
            flush_current ();
            current := Some (op, sector, [ w ])
        | None -> current := Some (op, sector, [ w ]));
        end_sector := sector + (w.total_bytes / sector_size))
      works;
    flush_current ();
    List.rev !batches
  end

(* The dedicated request thread of §3.3, one per negotiated ring:
   drains the ring, prepares the run with coalesced grant hypercalls
   and batches it, then hands each batch to an async worker so later
   requests are not blocked behind slow ones. *)
let request_thread i r () =
  let rec drain acc =
    match Ring.take_request r.ring with
    | Some req ->
        (* Explicit dequeue hop: the request leaves the ring here, so
           [ring] measured pure in-ring wait and [backend] starts at
           validation. *)
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.span_hop tr
              ~at:(Hypervisor.now (hv i))
              ~kind:"blk" ~key:(vbd_name i) ~id:req.Blkif.req_id
              ~stage:"backend"
              ~args:[ ("q", string_of_int r.rid) ]
        | None -> ());
        drain (req :: acc)
    | None -> List.rev acc
  in
  let rec loop () =
    if i.stop then ()
    else begin
      (* The shared producer index is frontend-writable memory: refuse
         to walk a ring whose request window is impossible.  A scribbled
         index is unrecoverable (severe) — quarantine offlines the
         device outright rather than spinning on garbage. *)
      let reqs =
        if not (Ring.request_producer_valid r.ring) then begin
          record_fault i ~attack:Guest_fault.Ring_index
            ~detail:
              (Printf.sprintf "ring %d request producer outside the valid \
                               window" r.rid);
          []
        end
        else drain []
      in
      if reqs <> [] then r.spurious <- 0
      else if not i.stop then begin
        (* Notification storms: wakeups that never carry work. *)
        r.spurious <- r.spurious + 1;
        if r.spurious >= storm_threshold then begin
          r.spurious <- 0;
          record_fault i ~attack:Guest_fault.Evtchn_storm
            ~detail:
              (Printf.sprintf "%d consecutive empty notifications"
                 storm_threshold)
        end
      end;
      let works = prepare_run i r reqs in
      if works <> [] then begin
        touch i;
        (match trace i with
        | Some tr ->
            Kite_trace.Trace.driver tr
              ~at:(Hypervisor.now (hv i))
              ~domain:i.domain.Domain.name ~name:"blkback.batch"
              ~args:
                [
                  ("vbd", vbd_name i);
                  ("n", string_of_int (List.length works));
                  ("queue", string_of_int r.rid);
                ]
        | None -> ());
        List.iter
          (fun (op, sector, ws) ->
            Hypervisor.spawn (hv i) i.domain
              ~name:
                (Printf.sprintf "blkback-io-%d.%d" i.frontend.Domain.id
                   i.devid)
              (fun () -> run_batch i r op sector ws))
          (into_batches i works)
      end;
      if (not i.stop) && not (Ring.final_check_for_requests r.ring) then begin
        Condition.wait r.rwake;
        if not i.stop then begin
          charge_wake i;
          throttle_penalty i
        end
      end;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Telemetry: per-vbd instruments, ring-stall probes (aggregate and
   per ring), and the live stats nodes published under the backend
   xenstore path.                                                      *)
(* ------------------------------------------------------------------ *)

let stats_publisher i ~bpath ~interval () =
  let xb = i.ctx.Xen_ctx.xb in
  let put key v =
    Xenbus.write xb i.domain ~path:(bpath ^ "/stats/" ^ key) (string_of_int v)
  in
  let rec loop () =
    Process.sleep interval;
    if not i.stop then begin
      put "requests" i.requests;
      put "segments" i.segments;
      put "device-ops" i.device_ops;
      put "io-retries" i.io_retries;
      put "inflight" i.inflight;
      put "persistent-grants" (Hashtbl.length i.pmap);
      put "num-queues" (Array.length i.rings);
      loop ()
    end
  in
  loop ()

let attach_metrics i ~bpath =
  match i.ctx.Xen_ctx.metrics with
  | None -> ()
  | Some r ->
      let module R = Kite_metrics.Registry in
      let vbd = vbd_name i in
      let l = [ ("vbd", vbd); ("side", "backend") ] in
      R.counter_fn r "kite_blk_requests_total" ~help:"Ring requests completed"
        l
        (fun () -> i.requests);
      R.counter_fn r "kite_blk_segments_total" ~help:"Segments transferred" l
        (fun () -> i.segments);
      R.counter_fn r "kite_blk_device_ops_total"
        ~help:"Physical device operations (after batch merging)" l
        (fun () -> i.device_ops);
      R.counter_fn r "kite_blk_io_retries_total"
        ~help:"Transient device errors retried" l
        (fun () -> i.io_retries);
      R.counter_fn r "kite_blk_indirect_requests_total"
        ~help:"Requests using indirect descriptors" l
        (fun () -> i.indirect_reqs);
      R.counter_fn r "kite_guest_faults_total"
        ~help:"Frontend-supplied values rejected at the trust boundary" l
        (fun () -> Quarantine.faults i.guard);
      R.gauge_fn r "kite_guest_quarantine_level"
        ~help:"0 ok / 1 throttled / 2 detached / 3 offline" l
        (fun () -> float_of_int (Quarantine.level i.guard));
      R.gauge_fn r "kite_blk_inflight"
        ~help:"Requests prepared but not yet completed"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int i.inflight);
      R.gauge_fn r "kite_blk_persistent_grants"
        ~help:"Grants held mapped across requests"
        [ ("vbd", vbd) ]
        (fun () -> float_of_int (Hashtbl.length i.pmap));
      let sum f =
        Array.fold_left (fun acc q -> acc + f q) 0 i.rings |> float_of_int
      in
      R.gauge_fn r "kite_blk_ring_pending" ~help:"Unconsumed ring requests" l
        (fun () -> sum (fun q -> Ring.pending_requests q.ring));
      R.gauge_fn r "kite_blk_ring_free" ~help:"Free request slots" l
        (fun () -> sum (fun q -> Ring.free_requests q.ring));
      R.probe r ~name:"kite_blk_ring_stalled" [ ("vbd", vbd) ]
        (R.stalled_probe
           ~pending:(fun () ->
             if i.stop then 0
             else
               Array.fold_left
                 (fun acc q -> acc + Ring.pending_requests q.ring)
                 0 i.rings)
           ~progress:(fun () -> i.requests)
           ());
      if i.mq_mode then
        Array.iter
          (fun q ->
            let ql = [ ("vbd", vbd); ("queue", string_of_int q.rid) ] in
            R.counter_fn r "kite_blk_queue_requests_total"
              ~help:"Ring requests completed on this queue" ql
              (fun () -> q.r_requests);
            R.gauge_fn r "kite_blk_ring_pending"
              ~help:"Unconsumed ring requests"
              (("side", "backend") :: ql)
              (fun () -> float_of_int (Ring.pending_requests q.ring));
            R.probe r ~name:"kite_blk_ring_stalled" ql
              (R.stalled_probe
                 ~pending:(fun () ->
                   if i.stop then 0 else Ring.pending_requests q.ring)
                 ~progress:(fun () -> q.r_requests)
                 ()))
          i.rings;
      Hypervisor.spawn i.ctx.Xen_ctx.hv i.domain ~daemon:true
        ~name:
          (Printf.sprintf "blkback-stats-%d.%d" i.frontend.Domain.id i.devid)
        (stats_publisher i ~bpath ~interval:(R.interval r))

let make_instance t ~frontend ~devid =
  let ctx = t.sctx in
  let xb = ctx.Xen_ctx.xb in
  let domain = t.sdomain in
  let bpath = Xenbus.backend_path ~backend:domain ~frontend ~ty:"vbd" ~devid in
  let fpath = Xenbus.frontend_path ~frontend ~ty:"vbd" ~devid in
  (* Advertise properties (§4.4 initialization). *)
  Xenbus.write xb domain ~path:(bpath ^ "/sectors")
    (string_of_int (Kite_devices.Nvme.capacity_sectors t.sdevice));
  Xenbus.write xb domain ~path:(bpath ^ "/sector-size")
    (string_of_int sector_size);
  Xenbus.write xb domain ~path:(bpath ^ "/feature-flush-cache") "1";
  Xenbus.write xb domain ~path:(bpath ^ "/feature-persistent")
    (if t.feature_persistent then "1" else "0");
  Xenbus.write xb domain
    ~path:(bpath ^ "/feature-max-indirect-segments")
    (string_of_int (if t.feature_indirect then Blkif.max_indirect_segments else 0));
  Xenbus.write xb domain
    ~path:(bpath ^ "/" ^ Blkif.key_max_queues)
    (string_of_int t.smax_queues);
  Xenbus.write xb domain
    ~path:(bpath ^ "/" ^ Blkif.key_max_ring_page_order)
    (string_of_int t.smax_ring_page_order);
  Xenbus.switch_state xb domain ~path:bpath Xenbus.Init_wait;
  Xenbus.wait_for_state xb domain ~path:fpath Xenbus.Initialised;
  let fid = frontend.Domain.id in
  let device = Printf.sprintf "vbd%d.%d" fid devid in
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
  let front_persistent =
    Xenbus.read xb domain ~path:(fpath ^ "/feature-persistent") = Some "1"
  in
  (* Multi-ring negotiation: a frontend that published
     multi-queue-num-queues gets per-ring keys under queue-<n>/; a
     legacy frontend gets the flat layout.  Never trust the frontend
     past our advertised cap. *)
  let nq_raw = Xenbus.read xb domain ~path:(fpath ^ "/" ^ Blkif.key_num_queues) in
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
  let rings =
    Array.init nq (fun rid ->
        let key k = if mq_mode then Blkif.queue_key rid k else k in
        let ring_ref = want (key "ring-ref") in
        let rport = want (key "event-channel") in
        let bad_ref detail =
          Guest_fault.fail ~domid:fid ~device
            ~attack:Guest_fault.Bad_ring_ref ~detail
        in
        (* A ring reference is only as trustworthy as its owner: it must
           exist, be a blk ring, and have been shared by *this*
           frontend — not hijacked from a neighbour. *)
        (match Blkif.owner_of ctx.Xen_ctx.blkrings ring_ref with
        | None -> bad_ref (Printf.sprintf "unknown ring ref %d" ring_ref)
        | Some d when d <> fid ->
            bad_ref
              (Printf.sprintf "ring ref %d shared by domain %d" ring_ref d)
        | Some _ -> ());
        let ring =
          try Blkif.map ctx.Xen_ctx.blkrings ring_ref
          with Not_found ->
            bad_ref (Printf.sprintf "ref %d is not a blk ring" ring_ref)
        in
        {
          rid;
          ring;
          rport;
          rwake = Condition.create ~label:"blkback ring" ();
          r_requests = 0;
          spurious = 0;
        })
  in
  (* Mapping all the ring pages is pooled into one batched map
     hypercall. *)
  Hypervisor.hypercall ctx.Xen_ctx.hv domain "grant_map"
    ~extra:(nq * (Hypervisor.costs ctx.Xen_ctx.hv).Costs.grant_map);
  Array.iter
    (fun r ->
      try Event_channel.bind ctx.Xen_ctx.ec r.rport domain
      with Event_channel.Evtchn_error msg ->
        Guest_fault.fail ~domid:fid ~device ~attack:Guest_fault.Bad_port
          ~detail:msg)
    rings;
  let i =
    {
      ctx;
      domain;
      frontend;
      devid;
      ov = t.soverheads;
      device = t.sdevice;
      rings;
      mq_mode;
      persistent = t.feature_persistent && front_persistent;
      batching = t.batching;
      pmap = Hashtbl.create 64;
      last_activity = Time.zero;
      retries = t.sretries;
      retry_backoff = t.sretry_backoff;
      requests = 0;
      segments = 0;
      device_ops = 0;
      io_retries = 0;
      indirect_reqs = 0;
      inflight = 0;
      stop = false;
      bpath;
      guard = Quarantine.create ();
      req_ids = Hashtbl.create 64;
      state_guard = None;
    }
  in
  Array.iter
    (fun r ->
      Event_channel.set_handler ctx.Xen_ctx.ec r.rport domain (fun () ->
          Condition.signal r.rwake))
    rings;
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
             ~name:(Printf.sprintf "blkback-guard-%d.%d" fid devid)
             (fun () ->
               if not i.stop then
                 record_fault i ~attack:Guest_fault.Xenbus_jump ~detail)));
  Xenbus.switch_state xb domain ~path:bpath Xenbus.Connected;
  attach_metrics i ~bpath;
  Array.iter
    (fun r ->
      let suffix = if mq_mode then Printf.sprintf ".q%d" r.rid else "" in
      Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true
        ~name:
          (Printf.sprintf "blkback-req-%d.%d%s" frontend.Domain.id devid
             suffix)
        (request_thread i r))
    rings;
  i

(* A frontend whose handshake failed validation: report, refuse to
   serve (drive our directory straight to Closed) and remember it so
   the device is never retried.  Process context. *)
let reject_frontend t ~frontend ~devid ~attack ~detail =
  let domain = t.sdomain in
  let fid = frontend.Domain.id in
  Xen_ctx.guest_fault t.sctx ~handshake:true ~domid:fid
    ~device:(Printf.sprintf "vbd%d.%d" fid devid)
    ~attack ~detail ();
  let bpath = Xenbus.backend_path ~backend:domain ~frontend ~ty:"vbd" ~devid in
  Xenbus.switch_state t.sctx.Xen_ctx.xb domain ~path:bpath Xenbus.Closing;
  Xenbus.switch_state t.sctx.Xen_ctx.xb domain ~path:bpath Xenbus.Closed;
  t.rejected <- (fid, devid) :: t.rejected

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
              (Printf.sprintf "blkback-handshake-%d.%d" front_domid devid)
            (fun () ->
              match make_instance t ~frontend ~devid with
              | i ->
                  if t.stopping then detach_instance i
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
  let base = Printf.sprintf "/local/domain/%d/backend/vbd" t.sdomain.Domain.id in
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

let serve ctx ~domain ~overheads ~device ?(feature_persistent = true)
    ?(feature_indirect = true) ?(batching = true) ?(retries = 4)
    ?(retry_backoff = Time.us 50) ?(max_queues = 8)
    ?(max_ring_page_order = 2) () =
  let t =
    {
      sctx = ctx;
      sdomain = domain;
      soverheads = overheads;
      sdevice = device;
      feature_persistent;
      feature_indirect;
      batching;
      sretries = retries;
      sretry_backoff = retry_backoff;
      smax_queues = max_queues;
      smax_ring_page_order = max_ring_page_order;
      insts = [];
      rejected = [];
      known = [];
      new_frontend = Mailbox.create ~label:"blkback new frontends" ();
      stopping = false;
      watch_id = None;
    }
  in
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~daemon:true ~name:"blkback-watcher"
    (watcher t);
  Hypervisor.spawn ctx.Xen_ctx.hv domain ~name:"blkback-watch-setup"
    (fun () ->
      let base =
        Printf.sprintf "/local/domain/%d/backend/vbd" domain.Domain.id
      in
      t.watch_id <-
        Some
          (Xenbus.watch ctx.Xen_ctx.xb domain ~path:base ~token:"blkback"
             (fun ~path:_ ~token:_ -> scan t)));
  t

let stop t =
  t.stopping <- true;
  (match t.watch_id with
  | Some id ->
      Xenbus.unwatch t.sctx.Xen_ctx.xb id;
      t.watch_id <- None
  | None -> ());
  Mailbox.send t.new_frontend (-1, -1);
  List.iter detach_instance t.insts

(* Abrupt death, as seen when the driver domain is destroyed mid-I/O.
   Unlike [stop] there is no orderly unmap sweep or channel close: the
   hypervisor revokes this domain's grant mappings and tears down its
   event channels ({!Toolstack.crash_driver_domain}).  We only flip the
   flags so request threads and in-flight workers stop touching the dead
   rings, and drop the watch uncharged (the domain can no longer make
   hypercalls). *)
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
      Hashtbl.reset i.pmap;
      Array.iter (fun r -> Condition.broadcast r.rwake) i.rings)
    t.insts
