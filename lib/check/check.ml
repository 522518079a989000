type config = { max_ops_without_block : int }

let default_config = { max_ops_without_block = 10_000 }

type grant_entry = {
  g_granter : int;
  g_grantee : int;
  mutable g_mapped : bool;
  mutable g_revoked : bool;
}

type proc = {
  p_id : int;
  p_name : string;
  p_daemon : bool;
  mutable p_blocked_on : string option;  (* Some label iff suspended *)
  mutable p_ops : int;
  mutable p_hog_reported : bool;
}

type side = [ `Req | `Rsp ]

type side_state = {
  mutable needs_rearm : bool;
      (* a take succeeded since the consumer last ran final_check *)
  mutable last_consumer : int;  (* pid, -1 = none / interrupt context *)
  mutable lw_reported : bool;
}

type ring = { rc : t; r_name : string; r_req : side_state; r_rsp : side_state }

and t = {
  config : config;
  report : Report.t;
  name : string;
  grants : (int, grant_entry) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  mutable cur : proc option;
  mutable rings : ring list;
  watches : (int, string * string) Hashtbl.t;  (* id -> (path, token) *)
  txs : (int, unit) Hashtbl.t;
  mq_slots : (string * int, int) Hashtbl.t;  (* (device, slot) -> queue *)
}

let create ?(config = default_config) ?(name = "-") report =
  {
    config;
    report;
    name;
    grants = Hashtbl.create 64;
    procs = Hashtbl.create 32;
    next_pid = 0;
    cur = None;
    rings = [];
    watches = Hashtbl.create 8;
    txs = Hashtbl.create 4;
    mq_slots = Hashtbl.create 64;
  }

let report t = t.report
let name t = t.name

let default_ref : (config * Report.t) option ref = ref None
let set_default v = default_ref := v
let default () = !default_ref

let cur_name t = match t.cur with Some p -> p.p_name | None -> "-"

let emit t severity subsystem rule ?prov fmt =
  let provenance = match prov with Some p -> p | None -> cur_name t in
  Printf.ksprintf
    (fun message ->
      Report.add t.report
        { Report.severity; subsystem; rule; provenance; message })
    fmt

(* Every hook call is one "instrumented operation" attributed to the
   running process; a long run of them without a blocking point is the
   monopolization hazard Kite's pusher/soft_start threads avoid. *)
let account t =
  match t.cur with
  | None -> ()
  | Some p ->
      p.p_ops <- p.p_ops + 1;
      if (not p.p_hog_reported) && p.p_ops > t.config.max_ops_without_block
      then begin
        p.p_hog_reported <- true;
        emit t Report.Warning "sched" "sched-hog" ~prov:p.p_name
          "process performed %d instrumented operations without \
           yield/sleep/block (limit %d): monopolizes the cooperative \
           scheduler"
          p.p_ops t.config.max_ops_without_block
      end

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let proc_spawned t ~name ~daemon =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Hashtbl.replace t.procs pid
    {
      p_id = pid;
      p_name = name;
      p_daemon = daemon;
      p_blocked_on = None;
      p_ops = 0;
      p_hog_reported = false;
    };
  pid

let proc_enter t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p ->
      p.p_blocked_on <- None;
      t.cur <- Some p
  | None -> t.cur <- None

let proc_leave t = t.cur <- None

let check_lost_wakeup t (p : proc) =
  let side r = function `Req -> r.r_req | `Rsp -> r.r_rsp in
  let side_fn = function
    | `Req -> "final_check_for_requests"
    | `Rsp -> "final_check_for_responses"
  in
  List.iter
    (fun r ->
      List.iter
        (fun sd ->
          let s = side r sd in
          if s.needs_rearm && s.last_consumer = p.p_id && not s.lw_reported
          then begin
            s.lw_reported <- true;
            emit t Report.Error "ring" "ring-lost-wakeup" ~prov:p.p_name
              "consumer of ring %s blocked without re-arming notifications \
               (%s): lost-wakeup hazard"
              r.r_name (side_fn sd)
          end)
        [ `Req; `Rsp ])
    t.rings

let proc_blocked t pid ~kind =
  match Hashtbl.find_opt t.procs pid with
  | None -> ()
  | Some p -> (
      p.p_ops <- 0;
      match kind with
      | `Sleep | `Yield -> p.p_blocked_on <- None
      | `Suspend label ->
          p.p_blocked_on <-
            Some (Option.value label ~default:"unlabelled suspension");
          check_lost_wakeup t p)

let proc_exited t pid = Hashtbl.remove t.procs pid

(* ------------------------------------------------------------------ *)
(* Grant table                                                         *)
(* ------------------------------------------------------------------ *)

let grant_granted t ~gref ~granter ~grantee =
  account t;
  Hashtbl.replace t.grants gref
    { g_granter = granter; g_grantee = grantee; g_mapped = false;
      g_revoked = false }

let bad_ref t op gref =
  emit t Report.Error "grant" "grant-bad-ref" "%s of unknown grant ref %d" op
    gref

let use_after_revoke t op gref e =
  emit t Report.Error "grant" "grant-use-after-revoke"
    "%s of revoked grant %d (was domain %d -> domain %d)" op gref e.g_granter
    e.g_grantee

let grant_map t ~gref ~grantee =
  account t;
  match Hashtbl.find_opt t.grants gref with
  | None -> bad_ref t "map" gref
  | Some e when e.g_revoked -> use_after_revoke t "map" gref e
  | Some e ->
      (* Mapping while already mapped is the persistent-reference fast
         path, not a violation.  A wrong-grantee map is rejected by the
         grant table itself, so do not transition shadow state for it. *)
      if e.g_grantee = grantee then e.g_mapped <- true

let grant_unmap t ~gref ~grantee =
  account t;
  match Hashtbl.find_opt t.grants gref with
  | None -> bad_ref t "unmap" gref
  | Some e when e.g_revoked -> use_after_revoke t "unmap" gref e
  | Some e when e.g_grantee <> grantee -> ()
  | Some e when not e.g_mapped ->
      emit t Report.Error "grant" "grant-double-unmap"
        "unmap of grant %d (domain %d -> domain %d) which is not mapped" gref
        e.g_granter e.g_grantee
  | Some e -> e.g_mapped <- false

let grant_end t ~gref ~granter =
  account t;
  match Hashtbl.find_opt t.grants gref with
  | None -> bad_ref t "end_access" gref
  | Some e when e.g_revoked -> use_after_revoke t "end_access" gref e
  | Some e when e.g_granter <> granter -> ()
  | Some e when e.g_mapped ->
      emit t Report.Error "grant" "grant-end-while-mapped"
        "end_access of grant %d (domain %d -> domain %d) while the grantee \
         still has it mapped"
        gref e.g_granter e.g_grantee
  | Some e -> e.g_revoked <- true

let grant_copy t ~gref =
  account t;
  match Hashtbl.find_opt t.grants gref with
  | None -> bad_ref t "grant copy" gref
  | Some e when e.g_revoked -> use_after_revoke t "grant copy" gref e
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

let ring t ~name =
  let fresh () = { needs_rearm = false; last_consumer = -1;
                   lw_reported = false } in
  let r = { rc = t; r_name = name; r_req = fresh (); r_rsp = fresh () } in
  t.rings <- r :: t.rings;
  r

let side r = function `Req -> r.r_req | `Rsp -> r.r_rsp

let side_name = function `Req -> "request" | `Rsp -> "response"

let ring_push r sd ~used ~size =
  account r.rc;
  if used >= size then
    emit r.rc Report.Error "ring" "ring-overflow"
      "push on the %s side of ring %s with %d/%d slots used: overflow"
      (side_name sd) r.r_name used size

let ring_publish r sd ~old_prod ~prod =
  account r.rc;
  if prod < old_prod then
    emit r.rc Report.Error "ring" "ring-producer-regression"
      "%s producer index of ring %s moved backwards (%d -> %d)"
      (side_name sd) r.r_name old_prod prod

let ring_take r sd ~got =
  account r.rc;
  if got then begin
    let s = side r sd in
    s.needs_rearm <- true;
    s.last_consumer <-
      (match r.rc.cur with Some p -> p.p_id | None -> -1)
  end

let ring_final_check r sd =
  account r.rc;
  (side r sd).needs_rearm <- false

(* ------------------------------------------------------------------ *)
(* Multi-queue slot ownership                                          *)
(*                                                                     *)
(* A multi-queue device's request identifiers are device-global; each  *)
(* one must be in flight on at most one queue at a time.  Frontends    *)
(* claim the slot when they push the request and release it when the   *)
(* response (or a crash) retires it; a claim landing on a different    *)
(* queue while the slot is still live means the steering function or   *)
(* the replay path double-issued it.                                   *)
(* ------------------------------------------------------------------ *)

let mq_claim t ~dev ~queue ~slot =
  account t;
  (match Hashtbl.find_opt t.mq_slots (dev, slot) with
  | Some q when q <> queue ->
      emit t Report.Error "ring" "mq-slot-duplicated"
        "slot %d of %s claimed by queue %d while still in flight on queue %d"
        slot dev queue q
  | Some _ | None -> ());
  Hashtbl.replace t.mq_slots (dev, slot) queue

let mq_release t ~dev ~slot =
  account t;
  Hashtbl.remove t.mq_slots (dev, slot)

(* ------------------------------------------------------------------ *)
(* Xenstore                                                            *)
(* ------------------------------------------------------------------ *)

let watch_added t ~id ~path ~token =
  account t;
  Hashtbl.replace t.watches id (path, token)

let watch_removed t ~id =
  account t;
  Hashtbl.remove t.watches id

let tx_opened t ~id =
  account t;
  Hashtbl.replace t.txs id ()

let tx_closed t ~id =
  account t;
  Hashtbl.remove t.txs id

let write_denied t ~domid ~path =
  account t;
  emit t Report.Info "xenstore" "xs-write-denied"
    "domain %d denied write to %s" domid path

let xenbus_bad_state t ~path ~value =
  account t;
  emit t Report.Error "xenstore" "xenbus-bad-state"
    "unparsable xenbus state %S at %s (coerced to Closed)" value path

let xenbus_bad_transition t ~path ~from_ ~to_ =
  account t;
  emit t Report.Warning "xenstore" "xenbus-bad-transition"
    "illegal xenbus state transition %s -> %s at %s" from_ to_ path

(* ------------------------------------------------------------------ *)
(* Trust-boundary (byzantine frontend) hooks                           *)
(* ------------------------------------------------------------------ *)

let guest_fault t ~domid ~device ~attack ~detail =
  account t;
  emit t Report.Warning "adversary"
    ("guest-" ^ attack)
    "domain %d on %s: %s rejected at the trust boundary (%s)" domid device
    attack detail

let guest_quarantined t ~domid ~device ~action ~faults =
  account t;
  emit t Report.Warning "adversary" "guest-quarantined"
    "quarantine %s: domain %d on %s after %d guest fault(s)" action domid
    device faults

(* ------------------------------------------------------------------ *)
(* Audits                                                              *)
(* ------------------------------------------------------------------ *)

let quiescence t ~pending =
  if pending = 0 then begin
    let blocked =
      Hashtbl.fold
        (fun _ p acc ->
          match p.p_blocked_on with
          | Some what when not p.p_daemon -> (p.p_name, what) :: acc
          | _ -> acc)
        t.procs []
      |> List.sort compare
    in
    if blocked <> [] then
      emit t Report.Warning "sched" "sched-quiescence" ~prov:t.name
        "event queue is empty but %d process(es) are still blocked: %s"
        (List.length blocked)
        (String.concat "; "
           (List.map (fun (n, w) -> Printf.sprintf "%s (on %s)" n w) blocked))
  end

let finalize t ~pending =
  (* Group leaked grants by (granter, grantee) so a leaked pool reads as
     one finding with provenance, not hundreds. *)
  let groups = Hashtbl.create 8 in
  Hashtbl.iter
    (fun gref e ->
      if not e.g_revoked then begin
        let key = (e.g_granter, e.g_grantee) in
        let total, mapped, refs =
          Option.value (Hashtbl.find_opt groups key) ~default:(0, 0, [])
        in
        Hashtbl.replace groups key
          (total + 1, (mapped + if e.g_mapped then 1 else 0), gref :: refs)
      end)
    t.grants;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) groups []
  |> List.sort compare
  |> List.iter (fun ((granter, grantee), (total, mapped, refs)) ->
         let refs = List.sort compare refs in
         let sample =
           List.filteri (fun i _ -> i < 8) refs
           |> List.map string_of_int |> String.concat ","
         in
         let sample = if total > 8 then sample ^ ",..." else sample in
         emit t Report.Error "grant" "grant-leak" ~prov:t.name
           "domain %d leaked %d grant(s) to domain %d (%d still mapped; \
            refs %s)"
           granter total grantee mapped sample);
  Hashtbl.fold (fun id pt acc -> (id, pt) :: acc) t.watches []
  |> List.sort compare
  |> List.iter (fun (id, (path, token)) ->
         emit t Report.Warning "xenstore" "xs-orphan-watch" ~prov:t.name
           "watch %d on %s (token %S) was never unregistered" id path token);
  Hashtbl.fold (fun id () acc -> id :: acc) t.txs []
  |> List.sort compare
  |> List.iter (fun id ->
         emit t Report.Warning "xenstore" "xs-open-tx" ~prov:t.name
           "transaction %d left open (never committed or aborted)" id);
  quiescence t ~pending
