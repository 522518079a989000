(** Blkback: Kite's from-scratch storage backend driver.

    One instance per blkfront.  Implements the paper's §3.3/§4.4 design:

    - a dedicated request thread woken by the event handler drains all
      pending ring requests;
    - requests complete {e asynchronously} — each is handed to its own
      worker, so a slow request does not block the ones behind it;
    - {e batching}: consecutive segments (within and across requests
      drained together) become a single physical device operation;
    - {e persistent references}: with the feature negotiated, data pages
      stay mapped and a lookup table reuses mappings (modelled by the
      grant table's map fast path) instead of paying map/unmap hypercalls
      per request;
    - {e indirect segments}: descriptor pages are mapped and parsed,
      lifting requests to 32 segments (128 KiB);
    - {e multi-ring}: a frontend that negotiates
      [multi-queue-num-queues] gets up to [max_queues] independent
      rings, each with its own event channel and request thread, and
      grant map/unmap hypercalls are coalesced across every request of
      a drained ring run. *)

type t
type instance

val serve :
  Xen_ctx.t ->
  domain:Kite_xen.Domain.t ->
  overheads:Overheads.t ->
  device:Kite_devices.Nvme.t ->
  ?feature_persistent:bool ->
  ?feature_indirect:bool ->
  ?batching:bool ->
  ?retries:int ->
  ?retry_backoff:Kite_sim.Time.span ->
  ?max_queues:int ->
  ?max_ring_page_order:int ->
  unit ->
  t
(** Start the backend in [domain], exporting [device].  Flags exist for
    the ablation benchmarks; they default to on, matching Kite.
    Transient device errors (fault-injected NVMe hiccups) are retried up
    to [retries] times with exponential backoff starting at
    [retry_backoff] (defaults: 4, 50 us).  [max_queues] (default 8) and
    [max_ring_page_order] (default 2) cap what multi-ring frontends may
    negotiate; legacy frontends are unaffected. *)

val stop : t -> unit
(** Orderly teardown: unregister the directory watch, retire the watcher
    and request threads, unmap all persistent grants and close the event
    channels.  Call from process context after I/O has quiesced. *)

val crash : t -> unit
(** Abrupt death (driver-domain destroyed mid-I/O): stop threads from
    touching the rings and drop bookkeeping, but perform no orderly
    unmap/close — {!Toolstack.crash_driver_domain} revokes grants and
    event channels at the hypervisor.  Safe from any context. *)

val instances : t -> instance list

val rejected : t -> (int * int) list
(** (frontend domid, devid) pairs whose handshake failed trust-boundary
    validation: the backend reported a {!Guest_fault}, drove its own
    directory to Closed and will never serve the device. *)

val frontend_domid : instance -> int
val devid : instance -> int

val quarantine : instance -> Quarantine.t
(** The device's misbehavior ledger: fault counts per attack class and
    the current escalation level (throttle / detach / offline).  Every
    frontend-supplied ring index, grant reference, segment descriptor,
    request id, negotiation key and xenbus state is validated at the
    trust boundary; each violation is a typed {!Guest_fault} reported
    via {!Xen_ctx.guest_fault} and fed to this ledger. *)

val requests_served : instance -> int
val segments_served : instance -> int
val device_ops : instance -> int
(** Physical operations issued; < requests when batching merges them. *)

val io_retries : instance -> int
(** Device operations re-attempted after a transient error. *)

val indirect_requests : instance -> int
(** Requests that arrived as indirect descriptors. *)

val inflight : instance -> int
(** Requests prepared but not yet completed (in the device or queued). *)

val persistent_grants : instance -> int
(** Grants currently held mapped across requests (§3.3 table size). *)

val num_queues : instance -> int
(** Negotiated ring count (1 for legacy frontends). *)
