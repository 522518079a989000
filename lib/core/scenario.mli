(** Ready-made testbeds mirroring the paper's evaluation setup (Table 2):
    a Xen server machine hosting a driver domain (Kite or Ubuntu flavored)
    and a DomU running the server application, cabled to a bare-metal
    client machine that generates load. *)

type flavor = Kite | Linux

val flavor_name : flavor -> string

val overheads_of : flavor -> Kite_drivers.Overheads.t

val set_schedule_seed : int option -> unit
(** Run-wide schedule-exploration seed: when set, every testbed engine
    built afterwards randomizes the order of same-instant events from
    this seed (PCT-style), letting sweeps rerun one workload under many
    interleavings with the race detector and protocol checker as
    oracles.  [None] (the default) keeps the deterministic FIFO order.
    An explicit [?schedule_seed] argument to {!network}/{!storage}
    overrides it per-testbed. *)

val hypervisor : seed:int -> ?schedule_seed:int -> unit -> Kite_xen.Hypervisor.t
(** The hypervisor every testbed starts from, hand-built ones included:
    seeded with [seed], with its schedule explorer armed from
    [?schedule_seed] when given, else from the run-wide seed
    ({!set_schedule_seed}). *)

val teardown_all : unit -> unit
(** Run the orderly teardown of every testbed built so far: quiesce,
    stop backends, shut down frontends.  When a checker was active
    ({!Kite_check.Check.set_default}) when the testbed was built, the
    end-of-run audits (grant leaks, orphaned watches, open transactions,
    quiescence) run as the last step. *)

val arm : Kite_drivers.Xen_ctx.t -> string -> unit
(** Arm every observability layer whose run-wide sink is set, in one
    pass and in a fixed order: check, race, trace, fault, metrics, path,
    flight.  Each armed layer gets this machine's own instance, named
    by the string tag plus a run-wide sequence number, stored on the
    context and wired into the machine-wide primitives (scheduler,
    xenstore, event channels, grant table); rings and driver state are
    instrumented as drivers connect.  Path comes after trace and metrics
    because it taps the span stream and mirrors into the registry; the
    flight recorder taps every other layer, so it comes last.  Layer
    teardowns (orphaned-span report, sampler stop, incident seal and
    audit) join the {!teardown_all} list.  {!network} and {!storage}
    call this themselves; hand-built testbeds ([Hypervisor.create] +
    [Xen_ctx.create]) call it before spawning drivers, and then
    {!register_teardown}. *)

val register_teardown :
  Kite_drivers.Xen_ctx.t ->
  dd:Kite_xen.Domain.t ->
  stop_backend:(unit -> unit) ->
  shutdown_frontend:(unit -> unit) ->
  unit
(** Add one machine's orderly teardown to the {!teardown_all} list:
    drain in-flight I/O for a simulated second, stop the backend from a
    process in [dd], give its threads a beat to park, shut the frontend
    down, then — when a checker is armed on the context — run its
    end-of-run audits. *)

(** {1 Network domain testbed} *)

type net = {
  hv : Kite_xen.Hypervisor.t;
  ctx : Kite_drivers.Xen_ctx.t;
  sched : Kite_sim.Process.sched;
  dd : Kite_xen.Domain.t;
  domu : Kite_xen.Domain.t;
  guest_stack : Kite_net.Stack.t;
  guest_tcp : Kite_net.Tcp.t;
  client_stack : Kite_net.Stack.t;
  client_tcp : Kite_net.Tcp.t;
  netfront : Kite_drivers.Netfront.t;
  mutable net_app : Kite_drivers.Net_app.t;
      (** Replaced by {!crash_and_restart_net} when the backend domain is
          rebuilt. *)
  server_nic : Kite_devices.Nic.t;
  client_nic : Kite_devices.Nic.t;
  guest_ip : Kite_net.Ipv4addr.t;
}
(** The machine's armed layers live on [ctx] (see {!arm}).  With a
    metrics registry armed, a Dom0 sampler daemon snapshots it on the
    registry interval and a [kite_backend_state] probe alerts if the vif
    backend leaves Connected after the first handshake; with a flight
    recorder armed, a driver-domain crash or a probe alert edge triggers
    an incident snapshot, and teardown seals and audits it. *)

val network :
  ?overheads_override:Kite_drivers.Overheads.t ->
  flavor:flavor ->
  ?seed:int ->
  ?schedule_seed:int ->
  ?num_queues:int ->
  ?impair:Kite_net.Impair.spec ->
  unit ->
  net
(** Build the network-domain testbed; drive it with
    {!Kite_xen.Hypervisor.run_for}.  The netfront handshake happens in
    simulated time — use {!when_net_ready} to sequence load behind it.
    [num_queues] turns on the multi-queue dataplane: the toolstack
    writes the guest-config hint and the frontend negotiates that many
    Tx/Rx ring pairs (capped by netback).  [impair] puts seeded
    loss/reorder/delay on both directions of the cable (streams derived
    from [seed]; {!Kite_net.Impair.none} leaves the link ideal). *)

val network_with_overheads :
  overheads:Kite_drivers.Overheads.t -> ?seed:int -> unit -> net
(** A Kite-shaped network testbed with explicit driver-domain overheads
    (used by the threading ablation). *)

val when_net_ready : net -> (unit -> unit) -> unit
(** Spawn [f] as a client-side process once the frontend is connected. *)

(** {1 Storage domain testbed} *)

type blk = {
  bhv : Kite_xen.Hypervisor.t;
  bctx : Kite_drivers.Xen_ctx.t;
  bsched : Kite_sim.Process.sched;
  bdd : Kite_xen.Domain.t;
  bdomu : Kite_xen.Domain.t;
  blkfront : Kite_drivers.Blkfront.t;
  mutable blk_app : Kite_drivers.Blk_app.t;
      (** Replaced by {!crash_and_restart_blk} when the backend domain is
          rebuilt. *)
  nvme : Kite_devices.Nvme.t;
}
(** Armed layers live on [bctx], as for {!net}; the backend-state probe
    watches the vbd backend. *)

val storage :
  flavor:flavor ->
  ?seed:int ->
  ?schedule_seed:int ->
  ?feature_persistent:bool ->
  ?feature_indirect:bool ->
  ?batching:bool ->
  ?num_queues:int ->
  unit ->
  blk
(** The feature flags exist for the ablation benchmarks.  [num_queues]
    negotiates that many blkif rings (capped by blkback); omitted means
    the legacy single ring. *)

val blockdev : blk -> Kite_vfs.Blockdev.t
(** The guest's paravirtual disk as a {!Kite_vfs.Blockdev} (every
    operation crosses blkfront -> blkback -> NVMe).  The capacity field is
    read at call time, so call this after the handshake has completed
    (e.g. inside {!when_blk_ready}) if you need the geometry. *)

val when_blk_ready : blk -> (unit -> unit) -> unit
(** Spawn [f] as a DomU process once blkfront is connected. *)

(** {1 Crash-and-restart cycles (restart-recovery experiment)} *)

val crash_and_restart_blk :
  blk ->
  flavor:flavor ->
  at:Kite_sim.Time.span ->
  ?on_restored:(downtime:Kite_sim.Time.span -> unit) ->
  unit ->
  unit
(** Schedule a driver-domain crash [at] after now: the backend is
    destroyed mid-I/O ({!Kite_drivers.Blkback.crash} +
    {!Kite_drivers.Toolstack.crash_driver_domain}), rebuilt with
    [flavor]'s boot profile, and the device re-registered; blkfront's own
    recovery re-handshakes and replays its journal.  [on_restored] runs
    (in process context) once the frontend is connected again, with the
    measured crash-to-reconnect downtime. *)

val crash_and_restart_net :
  net ->
  flavor:flavor ->
  at:Kite_sim.Time.span ->
  ?on_restored:(downtime:Kite_sim.Time.span -> unit) ->
  unit ->
  unit
(** Same cycle for the network domain: in-flight frames are lost (a cable
    pull), then Tx/Rx resume against the respawned backend with fresh
    rings and grants. *)
