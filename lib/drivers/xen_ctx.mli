(** Per-machine bundle of the hypervisor services split drivers use.

    The layer fields are filled in one pass by [Scenario.arm], which
    also wires each layer into the machine-wide primitives (scheduler,
    xenstore, event channels, grant table).  Drivers report to whatever
    layers are armed through the cold-path verbs below; they hold no
    knowledge of which layers exist. *)

type t = {
  hv : Kite_xen.Hypervisor.t;
  xb : Kite_xen.Xenbus.t;
  ec : Kite_xen.Event_channel.t;
  gt : Kite_xen.Grant_table.t;
  netrings : Netchannel.registry;
  blkrings : Blkif.registry;
  mutable check : Kite_check.Check.t option;
  mutable trace : Kite_trace.Trace.t option;
  mutable fault : Kite_fault.Fault.t option;
  mutable metrics : Kite_metrics.Registry.t option;
  mutable race : Kite_race.Race.t option;
  mutable flight : Kite_flight.Flight.t option;
  mutable path : Kite_path.Path.t option;
}

val create : Kite_xen.Hypervisor.t -> t
(** A context with no layer armed. *)

(** {1 Reporting verbs}

    Each is a no-op for the layers that are not armed. *)

val instrument_ring : t -> ('req, 'rsp) Kite_xen.Ring.t -> name:string -> unit
(** Attach every armed per-ring instrument (checker, tracer, fault
    injector, race detector) to a freshly built shared ring.  Frontends
    call this as they connect. *)

val note : t -> key:string -> string -> unit
(** A recovery milestone for the fault log (e.g. ["netfront.reconnect"]
    keyed by device). *)

val guest_fault :
  t ->
  ?handshake:bool ->
  domid:int ->
  device:string ->
  attack:Guest_fault.attack ->
  detail:string ->
  unit ->
  unit
(** A frontend input rejected at the trust boundary: a checker finding
    under the attack's rule, an ["adversary"] flight record, and a
    manual incident trigger.  [handshake] (default [false]) marks a
    handshake that failed validation, which is itself an offline
    quarantine with one fault. *)

val quarantined :
  t -> domid:int -> device:string -> action:string -> faults:int -> unit
(** A quarantine escalation: a checker finding and a flight mark. *)

val domain_crashed : t -> Kite_xen.Domain.t -> unit
(** A driver domain was destroyed: a fault note and the recorder's
    crash trigger.  Call before tearing the domain's xenstore subtree
    down, so the incident snapshot still sees it. *)

val domain_restarted : t -> Kite_xen.Domain.t -> unit
(** The driver domain is back up: a fault note and a recorder milestone. *)
