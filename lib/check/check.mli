(** Protocol-invariant checkers for the Kite model layers.

    One {!t} carries the shadow state for a single simulated machine: a
    grant-table sanitizer, a ring protocol lint, a cooperative-scheduler
    monopolization/quiescence detector and a xenstore lint.  The
    instrumented modules ([Grant_table], [Ring], [Xenstore], [Process])
    each hold a [Check.t option] (or {!ring} handle) and call the hooks
    below at their few mutation points — a single [option] test when
    checking is disabled, so benchmarks are unaffected.

    This library sits below [kite_sim]/[kite_xen] in the dependency
    graph, so every hook speaks in plain ints and strings.

    Findings go to the {!Report} shared at {!create} time; several
    machines (scenarios) of one run report into the same report. *)

type config = {
  max_ops_without_block : int;
      (** Instrumented operations a process may perform between blocking
          points before it is flagged as monopolizing the cooperative
          scheduler. *)
}

val default_config : config

type t

val create : ?config:config -> ?name:string -> Report.t -> t
(** [name] labels end-of-run findings (usually the scenario name). *)

val report : t -> Report.t
val name : t -> string

(** {1 Run-wide default}

    [Scenario] consults this when building a testbed: when set, every
    machine it creates is instrumented with a fresh [t] targeting the
    stored report.  [kite_ctl check] and the test suite set it. *)

val set_default : (config * Report.t) option -> unit
val default : unit -> (config * Report.t) option

(** {1 Scheduler hooks (called by [Process])} *)

val proc_spawned : t -> name:string -> daemon:bool -> int
(** Returns the checker-side process id passed to the other hooks. *)

val proc_enter : t -> int -> unit
(** The process starts (or resumes) a step; it becomes the attribution
    target for subsequent hook events. *)

val proc_leave : t -> unit
(** The step ended (the process blocked or exited). *)

val proc_blocked :
  t -> int -> kind:[ `Sleep | `Yield | `Suspend of string option ] -> unit
(** The process performed a blocking operation.  [`Suspend label] is an
    indefinite wait (condition/mailbox); this is where the lost-wakeup
    lint fires for ring consumers that block without re-arming. *)

val proc_exited : t -> int -> unit

(** {1 Grant-table hooks} *)

val grant_granted : t -> gref:int -> granter:int -> grantee:int -> unit
val grant_map : t -> gref:int -> grantee:int -> unit
val grant_unmap : t -> gref:int -> grantee:int -> unit
val grant_end : t -> gref:int -> granter:int -> unit
val grant_copy : t -> gref:int -> unit

(** {1 Ring hooks} *)

type ring
(** Per-ring shadow state (both endpoints share it, like the ring page). *)

type side = [ `Req | `Rsp ]

val ring : t -> name:string -> ring

val ring_push : ring -> side -> used:int -> size:int -> unit
(** Called before the module's own full-ring check; [used >= size] is an
    overflow. *)

val ring_publish : ring -> side -> old_prod:int -> prod:int -> unit
val ring_take : ring -> side -> got:bool -> unit
val ring_final_check : ring -> side -> unit

val mq_claim : t -> dev:string -> queue:int -> slot:int -> unit
(** A multi-queue frontend pushed request [slot] (a device-global id)
    onto [queue].  Emits the [mq-slot-duplicated] error if the slot is
    still in flight on a different queue of the same device — no slot
    may appear in two queues. *)

val mq_release : t -> dev:string -> slot:int -> unit
(** The response for [slot] retired it (or a crash dropped it). *)

(** {1 Xenstore hooks} *)

val watch_added : t -> id:int -> path:string -> token:string -> unit
val watch_removed : t -> id:int -> unit
val tx_opened : t -> id:int -> unit
val tx_closed : t -> id:int -> unit
val write_denied : t -> domid:int -> path:string -> unit

val xenbus_bad_state : t -> path:string -> value:string -> unit
(** An unparsable value in a [.../state] node — a protocol violation the
    xenbus layer would otherwise silently coerce to [Closed]. *)

val xenbus_bad_transition : t -> path:string -> from_:string -> to_:string -> unit
(** A state write that is not a legal edge of the xenbus device state
    machine (see [Xenbus.legal_transition]). *)

(** {1 Trust-boundary hooks}

    Fired by a backend when a frontend-supplied index, reference, length
    or state fails validation.  Detection is the *expected* outcome of an
    adversary campaign, so these are findings about the guest, not the
    model: Warning severity, subsystem ["adversary"]. *)

val guest_fault :
  t -> domid:int -> device:string -> attack:string -> detail:string -> unit
(** One rejected attack primitive.  [attack] is the attack-class slug
    ({!Kite_drivers.Guest_fault.slug}); the finding's rule is
    ["guest-" ^ attack]. *)

val guest_quarantined :
  t -> domid:int -> device:string -> action:string -> faults:int -> unit
(** The backend's quarantine policy escalated: [action] is ["throttle"],
    ["detach"] or ["offline"], after [faults] accumulated guest faults on
    [device].  Rule ["guest-quarantined"]. *)

(** {1 Audits} *)

val quiescence : t -> pending:int -> unit
(** Deadlock report: when the event queue is empty ([pending = 0]) but
    non-daemon processes are still blocked on indefinite waits, name them
    and what they wait on. *)

val finalize : t -> pending:int -> unit
(** End-of-run audit: grants still active / pages still mapped, watches
    never unregistered, transactions left open, plus {!quiescence}. *)
