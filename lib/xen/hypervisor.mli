(** The hypervisor: the only trusted component of the stack.

    Owns the simulated machine — engine, scheduler, domains, the xenstore
    database, and the hypercall cost model.  All hypercall-shaped
    operations of the other modules go through {!hypercall} so that
    every experiment accounts hypercall counts and time uniformly. *)

type t

val create :
  ?costs:Costs.t -> ?seed:int -> ?schedule_seed:int -> unit -> t
(** A fresh machine with an empty event queue, a Dom0, and an empty
    xenstore.  [costs] defaults to {!Costs.default}.  [schedule_seed]
    arms the engine's schedule explorer (see {!Kite_sim.Engine.create}):
    same-instant events run in a seed-determined random permutation
    instead of FIFO order. *)

val engine : t -> Kite_sim.Engine.t
val sched : t -> Kite_sim.Process.sched
val metrics : t -> Kite_sim.Metrics.t
val costs : t -> Costs.t
val store : t -> Xenstore.t
val rng : t -> Kite_sim.Rng.t

val now : t -> Kite_sim.Time.t

val set_trace : t -> Kite_trace.Trace.t option -> unit
(** Attach (or detach) an event tracer for this machine: {!hypercall} /
    {!cpu_work} emit cost events, and the scheduler's tracer is set so
    that processes spawned afterwards are tracked (see
    {!Kite_sim.Process.set_trace}).  [None] (the default) restores the
    uninstrumented behaviour. *)

val trace : t -> Kite_trace.Trace.t option
(** The currently attached tracer, for layers that hook their own
    events (event channels, rings, drivers). *)

val set_path : t -> Kite_path.Path.t option -> unit
(** Attach (or detach) a critical-path attribution engine: every vCPU
    occupancy charge is attributed per domain per process (the
    continuous profiler), and the scheduler's engine reference is set so
    processes maintain the current-process stack (see
    {!Kite_sim.Process.set_path}).  [None] (the default) restores the
    uninstrumented behaviour. *)

val set_metrics : t -> Kite_metrics.Registry.t option -> unit
(** Attach (or detach) a metric registry for this machine.  Registers
    polled scheduler gauges (live processes, engine queue depth) and a
    per-domain vCPU busy-time counter for every current and future
    domain; all are closures read at sampling time, so the hot path is
    untouched. *)

val metrics_registry : t -> Kite_metrics.Registry.t option
(** The currently attached registry, for layers that register their own
    instruments (grant table, event channels, drivers). *)

val dom0 : t -> Domain.t

val create_domain :
  t -> name:string -> kind:Domain.kind -> vcpus:int -> mem_mb:int -> Domain.t

val domains : t -> Domain.t list
(** All domains, Dom0 first, then in creation order. *)

val find_domain : t -> int -> Domain.t option

val spawn :
  t -> Domain.t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
(** Start a process belonging to a domain; the process name is prefixed
    with the domain name for diagnostics.  [daemon] marks service loops
    the checker's quiescence report skips. *)

val hypercall : t -> Domain.t -> string -> extra:Kite_sim.Time.span -> unit
(** [hypercall hv dom name ~extra] models [dom] making hypercall [name]
    at a cost of [span = hypercall_base + extra]: the
    ["hypercall.<name>"] counter increments, the domain's
    ["vcpu.<name>"] busy time grows by [span], and the calling process
    sleeps for [span] on one of the domain's vCPUs, queueing behind its
    other work.  With a tracer attached the charge is also recorded
    against the domain (op ["hypercall.<name>"]).  Must run in process
    context. *)

val cpu_work : t -> Domain.t -> Kite_sim.Time.span -> unit
(** Plain computation on the domain's vCPU (no hypercall counter). *)

val run : t -> unit
val run_for : t -> Kite_sim.Time.span -> unit
