(** Condition variables for cooperative processes.

    Waiters are FIFO.  Because the simulation is single-threaded there are
    no lost-wakeup races, but [broadcast] can still cause spurious wakeups
    relative to a predicate, so callers should re-check their condition in
    a loop as usual. *)

type t

val create : ?label:string -> unit -> t
(** [label] names the condition in the checker's deadlock report. *)

val wait : t -> unit
(** Block the calling process until {!signal} or {!broadcast}. *)

val timed_wait : t -> Time.span -> [ `Signaled | `Timeout ]
(** Like {!wait} but gives up after the span elapses. *)

val signal : t -> unit
(** Wake the oldest waiter, if any.  Callable from any context. *)

val broadcast : t -> unit
(** Wake all current waiters. *)

val waiters : t -> int
(** Number of processes currently blocked. *)

val chan : t -> string
(** The race detector's release/acquire channel for this condition:
    ["cond:<id>:<label>"], or ["cond:<id>"] without a label, where [id]
    numbers conditions in creation order.  Built on first use, so
    conditions that never meet a live detector never format it. *)
