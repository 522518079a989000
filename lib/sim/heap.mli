(** Binary min-heap keyed by integer priority.

    Used as the event queue of the simulation engine.  Ordering is a
    total, explicitly deterministic (key, prio, seq) comparison: [key]
    first, then [prio] (the schedule explorer's random event priority, 0
    by default), then a stable per-insertion sequence number.  Equal
    (key, prio) entries therefore pop in insertion order, and any run
    making identical insertions replays byte-for-byte.

    Entries are stored struct-of-arrays (unboxed key/prio/seq columns
    beside one value column), so {!add}, {!top_key} and {!pop} allocate
    nothing except when the capacity doubles.  A popped value is no
    longer referenced by the heap. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty heap.  [dummy] fills unused value slots; it is never
    returned. *)

val is_empty : 'a t -> bool

val size : 'a t -> int

val add : 'a t -> key:int -> ?prio:int -> 'a -> unit
(** [add h ~key ?prio v] inserts [v] with primary priority [key] and
    secondary priority [prio] (default 0). *)

val top_key : 'a t -> int
(** Key of the minimum entry.  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove the minimum entry, following the deterministic
    (key, prio, insertion-order) ordering above, and return its value.
    Read its key with {!top_key} first.  Raises [Invalid_argument] when
    empty. *)
