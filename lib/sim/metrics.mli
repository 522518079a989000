(** Named counters and time accounting for a simulation run.

    One [Metrics.t] per scenario collects hypercall counts, packet/request
    counts, bytes moved, and per-resource busy time (used for the CPU
    utilization figures). *)

type t

val create : unit -> t

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val count : t -> string -> int
(** [count t name] is the accumulated value; 0 if never touched. *)

val add_busy : t -> string -> Time.span -> unit
(** Record that the named resource was busy for the span. *)

type cell
(** A counter or busy-time slot named once, for hot paths that would
    otherwise build and hash the same name on every update. *)

val counter_cell : t -> string -> cell
(** [counter_cell t name] names the counter [name] without creating it.
    [bump c n] then behaves as [add t name n]. *)

val busy_cell : t -> string -> cell
(** [busy_cell t name] names the busy-time resource [name] without
    creating it.  [bump c span] then behaves as [add_busy t name span]. *)

val bump : cell -> int -> unit
(** Add to the cell's counter or busy time.  The named entry appears in
    {!names}/{!busy_names} at the first [bump], as with {!add} and
    {!add_busy}; later bumps skip the name lookup.  Cells stay valid
    across {!reset}, after which the next [bump] re-creates the entry. *)

val busy : t -> string -> Time.span

val utilization : t -> string -> total:Time.span -> float
(** Busy fraction in [\[0, 1\]] over a window of the given length. *)

val record_sample : t -> string -> float -> unit
(** Append a sample to a named series (latencies, throughputs, ...). *)

val samples : t -> string -> float list
(** All samples of the named series, {e guaranteed} to be in recording
    order (the order of the {!record_sample} calls), oldest first; [] if
    the series was never touched. *)

val summary_opt : t -> string -> Kite_stats.Summary.t option
(** Summary statistics over {!samples}, so experiment code does not
    hand-roll percentile math from raw sample lists; [None] when the
    series is empty or absent.  Prefer this total variant in new code. *)

val summary : t -> string -> Kite_stats.Summary.t
(** As {!summary_opt} but raising [Invalid_argument] when the series is
    empty or absent. *)

val names : t -> string list
(** Counter names only ({!incr}/{!add} keys), sorted.  Busy-time and
    sample-series keys live in their own namespaces — see {!busy_names}
    and {!series_names}. *)

val busy_names : t -> string list
(** All {!add_busy} resource names, sorted. *)

val series_names : t -> string list
(** All {!record_sample} series names, sorted — so exposition layers can
    enumerate every series without guessing keys.  Like {!names} and
    {!busy_names}, each name appears exactly once even if the backing
    table picked up shadowed bindings. *)

val labelled : string -> (string * string) list -> string
(** Canonical key for a labelled family: [labelled "tx" [("q","0")]] is
    ["tx{q=\"0\"}"], with labels sorted by label name so every ordering
    of the same label set maps to the same key.  Use this to build
    per-queue (or otherwise labelled) counter/series names that must be
    counted once per family. *)

val reset : t -> unit

val pp : Format.formatter -> t -> unit
(** Dump all counters, busy times and sample counts. *)
