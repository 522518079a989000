(** NVMe SSD model (the paper's Samsung 970 EVO Plus).

    Sector-addressable sparse storage with a queued service model: a pool
    of [queue_depth] workers serves submitted commands; a command's
    service time is a fixed base latency plus a bandwidth-proportional
    transfer time.  Reads of never-written sectors return zeroes, like a
    fresh drive.

    The medium is stored sparsely in zero-initialised 4 KiB chunks keyed
    by [sector / 8], allocated on the first write that touches them.
    Commands copy between their buffer and the chunks with one blit per
    chunk a transfer touches; a read of a never-written chunk fills zeroes
    without allocating.  The store shares no buffer with any caller. *)

type t

val sector_size : int
(** 512 bytes. *)

val create :
  Kite_sim.Process.sched ->
  Kite_sim.Metrics.t ->
  name:string ->
  ?capacity_sectors:int ->
  ?queue_depth:int ->
  ?read_base:Kite_sim.Time.span ->
  ?write_base:Kite_sim.Time.span ->
  ?cmd_overhead:Kite_sim.Time.span ->
  ?bandwidth_mbps:float ->
  unit ->
  t
(** Defaults: 500 GB, queue depth 32, 25 us read / 30 us write base
    latency, 4 us serialized controller work per command, 1500 MB/s
    sustained bandwidth.  Base latencies overlap across the queue;
    per-command work and transfer time serialize on the media. *)

val name : t -> string
val capacity_sectors : t -> int

exception Out_of_range of string

exception Transient_error of string
(** A retryable command failure, produced only by an attached fault
    injector ([Device_io]; key = device name).  Raised at submission, so
    a retry resubmits the whole command. *)

val set_fault : t -> Kite_fault.Fault.t option -> unit

val read : t -> sector:int -> count:int -> Bytes.t
(** Blocking (process context): returns a fresh buffer of [count * 512]
    bytes, filled when the command is served. *)

val write : t -> sector:int -> Bytes.t -> unit
(** Blocking; data length must be a multiple of the sector size.  The
    data is copied into the store when the command is served, so the
    caller may reuse the buffer once [write] returns. *)

val flush : t -> unit
(** Blocking cache flush barrier. *)

val reads : t -> int
val writes : t -> int
val bytes_read : t -> int
val bytes_written : t -> int
