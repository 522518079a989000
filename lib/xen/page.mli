(** Machine pages.

    A page is a 4 KiB byte buffer with a machine frame number.  Sharing a
    page between domains (the effect of mapping a grant) is modelled by
    sharing the same [Page.t] value. *)

val size : int
(** 4096. *)

type t

val frame : t -> int
(** Machine frame number; unique per page. *)

val alloc : unit -> t
(** A fresh zeroed page. *)

val read : t -> off:int -> len:int -> Bytes.t
(** Copy out of the page.  Raises [Invalid_argument] if out of bounds. *)

val write : t -> off:int -> Bytes.t -> unit
(** Copy into the page.  Raises [Invalid_argument] if out of bounds. *)

val read_into : t -> off:int -> len:int -> Bytes.t -> dst_off:int -> unit
(** [read_into t ~off ~len dst ~dst_off] copies [len] bytes at [off] in
    the page to [dst] at [dst_off], with no intermediate buffer.  The
    page range is checked as by {!read} ([Invalid_argument] if out of
    bounds) and the race detector sees the same access, site
    ["Page.read"]. *)

val write_from : t -> off:int -> Bytes.t -> src_off:int -> len:int -> unit
(** [write_from t ~off src ~src_off ~len] copies [len] bytes of [src]
    from [src_off] into the page at [off], with no intermediate buffer.
    Checked as by {!write} ([Invalid_argument] if out of bounds); the race
    detector sees site ["Page.write"]. *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit

val fill : t -> char -> unit

val contents : t -> Bytes.t
(** The page's backing buffer (not a copy). *)
