(** The blkfront/blkback wire protocol (Xen blkif).

    A request carries up to 11 {e direct} segments — the most that fits in
    a ring slot, bounding direct requests at 44 KiB — or an {e indirect}
    descriptor whose grant references point at pages containing packed
    segment descriptors, lifting the limit to [max_indirect_segments]
    pages (Kite follows Linux's cap of 32).  Each segment addresses a
    whole-or-partial 4 KiB page in 512-byte sectors. *)

type operation = Read | Write | Flush

type segment = {
  gref : Kite_xen.Grant_table.ref_;
  first_sect : int;  (** 0..7: first 512-byte sector of the page used *)
  last_sect : int;  (** 0..7: last sector used, inclusive *)
}

type body =
  | Direct of segment list  (** at most {!max_direct_segments} *)
  | Indirect of Kite_xen.Grant_table.ref_ list * int
      (** pages of packed descriptors, and the total segment count *)

type request = {
  req_id : int;
  op : operation;
  sector : int;  (** starting device sector *)
  body : body;
}

type response = { rsp_id : int; status : int }

val status_ok : int
val status_error : int

val max_direct_segments : int
(** 11. *)

val max_indirect_segments : int
(** 32 (Linux-compatible cap; the ABI itself allows 512 per page). *)

val segments_per_indirect_page : int
(** 512. *)

val segment_bytes : segment -> int

val ring_order : int
(** 5 — the classic 32-slot block ring. *)

(** {1 Multi-queue negotiation}

    Same xenstore ABI names as the network side (and as Linux
    xen-blkfront's multi-ring support): the backend advertises
    {!key_max_queues} / {!key_max_ring_page_order} before InitWait, a
    multi-ring frontend answers with {!key_num_queues} /
    {!key_ring_page_order} and puts per-ring references under
    [queue_key q ...].  Absent keys mean the legacy flat layout. *)

val key_max_queues : string
val key_num_queues : string
val key_max_ring_page_order : string
val key_ring_page_order : string

val queue_key : int -> string -> string
(** [queue_key 1 "ring-ref"] is ["queue-1/ring-ref"]. *)

type ring = (request, response) Kite_xen.Ring.t

(** {1 Indirect descriptor encoding}

    Descriptors are packed 8 bytes each into granted pages, exactly like
    the C ABI — blkback genuinely parses bytes out of the shared page. *)

val descriptor_bytes : count:int -> int -> int
(** [descriptor_bytes ~count k] is the number of bytes of packed
    descriptors on indirect page [k] (from 0) of a [count]-segment
    request: [8] per descriptor, at most {!segments_per_indirect_page}
    descriptors per page, [0] for a page past the last descriptor. *)

val pack_segments : segment list -> Bytes.t list
(** One buffer per indirect page, each holding only the descriptors in
    use ([descriptor_bytes ~count k] bytes for page [k]), not a whole
    4 KiB page: the frontend copies it to the start of a fresh granted
    page, whose tail stays zero.  An empty list packs to one empty
    buffer. *)

val unpack_segments : Bytes.t list -> count:int -> segment list
(** Parse [count] descriptors out of per-page buffers laid out as by
    {!pack_segments}; each buffer must hold at least the page's
    [descriptor_bytes ~count k] bytes (a full page's bytes also do).
    Raises [Invalid_argument] if a buffer is too short or missing. *)

(** {1 Shared-ring registry} *)

type registry

val registry : unit -> registry

val share : registry -> owner:int -> ring -> int
(** [owner] is the sharing frontend's domid; the backend validates a
    frontend-advertised reference against it before mapping. *)

val map : registry -> int -> ring
(** Raises [Not_found] on a bogus reference. *)

val owner_of : registry -> int -> int option
(** The domid that shared a reference; [None] for a bogus one. *)
