(** Byte-level helpers for wire formats (big-endian network order). *)

val get_u8 : Bytes.t -> int -> int
val set_u8 : Bytes.t -> int -> int -> unit
val get_u16 : Bytes.t -> int -> int
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int32
val set_u32 : Bytes.t -> int -> int32 -> unit

val checksum : Bytes.t -> off:int -> len:int -> int
(** RFC 1071 Internet checksum of the range (the checksum field itself
    should be zeroed first).  Raises [Invalid_argument] if [off]/[len]
    do not name a range of [b]. *)

val checksum_list : (Bytes.t * int * int) list -> int
(** Checksum over a concatenation of [(b, off, len)] ranges (for
    pseudo-headers), each summed as if it started a 16-bit word.  Raises
    [Invalid_argument] on a range outside its buffer. *)
