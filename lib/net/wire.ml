let get_u8 b i = Char.code (Bytes.get b i)
let set_u8 b i v = Bytes.set b i (Char.chr (v land 0xff))

let get_u16 b i = (get_u8 b i lsl 8) lor get_u8 b (i + 1)

let set_u16 b i v =
  set_u8 b i ((v lsr 8) land 0xff);
  set_u8 b (i + 1) (v land 0xff)

let get_u32 b i =
  let a = Int32.of_int (get_u16 b i) in
  let c = Int32.of_int (get_u16 b (i + 2)) in
  Int32.logor (Int32.shift_left a 16) c

let set_u32 b i v =
  set_u16 b i (Int32.to_int (Int32.shift_right_logical v 16) land 0xffff);
  set_u16 b (i + 2) (Int32.to_int v land 0xffff)

(* One's-complement partial sum of the range as big-endian 16-bit words
   (a trailing odd byte is the high half of a zero-padded word), read
   32 bits at a time: adding a word's two halves gives the same sum as
   two 16-bit reads. *)
let sum_range acc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Wire.checksum: range out of bounds";
  let acc = ref acc in
  let i = ref off in
  let words_end = off + (len land lnot 3) in
  while !i < words_end do
    let w = Int32.to_int (Bytes.get_int32_be b !i) land 0xffff_ffff in
    acc := !acc + (w lsr 16) + (w land 0xffff);
    i := !i + 4
  done;
  if len land 2 <> 0 then begin
    acc := !acc + Bytes.get_uint16_be b !i;
    i := !i + 2
  end;
  if len land 1 <> 0 then acc := !acc + (Bytes.get_uint8 b !i lsl 8);
  !acc

let fold_carries acc =
  let acc = ref acc in
  while !acc lsr 16 <> 0 do
    acc := (!acc land 0xffff) + (!acc lsr 16)
  done;
  lnot !acc land 0xffff

let checksum b ~off ~len = fold_carries (sum_range 0 b off len)

let checksum_list ranges =
  (* Odd-length intermediate ranges would need byte-shifting across range
     boundaries; all our pseudo-header ranges are even-length except
     possibly the final payload, so sum ranges independently.  This is the
     same simplification real stacks make by padding. *)
  let acc =
    List.fold_left (fun acc (b, off, len) -> sum_range acc b off len) 0 ranges
  in
  fold_carries acc
