type operation = Read | Write | Flush

type segment = {
  gref : Kite_xen.Grant_table.ref_;
  first_sect : int;
  last_sect : int;
}

type body =
  | Direct of segment list
  | Indirect of Kite_xen.Grant_table.ref_ list * int

type request = { req_id : int; op : operation; sector : int; body : body }

type response = { rsp_id : int; status : int }

let status_ok = 0
let status_error = -1

let max_direct_segments = 11
let max_indirect_segments = 32
let segments_per_indirect_page = 512

let segment_bytes s = (s.last_sect - s.first_sect + 1) * 512

let ring_order = 5

(* Multi-queue negotiation keys — same ABI names as the network side
   (and as Linux xen-blkfront's multi-ring support). *)
let key_max_queues = "multi-queue-max-queues"
let key_num_queues = "multi-queue-num-queues"
let key_max_ring_page_order = "max-ring-page-order"
let key_ring_page_order = "multi-ring-page-order"
let queue_key q key = Printf.sprintf "queue-%d/%s" q key

type ring = (request, response) Kite_xen.Ring.t

(* 8 bytes per descriptor: gref u32 | first u8 | last u8 | pad u16. *)
let descriptor_size = 8

(* Descriptor bytes in use on indirect page [k] of a [count]-segment
   request: the tail of a granted page past the last descriptor is never
   read, so neither side materialises it. *)
let descriptor_bytes ~count k =
  let per = segments_per_indirect_page in
  max 0 (min per (count - (k * per))) * descriptor_size

let pack_segments segs =
  let count = List.length segs in
  let per = segments_per_indirect_page in
  let bufs =
    Array.init (max 1 ((count + per - 1) / per)) (fun k ->
        Bytes.make (descriptor_bytes ~count k) '\000')
  in
  List.iteri
    (fun i s ->
      let page = bufs.(i / per) in
      let off = i mod per * descriptor_size in
      Bytes.set page off (Char.chr ((s.gref lsr 24) land 0xff));
      Bytes.set page (off + 1) (Char.chr ((s.gref lsr 16) land 0xff));
      Bytes.set page (off + 2) (Char.chr ((s.gref lsr 8) land 0xff));
      Bytes.set page (off + 3) (Char.chr (s.gref land 0xff));
      Bytes.set page (off + 4) (Char.chr s.first_sect);
      Bytes.set page (off + 5) (Char.chr s.last_sect))
    segs;
  Array.to_list bufs

let unpack_segments pages ~count =
  let seg_of page off =
    let b i = Char.code (Bytes.get page (off + i)) in
    {
      gref = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3;
      first_sect = b 4;
      last_sect = b 5;
    }
  in
  let pages = Array.of_list pages in
  List.init count (fun i ->
      let page = pages.(i / segments_per_indirect_page) in
      seg_of page (i mod segments_per_indirect_page * descriptor_size))

type registry = { mutable next : int; rings : (int, ring * int) Hashtbl.t }

let registry () = { next = 1; rings = Hashtbl.create 8 }

let share r ~owner ring =
  let id = r.next in
  r.next <- r.next + 1;
  Hashtbl.add r.rings id (ring, owner);
  id

let map r id =
  match Hashtbl.find_opt r.rings id with
  | Some (ring, _) -> ring
  | None -> raise Not_found

let owner_of r id = Option.map snd (Hashtbl.find_opt r.rings id)
