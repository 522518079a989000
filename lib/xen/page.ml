let size = 4096

type t = { frame : int; data : Bytes.t }

let next_frame = ref 0

let frame t = t.frame

let alloc () =
  let f = !next_frame in
  incr next_frame;
  { frame = f; data = Bytes.make size '\000' }

let check off len =
  if off < 0 || len < 0 || off + len > size then
    invalid_arg (Printf.sprintf "Page: range %d+%d out of bounds" off len)

(* Page contents are prime shared state: a frontend writing a frame after
   granting it while the backend copies from it is the classic split-driver
   race.  The hooks use the race detector's ambient scope — [active] is one
   global ref read when no detector is live, and the location string is
   only built once a detector is. *)
let race_read t site =
  if Kite_race.Race.active () then
    (* Page payloads are HB-checked but not RMW-armed: concurrent block
       rewrites are last-write-wins at the application level. *)
    Kite_race.Race.scoped_read ~arm:false
      ~loc:("page:" ^ string_of_int t.frame)
      ~site ()

let race_write t site =
  if Kite_race.Race.active () then
    Kite_race.Race.scoped_write ~loc:("page:" ^ string_of_int t.frame) ~site

let read t ~off ~len =
  check off len;
  race_read t "Page.read";
  Bytes.sub t.data off len

(* [read_into]/[write_from] copy straight between the page and a
   caller's buffer, so a payload crosses the host heap once.  They report
   the sites of [read]/[write]: to the detector they are the same
   accesses. *)
let read_into t ~off ~len dst ~dst_off =
  check off len;
  race_read t "Page.read";
  Bytes.blit t.data off dst dst_off len

let write_from t ~off src ~src_off ~len =
  check off len;
  race_write t "Page.write";
  Bytes.blit src src_off t.data off len

let write t ~off b = write_from t ~off b ~src_off:0 ~len:(Bytes.length b)

let blit ~src ~src_off ~dst ~dst_off ~len =
  check src_off len;
  check dst_off len;
  race_read src "Page.blit";
  race_write dst "Page.blit";
  Bytes.blit src.data src_off dst.data dst_off len

let fill t c =
  race_write t "Page.fill";
  Bytes.fill t.data 0 size c

let contents t = t.data
