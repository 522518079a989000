open Kite_sim

let sector_size = 512

exception Out_of_range of string
exception Transient_error of string

type op = Read | Write | Flush

type command = {
  op : op;
  sector : int;
  len : int;  (* bytes *)
  data : Bytes.t;  (* payload for writes; filled for reads *)
  done_ : Condition.t;
  mutable completed : bool;
}

type t = {
  name : string;
  sched : Process.sched;
  capacity_sectors : int;
  read_base : Time.span;
  write_base : Time.span;
  cmd_overhead : Time.span;
  bandwidth_bps : float;
  chunks : (int, Bytes.t) Hashtbl.t;
      (* written data in zero-initialised [chunk_size] chunks, keyed by
         [sector / chunk_sectors]; a missing chunk reads as zeroes *)
  queue : command Mailbox.t;
  (* Commands overlap their setup latency, but the flash media moves data
     at a fixed aggregate bandwidth: transfers are serialized on this
     cursor. *)
  mutable media_free_at : Time.t;
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable fault : Kite_fault.Fault.t option;
  read_count : Metrics.cell;
  write_count : Metrics.cell;
  flush_count : Metrics.cell;
}

let name t = t.name
let capacity_sectors t = t.capacity_sectors

let transfer_time t len =
  int_of_float (float_of_int len /. t.bandwidth_bps *. 1e9)

(* Sleep through base latency (overlappable), then claim the media for the
   transfer portion (serialized across the queue). *)
let serve_io t base len =
  Process.sleep base;
  let engine = Process.engine t.sched in
  let now = Engine.now engine in
  let start = max now t.media_free_at in
  (* The controller's per-command processing serializes with the media:
     many small commands cost more than one merged large one. *)
  let finish = start + t.cmd_overhead + transfer_time t len in
  t.media_free_at <- finish;
  Process.sleep (finish - now)

let chunk_size = 4096
let chunk_sectors = chunk_size / sector_size

(* Walk the byte range [0, len) of a transfer starting at [sector] one
   chunk-sized piece at a time: [f key chunk_off pos n] handles the [n]
   bytes at transfer offset [pos], which sit at [chunk_off] in chunk
   [key]. *)
let iter_pieces sector len f =
  let pos = ref 0 in
  while !pos < len do
    let s = sector + (!pos / sector_size) in
    let chunk_off = s mod chunk_sectors * sector_size in
    let n = min (chunk_size - chunk_off) (len - !pos) in
    f (s / chunk_sectors) chunk_off !pos n;
    pos := !pos + n
  done

let do_read t sector len buf =
  iter_pieces sector len (fun key chunk_off pos n ->
      match Hashtbl.find_opt t.chunks key with
      | Some chunk -> Bytes.blit chunk chunk_off buf pos n
      | None -> Bytes.fill buf pos n '\000')

let do_write t sector data =
  iter_pieces sector (Bytes.length data) (fun key chunk_off pos n ->
      let chunk =
        match Hashtbl.find_opt t.chunks key with
        | Some chunk -> chunk
        | None ->
            let chunk = Bytes.make chunk_size '\000' in
            Hashtbl.add t.chunks key chunk;
            chunk
      in
      Bytes.blit data pos chunk chunk_off n)

let worker t () =
  let rec loop () =
    let cmd = Mailbox.recv t.queue in
    (match cmd.op with
    | Read ->
        serve_io t t.read_base cmd.len;
        do_read t cmd.sector cmd.len cmd.data;
        t.reads <- t.reads + 1;
        t.bytes_read <- t.bytes_read + cmd.len;
        Metrics.bump t.read_count 1
    | Write ->
        serve_io t t.write_base cmd.len;
        do_write t cmd.sector cmd.data;
        t.writes <- t.writes + 1;
        t.bytes_written <- t.bytes_written + cmd.len;
        Metrics.bump t.write_count 1
    | Flush ->
        Process.sleep t.write_base;
        Metrics.bump t.flush_count 1);
    cmd.completed <- true;
    Condition.broadcast cmd.done_;
    loop ()
  in
  loop ()

let create sched metrics ~name ?(capacity_sectors = 976_773_168)
    ?(queue_depth = 32) ?(read_base = Time.us 25) ?(write_base = Time.us 30)
    ?(cmd_overhead = Time.us 4) ?(bandwidth_mbps = 1500.0) () =
  let t =
    {
      name;
      sched;
      capacity_sectors;
      read_base;
      write_base;
      cmd_overhead;
      bandwidth_bps = bandwidth_mbps *. 1e6;
      chunks = Hashtbl.create 512;
      queue = Mailbox.create ();
      media_free_at = Time.zero;
      reads = 0;
      writes = 0;
      bytes_read = 0;
      bytes_written = 0;
      fault = None;
      read_count = Metrics.counter_cell metrics ("nvme." ^ name ^ ".read");
      write_count = Metrics.counter_cell metrics ("nvme." ^ name ^ ".write");
      flush_count = Metrics.counter_cell metrics ("nvme." ^ name ^ ".flush");
    }
  in
  for i = 1 to queue_depth do
    Process.spawn sched ~daemon:true
      ~name:(Printf.sprintf "nvme-%s-w%d" name i)
      (worker t)
  done;
  t

let check t sector count =
  if sector < 0 || count < 0 || sector + count > t.capacity_sectors then
    raise
      (Out_of_range
         (Printf.sprintf "nvme %s: sectors %d+%d out of range" t.name sector
            count))

let set_fault t f = t.fault <- f

let submit t cmd =
  (* Transient command failure (media busy, CRC hiccup): reported at
     submission, before the command reaches the queue, so the caller's
     retry resubmits the whole command. *)
  (match t.fault with
  | Some f
    when Kite_fault.Fault.fire f Kite_fault.Fault.Device_io ~key:t.name ->
      raise
        (Transient_error
           (Printf.sprintf "nvme %s: transient command failure" t.name))
  | _ -> ());
  Mailbox.send t.queue cmd;
  while not cmd.completed do
    Condition.wait cmd.done_
  done

let read t ~sector ~count =
  check t sector count;
  let buf = Bytes.create (count * sector_size) in
  let cmd =
    {
      op = Read;
      sector;
      len = count * sector_size;
      data = buf;
      done_ = Condition.create ();
      completed = false;
    }
  in
  submit t cmd;
  buf

let write t ~sector data =
  let len = Bytes.length data in
  if len mod sector_size <> 0 then
    invalid_arg "Nvme.write: length not sector-aligned";
  check t sector (len / sector_size);
  let cmd =
    {
      op = Write;
      sector;
      len;
      data;
      done_ = Condition.create ();
      completed = false;
    }
  in
  submit t cmd

let flush t =
  let cmd =
    {
      op = Flush;
      sector = 0;
      len = 0;
      data = Bytes.empty;
      done_ = Condition.create ();
      completed = false;
    }
  in
  submit t cmd

let reads t = t.reads
let writes t = t.writes
let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
