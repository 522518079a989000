(* Host-side measurement: a monotonic clock, exact allocation counts,
   in-memory spans written once at exit, and GC pauses read back from
   the runtime's own event ring. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every word the program allocated: minor allocations plus direct
   major allocations.  [Gc.minor_words] alone misses the 4 KiB pages
   and 128 KiB buffers, which go straight to the major heap; promoted
   words are counted once, as minor words.  The minor count comes from
   [Gc.minor_words], the only exact one: the minor field of
   [Gc.counters] leaves out the current minor heap. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

type gc_delta = {
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
}

let gc_since (s0 : Gc.stat) =
  let s1 = Gc.quick_stat () in
  {
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
  }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { name : string; cat : string; t0 : int; t1 : int }

let tracing = ref false
let spans : span list ref = ref []

let record ~cat name t0 t1 =
  if !tracing then spans := { name; cat; t0; t1 } :: !spans

let span ~cat name f =
  if not !tracing then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    record ~cat name t0 (now_ns ());
    r
  end

(* Chrome trace-event JSON (load in chrome://tracing or Perfetto);
   one complete ("X") event per span, nested by time on one thread. *)
let write_spans path =
  let spans = List.rev !spans in
  let base = List.fold_left (fun b s -> min b s.t0) max_int spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
        (if i = 0 then "" else ",")
        s.name s.cat
        (if s.cat = "gc" then 2 else 1)
        (float_of_int (s.t0 - base) /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3))
    spans;
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* GC pauses from Runtime_events                                       *)
(* ------------------------------------------------------------------ *)

(* Top-level pause phases only: their sub-phases nest inside them. *)
let pause_phase = function
  | Runtime_events.EV_MINOR -> Some "minor"
  | Runtime_events.EV_MAJOR_SLICE -> Some "major_slice"
  | _ -> None

let cursor = ref None
let pause_ns = ref 0
let open_at : (string, int) Hashtbl.t = Hashtbl.create 4

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ t phase ->
      match pause_phase phase with
      | Some name -> Hashtbl.replace open_at name (ts t)
      | None -> ())
    ~runtime_end:(fun _ t phase ->
      match pause_phase phase with
      | Some name -> (
          match Hashtbl.find_opt open_at name with
          | Some t0 ->
              Hashtbl.remove open_at name;
              let t1 = ts t in
              pause_ns := !pause_ns + (t1 - t0);
              record ~cat:"gc" name t0 t1
          | None -> ())
      | None -> ())
    ()

let start_gc_events () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Drain the ring often enough that it never wraps: once per engine
   slice. *)
let poll_gc () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

let gc_pause_s () =
  poll_gc ();
  secs !pause_ns
