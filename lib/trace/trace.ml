(* Event storage: a flat growable array of small records.  The tracer is
   per simulated machine, so timestamps (simulated ns supplied by the
   instrumented layers) are monotone per process and comparable across
   the whole buffer. *)

type phase = Instant | Complete

type event = {
  ev_at : int;  (* ns *)
  ev_dur : int;  (* ns; 0 for instants *)
  ev_pid : int;
  ev_tid : int;
  ev_ph : phase;
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
}

let dummy_event =
  {
    ev_at = 0;
    ev_dur = 0;
    ev_pid = 0;
    ev_tid = 0;
    ev_ph = Instant;
    ev_name = "";
    ev_cat = "";
    ev_args = [];
  }

type span = {
  span_kind : string;
  span_key : string;
  span_id : int;
  span_begin_at : int;
  span_end_at : int;
  span_stages : (string * int * int) list;
}

(* An in-flight span: stages are collected as (name, start, args) marks,
   most recent first; span_end closes them into intervals. *)
type open_span = {
  os_kind : string;
  os_key : string;
  os_begin : int;
  mutable os_marks : (string * int * (string * string) list) list;
}

type t = {
  tname : string;
  limit : int;
  mutable buf : event array;
  mutable n : int;
  mutable dropped : int;
  (* Track interning: pid per domain name, tid per (pid, thread name). *)
  pids : (string, int) Hashtbl.t;
  mutable pid_names : (int * string) list;  (* reversed *)
  tids : (string, int) Hashtbl.t;  (* key "<pid>|<thread>" *)
  mutable tid_names : ((int * int) * string) list;  (* reversed *)
  mutable next_pid : int;
  mutable next_tid : int;
  (* Attribution stack maintained by proc_enter/proc_leave. *)
  mutable cur : (string * string) list;  (* (domain, thread) *)
  (* Exact per-domain hypercall aggregation, immune to buffer overflow. *)
  hyp : (string * string, int ref * int ref) Hashtbl.t;
  (* Spans. *)
  open_tbl : (string, open_span) Hashtbl.t;
  mutable done_spans : span list;  (* reversed *)
  mutable done_count : int;
  (* Completed-span observer (the flight recorder's tap); [None] keeps
     span_end allocation-identical to the pre-observer shape. *)
  mutable span_obs : (span -> unit) option;
  (* Additive observers (the path attribution tap): appended, never
     clobbered by [set_span_observer], so layers compose. *)
  mutable span_taps : (span -> unit) list;
  (* Hops/ends that arrived for spans never begun (or already ended):
     lost attribution, counted instead of silently vanishing. *)
  mutable orphan_hops : int;
  mutable orphan_ends : int;
}

let create ?(limit = 1_000_000) ?(name = "trace") () =
  {
    tname = name;
    limit;
    buf = Array.make 1024 dummy_event;
    n = 0;
    dropped = 0;
    pids = Hashtbl.create 16;
    pid_names = [];
    tids = Hashtbl.create 64;
    tid_names = [];
    next_pid = 1;
    next_tid = 1;
    cur = [];
    hyp = Hashtbl.create 64;
    open_tbl = Hashtbl.create 256;
    done_spans = [];
    done_count = 0;
    span_obs = None;
    span_taps = [];
    orphan_hops = 0;
    orphan_ends = 0;
  }

let name t = t.tname
let events t = t.n
let dropped t = t.dropped

(* ------------------------------------------------------------------ *)
(* Run-wide default sink                                               *)
(* ------------------------------------------------------------------ *)

type sink = { mutable members : t list (* reversed *) }

let sink () = { members = [] }

let create_in s ~name =
  let t = create ~name () in
  s.members <- t :: s.members;
  t

let traces s = List.rev s.members

let default_ref : sink option ref = ref None
let set_default v = default_ref := v
let default () = !default_ref

(* ------------------------------------------------------------------ *)
(* Interning and emission                                              *)
(* ------------------------------------------------------------------ *)

let pid_of t domain =
  match Hashtbl.find_opt t.pids domain with
  | Some p -> p
  | None ->
      let p = t.next_pid in
      t.next_pid <- p + 1;
      Hashtbl.add t.pids domain p;
      t.pid_names <- (p, domain) :: t.pid_names;
      p

let tid_of t pid thread =
  let key = string_of_int pid ^ "|" ^ thread in
  match Hashtbl.find_opt t.tids key with
  | Some i -> i
  | None ->
      let i = t.next_tid in
      t.next_tid <- i + 1;
      Hashtbl.add t.tids key i;
      t.tid_names <- ((pid, i), thread) :: t.tid_names;
      i

(* "Domain/thread" process names (the [Hypervisor.spawn] convention) are
   split into their track components; bare names land on a "sim" track. *)
let split_name name =
  match String.index_opt name '/' with
  | Some i ->
      (String.sub name 0 i, String.sub name (i + 1) (String.length name - i - 1))
  | None -> ("sim", name)

let current t =
  match t.cur with (d, th) :: _ -> (d, th) | [] -> ("sim", "(interrupt)")

let emit t ~at ~dur ~pid ~tid ~ph ~name ~cat ~args =
  if t.n >= t.limit then t.dropped <- t.dropped + 1
  else begin
    if t.n = Array.length t.buf then begin
      let bigger = Array.make (2 * t.n) dummy_event in
      Array.blit t.buf 0 bigger 0 t.n;
      t.buf <- bigger
    end;
    t.buf.(t.n) <-
      {
        ev_at = at;
        ev_dur = dur;
        ev_pid = pid;
        ev_tid = tid;
        ev_ph = ph;
        ev_name = name;
        ev_cat = cat;
        ev_args = args;
      };
    t.n <- t.n + 1
  end

(* Emit on the track of the currently-running process, inside [domain]. *)
let emit_cur t ~at ~dur ~domain ~ph ~name ~cat ~args =
  let _, thread = current t in
  let pid = pid_of t domain in
  emit t ~at ~dur ~pid ~tid:(tid_of t pid thread) ~ph ~name ~cat ~args

(* ------------------------------------------------------------------ *)
(* Scheduler hooks                                                     *)
(* ------------------------------------------------------------------ *)

let proc_enter t ~name = t.cur <- split_name name :: t.cur

let proc_leave t = match t.cur with _ :: rest -> t.cur <- rest | [] -> ()

let track_of_name t pname =
  let domain, thread = split_name pname in
  let pid = pid_of t domain in
  (pid, tid_of t pid thread)

let proc_spawned t ~at ~name ~daemon =
  let pid, tid = track_of_name t name in
  emit t ~at ~dur:0 ~pid ~tid ~ph:Instant ~name:"spawn" ~cat:"sched"
    ~args:(if daemon then [ ("daemon", "1") ] else [])

let proc_blocked t ~at ~name ~kind =
  let pid, tid = track_of_name t name in
  let ev, args =
    match kind with
    | `Sleep span -> ("sleep", [ ("ns", string_of_int span) ])
    | `Yield -> ("yield", [])
    | `Suspend None -> ("wait", [])
    | `Suspend (Some label) -> ("wait", [ ("on", label) ])
  in
  emit t ~at ~dur:0 ~pid ~tid ~ph:Instant ~name:ev ~cat:"sched" ~args

let proc_exited t ~at ~name =
  let pid, tid = track_of_name t name in
  emit t ~at ~dur:0 ~pid ~tid ~ph:Instant ~name:"exit" ~cat:"sched" ~args:[]

(* ------------------------------------------------------------------ *)
(* Hypervisor hooks                                                    *)
(* ------------------------------------------------------------------ *)

let hypercall_prefix = "hypercall."

let is_hypercall op =
  String.length op > 10 && String.sub op 0 10 = hypercall_prefix

let charge t ~at ~domain ~op ~cost =
  if is_hypercall op then begin
    let key = (domain, op) in
    let count, total =
      match Hashtbl.find_opt t.hyp key with
      | Some cell -> cell
      | None ->
          let cell = (ref 0, ref 0) in
          Hashtbl.add t.hyp key cell;
          cell
    in
    incr count;
    total := !total + cost
  end;
  emit_cur t ~at ~dur:cost ~domain ~ph:Complete ~name:op ~cat:"hv" ~args:[]

let cpu_work t ~at ~domain ~cost =
  emit_cur t ~at ~dur:cost ~domain ~ph:Complete ~name:"cpu_work" ~cat:"cpu"
    ~args:[]

(* ------------------------------------------------------------------ *)
(* Event channels                                                      *)
(* ------------------------------------------------------------------ *)

let evtchn_send t ~at ~domain ~port =
  emit_cur t ~at ~dur:0 ~domain ~ph:Instant ~name:"evtchn.send" ~cat:"evtchn"
    ~args:[ ("port", string_of_int port) ]

let evtchn_deliver t ~at ~domain ~port =
  let pid = pid_of t domain in
  emit t ~at ~dur:0 ~pid ~tid:(tid_of t pid "(interrupt)") ~ph:Instant
    ~name:"evtchn.deliver" ~cat:"evtchn"
    ~args:[ ("port", string_of_int port) ]

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

type side = [ `Req | `Rsp ]

type ring = {
  rt : t;
  rname : string;
  rnow : unit -> int;
  mutable req_run : int;
  mutable rsp_run : int;
}

let ring t ~name ~now = { rt = t; rname = name; rnow = now; req_run = 0; rsp_run = 0 }

let side_name = function `Req -> "req" | `Rsp -> "rsp"

let ring_event r name args =
  let t = r.rt in
  let pid = pid_of t "rings" in
  emit t ~at:(r.rnow ()) ~dur:0 ~pid ~tid:(tid_of t pid r.rname) ~ph:Instant
    ~name ~cat:"ring" ~args

let ring_publish r side ~batch ~notify =
  if batch > 0 then
    ring_event r
      ("publish." ^ side_name side)
      [ ("batch", string_of_int batch); ("notify", if notify then "1" else "0") ]

let ring_take r side ~got =
  match side with
  | `Req ->
      if got then r.req_run <- r.req_run + 1
      else if r.req_run > 0 then begin
        let n = r.req_run in
        r.req_run <- 0;
        ring_event r "consume.req" [ ("batch", string_of_int n) ]
      end
  | `Rsp ->
      if got then r.rsp_run <- r.rsp_run + 1
      else if r.rsp_run > 0 then begin
        let n = r.rsp_run in
        r.rsp_run <- 0;
        ring_event r "consume.rsp" [ ("batch", string_of_int n) ]
      end

(* ------------------------------------------------------------------ *)
(* Driver events                                                       *)
(* ------------------------------------------------------------------ *)

let driver t ~at ~domain ~name ~args =
  emit_cur t ~at ~dur:0 ~domain ~ph:Instant ~name ~cat:"driver" ~args

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let span_tbl_key ~kind ~key ~id =
  kind ^ "#" ^ key ^ "#" ^ string_of_int id

let span_begin t ~at ~kind ~key ~id ~stage =
  Hashtbl.replace t.open_tbl
    (span_tbl_key ~kind ~key ~id)
    { os_kind = kind; os_key = key; os_begin = at; os_marks = [ (stage, at, []) ] }

let span_hop t ~at ~kind ~key ~id ~stage ~args =
  match Hashtbl.find_opt t.open_tbl (span_tbl_key ~kind ~key ~id) with
  | Some os -> os.os_marks <- (stage, at, args) :: os.os_marks
  | None -> t.orphan_hops <- t.orphan_hops + 1

let span_end t ~at ~kind ~key ~id =
  let k = span_tbl_key ~kind ~key ~id in
  match Hashtbl.find_opt t.open_tbl k with
  | None -> t.orphan_ends <- t.orphan_ends + 1
  | Some os ->
      Hashtbl.remove t.open_tbl k;
      (* Close the marks into consecutive intervals; also render them as
         Chrome slices on the machine's dedicated span track. *)
      let pid = pid_of t "spans" in
      let tid = tid_of t pid (kind ^ ":" ^ key) in
      let rec close marks stop acc =
        match marks with
        | [] -> acc
        | (stage, start, args) :: older ->
            emit t ~at:start ~dur:(stop - start) ~pid ~tid ~ph:Complete
              ~name:stage ~cat:kind
              ~args:(("id", string_of_int id) :: args);
            close older start ((stage, start, stop) :: acc)
      in
      let stages = close os.os_marks at [] in
      let sp =
        {
          span_kind = kind;
          span_key = key;
          span_id = id;
          span_begin_at = os.os_begin;
          span_end_at = at;
          span_stages = stages;
        }
      in
      t.done_spans <- sp :: t.done_spans;
      t.done_count <- t.done_count + 1;
      (match t.span_obs with None -> () | Some f -> f sp);
      (match t.span_taps with [] -> () | taps -> List.iter (fun f -> f sp) taps)

let spans t = List.rev t.done_spans
let open_spans t = Hashtbl.length t.open_tbl
let set_span_observer t obs = t.span_obs <- obs
let add_span_observer t f = t.span_taps <- t.span_taps @ [ f ]
let orphan_hops t = t.orphan_hops
let orphan_ends t = t.orphan_ends

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                             *)
(* ------------------------------------------------------------------ *)

let json_escape = Kite_stats.Json.escape

let add_args b args =
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    args;
  Buffer.add_string b "}"

(* Timestamps are emitted in microseconds (the trace-event unit) with ns
   resolution preserved as fractional digits. *)
let add_ts b ns = Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int ns /. 1000.))

let to_chrome_json ts =
  let b = Buffer.create 65536 in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  Buffer.add_string b "[\n";
  List.iteri
    (fun mi t ->
      let base = (mi + 1) * 1000 in
      let machine_prefix = if List.length ts > 1 then t.tname ^ "/" else "" in
      (* Track metadata. *)
      List.iter
        (fun (pid, pname) ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
               (base + pid)
               (json_escape (machine_prefix ^ pname))))
        (List.rev t.pid_names);
      List.iter
        (fun ((pid, tid), tname) ->
          sep ();
          Buffer.add_string b
            (Printf.sprintf
               "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
               (base + pid) tid (json_escape tname)))
        (List.rev t.tid_names);
      for i = 0 to t.n - 1 do
        let e = t.buf.(i) in
        sep ();
        Buffer.add_string b "{\"name\":\"";
        Buffer.add_string b (json_escape e.ev_name);
        Buffer.add_string b "\",\"cat\":\"";
        Buffer.add_string b (json_escape e.ev_cat);
        Buffer.add_string b "\",\"ph\":\"";
        Buffer.add_string b
          (match e.ev_ph with Instant -> "i" | Complete -> "X");
        Buffer.add_string b "\",\"ts\":";
        add_ts b e.ev_at;
        (match e.ev_ph with
        | Complete ->
            Buffer.add_string b ",\"dur\":";
            add_ts b e.ev_dur
        | Instant -> Buffer.add_string b ",\"s\":\"t\"");
        Buffer.add_string b
          (Printf.sprintf ",\"pid\":%d,\"tid\":%d,\"args\":" (base + e.ev_pid)
             e.ev_tid);
        add_args b e.ev_args;
        Buffer.add_string b "}"
      done)
    ts;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Hypercall profile                                                   *)
(* ------------------------------------------------------------------ *)

let hypercall_profile ts =
  List.concat_map
    (fun t ->
      Hashtbl.fold
        (fun (domain, op) (count, total) acc ->
          (t.tname, domain, op, !count, !total) :: acc)
        t.hyp []
      |> List.sort compare)
    ts

(* ------------------------------------------------------------------ *)
(* Latency breakdown                                                   *)
(* ------------------------------------------------------------------ *)

let breakdown ts =
  (* kind -> stage -> durations, preserving first-seen order. *)
  let kinds : (string * (string * float list ref) list ref) list ref = ref [] in
  let stage_cell kind stage =
    let stages =
      match List.assoc_opt kind !kinds with
      | Some r -> r
      | None ->
          let r = ref [] in
          kinds := !kinds @ [ (kind, r) ];
          r
    in
    match List.assoc_opt stage !stages with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        stages := !stages @ [ (stage, cell) ];
        cell
  in
  List.iter
    (fun t ->
      List.iter
        (fun sp ->
          List.iter
            (fun (stage, start, stop) ->
              let cell = stage_cell sp.span_kind stage in
              cell := float_of_int (stop - start) :: !cell)
            sp.span_stages;
          let cell = stage_cell sp.span_kind "TOTAL" in
          cell := float_of_int (sp.span_end_at - sp.span_begin_at) :: !cell)
        (spans t))
    ts;
  List.map
    (fun (kind, stages) ->
      (kind, List.map (fun (stage, cell) -> (stage, List.rev !cell)) !stages))
    !kinds
