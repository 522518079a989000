(* Happens-before race and atomicity-violation detection over the DES.

   The simulation is single-threaded OCaml, so nothing here is a data race
   in the memory-model sense.  What the detector finds is *logical*
   concurrency bugs: two cooperative processes touching the same piece of
   shared simulated state (ring slots and indices, grant entries, page
   contents, xenstore nodes, queue cursors) with no happens-before path
   between the two accesses, and read-modify-writes that straddle a
   blocking point without re-validation.  Those are exactly the accesses
   that a different interleaving — one the schedule explorer in [Engine]
   can produce — may reorder.

   Model:
   - one sparse vector clock per process; a process's own component is
     bumped at every release;
   - synchronization primitives are modelled as named release/acquire
     channels: [Mailbox.send]/[Condition.signal]/[Event_channel.notify]
     release, the matching receive/wake/deliver acquires.  Ring
     publish/take pairs release/acquire per side, with an extra
     "consumer cursor" back-channel modelling the producer's read of the
     peer's consumer index;
   - [Process.spawn] joins the child's clock from the spawner (spawn
     edge); process exit releases into the "@exit" channel;
   - instrumented locations keep the last write plus the most recent read
     per process; an access unordered with one of those is reported as
     [race-unordered];
   - every read records a pending entry keyed by (process, location)
     together with the process's current *block epoch* (bumped at every
     sleep/yield/suspend) and the location's write generation.  A write by
     the same process whose pending read is from an older epoch is a
     read-modify-write spanning a blocking point: [race-lost-update]
     (error) when the generation moved underneath it, [race-atomicity]
     (warning) when it merely went unvalidated.

   Everything is attributed to the "current" process, maintained by
   [Process]'s step wrapper.  Outside any process (setup code, timers,
   interrupt-context event-channel handlers) accesses fall to the
   per-detector pseudo-process [@main], which also seeds spawn edges for
   processes spawned from setup code. *)

type config = {
  capture_stacks : bool;  (* record both access backtraces per finding *)
  stack_depth : int;
  max_reports_per_loc : int;  (* cap duplicate findings per location *)
  suppressions : (string * string) list;
      (* (rule, location prefix): known benign races, see DESIGN.md §13 *)
}

let default_config =
  {
    capture_stacks = true;
    stack_depth = 12;
    max_reports_per_loc = 4;
    suppressions = [];
  }

(* Sparse vector clock: pid -> component.  Missing entries read as 0. *)
type clock = (int, int) Hashtbl.t

type access = {
  a_pid : int;
  a_name : string;
  a_site : string;
  a_kind : [ `Read | `Write ];
  a_own : int;  (* accessor's own clock component at access time *)
  a_stack : Printexc.raw_backtrace option;
}

type loc_state = {
  mutable l_write : access option;
  mutable l_reads : access list;  (* most recent read per process *)
  mutable l_gen : int;  (* write generation *)
  mutable l_reports : int;
}

(* A read awaiting its write-back: the ingredients of the atomicity rule. *)
type pending = {
  pn_site : string;
  pn_epoch : int;
  pn_gen : int;
  pn_stack : Printexc.raw_backtrace option;
}

type proc = {
  p_id : int;
  p_name : string;
  p_clock : clock;
  mutable p_epoch : int;  (* bumped at every blocking point *)
}

type t = {
  config : config;
  report : Kite_check.Report.t;
  name : string;
  procs : (int, proc) Hashtbl.t;
  main : proc;  (* pid -1: setup / timer / interrupt context *)
  chans : (string, clock) Hashtbl.t;
  locs : (string, loc_state) Hashtbl.t;
  pend : (int * string, pending) Hashtbl.t;
  mutable cur : proc option;
  mutable next_pid : int;
  mutable free_pids : int list;
      (* pid slots of exited processes, available for reuse *)
  hw : (int, int) Hashtbl.t;
      (* per-slot high-water mark of the own component at exit *)
  ring_gens : (string, int) Hashtbl.t;
      (* attach count per ring name: reconnects build fresh rings *)
  mutable races : int;  (* error-severity findings *)
  mutable atomicity : int;  (* warning-severity findings *)
}

let clock_get c pid =
  match Hashtbl.find_opt c pid with Some n -> n | None -> 0

let own p = clock_get p.p_clock p.p_id
let tick p = Hashtbl.replace p.p_clock p.p_id (own p + 1)

let join dst src =
  Hashtbl.iter
    (fun pid n -> if n > clock_get dst pid then Hashtbl.replace dst pid n)
    src

let mk_proc pid name =
  let p = { p_id = pid; p_name = name; p_clock = Hashtbl.create 8; p_epoch = 0 } in
  tick p;  (* own component starts at 1 so a_own = 0 never occurs *)
  p

let create ?(config = default_config) ?(name = "-") report =
  {
    config;
    report;
    name;
    procs = Hashtbl.create 32;
    main = mk_proc (-1) "@main";
    chans = Hashtbl.create 64;
    locs = Hashtbl.create 256;
    pend = Hashtbl.create 64;
    cur = None;
    next_pid = 0;
    free_pids = [];
    hw = Hashtbl.create 32;
    ring_gens = Hashtbl.create 8;
    races = 0;
    atomicity = 0;
  }

let report t = t.report
let name t = t.name
let races t = t.races
let atomicity_violations t = t.atomicity

(* ------------------------------------------------------------------ *)
(* Ambient scope: which detector/process the instant belongs to.       *)
(* Set by Process's step wrapper and by Event_channel's interrupt       *)
(* delivery; a single global is enough because the DES is              *)
(* single-threaded.  When it is [None] every [scoped_*] hook is one    *)
(* ref read and a match — the disabled cost.                           *)
(* ------------------------------------------------------------------ *)

let scope : t option ref = ref None

let active () = match !scope with None -> false | Some _ -> true

let cur t = match t.cur with Some p -> p | None -> t.main

(* ------------------------------------------------------------------ *)
(* Process lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

(* Pid slots are recycled (FastTrack-style): workloads that spawn a
   short-lived worker per request would otherwise grow every vector
   clock by one component per spawn, turning each join quadratic in the
   total process count.  A reused slot starts its own component above
   the previous holder's high-water mark, so the old holder's recorded
   accesses stay ordered before everything the new holder does — sound
   for the observed execution, because the slot only frees once its
   previous holder has actually finished; alternative interleavings are
   the schedule explorer's job. *)
let proc_register t ~name =
  let pid =
    match t.free_pids with
    | pid :: rest ->
        t.free_pids <- rest;
        pid
    | [] ->
        let pid = t.next_pid in
        t.next_pid <- pid + 1;
        pid
  in
  let p = mk_proc pid name in
  Hashtbl.replace p.p_clock pid
    (max (own p) (clock_get t.hw pid + 1));
  (* Spawn edge: the child is ordered after everything its spawner did.
     Processes spawned from setup code inherit from [@main]. *)
  let parent = cur t in
  join p.p_clock parent.p_clock;
  tick parent;
  tick p;
  Hashtbl.replace t.procs pid p;
  pid

let proc_enter t pid =
  (match Hashtbl.find_opt t.procs pid with
  | Some p -> t.cur <- Some p
  | None -> ());
  scope := Some t

let proc_leave t =
  t.cur <- None;
  scope := None

let proc_blocked t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p.p_epoch <- p.p_epoch + 1
  | None -> ()

(* Interrupt context: event-channel deliveries run engine callbacks, not
   processes.  They acquire the notify edge into [@main] so conditions
   signalled from the handler carry the sender's clock onward. *)
let irq_enter t = scope := Some t
let irq_leave _t = scope := None

(* ------------------------------------------------------------------ *)
(* Release / acquire channels                                          *)
(* ------------------------------------------------------------------ *)

let hb_release t ~chan =
  let p = cur t in
  let c =
    match Hashtbl.find_opt t.chans chan with
    | Some c -> c
    | None ->
        let c = Hashtbl.create 8 in
        Hashtbl.add t.chans chan c;
        c
  in
  join c p.p_clock;
  tick p

let hb_acquire t ~chan =
  match Hashtbl.find_opt t.chans chan with
  | Some c -> join (cur t).p_clock c
  | None -> ()

(* Join-everything-that-exited: teardown paths that only synchronize by
   time ("give the threads a beat to park") acquire the "@exit" channel
   instead, claiming exactly the accesses of processes that have already
   terminated.  Sound: a process's accesses precede its exit release,
   and an exited process can never run again. *)
let quiesce t = hb_acquire t ~chan:"@exit"

let proc_exited t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p ->
      (* Exit edge: anything that observes the termination (teardown
         barriers, live counts) may acquire "@exit". *)
      join
        (match Hashtbl.find_opt t.chans "@exit" with
        | Some c -> c
        | None ->
            let c = Hashtbl.create 8 in
            Hashtbl.add t.chans "@exit" c;
            c)
        p.p_clock;
      Hashtbl.remove t.procs pid;
      (* Free the slot for reuse; the next holder's own component starts
         above this one's high-water mark (see [proc_register]). *)
      Hashtbl.replace t.hw pid (max (clock_get t.hw pid) (own p));
      t.free_pids <- pid :: t.free_pids;
      Hashtbl.filter_map_inplace
        (fun (qid, _) pn -> if qid = pid then None else Some pn)
        t.pend
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

let suppressed t rule loc =
  List.exists
    (fun (r, prefix) -> r = rule && String.starts_with ~prefix loc)
    t.config.suppressions

let capture t =
  if t.config.capture_stacks then
    Some (Printexc.get_callstack t.config.stack_depth)
  else None

let fmt_stack label = function
  | None -> ""
  | Some bt ->
      let s = String.trim (Printexc.raw_backtrace_to_string bt) in
      if s = "" then ""
      else
        Printf.sprintf "\n  %s stack:\n    %s" label
          (String.concat "\n    " (String.split_on_char '\n' s))

let emit t severity rule ~prov message =
  Kite_check.Report.add t.report
    { Kite_check.Report.severity; subsystem = "race"; rule; provenance = prov; message }

let kind_str = function `Read -> "read" | `Write -> "write"

(* Two accesses with no happens-before path: under another schedule seed
   they can occur in either order. *)
let report_race t ls ~loc ~(first : access) ~(second : access) =
  if
    ls.l_reports < t.config.max_reports_per_loc
    && not (suppressed t "race-unordered" loc)
  then begin
    ls.l_reports <- ls.l_reports + 1;
    t.races <- t.races + 1;
    emit t Kite_check.Report.Error "race-unordered" ~prov:second.a_name
      (Printf.sprintf
         "unordered accesses to %s: %s by %s at %s is concurrent with %s by \
          %s at %s%s%s"
         loc (kind_str first.a_kind) first.a_name first.a_site
         (kind_str second.a_kind) second.a_name second.a_site
         (fmt_stack "first" first.a_stack)
         (fmt_stack "second" second.a_stack))
  end

let report_atomicity t ls ~loc ~(p : proc) ~(pn : pending) ~site ~stack =
  if ls.l_reports < t.config.max_reports_per_loc then begin
    if pn.pn_gen <> ls.l_gen then begin
      if not (suppressed t "race-lost-update" loc) then begin
        ls.l_reports <- ls.l_reports + 1;
        t.races <- t.races + 1;
        let interferer =
          match ls.l_write with
          | Some w -> Printf.sprintf "%s at %s" w.a_name w.a_site
          | None -> "another writer"
        in
        emit t Kite_check.Report.Error "race-lost-update" ~prov:p.p_name
          (Printf.sprintf
             "lost update on %s: %s read it at %s, blocked, and wrote it \
              back at %s after %s modified it in between%s%s"
             loc p.p_name pn.pn_site site interferer
             (fmt_stack "read" pn.pn_stack)
             (fmt_stack "write-back" stack))
      end
    end
    else if not (suppressed t "race-atomicity" loc) then begin
      ls.l_reports <- ls.l_reports + 1;
      t.atomicity <- t.atomicity + 1;
      emit t Kite_check.Report.Warning "race-atomicity" ~prov:p.p_name
        (Printf.sprintf
           "read-modify-write of %s spans a blocking point: %s read it at \
            %s, blocked, and wrote it at %s without re-validating%s%s"
           loc p.p_name pn.pn_site site
           (fmt_stack "read" pn.pn_stack)
           (fmt_stack "write" stack))
    end
  end

(* ------------------------------------------------------------------ *)
(* Instrumented accesses                                               *)
(* ------------------------------------------------------------------ *)

let find_loc t loc =
  match Hashtbl.find_opt t.locs loc with
  | Some ls -> ls
  | None ->
      let ls = { l_write = None; l_reads = []; l_gen = 0; l_reports = 0 } in
      Hashtbl.add t.locs loc ls;
      ls

let ordered (a : access) (p : proc) =
  a.a_pid = p.p_id || a.a_own <= clock_get p.p_clock a.a_pid

let read_acc ?(arm = true) t ~loc ~site =
  let p = cur t in
  let ls = find_loc t loc in
  let stack = capture t in
  let acc =
    { a_pid = p.p_id; a_name = p.p_name; a_site = site; a_kind = `Read;
      a_own = own p; a_stack = stack }
  in
  (match ls.l_write with
  | Some w when not (ordered w p) -> report_race t ls ~loc ~first:w ~second:acc
  | _ -> ());
  ls.l_reads <- acc :: List.filter (fun a -> a.a_pid <> p.p_id) ls.l_reads;
  (* [arm] opts the read into the read-modify-write atomicity check.
     Control state (indices, journal entries, store nodes) wants it; bulk
     data locations (page payloads) do not — concurrent writers of file
     blocks are last-write-wins at the application level, and flagging
     every buffered rewrite would drown the report. *)
  if arm && p.p_id >= 0 then
    Hashtbl.replace t.pend (p.p_id, loc)
      { pn_site = site; pn_epoch = p.p_epoch; pn_gen = ls.l_gen;
        pn_stack = stack }

let write_acc t ~loc ~site =
  let p = cur t in
  let ls = find_loc t loc in
  let stack = capture t in
  let acc =
    { a_pid = p.p_id; a_name = p.p_name; a_site = site; a_kind = `Write;
      a_own = own p; a_stack = stack }
  in
  (match Hashtbl.find_opt t.pend (p.p_id, loc) with
  | Some pn when pn.pn_epoch < p.p_epoch ->
      report_atomicity t ls ~loc ~p ~pn ~site ~stack
  | _ -> ());
  Hashtbl.remove t.pend (p.p_id, loc);
  (match ls.l_write with
  | Some w when not (ordered w p) -> report_race t ls ~loc ~first:w ~second:acc
  | _ -> ());
  List.iter
    (fun r ->
      if r.a_pid <> p.p_id && not (ordered r p) then
        report_race t ls ~loc ~first:r ~second:acc)
    ls.l_reads;
  ls.l_reads <- [];
  ls.l_gen <- ls.l_gen + 1;
  ls.l_write <- Some acc

(* ------------------------------------------------------------------ *)
(* Ambient variants (modules without a detector handle)                *)
(* ------------------------------------------------------------------ *)

let scoped_release ~chan =
  match !scope with None -> () | Some t -> hb_release t ~chan

let scoped_acquire ~chan =
  match !scope with None -> () | Some t -> hb_acquire t ~chan

let scoped_read ?(arm = true) ~loc ~site () =
  match !scope with None -> () | Some t -> read_acc ~arm t ~loc ~site

let scoped_write ~loc ~site =
  match !scope with None -> () | Some t -> write_acc t ~loc ~site

let scoped_quiesce () =
  match !scope with None -> () | Some t -> quiesce t

(* ------------------------------------------------------------------ *)
(* Xenstore nodes                                                      *)
(*                                                                     *)
(* Store nodes are modelled as release/acquire channels (a write       *)
(* releases, a read acquires): frontends legitimately poll state nodes *)
(* concurrently with writers, so access-checking them would drown the  *)
(* report in benign [race-unordered] findings.  What *is* checked is   *)
(* the read-modify-write discipline, via a per-path write generation:  *)
(* read a node, block, write it back while someone else changed it —   *)
(* that is a lost update that a transaction would have caught.  A      *)
(* conflicting [tx_commit] never applies its writes, so transactional  *)
(* users are never flagged: transactions are the sanctioned pattern.   *)
(* ------------------------------------------------------------------ *)

let xs_read t ~path =
  let p = cur t in
  let loc = "xs:" ^ path in
  hb_acquire t ~chan:loc;
  if p.p_id >= 0 then begin
    let ls = find_loc t loc in
    Hashtbl.replace t.pend (p.p_id, loc)
      { pn_site = "Xenstore.read"; pn_epoch = p.p_epoch; pn_gen = ls.l_gen;
        pn_stack = capture t }
  end

let xs_write t ~path =
  let p = cur t in
  let loc = "xs:" ^ path in
  let ls = find_loc t loc in
  (match Hashtbl.find_opt t.pend (p.p_id, loc) with
  | Some pn when pn.pn_epoch < p.p_epoch && pn.pn_gen <> ls.l_gen ->
      (* Only the interfered case is an error for store nodes: a scalar
         node whose generation did not move cannot have changed value. *)
      report_atomicity t ls ~loc ~p ~pn ~site:"Xenstore.write"
        ~stack:(capture t)
  | _ -> ());
  Hashtbl.remove t.pend (p.p_id, loc);
  ls.l_gen <- ls.l_gen + 1;
  ls.l_write <-
    Some
      { a_pid = p.p_id; a_name = p.p_name; a_site = "Xenstore.write";
        a_kind = `Write; a_own = own p; a_stack = None };
  hb_release t ~chan:loc

(* ------------------------------------------------------------------ *)
(* Shared rings                                                        *)
(*                                                                     *)
(* Producer side: write the slot, then publish (release the side's     *)
(* channel).  Consumer side: acquire the channel, and treat a          *)
(* successful take as a write (read + clear) of the slot.  The         *)
(* consumer cursor back-channel models the producer's read of the      *)
(* peer's consumer index when checking for ring-full: that is the edge *)
(* that makes slot reuse after wrap-around well-ordered.               *)
(*                                                                     *)
(* The shared producer/consumer *indices* are modelled purely as       *)
(* release/acquire channels, never as access-checked locations: in     *)
(* Xen's C ring protocol the consumer legitimately polls prod_idx      *)
(* while the producer updates it (a single word, ordered by barriers   *)
(* that the publish/take helpers bake in), so access-checking the      *)
(* index would flag every poll.  What the detector checks is the slot  *)
(* payloads: a slot written after publish, or republished before the   *)
(* consumer's cursor release made reuse safe, shows up as an           *)
(* unordered slot access.  The notification thresholds                 *)
(* (req_event/rsp_event) are likewise *not* instrumented: they are     *)
(* racy by design, and the lost-wakeup final-check dance is what makes *)
(* the race benign.                                                    *)
(* ------------------------------------------------------------------ *)

type ring = {
  rr : t;
  req_chan : string;
  rsp_chan : string;
  req_cons_chan : string;
  rsp_cons_chan : string;
  req_slots : string array;
  rsp_slots : string array;
}

let ring t ~name ~size =
  (* A reconnecting frontend builds a fresh ring under the same device
     name; a generation suffix keeps the new ring's slots and channels
     distinct from the dead ring's, whose slots it never aliases. *)
  let gen =
    match Hashtbl.find_opt t.ring_gens name with
    | Some g -> g + 1
    | None -> 0
  in
  Hashtbl.replace t.ring_gens name gen;
  let name = if gen = 0 then name else Printf.sprintf "%s~%d" name gen in
  {
    rr = t;
    req_chan = Printf.sprintf "ring:%s.req" name;
    rsp_chan = Printf.sprintf "ring:%s.rsp" name;
    req_cons_chan = Printf.sprintf "ring:%s.req_cons" name;
    rsp_cons_chan = Printf.sprintf "ring:%s.rsp_cons" name;
    req_slots =
      Array.init size (fun i -> Printf.sprintf "ring:%s.req[%d]" name i);
    rsp_slots =
      Array.init size (fun i -> Printf.sprintf "ring:%s.rsp[%d]" name i);
  }

let side_chan rr = function `Req -> rr.req_chan | `Rsp -> rr.rsp_chan

let cons_chan rr = function
  | `Req -> rr.req_cons_chan
  | `Rsp -> rr.rsp_cons_chan

let slot_loc rr side i =
  match side with `Req -> rr.req_slots.(i) | `Rsp -> rr.rsp_slots.(i)

let ring_push rr side ~slot =
  (* The ring-full guard reads the peer's consumer cursor. *)
  hb_acquire rr.rr ~chan:(cons_chan rr side);
  write_acc rr.rr ~loc:(slot_loc rr side slot) ~site:"Ring.push"

let ring_publish rr side = hb_release rr.rr ~chan:(side_chan rr side)

let ring_take rr side ~got ~slot =
  hb_acquire rr.rr ~chan:(side_chan rr side);
  if got then begin
    write_acc rr.rr ~loc:(slot_loc rr side slot) ~site:"Ring.take";
    (* Advancing the consumer cursor is what frees the slot for reuse. *)
    hb_release rr.rr ~chan:(cons_chan rr side)
  end

(* ------------------------------------------------------------------ *)
(* Run-wide sink                                                       *)
(* ------------------------------------------------------------------ *)

type sink = {
  s_config : config;
  s_report : Kite_check.Report.t;
  mutable s_members : t list;
}

let sink ?(config = default_config) ?report () =
  let s_report =
    match report with Some r -> r | None -> Kite_check.Report.create ()
  in
  { s_config = config; s_report; s_members = [] }

let create_in s ~name =
  let t = create ~config:s.s_config ~name s.s_report in
  s.s_members <- t :: s.s_members;
  t

let members s = List.rev s.s_members
let sink_report s = s.s_report

let default_ref : sink option ref = ref None
let set_default s = default_ref := s
let default () = !default_ref
