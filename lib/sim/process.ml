type sched = {
  engine : Engine.t;
  mutable live : int;
  mutable check : Kite_check.Check.t option;
  mutable trace : Kite_trace.Trace.t option;
  mutable race : Kite_race.Race.t option;
  mutable path : Kite_path.Path.t option;
}

exception Process_failure of string * exn

type _ Effect.t +=
  | Sleep : Time.span -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend :
      (string option * (Engine.t -> (unit -> unit) -> unit))
      -> unit Effect.t

let scheduler engine =
  { engine; live = 0; check = None; trace = None; race = None; path = None }

let engine t = t.engine
let live t = t.live
let set_check t c = t.check <- c
let set_trace t tr = t.trace <- tr
let set_race t r = t.race <- r
let set_path t p = t.path <- p

let sleep span = Effect.perform (Sleep span)
let yield () = Effect.perform Yield
let suspend ?label register = Effect.perform (Suspend (label, register))

let spawn t ?(daemon = false) ~name body =
  t.live <- t.live + 1;
  (* Sink references are re-read from the scheduler at every engine-queue
     (re-)entry, and per-sink registration happens lazily against the
     instance seen at that moment: attaching a checker, tracer or race
     detector mid-run therefore instruments already-running processes
     from their next step onward (closing the old capture-at-spawn-time
     gap, where mid-run attachment silently skipped them).  Events from
     before the attach are simply absent, as for any late observer. *)
  let creg = ref None in
  let rreg = ref None in
  (* [@lint.guarded]: only reached through a Some-match on the sink. *)
  let[@lint.guarded] check_pid c =
    match !creg with
    | Some (c', pid) when c' == c -> pid
    | _ ->
        let pid = Kite_check.Check.proc_spawned c ~name ~daemon in
        creg := Some (c, pid);
        pid
  in
  let[@lint.guarded] race_pid r =
    match !rreg with
    | Some (r', pid) when r' == r -> pid
    | _ ->
        let pid = Kite_race.Race.proc_register r ~name in
        rreg := Some (r, pid);
        pid
  in
  (* Register eagerly when sinks are already attached, so spawn order and
     the race detector's spawn edge are recorded at the true spawn
     instant (the spawner is still the current process here). *)
  (match t.check with Some c -> ignore (check_pid c) | None -> ());
  (match t.race with Some r -> ignore (race_pid r) | None -> ());
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.proc_spawned tr ~at:(Engine.now t.engine) ~name ~daemon
  | None -> ());
  (* Building the block-kind variant allocates, so only do it for an
     observer that reads it. *)
  let observed () =
    match (t.check, t.race, t.trace) with
    | None, None, None -> false
    | _ -> true
  in
  let blocked kind =
    (match t.check with
    | Some c ->
        let ckind =
          match kind with
          | `Sleep _ -> `Sleep
          | (`Yield | `Suspend _) as k -> k
        in
        Kite_check.Check.proc_blocked c (check_pid c) ~kind:ckind
    | None -> ());
    (match t.race with
    | Some r -> Kite_race.Race.proc_blocked r (race_pid r)
    | None -> ());
    match t.trace with
    | Some tr ->
        Kite_trace.Trace.proc_blocked tr ~at:(Engine.now t.engine) ~name ~kind
    | None -> ()
  in
  (* Wrap every engine-queue (re-)entry of the process so the observers
     know which process events are attributed to. *)
  let enter f =
    match (t.check, t.trace, t.race, t.path) with
    | None, None, None, None -> f ()
    | check, trace, race, path ->
        (match check with
        | Some c -> Kite_check.Check.proc_enter c (check_pid c)
        | None -> ());
        (match trace with
        | Some tr -> Kite_trace.Trace.proc_enter tr ~name
        | None -> ());
        (match race with
        | Some r -> Kite_race.Race.proc_enter r (race_pid r)
        | None -> ());
        (match path with
        | Some p -> Kite_path.Path.proc_enter p ~name
        | None -> ());
        Fun.protect
          ~finally:(fun () ->
            (match path with
            | Some p -> Kite_path.Path.proc_leave p
            | None -> ());
            (match race with
            | Some r -> Kite_race.Race.proc_leave r
            | None -> ());
            (match trace with
            | Some tr -> Kite_trace.Trace.proc_leave tr
            | None -> ());
            match check with
            | Some c -> Kite_check.Check.proc_leave c
            | None -> ())
          f
  in
  let exited () =
    (match t.check with
    | Some c -> Kite_check.Check.proc_exited c (check_pid c)
    | None -> ());
    (match t.race with
    | Some r -> Kite_race.Race.proc_exited r (race_pid r)
    | None -> ());
    match t.trace with
    | Some tr -> Kite_trace.Trace.proc_exited tr ~at:(Engine.now t.engine) ~name
    | None -> ()
  in
  (* The one closure a blocked process costs the event queue: resume [k]
     under the observers' process attribution. *)
  let wake k () =
    match (t.check, t.trace, t.race, t.path) with
    | None, None, None, None -> Effect.Deep.continue k ()
    | _ -> enter (fun () -> Effect.Deep.continue k ())
  in
  let run () =
    let open Effect.Deep in
    match_with body ()
      {
        retc =
          (fun () ->
            t.live <- t.live - 1;
            exited ());
        exnc =
          (fun e ->
            t.live <- t.live - 1;
            exited ();
            raise (Process_failure (name, e)));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep span ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if observed () then blocked (`Sleep span);
                    ignore (Engine.schedule_after t.engine span (wake k)))
            | Yield ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if observed () then blocked `Yield;
                    ignore (Engine.schedule_after t.engine 0 (wake k)))
            | Suspend (label, register) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if observed () then blocked (`Suspend label);
                    (* [resume] re-enters through the event queue so that a
                       waker always finishes its step before the woken
                       process runs. *)
                    let resumed = ref false in
                    let resume () =
                      if !resumed then
                        invalid_arg "Process: double resume of a suspension";
                      resumed := true;
                      ignore (Engine.schedule_after t.engine 0 (wake k))
                    in
                    register t.engine resume)
            | _ -> None);
      }
  in
  ignore (Engine.schedule_after t.engine 0 (fun () -> enter run))
