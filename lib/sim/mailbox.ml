type 'a t = {
  q : 'a Queue.t;
  nonempty : Condition.t;
  label : string option;
  id : int;
  mutable chan : string option;  (* built when a race detector first asks *)
}

let next_id = ref 0

let create ?label () =
  let id = !next_id in
  incr next_id;
  {
    q = Queue.create ();
    nonempty = Condition.create ?label ();
    label;
    id;
    chan = None;
  }

let chan t =
  match t.chan with
  | Some c -> c
  | None ->
      let c =
        match t.label with
        | Some l -> Printf.sprintf "mbox:%d:%s" t.id l
        | None -> Printf.sprintf "mbox:%d" t.id
      in
      t.chan <- Some c;
      c

let acquire t =
  if Kite_race.Race.active () then Kite_race.Race.scoped_acquire ~chan:(chan t)

let send t v =
  (* Send-to-receive happens-before edge: whoever dequeues this message
     is ordered after everything the sender published before sending. *)
  if Kite_race.Race.active () then Kite_race.Race.scoped_release ~chan:(chan t);
  Queue.push v t.q;
  Condition.signal t.nonempty

let rec recv t =
  match Queue.take_opt t.q with
  | Some v ->
      acquire t;
      v
  | None ->
      Condition.wait t.nonempty;
      recv t

let rec recv_timeout t span =
  match Queue.take_opt t.q with
  | Some v ->
      acquire t;
      Some v
  | None -> (
      match Condition.timed_wait t.nonempty span with
      | `Timeout -> recv_now t
      | `Signaled ->
          (* A competing receiver may have taken the message; retry with the
             full span only if something is queued, otherwise report empty.
             Retrying with the original span would be unbounded under
             contention; in this cooperative setting a single re-check
             suffices because sends wake exactly one receiver. *)
          recv_now t)

and recv_now t =
  match Queue.take_opt t.q with
  | Some v ->
      acquire t;
      Some v
  | None -> None

let try_recv t = recv_now t

let length t = Queue.length t.q
let is_empty t = Queue.is_empty t.q
