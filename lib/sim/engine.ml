type handle = { mutable cancelled : bool; thunk : unit -> unit }

type t = {
  mutable clock : Time.t;
  queue : handle Heap.t;
  (* Schedule explorer: when armed, every event draws a random secondary
     priority, so events scheduled for the same instant execute in a
     seed-determined random permutation instead of FIFO order (a
     PCT-style priority assignment).  Each seed is one reproducible
     interleaving; sweeping seeds with the checker and race detector as
     oracles surfaces ordering bugs the FIFO schedule can never hit. *)
  explore : Rng.t option;
}

(* Fills the heap's unused value slots; never fired. *)
let no_event = { cancelled = true; thunk = ignore }

let create ?schedule_seed () =
  {
    clock = Time.zero;
    queue = Heap.create ~dummy:no_event;
    explore = Option.map Rng.create schedule_seed;
  }

let explored t = t.explore <> None

let now t = t.clock

let schedule_at t when_ f =
  if when_ < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %d is in the past (now %d)" when_
         t.clock);
  let h = { cancelled = false; thunk = f } in
  let prio = match t.explore with None -> 0 | Some rng -> Rng.int rng 0x40000000 in
  Heap.add t.queue ~key:when_ ~prio h;
  h

let schedule_after t span f = schedule_at t (t.clock + span) f

let cancel h = h.cancelled <- true
let cancelled h = h.cancelled

(* Read the key before popping: neither call allocates, so an event
   costs the queue nothing beyond its handle. *)
let step t =
  let q = t.queue in
  if Heap.is_empty q then false
  else begin
    t.clock <- Heap.top_key q;
    let h = Heap.pop q in
    if not h.cancelled then h.thunk ();
    true
  end

let run t = while step t do () done

let run_until t limit =
  let q = t.queue in
  while (not (Heap.is_empty q)) && Heap.top_key q <= limit do
    ignore (step t)
  done;
  if t.clock < limit then t.clock <- limit

let run_for t span = run_until t (t.clock + span)

let pending t = Heap.size t.queue
