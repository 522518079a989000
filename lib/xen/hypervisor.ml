open Kite_sim

(* One hypercall name's accounting, resolved once per domain: its
   ["hypercall.<name>"] counter and that name as the trace op. *)
type call = { name : string; op : string; count : Metrics.cell }

(* A domain's accounting, resolved at its first charge: the busy-time
   cell behind ["vcpu.<name>"], its per-vCPU occupancy cursors (made at
   the first non-empty occupancy) and one [call] per hypercall name it
   has made.  Metric entries still appear at their first update. *)
type account = {
  busy : Metrics.cell;
  mutable cursors : Time.t array;
  mutable calls : call list;
}

type t = {
  engine : Engine.t;
  sched : Process.sched;
  metrics : Metrics.t;
  costs : Costs.t;
  store : Xenstore.t;
  rng : Rng.t;
  mutable domains : Domain.t list;  (* reversed creation order *)
  mutable next_domid : int;
  mutable trace : Kite_trace.Trace.t option;
  mutable mreg : Kite_metrics.Registry.t option;
  mutable path : Kite_path.Path.t option;
  (* Per-domain accounting, indexed by domain id. *)
  mutable accounts : account option array;
}

let create ?(costs = Costs.default) ?(seed = 1) ?schedule_seed () =
  let engine = Engine.create ?schedule_seed () in
  let dom0 =
    { Domain.id = 0; name = "Dom0"; kind = Domain.Dom0; vcpus = 4; mem_mb = 8192 }
  in
  {
    engine;
    sched = Process.scheduler engine;
    metrics = Metrics.create ();
    costs;
    store = Xenstore.create ();
    rng = Rng.create seed;
    domains = [ dom0 ];
    next_domid = 1;
    trace = None;
    mreg = None;
    path = None;
    accounts = [||];
  }

let engine t = t.engine
let sched t = t.sched
let metrics t = t.metrics
let costs t = t.costs
let store t = t.store
let rng t = t.rng
let now t = Engine.now t.engine
let trace t = t.trace

let set_trace t tr =
  t.trace <- tr;
  Process.set_trace t.sched tr

(* The continuous profiler: every occupancy charge is attributed to the
   domain and (through the scheduler's current-process stack) the
   process that paid it. *)
let set_path t p =
  t.path <- p;
  Process.set_path t.sched p

(* A domain's vCPU busy time already accumulates in [Metrics.add_busy]
   (see [occupy]); the registry just reads it back on each sampling
   tick, so attaching metrics costs the hot path nothing. *)
let register_domain_metrics t d =
  match t.mreg with
  | None -> ()
  | Some r ->
      Kite_metrics.Registry.counter_fn r "kite_sched_domain_busy_ns_total"
        ~help:"Cumulative vCPU busy time per domain (simulated ns)"
        [ ("domain", d.Domain.name) ]
        (fun () -> Metrics.busy t.metrics ("vcpu." ^ d.Domain.name))

let set_metrics t reg =
  t.mreg <- reg;
  match reg with
  | None -> ()
  | Some r ->
      Kite_metrics.Registry.gauge_fn r "kite_sched_processes_live"
        ~help:"Live cooperative processes" []
        (fun () -> float_of_int (Process.live t.sched));
      Kite_metrics.Registry.gauge_fn r "kite_sched_runq_depth"
        ~help:"Pending engine events (runnable queue depth)" []
        (fun () -> float_of_int (Engine.pending t.engine));
      List.iter (register_domain_metrics t) t.domains

let metrics_registry t = t.mreg

let dom0 t =
  match List.rev t.domains with d :: _ -> d | [] -> assert false

let create_domain t ~name ~kind ~vcpus ~mem_mb =
  if kind = Domain.Dom0 then invalid_arg "Hypervisor.create_domain: Dom0";
  let d = { Domain.id = t.next_domid; name; kind; vcpus; mem_mb } in
  t.next_domid <- t.next_domid + 1;
  t.domains <- d :: t.domains;
  (* Give the domain its xenstore home, owned by itself, as xl would. *)
  let home = Printf.sprintf "/local/domain/%d" d.Domain.id in
  Xenstore.mkdir t.store ~domid:0 ~path:home;
  Xenstore.set_owner t.store ~path:home ~domid:d.Domain.id;
  register_domain_metrics t d;
  d

let domains t = List.rev t.domains

let find_domain t id =
  List.find_opt (fun d -> d.Domain.id = id) t.domains

let spawn t dom ?daemon ~name body =
  Process.spawn t.sched ?daemon ~name:(dom.Domain.name ^ "/" ^ name) body

let account t dom =
  let id = dom.Domain.id in
  if id >= Array.length t.accounts then begin
    let a = Array.make (max 8 (2 * (id + 1))) None in
    Array.blit t.accounts 0 a 0 (Array.length t.accounts);
    t.accounts <- a
  end;
  match t.accounts.(id) with
  | Some a -> a
  | None ->
      let a =
        {
          busy = Metrics.busy_cell t.metrics ("vcpu." ^ dom.Domain.name);
          cursors = [||];
          calls = [];
        }
      in
      t.accounts.(id) <- Some a;
      a

let call t a name =
  let rec find = function
    | c :: rest -> if String.equal c.name name then c else find rest
    | [] ->
        let op = "hypercall." ^ name in
        let c = { name; op; count = Metrics.counter_cell t.metrics op } in
        a.calls <- c :: a.calls;
        c
  in
  find a.calls

(* Occupy the domain's vCPU for [span].  Domains with one vCPU contend:
   concurrent work queues behind the cursor.  Multi-vCPU domains are
   approximated as uncontended (the evaluation's DomU has 22 vCPUs and is
   never CPU-bound in these experiments). *)
let occupy t dom a span =
  Metrics.bump a.busy span;
  (match t.path with
  | Some p -> Kite_path.Path.cpu_sample p ~domain:dom.Domain.name ~cost:span
  | None -> ());
  if span > 0 then begin
    if Array.length a.cursors = 0 then
      a.cursors <- Array.make (max 1 dom.Domain.vcpus) Time.zero;
    let cursors = a.cursors in
    (* Run on the earliest-free vCPU. *)
    let best = ref 0 in
    for i = 1 to Array.length cursors - 1 do
      if cursors.(i) < cursors.(!best) then best := i
    done;
    let now = Engine.now t.engine in
    let start = max now cursors.(!best) in
    let finish = start + span in
    cursors.(!best) <- finish;
    Process.sleep (finish - now)
  end

let hypercall t dom name ~extra =
  let span = t.costs.Costs.hypercall_base + extra in
  let a = account t dom in
  let c = call t a name in
  Metrics.bump c.count 1;
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.charge tr ~at:(Engine.now t.engine)
        ~domain:dom.Domain.name ~op:c.op ~cost:span
  | None -> ());
  occupy t dom a span

let cpu_work t dom span =
  (match t.trace with
  | Some tr ->
      Kite_trace.Trace.cpu_work tr ~at:(Engine.now t.engine)
        ~domain:dom.Domain.name ~cost:span
  | None -> ());
  occupy t dom (account t dom) span

let run t = Engine.run t.engine
let run_for t span = Engine.run_for t.engine span
