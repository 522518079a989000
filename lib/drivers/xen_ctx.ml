(* The bundle of hypervisor services a split driver needs: xenbus for the
   handshake, event channels for notifications, a grant table for shared
   memory, plus the shared-ring registries that stand in for mapping ring
   pages.  One per simulated machine.

   The layer fields are filled by [Scenario.arm]; drivers report to the
   layers through the verbs below, so they never need to know which
   layers exist.  The verbs sit on cold paths (connect, faults,
   quarantine, crash/restart); hot-path hooks whose arguments would
   allocate stay guarded at their call sites. *)

open Kite_xen

type t = {
  hv : Hypervisor.t;
  xb : Xenbus.t;
  ec : Event_channel.t;
  gt : Grant_table.t;
  netrings : Netchannel.registry;
  blkrings : Blkif.registry;
  mutable check : Kite_check.Check.t option;
  mutable trace : Kite_trace.Trace.t option;
  mutable fault : Kite_fault.Fault.t option;
  mutable metrics : Kite_metrics.Registry.t option;
  mutable race : Kite_race.Race.t option;
  mutable flight : Kite_flight.Flight.t option;
  mutable path : Kite_path.Path.t option;
}

let create hv =
  {
    hv;
    xb = Xenbus.create hv;
    ec = Event_channel.create hv;
    gt = Grant_table.create hv;
    netrings = Netchannel.registry ();
    blkrings = Blkif.registry ();
    check = None;
    trace = None;
    fault = None;
    metrics = None;
    race = None;
    flight = None;
    path = None;
  }

let instrument_ring t ring ~name =
  (match t.check with Some c -> Ring.attach_check ring c ~name | None -> ());
  (match t.trace with
  | Some tr ->
      Ring.attach_trace ring tr ~name ~now:(fun () -> Hypervisor.now t.hv)
  | None -> ());
  (match t.fault with Some f -> Ring.attach_fault ring f ~name | None -> ());
  match t.race with Some r -> Ring.attach_race ring r ~name | None -> ()

let note t ~key what =
  match t.fault with
  | Some f -> Kite_fault.Fault.note f ~what ~key
  | None -> ()

let guest_fault t ?(handshake = false) ~domid ~device ~attack ~detail () =
  let slug = Guest_fault.slug attack in
  (match t.check with
  | Some c ->
      Kite_check.Check.guest_fault c ~domid ~device ~attack:slug ~detail;
      (* A rejected handshake is its own offline quarantine. *)
      if handshake then
        Kite_check.Check.guest_quarantined c ~domid ~device ~action:"offline"
          ~faults:1
  | None -> ());
  match t.flight with
  | Some fl ->
      Kite_flight.Flight.record fl ~layer:"adversary" ~kind:"guest-fault"
        ~key:device
        ~msg:
          (if handshake then
             Printf.sprintf "%s: %s (handshake rejected)" slug detail
           else Printf.sprintf "%s: %s" slug detail);
      Kite_flight.Flight.trigger fl Kite_flight.Flight.Manual
        ~reason:
          (Printf.sprintf "%s on %s: %s"
             (if handshake then "handshake rejected" else "guest fault")
             device slug)
  | None -> ()

let quarantined t ~domid ~device ~action ~faults =
  (match t.check with
  | Some c ->
      Kite_check.Check.guest_quarantined c ~domid ~device ~action ~faults
  | None -> ());
  match t.flight with
  | Some fl ->
      Kite_flight.Flight.mark fl ~what:"quarantine"
        ~msg:(Printf.sprintf "%s -> %s" device action)
  | None -> ()

let domain_crashed t dom =
  note t ~key:dom.Domain.name "toolstack.crash";
  match t.flight with
  | Some fl ->
      Kite_flight.Flight.crash fl ~domain:dom.Domain.name
        ~reason:"driver domain destroyed"
  | None -> ()

let domain_restarted t dom =
  note t ~key:dom.Domain.name "toolstack.restarted";
  match t.flight with
  | Some fl ->
      Kite_flight.Flight.restart fl ~domain:dom.Domain.name
        ~msg:"driver domain rebooted"
  | None -> ()
