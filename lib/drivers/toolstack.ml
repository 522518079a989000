open Kite_xen

let add_device ctx ~backend ~frontend ~ty ~devid ?queues () =
  let xs = Hypervisor.store ctx.Xen_ctx.hv in
  let bpath = Xenbus.backend_path ~backend ~frontend ~ty ~devid in
  let fpath = Xenbus.frontend_path ~frontend ~ty ~devid in
  Xenstore.mkdir xs ~domid:0 ~path:fpath;
  Xenstore.write xs ~domid:0 ~path:(fpath ^ "/backend") bpath;
  Xenstore.write xs ~domid:0
    ~path:(fpath ^ "/backend-id")
    (string_of_int backend.Domain.id);
  (* The guest-config queue hint (xl's [queues=N]): the frontend reads
     it at connect when not given an explicit ask, and negotiates
     multi-queue from it.  Absent = legacy single ring. *)
  (match queues with
  | Some n ->
      Xenstore.write xs ~domid:0
        ~path:(fpath ^ "/queues-wanted")
        (string_of_int n)
  | None -> ());
  (* Created last: this is what fires the backend's directory watch. *)
  Xenstore.mkdir xs ~domid:0 ~path:bpath;
  Xenstore.write xs ~domid:0 ~path:(bpath ^ "/frontend") fpath

let add_vif ctx ~backend ~frontend ~devid ?queues () =
  add_device ctx ~backend ~frontend ~ty:"vif" ~devid ?queues ()

let add_vbd ctx ~backend ~frontend ~devid ?queues () =
  add_device ctx ~backend ~frontend ~ty:"vbd" ~devid ?queues ()

let home_path dom = Printf.sprintf "/local/domain/%d" dom.Domain.id

(* What the hypervisor does when a domain is destroyed: every event
   channel with an endpoint in it is torn down, every grant mapping it
   held is revoked (and grants made {e to} it force-unmapped at the
   granter), and xenstored removes its subtree — firing the watches other
   domains registered below it, which is how frontends learn their
   backend vanished.  All pure table updates: callable from any context,
   including after the domain's processes are gone. *)
let crash_driver_domain ctx dom =
  (* Report (and so trigger the incident snapshot) before the teardown
     below, so the captured xenstore subtree still shows the domain's
     home. *)
  Xen_ctx.domain_crashed ctx dom;
  Event_channel.close_domain ctx.Xen_ctx.ec ~domid:dom.Domain.id;
  Grant_table.revoke_domain ctx.Xen_ctx.gt ~domid:dom.Domain.id;
  Xenstore.rm (Hypervisor.store ctx.Xen_ctx.hv) ~domid:0 ~path:(home_path dom)

(* Rebuild the driver domain: xl create with the same config.  [boot]
   models the domain's boot sequence ({!Kite_profiles.Boot}); once it is
   up, the xenstore home is recreated, [respawn] restarts the backend
   drivers (in simulation the same [Domain.t] is reused — the rebooted
   domain keeps its domid, a simplification over xl's fresh id) and
   [on_ready] runs last, in the same process context. *)
let restart_driver_domain ctx dom ~boot ~respawn ~on_ready =
  let hv = ctx.Xen_ctx.hv in
  Kite_profiles.Boot.run (Hypervisor.sched hv) boot ~on_ready:(fun _at ->
      let xs = Hypervisor.store hv in
      Xenstore.mkdir xs ~domid:0 ~path:(home_path dom);
      Xenstore.set_owner xs ~path:(home_path dom) ~domid:dom.Domain.id;
      Xen_ctx.domain_restarted ctx dom;
      respawn ();
      on_ready ())
