(* The adversary subsystem: one deterministic test per attack primitive
   (typed Guest_fault finding + quarantine escalation + zero impact on
   the co-hosted honest guest), the handshake-rejection paths, and a
   reduced seeded campaign (the 50-seed sweep runs under the @adversary
   alias via kite_ctl attack). *)

open Kite_sim
open Kite_xen
module Check = Kite_check.Check
module Report = Kite_check.Report
module Flight = Kite_flight.Flight
module Guest_fault = Kite_drivers.Guest_fault
module Quarantine = Kite_drivers.Quarantine
module Netback = Kite_drivers.Netback
module Blkback = Kite_drivers.Blkback
module Toolstack = Kite_drivers.Toolstack
module Scenario = Kite.Scenario
module Campaign = Kite_adversary.Campaign
module Evil_net = Kite_adversary.Evil_net
module Evil_blk = Kite_adversary.Evil_blk

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rule_count report rule = List.length (Report.by_rule report rule)

(* ------------------------------------------------------------------ *)
(* Network-side attack primitives                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  o_findings : int;  (** findings under the class's checker rule *)
  o_level : int;  (** quarantine level of the hostile device *)
  o_rejected : bool;  (** handshake refused outright *)
  o_honest_ok : bool;  (** honest guest unaffected *)
  o_errors : int;  (** checker errors (detections are warnings) *)
}

(* One hostile vif (devid 1) next to the testbed's honest one (devid 0):
   run the volley, then measure detection, escalation and the honest
   guest's health (every ping must still complete). *)
let net_attack ~cls ~mode ~volley () =
  let report = Report.create () in
  Check.set_default (Some (Check.default_config, report));
  Fun.protect
    ~finally:(fun () -> Check.set_default None)
    (fun () ->
      let s = Scenario.network ~flavor:Scenario.Kite ~seed:7 ~num_queues:2 () in
      let hv = s.Scenario.hv and ctx = s.Scenario.ctx in
      let evil =
        Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom_u ~vcpus:1
          ~mem_mb:256
      in
      let victim = s.Scenario.domu.Domain.id in
      let evr = ref None in
      Hypervisor.spawn hv evil ~name:"evil-vif" (fun () ->
          Process.sleep (Time.ms 5);
          Toolstack.add_vif ctx ~backend:s.Scenario.dd ~frontend:evil ~devid:1
            ();
          let ev =
            Evil_net.create ctx ~domain:evil ~backend:s.Scenario.dd ~devid:1
              ~nq:2
          in
          evr := Some ev;
          Evil_net.handshake ev mode;
          if mode = Evil_net.Honest then begin
            Process.sleep (Time.ms 2);
            volley ev ~victim
          end);
      let pings_ok = ref 0 in
      Scenario.when_net_ready s (fun () ->
          for seq = 1 to 20 do
            (match
               Kite_net.Stack.ping s.Scenario.client_stack
                 ~dst:s.Scenario.guest_ip ~seq ()
             with
            | Some _ -> incr pings_ok
            | None -> ());
            Process.sleep (Time.ms 2)
          done);
      Hypervisor.run_for hv (Time.sec 1);
      (match !evr with Some ev -> Evil_net.cleanup ev | None -> ());
      let nb = Kite_drivers.Net_app.netback s.Scenario.net_app in
      let rejected = List.mem (evil.Domain.id, 1) (Netback.rejected nb) in
      let level =
        match
          List.find_opt
            (fun i ->
              Netback.frontend_domid i = evil.Domain.id && Netback.devid i = 1)
            (Netback.instances nb)
        with
        | Some i -> Quarantine.level (Netback.quarantine i)
        | None -> if rejected then 3 else 0
      in
      Scenario.teardown_all ();
      {
        o_findings = rule_count report (Guest_fault.rule cls);
        o_level = level;
        o_rejected = rejected;
        o_honest_ok = !pings_ok = 20;
        o_errors = Report.errors report;
      })

let assert_outcome ?(min_level = 1) ?(rejected = false) name o =
  check_bool (name ^ ": detected as a typed guest fault") true
    (o.o_findings >= 1);
  check_bool
    (Printf.sprintf "%s: quarantine level %d >= %d" name o.o_level min_level)
    true
    (o.o_level >= min_level);
  check_bool (name ^ ": handshake rejection") rejected o.o_rejected;
  check_bool (name ^ ": honest guest unaffected") true o.o_honest_ok;
  check_int (name ^ ": zero checker errors") 0 o.o_errors

let nop _ev ~victim:_ = ()

let test_net_ring_index () =
  net_attack ~cls:Guest_fault.Ring_index ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_ring_index ev)
    ()
  (* Severe: the device state itself is untrustworthy — straight to
     offline, no ladder. *)
  |> assert_outcome ~min_level:3 "ring-index"

let test_net_bad_gref () =
  net_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_bad_gref ev)
    ()
  |> assert_outcome ~min_level:3 "bad-gref"

let test_net_foreign_gref () =
  net_attack ~cls:Guest_fault.Foreign_gref ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim -> Evil_net.attack_foreign_gref ev ~victim)
    ()
  |> assert_outcome ~min_level:3 "foreign-gref"

let test_net_bad_length () =
  net_attack ~cls:Guest_fault.Bad_length ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_bad_length ev)
    ()
  |> assert_outcome ~min_level:3 "bad-length"

let test_net_replay () =
  net_attack ~cls:Guest_fault.Replay ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_replay ev)
    ()
  |> assert_outcome ~min_level:3 "replay"

let test_net_slot_reuse () =
  net_attack ~cls:Guest_fault.Slot_reuse ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_slot_reuse ev)
    ()
  |> assert_outcome ~min_level:1 "slot-reuse"

let test_net_xenbus_jump () =
  net_attack ~cls:Guest_fault.Xenbus_jump ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_xenbus_jump ev)
    ()
  (* The guard is unwatched at detach, so the ladder plateaus at 2. *)
  |> assert_outcome ~min_level:2 "xenbus-jump"

let test_net_evtchn_storm () =
  net_attack ~cls:Guest_fault.Evtchn_storm ~mode:Evil_net.Honest
    ~volley:(fun ev ~victim:_ -> Evil_net.attack_storm ev ~count:200)
    ()
  |> assert_outcome ~min_level:1 "evtchn-storm"

let test_net_bad_ring_ref () =
  net_attack ~cls:Guest_fault.Bad_ring_ref ~mode:Evil_net.Forged_ring_ref
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "bad-ring-ref"

let test_net_bad_port () =
  net_attack ~cls:Guest_fault.Bad_port ~mode:Evil_net.Hijacked_port
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "bad-port"

let test_net_xenstore_abuse () =
  net_attack ~cls:Guest_fault.Xenstore_abuse ~mode:Evil_net.Garbage_keys
    ~volley:nop ()
  |> assert_outcome ~min_level:3 ~rejected:true "xenstore-abuse"

(* ------------------------------------------------------------------ *)
(* Storage-side attack primitives                                      *)
(* ------------------------------------------------------------------ *)

(* Same shape for a hostile vbd; the honest guest writes a pattern far
   from the attacker's scratch sectors and must read it back intact. *)
let blk_attack ~cls ~mode ~volley () =
  let report = Report.create () in
  Check.set_default (Some (Check.default_config, report));
  Fun.protect
    ~finally:(fun () -> Check.set_default None)
    (fun () ->
      let s = Scenario.storage ~flavor:Scenario.Kite ~seed:7 ~num_queues:2 () in
      let hv = s.Scenario.bhv and ctx = s.Scenario.bctx in
      let evil =
        Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom_u ~vcpus:1
          ~mem_mb:256
      in
      let victim = s.Scenario.bdomu.Domain.id in
      let evr = ref None in
      Hypervisor.spawn hv evil ~name:"evil-vbd" (fun () ->
          Process.sleep (Time.ms 5);
          Toolstack.add_vbd ctx ~backend:s.Scenario.bdd ~frontend:evil ~devid:1
            ();
          let ev =
            Evil_blk.create ctx ~domain:evil ~backend:s.Scenario.bdd ~devid:1
              ~nq:2
          in
          evr := Some ev;
          Evil_blk.handshake ev mode;
          if mode = Evil_blk.Honest then begin
            Process.sleep (Time.ms 2);
            volley ev ~victim
          end);
      let honest_ok = ref false in
      Scenario.when_blk_ready s (fun () ->
          let payload = Bytes.make (8 * 512) 'K' in
          Kite_drivers.Blkfront.write s.Scenario.blkfront ~sector:30_000
            payload;
          Process.sleep (Time.ms 60);
          let got =
            Kite_drivers.Blkfront.read s.Scenario.blkfront ~sector:30_000
              ~count:8
          in
          honest_ok := Bytes.equal got payload);
      Hypervisor.run_for hv (Time.sec 1);
      (match !evr with Some ev -> Evil_blk.cleanup ev | None -> ());
      let bb = Kite_drivers.Blk_app.blkback s.Scenario.blk_app in
      let rejected = List.mem (evil.Domain.id, 1) (Blkback.rejected bb) in
      let level =
        match
          List.find_opt
            (fun i ->
              Blkback.frontend_domid i = evil.Domain.id && Blkback.devid i = 1)
            (Blkback.instances bb)
        with
        | Some i -> Quarantine.level (Blkback.quarantine i)
        | None -> if rejected then 3 else 0
      in
      Scenario.teardown_all ();
      {
        o_findings = rule_count report (Guest_fault.rule cls);
        o_level = level;
        o_rejected = rejected;
        o_honest_ok = !honest_ok;
        o_errors = Report.errors report;
      })

let test_blk_ring_index () =
  blk_attack ~cls:Guest_fault.Ring_index ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_ring_index ev)
    ()
  |> assert_outcome ~min_level:3 "blk ring-index"

let test_blk_bad_gref () =
  blk_attack ~cls:Guest_fault.Bad_gref ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_bad_gref ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-gref"

let test_blk_foreign_gref () =
  blk_attack ~cls:Guest_fault.Foreign_gref ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim -> Evil_blk.attack_foreign_gref ev ~victim)
    ()
  |> assert_outcome ~min_level:3 "blk foreign-gref"

let test_blk_bad_length () =
  blk_attack ~cls:Guest_fault.Bad_length ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_bad_length ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-length"

let test_blk_bad_segment () =
  blk_attack ~cls:Guest_fault.Bad_segment ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_bad_segment ev)
    ()
  |> assert_outcome ~min_level:3 "blk bad-segment"

let test_blk_replay () =
  blk_attack ~cls:Guest_fault.Replay ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_replay ev)
    ()
  |> assert_outcome ~min_level:3 "blk replay"

let test_blk_slot_reuse () =
  blk_attack ~cls:Guest_fault.Slot_reuse ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_slot_reuse ev)
    ()
  |> assert_outcome ~min_level:1 "blk slot-reuse"

let test_blk_xenbus_jump () =
  blk_attack ~cls:Guest_fault.Xenbus_jump ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_xenbus_jump ev)
    ()
  |> assert_outcome ~min_level:2 "blk xenbus-jump"

let test_blk_evtchn_storm () =
  blk_attack ~cls:Guest_fault.Evtchn_storm ~mode:Evil_blk.Honest
    ~volley:(fun ev ~victim:_ -> Evil_blk.attack_storm ev ~count:200)
    ()
  |> assert_outcome ~min_level:1 "blk evtchn-storm"

let test_blk_bad_ring_ref () =
  blk_attack ~cls:Guest_fault.Bad_ring_ref ~mode:Evil_blk.Forged_ring_ref
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk bad-ring-ref"

let test_blk_bad_port () =
  blk_attack ~cls:Guest_fault.Bad_port ~mode:Evil_blk.Hijacked_port
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk bad-port"

let test_blk_xenstore_abuse () =
  blk_attack ~cls:Guest_fault.Xenstore_abuse ~mode:Evil_blk.Garbage_keys
    ~volley:(fun _ev ~victim:_ -> ())
    ()
  |> assert_outcome ~min_level:3 ~rejected:true "blk xenstore-abuse"

(* ------------------------------------------------------------------ *)
(* Report text: what a backend tells the checker and the recorder      *)
(* ------------------------------------------------------------------ *)

(* With the checker and the flight recorder armed, one hostile guest
   lands one in-flight fault (devid 1: ring-index scribble, offlined on
   sight) and one rejected handshake (devid 2: forged ring reference).
   Returns every adversary finding, every adversary-layer flight record,
   the quarantine marks and the incident trigger reasons, as text. *)
type report_text = {
  findings : (string * string * string * string) list;
  records : (string * string * string) list;
  marks : string list;
  reasons : string list;
}

let report_text ~net () =
  let report = Report.create () in
  Check.set_default (Some (Check.default_config, report));
  Flight.set_default (Some (Flight.sink ()));
  Fun.protect
    ~finally:(fun () ->
      Check.set_default None;
      Flight.set_default None)
    (fun () ->
      let hv, ctx, volley =
        if net then
          let s = Scenario.network ~flavor:Scenario.Kite ~seed:7 () in
          let dd = s.Scenario.dd in
          ( s.Scenario.hv,
            s.Scenario.ctx,
            fun evil ->
              Toolstack.add_vif s.Scenario.ctx ~backend:dd ~frontend:evil
                ~devid:1 ();
              let ev =
                Evil_net.create s.Scenario.ctx ~domain:evil ~backend:dd
                  ~devid:1 ~nq:1
              in
              Evil_net.handshake ev Evil_net.Honest;
              Process.sleep (Time.ms 2);
              Evil_net.attack_ring_index ev;
              Process.sleep (Time.ms 5);
              Toolstack.add_vif s.Scenario.ctx ~backend:dd ~frontend:evil
                ~devid:2 ();
              let bad =
                Evil_net.create s.Scenario.ctx ~domain:evil ~backend:dd
                  ~devid:2 ~nq:1
              in
              Evil_net.handshake bad Evil_net.Forged_ring_ref;
              Process.sleep (Time.ms 5);
              Evil_net.cleanup ev;
              Evil_net.cleanup bad )
        else
          let s = Scenario.storage ~flavor:Scenario.Kite ~seed:7 () in
          let dd = s.Scenario.bdd in
          ( s.Scenario.bhv,
            s.Scenario.bctx,
            fun evil ->
              Toolstack.add_vbd s.Scenario.bctx ~backend:dd ~frontend:evil
                ~devid:1 ();
              let ev =
                Evil_blk.create s.Scenario.bctx ~domain:evil ~backend:dd
                  ~devid:1 ~nq:1
              in
              Evil_blk.handshake ev Evil_blk.Honest;
              Process.sleep (Time.ms 2);
              Evil_blk.attack_ring_index ev;
              Process.sleep (Time.ms 5);
              Toolstack.add_vbd s.Scenario.bctx ~backend:dd ~frontend:evil
                ~devid:2 ();
              let bad =
                Evil_blk.create s.Scenario.bctx ~domain:evil ~backend:dd
                  ~devid:2 ~nq:1
              in
              Evil_blk.handshake bad Evil_blk.Forged_ring_ref;
              Process.sleep (Time.ms 5);
              Evil_blk.cleanup ev;
              Evil_blk.cleanup bad )
      in
      let evil =
        Hypervisor.create_domain hv ~name:"evil" ~kind:Domain.Dom_u ~vcpus:1
          ~mem_mb:256
      in
      Hypervisor.spawn hv evil ~name:"evil" (fun () ->
          Process.sleep (Time.ms 5);
          volley evil);
      Hypervisor.run_for hv (Time.ms 200);
      let fl =
        match ctx.Kite_drivers.Xen_ctx.flight with
        | Some fl -> fl
        | None -> Alcotest.fail "flight recorder not armed"
      in
      let records = Flight.records fl in
      let text =
        {
          findings =
            List.filter_map
              (fun f ->
                if f.Report.subsystem = "adversary" then
                  Some
                    ( f.Report.subsystem,
                      f.Report.rule,
                      f.Report.provenance,
                      f.Report.message )
                else None)
              (Report.findings report);
          records =
            List.filter_map
              (fun r ->
                if r.Flight.r_layer = "adversary" then
                  Some (r.Flight.r_kind, r.Flight.r_key, r.Flight.r_msg)
                else None)
              records;
          marks =
            List.filter_map
              (fun r ->
                if r.Flight.r_kind = "mark" && r.Flight.r_key = "quarantine"
                then Some r.Flight.r_msg
                else None)
              records;
          reasons =
            List.map Flight.incident_reason (Flight.incidents fl)
            @ List.filter_map
                (fun r ->
                  if r.Flight.r_kind = "trigger-suppressed" then
                    Some r.Flight.r_msg
                  else None)
                records;
        }
      in
      Scenario.teardown_all ();
      text)

let check_report_text name expected got =
  let quad = Alcotest.(list (pair (pair string string) (pair string string))) in
  let as_pairs = List.map (fun (a, b, c, d) -> ((a, b), (c, d))) in
  Alcotest.check quad (name ^ ": checker findings") (as_pairs expected.findings)
    (as_pairs got.findings);
  Alcotest.(check (list (triple string string string)))
    (name ^ ": adversary flight records") expected.records got.records;
  Alcotest.(check (list string)) (name ^ ": quarantine marks") expected.marks
    got.marks;
  Alcotest.(check (list string)) (name ^ ": trigger reasons") expected.reasons
    got.reasons

let test_report_text () =
  check_report_text "netback"
    {
      findings =
        [
          ( "adversary", "guest-ring-index", "Kite-netdd/netback-pusher-3.1",
            "domain 3 on vif3.1: ring-index rejected at the trust boundary \
             (tx producer window 1000000 outside [0,256])" );
          ( "adversary", "guest-quarantined", "Kite-netdd/netback-pusher-3.1",
            "quarantine offline: domain 3 on vif3.1 after 1 guest fault(s)" );
          ( "adversary", "guest-bad-ring-ref",
            "Kite-netdd/netback-handshake-3.2",
            "domain 3 on vif3.2: bad-ring-ref rejected at the trust boundary \
             (unknown tx ring ref 999983)" );
          ( "adversary", "guest-quarantined",
            "Kite-netdd/netback-handshake-3.2",
            "quarantine offline: domain 3 on vif3.2 after 1 guest fault(s)" );
        ];
      records =
        [
          ( "guest-fault", "vif3.1",
            "ring-index: tx producer window 1000000 outside [0,256]" );
          ( "guest-fault", "vif3.2",
            "bad-ring-ref: unknown tx ring ref 999983 (handshake rejected)" );
        ];
      marks = [ "vif3.1 -> offline" ];
      reasons =
        [
          "guest fault on vif3.1: ring-index";
          "handshake rejected on vif3.2: bad-ring-ref";
        ];
    }
    (report_text ~net:true ());
  check_report_text "blkback"
    {
      findings =
        [
          ( "adversary", "guest-ring-index", "Kite-stordd/blkback-req-3.1",
            "domain 3 on vbd3.1: ring-index rejected at the trust boundary \
             (ring 0 request producer outside the valid window)" );
          ( "adversary", "guest-quarantined", "Kite-stordd/blkback-req-3.1",
            "quarantine offline: domain 3 on vbd3.1 after 1 guest fault(s)" );
          ( "adversary", "guest-bad-ring-ref",
            "Kite-stordd/blkback-handshake-3.2",
            "domain 3 on vbd3.2: bad-ring-ref rejected at the trust boundary \
             (unknown ring ref 999983)" );
          ( "adversary", "guest-quarantined",
            "Kite-stordd/blkback-handshake-3.2",
            "quarantine offline: domain 3 on vbd3.2 after 1 guest fault(s)" );
        ];
      records =
        [
          ( "guest-fault", "vbd3.1",
            "ring-index: ring 0 request producer outside the valid window" );
          ( "guest-fault", "vbd3.2",
            "bad-ring-ref: unknown ring ref 999983 (handshake rejected)" );
        ];
      marks = [ "vbd3.1 -> offline" ];
      reasons =
        [
          "guest fault on vbd3.1: ring-index";
          "handshake rejected on vbd3.2: bad-ring-ref";
        ];
    }
    (report_text ~net:false ())

(* ------------------------------------------------------------------ *)
(* Seeded campaigns (reduced; the 50-seed sweep is the @adversary gate) *)
(* ------------------------------------------------------------------ *)

let assert_campaign r =
  let name = Printf.sprintf "campaign seed %d" r.Campaign.seed in
  check_int (name ^ ": zero checker errors") 0 r.Campaign.checker_errors;
  Alcotest.(check (list string)) (name ^ ": no missed class") [] r.Campaign.missed;
  Alcotest.(check (list string))
    (name ^ ": every device quarantined")
    [] r.Campaign.unquarantined;
  check_int (name ^ ": handshake rejections") 3 r.Campaign.handshake_rejections;
  check_bool (name ^ ": honest p99 within SLO") true r.Campaign.honest_ok;
  check_bool (name ^ ": an incident was frozen") true (r.Campaign.incidents >= 1);
  check_bool (name ^ ": campaign oracle") true r.Campaign.ok

let test_campaigns () =
  (* One of each flavor: odd = network, even = storage. *)
  List.iter (fun seed -> assert_campaign (Campaign.run ~seed ())) [ 1; 2 ]

let suite =
  [
    ("net: ring index", `Quick, test_net_ring_index);
    ("net: bad gref", `Quick, test_net_bad_gref);
    ("net: foreign gref", `Quick, test_net_foreign_gref);
    ("net: bad length", `Quick, test_net_bad_length);
    ("net: replay", `Quick, test_net_replay);
    ("net: slot reuse", `Quick, test_net_slot_reuse);
    ("net: xenbus jump", `Quick, test_net_xenbus_jump);
    ("net: evtchn storm", `Quick, test_net_evtchn_storm);
    ("net: bad ring ref", `Quick, test_net_bad_ring_ref);
    ("net: bad port", `Quick, test_net_bad_port);
    ("net: xenstore abuse", `Quick, test_net_xenstore_abuse);
    ("blk: ring index", `Quick, test_blk_ring_index);
    ("blk: bad gref", `Quick, test_blk_bad_gref);
    ("blk: foreign gref", `Quick, test_blk_foreign_gref);
    ("blk: bad length", `Quick, test_blk_bad_length);
    ("blk: bad segment", `Quick, test_blk_bad_segment);
    ("blk: replay", `Quick, test_blk_replay);
    ("blk: slot reuse", `Quick, test_blk_slot_reuse);
    ("blk: xenbus jump", `Quick, test_blk_xenbus_jump);
    ("blk: evtchn storm", `Quick, test_blk_evtchn_storm);
    ("blk: bad ring ref", `Quick, test_blk_bad_ring_ref);
    ("blk: bad port", `Quick, test_blk_bad_port);
    ("blk: xenstore abuse", `Quick, test_blk_xenstore_abuse);
    ("report text pinned", `Quick, test_report_text);
    ("seeded campaigns", `Slow, test_campaigns);
  ]
