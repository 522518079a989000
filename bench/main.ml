(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (plus the DESIGN.md ablations), and runs the
   overhead gates.  Per-layer microbenchmarks live in perfbench/.

   Usage:
     dune exec bench/main.exe                 # all experiments, full scale
     dune exec bench/main.exe -- --quick      # scaled-down smoke pass
     dune exec bench/main.exe -- --only fig9  # one experiment
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --gates --quick  # every overhead gate
     dune exec bench/main.exe -- --gate race      # one overhead gate *)

let list_experiments () =
  print_endline "available experiments:";
  List.iter
    (fun (id, desc, _) -> Printf.printf "  %-12s %s\n" id desc)
    Kite.Experiments.all

let run_one ~quick (id, desc, f) =
  Printf.printf "\n### %s — %s\n%!" id desc;
  let t0 = Unix.gettimeofday () in
  (try
     let outcome = f ~quick in
     List.iter Kite_stats.Table.print outcome.Kite.Experiments.tables
   with e ->
     Printf.printf "!! %s failed: %s\n" id (Printexc.to_string e));
  Printf.printf "  [%s took %.1fs wall clock]\n%!" id
    (Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

(* Bechamel's OLS estimate of one call of [f], in ns. *)
let measure_ns f =
  let open Bechamel in
  let open Toolkit in
  let test = Test.make ~name:"side" (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let raw =
    Benchmark.all cfg
      Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"g" [ test ])
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      (Instance.monotonic_clock :> Measure.witness)
      raw
  in
  let est = ref nan in
  Hashtbl.iter
    (fun _ ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ e ] -> est := e
      | Some _ | None -> ())
    results;
  !est

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* The ring hot path, three ways                                        *)
(* ------------------------------------------------------------------ *)

(* A local mirror of the seed's ring hot path (indices, masking, and the
   single checker-option match it already paid), used as the baseline the
   instrumented-but-disabled ring is compared against. *)
module Bare_ring = struct
  type t = {
    mask : int;
    reqs : int option array;
    rsps : int option array;
    mutable req_prod : int;
    mutable req_prod_pvt : int;
    mutable req_cons : int;
    mutable rsp_prod : int;
    mutable rsp_prod_pvt : int;
    mutable rsp_cons : int;
    mutable check : unit option;
  }

  let create ~order =
    let size = 1 lsl order in
    {
      mask = size - 1;
      reqs = Array.make size None;
      rsps = Array.make size None;
      req_prod = 0;
      req_prod_pvt = 0;
      req_cons = 0;
      rsp_prod = 0;
      rsp_prod_pvt = 0;
      rsp_cons = 0;
      check = None;
    }

  let push_request t v =
    (match t.check with Some () -> () | None -> ());
    t.reqs.(t.req_prod_pvt land t.mask) <- Some v;
    t.req_prod_pvt <- t.req_prod_pvt + 1

  let publish_requests t =
    (match t.check with Some () -> () | None -> ());
    t.req_prod <- t.req_prod_pvt

  let take_request t =
    (match t.check with Some () -> () | None -> ());
    if t.req_cons = t.req_prod then None
    else begin
      let i = t.req_cons land t.mask in
      let r = t.reqs.(i) in
      t.reqs.(i) <- None;
      t.req_cons <- t.req_cons + 1;
      r
    end

  let push_response t v =
    (match t.check with Some () -> () | None -> ());
    t.rsps.(t.rsp_prod_pvt land t.mask) <- Some v;
    t.rsp_prod_pvt <- t.rsp_prod_pvt + 1

  let publish_responses t =
    (match t.check with Some () -> () | None -> ());
    t.rsp_prod <- t.rsp_prod_pvt
end

let bare_roundtrip () =
  let r = Bare_ring.create ~order:5 in
  for i = 1 to 32 do
    Bare_ring.push_request r i
  done;
  Bare_ring.publish_requests r;
  let rec drain () =
    match Bare_ring.take_request r with
    | Some v ->
        Bare_ring.push_response r v;
        drain ()
    | None -> ()
  in
  drain ();
  Bare_ring.publish_responses r

let pre_race_roundtrip () =
  let r : (int, int) Pre_race_ring.t = Pre_race_ring.create ~order:5 in
  for i = 1 to 32 do
    Pre_race_ring.push_request r i
  done;
  ignore (Pre_race_ring.push_requests_and_check_notify r);
  let rec drain () =
    match Pre_race_ring.take_request r with
    | Some v ->
        Pre_race_ring.push_response r v;
        drain ()
    | None -> ()
  in
  drain ();
  ignore (Pre_race_ring.push_responses_and_check_notify r)

(* The real ring with no checker, tracer, injector or detector attached. *)
let ring_roundtrip () =
  let r : (int, int) Kite_xen.Ring.t = Kite_xen.Ring.create ~order:5 in
  for i = 1 to 32 do
    Kite_xen.Ring.push_request r i
  done;
  ignore (Kite_xen.Ring.push_requests_and_check_notify r);
  let rec drain () =
    match Kite_xen.Ring.take_request r with
    | Some v ->
        Kite_xen.Ring.push_response r v;
        drain ()
    | None -> ()
  in
  drain ();
  ignore (Kite_xen.Ring.push_responses_and_check_notify r)

(* ------------------------------------------------------------------ *)
(* Overhead gates                                                       *)
(* ------------------------------------------------------------------ *)

(* How a gate measures its two sides.  [Ns] sides are hot-path closures
   timed by bechamel (ns per call).  [Wall] sides run a whole simulated
   workload and return its simulated [output] with the wall seconds of
   the timed window; every run's output must be equal, since observation
   must not perturb the simulation. *)
type clock =
  | Ns of { base : unit -> unit; variant : unit -> unit }
  | Wall of {
      output : string;
      base : unit -> float * float;
      variant : unit -> float * float;
    }

(* A gate passes when variant/base < [bound] ("ratio"), or failing that
   when variant - base < [slack] in the clock's unit ("slack").  The
   compared figures are each side's minimum over the rounds or, for a
   [paired] gate, the base/variant pair of the round with the lowest
   ratio, which is never stricter. *)
type gate = {
  name : string;
  base_label : string;
  variant_label : string;
  clock : clock;
  rounds : int;
  bound : float;
  slack : float;
  paired : bool;
}

(* Wall clock of the 2-queue mq workload with the tracer armed, plus the
   layer [set] arms on the variant side: the delta isolates that layer's
   per-packet work. *)
let armed_mq ~quick set () =
  let duration = Kite_sim.Time.ms (if quick then 2 else 5) in
  Kite_trace.Trace.set_default (Some (Kite_trace.Trace.sink ()));
  set true;
  Fun.protect
    ~finally:(fun () ->
      Kite.Scenario.teardown_all ();
      Kite_trace.Trace.set_default None;
      set false)
    (fun () -> timed (fun () -> Kite.Experiments.mq_run ~duration ~mq:true 2))

(* The honest backend data path before the byzantine-frontend hardening:
   drain the ring and grant-copy each request's three page segments out
   of guest memory, as a process episode on the live engine so the
   hypercall accounting runs.  The variant bolts on exactly what the
   hardening added: a producer-window check per drain, and per request a
   length window and ownership probe per segment plus an in-flight id
   claim and release. *)
let honest_path () =
  let hv = Kite_xen.Hypervisor.create () in
  let front =
    Kite_xen.Hypervisor.create_domain hv ~name:"front"
      ~kind:Kite_xen.Domain.Dom_u ~vcpus:1 ~mem_mb:64
  in
  let back =
    Kite_xen.Hypervisor.create_domain hv ~name:"back"
      ~kind:Kite_xen.Domain.Driver_domain ~vcpus:1 ~mem_mb:64
  in
  let gt = Kite_xen.Grant_table.create hv in
  let grefs =
    Array.init 32 (fun _ ->
        Kite_xen.Grant_table.grant_access gt ~granter:front ~grantee:back
          ~page:(Kite_xen.Page.alloc ()) ~writable:false)
  in
  let fid = front.Kite_xen.Domain.id in
  let inflight = Hashtbl.create 64 in
  let roundtrip ~validate () =
    let r : (int, int) Kite_xen.Ring.t = Kite_xen.Ring.create ~order:5 in
    for i = 1 to 32 do
      Kite_xen.Ring.push_request r i
    done;
    ignore (Kite_xen.Ring.push_requests_and_check_notify r);
    Kite_xen.Hypervisor.spawn hv back ~name:"bench-drain" (fun () ->
        if validate && not (Kite_xen.Ring.request_producer_valid r) then
          failwith "producer window";
        let segs = 3 in
        let rec drain () =
          match Kite_xen.Ring.take_request r with
          | Some v ->
              let len = Kite_xen.Page.size in
              if validate then begin
                for s = 0 to segs - 1 do
                  if len < 0 || len > Kite_xen.Page.size then failwith "len";
                  match Kite_xen.Grant_table.owner gt grefs.((v + s) land 31)
                  with
                  | Some d when d = fid -> ()
                  | Some _ | None -> failwith "owner"
                done;
                match Hashtbl.find_opt inflight v with
                | Some _ -> failwith "replay"
                | None -> Hashtbl.replace inflight v 0
              end;
              for s = 0 to segs - 1 do
                ignore
                  (Kite_xen.Grant_table.copy_from_granted gt ~caller:back
                     grefs.((v + s) land 31) ~off:0 ~len)
              done;
              if validate then Hashtbl.remove inflight v;
              Kite_xen.Ring.push_response r v;
              drain ()
          | None -> ()
        in
        drain ();
        ignore (Kite_xen.Ring.push_responses_and_check_notify r));
    Kite_xen.Hypervisor.run hv
  in
  Ns { base = roundtrip ~validate:false; variant = roundtrip ~validate:true }

(* [n] identical blkfront writes through the split-driver storage path,
   fired at a fixed Poisson rate: by plain Openloop on the base side, by
   the swarm harness on the variant side with churn, think time, slow
   clients, modulation and impairments disabled.  The delta isolates the
   swarm machinery (profile draws, session bookkeeping, latency
   histogram, SLO windows). *)
let swarm_writes ~quick =
  let module Swarm = Kite_swarm.Swarm in
  let module Profile = Kite_swarm.Profile in
  let n = if quick then 1_500 else 15_000 in
  let rate = 5_000. in
  let with_storage body =
    let s = Kite.Scenario.storage ~flavor:Kite.Scenario.Kite () in
    Fun.protect
      ~finally:(fun () -> Kite.Scenario.teardown_all ())
      (fun () ->
        let completed, dt = timed (fun () -> body s) in
        if completed <> n then
          failwith (Printf.sprintf "swarm gate: %d of %d writes" completed n);
        (float_of_int completed, dt))
  in
  let fire_write front seq =
    Kite_drivers.Blkfront.write front
      ~sector:(8 * (seq mod 1024))
      (Bytes.make
         (8 * Kite_drivers.Blkfront.sector_size)
         (Char.chr (Char.code 'a' + (seq mod 26))));
    true
  in
  let drive (s : Kite.Scenario.blk) start =
    let done_ = ref None in
    Kite.Scenario.when_blk_ready s (fun () ->
        start (fun completed -> done_ := Some completed));
    Kite_xen.Hypervisor.run_for s.Kite.Scenario.bhv (Kite_sim.Time.sec 120);
    match !done_ with
    | Some completed -> completed
    | None -> failwith "swarm gate: the run did not drain"
  in
  let openloop () =
    with_storage (fun s ->
        drive s (fun k ->
            Kite_bench_tools.Openloop.run ~sched:s.Kite.Scenario.bsched ~rate
              ~stop_after:n
              ~duration:(Kite_sim.Time.sec 60)
              ~fire:(fire_write s.Kite.Scenario.blkfront)
              ~on_done:(fun r -> k r.Kite_bench_tools.Openloop.completed)
              ()))
  in
  let profile =
    {
      Profile.p_name = "plain";
      arrivals = Profile.Poisson rate;
      sizes = Profile.Fixed 4096;
      requests_per_session = 1;
      think = 0;
      slow_fraction = 0.0;
      slow_stretch = 1;
      flash = [];
      diurnal = None;
    }
  in
  let swarm () =
    with_storage (fun s ->
        drive s (fun k ->
            let seq = ref 0 in
            let request ~size:_ ~slow:_ =
              incr seq;
              fire_write s.Kite.Scenario.blkfront !seq
            in
            let driver =
              {
                Swarm.d_app = "blk";
                d_connect =
                  (fun () ->
                    Some { Swarm.c_request = request; c_close = ignore });
              }
            in
            Swarm.run ~sched:s.Kite.Scenario.bsched ~profile ~clients:n
              ~driver
              ~on_done:(fun r -> k r.Swarm.sw_completed)
              ()))
  in
  Wall { output = "writes"; base = openloop; variant = swarm }

let gates ~quick =
  let sink set make on = set (if on then Some (make ()) else None) in
  [
    (* The disabled check/trace/fault/metrics/race hooks on the ring hot
       path must stay within a generous noise bound of the seed ring. *)
    {
      name = "hooks";
      base_label = "bare ring (seed shape)";
      variant_label = "instrumented, hooks disabled";
      clock = Ns { base = bare_roundtrip; variant = ring_roundtrip };
      rounds = 1;
      bound = 2.0;
      slack = 0.;
      paired = false;
    };
    (* The race machinery's marginal cost, against the ring as it stood
       before the detector.  The slack absorbs per-binary code-layout
       drift: the identical ring source measures up to ~100 ns/roundtrip
       apart across binaries that differ only in unrelated linked code.
       A C-call allocation per consumed slot costs well past it; a
       two-word inline allocation per slot (~60 ns a roundtrip) does
       not, and hides in the noise. *)
    {
      name = "race";
      base_label = "pre-race instrumented ring";
      variant_label = "instrumented, detector disabled";
      clock = Ns { base = pre_race_roundtrip; variant = ring_roundtrip };
      rounds = 4;
      bound = 1.1;
      slack = 120.;
      paired = false;
    };
    {
      name = "flight";
      base_label = "tracer only";
      variant_label = "tracer + flight";
      clock =
        Wall
          {
            output = "Gbps";
            base = armed_mq ~quick ignore;
            variant =
              armed_mq ~quick
                (sink Kite_flight.Flight.set_default Kite_flight.Flight.sink);
          };
      rounds = 3;
      bound = 1.1;
      slack = 0.05;
      paired = false;
    };
    {
      name = "path";
      base_label = "tracer only";
      variant_label = "tracer + path";
      clock =
        Wall
          {
            output = "Gbps";
            base = armed_mq ~quick ignore;
            variant =
              armed_mq ~quick
                (sink Kite_path.Path.set_default Kite_path.Path.sink);
          };
      rounds = 3;
      bound = 1.1;
      slack = 0.05;
      paired = false;
    };
    (* Paired: each ~80 us side runs whole engine episodes, whose GC and
       scheduler noise swings both sides of one round together.  On a
       shared 2-vCPU VM the ratio of per-side minima read 1.14-1.22x in
       three of five runs; the best-round ratio read 0.76-1.06x. *)
    {
      name = "adversary";
      base_label = "honest path, no validation";
      variant_label = "honest path + validation";
      clock = honest_path ();
      rounds = 6;
      bound = 1.1;
      slack = 120.;
      paired = true;
    };
    {
      name = "swarm";
      base_label = "plain open loop";
      variant_label = "swarm harness";
      clock = swarm_writes ~quick;
      rounds = 3;
      bound = 1.1;
      slack = 0.05;
      paired = false;
    };
  ]

(* One run of one side: its cost in the clock's unit, and its simulated
   output ([nan] for ns sides, which have none). *)
let run_side clock ~variant =
  match clock with
  | Ns s -> (measure_ns (if variant then s.variant else s.base), nan)
  | Wall s ->
      let out, dt = (if variant then s.variant else s.base) () in
      (dt, out)

(* Interleaved rounds, base then variant: a frequency or load shift
   during the run then lands on both sides instead of skewing whichever
   block it overlapped.  Wall sides warm up with one variant run first.
   Returns a summary row and the verdict. *)
let run_gate g =
  Printf.printf "== %s ==\n%!" g.name;
  (match g.clock with Wall s -> ignore (s.variant ()) | Ns _ -> ());
  let keep (b0, v0) (b, v) =
    if not g.paired then (Float.min b0 b, Float.min v0 v)
    else if v /. b < v0 /. b0 then (b, v)
    else (b0, v0)
  in
  let outputs = ref [] in
  let base, variant =
    List.fold_left
      (fun acc _round ->
        let b, ob = run_side g.clock ~variant:false in
        let v, ov = run_side g.clock ~variant:true in
        outputs := !outputs @ [ ob; ov ];
        keep acc (b, v))
      ((if g.paired then 1. else infinity), infinity)
      (List.init g.rounds Fun.id)
  in
  let show, same_output =
    match g.clock with
    | Ns _ -> (Printf.sprintf "%.1f ns", true)
    | Wall s ->
        Printf.printf "  simulated %s per round, base then variant: %s\n"
          s.output
          (String.concat " " (List.map (Printf.sprintf "%.12g") !outputs));
        ( Printf.sprintf "%.3f s",
          List.for_all (( = ) (List.hd !outputs)) !outputs )
  in
  Printf.printf "  %-32s %12s\n  %-32s %12s\n" g.base_label (show base)
    g.variant_label (show variant);
  let ratio = variant /. base in
  let delta = (if variant >= base then "+" else "") ^ show (variant -. base) in
  let bound =
    Printf.sprintf "< %.2fx" g.bound
    ^ (if g.slack > 0. then " or < " ^ show g.slack else "")
    ^ if g.paired then ", best round" else ""
  in
  let verdict =
    if not same_output then Error "FAIL (simulated output changed)"
    else if ratio < g.bound then Ok "ratio"
    else if variant -. base < g.slack then Ok ("slack (" ^ delta ^ ")")
    else Error "FAIL"
  in
  let shown = match verdict with Ok arm -> "OK by " ^ arm | Error e -> e in
  Printf.printf "  %.2fx, %s (gate: %s): %s\n%!" ratio delta bound shown;
  let cell = match verdict with Ok arm | Error arm -> arm in
  let ratio_cell = Printf.sprintf "%.2fx" ratio in
  ( [ g.name; show base; show variant; ratio_cell; bound; cell ],
    Result.is_ok verdict )

let run_gates rows =
  let results =
    List.map
      (fun g ->
        let r = run_gate g in
        print_newline ();
        r)
      rows
  in
  let t =
    Kite_stats.Table.create ~title:"Overhead gates"
      ~columns:
        Kite_stats.Table.
          [
            ("gate", Left); ("baseline", Right); ("variant", Right);
            ("ratio", Right); ("bound", Left); ("passed by", Left);
          ]
  in
  List.iter (fun (row, _) -> Kite_stats.Table.add_row t row) results;
  Kite_stats.Table.print t;
  if List.exists (fun (_, ok) -> not ok) results then exit 1

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  (* An unknown flag would otherwise fall through to the full-scale run. *)
  let known = [ "--quick"; "--list"; "--gates"; "--gate"; "--only" ] in
  List.iter
    (fun a ->
      if String.starts_with ~prefix:"--" a && not (List.mem a known) then (
        Printf.eprintf "unknown option %s\n" a;
        exit 2))
    args;
  let rec value_of flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> value_of flag rest
    | [] -> None
  in
  if List.mem "--list" args then list_experiments ()
  else if List.mem "--gates" args then run_gates (gates ~quick)
  else
    match value_of "--gate" args with
    | Some name -> (
        match List.filter (fun g -> g.name = name) (gates ~quick) with
        | [] ->
            Printf.printf "unknown gate %s; gates: %s\n" name
              (String.concat ", " (List.map (fun g -> g.name) (gates ~quick)));
            exit 1
        | rows -> run_gates rows)
    | None ->
        Printf.printf "Kite reproduction harness (%s scale)\n"
          (if quick then "quick" else "full");
        (match value_of "--only" args with
        | Some id -> (
            match
              List.find_opt (fun (i, _, _) -> i = id) Kite.Experiments.all
            with
            | Some exp -> run_one ~quick exp
            | None ->
                Printf.printf "unknown experiment %s\n" id;
                list_experiments ();
                exit 1)
        | None -> List.iter (run_one ~quick) Kite.Experiments.all);
        print_endline "\ndone."
