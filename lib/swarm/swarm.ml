open Kite_sim
module Registry = Kite_metrics.Registry
module Slo = Kite_flight.Slo

type conn = { c_request : size:int -> slow:bool -> bool; c_close : unit -> unit }
type driver = { d_app : string; d_connect : unit -> conn option }

let metric = "kite_swarm_latency_ms"

type slo_spec = { s_name : string; s_q : float; s_threshold_ms : float }

let default_slos =
  [
    { s_name = "p50"; s_q = 0.5; s_threshold_ms = 2.0 };
    { s_name = "p99"; s_q = 0.99; s_threshold_ms = 20.0 };
    { s_name = "p999"; s_q = 0.999; s_threshold_ms = 100.0 };
  ]

type result = {
  sw_app : string;
  sw_profile : string;
  sw_clients : int;
  sw_offered : int;
  sw_completed : int;
  sw_errors : int;
  sw_elapsed : Time.span;
  sw_goodput_rps : float;
  sw_p50_ms : float;
  sw_p99_ms : float;
  sw_p999_ms : float;
  sw_slos : Slo.eval list;
}

let run ~sched ?(seed = 7) ?registry ?rate ?(slos = default_slos) ~profile
    ~clients ~driver ~on_done () =
  let engine = Process.engine sched in
  let p =
    match rate with Some r -> Profile.with_rate profile r | None -> profile
  in
  let reg =
    match registry with
    | Some r -> r
    | None -> Registry.create ~name:"swarm" ()
  in
  let labels = [ ("app", driver.d_app) ] in
  let hist =
    Registry.histogram reg ~help:"swarm request latency (ms)" ~base:0.001
      ~factor:1.5 metric labels
  in
  let root = Rng.create seed in
  let arrival_rng = Rng.split root in
  let shape_rng = Rng.split root in
  let slo_ts =
    List.map
      (fun s ->
        Slo.create ~labels ~name:s.s_name ~metric ~quantile:s.s_q
          ~threshold:s.s_threshold_ms reg)
      slos
  in
  let t0 = Engine.now engine in
  List.iter (fun s -> Slo.arm s ~at:t0) slo_ts;
  let offered = ref 0 in
  let completed = ref 0 in
  let errors = ref 0 in
  let fired = ref 0 in
  (* One session: connect, run [len] requests with think gaps, close.
     Shape draws happen at the arrival instant in arrival order, so the
     workload is identical whether or not impairments perturb
     completions (see the .mli determinism note). *)
  let session _seq =
    incr fired;
    let len = Profile.session_length p shape_rng in
    let slow = Profile.slow p shape_rng in
    let sizes = Array.init len (fun _ -> Profile.size p shape_rng) in
    let tseed = Int64.to_int (Rng.bits64 shape_rng) land max_int in
    let think_rng = Rng.create tseed in
    offered := !offered + len;
    let ok_all = ref true in
    let issued = ref 0 in
    (try
       match driver.d_connect () with
       | None -> ()
       | Some c ->
           Fun.protect
             ~finally:(fun () -> try c.c_close () with _ -> ())
             (fun () ->
               Array.iter
                 (fun size ->
                   let rt0 = Engine.now engine in
                   let ok = c.c_request ~size ~slow in
                   incr issued;
                   if ok then begin
                     incr completed;
                     if not slow then
                       Registry.observe hist
                         (Time.to_ms_f (Engine.now engine - rt0))
                   end
                   else incr errors;
                   if !issued < len && p.Profile.think > 0 then
                     Process.sleep (Profile.think_gap p think_rng))
                 sizes)
     with _ -> ());
    (* Anything the session never got to issue counts as errored load:
       completed + errors = offered always balances. *)
    errors := !errors + (len - !issued);
    if !issued < len then ok_all := false;
    !ok_all
  in
  let duration =
    (* Generous ceiling: [stop_after] is the real cut-off.  2x the
       nominal span plus slack covers heavy-tailed gaps and trough-rate
       diurnal stretches. *)
    let nominal = float_of_int clients /. Profile.rate p in
    Time.of_sec_f ((4.0 *. nominal) +. 5.0)
  in
  Kite_bench_tools.Openloop.run ~sched ~rng:arrival_rng
    ~gap:(fun rng ~at -> Profile.gap p rng ~at)
    ~stop_after:clients ~rate:(Profile.rate p) ~duration
    ~fire:session
    ~on_done:(fun (r : Kite_bench_tools.Openloop.result) ->
      let at = Engine.now engine in
      let pct q =
        match Registry.quantile reg metric labels q with
        | Some v -> v
        | None -> Float.nan
      in
      on_done
        {
          sw_app = driver.d_app;
          sw_profile = p.Profile.p_name;
          sw_clients = !fired;
          sw_offered = !offered;
          sw_completed = !completed;
          sw_errors = !errors;
          sw_elapsed = r.Kite_bench_tools.Openloop.elapsed;
          sw_goodput_rps =
            float_of_int !completed
            /. Time.to_sec_f (max 1 r.Kite_bench_tools.Openloop.elapsed);
          sw_p50_ms = pct 0.5;
          sw_p99_ms = pct 0.99;
          sw_p999_ms = pct 0.999;
          sw_slos = List.map (fun s -> Slo.evaluate s ~at) slo_ts;
        })
    ()

let result_to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"app\":\"%s\",\"profile\":\"%s\",\"clients\":%d,\"offered\":%d,\
        \"completed\":%d,\"errors\":%d,\"elapsed_s\":%s,\"goodput_rps\":%s,\
        \"p50_ms\":%s,\"p99_ms\":%s,\"p999_ms\":%s,\"slos\":["
       (Kite_stats.Json.escape r.sw_app)
       (Kite_stats.Json.escape r.sw_profile)
       r.sw_clients r.sw_offered r.sw_completed r.sw_errors
       (Slo.json_num (Time.to_sec_f r.sw_elapsed))
       (Slo.json_num r.sw_goodput_rps)
       (Slo.json_num r.sw_p50_ms) (Slo.json_num r.sw_p99_ms)
       (Slo.json_num r.sw_p999_ms));
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Slo.eval_to_json e))
    r.sw_slos;
  Buffer.add_string b "]}";
  Buffer.contents b
