(* Service-level objectives over live metric histograms.

   An SLO names a histogram instance in a Registry and promises that a
   target quantile of the observations recorded inside an evaluation
   window stays at or below a threshold.  The window is delimited by
   bucket snapshots: [arm] copies the instance's current bucket counts,
   and [evaluate] diffs the live buckets against that baseline, so only
   the observations made in between are scored.  This keeps the hot path
   untouched — the instrumented layers keep observing into the same
   histogram; all SLO work happens at arm/evaluate time. *)

module Registry = Kite_metrics.Registry

type t = {
  slo_name : string;
  reg : Registry.t;
  metric : string;
  labels : (string * string) list;
  q : float;  (* target quantile, in (0, 1) *)
  threshold : float;  (* same unit as the histogram's observations *)
  mutable armed_at : int;  (* sim ns of the last [arm] *)
  mutable base : (float * float * int) list;  (* buckets at arm *)
}

let create ?(labels = []) ~name ~metric ~quantile ~threshold reg =
  if quantile <= 0.0 || quantile >= 1.0 then
    invalid_arg "Slo.create: quantile must lie in (0, 1)";
  if threshold <= 0.0 then invalid_arg "Slo.create: threshold must be > 0";
  {
    slo_name = name;
    reg;
    metric;
    labels;
    q = quantile;
    threshold;
    armed_at = 0;
    base = [];
  }

let name t = t.slo_name
let metric t = t.metric
let target_quantile t = t.q
let threshold t = t.threshold

let live_buckets t =
  match Registry.hbuckets t.reg t.metric t.labels with
  | Some bs -> bs
  | None -> []

let arm t ~at =
  t.armed_at <- at;
  t.base <- live_buckets t

(* The window's own distribution: per-bucket counts now minus counts at
   arm (buckets only ever gain observations, so the diff is the window;
   clamp guards a re-created instance). *)
let window_buckets t =
  List.filter_map
    (fun (lo, hi, c) ->
      let c0 =
        match List.find_opt (fun (l, h, _) -> l = lo && h = hi) t.base with
        | Some (_, _, c0) -> c0
        | None -> 0
      in
      let d = max 0 (c - c0) in
      if d = 0 then None else Some (lo, hi, d))
    (live_buckets t)

(* Same interpolation as [Kite_stats.Histogram.quantile], over the
   diffed window buckets. *)
let quantile_of_buckets bs q =
  let n = List.fold_left (fun a (_, _, c) -> a + c) 0 bs in
  if n = 0 then nan
  else
    let target = q *. float_of_int n in
    let rec walk seen = function
      | [] -> nan
      | [ (lo, hi, c) ] ->
          let into = Float.max 0.0 (target -. float_of_int seen) in
          lo +. ((hi -. lo) *. Float.min 1.0 (into /. float_of_int c))
      | (lo, hi, c) :: rest ->
          if float_of_int (seen + c) >= target then
            let into = Float.max 0.0 (target -. float_of_int seen) in
            lo +. ((hi -. lo) *. (into /. float_of_int c))
          else walk (seen + c) rest
    in
    walk 0 bs

(* Fraction of windowed observations at or below the threshold, with
   linear interpolation inside the straddling bucket. *)
let compliance_of_buckets bs threshold =
  let n = List.fold_left (fun a (_, _, c) -> a + c) 0 bs in
  if n = 0 then 1.0
  else
    let good =
      List.fold_left
        (fun acc (lo, hi, c) ->
          if hi <= threshold then acc +. float_of_int c
          else if lo >= threshold then acc
          else acc +. (float_of_int c *. ((threshold -. lo) /. (hi -. lo))))
        0.0 bs
    in
    good /. float_of_int n

type eval = {
  ev_name : string;
  ev_metric : string;
  ev_q : float;
  ev_threshold : float;
  ev_from : int;
  ev_to : int;
  ev_count : int;
  ev_actual : float;  (* nan when the window saw no observations *)
  ev_compliance : float;
  ev_burn : float;
  ev_met : bool;
}

let evaluate t ~at =
  let bs = window_buckets t in
  let count = List.fold_left (fun a (_, _, c) -> a + c) 0 bs in
  let actual = quantile_of_buckets bs t.q in
  let compliance = compliance_of_buckets bs t.threshold in
  (* Burn rate in the error-budget sense: the budget is the (1 - q)
     fraction of observations allowed over threshold; burn 1.0 spends it
     exactly, > 1.0 overspends.  [met] is the quantile promise itself. *)
  let burn = (1.0 -. compliance) /. (1.0 -. t.q) in
  {
    ev_name = t.slo_name;
    ev_metric = t.metric;
    ev_q = t.q;
    ev_threshold = t.threshold;
    ev_from = t.armed_at;
    ev_to = at;
    ev_count = count;
    ev_actual = actual;
    ev_compliance = compliance;
    ev_burn = burn;
    ev_met = (count = 0 || actual <= t.threshold);
  }

let json_escape = Kite_stats.Json.escape

let json_num v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let eval_to_json e =
  Printf.sprintf
    {|{"name":"%s","metric":"%s","quantile":%s,"threshold":%s,"from":%d,"to":%d,"count":%d,"actual":%s,"compliance":%s,"burn":%s,"met":%b}|}
    (json_escape e.ev_name) (json_escape e.ev_metric) (json_num e.ev_q)
    (json_num e.ev_threshold) e.ev_from e.ev_to e.ev_count
    (json_num e.ev_actual) (json_num e.ev_compliance) (json_num e.ev_burn)
    e.ev_met
