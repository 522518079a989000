(* A metric registry for one simulated machine.  Everything here is
   deliberately allocation-light on the update path: pushed handles are
   bare refs / histograms, and polled closures are only evaluated when a
   sampler or an exposition surface asks. *)

type kind = Counter | Gauge | Histogram

type labels = (string * string) list

(* One registered instance of a family: its labels, the instrument, and
   a bounded ring buffer of (at, value) samples. *)
type instr =
  | I_counter of int ref
  | I_counter_fn of (unit -> int) ref
  | I_gauge of float ref
  | I_gauge_fn of (unit -> float) ref
  | I_hist of Kite_stats.Histogram.t

type instance = {
  i_labels : labels;
  i_instr : instr;
  s_ats : int array;
  s_vals : float array;
  mutable s_len : int;
  mutable s_head : int;  (* next write slot *)
  (* First-ever sample, kept after the ring wraps so lifetime rates
     survive long runs; [s_change_at] is the last sample time at which
     the value moved, bounding the active window for rate reports. *)
  mutable s_first_at : int;
  mutable s_first_val : float;
  mutable s_change_at : int;
}

type family = {
  f_kind : kind;
  f_help : string;
  f_instances : (string, instance) Hashtbl.t;  (* canonical label key *)
  mutable f_order : string list;  (* label keys, reversed *)
}

type health = Healthy | Alert of string

type alert = {
  alert_at : int;
  alert_probe : string;
  alert_labels : labels;
  alert_msg : string;
}

type probe_rec = {
  p_name : string;
  p_labels : labels;
  mutable p_fn : unit -> health;
  mutable p_alerting : bool;
}

type t = {
  rname : string;
  rinterval : int;
  capacity : int;
  fams : (string, family) Hashtbl.t;
  mutable fam_order : string list;  (* reversed *)
  probes : (string, probe_rec) Hashtbl.t;
  mutable probe_order : string list;  (* reversed *)
  mutable alerts_rev : alert list;
  mutable nalerts : int;
  mutable nsamples : int;
  (* Alert-edge observer (the flight recorder's tap); [None] keeps
     sampling free of extra work. *)
  mutable alert_obs : (alert -> unit) option;
}

let name t = t.rname
let interval t = t.rinterval

(* ------------------------------------------------------------------ *)
(* Names and label canonicalization                                    *)
(* ------------------------------------------------------------------ *)

let name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let valid_name s =
  String.length s > 0
  && (match s.[0] with '0' .. '9' -> false | c -> name_char c)
  && String.for_all name_char s

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Registry: invalid %s name %S" what s)

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let label_key labels =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ String.escaped v) (canon labels))

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let family t ~kind ~help name =
  check_name "metric" name;
  match Hashtbl.find_opt t.fams name with
  | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Registry: %s is a %s, not a %s" name
             (kind_name f.f_kind) (kind_name kind));
      f
  | None ->
      let f =
        {
          f_kind = kind;
          f_help = help;
          f_instances = Hashtbl.create 8;
          f_order = [];
        }
      in
      Hashtbl.add t.fams name f;
      t.fam_order <- name :: t.fam_order;
      f

let new_instance t labels instr =
  List.iter (fun (k, _) -> check_name "label" k) labels;
  {
    i_labels = canon labels;
    i_instr = instr;
    s_ats = Array.make t.capacity 0;
    s_vals = Array.make t.capacity 0.0;
    s_len = 0;
    s_head = 0;
    s_first_at = min_int;
    s_first_val = 0.0;
    s_change_at = min_int;
  }

(* Find-or-create the instance; [fresh] builds the instrument the first
   time, [reuse] extracts the handle from an existing one (raising when
   the same (family, labels) was registered under another instrument
   style). *)
let instance t ~kind ~help name labels ~fresh ~reuse =
  let f = family t ~kind ~help name in
  let key = label_key labels in
  match Hashtbl.find_opt f.f_instances key with
  | Some i -> reuse name i
  | None ->
      let i = new_instance t labels (fresh ()) in
      Hashtbl.add f.f_instances key i;
      f.f_order <- key :: f.f_order;
      i

type counter = int ref
type gauge = float ref
type histogram = Kite_stats.Histogram.t

let style_clash name =
  invalid_arg
    (Printf.sprintf
       "Registry: %s already registered under another instrument style" name)

let counter t ?(help = "") name labels =
  let i =
    instance t ~kind:Counter ~help name labels
      ~fresh:(fun () -> I_counter (ref 0))
      ~reuse:(fun n i ->
        match i.i_instr with I_counter _ -> i | _ -> style_clash n)
  in
  match i.i_instr with I_counter r -> r | _ -> assert false

let gauge t ?(help = "") name labels =
  let i =
    instance t ~kind:Gauge ~help name labels
      ~fresh:(fun () -> I_gauge (ref 0.0))
      ~reuse:(fun n i ->
        match i.i_instr with I_gauge _ -> i | _ -> style_clash n)
  in
  match i.i_instr with I_gauge r -> r | _ -> assert false

let histogram t ?(help = "") ?base ?factor name labels =
  let i =
    instance t ~kind:Histogram ~help name labels
      ~fresh:(fun () -> I_hist (Kite_stats.Histogram.create ?base ?factor ()))
      ~reuse:(fun n i ->
        match i.i_instr with I_hist _ -> i | _ -> style_clash n)
  in
  match i.i_instr with I_hist h -> h | _ -> assert false

let counter_fn t ?(help = "") name labels fn =
  let i =
    instance t ~kind:Counter ~help name labels
      ~fresh:(fun () -> I_counter_fn (ref fn))
      ~reuse:(fun n i ->
        match i.i_instr with
        | I_counter_fn r ->
            (* Replacement keeps the series: drivers re-register the
               same vif/vbd after a crash/reconnect cycle. *)
            r := fn;
            i
        | _ -> style_clash n)
  in
  ignore i

let gauge_fn t ?(help = "") name labels fn =
  let i =
    instance t ~kind:Gauge ~help name labels
      ~fresh:(fun () -> I_gauge_fn (ref fn))
      ~reuse:(fun n i ->
        match i.i_instr with
        | I_gauge_fn r ->
            r := fn;
            i
        | _ -> style_clash n)
  in
  ignore i

let inc (c : counter) = incr c
let add (c : counter) n = c := !c + n
let set (g : gauge) v = g := v
let observe (h : histogram) v = Kite_stats.Histogram.add h v

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let scalar i =
  match i.i_instr with
  | I_counter r -> float_of_int !r
  | I_counter_fn r -> ( try float_of_int (!r ()) with _ -> Float.nan)
  | I_gauge r -> !r
  | I_gauge_fn r -> ( try !r () with _ -> Float.nan)
  | I_hist h -> float_of_int (Kite_stats.Histogram.count h)

let fam_names t = List.sort String.compare (List.rev t.fam_order)

let families t =
  List.map
    (fun n ->
      let f = Hashtbl.find t.fams n in
      (n, f.f_kind, f.f_help))
    (fam_names t)

let instances_of f =
  List.rev f.f_order
  |> List.sort String.compare
  |> List.map (fun key -> Hashtbl.find f.f_instances key)

let read t =
  List.concat_map
    (fun n ->
      let f = Hashtbl.find t.fams n in
      List.map (fun i -> (n, i.i_labels, scalar i)) (instances_of f))
    (fam_names t)

let find_instance t name labels =
  match Hashtbl.find_opt t.fams name with
  | None -> None
  | Some f -> Hashtbl.find_opt f.f_instances (label_key labels)

let value t name labels = Option.map scalar (find_instance t name labels)

let quantile t name labels q =
  match find_instance t name labels with
  | Some { i_instr = I_hist h; _ } when Kite_stats.Histogram.count h > 0 ->
      Some (Kite_stats.Histogram.quantile h q)
  | _ -> None

let percentile t name labels p = quantile t name labels (p /. 100.)

let hbuckets t name labels =
  match find_instance t name labels with
  | Some { i_instr = I_hist h; _ } -> Some (Kite_stats.Histogram.buckets h)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let push_sample t i ~at v =
  if i.s_first_at = min_int then begin
    i.s_first_at <- at;
    i.s_first_val <- v
  end
  else begin
    let cap = Array.length i.s_ats in
    let j = (i.s_head - 1 + cap) mod cap in
    if i.s_vals.(j) <> v then i.s_change_at <- at
  end;
  i.s_ats.(i.s_head) <- at;
  i.s_vals.(i.s_head) <- v;
  i.s_head <- (i.s_head + 1) mod t.capacity;
  if i.s_len < t.capacity then i.s_len <- i.s_len + 1

let sample t ~at =
  Hashtbl.iter
    (fun _ f ->
      Hashtbl.iter (fun _ i -> push_sample t i ~at (scalar i)) f.f_instances)
    t.fams;
  List.iter
    (fun key ->
      let p = Hashtbl.find t.probes key in
      match (try p.p_fn () with _ -> Healthy) with
      | Healthy -> p.p_alerting <- false
      | Alert msg ->
          if not p.p_alerting then begin
            p.p_alerting <- true;
            let a =
              {
                alert_at = at;
                alert_probe = p.p_name;
                alert_labels = p.p_labels;
                alert_msg = msg;
              }
            in
            t.alerts_rev <- a :: t.alerts_rev;
            t.nalerts <- t.nalerts + 1;
            match t.alert_obs with None -> () | Some f -> f a
          end)
    (List.rev t.probe_order);
  t.nsamples <- t.nsamples + 1

let samples_taken t = t.nsamples

let series t name labels =
  match find_instance t name labels with
  | None -> []
  | Some i ->
      let cap = Array.length i.s_ats in
      let start = if i.s_len < cap then 0 else i.s_head in
      List.init i.s_len (fun k ->
          let j = (start + k) mod cap in
          (i.s_ats.(j), i.s_vals.(j)))

let last_sample t name labels =
  match find_instance t name labels with
  | None -> None
  | Some i ->
      if i.s_len = 0 then None
      else
        let cap = Array.length i.s_ats in
        let j = (i.s_head - 1 + cap) mod cap in
        Some (i.s_ats.(j), i.s_vals.(j))

let rate t name labels =
  match find_instance t name labels with
  | None -> None
  | Some i ->
      if i.s_len = 0 || i.s_first_at = min_int || i.s_change_at = min_int
      then None
      else
        let cap = Array.length i.s_ats in
        let j = (i.s_head - 1 + cap) mod cap in
        let dt = i.s_change_at - i.s_first_at in
        if dt <= 0 then None
        else Some ((i.s_vals.(j) -. i.s_first_val) /. float_of_int dt *. 1e9)

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

let probe t ~name labels fn =
  check_name "probe" name;
  let key = name ^ "#" ^ label_key labels in
  match Hashtbl.find_opt t.probes key with
  | Some p ->
      p.p_fn <- fn;
      p.p_alerting <- false
  | None ->
      Hashtbl.add t.probes key
        { p_name = name; p_labels = canon labels; p_fn = fn; p_alerting = false };
      t.probe_order <- key :: t.probe_order

let alerts t = List.rev t.alerts_rev
let set_alert_observer t obs = t.alert_obs <- obs

let stalled_probe ?(ticks = 3) ~pending ~progress () =
  let last = ref min_int in
  let stalls = ref 0 in
  fun () ->
    let p = pending () in
    let done_ = progress () in
    if p > 0 && done_ = !last then begin
      incr stalls;
      if !stalls >= ticks then
        Alert
          (Printf.sprintf "%d requests pending, no progress for %d ticks" p
             !stalls)
      else Healthy
    end
    else begin
      stalls := 0;
      last := done_;
      Healthy
    end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let default_interval = 100_000_000 (* 100 ms of simulated time *)

let create ?(name = "sim") ?(interval = default_interval) ?(capacity = 512) () =
  if capacity <= 0 then invalid_arg "Registry.create: capacity must be > 0";
  let t =
    {
      rname = name;
      rinterval = interval;
      capacity;
      fams = Hashtbl.create 64;
      fam_order = [];
      probes = Hashtbl.create 16;
      probe_order = [];
      alerts_rev = [];
      nalerts = 0;
      nsamples = 0;
      alert_obs = None;
    }
  in
  counter_fn t "kite_alerts_total" [] ~help:"Health-probe alerts fired"
    (fun () -> t.nalerts);
  t

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

let escape_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let add_labels b labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char b '{';
      List.iteri
        (fun k (l, v) ->
          if k > 0 then Buffer.add_char b ',';
          Buffer.add_string b l;
          Buffer.add_string b "=\"";
          Buffer.add_string b (escape_label_value v);
          Buffer.add_char b '"')
        labels;
      Buffer.add_char b '}'

let add_sample b name labels v =
  Buffer.add_string b name;
  add_labels b labels;
  Buffer.add_char b ' ';
  Buffer.add_string b (fmt_value v);
  Buffer.add_char b '\n'

let hist_sum h =
  let n = Kite_stats.Histogram.count h in
  if n = 0 then 0.0 else Kite_stats.Histogram.mean h *. float_of_int n

let add_histogram b name labels h =
  let count = Kite_stats.Histogram.count h in
  let running = ref 0 in
  List.iter
    (fun (_, hi, n) ->
      running := !running + n;
      add_sample b (name ^ "_bucket")
        (labels @ [ ("le", fmt_value hi) ])
        (float_of_int !running))
    (Kite_stats.Histogram.buckets h);
  add_sample b (name ^ "_bucket")
    (labels @ [ ("le", "+Inf") ])
    (float_of_int count);
  add_sample b (name ^ "_sum") labels (hist_sum h);
  add_sample b (name ^ "_count") labels (float_of_int count)

let to_prometheus ts =
  let b = Buffer.create 4096 in
  let tag t labels =
    (* Federation-style: with several machines on one page, each sample
       says which registry it came from. *)
    if List.length ts > 1 then ("machine", t.rname) :: labels else labels
  in
  (* One HELP/TYPE block per family across all registries. *)
  let seen = Hashtbl.create 64 in
  let all_names =
    List.concat_map fam_names ts
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun name ->
      List.iter
        (fun t ->
          match Hashtbl.find_opt t.fams name with
          | None -> ()
          | Some f ->
              if not (Hashtbl.mem seen name) then begin
                Hashtbl.add seen name ();
                if f.f_help <> "" then
                  Buffer.add_string b
                    (Printf.sprintf "# HELP %s %s\n" name f.f_help);
                Buffer.add_string b
                  (Printf.sprintf "# TYPE %s %s\n" name (kind_name f.f_kind))
              end;
              List.iter
                (fun i ->
                  match i.i_instr with
                  | I_hist h -> add_histogram b name (tag t i.i_labels) h
                  | _ -> add_sample b name (tag t i.i_labels) (scalar i))
                (instances_of f))
        ts)
    all_names;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Exposition parsing (the scraper half of the round trip)             *)
(* ------------------------------------------------------------------ *)

let parse_float s =
  match s with
  | "NaN" -> Float.nan
  | "+Inf" -> Float.infinity
  | "-Inf" -> Float.neg_infinity
  | s -> (
      try float_of_string s
      with _ -> invalid_arg ("Registry.parse_prometheus: bad value " ^ s))

let parse_sample line =
  let n = String.length line in
  let bad () = invalid_arg ("Registry.parse_prometheus: bad line " ^ line) in
  let rec name_end i =
    if i < n && name_char line.[i] then name_end (i + 1) else i
  in
  let stop = name_end 0 in
  if stop = 0 then bad ();
  let name = String.sub line 0 stop in
  let labels = ref [] in
  let i = ref stop in
  if !i < n && line.[!i] = '{' then begin
    incr i;
    let buf = Buffer.create 16 in
    while !i < n && line.[!i] <> '}' do
      (* label name *)
      let lstart = !i in
      while !i < n && line.[!i] <> '=' do incr i done;
      if !i >= n then bad ();
      let lname = String.sub line lstart (!i - lstart) in
      incr i;
      if !i >= n || line.[!i] <> '"' then bad ();
      incr i;
      Buffer.clear buf;
      let closed = ref false in
      while not !closed do
        if !i >= n then bad ();
        (match line.[!i] with
        | '\\' ->
            if !i + 1 >= n then bad ();
            (match line.[!i + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | c -> Buffer.add_char buf c);
            incr i
        | '"' -> closed := true
        | c -> Buffer.add_char buf c);
        incr i
      done;
      labels := (lname, Buffer.contents buf) :: !labels;
      if !i < n && line.[!i] = ',' then incr i
    done;
    if !i >= n then bad ();
    incr i (* '}' *)
  end;
  while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
  if !i >= n then bad ();
  (* The value runs to the next blank (a timestamp may follow; we emit
     none, but a real scraper would tolerate one). *)
  let vstart = !i in
  while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
  (name, List.rev !labels, parse_float (String.sub line vstart (!i - vstart)))

let parse_prometheus text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else Some (parse_sample line))

(* ------------------------------------------------------------------ *)
(* JSON dump                                                           *)
(* ------------------------------------------------------------------ *)

let json_escape = Kite_stats.Json.escape

let json_num v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let add_json_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun k (l, v) ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape l) (json_escape v)))
    labels;
  Buffer.add_char b '}'

let to_json ts =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun ti t ->
      if ti > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "\n{\"machine\":\"%s\",\"samples\":%d,\"metrics\":["
           (json_escape t.rname) t.nsamples);
      let first = ref true in
      List.iter
        (fun name ->
          let f = Hashtbl.find t.fams name in
          List.iter
            (fun i ->
              if !first then first := false else Buffer.add_string b ",";
              Buffer.add_string b
                (Printf.sprintf "\n {\"name\":\"%s\",\"kind\":\"%s\",\"labels\":"
                   (json_escape name) (kind_name f.f_kind));
              add_json_labels b i.i_labels;
              (match i.i_instr with
              | I_hist h when Kite_stats.Histogram.count h > 0 ->
                  Buffer.add_string b
                    (Printf.sprintf
                       ",\"count\":%d,\"mean\":%s,\"p50\":%s,\"p99\":%s"
                       (Kite_stats.Histogram.count h)
                       (json_num (Kite_stats.Histogram.mean h))
                       (json_num (Kite_stats.Histogram.quantile h 0.5))
                       (json_num (Kite_stats.Histogram.quantile h 0.99)))
              | I_hist _ -> Buffer.add_string b ",\"count\":0"
              | _ ->
                  Buffer.add_string b
                    (Printf.sprintf ",\"value\":%s" (json_num (scalar i))));
              Buffer.add_string b "}")
            (instances_of f))
        (fam_names t);
      Buffer.add_string b "],\n\"alerts\":[";
      List.iteri
        (fun k a ->
          if k > 0 then Buffer.add_string b ",";
          Buffer.add_string b
            (Printf.sprintf "\n {\"at\":%d,\"probe\":\"%s\",\"labels\":"
               a.alert_at (json_escape a.alert_probe));
          add_json_labels b a.alert_labels;
          Buffer.add_string b
            (Printf.sprintf ",\"msg\":\"%s\"}" (json_escape a.alert_msg)))
        (alerts t);
      Buffer.add_string b "]}")
    ts;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Run-wide default sink                                               *)
(* ------------------------------------------------------------------ *)

type sink = { s_interval : int; mutable members : t list (* reversed *) }

let sink ?(interval = default_interval) () = { s_interval = interval; members = [] }

let create_in s ~name =
  let t = create ~name ~interval:s.s_interval () in
  s.members <- t :: s.members;
  t

let registries s = List.rev s.members

let default_ref : sink option ref = ref None
let set_default v = default_ref := v
let default () = !default_ref
