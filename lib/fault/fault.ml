(* Deterministic fault injection.  See fault.mli for the model.

   The RNG is a private copy of lib/sim/rng.ml's splitmix64 rather than a
   dependency on kite_sim: the fault layer must sit below the simulator so
   that Xenstore / Event_channel / the device models (all of which are
   created before, or independently of, any engine) can hold one. *)

module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix (Int64.of_int seed) }

  let bits64 t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let float t x =
    let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
    x *. (r /. 9007199254740992.0 (* 2^53 *))
end

(* ------------------------------------------------------------------ *)
(* Points and plans                                                    *)
(* ------------------------------------------------------------------ *)

type point =
  | Evtchn_notify
  | Xenstore_write
  | Xenstore_watch
  | Ring_slot
  | Device_io

let point_name = function
  | Evtchn_notify -> "evtchn-notify"
  | Xenstore_write -> "xenstore-write"
  | Xenstore_watch -> "xenstore-watch"
  | Ring_slot -> "ring-slot"
  | Device_io -> "device-io"

let point_of_name = function
  | "evtchn-notify" -> Some Evtchn_notify
  | "xenstore-write" -> Some Xenstore_write
  | "xenstore-watch" -> Some Xenstore_watch
  | "ring-slot" -> Some Ring_slot
  | "device-io" -> Some Device_io
  | _ -> None

type spec = {
  sp_point : point;
  sp_key : string;
  sp_first : int;
  sp_every : int;
  sp_count : int;
  sp_prob : float;
}

let spec ?(key = "") ?(first = 1) ?(every = 1) ?(count = max_int) ?(prob = 0.)
    point =
  if first < 1 then invalid_arg "Fault.spec: first must be >= 1";
  if every < 1 then invalid_arg "Fault.spec: every must be >= 1";
  if count < 0 then invalid_arg "Fault.spec: count must be >= 0";
  if prob < 0. || prob > 1. then
    invalid_arg "Fault.spec: prob must be in [0,1]";
  { sp_point = point; sp_key = key; sp_first = first; sp_every = every;
    sp_count = count; sp_prob = prob }

type plan = spec list

let default_plan = [ spec ~first:10 ~every:40 ~count:8 Device_io ]

let spec_to_string s =
  let b = Buffer.create 48 in
  Buffer.add_string b (point_name s.sp_point);
  if s.sp_key <> "" then Buffer.add_string b (" key=" ^ s.sp_key);
  if s.sp_first <> 1 then
    Buffer.add_string b (Printf.sprintf " first=%d" s.sp_first);
  if s.sp_every <> 1 then
    Buffer.add_string b (Printf.sprintf " every=%d" s.sp_every);
  if s.sp_count <> max_int then
    Buffer.add_string b (Printf.sprintf " count=%d" s.sp_count);
  if s.sp_prob <> 0. then
    Buffer.add_string b (Printf.sprintf " prob=%g" s.sp_prob);
  Buffer.contents b

let plan_to_string plan = String.concat "\n" (List.map spec_to_string plan)

let spec_of_line line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] -> Ok None
  | pt :: fields -> (
      match point_of_name pt with
      | None -> Error (Printf.sprintf "unknown injection point %S" pt)
      | Some point -> (
          let parse acc field =
            match acc with
            | Error _ -> acc
            | Ok s -> (
                match String.index_opt field '=' with
                | None -> Error (Printf.sprintf "malformed field %S" field)
                | Some i -> (
                    let k = String.sub field 0 i in
                    let v =
                      String.sub field (i + 1) (String.length field - i - 1)
                    in
                    let int_v f =
                      match int_of_string_opt v with
                      | Some n -> Ok (f n)
                      | None ->
                          Error (Printf.sprintf "bad integer %S for %s" v k)
                    in
                    match k with
                    | "key" -> Ok { s with sp_key = v }
                    | "first" -> int_v (fun n -> { s with sp_first = n })
                    | "every" -> int_v (fun n -> { s with sp_every = n })
                    | "count" -> int_v (fun n -> { s with sp_count = n })
                    | "prob" -> (
                        match float_of_string_opt v with
                        | Some p -> Ok { s with sp_prob = p }
                        | None ->
                            Error (Printf.sprintf "bad float %S for prob" v))
                    | _ -> Error (Printf.sprintf "unknown field %S" k)))
          in
          match List.fold_left parse (Ok (spec point)) fields with
          | Ok s -> Ok (Some s)
          | Error e -> Error e))

let plan_of_string text =
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        match spec_of_line (String.trim line) with
        | Ok None -> go (n + 1) acc rest
        | Ok (Some s) -> go (n + 1) (s :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* Injectors                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-spec counters live in the injector, so a plan value can be shared
   between sinks and runs without aliasing state. *)
type armed = { sp : spec; mutable seen : int; mutable fired : int }

type event =
  | Injected of point * string * int  (* point, key, eligible-op index *)
  | Noted of string * string  (* what, key *)

type t = {
  f_name : string;
  f_seed : int;
  f_plan : plan;
  armed : armed list;
  rng : Rng.t;
  mutable log : event list;  (* reversed *)
  mutable n_injected : int;
  (* Event observer (the flight recorder's tap); [None] keeps the log
     append the only work fire/note do. *)
  mutable obs : (event -> unit) option;
}

let create ?(name = "fault") ~seed plan =
  {
    f_name = name;
    f_seed = seed;
    f_plan = plan;
    armed = List.map (fun sp -> { sp; seen = 0; fired = 0 }) plan;
    rng = Rng.create seed;
    log = [];
    n_injected = 0;
    obs = None;
  }

let name t = t.f_name
let seed t = t.f_seed
let plan t = t.f_plan

let key_matches ~pat key =
  pat = ""
  ||
  (* substring match *)
  let pl = String.length pat and kl = String.length key in
  pl <= kl
  &&
  let rec at i = i + pl <= kl && (String.sub key i pl = pat || at (i + 1)) in
  at 0

let fire t point ~key =
  let hit = ref false in
  List.iter
    (fun a ->
      if a.sp.sp_point = point && key_matches ~pat:a.sp.sp_key key then begin
        a.seen <- a.seen + 1;
        let deterministic =
          a.fired < a.sp.sp_count
          && a.seen >= a.sp.sp_first
          && (a.seen - a.sp.sp_first) mod a.sp.sp_every = 0
        in
        let probabilistic =
          a.sp.sp_prob > 0. && Rng.float t.rng 1.0 < a.sp.sp_prob
        in
        if deterministic || probabilistic then begin
          if deterministic then a.fired <- a.fired + 1;
          if not !hit then begin
            hit := true;
            t.n_injected <- t.n_injected + 1;
            let ev = Injected (point, key, a.seen) in
            t.log <- ev :: t.log;
            match t.obs with None -> () | Some f -> f ev
          end
        end
      end)
    t.armed;
  !hit

let note t ~what ~key =
  let ev = Noted (what, key) in
  t.log <- ev :: t.log;
  match t.obs with None -> () | Some f -> f ev

let set_observer t obs = t.obs <- obs

let injected t =
  List.rev_map
    (function Injected (p, k, n) -> Some (p, k, n) | Noted _ -> None)
    t.log
  |> List.filter_map (fun x -> x)

let injected_count t = t.n_injected

let notes t =
  List.rev_map
    (function Noted (w, k) -> Some (w, k) | Injected _ -> None)
    t.log
  |> List.filter_map (fun x -> x)

let event_to_string = function
  | Injected (p, k, n) -> Printf.sprintf "inject %s %s #%d" (point_name p) k n
  | Noted (w, k) -> Printf.sprintf "note %s %s" w k

let events t = List.rev_map event_to_string t.log

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

type sink = {
  s_seed : int;
  s_plan : plan;
  mutable created : t list;  (* reversed *)
  mutable next : int;
}

let sink ?(seed = 1) plan = { s_seed = seed; s_plan = plan; created = []; next = 0 }

let sink_seed s = s.s_seed
let sink_plan s = s.s_plan

let create_in s ~name =
  (* Split a per-injector seed from the sink seed and the creation index
     the same way Rng.split derives independent streams. *)
  let sub =
    Int64.to_int
      (Rng.mix
         (Int64.add
            (Rng.mix (Int64.of_int s.s_seed))
            (Int64.mul Rng.golden (Int64.of_int (s.next + 1)))))
    land max_int
  in
  s.next <- s.next + 1;
  let t = create ~name ~seed:sub s.s_plan in
  s.created <- t :: s.created;
  t

let faults s = List.rev s.created

let default_ref : sink option ref = ref None
let set_default s = default_ref := s
let default () = !default_ref

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let print ts =
  List.iter
    (fun t ->
      Fmt.pr "== faults: %s (seed %d) ==@." t.f_name t.f_seed;
      if t.log = [] then Fmt.pr "  (no injections, no notes)@."
      else List.iter (fun e -> Fmt.pr "  %s@." (event_to_string e)) (List.rev t.log))
    ts

let json_escape = Kite_stats.Json.escape

let to_json ts =
  let injector t =
    let ev = function
      | Injected (p, k, n) ->
          Printf.sprintf
            {|{"type":"inject","point":"%s","key":"%s","op":%d}|}
            (point_name p) (json_escape k) n
      | Noted (w, k) ->
          Printf.sprintf {|{"type":"note","what":"%s","key":"%s"}|}
            (json_escape w) (json_escape k)
    in
    Printf.sprintf
      {|{"name":"%s","seed":%d,"injected":%d,"events":[%s]}|}
      (json_escape t.f_name) t.f_seed t.n_injected
      (String.concat "," (List.rev_map ev t.log))
  in
  "[" ^ String.concat "," (List.map injector ts) ^ "]"
