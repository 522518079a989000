type t = {
  counters : (string, int ref) Hashtbl.t;
  busy : (string, int ref) Hashtbl.t;
  series : (string, float list ref) Hashtbl.t;
  mutable epoch : int;  (* bumped by [reset]: resolved cells go stale *)
}

let create () =
  {
    counters = Hashtbl.create 64;
    busy = Hashtbl.create 16;
    series = Hashtbl.create 16;
    epoch = 0;
  }

let cell tbl name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

let add t name n =
  let r = cell t.counters name in
  r := !r + n

let incr t name = add t name 1

(* A pre-named counter or busy-time slot.  The table entry is looked up
   (and created) at the first [bump], exactly where [add]/[add_busy]
   would have created it, then cached until the next [reset]. *)
type cell = {
  owner : t;
  table : (string, int ref) Hashtbl.t;
  key : string;
  mutable resolved_in : int;  (* owner epoch of [slot]; -1 before use *)
  mutable slot : int ref;
}

(* Placeholder slot of a cell not yet bumped; never written, since the
   epoch check resolves the real slot first. *)
let unresolved = ref 0

let make_cell t table key =
  { owner = t; table; key; resolved_in = -1; slot = unresolved }

let counter_cell t name = make_cell t t.counters name
let busy_cell t name = make_cell t t.busy name

let bump c n =
  if c.resolved_in <> c.owner.epoch then begin
    c.slot <- cell c.table c.key;
    c.resolved_in <- c.owner.epoch
  end;
  c.slot := !(c.slot) + n

let count t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let add_busy t name span =
  let r = cell t.busy name in
  r := !r + span

let busy t name =
  match Hashtbl.find_opt t.busy name with Some r -> !r | None -> 0

let utilization t name ~total =
  if total <= 0 then 0.0
  else
    let b = float_of_int (busy t name) /. float_of_int total in
    Float.min 1.0 b

let record_sample t name v =
  match Hashtbl.find_opt t.series name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add t.series name (ref [ v ])

(* Series are stored most-recent-first and reversed here, so callers see
   samples exactly in the order [record_sample] appended them. *)
let samples t name =
  match Hashtbl.find_opt t.series name with
  | Some r -> List.rev !r
  | None -> []

let summary_opt t name =
  match samples t name with
  | [] -> None
  | xs -> Some (Kite_stats.Summary.of_list xs)

let summary t name =
  match summary_opt t name with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics.summary: no samples recorded under %S" name)

(* [Hashtbl.fold] visits every binding, including shadowed ones a stray
   [Hashtbl.add] may have stacked under one key, so enumerations must
   dedup or a family can be listed (and summed) twice. *)
let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq String.compare

(* Canonical key for a labelled family: labels sorted by label name, so
   the same (name, label set) always lands in the same cell no matter
   what order call sites list the labels in. *)
let labelled name labels =
  match labels with
  | [] -> name
  | labels ->
      let labels =
        List.sort (fun (a, _) (b, _) -> String.compare a b) labels
      in
      Printf.sprintf "%s{%s}" name
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) labels))

let names t = sorted_keys t.counters
let busy_names t = sorted_keys t.busy
let series_names t = sorted_keys t.series

let reset t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.busy;
  Hashtbl.reset t.series

let pp ppf t =
  let counters =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
    |> List.sort compare
  in
  List.iter (fun (k, v) -> Format.fprintf ppf "%s = %d@." k v) counters;
  let busies =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.busy []
    |> List.sort compare
  in
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%s busy = %a@." k Time.pp v)
    busies;
  Hashtbl.iter
    (fun k r -> Format.fprintf ppf "%s samples = %d@." k (List.length !r))
    t.series
