(* Syntactic policy checks over the codebase, using the compiler's own
   parser (compiler-libs).  See lint.mli for the rule inventory.  The
   walker is a single Ast_iterator pass per file carrying two pieces of
   state: whether the current expression is lexically inside a guard
   (a [Some]-pattern case or an [if ... active () then ...] branch), and
   per-file tallies of paired-resource calls for the pairing rules. *)

type config = {
  policed_modules : string list;
  skip_basenames : string list;
}

let default_config =
  {
    policed_modules =
      [ "Check"; "Trace"; "Fault"; "Race"; "Registry"; "Flight"; "Path" ];
    (* The detector implementations call their own internals freely;
       linting them for guards would be circular. *)
    skip_basenames =
      [
        "check.ml"; "report.ml"; "trace.ml"; "fault.ml"; "race.ml";
        "registry.ml"; "flight.ml"; "slo.ml"; "path.ml"; "lint.ml";
      ];
  }

(* Hot hook functions: anything here, called through a policed module
   path, must be under a guard so it costs nothing when no sink is
   attached.  Cold calls (create/attach/set_default/...) and
   self-guarding calls (Race.active, Race.scoped_*: one ref read when
   disabled) are deliberately absent. *)
let policed_functions =
  [
    (* Kite_check.Check *)
    "ring_push"; "ring_publish"; "ring_take"; "ring_final_check";
    "mq_claim"; "mq_release";
    "grant_granted"; "grant_end"; "grant_map"; "grant_unmap"; "grant_copy";
    "proc_spawned"; "proc_enter"; "proc_leave"; "proc_blocked";
    "proc_exited";
    "watch_added"; "watch_removed"; "tx_opened"; "tx_closed";
    "xenbus_bad_state"; "xenbus_bad_transition"; "write_denied";
    (* Kite_trace.Trace *)
    "span_begin"; "span_hop"; "span_end"; "charge"; "cpu_work"; "driver";
    "evtchn_send"; "evtchn_deliver";
    (* Kite_fault.Fault *)
    "fire"; "note";
    (* Kite_race.Race *)
    "proc_register"; "irq_enter"; "irq_leave"; "hb_release"; "hb_acquire";
    "xs_read"; "xs_write"; "read_acc"; "write_acc";
    (* Kite_metrics.Registry *)
    "observe"; "sample";
    (* Kite_flight.Flight *)
    "record"; "mark"; "crash"; "restart";
    (* Kite_path.Path — proc_enter/proc_leave are shared with Check above *)
    "cpu_sample"; "record_span";
  ]

let policed_fn_tbl = Hashtbl.create 64

let () =
  List.iter (fun f -> Hashtbl.replace policed_fn_tbl f ()) policed_functions

(* Last one or two components of a (possibly deep) module path:
   [Kite_check.Check.ring_push] and [Check.ring_push] both yield
   [Some ("Check", "ring_push")]. *)
let split_path lid =
  match lid with
  | Longident.Ldot (Longident.Lident m, f) -> Some (m, f)
  | Longident.Ldot (Longident.Ldot (_, m), f) -> Some (m, f)
  | _ -> None

exception Found

let mentions_active expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } -> (
              match Longident.flatten txt with
              | parts when List.exists (String.equal "active") parts ->
                  raise Found
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  try
    it.expr it expr;
    false
  with Found -> true

let rec pattern_has_some p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_construct ({ txt = Longident.Lident "Some"; _ }, _) ->
      true
  | Parsetree.Ppat_tuple ps -> List.exists pattern_has_some ps
  | Parsetree.Ppat_alias (p, _) | Parsetree.Ppat_constraint (p, _) ->
      pattern_has_some p
  | Parsetree.Ppat_or (a, b) -> pattern_has_some a && pattern_has_some b
  | _ -> false

type facts = {
  mutable grant_access : bool;
  mutable end_access : bool;
  mutable grant_map : bool;
  mutable grant_unmap : bool;
  mutable watch : bool;
  mutable unwatch : bool;
  mutable hv_create : bool;
  mutable arm : bool;
  mutable teardown_reg : bool;
}

let fresh_facts () =
  {
    grant_access = false;
    end_access = false;
    grant_map = false;
    grant_unmap = false;
    watch = false;
    unwatch = false;
    hv_create = false;
    arm = false;
    teardown_reg = false;
  }

let note_ident facts lid =
  (match split_path lid with
  | Some ("Grant_table", "grant_access") -> facts.grant_access <- true
  | Some ("Grant_table", "end_access") -> facts.end_access <- true
  | Some ("Grant_table", ("map_one" | "map_many")) -> facts.grant_map <- true
  | Some ("Grant_table", ("unmap_one" | "unmap_many")) ->
      facts.grant_unmap <- true
  | Some (("Xenbus" | "Xenstore"), "watch") -> facts.watch <- true
  | Some (("Xenbus" | "Xenstore"), "unwatch") -> facts.unwatch <- true
  | Some ("Hypervisor", "create") -> facts.hv_create <- true
  (* The one arm entry point, qualified or (inside Scenario) bare. *)
  | Some ("Scenario", "arm") -> facts.arm <- true
  | _ -> if lid = Longident.Lident "arm" then facts.arm <- true);
  List.iter
    (fun p ->
      if p = "teardowns" || p = "register_teardown" then
        facts.teardown_reg <- true)
    (Longident.flatten lid)

let emit report ~rule ~file ~line msg =
  Kite_check.Report.add report
    {
      Kite_check.Report.severity = Kite_check.Report.Error;
      subsystem = "lint";
      rule;
      provenance = file;
      message =
        (if line > 0 then Printf.sprintf "%s:%d: %s" file line msg
         else Printf.sprintf "%s: %s" file msg);
    }

let lint_structure config report ~file ~check_guards str =
  let facts = fresh_facts () in
  let guarded = ref false in
  let with_guard f =
    let saved = !guarded in
    guarded := true;
    f ();
    guarded := saved
  in
  let has_guard_attr attrs =
    List.exists
      (fun a -> a.Parsetree.attr_name.Location.txt = "lint.guarded")
      attrs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun self vb ->
          if has_guard_attr vb.Parsetree.pvb_attributes then
            with_guard (fun () ->
                Ast_iterator.default_iterator.value_binding self vb)
          else Ast_iterator.default_iterator.value_binding self vb);
      case =
        (fun self c ->
          if pattern_has_some c.Parsetree.pc_lhs then
            with_guard (fun () -> Ast_iterator.default_iterator.case self c)
          else Ast_iterator.default_iterator.case self c);
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | _ when has_guard_attr e.Parsetree.pexp_attributes ->
              with_guard (fun () ->
                  Ast_iterator.default_iterator.expr self e)
          | Parsetree.Pexp_ifthenelse (cond, then_, else_)
            when mentions_active cond ->
              self.Ast_iterator.expr self cond;
              with_guard (fun () ->
                  self.Ast_iterator.expr self then_;
                  Option.iter (self.Ast_iterator.expr self) else_)
          | Parsetree.Pexp_apply
              ({ pexp_desc = Parsetree.Pexp_ident { txt; loc }; _ }, _) ->
              note_ident facts txt;
              (match split_path txt with
              | Some (m, f)
                when check_guards && (not !guarded)
                     && List.mem m config.policed_modules
                     && Hashtbl.mem policed_fn_tbl f ->
                  emit report ~rule:"lint-hook-unguarded" ~file
                    ~line:loc.Location.loc_start.Lexing.pos_lnum
                    (Printf.sprintf
                       "%s.%s called outside a Some-guard or active() \
                        check; hot hooks must be free when disabled"
                       m f)
              | _ -> ());
              Ast_iterator.default_iterator.expr self e
          | Parsetree.Pexp_ident { txt; _ } ->
              note_ident facts txt;
              Ast_iterator.default_iterator.expr self e
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.Ast_iterator.structure it str;
  if facts.grant_access && not facts.end_access then
    emit report ~rule:"lint-grant-unpaired" ~file ~line:0
      "calls Grant_table.grant_access but never Grant_table.end_access";
  if facts.grant_map && not facts.grant_unmap then
    emit report ~rule:"lint-grant-unpaired" ~file ~line:0
      "calls Grant_table.map_one/map_many but never unmap_one/unmap_many";
  if facts.watch && not facts.unwatch then
    emit report ~rule:"lint-watch-unpaired" ~file ~line:0
      "registers a xenstore watch but never unwatches";
  if facts.hv_create && facts.arm && not facts.teardown_reg then
    emit report ~rule:"lint-teardown-missing" ~file ~line:0
      "builds a hypervisor and arms layers (Scenario.arm) but registers no \
       teardown"

let lint_file ?(config = default_config) report path =
  let base = Filename.basename path in
  let check_guards = not (List.mem base config.skip_basenames) in
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg ->
      emit report ~rule:"lint-parse-error" ~file:path ~line:0 msg
  | content -> (
      let lexbuf = Lexing.from_string content in
      Lexing.set_filename lexbuf path;
      match Parse.implementation lexbuf with
      | str -> lint_structure config report ~file:path ~check_guards str
      | exception exn ->
          emit report ~rule:"lint-parse-error" ~file:path ~line:0
            (Printexc.to_string exn))

let lint_paths ?(config = default_config) report paths =
  let linted = ref 0 in
  let rec walk path =
    if Sys.is_directory path then
      Array.iter
        (fun entry -> walk (Filename.concat path entry))
        (Sys.readdir path)
    else if Filename.check_suffix path ".ml" then begin
      lint_file ~config report path;
      incr linted
    end
  in
  List.iter walk paths;
  !linted
