(** Source lint for the instrumentation discipline the simulator relies
    on.  Parses [.ml] files with the compiler's own frontend and checks
    syntactic policies that the type checker cannot: hot observability
    hooks must be guarded so they are free when no sink is attached,
    grant maps must have a matching unmap, xenstore watches a matching
    unwatch, and testbed builders that build a hypervisor and arm its
    layers ([Scenario.arm]) must register a teardown.

    The rules are deliberately lexical (per-file pairing, guard shapes)
    rather than a dataflow analysis: the codebase uses a small set of
    idioms — [match t.sink with Some s -> hook s ... | None -> ()] and
    [if Race.active () then ...] — and the lint enforces that those
    idioms are the only way hot hooks get called.

    Escape hatch: a [let[@lint.guarded] f ...] binding (or an expression
    carrying the attribute) is treated as guarded — for helpers that are
    only ever reached through a guard the lint cannot see, e.g. the
    memoizing per-sink registration helpers in [Process.spawn]. *)

type config = {
  policed_modules : string list;
      (** Last module component of hook call paths to police
          (default ["Check"; "Trace"; "Fault"; "Race"; "Registry";
          "Flight"; "Path"]). *)
  skip_basenames : string list;
      (** Files excluded from the hook-guard rule — the detector
          implementations themselves. *)
}

val default_config : config

val lint_file : ?config:config -> Kite_check.Report.t -> string -> unit
(** Parse one [.ml] file and append any findings to the report.  A file
    that fails to parse yields a [lint-parse-error] finding rather than
    an exception. *)

val lint_paths : ?config:config -> Kite_check.Report.t -> string list -> int
(** Walk directories recursively (or take files as-is), lint every
    [.ml] file found, and return the number of files linted.  Findings
    accumulate in the report under subsystem ["lint"] with rules
    [lint-hook-unguarded], [lint-grant-unpaired], [lint-watch-unpaired]
    and [lint-teardown-missing]. *)
