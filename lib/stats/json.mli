(** JSON string escaping shared by every exporter. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (without the quotes):
    quote and backslash are escaped, newline, tab and carriage return
    use the short forms [\n], [\t], [\r], every other byte below 0x20
    becomes [\u00XX], and all other bytes are copied unchanged. *)
