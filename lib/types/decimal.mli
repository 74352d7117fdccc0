(** Strict decimal fields for the textual forms of addresses, prefixes
    and ASNs. *)

val of_string_opt : max_digits:int -> string -> int option
(** [of_string_opt ~max_digits s] is the value of [s] when [s] is one to
    [max_digits] ASCII digits, leading zeros included; [None] otherwise.
    Unlike [int_of_string_opt] it rejects signs, underscores and the
    [0x]/[0o]/[0b] radix prefixes. *)
