(** The control-plane overhead model of Section 6.2 (Tables 2 and 3).

    Estimates the size and number of IAs received at a tier-1 AS in an
    Internet running multiple inter-domain routing protocols over D-BGP,
    refined in three steps: {e Basic} (every IA carries every protocol),
    {e + Avg path lengths} (an IA only carries the protocols on its
    path), and {e + Sharing} (critical fixes share most control
    information with BGP).  The {e Single protocol} row is today's
    BGP-like baseline for comparison. *)

(** Table 2: parameters and the ranges considered. *)
type params = {
  prefixes : int;            (** P: prefixes in today's Internet *)
  prefixes_dbgp : int;       (** Pd: prefixes in D-BGP's Internet *)
  avg_path_len : int;        (** PL *)
  critical_fixes : int;      (** CFs *)
  cf_per_path : int;         (** CFs/path *)
  ci_per_cf : int;           (** CI/CF, bytes *)
  cf_unique_frac : float;    (** CFu: fraction of a fix's info that is unique *)
  custom_replacements : int; (** CRs *)
  cr_per_path : int;         (** CRs/path *)
  ci_per_cr : int;           (** CI/CR, bytes *)
}

val lo : params
(** The minimum of every Table 2 range. *)

val hi : params
(** The maximum of every Table 2 range. *)

val table2 : (string * string * string * string) list
(** Rows (parameter, variable, range, rationale) exactly as in Table 2. *)

(** One row of Table 3 evaluated at a parameter point. *)
type row = {
  name : string;
  ia_cf_bytes : int;      (** contribution to IA size by critical fixes *)
  ia_cr_bytes : int;      (** contribution by custom/replacement protocols *)
  advertisements : int;   (** number of IAs received *)
  total_bytes : float;    (** aggregate overhead *)
}

val basic : params -> row
val plus_sharing : params -> row

val table3 : params -> row list
(** The four rows in Table 3 order. *)

val overhead_ratio : params -> float
(** (+ Sharing total) / (Single protocol total) — the paper's headline
    1.3x (min) to 2.5x (max). *)

val pp_bytes : Format.formatter -> float -> unit
(** Humanized (KB / MB / GB, binary units as the paper uses). *)
