(** Empirical validation of the Table 3 overhead model.

    The analytic model estimates IA sizes from parameter ranges; here we
    {e construct} real IAs at a parameter point — the configured number
    of critical fixes per path sharing the configured fraction of their
    control information, plus custom/replacement island descriptors —
    encode them with the actual codec, and compare measured bytes with
    the model's prediction.  Framing (owner lists, field names, varints)
    makes the measured size slightly larger; the point is that the two
    agree to within a small factor and move together across parameter
    points. *)

type comparison = {
  label : string;
  modeled_bytes : int;   (** the model's CF + CR contribution *)
  measured_bytes : int;  (** actual encoded size minus the base IA *)
  ratio : float;         (** measured / modeled *)
}

val run : unit -> comparison list
(** The model's lo and hi corners plus a mid point. *)

val pp : Format.formatter -> comparison -> unit
