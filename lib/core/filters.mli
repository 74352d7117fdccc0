(** Global import/export filters (Figure 5, stages 1 and 7).

    A filter transforms an IA or drops it.  Global filters apply to all
    protocols in an IA — they are how gulf operators assert control
    (e.g. removing a problematic protocol knowing only its ID) and how
    islands state membership or abstract away their interior at their
    egresses. *)

type t = Ia.t -> Ia.t option

val accept : t
val reject : t

val compose : t -> t -> t
(** [compose f g] applies [f] then [g]; a drop short-circuits. *)

val chain : t list -> t

val reject_loops : t
(** The loop-detection stage: drops any IA whose path vector repeats an
    AS or island (G-R5).  Installed at ingress by every speaker. *)

val keep_only : Dbgp_types.Protocol_id.Set.t -> t
(** Remove every protocol not in the set.  [keep_only {bgp}] is the
    legacy-BGP downgrade applied when speaking to a peer that did not
    advertise the D-BGP capability (Section 3.5). *)

val prepend_as : Dbgp_types.Asn.t -> t
(** Egress: prepend my AS number to the path vector. *)

val abstract_island :
  island:Dbgp_types.Island_id.t -> members:Dbgp_types.Asn.t list -> t
(** Egress for islands hiding their interior. *)

val declare_membership :
  island:Dbgp_types.Island_id.t -> members:Dbgp_types.Asn.t list -> t
(** Egress for islands exposing member ASes. *)

val max_size : int -> t
(** Drop IAs whose encoding exceeds a byte budget (operator safety
    valve against descriptor bloat). *)

val when_ : (Ia.t -> bool) -> t -> t
(** Apply the filter only when the predicate holds. *)
