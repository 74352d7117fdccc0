(** Structured event tracing: a bounded ring buffer of typed events.

    Emission is O(1) and never fails; once the buffer is full the oldest
    entries are overwritten (and counted in {!overwritten}), so a trace
    can stay attached to a long simulation without growing.  Events are
    stored in unboxed columns, four words per slot (the count and text
    fields of the rarer kinds sit in a side ring), and are rebuilt as
    {!event} values only by {!entries}.  ASNs are carried as plain ints
    and prefixes as the packed int of [Prefix.t] (network [lsl 6] [lor]
    length, 38 bits) to keep this library free of dependencies on the
    rest of the tree; {!Snapshot.of_trace} renders them as text. *)

type event =
  | Session_state of { asn : int; peer : int; state : string }
      (** A BGP FSM transition landed in [state] ({!Dbgp_bgp.Fsm} names).
          [peer] is 0 until the peer's OPEN has been seen. *)
  | Update_sent of { src : int; dst : int; prefix : int; bytes : int; withdraw : bool }
  | Update_received of { src : int; dst : int; prefix : int; bytes : int; withdraw : bool }
  | Decision_run of { asn : int; prefix : int; changed : bool; best_via : int option }
      (** A decision-process run that changed the best path; [best_via]
          is [None] when the route was withdrawn or locally originated. *)
  | Mrai_flush of { src : int; dst : int; batched : int }
      (** An MRAI batch of [batched] per-prefix messages was delivered. *)
  | Damping_suppress of { asn : int; peer : int; prefix : int; reuse_at : float }
  | Damping_reuse of { asn : int; prefix : int }
  | Restart_phase of { asn : int; peer : int; phase : string; routes : int }
      (** Graceful restart: [phase] is ["stale-marked"] when routes are
          retained, ["flushed"] when the window closes. *)
  | Import_rejected of { asn : int; peer : int; prefix : int }
  | Rx_error of { asn : int; peer : int; cls : string; stage : string; reason : string }
      (** An RFC 7606-style error verdict on a received advertisement:
          [cls] is the error class ([discard_attribute],
          [treat_as_withdraw], [session_reset]), [stage] where decoding
          or validation failed. *)

type entry = { at : float; event : event }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1024.  @raise Invalid_argument if non-positive. *)

val capacity : t -> int
val emit : t -> at:float -> event -> unit

val entries : t -> entry list
(** Retained entries, oldest first (at most [capacity] of them). *)

val emitted : t -> int
(** Total events ever emitted, including overwritten ones. *)

val overwritten : t -> int
val clear : t -> unit

val label : event -> string
(** Stable snake_case tag, e.g. ["update_sent"] — the ["type"] field of
    the JSON rendering. *)
