(** The BGP peering session finite-state machine (RFC 4271 section 8,
    simplified to the transitions exercised by a software router over a
    reliable transport).

    The FSM is pure: {!handle} maps a state and an event to a new state
    plus a list of actions for the runtime (netsim's session layer) to
    perform.  Keeping it pure lets the test suite drive every transition
    directly. *)

type state =
  | Idle
  | Connect
  | Open_sent
  | Open_confirm
  | Established

type config = {
  my_asn : Dbgp_types.Asn.t;
  my_id : Dbgp_types.Ipv4.t;
  hold_time : int;            (** proposed hold time, seconds *)
  capabilities : int list;
}

type retry = {
  base : float;        (** first retry delay, seconds *)
  multiplier : float;  (** delay growth factor per attempt *)
  max_delay : float;   (** backoff ceiling *)
  max_retries : int;   (** park in Idle after this many failed attempts *)
  jitter : float;      (** each delay is scaled by 1 + U[0, jitter] *)
  seed : int;          (** PRNG seed for deterministic jitter *)
}
(** Automatic re-establishment policy after transport failure: exponential
    backoff with seeded jitter and a max-retry cap. *)

val default_retry : retry

type t

type event =
  | Manual_start
  | Manual_stop
  | Tcp_established
  | Tcp_failed
  | Recv of Message.t
  | Hold_timer_expired
  | Keepalive_timer_expired
  | Connect_retry_expired  (** the backoff timer fired; try to reconnect *)

type action =
  | Send of Message.t
  | Connect_tcp
  | Close_tcp
  | Session_up of Message.open_msg   (** the peer's OPEN, for capability checks *)
  | Session_down
  | Deliver_update of Message.update (** forward to the RIB layer *)
  | Start_hold_timer of int
  | Start_keepalive_timer of int
  | Start_connect_retry_timer of float
      (** arm the backoff timer; deliver [Connect_retry_expired] after the
          given delay unless stopped *)
  | Stop_connect_retry_timer

val create : ?retry:retry -> config -> t

(** Consecutive failed connection attempts since the session was last
    Established (0 when no retry is in progress). *)
val attempts : t -> int
val state : t -> state
val config : t -> config

val peer_open : t -> Message.open_msg option
(** The peer's OPEN once received (in Open_confirm / Established). *)

val handle : t -> event -> t * action list

val state_name : state -> string
(** Stable name for tracing and display ("Idle", "OpenSent", ...). *)

val pp_state : Format.formatter -> state -> unit
