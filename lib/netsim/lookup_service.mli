(** The out-of-band lookup service.

    Beagle "disseminates IAs out-of-band by storing them in a lookup
    service" and uses the same service as the cost-exchange portal for
    Wiser and the service portal for MIRO (Section 5, Figure 8).  We
    model it as an addressable key-value store plus registered RPC
    handlers: a portal is an (address, service-name) pair; islands post
    and fetch typed values, and custom protocols register negotiation
    endpoints. *)

type t

val create : unit -> t

(** {1 Key-value portal} *)

val post :
  t -> portal:Dbgp_types.Ipv4.t -> service:string -> key:string ->
  Dbgp_core.Value.t -> unit

val fetch :
  t -> portal:Dbgp_types.Ipv4.t -> service:string -> key:string ->
  Dbgp_core.Value.t option

val keys : t -> portal:Dbgp_types.Ipv4.t -> service:string -> string list

(** {1 RPC endpoints} *)

val register_handler :
  t -> portal:Dbgp_types.Ipv4.t -> service:string ->
  (Dbgp_core.Value.t -> Dbgp_core.Value.t option) -> unit
(** Replaces any existing handler at that endpoint. *)

val rpc :
  t -> portal:Dbgp_types.Ipv4.t -> service:string ->
  Dbgp_core.Value.t -> Dbgp_core.Value.t option
(** [None] if no handler is registered or the handler declines. *)
