(** Per-AS forwarding state: the data-plane complement of a speaker.

    Holds an IPv4 FIB (longest-prefix match over a
    {!Dbgp_trie.Fib_index}, the index behind the Loc-RIB's FIB too), a
    pathlet forwarding table (FID to port, as installed by Pathlet
    Routing), a border-router port map (for SCION-style path headers),
    and the set of local addresses (which terminate tunnels and deliver
    IPv4 traffic). *)

(** Where a packet goes next. *)
type port =
  | To_as of Dbgp_types.Asn.t  (** hand off to a neighboring AS *)
  | Local                      (** deliver to this AS *)

type t

val create : me:Dbgp_types.Asn.t -> unit -> t
val me : t -> Dbgp_types.Asn.t

val set_ip_route : t -> Dbgp_types.Prefix.t -> port -> unit
(** Replaces any earlier route for the exact prefix. *)

val ip_lookup : t -> Dbgp_types.Ipv4.t -> port option
(** The port of the most-specific route containing the address. *)

val add_local_addr : t -> Dbgp_types.Ipv4.t -> unit
val is_local_addr : t -> Dbgp_types.Ipv4.t -> bool

val set_pathlet_hop : t -> fid:int -> port -> consume:bool -> unit
(** [consume] pops the FID when the pathlet segment completes at this
    hop. *)

val pathlet_lookup : t -> fid:int -> (port * bool) option

val set_router_port : t -> router:string -> port -> unit
(** Which port a SCION path hop naming [router] leads to. *)

val router_lookup : t -> router:string -> port option

val owns_router : t -> router:string -> bool
(** Whether the named border router belongs to this AS. *)

val claim_router : t -> router:string -> unit
