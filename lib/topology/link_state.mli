(** An intra-island link-state routing substrate.

    Section 3.1 allows islands to run non-path-vector protocols
    internally — e.g. HLP's hybrid link-state/path-vector design, the
    canonical reason islands list an island ID instead of member ASes in
    the D-BGP path vector (their within-island paths cannot be expressed
    as a path vector).  This module provides the substrate: a link-state
    database with sequence-numbered LSAs (flooding semantics) and
    Dijkstra shortest paths over router identifiers. *)

(** A link-state advertisement: one router's adjacency snapshot. *)
type lsa = {
  router : string;
  links : (string * int) list;  (** neighbor, positive weight *)
  seq : int;                    (** monotone per-router sequence number *)
}

val lsa : router:string -> seq:int -> (string * int) list -> lsa
(** @raise Invalid_argument on non-positive weights or self-links. *)

type t
(** A link-state database. *)

val create : unit -> t

val install : t -> lsa -> [ `Installed | `Stale ]
(** Flooding endpoint: an LSA replaces the router's entry iff its
    sequence number is strictly newer. *)

val routers : t -> string list

val shortest_path : t -> src:string -> dst:string -> (string list * int) option
(** Dijkstra over the two-way-checked topology: the router sequence
    (inclusive) and its total weight.  [None] if unreachable. *)

val distance : t -> src:string -> dst:string -> int option
