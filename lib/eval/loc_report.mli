(** The Section 6.1 effort claim: deploying new protocols over D-BGP
    takes only a few hundred lines of per-protocol code.

    The paper reports 109 (Wiser basic) + 255 (across-gulf support),
    509 (Pathlet basic) + 293 (gulf), and 769 lines for Beagle itself.
    This module counts the corresponding implementation lines in this
    repository (non-blank, non-comment-only lines of the protocol
    modules) so the claim can be checked against our codebase. *)

type entry = {
  component : string;
  files : string list;   (** repository-relative paths *)
  loc : int;             (** 0 if the sources are not on disk *)
  paper_loc : string;    (** what the paper reported *)
}

val report : ?root:string -> unit -> entry list
(** [root] defaults to the current directory; pass the repository root
    when running from elsewhere. *)

val pp : Format.formatter -> entry list -> unit
