(** Synthetic advertisement workloads.

    The paper's Section 5 stress test replays 150,000 advertisements per
    peer collected from RIPE RIS.  RIPE data is unavailable offline, so
    this generator synthesizes traces with the relevant distributional
    properties: distinct prefixes drawn across the address space,
    AS-path lengths in the 3-5 range typical of tier-1 tables, and an
    optional payload of extra per-protocol control information to sweep
    IA sizes (the 32 KB / 256 KB points of the paper's experiment). *)

type spec

val spec : ?payload_bytes:int -> ?seed:int -> advertisements:int -> unit -> spec
(** [advertisements] IAs with AS paths of 3 to 5 hops.  [payload_bytes]
    (default 0 = BGP-only advertisements) is extra critical-fix control
    information attached to each IA, shared by three critical fixes.
    @raise Invalid_argument on a negative count. *)

val generate : spec -> Dbgp_core.Ia.t list
(** Deterministic in [seed].  Every IA has a distinct prefix, a
    loop-free path vector, BGP origin/next-hop descriptors and — when
    [payload_bytes > 0] — a shared-ownership descriptor of that size. *)

val generate_updates : spec -> Dbgp_bgp.Message.update list
(** The same workload as plain BGP UPDATE messages, for the
    Quagga-equivalent (BGP-only) arm of the stress test. *)
