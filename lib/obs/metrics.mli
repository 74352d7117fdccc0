(** Zero-dependency metrics registry.

    Three instrument kinds, all named by dot-separated strings
    (e.g. ["decision.runs"]):

    - counters: monotonically increasing integers;
    - gauges: last-written floats (e.g. ["decision.last_change_at"]);
    - histograms: fixed log-scale buckets — bucket 0 holds values below 1,
      bucket [i] holds values in [[2^(i-1), 2^i)] — so observation cost is
      O(log value) with no allocation after creation.

    Instruments are created on first use and live for the registry's
    lifetime; looking one up again returns the same instrument.  The
    registry is deliberately dependency-free (stdlib only) so every layer
    of the tree — wire, bgp, core, netsim, eval — can emit into it. *)

type t
type counter
type gauge
type histogram

val create : unit -> t

(** {1 Counters} *)

val counter : t -> string -> counter
(** Get or create the named counter. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter.
    @raise Invalid_argument on a negative increment. *)

val count : counter -> int

(** {1 Gauges} *)

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val value : gauge -> float

(** {1 Histograms}

    Log buckets: bucket 0 holds values below 1 (and NaN), bucket [i]
    the values in [\[2^(i-1), 2^i)], and the last of the fixed buckets
    everything above. *)

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit
val observations : histogram -> int
val hist_sum : histogram -> float
val hist_max : histogram -> float
(** Largest value observed so far; 0 before any observation. *)

val buckets : histogram -> int array
(** A copy of the per-bucket observation counts. *)

val quantile : histogram -> float -> float
(** Upper bound of the bucket containing the [q]-quantile observation
    (conservative: the true value is at most this).  0 for an empty
    histogram.  @raise Invalid_argument unless [0 <= q <= 1]. *)

(** {1 Lifecycle} *)

val reset : t -> unit
(** Zero every instrument in place.  Instrument identity is preserved:
    handles obtained before the reset keep working and read the zeroed
    state.  Test suites sharing a long-lived registry (e.g. the wire
    codec's) call this in their setup so earlier suites' counts cannot
    bleed in. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src] into [into]: counters add,
    gauges keep the maximum, histograms add bucket-wise (sum/max/count
    included).  Merge order therefore never changes the result — the
    property the sharded simulator relies on when folding per-region
    registries into one snapshot. *)

(** {1 Enumeration (snapshots)} *)

val counters : t -> (string * int) list
(** Name-sorted. *)

val gauges : t -> (string * float) list
val histograms : t -> (string * histogram) list
val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option

(** The histogram bucket layout, for the tests that pin it. *)
module For_tests : sig
  val nbuckets : int
  (** Fixed bucket count; the last bucket absorbs everything above
      [2^(nbuckets - 2)]. *)

  val bucket_of : float -> int
  (** The bucket index a value falls into, capped at [nbuckets - 1]. *)

  val bucket_upper : int -> float
  (** Exclusive upper bound of a bucket: 1 for bucket 0, [2^i] for
      bucket [i], [infinity] for the last. *)
end
