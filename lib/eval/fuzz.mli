(** Seeded deterministic fuzzer for the IA codec and speaker pipeline.

    Generates valid integrated advertisements, encodes them, damages the
    bytes with structure-aware mutations (bit flips, truncation, length
    tampering, varint stretching, splices), and feeds the result through

    + {!Dbgp_core.Codec.decode} (strict: must succeed or raise exactly
      [Dbgp_wire.Reader.Error]),
    + {!Dbgp_core.Codec.decode_robust} (must never raise), and
    + {!Dbgp_core.Speaker.receive_wire} on a live speaker (must never
      raise, and must map every input onto the RFC 7606 ladder).

    Every fourth case additionally builds a multi-prefix batched frame
    (see {!Dbgp_core.Codec.encode_batch}) and attacks its specific
    structure — NLRI count tampering, attribute-block truncation,
    NLRI/attr split-point corruption — through
    {!Dbgp_core.Codec.decode_batch_robust},
    {!Dbgp_core.Codec.decode_withdraw_batch_robust} and
    {!Dbgp_core.Speaker.receive_wire} with the batch layouts (none may
    raise).

    Everything is driven by one seed: the same [config] reproduces the
    same cases and the same outcome histogram, so the histogram can be
    pinned in tests while throughput ([cases_per_sec]) floats. *)

type config = { seed : int; cases : int }

val default : config
(** seed 42, 10_000 cases. *)

type report = {
  config : config;
  accepted : int;             (** survived mutation; route installed clean *)
  accepted_with_discards : int;
      (** route installed, one or more malformed descriptors dropped *)
  filtered : int;             (** decoded but rejected by import policy *)
  withdrawn : int;            (** treat-as-withdraw verdicts *)
  session_error : int;        (** framing damage before the prefix *)
  strict_errors : int;        (** strict decodes that raised [Reader.Error] *)
  escaped : int;              (** exceptions escaping any stage — must be 0 *)
  discarded_descriptors : int;  (** total descriptors salvaged around *)
  roundtrip_failures : int;
      (** pristine (unmutated) encodings that did not decode back equal —
          codec bugs, must be 0 *)
  batch_cases : int;          (** batched frames fed (announce + withdraw) *)
  batch_ok : int;             (** batched decodes that salvaged routes *)
  batch_treat_withdraw : int; (** whole-batch treat-as-withdraw verdicts *)
  batch_session_reset : int;  (** batched frames with framing lost *)
  elapsed : float;            (** wall-clock seconds (not deterministic) *)
}

val run : config -> report

val to_snapshot : report -> Dbgp_obs.Snapshot.t
(** JSON-ready report including [cases_per_sec]; everything except
    [elapsed]/[cases_per_sec] is reproducible from the seed. *)

val pp_report : Format.formatter -> report -> unit
