open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Codec = Dbgp_core.Codec
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Reader = Dbgp_wire.Reader
module Snapshot = Dbgp_obs.Snapshot

type config = { seed : int; cases : int }

let default = { seed = 42; cases = 10_000 }

type report = {
  config : config;
  accepted : int;
  accepted_with_discards : int;
  filtered : int;
  withdrawn : int;
  session_error : int;
  strict_errors : int;
  escaped : int;
  discarded_descriptors : int;
  roundtrip_failures : int;
  batch_cases : int;
  batch_ok : int;
  batch_treat_withdraw : int;
  batch_session_reset : int;
  elapsed : float;
}

(* ------------------------- IA generation ------------------------- *)

let fuzz_protocols =
  lazy
    (List.init 4 (fun i ->
         Protocol_id.register ~kind:Protocol_id.Critical_fix
           (Printf.sprintf "fuzz-proto-%d" i)))

let rec gen_value rng depth =
  match Prng.int rng (if depth > 0 then 7 else 5) with
  | 0 -> Value.Int (Prng.int rng 1_000_000)
  | 1 -> Value.Str (String.init (Prng.int rng 12) (fun _ -> Char.chr (Prng.int_in rng 32 126)))
  | 2 -> Value.Bytes (String.init (Prng.int rng 24) (fun _ -> Char.chr (Prng.int rng 256)))
  | 3 -> Value.Addr (Ipv4.of_int (Prng.int rng 0x1000000))
  | 4 -> Value.Asn (Asn.of_int (Prng.int_in rng 1 64000))
  | 5 -> Value.List (List.init (Prng.int rng 4) (fun _ -> gen_value rng (depth - 1)))
  | _ -> Value.Pair (gen_value rng (depth - 1), gen_value rng (depth - 1))

let gen_ia rng idx =
  let prefix =
    Prefix.make (Ipv4.of_int ((idx * 2654435761) land 0xFFFFFF lsl 8)) 24
  in
  let origin = Asn.of_int (Prng.int_in rng 1 64000) in
  let ia =
    Ia.originate ~prefix ~origin_asn:origin
      ~next_hop:(Ipv4.of_octets 10 1 (idx lsr 8 land 0xFF) (idx land 0xFF))
      ()
  in
  (* A transit path of distinct ASes, sometimes through an island. *)
  let hops = Prng.int rng 5 in
  let ia =
    List.fold_left
      (fun ia _ -> Ia.prepend_as (Asn.of_int (Prng.int_in rng 1 64000)) ia)
      ia
      (List.init hops Fun.id)
  in
  let ia =
    if Prng.int rng 4 = 0 then
      Ia.prepend_island (Island_id.Named (Printf.sprintf "isl-%d" (Prng.int rng 8))) ia
    else ia
  in
  let protos = Lazy.force fuzz_protocols in
  let pick_proto () = List.nth protos (Prng.int rng (List.length protos)) in
  let ia =
    List.fold_left
      (fun ia i ->
        let owners =
          if Prng.bool rng then [ pick_proto () ]
          else
            List.sort_uniq Protocol_id.compare [ pick_proto (); pick_proto () ]
        in
        Ia.set_path_descriptor ~owners
          ~field:(Printf.sprintf "f%d" i)
          (gen_value rng 2) ia)
      ia
      (List.init (Prng.int rng 4) Fun.id)
  in
  List.fold_left
    (fun ia i ->
      Ia.add_island_descriptor
        ~island:(Island_id.Singleton (Asn.of_int (Prng.int_in rng 1 64000)))
        ~proto:(pick_proto ())
        ~field:(Printf.sprintf "i%d" i)
        (gen_value rng 1) ia)
    ia
    (List.init (Prng.int rng 3) Fun.id)

(* ------------------------- mutations ------------------------- *)

let flip_bit rng b =
  let i = Prng.int rng (Bytes.length b) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)))

(* One structure-aware mutation of an encoded advertisement.  Richer than
   the in-flight damage {!Dbgp_netsim.Fault_model.mutate} models: length
   tampering and varint stretching specifically attack the framing the
   salvaging decoder depends on. *)
let mutate_once rng s =
  let n = String.length s in
  if n = 0 then s
  else
    match Prng.int rng 7 with
    | 0 ->
      let b = Bytes.of_string s in
      flip_bit rng b;
      Bytes.to_string b
    | 1 ->
      let b = Bytes.of_string s in
      for _ = 0 to Prng.int rng 8 do flip_bit rng b done;
      Bytes.to_string b
    | 2 -> String.sub s 0 (Prng.int rng n) (* truncate *)
    | 3 ->
      (* Extend with junk: trailing bytes must be caught, not ignored. *)
      s ^ String.init (1 + Prng.int rng 8) (fun _ -> Char.chr (Prng.int rng 256))
    | 4 ->
      (* Length-field tampering: slam a byte to an extreme value.  Length
         octets are everywhere in the encoding, so a random position hits
         one often. *)
      let b = Bytes.of_string s in
      Bytes.set b (Prng.int rng n)
        (Char.chr (match Prng.int rng 3 with 0 -> 0x00 | 1 -> 0x7F | _ -> 0xFF));
      Bytes.to_string b
    | 5 ->
      (* Varint stretching: splice in continuation bytes so a varint
         keeps going — non-canonical or overflowing encodings. *)
      let i = Prng.int rng n in
      String.sub s 0 i
      ^ String.init (1 + Prng.int rng 9) (fun _ -> Char.chr 0x80)
      ^ String.sub s i (n - i)
    | _ ->
      (* Splice: copy one range over another, desynchronizing nested
         frames without touching lengths. *)
      let b = Bytes.of_string s in
      let len = 1 + Prng.int rng (min 8 n) in
      let src = Prng.int rng (n - len + 1) in
      let dst = Prng.int rng (n - len + 1) in
      Bytes.blit_string s src b dst len;
      Bytes.to_string b

let mutate rng s =
  let s = mutate_once rng s in
  if Prng.int rng 3 = 0 then mutate_once rng s else s

(* Batch-frame-aware mutations, aimed at the structure the batched
   decoder depends on: the leading NLRI count, the per-entry frames in
   the first half, and the trailing attribute block. *)
let mutate_batch rng s =
  let n = String.length s in
  if n < 2 then s
  else
    match Prng.int rng 4 with
    | 0 ->
      (* NLRI count tampering: the count varint leads the frame. *)
      let b = Bytes.of_string s in
      Bytes.set b 0
        (Char.chr (match Prng.int rng 3 with 0 -> 0x00 | 1 -> 0x7F | _ -> 0xFF));
      Bytes.to_string b
    | 1 ->
      (* Attribute-block truncation: the block is length-framed at the
         tail, so chopping bytes starves its delimited read. *)
      String.sub s 0 (n - 1 - Prng.int rng (min 16 (n - 1)))
    | 2 ->
      (* Split-point corruption: slam an NLRI-region byte (entry length
         octets live in the first half) to desynchronize the walk from
         the entries to the attribute block. *)
      let b = Bytes.of_string s in
      Bytes.set b
        (Prng.int rng (max 1 (n / 2)))
        (Char.chr (if Prng.bool rng then 0x7F else 0xFF));
      Bytes.to_string b
    | _ -> mutate rng s

(* ------------------------- the pipeline ------------------------- *)

let make_speaker () =
  let asn = Asn.of_int 65100 in
  let s =
    Speaker.create
      (Speaker.config ~asn ~addr:(Ipv4.of_octets 10 99 0 1) ())
  in
  let peer = Peer.make ~asn:(Asn.of_int 65101) ~addr:(Ipv4.of_octets 10 99 0 2) in
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer peer);
  (s, peer)

let run cfg =
  if cfg.cases < 0 then invalid_arg "Fuzz.run: negative case count";
  let rng = Prng.create cfg.seed in
  (* The speaker is the only route holder, so the attribute table's
     refcounts can be audited against it. *)
  Dbgp_core.Attr_table.reset ();
  let speaker, peer = make_speaker () in
  (* Refcount drift is a speaker bug, not an input verdict: fail the run
     at the first audit that finds one. *)
  let audit idx =
    match Invariants.refcounts [ speaker ] with
    | [] -> ()
    | v :: _ ->
      failwith
        (Format.asprintf "Fuzz.run: after case %d: %a" idx
           Invariants.pp_violation v)
  in
  let accepted = ref 0
  and accepted_with_discards = ref 0
  and filtered = ref 0
  and withdrawn = ref 0
  and session_error = ref 0
  and strict_errors = ref 0
  and escaped = ref 0
  and discarded = ref 0
  and roundtrip_failures = ref 0
  and batch_cases = ref 0
  and batch_ok = ref 0
  and batch_treat_withdraw = ref 0
  and batch_session_reset = ref 0 in
  let started = Unix.gettimeofday () in
  (* One mutated batched frame (announce or withdraw) through decoder and
     speaker; the decoders must verdict, the speaker must absorb. *)
  let batch_leg rng idx head =
    incr batch_cases;
    let width = 2 + Prng.int rng 6 in
    let ias =
      List.init width (fun j ->
          Ia.with_prefix
            (Prefix.make
               (Ipv4.of_int (((idx * 8 + j) * 2654435761) land 0xFFFFFF lsl 8))
               24)
            head)
    in
    let announce = Prng.bool rng in
    let pristine =
      if announce then Codec.encode_batch ias
      else Codec.encode_withdraw_batch (List.map (fun (ia : Ia.t) -> ia.Ia.prefix) ias)
    in
    (* Pristine sanity leg: a clean batch must decode back whole. *)
    ( if announce then
        match Codec.decode_batch_robust pristine with
        | Ok (Codec.Batch_routes (ias', [])) when List.for_all2 Ia.equal ias ias' -> ()
        | _ | (exception _) -> incr roundtrip_failures
      else
        match Codec.decode_withdraw_batch_robust pristine with
        | Ok (ps, []) when List.for_all2
            (fun (ia : Ia.t) p -> Prefix.equal ia.Ia.prefix p) ias ps -> ()
        | _ | (exception _) -> incr roundtrip_failures );
    let wire = if Prng.int rng 4 = 0 then pristine else mutate_batch rng pristine in
    ( if announce then
        match Codec.decode_batch_robust wire with
        | Ok (Codec.Batch_routes _) -> incr batch_ok
        | Ok (Codec.Batch_withdraw _) -> incr batch_treat_withdraw
        | Error _ -> incr batch_session_reset
        | exception _ -> incr escaped
      else
        match Codec.decode_withdraw_batch_robust wire with
        | Ok _ -> incr batch_ok
        | Error _ -> incr batch_session_reset
        | exception _ -> incr escaped );
    match
      Speaker.receive_wire ~now:(float_of_int idx) speaker ~from:peer
        (if announce then Codec.Announce_batch else Codec.Withdraw_batch)
        wire
    with
    | (_ : Speaker.rx_outcome), (_ : (Peer.t * Speaker.msg) list) -> ()
    | exception _ -> incr escaped
  in
  for idx = 0 to cfg.cases - 1 do
    let ia = gen_ia rng idx in
    let pristine = Codec.encode ia in
    (* Sanity leg: the untouched encoding must decode back equal. *)
    ( match Codec.decode pristine with
      | decoded -> if not (Ia.equal decoded ia) then incr roundtrip_failures
      | exception _ -> incr roundtrip_failures );
    let wire = mutate rng pristine in
    (* Strict decode: success or Reader.Error, nothing else. *)
    ( match Codec.decode wire with
      | _ -> ()
      | exception Reader.Error _ -> incr strict_errors
      | exception _ -> incr escaped );
    (* Robust decode must never raise; its verdict is checked against the
       speaker outcome implicitly (receive_wire uses it). *)
    ( match Codec.decode_robust wire with
      | Ok _ | Error _ -> ()
      | exception _ -> incr escaped );
    (* Full pipeline. *)
    ( match
        Speaker.receive_wire ~now:(float_of_int idx) speaker ~from:peer
          Codec.Announce wire
      with
      | Speaker.Rx_accepted 0, _ -> incr accepted
      | Speaker.Rx_accepted n, _ ->
        incr accepted_with_discards;
        discarded := !discarded + n
      | Speaker.Rx_filtered, _ -> incr filtered
      | Speaker.Rx_withdrawn, _ -> incr withdrawn
      | Speaker.Rx_session_error, _ -> incr session_error
      | exception _ -> incr escaped );
    if idx land 3 = 0 then batch_leg rng idx ia;
    if idx land 1023 = 1023 then audit idx
  done;
  audit cfg.cases;
  { config = cfg;
    accepted = !accepted;
    accepted_with_discards = !accepted_with_discards;
    filtered = !filtered;
    withdrawn = !withdrawn;
    session_error = !session_error;
    strict_errors = !strict_errors;
    escaped = !escaped;
    discarded_descriptors = !discarded;
    roundtrip_failures = !roundtrip_failures;
    batch_cases = !batch_cases;
    batch_ok = !batch_ok;
    batch_treat_withdraw = !batch_treat_withdraw;
    batch_session_reset = !batch_session_reset;
    elapsed = Unix.gettimeofday () -. started }

let cases_per_sec r =
  if r.elapsed <= 0. then 0. else float_of_int r.config.cases /. r.elapsed

let deterministic_fields r =
  [ ("seed", r.config.seed);
    ("cases", r.config.cases);
    ("accepted", r.accepted);
    ("accepted_with_discards", r.accepted_with_discards);
    ("filtered", r.filtered);
    ("withdrawn", r.withdrawn);
    ("session_error", r.session_error);
    ("strict_errors", r.strict_errors);
    ("escaped", r.escaped);
    ("discarded_descriptors", r.discarded_descriptors);
    ("roundtrip_failures", r.roundtrip_failures);
    ("batch_cases", r.batch_cases);
    ("batch_ok", r.batch_ok);
    ("batch_treat_withdraw", r.batch_treat_withdraw);
    ("batch_session_reset", r.batch_session_reset) ]

let to_snapshot r =
  Snapshot.Obj
    (List.map (fun (k, v) -> (k, Snapshot.Int v)) (deterministic_fields r)
     @ [ ("cases_per_sec", Snapshot.Float (cases_per_sec r)) ])

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fuzz seed=%d cases=%d (%.0f cases/s):@,\
     accepted=%d (+%d with discards, %d descriptors dropped)@,\
     filtered=%d withdrawn=%d session_error=%d@,\
     strict_errors=%d escaped=%d roundtrip_failures=%d@,\
     batch: cases=%d ok=%d treat_withdraw=%d session_reset=%d@]"
    r.config.seed r.config.cases (cases_per_sec r) r.accepted
    r.accepted_with_discards r.discarded_descriptors r.filtered r.withdrawn
    r.session_error r.strict_errors r.escaped r.roundtrip_failures
    r.batch_cases r.batch_ok r.batch_treat_withdraw r.batch_session_reset
