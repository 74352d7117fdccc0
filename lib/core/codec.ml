open Dbgp_types
module W = Dbgp_wire.Writer
module R = Dbgp_wire.Reader

(* Encoding is size-then-write: every encoder below has a size function
   that computes, from lengths alone, exactly how many bytes it appends.
   A frame writes its body's size and then the body itself, straight
   into the parent buffer, and a whole advertisement is written into a
   buffer allocated at its exact size — so a descriptor payload is copied
   once on its way to the wire, however deeply it is framed. *)

let asn_size = 4

let island_size = function
  | Island_id.Singleton _ -> 1 + asn_size
  | Island_id.Named s -> 1 + W.delimited_size s
  | Island_id.Hashed h -> 1 + W.varint_size (h land max_int)

let encode_island w = function
  | Island_id.Singleton a ->
    W.u8 w 0;
    W.asn w a
  | Island_id.Named s ->
    W.u8 w 1;
    W.delimited w s
  | Island_id.Hashed h ->
    W.u8 w 2;
    W.varint w (h land max_int)

let decode_island r =
  match R.u8 r with
  | 0 -> Island_id.Singleton (R.asn r)
  | 1 -> Island_id.Named (R.delimited r)
  | 2 -> Island_id.Hashed (R.varint r)
  | n -> raise (R.Error (Printf.sprintf "bad island-id tag %d" n))

let asn_list_size s = W.list_size (fun _ -> asn_size) s

let elem_size = function
  | Path_elem.As _ -> 1 + asn_size
  | Path_elem.Island i -> 1 + island_size i
  | Path_elem.As_set s -> 1 + asn_list_size s

let encode_elem w = function
  | Path_elem.As a ->
    W.u8 w 0;
    W.asn w a
  | Path_elem.Island i ->
    W.u8 w 1;
    encode_island w i
  | Path_elem.As_set s ->
    W.u8 w 2;
    W.list w W.asn s

let decode_elem r =
  match R.u8 r with
  | 0 -> Path_elem.As (R.asn r)
  | 1 -> Path_elem.Island (decode_island r)
  | 2 -> Path_elem.As_set (R.list ~min_width:4 r R.asn)
  | n -> raise (R.Error (Printf.sprintf "bad path-elem tag %d" n))

let proto_size p = W.delimited_size (Protocol_id.name p)
let encode_proto w p = W.delimited w (Protocol_id.name p)

let decode_proto r =
  let name = R.delimited r in
  (* Decoding re-registers: a speaker can carry (pass through) protocols
     it has never seen before; the registry grows as needed with the
     default Custom kind. *)
  match Protocol_id.find name with
  | Some p -> p
  | None -> Protocol_id.register name

(* Descriptors are individually length-framed (RFC 7606 style): a
   malformed body can be skipped without losing sync with the rest of
   the advertisement, which is what makes the Discard_attribute error
   class expressible at all.  [framed]/[unframed] add and strip that
   frame; a frame whose body does not consume it exactly is itself
   malformed.  [unframed] reads the body through a bounded sub-reader
   over the frame, without copying it. *)
let framed_size body_size x =
  let n = body_size x in
  W.varint_size n + n

let framed body_size enc w x =
  let n = body_size x in
  W.varint w n;
  let start = W.length w in
  enc w x;
  (* A size function that disagrees with its encoder would corrupt the
     frame silently; fail loudly instead. *)
  assert (W.length w - start = n)

let unframed name dec r =
  let sub = R.frame r in
  let v = dec sub in
  if not (R.at_end sub) then
    raise
      (R.Error
         (Printf.sprintf "%s: %d stray bytes inside frame" name
            (R.remaining sub)));
  v

let pd_body_size (d : Ia.path_descriptor) =
  W.list_size proto_size d.owners
  + W.delimited_size d.field
  + Value.wire_size d.value

let encode_pd_body w (d : Ia.path_descriptor) =
  W.list w encode_proto d.owners;
  W.delimited w d.field;
  Value.encode w d.value

(* Descriptor values repeat across advertisements (the same next-hop,
   cost, or island metadata fans out everywhere); interning them makes
   later structural comparisons pointer comparisons.  A long value is
   decoded against the table: compared in place against the wire and
   copied out only when the table does not hold it. *)
module Value_tbl = Intern.Make (struct
  type t = Value.t

  let equal a b = a == b || Value.equal a b
  let hash = Value.hash
end)

(* Domain-local: interning is a cache, not a source of truth — two
   domains interning the same value independently still produce
   structurally equal descriptors, so per-domain tables cost only hit
   rate, never correctness. *)
let values_key = Domain.DLS.new_key (fun () -> Value_tbl.create 256)
let value_intern_stats () = Value_tbl.stats (Domain.DLS.get values_key)

module Value_decode = Value.Decode_into (Value_tbl)

let decode_value r = Value_decode.decode (Domain.DLS.get values_key) r

let decode_pd_body r : Ia.path_descriptor =
  let owners = R.list r decode_proto in
  if owners = [] then raise (R.Error "path descriptor: empty owner set");
  let field = Intern.string (R.delimited r) in
  let value = decode_value r in
  { owners; field; value }

let pd_size d = framed_size pd_body_size d
let encode_pd w d = framed pd_body_size encode_pd_body w d
let decode_pd r = unframed "path descriptor" decode_pd_body r

let id_body_size (d : Ia.island_descriptor) =
  island_size d.island + proto_size d.proto
  + W.delimited_size d.ifield
  + Value.wire_size d.ivalue

let encode_id_body w (d : Ia.island_descriptor) =
  encode_island w d.island;
  encode_proto w d.proto;
  W.delimited w d.ifield;
  Value.encode w d.ivalue

let decode_id_body r : Ia.island_descriptor =
  let island = decode_island r in
  let proto = decode_proto r in
  let ifield = Intern.string (R.delimited r) in
  let ivalue = decode_value r in
  { island; proto; ifield; ivalue }

let id_size d = framed_size id_body_size d
let encode_id w d = framed id_body_size encode_id_body w d
let decode_id r = unframed "island descriptor" decode_id_body r

let membership_size (i, members) = island_size i + asn_list_size members

let encode_membership w (i, members) =
  encode_island w i;
  W.list w W.asn members

let decode_membership r =
  let i = decode_island r in
  let members = R.list ~min_width:4 r R.asn in
  (i, members)

(* The attribute block: everything after the prefix, shared by the
   single-prefix frame and the batch frame. *)
let attrs_size (ia : Ia.t) =
  W.list_size elem_size ia.path_vector
  + W.list_size membership_size ia.membership
  + W.list_size pd_size ia.path_descriptors
  + W.list_size id_size ia.island_descriptors

let encode_attrs w (ia : Ia.t) =
  W.list w encode_elem ia.path_vector;
  W.list w encode_membership ia.membership;
  W.list w encode_pd ia.path_descriptors;
  W.list w encode_id ia.island_descriptors

let size (ia : Ia.t) = W.prefix_size ia.prefix + attrs_size ia

let encode (ia : Ia.t) =
  let w = W.create ~capacity:(size ia) () in
  W.prefix w ia.prefix;
  encode_attrs w ia;
  W.contents w

(* Withdraw wire format: just the withdrawn prefix — a withdraw carries
   no attributes. *)
let withdraw_size prefix = W.prefix_size prefix

let encode_withdraw prefix =
  let w = W.create ~capacity:(withdraw_size prefix) () in
  W.prefix w prefix;
  W.contents w

(* The RFC 7606 ladder for withdraws is short: if the prefix decodes the
   message is usable (trailing garbage is discarded and accounted), and
   an unreadable prefix is a framing failure of the whole message —
   Session_reset, like an unreadable announce prefix. *)
let decode_withdraw_robust s : (Prefix.t * Errors.t list, Errors.t) result =
  let r = R.of_string s in
  match R.prefix r with
  | prefix ->
    if R.at_end r then Ok (prefix, [])
    else
      Ok
        ( prefix,
          [ Errors.make Errors.Discard_attribute Errors.Framing
              "trailing bytes after withdrawn prefix" ] )
  | exception R.Error m ->
    Error
      (Errors.make Errors.Session_reset Errors.Framing
         ("unreadable withdrawn prefix: " ^ m))
  | exception _ ->
    Error
      (Errors.make Errors.Session_reset Errors.Framing
         "unreadable withdrawn prefix")

(* ------------------------------------------------------------------ *)
(* Encode-once wire sharing.

   The export cache (Adj_rib_out) already fans one physically-shared
   outgoing IA to every member of a peer group, and the network layer
   sizes (= encodes) each Announce at least twice per delivery.  A
   direct-mapped identity cache therefore turns "encode per delivery"
   into "encode once per distinct outgoing IA": same physical IA, same
   immutable wire string.  Direct-mapped means bounded by construction
   — a slot collision just overwrites, costing one re-encode later,
   never correctness (the IA is immutable, the slot key is compared by
   pointer). *)

let enc_slots = 16384
let dec_slots = 1024

(* All mutable wire-layer state — the metrics registry, its four cached
   counters, the encode cache and the decode memo — lives in one
   domain-local record.  Caches are semantically transparent (a miss
   just re-encodes/re-decodes), so per-domain instances change hit
   rates, never results; per-domain registries are merged explicitly
   by the sharded runner via [Metrics.merge_into]. *)
type wire_state = {
  obs : Dbgp_obs.Metrics.t;
  c_enc_hits : Dbgp_obs.Metrics.counter;
  c_enc_misses : Dbgp_obs.Metrics.counter;
  c_dec_hits : Dbgp_obs.Metrics.counter;
  c_dec_misses : Dbgp_obs.Metrics.counter;
  enc_cache : (Ia.t * string) option array;
  dec_memo : (string * Ia.t) option array;
}

let wire_key =
  Domain.DLS.new_key (fun () ->
      let obs = Dbgp_obs.Metrics.create () in
      {
        obs;
        c_enc_hits = Dbgp_obs.Metrics.counter obs "wire.encode_cache.hits";
        c_enc_misses = Dbgp_obs.Metrics.counter obs "wire.encode_cache.misses";
        c_dec_hits = Dbgp_obs.Metrics.counter obs "wire.decode_memo.hits";
        c_dec_misses = Dbgp_obs.Metrics.counter obs "wire.decode_memo.misses";
        enc_cache = Array.make enc_slots None;
        dec_memo = Array.make dec_slots None;
      })

let wire_state () = Domain.DLS.get wire_key
let wire_metrics () = (wire_state ()).obs

let wire_metrics_reset () =
  let ws = wire_state () in
  Dbgp_obs.Metrics.reset ws.obs;
  Array.fill ws.enc_cache 0 enc_slots None;
  Array.fill ws.dec_memo 0 dec_slots None

(* The cache is keyed by identity, so its slot needs spread, not
   agreement with equality: the prefix and the advertiser (the first path
   element) tell apart the IAs one round of deliveries encodes, and
   reading them costs two loads — hashing the attribute set would walk
   cold path and descriptor cells on every delivery, hits included. *)
let enc_slot (ia : Ia.t) =
  let first =
    match ia.path_vector with
    | Path_elem.As a :: _ -> Asn.to_int a
    | _ -> 0
  in
  ((Prefix.to_int ia.prefix + (first * 0x9E3779B9)) * 0x2545F4914F6CDD1D)
  lsr 40
  land (enc_slots - 1)

let encode_cached ia =
  let ws = wire_state () in
  let slot = enc_slot ia in
  match Array.unsafe_get ws.enc_cache slot with
  | Some (ia', wire) when ia' == ia ->
    Dbgp_obs.Metrics.incr ws.c_enc_hits;
    wire
  | _ ->
    Dbgp_obs.Metrics.incr ws.c_enc_misses;
    let wire = encode ia in
    Array.unsafe_set ws.enc_cache slot (Some (ia, wire));
    wire

(* Minimum encoded sizes, used to bound hostile list counts before
   allocation: an element tag plus its smallest body (path elem: tag +
   island tag + empty name; membership: island + empty member list;
   framed descriptors: length byte + the smallest well-formed body). *)
let pd_min_width = 5
let id_min_width = 6

exception Fatal of Errors.t

(* Salvaging decode of the attribute body (everything after the prefix:
   path vector, membership, framed descriptors).  Shared between the
   single-prefix frame and the batched frame's attribute block.  The
   count and every descriptor frame must parse (losing them loses sync
   with the rest of the message, [Fatal Treat_as_withdraw]), but a
   malformed body inside an intact frame is discarded alone — pushed
   onto [discards] — and decoding continues. *)
let decode_attrs_salvage r discards =
  let guard stage f =
    try f ()
    with R.Error m ->
      raise (Fatal (Errors.make Errors.Treat_as_withdraw stage m))
  in
  let salvage stage ~min_width body =
    guard stage (fun () ->
        let n = R.varint r in
        if n > R.remaining r / min_width then
          raise
            (R.Error
               (Printf.sprintf "list: count %d exceeds buffer (%d bytes)" n
                  (R.remaining r)));
        List.filter_map Fun.id
          (List.init n (fun _ ->
               let sub = R.frame r in
               match
                 let v = body sub in
                 if R.at_end sub then v
                 else raise (R.Error "stray bytes inside frame")
               with
               | v -> Some v
               | exception R.Error m ->
                 discards :=
                   Errors.make Errors.Discard_attribute stage m :: !discards;
                 None)))
  in
  let path_vector =
    guard Errors.Path_vector (fun () ->
        R.list ~min_width:2 r decode_elem)
  in
  let membership =
    guard Errors.Membership (fun () -> R.list ~min_width:3 r decode_membership)
  in
  let path_descriptors =
    salvage Errors.Path_descriptor ~min_width:pd_min_width decode_pd_body
  in
  let island_descriptors =
    salvage Errors.Island_descriptor ~min_width:id_min_width decode_id_body
  in
  (path_vector, membership, path_descriptors, island_descriptors)

let decode_robust_uncached s : (Ia.t * Errors.t list, Errors.t) result =
  let discards = ref [] in
  let r = R.of_string s in
  try
    let prefix =
      try R.prefix r
      with R.Error m ->
        raise (Fatal (Errors.make Errors.Session_reset Errors.Framing m))
    in
    let path_vector, membership, path_descriptors, island_descriptors =
      decode_attrs_salvage r discards
    in
    if not (R.at_end r) then
      raise
        (Fatal
           (Errors.make Errors.Treat_as_withdraw Errors.Framing
              (Printf.sprintf "%d trailing bytes after advertisement"
                 (R.remaining r))));
    Ok
      ( { Ia.prefix; path_vector; membership; path_descriptors;
          island_descriptors },
        List.rev !discards )
  with Fatal e -> Error e

(* Bounded decode memo: byte-identical deliveries (MRAI
   re-advertisements, refresh waves, fault-model duplicates, peer-group
   fan-out over a wire transport) decode once.  Direct-mapped on the
   wire string's hash, so growth is bounded by construction — hostile
   or fuzzed input can only churn slots, never expand the table — and
   an overwrite ("eviction") costs one re-decode.  Only clean decodes
   (no discarded descriptors) are memoized so the error counters and
   rx traces replay identically on every malformed delivery. *)

let dec_memo_max_wire = 4096

let decode_robust s : (Ia.t * Errors.t list, Errors.t) result =
  let ws = wire_state () in
  if String.length s > dec_memo_max_wire then begin
    Dbgp_obs.Metrics.incr ws.c_dec_misses;
    decode_robust_uncached s
  end
  else begin
    let slot = Hashtbl.hash s land (dec_slots - 1) in
    match Array.unsafe_get ws.dec_memo slot with
    | Some (s', ia) when String.equal s' s ->
      Dbgp_obs.Metrics.incr ws.c_dec_hits;
      Ok (ia, [])
    | _ ->
      Dbgp_obs.Metrics.incr ws.c_dec_misses;
      let result = decode_robust_uncached s in
      ( match result with
        | Ok (ia, []) -> Array.unsafe_set ws.dec_memo slot (Some (s, ia))
        | Ok (_, _ :: _) | Error _ -> () );
      result
  end

module For_tests = struct
  let decode_memo_capacity = dec_slots
  let value_table_clear () = Value_tbl.clear (Domain.DLS.get values_key)

  let decode_memo_residency () =
    Array.fold_left
      (fun n e -> if e = None then n else n + 1)
      0 (wire_state ()).dec_memo
end

let decode s : Ia.t =
  let r = R.of_string s in
  let prefix = R.prefix r in
  let path_vector = R.list ~min_width:2 r decode_elem in
  let membership = R.list ~min_width:3 r decode_membership in
  let path_descriptors = R.list ~min_width:pd_min_width r decode_pd in
  let island_descriptors = R.list ~min_width:id_min_width r decode_id in
  if not (R.at_end r) then
    raise
      (R.Error
         (Printf.sprintf "%d trailing bytes after advertisement"
            (R.remaining r)));
  { prefix; path_vector; membership; path_descriptors; island_descriptors }

let encode_compressed ia = Dbgp_wire.Compress.compress (encode ia)
let decode_compressed s = decode (Dbgp_wire.Compress.decompress s)
let compressed_size ia = String.length (encode_compressed ia)

(* ------------------------------------------------------------------ *)
(* Batched frames: many NLRI prefixes sharing one attribute block, as
   real BGP packs an UPDATE.

   Announce layout:   varint count
                      count × delimited(NLRI entry = BGP-style prefix)
                      delimited(attribute block = path vector,
                                membership, framed descriptors)
   Withdraw layout:   varint count
                      count × delimited(prefix)

   Salvage ladder (RFC 7606 transposed to the batch):
   - the count or an entry's outer frame unreadable → the decoder has
     lost sync with the whole message → [Session_reset];
   - a malformed prefix inside an intact NLRI frame → that entry alone
     is discarded, the rest of the batch survives;
   - the attribute block unreadable or malformed past salvage (or
     trailing bytes) → every salvaged prefix is treated as withdrawn
     ([Batch_withdraw]): the routes cannot be trusted but reachability
     state must not be, either. *)

(* Outer frame (1-byte varint length for any real prefix) + prefix
   length byte: the smallest well-formed NLRI entry is 2 bytes. *)
let nlri_min_width = 2

let prefix_entries_size prefixes =
  W.list_size (framed_size W.prefix_size) prefixes

let encode_prefix_entries w prefixes =
  W.list w (framed W.prefix_size W.prefix) prefixes

(* Per-entry salvage: outer frames already read, so a bad prefix body
   inside one costs that entry alone. *)
let salvage_prefix_entries frames discards =
  List.filter_map
    (fun sub ->
      match
        let p = R.prefix sub in
        if R.at_end sub then p
        else raise (R.Error "stray bytes inside NLRI entry")
      with
      | p -> Some p
      | exception R.Error m ->
        discards :=
          Errors.make Errors.Discard_attribute Errors.Framing
            ("NLRI entry: " ^ m)
          :: !discards;
        None)
    frames

let read_entry_frames what r =
  let n = R.varint r in
  if n = 0 then raise (R.Error (what ^ ": empty prefix list"));
  if n > R.remaining r / nlri_min_width then
    raise
      (R.Error
         (Printf.sprintf "%s: count %d exceeds buffer (%d bytes)" what n
            (R.remaining r)));
  List.init n (fun _ -> R.frame r)

let encode_batch ias =
  match ias with
  | [] -> invalid_arg "Codec.encode_batch: empty batch"
  | (head : Ia.t) :: _ ->
    let prefixes = List.map (fun (ia : Ia.t) -> ia.Ia.prefix) ias in
    let w =
      W.create
        ~capacity:(prefix_entries_size prefixes + framed_size attrs_size head)
        ()
    in
    encode_prefix_entries w prefixes;
    framed attrs_size encode_attrs w head;
    W.contents w

type batch =
  | Batch_routes of Ia.t list * Errors.t list
  | Batch_withdraw of Prefix.t list * Errors.t

let decode_batch_robust s : (batch, Errors.t) result =
  let r = R.of_string s in
  match read_entry_frames "batch NLRI" r with
  | exception R.Error m ->
    Error (Errors.make Errors.Session_reset Errors.Framing m)
  | frames -> (
    let discards = ref [] in
    let prefixes = salvage_prefix_entries frames discards in
    let withdraw_all e = Ok (Batch_withdraw (prefixes, e)) in
    match R.frame r with
    | exception R.Error m ->
      withdraw_all
        (Errors.make Errors.Treat_as_withdraw Errors.Framing
           ("batch attribute block: " ^ m))
    | sub ->
      if not (R.at_end r) then
        withdraw_all
          (Errors.make Errors.Treat_as_withdraw Errors.Framing
             (Printf.sprintf "%d trailing bytes after batch attribute block"
                (R.remaining r)))
      else begin
        match decode_attrs_salvage sub discards with
        | exception Fatal e -> withdraw_all e
        | path_vector, membership, path_descriptors, island_descriptors ->
          if not (R.at_end sub) then
            withdraw_all
              (Errors.make Errors.Treat_as_withdraw Errors.Framing
                 (Printf.sprintf "%d stray bytes inside attribute block"
                    (R.remaining sub)))
          else
            (* One decoded attribute set fans out to every salvaged
               prefix — the IAs in a batch share their attribute fields
               physically by construction. *)
            let ias =
              List.map
                (fun prefix ->
                  { Ia.prefix; path_vector; membership; path_descriptors;
                    island_descriptors })
                prefixes
            in
            Ok (Batch_routes (ias, List.rev !discards))
      end)

let encode_withdraw_batch prefixes =
  if prefixes = [] then invalid_arg "Codec.encode_withdraw_batch: empty batch";
  let w = W.create ~capacity:(prefix_entries_size prefixes) () in
  encode_prefix_entries w prefixes;
  W.contents w

let decode_withdraw_batch_robust s :
    (Prefix.t list * Errors.t list, Errors.t) result =
  let r = R.of_string s in
  match read_entry_frames "withdraw batch" r with
  | exception R.Error m ->
    Error (Errors.make Errors.Session_reset Errors.Framing m)
  | frames ->
    let discards = ref [] in
    let prefixes = salvage_prefix_entries frames discards in
    (* Like the single-prefix withdraw: trailing garbage after an
       otherwise-usable message is noted and dropped, not fatal. *)
    if not (R.at_end r) then
      discards :=
        Errors.make Errors.Discard_attribute Errors.Framing
          (Printf.sprintf "%d trailing bytes after withdraw batch"
             (R.remaining r))
        :: !discards;
    Ok (prefixes, List.rev !discards)

(* ------------------------------------------------------------------ *)
(* Frames: the unit the network delivers.  A one-prefix frame keeps the
   single-prefix layout ({!encode} / {!encode_withdraw}) — the batch
   layouts' count and length octets would cost every lone update 3+
   bytes — and two or more prefixes use the batch layouts. *)

type frame =
  | Routes of Ia.t list
  | Withdraws of Prefix.t list

type layout = Announce | Withdraw | Announce_batch | Withdraw_batch

let layout = function
  | Routes [ _ ] -> Announce
  | Routes _ -> Announce_batch
  | Withdraws [ _ ] -> Withdraw
  | Withdraws _ -> Withdraw_batch

let encode_frame = function
  | Routes [ ia ] -> encode_cached ia
  | Routes ias -> encode_batch ias
  | Withdraws [ p ] -> encode_withdraw p
  | Withdraws ps -> encode_withdraw_batch ps

type decoded = {
  routes : Ia.t list;
  withdrawn : Prefix.t list;
  errors : Errors.t list;
}

let lost e = { routes = []; withdrawn = []; errors = [ e ] }

(* A route without a BGP next hop cannot enter the FIB: RFC 7606 maps
   that to treat-as-withdraw, not discard.  A frame's routes share one
   attribute set, so the head decides for all of them. *)
let with_next_hop routes errors =
  match routes with
  | (head : Ia.t) :: _ when Ia.next_hop head = None ->
    { routes = [];
      withdrawn = List.map (fun (ia : Ia.t) -> ia.Ia.prefix) routes;
      errors =
        errors
        @ [ Errors.make Errors.Treat_as_withdraw Errors.Semantic
              "missing BGP next-hop descriptor" ] }
  | _ -> { routes; withdrawn = []; errors }

let decode_frame layout s =
  match layout with
  | Announce -> (
    match decode_robust s with
    | Ok (ia, discarded) -> with_next_hop [ ia ] discarded
    | Error e when e.Errors.cls = Errors.Session_reset -> lost e
    | Error e -> (
      (* Any other verdict means the prefix itself decoded, so re-read
         it and scope the damage to that one route. *)
      match R.prefix (R.of_string s) with
      | prefix -> { routes = []; withdrawn = [ prefix ]; errors = [ e ] }
      | exception _ -> lost { e with Errors.cls = Errors.Session_reset } ) )
  | Announce_batch -> (
    match decode_batch_robust s with
    | Ok (Batch_routes (ias, discarded)) -> with_next_hop ias discarded
    | Ok (Batch_withdraw (prefixes, e)) ->
      { routes = []; withdrawn = prefixes; errors = [ e ] }
    | Error e -> lost e )
  | Withdraw -> (
    match decode_withdraw_robust s with
    | Ok (prefix, discarded) ->
      { routes = []; withdrawn = [ prefix ]; errors = discarded }
    | Error e -> lost e )
  | Withdraw_batch -> (
    match decode_withdraw_batch_robust s with
    | Ok (prefixes, discarded) ->
      { routes = []; withdrawn = prefixes; errors = discarded }
    | Error e -> lost e )

type breakdown = {
  base : int;
  critical_fix : int;
  custom_replacement : int;
  shared_savings : int;
}

let breakdown (ia : Ia.t) =
  let base =
    size { ia with path_descriptors = []; island_descriptors = [] }
  in
  let is_fix p =
    match Protocol_id.kind p with
    | Protocol_id.Critical_fix | Protocol_id.Baseline -> true
    | Protocol_id.Custom | Protocol_id.Replacement -> false
  in
  let critical_fix, custom_pd =
    List.fold_left
      (fun (cf, cr) (d : Ia.path_descriptor) ->
        let sz = pd_size d in
        if List.exists is_fix d.owners then (cf + sz, cr) else (cf, cr + sz))
      (0, 0) ia.path_descriptors
  in
  let custom_replacement =
    List.fold_left
      (fun acc d -> acc + id_size d)
      custom_pd ia.island_descriptors
  in
  let shared_savings =
    List.fold_left
      (fun acc (d : Ia.path_descriptor) ->
        let n = List.length d.owners in
        if n > 1 then acc + ((n - 1) * pd_size { d with owners = [ List.hd d.owners ] })
        else acc)
      0 ia.path_descriptors
  in
  { base; critical_fix; custom_replacement; shared_savings }
