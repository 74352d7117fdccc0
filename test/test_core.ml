open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Codec = Dbgp_core.Codec
module Filters = Dbgp_core.Filters
module Dm = Dbgp_core.Decision_module
module Adj_rib_in = Dbgp_core.Adj_rib_in
module Factory = Dbgp_core.Factory
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Policy = Dbgp_bgp.Policy

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let peer n = Peer.make ~asn:(asn n) ~addr:(Ipv4.of_octets 10 0 0 n)

let proto_a = Protocol_id.register ~kind:Protocol_id.Critical_fix "test-fix-a"
let proto_b = Protocol_id.register ~kind:Protocol_id.Critical_fix "test-fix-b"

let base_ia ?(prefix = "99.0.0.0/24") () =
  Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()

(* ------------------------- Value ------------------------- *)

let test_value_roundtrip () =
  let vs =
    [ Value.Int 42; Value.Str "hi"; Value.Bytes "\x00\xff"; Value.Addr (ip "1.2.3.4");
      Value.Pfx (pfx "10.0.0.0/8"); Value.Asn (asn 65000);
      Value.List [ Value.Int 1; Value.Pair (Value.Str "a", Value.Int 2) ];
      Value.Pair (Value.List [], Value.Bytes "") ]
  in
  List.iter
    (fun v ->
      let w = Dbgp_wire.Writer.create () in
      Value.encode w v;
      let v' = Value.decode (Dbgp_wire.Reader.of_string (Dbgp_wire.Writer.contents w)) in
      check "roundtrip" true (Value.equal v v'))
    vs

let test_value_accessors () =
  check "as_int" true (Value.as_int (Value.Int 3) = Some 3);
  check "as_int wrong" true (Value.as_int (Value.Str "3") = None);
  check "wire_size positive" true (Value.wire_size (Value.Str "abc") > 3)

(* ------------------------- Ia ------------------------- *)

let test_ia_originate () =
  let ia = base_ia () in
  check_int "pv length 1" 1 (Ia.path_length ia);
  check "next hop" true (Ia.next_hop ia = Some (ip "10.0.0.1"));
  check "bgp registered" true (Protocol_id.Set.mem Protocol_id.bgp (Ia.protocols ia));
  check "no loop" false (Ia.has_loop ia)

let test_ia_prepend_loop () =
  let ia = base_ia () |> Ia.prepend_as (asn 2) |> Ia.prepend_as (asn 3) in
  check_int "pv 3" 3 (Ia.path_length ia);
  check "asns in order" true (Ia.asns_on_path ia = [ asn 3; asn 2; asn 1 ]);
  check "loop detected" true (Ia.has_loop (Ia.prepend_as (asn 1) ia))

let test_ia_descriptors_shared () =
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a; proto_b ] ~field:"metric" (Value.Int 7)
  in
  check "a sees it" true (Ia.find_path_descriptor ~proto:proto_a ~field:"metric" ia = Some (Value.Int 7));
  check "b sees it" true (Ia.find_path_descriptor ~proto:proto_b ~field:"metric" ia = Some (Value.Int 7));
  check "bgp does not" true (Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:"metric" ia = None);
  (* replace same (owners, field) *)
  let ia2 = Ia.set_path_descriptor ~owners:[ proto_b; proto_a ] ~field:"metric" (Value.Int 9) ia in
  check "replaced (owner order canonical)" true
    (Ia.find_path_descriptor ~proto:proto_a ~field:"metric" ia2 = Some (Value.Int 9));
  check_int "no duplicate descriptor" (List.length ia.Ia.path_descriptors)
    (List.length ia2.Ia.path_descriptors)

let test_ia_remove_protocol () =
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a; proto_b ] ~field:"shared" (Value.Int 1)
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"solo" (Value.Int 2)
    |> Ia.add_island_descriptor ~island:(Island_id.named "X") ~proto:proto_a ~field:"f" (Value.Int 3)
  in
  let ia' = Ia.remove_protocol proto_a ia in
  check "solo descriptor gone" true (Ia.find_path_descriptor ~proto:proto_a ~field:"solo" ia' = None);
  check "shared survives for b" true
    (Ia.find_path_descriptor ~proto:proto_b ~field:"shared" ia' = Some (Value.Int 1));
  check "island descriptor gone" true (Ia.find_island_descriptors ~proto:proto_a ia' = []);
  check "a no longer listed" false (Protocol_id.Set.mem proto_a (Ia.protocols ia'))

let test_ia_island_abstraction () =
  let isl = Island_id.named "W" in
  let ia = base_ia () |> Ia.prepend_as (asn 2) |> Ia.prepend_as (asn 3) in
  let abstracted = Ia.abstract_island ~island:isl ~members:[ asn 3; asn 2 ] ia in
  check_int "collapsed to island + origin" 2 (Ia.path_length abstracted);
  check "island on path" true
    (List.exists (Island_id.equal isl) (Ia.islands_on_path abstracted));
  (* only the leading run is abstracted *)
  let partial = Ia.abstract_island ~island:isl ~members:[ asn 2 ] ia in
  check_int "non-leading member untouched" 3 (Ia.path_length partial)

(* The island-ID ablation EXPERIMENTS.md cites: a 12-AS island listed AS
   by AS, then abstracted to its ID, shrinks the IA and collapses the
   path vector to the island plus the origin. *)
let test_ia_island_ablation () =
  let isl = Island_id.named "big-island" in
  let members = List.init 12 (fun i -> asn (64600 + i)) in
  let listed =
    List.fold_left
      (fun ia a -> Ia.prepend_as a ia)
      (Ia.originate ~prefix:(pfx "198.51.100.0/24") ~origin_asn:(asn 64501)
         ~next_hop:(ip "10.0.0.1") ())
      members
    |> Ia.declare_membership ~island:isl ~members
  in
  let abstracted = Ia.abstract_island ~island:isl ~members listed in
  check_int "listed bytes" 169 (Codec.size listed);
  check_int "abstracted bytes" 122 (Codec.size abstracted);
  check_int "listed path entries" 13 (Ia.path_length listed);
  check_int "abstracted path entries" 2 (Ia.path_length abstracted)

let test_ia_membership () =
  let isl = Island_id.named "M" in
  let ia =
    base_ia () |> Ia.prepend_as (asn 2)
    |> Ia.declare_membership ~island:isl ~members:[ asn 2 ]
  in
  check "island of member" true (Ia.island_of_asn ia (asn 2) = Some isl);
  check "non-member" true (Ia.island_of_asn ia (asn 1) = None);
  check "islands_on_path includes declared" true
    (List.exists (Island_id.equal isl) (Ia.islands_on_path ia));
  (* redeclaration replaces *)
  let ia2 = Ia.declare_membership ~island:isl ~members:[ asn 1 ] ia in
  check "replaced" true (Ia.island_of_asn ia2 (asn 2) = None)

let test_ia_island_descriptors () =
  let isl = Island_id.named "S" in
  let ia =
    base_ia ()
    |> Ia.add_island_descriptor ~island:isl ~proto:proto_a ~field:"portal" (Value.Addr (ip "9.9.9.9"))
  in
  check "find" true
    (Ia.find_island_descriptor ~island:isl ~proto:proto_a ~field:"portal" ia
    = Some (Value.Addr (ip "9.9.9.9")));
  check "wrong island" true
    (Ia.find_island_descriptor ~island:(Island_id.named "T") ~proto:proto_a ~field:"portal" ia = None);
  check_int "by proto" 1 (List.length (Ia.find_island_descriptors ~proto:proto_a ia))

(* ------------------------- Codec ------------------------- *)

let rich_ia () =
  base_ia ()
  |> Ia.prepend_as (asn 2)
  |> Ia.prepend_island (Island_id.named "A")
  |> Ia.declare_membership ~island:(Island_id.named "B") ~members:[ asn 2 ]
  |> Ia.set_path_descriptor ~owners:[ proto_a; proto_b; Protocol_id.bgp ] ~field:"m" (Value.Int 5)
  |> Ia.add_island_descriptor ~island:(Island_id.named "A") ~proto:Protocol_id.scion
       ~field:"paths" (Value.List [ Value.Str "r1"; Value.Str "r2" ])

let test_codec_roundtrip () =
  let ia = rich_ia () in
  let ia' = Codec.decode (Codec.encode ia) in
  check "roundtrip" true (Ia.equal ia ia')

let test_codec_size_breakdown () =
  let ia = rich_ia () in
  check_int "size matches encode" (String.length (Codec.encode ia)) (Codec.size ia);
  let b = Codec.breakdown ia in
  check "base positive" true (b.Codec.base > 0);
  check "cf positive" true (b.Codec.critical_fix > 0);
  check "cr positive" true (b.Codec.custom_replacement > 0);
  check "sharing saves" true (b.Codec.shared_savings > 0)

let test_codec_sharing_smaller () =
  (* One descriptor owned by 3 protocols must encode smaller than three
     separate copies. *)
  let shared =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a; proto_b; Protocol_id.wiser ]
         ~field:"payload" (Value.Bytes (String.make 100 'p'))
  in
  let copied =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"payload"
         (Value.Bytes (String.make 100 'p'))
    |> Ia.set_path_descriptor ~owners:[ proto_b ] ~field:"payload2"
         (Value.Bytes (String.make 100 'p'))
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"payload3"
         (Value.Bytes (String.make 100 'p'))
  in
  check "sharing is smaller" true (Codec.size shared < Codec.size copied)

let test_codec_unknown_protocol_passes () =
  (* A speaker can decode IAs naming protocols it never saw: the registry
     grows on demand. *)
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor
         ~owners:[ Protocol_id.register "exotic-proto-xyz" ]
         ~field:"blob" (Value.Bytes "??")
  in
  let ia' = Codec.decode (Codec.encode ia) in
  check "exotic preserved" true
    (Protocol_id.Set.exists
       (fun p -> Protocol_id.name p = "exotic-proto-xyz")
       (Ia.protocols ia'))

module Errors = Dbgp_core.Errors
module W = Dbgp_wire.Writer

(* The framing bytes are part of the wire contract: these digests were
   taken from the nested-buffer encoder that preceded size-then-write
   framing, and any encoder must reproduce them exactly. *)
let payload_32k = String.init (32 * 1024) (fun i -> Char.chr ((i * 131) lxor (i lsr 7) land 0xFF))

let pinned_ia () =
  base_ia ()
  |> Ia.prepend_as (asn 2)
  |> Ia.prepend_island (Island_id.named "A")
  |> Ia.prepend_island (Island_id.of_border_asns [ asn 7; asn 9 ])
  |> (fun ia ->
       { ia with Ia.path_vector = Path_elem.as_set [ asn 40; asn 30 ] :: ia.Ia.path_vector })
  |> Ia.declare_membership ~island:(Island_id.named "B") ~members:[ asn 2; asn 3 ]
  |> Ia.set_path_descriptor ~owners:[ proto_a; proto_b; Protocol_id.bgp ] ~field:"payload"
       (Value.Bytes payload_32k)
  |> Ia.add_island_descriptor ~island:(Island_id.named "A") ~proto:Protocol_id.scion
       ~field:"paths"
       (Value.List
          [ Value.Str "r1"; Value.Pair (Value.Int 300, Value.Asn (asn 65000));
            Value.Pfx (pfx "10.1.0.0/16") ])

let test_codec_pinned_bytes () =
  let digest s = Digest.to_hex (Digest.string s) in
  let ia = pinned_ia () in
  Alcotest.(check string) "32 KB IA" "0bb36ce9dc68222b7d1d1c073fb6ed5d" (digest (Codec.encode ia));
  Alcotest.(check string) "batch frame" "c723ed67e326891d5412d6838e76d6cd"
    (digest
       (Codec.encode_batch
          (ia :: List.map (fun s -> Ia.with_prefix (pfx s) ia) [ "99.1.0.0/24"; "10.0.0.0/8" ])))

(* Descriptor bodies are read through bounded sub-readers over their
   frames.  A body whose inner length claims more than its frame holds
   must fail alone — with the neighbour's bytes right behind it in the
   same string, an unbounded reader would happily consume them. *)
let test_codec_frame_overrun () =
  let pd_body w ~field write_value =
    W.list w (fun w p -> W.delimited w (Protocol_id.name p)) [ Protocol_id.bgp ];
    W.delimited w field;
    write_value w
  in
  let bytes_of write =
    let b = W.create () in
    write b;
    W.contents b
  in
  let bad =
    bytes_of (fun w ->
        pd_body w ~field:"first" (fun w ->
            W.u8 w 1;
            (* Str claiming 12 bytes; the frame holds 2. *)
            W.varint w 12;
            W.bytes w "hi"))
  in
  let good =
    bytes_of (fun w -> pd_body w ~field:"second" (fun w -> Value.encode w (Value.Int 7)))
  in
  let w = W.create () in
  W.prefix w (pfx "99.0.0.0/24");
  W.list w (fun w a -> W.u8 w 0; W.asn w a) [ asn 1 ];
  W.varint w 0;
  W.varint w 2;
  W.delimited w bad;
  W.delimited w good;
  W.varint w 0;
  let wire = W.contents w in
  check "the claim fits in the whole message" true
    (String.length wire - String.length good > 12 - 2);
  match Codec.decode_robust wire with
  | Ok (ia, [ d ]) ->
    check "discard-attribute" true (d.Errors.cls = Errors.Discard_attribute);
    check "path-descriptor stage" true (d.Errors.stage = Errors.Path_descriptor);
    check_int "one descriptor survives" 1 (List.length ia.Ia.path_descriptors);
    check "the next descriptor decodes" true
      (Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:"second" ia = Some (Value.Int 7))
  | Ok (_, ds) -> Alcotest.failf "expected one discard, got %d" (List.length ds)
  | Error e -> Alcotest.fail ("route lost: " ^ e.Errors.reason)

(* ------------------- Codec: batched frames ------------------- *)

let batch_ias () =
  let head = rich_ia () in
  head
  :: List.map
       (fun s -> Ia.with_prefix (pfx s) head)
       [ "99.1.0.0/24"; "99.2.0.0/16"; "99.3.4.0/30" ]

(* Pull the frame apart with a Reader so corruption tests can rebuild it
   piecewise: [varint count; count × delimited NLRI entry; delimited
   attribute block]. *)
let split_batch_wire wire =
  let r = Dbgp_wire.Reader.of_string wire in
  let n = Dbgp_wire.Reader.varint r in
  let entries = List.init n (fun _ -> Dbgp_wire.Reader.delimited r) in
  let attrs = Dbgp_wire.Reader.delimited r in
  (entries, attrs)

let test_codec_batch_roundtrip () =
  let ias = batch_ias () in
  (match Codec.decode_batch_robust (Codec.encode_batch ias) with
  | Ok (Codec.Batch_routes (ias', discards)) ->
    check_int "all routes survive" (List.length ias) (List.length ias');
    check "no discards" true (discards = []);
    List.iter2 (fun a b -> check "ia roundtrip" true (Ia.equal a b)) ias ias';
    (* The decoder fans one attribute set out to every NLRI prefix:
       physical sharing, not per-route copies. *)
    (match ias' with
    | head :: rest ->
      List.iter
        (fun (ia : Ia.t) ->
          check "pv shared" true (ia.Ia.path_vector == head.Ia.path_vector);
          check "pds shared" true
            (ia.Ia.path_descriptors == head.Ia.path_descriptors))
        rest
    | [] -> Alcotest.fail "empty batch decoded")
  | Ok (Codec.Batch_withdraw _) -> Alcotest.fail "clean batch became withdraw"
  | Error e -> Alcotest.fail ("clean batch rejected: " ^ e.Errors.reason));
  (* A one-route batch is still a valid frame. *)
  (match Codec.decode_batch_robust (Codec.encode_batch [ rich_ia () ]) with
  | Ok (Codec.Batch_routes ([ ia' ], [])) ->
    check "singleton roundtrip" true (Ia.equal (rich_ia ()) ia')
  | _ -> Alcotest.fail "singleton batch mangled");
  Alcotest.check_raises "empty batch rejected"
    (Invalid_argument "Codec.encode_batch: empty batch") (fun () ->
      ignore (Codec.encode_batch []))

(* A one-prefix frame keeps the single-prefix layout byte for byte: a
   lone update must not pay batch framing. *)
let test_codec_frame_one_prefix () =
  let ia = rich_ia () in
  Alcotest.(check string) "one route = encode" (Codec.encode ia)
    (Codec.encode_frame (Codec.Routes [ ia ]));
  Alcotest.(check string) "one withdraw = encode_withdraw"
    (Codec.encode_withdraw ia.Ia.prefix)
    (Codec.encode_frame (Codec.Withdraws [ ia.Ia.prefix ]));
  check "layouts" true
    (Codec.layout (Codec.Routes [ ia ]) = Codec.Announce
    && Codec.layout (Codec.Routes [ ia; ia ]) = Codec.Announce_batch
    && Codec.layout (Codec.Withdraws [ ia.Ia.prefix ]) = Codec.Withdraw
    && Codec.layout (Codec.Withdraws [ ia.Ia.prefix; ia.Ia.prefix ])
       = Codec.Withdraw_batch)

let test_codec_batch_salvage () =
  let ias = batch_ias () in
  let wire = Codec.encode_batch ias in
  let entries, attrs = split_batch_wire wire in
  let rebuild entries attrs =
    let w = W.create () in
    W.varint w (List.length entries);
    List.iter (W.delimited w) entries;
    W.delimited w attrs;
    W.contents w
  in
  (* A malformed prefix inside an intact NLRI frame costs that entry
     alone ("\x2a" claims /42). *)
  (match
     Codec.decode_batch_robust
       (rebuild (List.mapi (fun i e -> if i = 1 then "\x2a" else e) entries) attrs)
   with
  | Ok (Codec.Batch_routes (ias', [ d ])) ->
    check_int "one route lost" (List.length ias - 1) (List.length ias');
    check "loss is discard-attribute" true (d.Errors.cls = Errors.Discard_attribute);
    check "head prefix survives" true
      (List.exists (fun (ia : Ia.t) -> Prefix.equal ia.Ia.prefix (pfx "99.0.0.0/24")) ias')
  | _ -> Alcotest.fail "bad NLRI entry not salvaged alone");
  (* Attribute block truncated: routes can't be trusted, reachability
     must not be either — treat every salvaged prefix as withdrawn. *)
  (match Codec.decode_batch_robust (String.sub wire 0 (String.length wire - 4)) with
  | Ok (Codec.Batch_withdraw (prefixes, e)) ->
    check_int "all prefixes salvaged" (List.length ias) (List.length prefixes);
    check "treat-as-withdraw" true (e.Errors.cls = Errors.Treat_as_withdraw)
  | _ -> Alcotest.fail "truncated attr block not treat-as-withdraw");
  (* Trailing bytes after the attribute block: same ladder rung. *)
  (match Codec.decode_batch_robust (wire ^ "\x00") with
  | Ok (Codec.Batch_withdraw (_, e)) ->
    check "trailing bytes withdraw" true (e.Errors.cls = Errors.Treat_as_withdraw)
  | _ -> Alcotest.fail "trailing bytes not treat-as-withdraw");
  (* NLRI count tampered beyond the buffer: framing is lost, nothing
     downstream can be salvaged. *)
  let bombed = "\x7f" ^ String.sub wire 1 (String.length wire - 1) in
  (match Codec.decode_batch_robust bombed with
  | Error e -> check "count bomb resets" true (e.Errors.cls = Errors.Session_reset)
  | Ok _ -> Alcotest.fail "count bomb accepted")

let test_codec_withdraw_batch () =
  let prefixes = List.map pfx [ "99.0.0.0/24"; "10.0.0.0/8"; "203.0.113.0/25" ] in
  let wire = Codec.encode_withdraw_batch prefixes in
  (match Codec.decode_withdraw_batch_robust wire with
  | Ok (ps, []) ->
    check "withdraw roundtrip" true (List.for_all2 Prefix.equal prefixes ps)
  | _ -> Alcotest.fail "clean withdraw batch mangled");
  (* Trailing garbage is noted and dropped, not fatal. *)
  (match Codec.decode_withdraw_batch_robust (wire ^ "\xde\xad") with
  | Ok (ps, [ d ]) ->
    check_int "prefixes intact" (List.length prefixes) (List.length ps);
    check "garbage noted" true (d.Errors.cls = Errors.Discard_attribute)
  | _ -> Alcotest.fail "trailing garbage mishandled");
  (* One bad entry is discarded alone. *)
  let w = W.create () in
  W.varint w 3;
  let scratch = W.create () in
  W.prefix scratch (pfx "99.0.0.0/24");
  W.delimited w (W.contents scratch);
  W.delimited w "\x2a";
  W.reset scratch;
  W.prefix scratch (pfx "10.0.0.0/8");
  W.delimited w (W.contents scratch);
  (match Codec.decode_withdraw_batch_robust (W.contents w) with
  | Ok (ps, [ d ]) ->
    check_int "two survive" 2 (List.length ps);
    check "bad entry discarded" true (d.Errors.cls = Errors.Discard_attribute)
  | _ -> Alcotest.fail "bad withdraw entry not salvaged alone");
  (* Count bomb → framing lost. *)
  (match Codec.decode_withdraw_batch_robust ("\x7f" ^ String.sub wire 1 (String.length wire - 1)) with
  | Error e -> check "withdraw bomb resets" true (e.Errors.cls = Errors.Session_reset)
  | Ok _ -> Alcotest.fail "withdraw count bomb accepted");
  Alcotest.check_raises "empty withdraw batch rejected"
    (Invalid_argument "Codec.encode_withdraw_batch: empty batch") (fun () ->
      ignore (Codec.encode_withdraw_batch []))

(* -------------------- Attr_table lifecycle -------------------- *)

module Attr_table = Dbgp_core.Attr_table

let test_attr_table_lifecycle () =
  Attr_table.reset ();
  let a = rich_ia () in
  let b = Ia.with_prefix (pfx "99.1.0.0/24") (rich_ia ()) in
  (* b rebuilds the same attribute fields as fresh lists: equal but not
     physically shared until the table canonicalizes them. *)
  check "same attrs" true (Ia.same_attrs a b);
  let a' = Attr_table.share a in
  let b' = Attr_table.share b in
  check_int "one resident set" 1 (Attr_table.occupancy ());
  check "one entry" true (a' == b' && Attr_table.same a' b');
  let ra = Attr_table.route a' a.Ia.prefix and rb = Attr_table.route b' b.Ia.prefix in
  check "canonicalized to one physical set" true
    (ra.Ia.path_vector == rb.Ia.path_vector
    && ra.Ia.path_descriptors == rb.Ia.path_descriptors);
  check "prefixes kept distinct" false (Prefix.equal ra.Ia.prefix rb.Ia.prefix);
  check "refcount 2" true (Attr_table.refcount a = Some 2);
  (* A different attribute set gets its own entry. *)
  let c = Attr_table.share (base_ia ~prefix:"88.0.0.0/24" ()) in
  check_int "two resident sets" 2 (Attr_table.occupancy ());
  check "distinct sets" false (Attr_table.same a' c);
  (* A hint whose fields the IA shares physically is taken without a
     probe; any other IA is shared by value. *)
  check "share_like the route's own fields" true (Attr_table.share_like a' rb == a');
  check "share_like a fresh copy" true (Attr_table.share_like c (rich_ia ()) == a');
  check "refcount 4" true (Attr_table.refcount a = Some 4);
  Attr_table.release a';
  Attr_table.release a';
  (* Releases retire the entry only at refcount zero; the set then gets a
     new entry. *)
  Attr_table.release a';
  check "still resident after one release" true (Attr_table.refcount b = Some 1);
  Attr_table.release b';
  check "evicted at zero" true (Attr_table.refcount b = None);
  check_int "one set left" 1 (Attr_table.occupancy ());
  let d = Attr_table.share (rich_ia ()) in
  check "evicted entry is not the new one" false (d == a');
  check "evicted entry still compares by value" true (Attr_table.same a' d);
  (* Releasing a non-resident set is a no-op: evict c, then release it
     again. *)
  Attr_table.release c;
  check_int "c evicted" 1 (Attr_table.occupancy ());
  Attr_table.release c;
  check_int "no-op release" 1 (Attr_table.occupancy ());
  (* A reset leaves the table; the entries held stay valid and compare
     by value. *)
  let d' = Attr_table.share (rich_ia ()) in
  Attr_table.reset ();
  check_int "reset empties" 0 (Attr_table.occupancy ());
  check "detached entries compare by value" true (Attr_table.same d d');
  Attr_table.release d;
  check_int "release after reset is a no-op" 0 (Attr_table.occupancy ());
  ignore (Attr_table.share (rich_ia ()));
  ignore (Attr_table.share (rich_ia ()));
  Attr_table.release (Attr_table.share (base_ia ~prefix:"88.0.0.0/24" ()));
  let m = Attr_table.metrics () in
  let counter name =
    match Dbgp_obs.Metrics.find_counter m name with
    | Some c -> Dbgp_obs.Metrics.count c
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  check "hits counted" true (counter "attr_table.hits" >= 1);
  check "misses counted" true (counter "attr_table.misses" >= 2);
  check "evictions counted" true (counter "attr_table.evictions" >= 1);
  Attr_table.reset ()

(* ------------------------- Filters ------------------------- *)

let test_filters_loops () =
  let looped = base_ia () |> Ia.prepend_as (asn 2) |> Ia.prepend_as (asn 1) in
  check "loop rejected" true (Filters.reject_loops looped = None);
  check "clean accepted" true (Filters.reject_loops (base_ia ()) <> None)

let test_filters_keep_only () =
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"x" (Value.Int 1)
    |> Ia.set_path_descriptor ~owners:[ proto_b ] ~field:"y" (Value.Int 2)
  in
  match Filters.keep_only (Protocol_id.Set.singleton Protocol_id.bgp) ia with
  | Some ia' ->
    check "only bgp left" true
      (Protocol_id.Set.equal (Ia.protocols ia') (Protocol_id.Set.singleton Protocol_id.bgp))
  | None -> Alcotest.fail "keep_only never drops the IA"

let test_filters_compose () =
  let bump = Filters.prepend_as (asn 50) in
  let both = Filters.chain [ bump; bump ] in
  ( match both (base_ia ()) with
    | Some ia -> check_int "two prepends" 3 (Ia.path_length ia)
    | None -> Alcotest.fail "chain dropped" );
  check "reject short-circuits" true (Filters.compose Filters.reject bump (base_ia ()) = None)

let test_filters_max_size () =
  let big =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"blob"
         (Value.Bytes (String.make 5000 'b'))
  in
  check "oversize dropped" true (Filters.max_size 1000 big = None);
  check "small passes" true (Filters.max_size 1000 (base_ia ()) <> None)

let test_filters_when () =
  let only_for_24 =
    Filters.when_ (fun ia -> Prefix.length ia.Ia.prefix = 24) Filters.reject
  in
  check "predicate true drops" true (only_for_24 (base_ia ()) = None);
  check "predicate false passes" true (only_for_24 (base_ia ~prefix:"99.0.0.0/16" ()) <> None)

(* ------------------------- decision module / db / factory ------------------------- *)

let test_bgp_module_select () =
  let m = Dm.bgp () in
  let mk peer_n hops =
    { Dm.from_peer = Some (peer peer_n);
      ia = List.fold_left (fun ia n -> Ia.prepend_as (asn n) ia) (base_ia ()) hops }
  in
  let short = mk 5 [ 2 ] and long = mk 4 [ 2; 3 ] in
  check "shortest wins" true (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ long; short ] = Some short);
  check "empty none" true (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [] = None);
  let p1 = mk 1 [ 2 ] and p2 = mk 2 [ 3 ] in
  check "tie lowest peer" true (m.Dm.select ~prefix:(pfx "99.0.0.0/24") [ p2; p1 ] = Some p1)

let test_ia_db () =
  let db = Adj_rib_in.create () in
  let ia = base_ia () in
  Adj_rib_in.set db ~peer:(peer 1) ia.Ia.prefix ia;
  let ia7 = Ia.prepend_as (asn 7) ia in
  Adj_rib_in.set db ~peer:(peer 2) ia7.Ia.prefix ia7;
  check_int "two candidates" 2 (List.length (Adj_rib_in.candidates db (pfx "99.0.0.0/24")));
  check "find" true (Adj_rib_in.find db ~peer:(peer 1) (pfx "99.0.0.0/24") = Some ia);
  Adj_rib_in.remove db ~peer:(peer 1) (pfx "99.0.0.0/24");
  check_int "one left" 1 (List.length (Adj_rib_in.candidates db (pfx "99.0.0.0/24")));
  let ia98 = base_ia ~prefix:"98.0.0.0/24" () in
  Adj_rib_in.set db ~peer:(peer 2) ia98.Ia.prefix ia98;
  let affected = Adj_rib_in.drop_peer db ~peer:(peer 2) in
  check_int "both prefixes affected" 2 (List.length affected);
  check_int "empty" 0 (Adj_rib_in.size db)

let test_factory_passthrough () =
  let incoming =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"alien" (Value.Int 1)
  in
  let supported = Protocol_id.Set.singleton Protocol_id.bgp in
  let out =
    Factory.build ~passthrough:true ~supported ~me:(asn 9) ~my_addr:(ip "10.0.0.9")
      ~contributions:[] incoming
  in
  check "alien preserved" true (Ia.find_path_descriptor ~proto:proto_a ~field:"alien" out <> None);
  check "prepended" true (List.mem (asn 9) (Ia.asns_on_path out));
  check "next hop rewritten" true (Ia.next_hop out = Some (ip "10.0.0.9"));
  let stripped =
    Factory.build ~passthrough:false ~supported ~me:(asn 9) ~my_addr:(ip "10.0.0.9")
      ~contributions:[] incoming
  in
  check "alien stripped without passthrough" true
    (Ia.find_path_descriptor ~proto:proto_a ~field:"alien" stripped = None)

let test_factory_contributions_order () =
  let log = ref [] in
  let c name ia = log := name :: !log; ia in
  ignore
    (Factory.build ~passthrough:true
       ~supported:(Protocol_id.Set.singleton Protocol_id.bgp) ~me:(asn 9)
       ~my_addr:(ip "10.0.0.9")
       ~contributions:[ c "first"; c "second" ]
       (base_ia ()));
  check "applied in order" true (List.rev !log = [ "first"; "second" ])

(* ------------------------- Speaker ------------------------- *)

let mk_speaker ?island ?(passthrough = true) n =
  Speaker.create
    (Speaker.config ?island ~passthrough ~asn:(asn n) ~addr:(Ipv4.of_octets 10 0 0 n) ())

let test_speaker_originate_and_export () =
  let s = mk_speaker 1 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 2));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_peer (peer 3));
  let out = Speaker.originate s (base_ia ()) in
  check_int "announced to both (local routes go everywhere)" 2 (List.length out);
  check "best installed" true (Speaker.best s (pfx "99.0.0.0/24") <> None)

let test_speaker_receive_prepend () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce (base_ia ())) in
  (* must not echo back to the sender (split horizon): only to 6 *)
  check_int "one announcement" 1 (List.length out);
  ( match out with
    | [ (to_, Speaker.Announce ia) ] ->
      check "to provider" true (Peer.equal to_ (peer 6));
      check "my asn prepended" true (List.mem (asn 5) (Ia.asns_on_path ia))
    | _ -> Alcotest.fail "expected a single announce" )

let test_speaker_valley_free () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 7));
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce (base_ia ())) in
  (* learned from a provider: export only to customers *)
  check_int "only customer hears it" 1 (List.length out);
  match out with
  | [ (to_, _) ] -> check "customer 7" true (Peer.equal to_ (peer 7))
  | _ -> Alcotest.fail "expected one announcement"

let test_speaker_loop_rejected () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  let looped = base_ia () |> Ia.prepend_as (asn 2) |> Ia.prepend_as (asn 1) in
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce looped) in
  check "nothing selected" true (Speaker.best s (pfx "99.0.0.0/24") = None);
  check "nothing sent" true (out = [])

let test_speaker_own_as_rejected () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  (* The IA already contains AS 5: accepting it would loop. *)
  let ia = base_ia () |> Ia.prepend_as (asn 5) |> Ia.prepend_as (asn 2) in
  ignore (Speaker.receive s ~from:(peer 1) (Speaker.Announce ia));
  match Speaker.best s (pfx "99.0.0.0/24") with
  | None -> ()
  | Some chosen ->
    (* selection is fine, but re-advertisement would loop; ensure the
       factory output does loop-detect downstream *)
    check "chosen retains path" true
      (Ia.has_loop (Ia.prepend_as (asn 5) chosen.Speaker.candidate.Dm.ia))

let test_speaker_withdraw () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  ignore (Speaker.receive s ~from:(peer 1) (Speaker.Announce (base_ia ())));
  check "installed" true (Speaker.best s (pfx "99.0.0.0/24") <> None);
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Withdraw (pfx "99.0.0.0/24")) in
  check "removed" true (Speaker.best s (pfx "99.0.0.0/24") = None);
  check "withdraw propagated" true
    (List.exists (function _, Speaker.Withdraw _ -> true | _ -> false) out)

let test_speaker_better_path_switch () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 2));
  let long = base_ia () |> Ia.prepend_as (asn 2) |> Ia.prepend_as (asn 3) in
  ignore (Speaker.receive s ~from:(peer 1) (Speaker.Announce long));
  let best1 = Speaker.best s (pfx "99.0.0.0/24") in
  ignore (Speaker.receive s ~from:(peer 2) (Speaker.Announce (base_ia ()))) ;
  let best2 = Speaker.best s (pfx "99.0.0.0/24") in
  check "switched to shorter" true
    ( match (best1, best2) with
      | Some b1, Some b2 ->
        Ia.path_length b1.Speaker.candidate.Dm.ia = 3
        && Ia.path_length b2.Speaker.candidate.Dm.ia = 1
      | _ -> false )

let test_speaker_peer_down () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  ignore (Speaker.receive s ~from:(peer 1) (Speaker.Announce (base_ia ())));
  let out = Speaker.peer_down s (peer 1) in
  check "route gone" true (Speaker.best s (pfx "99.0.0.0/24") = None);
  check "withdraws flow" true
    (List.exists (function _, Speaker.Withdraw _ -> true | _ -> false) out)

let test_speaker_legacy_downgrade () =
  let s = mk_speaker 5 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s
    (Speaker.neighbor ~dbgp_capable:false ~relationship:Policy.To_provider (peer 6));
  let fancy =
    base_ia ()
    |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"x" (Value.Int 1)
    |> Ia.declare_membership ~island:(Island_id.named "Z") ~members:[ asn 1 ]
  in
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce fancy) in
  match out with
  | [ (_, Speaker.Announce ia) ] ->
    check "stripped to bgp" true
      (Protocol_id.Set.equal (Ia.protocols ia) (Protocol_id.Set.singleton Protocol_id.bgp));
    check "membership cleared" true (ia.Ia.membership = [])
  | _ -> Alcotest.fail "expected one announcement"

let test_speaker_island_egress () =
  let isl = Island_id.named "HID" in
  let s =
    Speaker.create
      (Speaker.config ~island:isl ~island_members:[ asn 5 ]
         ~hide_island_interior:true ~asn:(asn 5) ~addr:(Ipv4.of_octets 10 0 0 5) ())
  in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce (base_ia ())) in
  match out with
  | [ (_, Speaker.Announce ia) ] ->
    check "island id replaces my ASN" true
      (List.mem (Path_elem.Island isl) ia.Ia.path_vector);
    check "my ASN hidden" false (List.mem (asn 5) (Ia.asns_on_path ia))
  | _ -> Alcotest.fail "expected one announcement"

let test_speaker_active_protocol () =
  let s = mk_speaker 5 in
  check "default bgp" true
    (Protocol_id.equal (Speaker.For_tests.active_for s (pfx "99.0.0.0/24")) Protocol_id.bgp);
  Alcotest.check_raises "unknown module"
    (Invalid_argument "Speaker.set_active: no module registered for protocol")
    (fun () -> Speaker.set_active s (pfx "99.0.0.0/24") proto_a);
  let m = { (Dm.bgp ()) with Dm.protocol = proto_a } in
  Speaker.add_module s m;
  Speaker.set_active s (pfx "99.0.0.0/16") proto_a;
  check "longest-match active" true
    (Protocol_id.equal (Speaker.For_tests.active_for s (pfx "99.0.0.5/32")) proto_a);
  check "outside range stays bgp" true
    (Protocol_id.equal (Speaker.For_tests.active_for s (pfx "98.0.0.0/24")) Protocol_id.bgp)

(* A gulf operator's global filter: strip one protocol's control
   information, keep the IA. *)
let drop_protocol p ia = Some (Ia.remove_protocol p ia)

let test_speaker_global_import_filter () =
  let s =
    Speaker.create
      (Speaker.config ~global_import:(drop_protocol proto_a) ~asn:(asn 5)
         ~addr:(Ipv4.of_octets 10 0 0 5) ())
  in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  let ia = base_ia () |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"x" (Value.Int 1) in
  ignore (Speaker.receive s ~from:(peer 1) (Speaker.Announce ia));
  match Speaker.best s (pfx "99.0.0.0/24") with
  | Some chosen ->
    check "gulf operator removed the protocol" true
      (Ia.find_path_descriptor ~proto:proto_a ~field:"x" chosen.Speaker.candidate.Dm.ia = None)
  | None -> Alcotest.fail "route should still be accepted"

let test_ia_next_hop_owner_preserved () =
  (* A shared next-hop descriptor keeps its owner set across hop-by-hop
     rewrites (Figure 4 shows next hop shared by Wiser, BGP, BGPSec). *)
  let ia =
    base_ia ()
    |> Ia.set_path_descriptor
         ~owners:[ Protocol_id.bgp; Protocol_id.wiser ]
         ~field:Ia.field_next_hop (Value.Addr (ip "1.1.1.1"))
  in
  let ia' = Ia.with_next_hop (ip "2.2.2.2") ia in
  check "rewritten" true (Ia.next_hop ia' = Some (ip "2.2.2.2"));
  check "wiser still co-owns" true
    (Ia.find_path_descriptor ~proto:Protocol_id.wiser ~field:Ia.field_next_hop ia'
    = Some (Value.Addr (ip "2.2.2.2")))

let test_speaker_global_export_filter () =
  let s =
    Speaker.create
      (Speaker.config ~global_export:(drop_protocol proto_a) ~asn:(asn 5)
         ~addr:(Ipv4.of_octets 10 0 0 5) ())
  in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 6));
  let ia = base_ia () |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"x" (Value.Int 1) in
  match Speaker.receive s ~from:(peer 1) (Speaker.Announce ia) with
  | [ (_, Speaker.Announce out) ] ->
    check "stripped on egress only" true
      (Ia.find_path_descriptor ~proto:proto_a ~field:"x" out = None);
    (* the speaker's own view keeps the protocol (import untouched) *)
    ( match Speaker.best s (pfx "99.0.0.0/24") with
      | Some c ->
        check "import side intact" true
          (Ia.find_path_descriptor ~proto:proto_a ~field:"x" c.Speaker.candidate.Dm.ia
          <> None)
      | None -> Alcotest.fail "route expected" )
  | _ -> Alcotest.fail "one announcement expected"

(* ------------------------- Aggregation ------------------------- *)

module Agg = Dbgp_core.Aggregation

let sibling_ias () =
  let mk prefix cost bw =
    Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"wiser-cost" (Value.Int cost)
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.eq_bgp ] ~field:"eqbgp-bw" (Value.Int bw)
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.bgpsec ] ~field:"bgpsec-attest"
         (Value.List [ Value.Bytes "sig" ])
  in
  (Ia.prepend_as (asn 2) (mk "10.0.0.0/25" 5 100),
   Ia.prepend_as (asn 3) (mk "10.0.0.128/25" 9 300))

let test_aggregation_siblings_only () =
  let a, b = sibling_ias () in
  check "siblings aggregate" true (Agg.aggregate a b <> None);
  check "same prefix rejected" true (Agg.aggregate a a = None);
  let far = { a with Ia.prefix = pfx "99.0.0.0/25" } in
  check "non-siblings rejected" true (Agg.aggregate far b = None)

let test_aggregation_semantics () =
  let a, b = sibling_ias () in
  match Agg.aggregate a b with
  | None -> Alcotest.fail "should aggregate"
  | Some agg ->
    check "covering prefix" true (Prefix.equal agg.Ia.prefix (pfx "10.0.0.0/24"));
    (* path vector became one AS_SET with all ASes *)
    ( match agg.Ia.path_vector with
      | [ Path_elem.As_set s ] ->
        check "all ASes in set" true
          (List.map Asn.to_int s = [ 1; 2; 3 ])
      | _ -> Alcotest.fail "expected a single AS_SET" );
    (* The paper's claim: BGPSec attestations cannot be aggregated and
       neither can Wiser's costs (no rule registered). *)
    check "attestations dropped" true
      (Ia.find_path_descriptor ~proto:Protocol_id.bgpsec ~field:"bgpsec-attest" agg = None);
    check "wiser cost dropped" true
      (Ia.find_path_descriptor ~proto:Protocol_id.wiser ~field:"wiser-cost" agg = None);
    (* Bottleneck bandwidth aggregates conservatively (min). *)
    check "bandwidth takes min" true
      (Ia.find_path_descriptor ~proto:Protocol_id.eq_bgp ~field:"eqbgp-bw" agg
      = Some (Value.Int 100))

(* The Section 3.5 argument in numbers: aggregating an IA with an
   identical sibling keeps only the descriptors some rule covers. *)
let test_aggregation_fraction () =
  let a, _ = sibling_ias () in
  let twin = { a with Ia.prefix = pfx "10.0.0.128/25" } in
  let kept =
    match Agg.aggregate a twin with
    | Some agg -> List.length agg.Ia.path_descriptors
    | None -> Alcotest.fail "should aggregate"
  in
  (* five descriptors: origin (rule), next-hop (rule), wiser (no),
     eqbgp (rule), bgpsec (no) -> 3/5 *)
  check_int "three of five survive" 3 kept;
  check_int "of five" 5 (List.length a.Ia.path_descriptors)

(* A rule holds per protocol and field: BGP's next hop survives only
   when both sides agree, and a field no rule covers never survives. *)
let test_aggregation_custom_rule () =
  let mk prefix nh =
    Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn 1) ~next_hop:(ip nh) ()
    |> Ia.set_path_descriptor ~owners:[ Protocol_id.bgp ] ~field:"lat"
         (Value.Int 1)
  in
  let next_hop a b =
    match Agg.aggregate a b with
    | Some agg ->
      ( Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:Ia.field_next_hop agg,
        Ia.find_path_descriptor ~proto:Protocol_id.bgp ~field:"lat" agg )
    | None -> Alcotest.fail "should aggregate"
  in
  let same, lat = next_hop (mk "10.0.0.0/25" "10.0.0.1") (mk "10.0.0.128/25" "10.0.0.1") in
  check "equal next hops kept" true (same <> None);
  check "default deny" true (lat = None);
  let differ, _ = next_hop (mk "10.0.0.0/25" "10.0.0.1") (mk "10.0.0.128/25" "10.0.0.2") in
  check "differing next hops dropped" true (differ = None)

(* Random IAs covering every encoder branch: nested values, every island
   form, AS_SETs, membership, and multi-kilobyte opaque payloads. *)
let gen_ia =
  let open QCheck.Gen in
  let gen_asn = map (fun n -> asn (n + 1)) (int_bound 4_000_000) in
  let gen_asns = list_size (int_range 1 5) gen_asn in
  let gen_name = string_size ~gen:printable (int_range 1 12) in
  let gen_island =
    oneof
      [ map Island_id.singleton gen_asn;
        map Island_id.named gen_name;
        map Island_id.of_border_asns gen_asns ]
  in
  let gen_elem =
    frequency
      [ (4, map (fun a -> Path_elem.As a) gen_asn);
        (1, map Path_elem.island gen_island);
        (1, map Path_elem.as_set gen_asns) ]
  in
  let gen_leaf =
    oneof
      [ map (fun n -> Value.Int n) (int_bound max_int);
        map (fun s -> Value.Str s) string_printable;
        map (fun s -> Value.Bytes s) (string_size (int_range 0 16));
        map (fun s -> Value.Bytes s) (string_size (int_range 1024 8192));
        map (fun n -> Value.Addr (Ipv4.of_int n)) (int_bound 0xFFFF_FFFF);
        map2 (fun n l -> Value.Pfx (Prefix.make (Ipv4.of_int n) l)) (int_bound 0xFFFF_FFFF)
          (int_bound 32);
        map (fun a -> Value.Asn a) gen_asn ]
  in
  let gen_value =
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           if n = 0 then gen_leaf
           else
             oneof
               [ gen_leaf;
                 map (fun l -> Value.List l) (list_size (int_range 0 4) (self (n - 1)));
                 map2 (fun a b -> Value.Pair (a, b)) (self (n - 1)) (self (n - 1)) ])
  in
  let protos = [| Protocol_id.bgp; proto_a; proto_b; Protocol_id.wiser |] in
  let gen_owners =
    map
      (fun l -> List.sort_uniq Protocol_id.compare (List.map (Array.get protos) l))
      (list_size (int_range 1 3) (int_bound 3))
  in
  let gen_pd =
    map3 (fun owners field value -> { Ia.owners; field; value }) gen_owners gen_name gen_value
  in
  let gen_id =
    map3
      (fun (island, proto) ifield ivalue -> { Ia.island; proto = protos.(proto); ifield; ivalue })
      (pair gen_island (int_bound 3))
      gen_name gen_value
  in
  map3
    (fun (addr, len) (path_vector, membership) (path_descriptors, island_descriptors) ->
      { Ia.prefix = Prefix.make (Ipv4.of_int addr) len;
        path_vector;
        membership;
        path_descriptors;
        island_descriptors })
    (pair (int_bound 0xFFFF_FFFF) (int_bound 32))
    (pair
       (list_size (int_range 0 6) gen_elem)
       (list_size (int_range 0 2) (pair gen_island gen_asns)))
    (pair (list_size (int_range 0 3) gen_pd) (list_size (int_range 0 2) gen_id))

let qcheck =
  let open QCheck in
  let gen_value =
    Gen.sized_size (Gen.int_range 0 3)
    @@ Gen.fix (fun self n ->
           if n = 0 then
             Gen.oneof
               [ Gen.map (fun i -> Value.Int i) Gen.nat;
                 Gen.map (fun s -> Value.Str s) Gen.string_printable;
                 Gen.map (fun s -> Value.Bytes s) Gen.string ]
           else
             Gen.oneof
               [ Gen.map (fun l -> Value.List l) (Gen.list_size (Gen.int_range 0 4) (self (n - 1)));
                 Gen.map2 (fun a b -> Value.Pair (a, b)) (self (n - 1)) (self (n - 1)) ])
  in
  [ Test.make ~name:"value wire roundtrip" ~count:300 (make gen_value) (fun v ->
        let w = Dbgp_wire.Writer.create () in
        Value.encode w v;
        Value.equal v (Value.decode (Dbgp_wire.Reader.of_string (Dbgp_wire.Writer.contents w))));
    Test.make ~name:"ia codec roundtrip with random paths" ~count:200
      (list_of_size (Gen.int_range 0 8) (int_bound 100000))
      (fun path ->
        let ia =
          List.fold_left (fun ia n -> Ia.prepend_as (asn (n + 1)) ia) (base_ia ()) path
        in
        Ia.equal ia (Codec.decode (Codec.encode ia)));
    Test.make ~name:"value wire_size is the encoded length" ~count:300 (make gen_value)
      (fun v ->
        let w = Dbgp_wire.Writer.create () in
        Value.encode w v;
        Value.wire_size v = Dbgp_wire.Writer.length w);
    Test.make ~name:"ia size pass is the encoded length, and round-trips" ~count:200
      (make ~print:(Format.asprintf "%a" Ia.pp) gen_ia)
      (fun ia ->
        let wire = Codec.encode ia in
        Codec.size ia = String.length wire
        && Ia.equal ia (Codec.decode wire)
        && Codec.decode_robust wire = Ok (ia, [])
        &&
        match
          Codec.decode_batch_robust
            (Codec.encode_batch [ ia; Ia.with_prefix (pfx "99.9.0.0/24") ia ])
        with
        | Ok (Codec.Batch_routes ([ a; b ], [])) ->
          Ia.equal a ia && Ia.same_attrs b ia
        | _ -> false);
    Test.make ~name:"frame roundtrip (1-8 routes or withdraws)" ~count:200
      (make
         (Gen.triple gen_ia (Gen.int_range 1 8) Gen.bool))
      (fun (ia, n, announce) ->
        (* Every route of a frame shares the head's attribute set, which
           needs a next hop to be usable at all. *)
        let ia = Ia.with_next_hop (ip "10.0.0.1") ia in
        let routes =
          List.init n (fun i ->
              Ia.with_prefix (Prefix.make (Ipv4.of_int (i lsl 8)) 24) ia)
        in
        let prefixes = List.map (fun (r : Ia.t) -> r.Ia.prefix) routes in
        let frame =
          if announce then Codec.Routes routes else Codec.Withdraws prefixes
        in
        let d = Codec.decode_frame (Codec.layout frame) (Codec.encode_frame frame) in
        d.Codec.errors = []
        &&
        if announce then
          d.Codec.withdrawn = [] && List.equal Ia.equal d.Codec.routes routes
        else
          d.Codec.routes = [] && List.equal Prefix.equal d.Codec.withdrawn prefixes);
    Test.make ~name:"attrs_hash agrees with same_attrs" ~count:200
      (make (Gen.pair gen_ia (Gen.int_bound 0xFFFF)))
      (fun (ia, n) ->
        let moved = Ia.with_prefix (Prefix.make (Ipv4.of_int (n lsl 8)) 24) ia in
        let copy = Codec.decode (Codec.encode ia) in
        Ia.attrs_hash moved = Ia.attrs_hash ia
        && Ia.attrs_hash copy = Ia.attrs_hash ia);
    Test.make ~name:"aggregates are loop-free covering advertisements" ~count:100
      (pair (int_bound 0xFFFF) (int_bound 0xFFFF))
      (fun (n1, n2) ->
        let mk prefix o =
          Ia.originate ~prefix ~origin_asn:(asn (1 + o)) ~next_hop:(ip "10.0.0.1") ()
          |> Ia.prepend_as (asn (100 + o))
        in
        let parent = Prefix.make (Ipv4.of_int ((n1 lxor n2) lsl 12)) 19 in
        match Prefix.split parent with
        | None -> true
        | Some (lo, hi) -> (
          match Dbgp_core.Aggregation.aggregate (mk lo 0) (mk hi 1) with
          | None -> false
          | Some agg ->
            Prefix.equal agg.Ia.prefix parent
            && (not (Ia.has_loop agg))
            && Prefix.subsumes agg.Ia.prefix lo
            && Prefix.subsumes agg.Ia.prefix hi ));
    Test.make ~name:"set_path_descriptor keeps (proto, field) unique" ~count:200
      (list_of_size (Gen.int_range 1 8) (pair (int_bound 2) (int_bound 2)))
      (fun ops ->
        let protos = [| Protocol_id.bgp; proto_a; proto_b |] in
        let ia =
          List.fold_left
            (fun ia (p, q) ->
              Ia.set_path_descriptor
                ~owners:(List.sort_uniq Protocol_id.compare [ protos.(p); protos.(q) ])
                ~field:"f" (Value.Int (p + q)) ia)
            (base_ia ()) ops
        in
        (* every proto resolves "f" to at most one value, and no two
           same-field descriptors share an owner *)
        List.for_all
          (fun (d1 : Ia.path_descriptor) ->
            List.for_all
              (fun (d2 : Ia.path_descriptor) ->
                d1 == d2 || d1.Ia.field <> "f" || d2.Ia.field <> "f"
                || List.for_all
                     (fun p -> not (List.exists (Protocol_id.equal p) d2.Ia.owners))
                     d1.Ia.owners)
              ia.Ia.path_descriptors)
          ia.Ia.path_descriptors);
    Test.make ~name:"factory passthrough preserves protocol set" ~count:100
      (int_bound 1000)
      (fun n ->
        let ia =
          base_ia ()
          |> Ia.set_path_descriptor ~owners:[ proto_a ] ~field:"f" (Value.Int n)
        in
        let out =
          Factory.build ~passthrough:true
            ~supported:(Protocol_id.Set.singleton Protocol_id.bgp)
            ~me:(asn 42) ~my_addr:(ip "10.9.9.9") ~contributions:[] ia
        in
        Protocol_id.Set.subset (Ia.protocols ia) (Ia.protocols out)) ]

let () =
  Alcotest.run "core"
    [ ("value",
       [ Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
         Alcotest.test_case "accessors" `Quick test_value_accessors ]);
      ("ia",
       [ Alcotest.test_case "originate" `Quick test_ia_originate;
         Alcotest.test_case "prepend/loop" `Quick test_ia_prepend_loop;
         Alcotest.test_case "shared descriptors" `Quick test_ia_descriptors_shared;
         Alcotest.test_case "remove protocol" `Quick test_ia_remove_protocol;
         Alcotest.test_case "island abstraction" `Quick test_ia_island_abstraction;
         Alcotest.test_case "island-ID ablation" `Quick test_ia_island_ablation;
         Alcotest.test_case "membership" `Quick test_ia_membership;
         Alcotest.test_case "island descriptors" `Quick test_ia_island_descriptors ]);
      ("codec",
       [ Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
         Alcotest.test_case "size/breakdown" `Quick test_codec_size_breakdown;
         Alcotest.test_case "sharing smaller" `Quick test_codec_sharing_smaller;
         Alcotest.test_case "unknown protocols" `Quick test_codec_unknown_protocol_passes;
         Alcotest.test_case "pinned bytes" `Quick test_codec_pinned_bytes;
         Alcotest.test_case "frame overrun" `Quick test_codec_frame_overrun;
         Alcotest.test_case "batch roundtrip" `Quick test_codec_batch_roundtrip;
         Alcotest.test_case "batch salvage" `Quick test_codec_batch_salvage;
         Alcotest.test_case "one-prefix frames keep their bytes" `Quick
           test_codec_frame_one_prefix;
         Alcotest.test_case "withdraw batch" `Quick test_codec_withdraw_batch ]);
      ("filters",
       [ Alcotest.test_case "loops" `Quick test_filters_loops;
         Alcotest.test_case "drop/keep" `Quick test_filters_keep_only;
         Alcotest.test_case "compose" `Quick test_filters_compose;
         Alcotest.test_case "max size" `Quick test_filters_max_size;
         Alcotest.test_case "when" `Quick test_filters_when ]);
      ("decision-module",
       [ Alcotest.test_case "bgp select" `Quick test_bgp_module_select ]);
      ("attr-table", [ Alcotest.test_case "refcount lifecycle" `Quick test_attr_table_lifecycle ]);
      ("adj-rib-in", [ Alcotest.test_case "set/candidates/drop" `Quick test_ia_db ]);
      ("factory",
       [ Alcotest.test_case "passthrough" `Quick test_factory_passthrough;
         Alcotest.test_case "contribution order" `Quick test_factory_contributions_order ]);
      ("shared-fields",
       [ Alcotest.test_case "next-hop owners" `Quick test_ia_next_hop_owner_preserved;
         Alcotest.test_case "global export filter" `Quick test_speaker_global_export_filter ]);
      ("aggregation",
       [ Alcotest.test_case "siblings only" `Quick test_aggregation_siblings_only;
         Alcotest.test_case "semantics" `Quick test_aggregation_semantics;
         Alcotest.test_case "aggregable fraction" `Quick test_aggregation_fraction;
         Alcotest.test_case "custom rules" `Quick test_aggregation_custom_rule ]);
      ("speaker",
       [ Alcotest.test_case "originate+export" `Quick test_speaker_originate_and_export;
         Alcotest.test_case "receive+prepend" `Quick test_speaker_receive_prepend;
         Alcotest.test_case "valley-free export" `Quick test_speaker_valley_free;
         Alcotest.test_case "loop rejected" `Quick test_speaker_loop_rejected;
         Alcotest.test_case "own-as path" `Quick test_speaker_own_as_rejected;
         Alcotest.test_case "withdraw" `Quick test_speaker_withdraw;
         Alcotest.test_case "better path switch" `Quick test_speaker_better_path_switch;
         Alcotest.test_case "peer down" `Quick test_speaker_peer_down;
         Alcotest.test_case "legacy downgrade" `Quick test_speaker_legacy_downgrade;
         Alcotest.test_case "island egress" `Quick test_speaker_island_egress;
         Alcotest.test_case "active protocol ranges" `Quick test_speaker_active_protocol;
         Alcotest.test_case "global import filter" `Quick test_speaker_global_import_filter ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
