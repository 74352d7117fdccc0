(* Adversarial-input resilience: the RFC 7606 verdict ladder in the codec
   (decode_robust), the wire-level speaker entry point (receive_wire), the
   seeded fuzzer itself, and the post-chaos safety-invariant checker. *)

open Dbgp_types
module Codec = Dbgp_core.Codec
module Errors = Dbgp_core.Errors
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Filters = Dbgp_core.Filters
module Network = Dbgp_netsim.Network
module Fault_model = Dbgp_netsim.Fault_model
module E = Dbgp_eval
module Metrics = Dbgp_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let prefix = Prefix.of_string "99.0.0.0/24"

let rich_ia () =
  Ia.originate ~prefix ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()
  |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"wiser-cost"
       (Value.Int 7)
  |> Ia.prepend_as (asn 7)

let counter_of sp name =
  match Metrics.find_counter (Speaker.metrics sp) name with
  | Some c -> Metrics.count c
  | None -> 0

(* ------------------------- decode_robust ------------------------- *)

let test_robust_roundtrip () =
  let ia = rich_ia () in
  match Codec.decode_robust (Codec.encode ia) with
  | Ok (ia', []) -> check "pristine bytes decode back equal" true (Ia.equal ia ia')
  | Ok (_, _ :: _) -> Alcotest.fail "pristine bytes produced discards"
  | Error _ -> Alcotest.fail "pristine bytes rejected"

let test_robust_garbage_is_session_reset () =
  List.iter
    (fun s ->
      match Codec.decode_robust s with
      | Error e ->
        check "class is session_reset" true (e.Errors.cls = Errors.Session_reset);
        check "stage is framing" true (e.Errors.stage = Errors.Framing)
      | Ok _ -> Alcotest.fail "garbage accepted")
    [ ""; "\x01"; "\xff\xff\xff\xff\xff\xff\xff\xff" ]

let test_robust_trailing_bytes_withdraw () =
  let wire = Codec.encode (rich_ia ()) ^ "\xde\xad\xbe\xef" in
  match Codec.decode_robust wire with
  | Error e ->
    check "class is treat_as_withdraw" true
      (e.Errors.cls = Errors.Treat_as_withdraw)
  | Ok _ -> Alcotest.fail "trailing junk accepted"

(* Exhaustive single-byte-flip sweep: every flip of every byte must land
   on the verdict ladder — accept, salvage with discards, withdraw, or
   session error — and never raise.  The rich IA carries a framed wiser
   descriptor, so at least one interior flip must be individually
   discarded while the route survives. *)
let test_robust_single_flip_sweep () =
  let wire = Codec.encode (rich_ia ()) in
  let outcomes = ref [] in
  String.iteri
    (fun i _ ->
      List.iter
        (fun mask ->
          let b = Bytes.of_string wire in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
          let verdict =
            match Codec.decode_robust (Bytes.to_string b) with
            | Ok (_, []) -> `Clean
            | Ok (_, _ :: _) -> `Salvaged
            | Error e -> `Err e.Errors.cls
            | exception e ->
              Alcotest.failf "flip at byte %d escaped: %s" i
                (Printexc.to_string e)
          in
          outcomes := verdict :: !outcomes)
        [ 0x01; 0x80; 0xff ])
    wire;
  let has v = List.mem v !outcomes in
  check "some flips salvaged around a bad descriptor" true (has `Salvaged);
  check "some flips treat-as-withdraw" true (has (`Err Errors.Treat_as_withdraw))

(* ------------------------- receive_wire ------------------------- *)

let make_speaker () =
  let sp =
    Speaker.create (Speaker.config ~asn:(asn 2) ~addr:(ip "10.0.0.2") ())
  in
  let from = Peer.make ~asn:(asn 1) ~addr:(ip "10.0.0.1") in
  Speaker.add_neighbor sp
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
  (sp, from)

let test_receive_wire_accept () =
  let sp, from = make_speaker () in
  let outcome, _ = Speaker.receive_wire sp ~from Codec.Announce (Codec.encode (rich_ia ())) in
  check "accepted clean" true (outcome = Speaker.Rx_accepted 0);
  check "route installed" true (Speaker.best sp prefix <> None);
  check "pass-through survived the wire" true
    (match Speaker.best sp prefix with
    | Some { Speaker.outgoing; _ } ->
      Ia.find_path_descriptor ~proto:Protocol_id.wiser ~field:"wiser-cost"
        outgoing
      = Some (Value.Int 7)
    | None -> false)

let test_receive_wire_filtered () =
  let sp, from = make_speaker () in
  (* A repeated AS on the path vector: decodes fine, loop-rejected. *)
  let looped = Ia.prepend_as (asn 7) (rich_ia ()) in
  let outcome, out = Speaker.receive_wire sp ~from Codec.Announce (Codec.encode looped) in
  check "filtered by import policy" true (outcome = Speaker.Rx_filtered);
  check "nothing advertised" true (out = []);
  check "rejection counted" true (counter_of sp "import.rejected" > 0)

let test_receive_wire_missing_next_hop () =
  let sp, from = make_speaker () in
  (* Announce first so the treat-as-withdraw is observable. *)
  ignore (Speaker.receive_wire sp ~from Codec.Announce (Codec.encode (rich_ia ())));
  check "route present" true (Speaker.best sp prefix <> None);
  (* Strip every BGP descriptor: structurally valid, semantically not. *)
  let no_nh = Ia.remove_protocol Protocol_id.bgp (rich_ia ()) in
  check "test IA really lacks a next hop" true (Ia.next_hop no_nh = None);
  let outcome, _ = Speaker.receive_wire sp ~from Codec.Announce (Codec.encode no_nh) in
  check "semantic failure is treat-as-withdraw" true
    (outcome = Speaker.Rx_withdrawn);
  check "previous route withdrawn" true (Speaker.best sp prefix = None);
  check_int "verdict counted" 1 (counter_of sp "errors.treat_as_withdraw")

let test_receive_wire_session_error () =
  let sp, from = make_speaker () in
  (* 0xff reads as prefix length 255: unrecoverable framing damage.  (A
     single 0x00 would decode as a valid 0.0.0.0/0 prefix and land on
     treat-as-withdraw instead.) *)
  let outcome, out = Speaker.receive_wire sp ~from Codec.Announce "\xff" in
  check "framing damage is a session error" true
    (outcome = Speaker.Rx_session_error);
  check "nothing advertised" true (out = []);
  check_int "verdict counted" 1 (counter_of sp "errors.session_reset")

let test_receive_never_raises () =
  let sp =
    Speaker.create
      (Speaker.config ~asn:(asn 2) ~addr:(ip "10.0.0.2")
         ~global_import:(fun _ -> failwith "hostile filter") ())
  in
  let from = Peer.make ~asn:(asn 1) ~addr:(ip "10.0.0.1") in
  Speaker.add_neighbor sp
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
  let out = Speaker.receive sp ~from (Speaker.Announce (rich_ia ())) in
  check "exception absorbed, message dropped" true (out = []);
  check_int "counted as internal error" 1 (counter_of sp "errors.internal")

let test_receive_duplicate_absorbed () =
  let sp, from = make_speaker () in
  let ia = rich_ia () in
  ignore (Speaker.receive sp ~from (Speaker.Announce ia));
  let runs = counter_of sp "decision.runs" in
  let out = Speaker.receive sp ~from (Speaker.Announce ia) in
  check "duplicate produces no messages" true (out = []);
  check_int "decision not re-run" runs (counter_of sp "decision.runs");
  check_int "duplicate counted" 1 (counter_of sp "updates.duplicate")

(* ------------------------- the fuzzer ------------------------- *)

let test_fuzz_deterministic () =
  let cfg = { E.Fuzz.seed = 7; cases = 500 } in
  (* Everything but the wall clock is seed-determined. *)
  let run cfg = { (E.Fuzz.run cfg) with E.Fuzz.elapsed = 0. } in
  let r1 = run cfg in
  let r2 = run cfg in
  check "same seed, identical outcome histogram" true (r1 = r2);
  let r3 = run { cfg with E.Fuzz.seed = 8 } in
  check "different seed, different histogram" true
    ({ r1 with E.Fuzz.config = r3.E.Fuzz.config } <> r3)

(* The acceptance run: the full default corpus (10k cases, seed 42) with
   zero escaped exceptions and zero codec roundtrip failures. *)
let test_fuzz_default_corpus () =
  let r = E.Fuzz.run E.Fuzz.default in
  check_int "10k cases" 10_000 r.E.Fuzz.config.E.Fuzz.cases;
  check_int "zero escaped exceptions" 0 r.E.Fuzz.escaped;
  check_int "zero roundtrip failures" 0 r.E.Fuzz.roundtrip_failures;
  check_int "every case classified on the ladder"
    r.E.Fuzz.config.E.Fuzz.cases
    (r.E.Fuzz.accepted + r.E.Fuzz.accepted_with_discards + r.E.Fuzz.filtered
   + r.E.Fuzz.withdrawn + r.E.Fuzz.session_error);
  check "mutations bite: not everything accepted clean" true
    (r.E.Fuzz.withdrawn > 0 && r.E.Fuzz.session_error > 0);
  check "salvage path exercised" true (r.E.Fuzz.discarded_descriptors > 0);
  (* The batched-frame leg: every fourth case, zero escapes (already
     asserted above — batch escapes land in the same counter), and the
     batch salvage ladder exercised end to end. *)
  check_int "batch leg ran on every fourth case" 2_500 r.E.Fuzz.batch_cases;
  check "batch frames salvaged" true (r.E.Fuzz.batch_ok > 0);
  check "batch treat-as-withdraw hit" true (r.E.Fuzz.batch_treat_withdraw > 0);
  check "batch framing loss hit" true (r.E.Fuzz.batch_session_reset > 0)

(* ------------------------- safety invariants ------------------------- *)

(* An address inside the announced prefix: what the FIB walk resolves. *)
let dest = ip "99.0.0.1"

let chain () =
  let net = Network.create () in
  List.iter (fun n -> ignore (E.Harness.add_as net n)) [ 1; 2; 3 ];
  Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:Dbgp_bgp.Policy.To_customer ();
  Network.link net ~a:(asn 2) ~b:(asn 3) ~b_is:Dbgp_bgp.Policy.To_customer ();
  net

let origin_ia () =
  Ia.originate ~prefix ~origin_asn:(asn 1)
    ~next_hop:(Network.speaker_addr (asn 1)) ()
  |> Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"wiser-cost"
       (Value.Int 7)

let test_invariants_clean_network () =
  let net = chain () in
  Network.originate net (asn 1) (origin_ia ());
  ignore (Network.run net);
  let r =
    E.Invariants.check
      ~expect_descriptor:(Protocol_id.wiser, "wiser-cost", Value.Int 7)
      ~prefix ~dest net
  in
  check "clean converged network passes" true (E.Invariants.ok r);
  check_int "all speakers examined" 3 r.E.Invariants.speakers;
  check_int "origin + transit + stub all hold the route" 3
    r.E.Invariants.with_route

let test_invariants_detect_passthrough_mutation () =
  let net = chain () in
  Network.originate net (asn 1) (origin_ia ());
  ignore (Network.run net);
  let r =
    E.Invariants.check
      ~expect_descriptor:(Protocol_id.wiser, "wiser-cost", Value.Int 99)
      ~prefix ~dest net
  in
  check "wrong expected value is flagged" false (E.Invariants.ok r);
  check "flagged as pass-through mutation" true
    (List.exists
       (function E.Invariants.Passthrough_mutated _ -> true | _ -> false)
       r.E.Invariants.violations)

let test_invariants_detect_down_link_route () =
  let net = chain () in
  Network.set_graceful_restart net (Some 1000.);
  Network.originate net (asn 1) (origin_ia ());
  ignore (Network.run net);
  (* Cut the link inside a wide restart window: AS 2's stale best route
     still points across the down link, which is exactly the unsafe state
     the checker must flag (alongside the stale retention itself). *)
  Network.fail_link net (asn 1) (asn 2);
  let r = E.Invariants.check ~prefix ~dest net in
  check "route via down link detected" true
    (List.exists
       (function
         | E.Invariants.Route_via_down_link (2, 1) -> true
         | _ -> false)
       r.E.Invariants.violations);
  check "stale retention reported too" true
    (List.exists
       (function E.Invariants.Stale_leak _ -> true | _ -> false)
       r.E.Invariants.violations)

let test_invariants_under_total_corruption () =
  (* Corrupt every announcement on the wire: liveness may suffer, safety
     must not, and every injection must be accounted. *)
  let net = chain () in
  let f = Fault_model.create ~seed:11 () in
  Fault_model.set_corruption f 1.0;
  Network.set_fault_model net f;
  Network.originate net (asn 1) (origin_ia ());
  ignore (Network.run net);
  let injected =
    Metrics.count (Metrics.counter (Network.metrics net) "net.corruption.injected")
  in
  check "corruption actually injected" true (injected > 0);
  check "all injections accounted by the model" true
    (Fault_model.corrupted f >= injected);
  check "verdicts or survivals recorded" true
    (let survived =
       Metrics.count
         (Metrics.counter (Network.metrics net) "net.corruption.survived")
     in
     let verdicts =
       List.fold_left
         (fun a c -> a + Network.counter_total net (Errors.counter_name c))
         0 Errors.all_classes
     in
     survived + verdicts > 0);
  let r = E.Invariants.check ~prefix ~dest net in
  check "safety invariants hold under total corruption" true
    (E.Invariants.ok r)

let () =
  Alcotest.run "fuzz"
    [ ("decode-robust",
       [ Alcotest.test_case "pristine roundtrip" `Quick test_robust_roundtrip;
         Alcotest.test_case "garbage is session reset" `Quick
           test_robust_garbage_is_session_reset;
         Alcotest.test_case "trailing bytes withdraw" `Quick
           test_robust_trailing_bytes_withdraw;
         Alcotest.test_case "single-flip sweep" `Quick
           test_robust_single_flip_sweep ]);
      ("receive-wire",
       [ Alcotest.test_case "clean accept" `Quick test_receive_wire_accept;
         Alcotest.test_case "loop filtered" `Quick test_receive_wire_filtered;
         Alcotest.test_case "missing next hop withdraws" `Quick
           test_receive_wire_missing_next_hop;
         Alcotest.test_case "framing damage" `Quick
           test_receive_wire_session_error;
         Alcotest.test_case "pipeline exception absorbed" `Quick
           test_receive_never_raises;
         Alcotest.test_case "duplicate absorbed" `Quick
           test_receive_duplicate_absorbed ]);
      ("fuzzer",
       [ Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic;
         Alcotest.test_case "default corpus: no escapes" `Slow
           test_fuzz_default_corpus ]);
      ("invariants",
       [ Alcotest.test_case "clean network passes" `Quick
           test_invariants_clean_network;
         Alcotest.test_case "pass-through mutation detected" `Quick
           test_invariants_detect_passthrough_mutation;
         Alcotest.test_case "route via down link detected" `Quick
           test_invariants_detect_down_link_route;
         Alcotest.test_case "safety under total corruption" `Quick
           test_invariants_under_total_corruption ]) ]
