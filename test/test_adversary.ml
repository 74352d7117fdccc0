(* Adversary suite: attack mechanics, detection predicates, hijack
   containment under the BGPSec-like critical fix, and byte-level
   determinism of the blast-radius report. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module
module Network = Dbgp_netsim.Network
module P = Dbgp_bgp.Policy
module Bgpsec = Dbgp_protocols.Bgpsec_like
module Attack = Dbgp_adversary.Attack
module E = Dbgp_eval
module Invariants = Dbgp_eval.Invariants
module Snapshot = Dbgp_obs.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let pfx = Prefix.of_string
let prefix = pfx "99.0.0.0/24"
let dest = Ipv4.of_string "99.0.0.1"

let add net ?island ?passthrough n =
  let a = asn n in
  let s =
    Speaker.create
      (Speaker.config ?island ?passthrough ~asn:a
         ~addr:(Network.speaker_addr a) ())
  in
  Network.add_speaker net s;
  s

let cust net a b = Network.link net ~a:(asn a) ~b:(asn b) ~b_is:P.To_provider ()

let origin_ia n =
  Ia.originate ~prefix ~origin_asn:(asn n)
    ~next_hop:(Network.speaker_addr (asn n)) ()

(* The Gao-Rexford export rule itself: customer-learned and local routes
   go everywhere, peer/provider-learned routes go only to customers. *)
let test_valley_free_rule () =
  let open P in
  List.iter
    (fun to_ -> check "local exports everywhere" true (valley_free ~learned:None ~to_))
    [ To_customer; To_peer; To_provider ];
  List.iter
    (fun to_ ->
      check "customer routes export everywhere" true
        (valley_free ~learned:(Some To_customer) ~to_))
    [ To_customer; To_peer; To_provider ];
  List.iter
    (fun learned ->
      check "peer/provider routes reach customers" true
        (valley_free ~learned:(Some learned) ~to_:To_customer);
      check "peer/provider routes never climb" false
        (valley_free ~learned:(Some learned) ~to_:To_peer);
      check "peer/provider routes never climb (2)" false
        (valley_free ~learned:(Some learned) ~to_:To_provider))
    [ To_peer; To_provider ];
  check "export_all lets a leak through" true
    (export_all ~learned:(Some To_provider) ~to_:To_provider)

(* A linear customer chain 1 <- 2 <- 3 <- 4: a forged-origin announce by
   stub AS 4 in a fully validating deployment is rejected at AS 3 — the
   first validating speaker — and never reaches anyone else.  With an
   empty customer cone the blast radius is exactly zero. *)
let test_hijack_rejected_at_first_validator () =
  let keys i = "s" ^ string_of_int i in
  let pki a = Some (keys (Asn.to_int a)) in
  let authorized p o = (not (Prefix.subsumes prefix p)) || Asn.equal o (asn 1) in
  let net = Network.create () in
  let speakers =
    List.map
      (fun n ->
        let s = add net n in
        Speaker.add_module s
          (Bgpsec.decision_module
             { Bgpsec.me = asn n; secret = keys n; pki; require_full = true;
               authorized = Some authorized });
        Speaker.set_active s prefix Bgpsec.protocol;
        s)
      [ 1; 2; 3; 4 ]
  in
  cust net 1 2;
  cust net 2 3;
  cust net 3 4;
  Network.originate net (asn 1)
    (Bgpsec.sign_origin ~secret:(keys 1) ~me:(asn 1) (origin_ia 1));
  ignore (Network.run net);
  let attack =
    { Attack.kind = Attack.Origin_hijack; attacker = asn 4; victim = asn 1;
      prefix }
  in
  Attack.launch net attack;
  ignore (Network.run net);
  let s3 = List.nth speakers 2 and s2 = List.nth speakers 1 in
  (* The first validating speaker holds the forged candidate but refused
     to select it... *)
  check "AS 3 received the forgery" true
    (List.exists
       (fun (p, _) -> Asn.equal p.Dbgp_core.Peer.asn (asn 4))
       (Speaker.candidates_for s3 prefix));
  ( match Speaker.best s3 prefix with
    | None -> Alcotest.fail "AS 3 must keep its honest route"
    | Some c ->
      check "AS 3 still routes on the victim's origination" true
        (match List.rev (Ia.asns_on_path c.Speaker.candidate.Dm.ia) with
        | o :: _ -> Asn.equal o (asn 1)
        | [] -> false) );
  (* ...and nothing leaked past it: AS 2 never even saw a candidate from
     beyond its own customer edge carrying a wrong origin. *)
  check "no forged candidate beyond the first validator" true
    (List.for_all
       (fun (_, ia) ->
         match List.rev (Ia.asns_on_path ia) with
         | o :: _ -> Asn.equal o (asn 1)
         | [] -> false)
       (Speaker.candidates_for s2 prefix));
  (* The candidate-level detection predicate pinpoints exactly the first
     validator; the selected-state predicate stays silent. *)
  check "forged candidate detected at AS 3" true
    (List.exists
       (function Invariants.Origin_mismatch (3, 4) -> true | _ -> false)
       (Invariants.forged_candidates net ~prefix ~owner:(asn 1)));
  check_int "no selected route is hijacked" 0
    (List.length (Invariants.origin_mismatches net ~prefix ~owner:(asn 1)))

(* One scenario's outcome, read from the default full-suite report. *)
let default_report = lazy (E.Adversary.run E.Adversary.default)

let scenario topo arm kind =
  List.find
    (fun (o : E.Adversary.outcome) ->
      o.topo = topo && o.arm = arm && o.attack.Attack.kind = kind)
    (Lazy.force default_report).E.Adversary.outcomes

(* The harness-level containment claim on a real topology: every hijack
   variant in the BGPSec-like arm converges with zero blast radius,
   clean control and recovery phases, and detection still firing (the
   forged candidates are visible at the validators that rejected
   them). *)
let test_containment_blast_radius_zero () =
  List.iter
    (fun kind ->
      let o = scenario E.Adversary.Brite E.Adversary.Dbgp_bgpsec kind in
      let name = Attack.name kind in
      check (name ^ ": control clean") true o.E.Adversary.control_clean;
      check (name ^ ": contained") true o.E.Adversary.contained;
      check (name ^ ": zero blast radius") true
        (o.E.Adversary.blast_radius = 0.);
      check (name ^ ": detection fired") true (o.E.Adversary.detections > 0);
      check (name ^ ": recovered") true o.E.Adversary.recovered_clean)
    (List.filter Attack.is_hijack Attack.all)

(* The same hijacks on the legacy arm must escape: that gap is the
   containment the critical fix buys. *)
let test_legacy_hijacks_escape () =
  let blast kind =
    (scenario E.Adversary.Brite E.Adversary.Legacy kind).E.Adversary.blast_radius
  in
  check "origin hijack poisons someone on legacy" true
    (blast Attack.Origin_hijack > 0.);
  check "sub-prefix hijack poisons everyone on legacy" true
    (blast Attack.Subprefix_hijack = 1.)

(* Route leak mechanics: flipping the attacker's export rule produces
   Valley_export violations at the leaking AS, and restoring the rule
   heals them. *)
let test_route_leak_detected_and_healed () =
  let o = scenario E.Adversary.Caida E.Adversary.Dbgp Attack.Route_leak in
  check "control clean" true o.E.Adversary.control_clean;
  check "leak detected" true (o.E.Adversary.detections > 0);
  check "leak healed" true o.E.Adversary.recovered_clean

(* D-BGP-specific attacks: the tampering transit AS is visible to the
   D-BGP arms (forged island descriptor / missing pass-through data on
   selected routes) and invisible to legacy, which strips the
   descriptors anyway. *)
let test_island_attacks_detection () =
  List.iter
    (fun kind ->
      let run arm = scenario E.Adversary.Caida arm kind in
      let legacy = run E.Adversary.Legacy in
      check "legacy cannot see the attack" false
        legacy.E.Adversary.detection_applicable;
      List.iter
        (fun arm ->
          let o = run arm in
          check "dbgp arm sees the attack" true
            o.E.Adversary.detection_applicable;
          check "dbgp arm detects the attack" true
            (o.E.Adversary.detections > 0);
          check "tampering heals on stand-down" true
            o.E.Adversary.recovered_clean)
        [ E.Adversary.Dbgp; E.Adversary.Dbgp_bgpsec ])
    [ Attack.Island_forgery; Attack.Passthrough_tamper ]

(* Same seed, same config: the full report must serialize to the exact
   same bytes — the reproducibility contract behind BENCH_adversary.json. *)
let test_report_determinism () =
  let json () =
    Snapshot.to_json_pretty
      (E.Adversary.to_snapshot (E.Adversary.run E.Adversary.default))
  in
  let a = json () and b = json () in
  Alcotest.(check string) "byte-identical reports" a b;
  check "default run is healthy" true
    (E.Adversary.run E.Adversary.default).E.Adversary.healthy

(* Detection predicates stay silent on an honest converged network even
   with the adversary-grade scans enabled. *)
let test_predicates_silent_on_honest_state () =
  let net = Network.create () in
  List.iter (fun n -> ignore (add net n)) [ 1; 2; 3; 4 ];
  cust net 1 2;
  cust net 2 3;
  cust net 2 4;
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  check_int "no origin mismatch" 0
    (List.length (Invariants.origin_mismatches net ~prefix ~owner:(asn 1)));
  check_int "no valley export" 0
    (List.length (Invariants.valley_violations net));
  check_int "no forged adjacency" 0
    (List.length (Invariants.forged_adjacencies net ~prefix));
  check_int "no forged candidate" 0
    (List.length (Invariants.forged_candidates net ~prefix ~owner:(asn 1)));
  check_int "no forged island descriptor" 0
    (List.length
       (Invariants.forged_island_descriptors net ~prefix
          ~island:Attack.forged_island ~proto:Attack.forged_proto
          ~field:Attack.forged_field ~expected:None));
  ignore dest

let () =
  Alcotest.run "adversary"
    [ ( "adversary",
        [ Alcotest.test_case "valley-free export rule" `Quick
            test_valley_free_rule;
          Alcotest.test_case "hijack rejected at first validator" `Quick
            test_hijack_rejected_at_first_validator;
          Alcotest.test_case "containment: zero blast radius" `Quick
            test_containment_blast_radius_zero;
          Alcotest.test_case "legacy hijacks escape" `Quick
            test_legacy_hijacks_escape;
          Alcotest.test_case "route leak detected and healed" `Quick
            test_route_leak_detected_and_healed;
          Alcotest.test_case "island attacks: detection by arm" `Quick
            test_island_attacks_detection;
          Alcotest.test_case "report determinism" `Quick
            test_report_determinism;
          Alcotest.test_case "predicates silent on honest state" `Quick
            test_predicates_silent_on_honest_state ] ) ]
