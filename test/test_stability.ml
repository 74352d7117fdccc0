(* The divergence lab: static dispute-wheel detection, the online
   oscillation detector, gadget classification (both damping arms), and
   the flap-damping clock under sustained policy-induced churn. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Eq = Dbgp_netsim.Event_queue
module Speaker = Dbgp_core.Speaker
module Damping = Dbgp_bgp.Flap_damping
module E = Dbgp_eval
module Stability = Dbgp_eval.Stability
module Scenarios = Dbgp_eval.Scenarios

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Big enough for every gadget to show a verified cycle, small enough to
   keep the suite fast. *)
let budget = 8_000

(* A case of the lab's pack, by name. *)
let case name =
  List.find
    (fun (c : Stability.case) -> c.Stability.name = name)
    (Scenarios.divergence_cases ())

let build name = (case name).Stability.build

(* ------------------------- dispute wheels ------------------------- *)

let test_wheel_bad_gadget () =
  match Stability.dispute_wheel Scenarios.bad_gadget_spec with
  | None -> Alcotest.fail "BAD GADGET must contain a dispute wheel"
  | Some nodes ->
    check "wheel visits several nodes" true (List.length nodes >= 3);
    (* The ring nodes dispute; the origin never appears on a wheel. *)
    check "origin not on the wheel" false
      (List.mem Scenarios.bad_gadget_spec.Stability.origin nodes)

let test_wheel_good_gadget () =
  check "flipped preferences are wheel-free" true
    (Stability.dispute_wheel Scenarios.good_gadget_spec = None)

let test_wheel_med () =
  check "MED cluster spec contains a wheel" true
    (Option.bind (case "med-oscillation").Stability.spec Stability.dispute_wheel
    <> None)

(* ------------------------- classification ------------------------- *)

let converged = function Stability.Converged _ -> true | _ -> false

let classify ?damping build =
  let net = build () in
  ( match damping with
    | Some p -> Network.set_damping net (Some p)
    | None -> () );
  Stability.classify ~budget net

let test_gadgets_oscillate () =
  List.iter
    (fun name ->
      let verdict, _ = classify (build name) in
      match verdict with
      | Stability.Oscillating { period; time_period; prefixes } ->
        check (name ^ ": positive period") true (period > 0);
        check (name ^ ": positive time period") true (time_period > 0.);
        check (name ^ ": gadget prefix affected") true
          (List.exists (Prefix.equal (case name).Stability.prefix) prefixes)
      | _ -> Alcotest.failf "%s must oscillate" name)
    [ "bad-gadget"; "med-oscillation"; "wiser-feedback" ]

let test_controls_converge () =
  List.iter
    (fun name ->
      let verdict, stats = classify (build name) in
      check (name ^ ": converged") true (converged verdict);
      check (name ^ ": queue actually drained") false stats.Network.exhausted)
    [ "good-gadget"; "relay-line"; "brite-30" ]

let test_classification_deterministic () =
  let run () = fst (classify (build "bad-gadget")) in
  let v1 = run () and v2 = run () in
  ( match (v1, v2) with
    | ( Stability.Oscillating { period = p1; time_period = t1; _ },
        Stability.Oscillating { period = p2; time_period = t2; _ } ) ->
      check_int "same period" p1 p2;
      check "same time period" true (t1 = t2)
    | _ -> Alcotest.fail "bad-gadget must oscillate on both runs" );
  let m1 = fst (classify (build "med-oscillation"))
  and m2 = fst (classify (build "med-oscillation")) in
  check "MED verdict reproducible" true (m1 = m2)

let test_report_matches_expectations () =
  (* The full lab, both damping arms: every verdict must agree with the
     case's expectation — a censored verdict is only acceptable where
     divergence is expected. *)
  let cases = Scenarios.divergence_cases ~seed:42 ~control_ases:30 () in
  let r = Stability.run_cases ~budget cases in
  check_int "two rows per case" (2 * List.length cases)
    (List.length r.Stability.rows);
  List.iter
    (fun (row : Stability.row) ->
      let case =
        List.find
          (fun (c : Stability.case) -> c.Stability.name = row.Stability.scenario)
          cases
      in
      let ok =
        match row.Stability.verdict with
        | Stability.Converged _ -> not case.Stability.expect_divergence
        | Stability.Oscillating _ | Stability.Censored _ ->
          case.Stability.expect_divergence
      in
      check (row.Stability.scenario ^ ": verdict matches expectation") true ok)
    r.Stability.rows

(* --------------- damping under policy-induced churn --------------- *)

let test_damping_suppresses_policy_churn () =
  (* No link ever flaps in the gadget: every withdrawal is policy-driven.
     Damping must still engage (suppressions), recover via reuse timers
     (reuses), and the oscillation must survive — slower, not cured. *)
  let undamped, row =
    match (Stability.run_cases ~budget [ case "bad-gadget" ]).Stability.rows with
    | [ off; on ] -> (off, on)
    | _ -> Alcotest.fail "one row per damping arm"
  in
  check "second row damped" true row.Stability.damping;
  check "policy churn reached suppression" true (row.Stability.suppressions > 0);
  check "reuse timers recovered suppressed routes" true
    (row.Stability.reuses > 0);
  check "damping does not cure the gadget" false
    (converged row.Stability.verdict);
  ( match (undamped.Stability.verdict, row.Stability.verdict) with
    | ( Stability.Oscillating { time_period = fast; _ },
        Stability.Oscillating { time_period = slow; _ } ) ->
      check "damping stretches the cycle" true (slow > fast)
    | _ -> () )

let test_damped_gadget_clock_advances () =
  (* Regression: the reuse timer must never pin the simulator clock.  Two
     historical fixed points — re-arming one event per suppressed peer
     state, and the decayed penalty landing a few ulps above the reuse
     threshold so time-to-reuse underflowed the float clock — both froze
     this exact run at a constant simulated time. *)
  let net = build "bad-gadget" () in
  Network.set_damping net (Some Stability.gadget_damping);
  let stats = Network.run ~max_events:3_000 net in
  check "budget exhausted (gadget still live)" true stats.Network.exhausted;
  check "simulated time advanced through many reuse cycles" true
    (Eq.now (Network.queue net)
    > 4. *. Stability.gadget_damping.Damping.half_life)

let test_damping_clock_exact_reuse_instant () =
  (* time_to_reuse solves for the instant the decayed penalty equals the
     reuse threshold; at precisely that instant the route must be
     reusable despite floating-point rounding in the decay. *)
  let p = { Damping.default with Damping.half_life = 10. } in
  let st = Damping.create () in
  Damping.penalize p st ~now:0. p.Damping.suppress_threshold;
  check "suppressed after the penalize" true (Damping.is_suppressed p st ~now:0.);
  let ttr = Damping.time_to_reuse p st ~now:0. in
  check "positive time to reuse" true (ttr > 0.);
  check "reusable at its own reuse instant" false
    (Damping.is_suppressed p st ~now:ttr);
  check_int "reuse recorded" 1 (Damping.reuses st)

let test_treat_as_withdraw_shares_damping_clock () =
  (* RFC 7606 treat-as-withdraw and an explicit policy withdrawal must
     charge the same penalty clock: same amount, same half-life decay. *)
  let mk () =
    let sp =
      Speaker.create
        (Speaker.config ~asn:(Asn.of_int 2)
           ~addr:(Ipv4.of_string "10.0.0.2") ())
    in
    let from =
      Dbgp_core.Peer.make ~asn:(Asn.of_int 1) ~addr:(Ipv4.of_string "10.0.0.1")
    in
    Speaker.add_neighbor sp
      (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
    Speaker.set_damping sp (Some Damping.default);
    let prefix = Prefix.of_string "99.0.0.0/24" in
    let ia =
      Dbgp_core.Ia.originate ~prefix ~origin_asn:(Asn.of_int 1)
        ~next_hop:(Ipv4.of_string "10.0.0.1") ()
    in
    ignore (Speaker.receive ~now:0. sp ~from (Speaker.Announce ia));
    (sp, from, prefix, ia)
  in
  let sp_w, from_w, prefix, _ = mk () in
  ignore (Speaker.receive ~now:1. sp_w ~from:from_w (Speaker.Withdraw prefix));
  let sp_c, from_c, _, ia = mk () in
  let wire = Dbgp_core.Codec.encode ia ^ "\x00" in
  let outcome, _ = Speaker.receive_wire ~now:1. sp_c ~from:from_c Dbgp_core.Codec.Announce wire in
  check "corrupted update treated as withdraw" true
    (outcome = Speaker.Rx_withdrawn);
  let pen_w = Speaker.For_tests.flap_penalty sp_w ~now:1. from_w prefix in
  let pen_c = Speaker.For_tests.flap_penalty sp_c ~now:1. from_c prefix in
  check "same charge on both paths" true (pen_w = pen_c && pen_w > 0.);
  (* One half-life later both clocks have decayed identically. *)
  let later = 1. +. Damping.default.Damping.half_life in
  let dec_w = Speaker.For_tests.flap_penalty sp_w ~now:later from_w prefix in
  check "half-life halves the penalty" true
    (Float.abs (dec_w -. (pen_w /. 2.)) < 1e-6);
  check "decay identical across paths" true
    (dec_w = Speaker.For_tests.flap_penalty sp_c ~now:later from_c prefix)

(* ------------------------- detector ------------------------- *)

let test_detector_quiet_on_convergence () =
  (* A converged control must produce no cycles even though the detector
     saw every Loc-RIB change of the dissemination. *)
  let net = build "relay-line" () in
  let d = Stability.attach net in
  ignore (Network.run ~max_events:budget net) |> ignore;
  let cs = Stability.cycles d ~end_time:(Eq.now (Network.queue net)) in
  Stability.detach d;
  check_int "no cycles on a converged run" 0 (List.length cs)

let test_detector_detach_unsubscribes () =
  let net = build "bad-gadget" () in
  let d = Stability.attach net in
  Stability.detach d;
  ignore (Network.run ~max_events:2_000 net);
  check_int "detached detector sees nothing" 0
    (List.length (Stability.cycles d ~end_time:(Eq.now (Network.queue net))))

let () =
  Alcotest.run "stability"
    [ ("dispute-wheel",
       [ Alcotest.test_case "bad gadget has a wheel" `Quick test_wheel_bad_gadget;
         Alcotest.test_case "good gadget is wheel-free" `Quick
           test_wheel_good_gadget;
         Alcotest.test_case "MED cluster has a wheel" `Quick test_wheel_med ]);
      ("classification",
       [ Alcotest.test_case "gadgets oscillate" `Quick test_gadgets_oscillate;
         Alcotest.test_case "controls converge" `Quick test_controls_converge;
         Alcotest.test_case "deterministic" `Quick
           test_classification_deterministic;
         Alcotest.test_case "report matches expectations" `Quick
           test_report_matches_expectations ]);
      ("damping",
       [ Alcotest.test_case "policy churn suppresses and recovers" `Quick
           test_damping_suppresses_policy_churn;
         Alcotest.test_case "damped gadget clock advances" `Quick
           test_damped_gadget_clock_advances;
         Alcotest.test_case "exact reuse instant" `Quick
           test_damping_clock_exact_reuse_instant;
         Alcotest.test_case "treat-as-withdraw shares the clock" `Quick
           test_treat_as_withdraw_shares_damping_clock ]);
      ("detector",
       [ Alcotest.test_case "quiet on convergence" `Quick
           test_detector_quiet_on_convergence;
         Alcotest.test_case "detach unsubscribes" `Quick
           test_detector_detach_unsubscribes ]) ]
