(* Tests for the fault-injection layer: the fault model itself, link
   failure/recovery semantics on the network harness, graceful restart,
   damping in the decision path, and the end-to-end seeded chaos runs. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Fault_model = Dbgp_netsim.Fault_model
module Eq = Dbgp_netsim.Event_queue
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Ia = Dbgp_core.Ia
module Damping = Dbgp_bgp.Flap_damping
module E = Dbgp_eval
module Chaos = Dbgp_eval.Chaos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let prefix = pfx "99.0.0.0/24"

let origin_ia n =
  Ia.originate ~prefix ~origin_asn:(asn n)
    ~next_hop:(Network.speaker_addr (asn n)) ()

(* A -- B -- C provider chain (A is C's grand-provider). *)
let chain () =
  let net = Network.create () in
  List.iter (fun n -> ignore (E.Harness.add_as net n)) [ 1; 2; 3 ];
  Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:Dbgp_bgp.Policy.To_customer ();
  Network.link net ~a:(asn 2) ~b:(asn 3) ~b_is:Dbgp_bgp.Policy.To_customer ();
  net

let best_at net n = Speaker.best (Network.speaker net (asn n)) prefix

(* ------------------------- fault model ------------------------- *)

let test_fault_model_deterministic () =
  let draws f = List.init 200 (fun _ -> Fault_model.drop f ~now:1. 1 2) in
  let f1 = Fault_model.create ~seed:5 () in
  Fault_model.set_loss f1 0.5;
  let f2 = Fault_model.create ~seed:5 () in
  Fault_model.set_loss f2 0.5;
  check "same seed, same drops" true (draws f1 = draws f2);
  check "drops roughly match probability" true
    (let d = Fault_model.dropped f1 in
     d > 50 && d < 150)

let test_fault_model_window () =
  let f = Fault_model.create ~seed:5 () in
  Fault_model.set_loss ~from:10. ~until:20. f 0.9;
  check "before window: never drops" false
    (List.exists Fun.id (List.init 50 (fun _ -> Fault_model.drop f ~now:9.9 1 2)));
  check "inside window: drops" true
    (List.exists Fun.id (List.init 50 (fun _ -> Fault_model.drop f ~now:15. 1 2)));
  check "after window: never drops" false
    (List.exists Fun.id (List.init 50 (fun _ -> Fault_model.drop f ~now:20. 1 2)))

let test_fault_model_per_link () =
  let f = Fault_model.create ~seed:5 () in
  Fault_model.set_link f ~a:1 ~b:2 ~loss:0.9 ~jitter:2.0 ();
  check "configured link drops" true
    (List.exists Fun.id (List.init 50 (fun _ -> Fault_model.drop f ~now:0. 2 1)));
  check "other links unaffected" false
    (List.exists Fun.id (List.init 50 (fun _ -> Fault_model.drop f ~now:0. 1 3)));
  check "jitter drawn within bound" true
    (let j = Fault_model.jitter f 1 2 in
     j >= 0. && j < 2.0);
  check "no jitter elsewhere" true (Fault_model.jitter f 1 3 = 0.)

let test_fault_model_validation () =
  let f = Fault_model.create ~seed:1 () in
  (* The closed interval is legal: 1.0 is a blackholed link, not an error. *)
  Fault_model.set_loss f 1.0;
  Fault_model.set_corruption f 1.0;
  Alcotest.check_raises "loss above 1 rejected"
    (Invalid_argument "Fault_model.set_loss: probability must be in [0, 1]")
    (fun () -> Fault_model.set_loss f 1.5);
  Alcotest.check_raises "negative loss rejected"
    (Invalid_argument "Fault_model.set_loss: probability must be in [0, 1]")
    (fun () -> Fault_model.set_loss f (-0.1));
  Alcotest.check_raises "per-link probability above 1 rejected"
    (Invalid_argument "Fault_model.set_link: probability must be in [0, 1]")
    (fun () -> Fault_model.set_link f ~a:1 ~b:2 ~loss:2.0 ())

let test_fault_model_blackhole () =
  (* loss = 1.0 must drop every message, deterministically. *)
  let f = Fault_model.create ~seed:3 () in
  Fault_model.set_loss f 1.0;
  check "every draw drops" true
    (List.for_all Fun.id (List.init 100 (fun _ -> Fault_model.drop f ~now:0. 1 2)));
  let net = chain () in
  Fault_model.set_loss f 1.0;
  Network.set_fault_model net f;
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  check "blackholed link: nothing converges" true (best_at net 2 = None)

let test_fault_model_mutate_deterministic () =
  let s = String.init 64 (fun i -> Char.chr (i * 3 land 0xFF)) in
  let muts seed =
    let f = Fault_model.create ~seed () in
    List.init 50 (fun _ -> Fault_model.mutate f s)
  in
  check "same seed, same mutations" true (muts 7 = muts 7);
  check "mutations actually damage bytes" true
    (List.exists (fun m -> m <> s) (muts 7))

(* ------------------------- link failure / recovery ------------------------- *)

let test_link_rejects_self_loop () =
  let net = Network.create () in
  ignore (E.Harness.add_as net 1);
  Alcotest.check_raises "self loop"
    (Invalid_argument "Network.link: cannot link an AS to itself") (fun () ->
      Network.link net ~a:(asn 1) ~b:(asn 1)
        ~b_is:Dbgp_bgp.Policy.To_peer ())

let test_fail_link_clears_pending_mrai () =
  (* A batch queued under MRAI before the failure must never be delivered
     once the link is down. *)
  let net = chain () in
  Network.set_mrai net 5.;
  Network.originate net (asn 1) (origin_ia 1);
  Eq.schedule_at (Network.queue net) ~time:2. (fun () ->
      Network.fail_link net (asn 1) (asn 2));
  let stats = Network.run net in
  check "announce never reached B" true (best_at net 2 = None);
  check "nothing leaked downstream" true (best_at net 3 = None);
  check_int "no control messages delivered" 0 stats.Network.messages

let test_recover_link_restores_routes () =
  let net = chain () in
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  check "C converged" true (best_at net 3 <> None);
  Network.fail_link net (asn 1) (asn 2);
  ignore (Network.run net);
  check "route withdrawn everywhere" true
    (best_at net 2 = None && best_at net 3 = None);
  check "link reported down" false (Network.link_up net (asn 1) (asn 2));
  Network.recover_link net (asn 1) (asn 2);
  ignore (Network.run net);
  check "link back up" true (Network.link_up net (asn 1) (asn 2));
  check "routes restored via refresh" true
    (best_at net 2 <> None && best_at net 3 <> None)

let test_recover_link_unknown_pair () =
  let net = chain () in
  Alcotest.check_raises "never linked"
    (Invalid_argument "Network.recover_link: link was never configured")
    (fun () -> Network.recover_link net (asn 1) (asn 3))

let test_schedule_flap_validation () =
  let net = chain () in
  Alcotest.check_raises "up before down"
    (Invalid_argument "Network.schedule_flap: up_at must follow down_at")
    (fun () ->
      Network.schedule_flap net ~down_at:10. ~up_at:10. (asn 1) (asn 2))

(* ------------------------- graceful restart ------------------------- *)

let test_graceful_restart_flushes_after_window () =
  let net = chain () in
  Network.set_graceful_restart net (Some 10.);
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  Network.fail_link net (asn 1) (asn 2);
  (* Stale marking is synchronous: the route survives, flagged stale. *)
  check "B retains the route during the window" true (best_at net 2 <> None);
  check "route is marked stale" true
    (Speaker.is_stale (Network.speaker net (asn 2)) (Network.peer_of net (asn 1)) prefix);
  check "stale accounted" true (Network.stale_total net > 0);
  (* Peer never returns: the window timer must flush. *)
  ignore (Network.run net);
  check "flushed after the window" true
    (best_at net 2 = None && best_at net 3 = None);
  check_int "no stale leak" 0 (Network.stale_total net)

let test_graceful_restart_peer_returns_in_window () =
  let net = chain () in
  Network.set_graceful_restart net (Some 10.);
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  let t0 = Eq.now (Network.queue net) in
  Network.schedule_flap net ~down_at:(t0 +. 1.) ~up_at:(t0 +. 4.) (asn 1) (asn 2);
  ignore (Network.run net);
  check "route survived the restart" true
    (best_at net 2 <> None && best_at net 3 <> None);
  check_int "stale marks all cleared" 0 (Network.stale_total net)

(* ------------------------- damping in the decision path ------------------------- *)

let damp_params =
  { Damping.half_life = 1.;
    suppress_threshold = 1500.;
    reuse_threshold = 500.;
    withdraw_penalty = 1000.;
    attr_change_penalty = 500.;
    max_penalty = 4000. }

let test_speaker_damping_suppress_and_reuse () =
  let sp =
    Speaker.create
      (Speaker.config ~asn:(asn 2) ~addr:(ip "10.0.0.2") ())
  in
  let from = Peer.make ~asn:(asn 1) ~addr:(ip "10.0.0.1") in
  Speaker.add_neighbor sp
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
  Speaker.set_damping sp (Some damp_params);
  let ia = Ia.originate ~prefix ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") () in
  let announce now = ignore (Speaker.receive ~now sp ~from (Speaker.Announce ia)) in
  let withdraw now = ignore (Speaker.receive ~now sp ~from (Speaker.Withdraw prefix)) in
  announce 0.;
  check "first announce selected" true (Speaker.best sp prefix <> None);
  withdraw 0.1;
  check "one flap: below suppression" false
    (Speaker.suppressed sp ~now:0.1 from prefix);
  announce 0.2;
  check "still selectable" true (Speaker.best sp prefix <> None);
  withdraw 0.3;
  check "second flap crosses the threshold" true
    (Speaker.suppressed sp ~now:0.3 from prefix);
  (* The flapping route is now invisible to selection. *)
  announce 0.4;
  check "suppressed announce not selected" true (Speaker.best sp prefix = None);
  let reuse = Speaker.take_reuse_events sp in
  check "reuse obligation queued" true (reuse <> []);
  let _, at = List.hd reuse in
  check "reuse scheduled in the future" true (at > 0.3);
  ignore (Speaker.reevaluate ~now:(at +. 0.1) sp prefix);
  check "released after penalty decay" true (Speaker.best sp prefix <> None)

let test_network_damping_suppresses_flapping_link () =
  let net = chain () in
  Network.set_damping net (Some damp_params);
  Network.originate net (asn 1) (origin_ia 1);
  ignore (Network.run net);
  let t0 = Eq.now (Network.queue net) in
  (* Flap the A-B link twice in quick succession: each cycle makes B send
     C a withdrawal, so C charges a withdraw penalty per flap, suppresses,
     and must recover via its reuse timer (serviced by the event loop). *)
  Network.schedule_flap net ~down_at:(t0 +. 1.) ~up_at:(t0 +. 2.) (asn 1) (asn 2);
  Network.schedule_flap net ~down_at:(t0 +. 3.) ~up_at:(t0 +. 4.) (asn 1) (asn 2);
  ignore (Network.run net);
  let c = Network.speaker net (asn 3) in
  check "penalty was charged at C" true
    (Speaker.For_tests.flap_penalty c ~now:(Eq.now (Network.queue net))
       (Network.peer_of net (asn 2)) prefix > 0.);
  check "route recovered once damping released" true
    (best_at net 2 <> None && best_at net 3 <> None);
  check_int "no stale leak" 0 (Network.stale_total net)

(* --------------- corrupted triggers (RFC 7606 interplay) --------------- *)

let counter_of sp name =
  match Dbgp_obs.Metrics.find_counter (Speaker.metrics sp) name with
  | Some c -> Dbgp_obs.Metrics.count c
  | None -> 0

let solo_speaker () =
  let sp =
    Speaker.create (Speaker.config ~asn:(asn 2) ~addr:(ip "10.0.0.2") ())
  in
  let from = Peer.make ~asn:(asn 1) ~addr:(ip "10.0.0.1") in
  Speaker.add_neighbor sp
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
  (sp, from)

let valid_ia () =
  Ia.originate ~prefix ~origin_asn:(asn 1) ~next_hop:(ip "10.0.0.1") ()

let test_graceful_restart_corrupted_refresh () =
  (* Peer restarts; its post-restart refresh arrives corrupted.  RFC 7606
     treat-as-withdraw is still an update for the prefix, so it must clear
     the stale mark (no leak) and withdraw the route. *)
  let sp, from = solo_speaker () in
  let ia = valid_ia () in
  ignore (Speaker.receive ~now:0. sp ~from (Speaker.Announce ia));
  Speaker.peer_down_graceful ~now:1. sp from;
  check "stale marked" true (Speaker.is_stale sp from prefix);
  let wire = Dbgp_core.Codec.encode ia ^ "\xde\xad" in
  let outcome, _ = Speaker.receive_wire ~now:2. sp ~from Dbgp_core.Codec.Announce wire in
  check "treated as withdraw" true (outcome = Speaker.Rx_withdrawn);
  check "stale mark cleared" false (Speaker.is_stale sp from prefix);
  check_int "no stale leak" 0 (Speaker.stale_count sp);
  check "route withdrawn" true (Speaker.best sp prefix = None);
  check_int "verdict accounted" 1 (counter_of sp "errors.treat_as_withdraw")

let test_corrupted_update_charges_damping () =
  (* A corrupted flap is still a flap: treat-as-withdraw must start the
     damping penalty clock exactly like an explicit withdrawal would. *)
  let sp, from = solo_speaker () in
  Speaker.set_damping sp (Some damp_params);
  let ia = valid_ia () in
  ignore (Speaker.receive ~now:0. sp ~from (Speaker.Announce ia));
  check "no penalty after clean announce" true
    (Speaker.For_tests.flap_penalty sp ~now:0. from prefix = 0.);
  let wire = Dbgp_core.Codec.encode ia ^ "\x00" in
  let outcome, _ = Speaker.receive_wire ~now:0.1 sp ~from Dbgp_core.Codec.Announce wire in
  check "treated as withdraw" true (outcome = Speaker.Rx_withdrawn);
  check "penalty clock started" true
    (Speaker.For_tests.flap_penalty sp ~now:0.1 from prefix > 0.);
  (* Two more corrupted cycles push the route over the suppress line. *)
  ignore (Speaker.receive ~now:0.2 sp ~from (Speaker.Announce ia));
  ignore (Speaker.receive_wire ~now:0.3 sp ~from Dbgp_core.Codec.Announce wire);
  check "corrupted flaps suppress" true
    (Speaker.suppressed sp ~now:0.3 from prefix)

(* ------------------------- end-to-end chaos ------------------------- *)

let chaos_cfg = { Chaos.default with Chaos.ases = 50; seed = 9 }

let test_chaos_run_healthy () =
  let r = Chaos.run chaos_cfg in
  check "at least 3 links flapped" true (List.length r.Chaos.flapped >= 3);
  check "reconverged" true r.Chaos.reconverged;
  check_int "zero stale leaks" 0 r.Chaos.stale_leaks;
  check_int "no forwarding loops" 0 r.Chaos.forwarding_loops;
  check "flapped sessions all restored" true r.Chaos.sessions_restored;
  check "healthy" true (Chaos.healthy r)

let test_chaos_run_deterministic () =
  let r1 = Chaos.run chaos_cfg in
  let r2 = Chaos.run chaos_cfg in
  check "same seed, same flap schedule" true (r1.Chaos.flapped = r2.Chaos.flapped);
  check "same seed, identical stats" true
    (r1.Chaos.initial = r2.Chaos.initial && r1.Chaos.final = r2.Chaos.final);
  check "same seed, same drop count" true (r1.Chaos.dropped = r2.Chaos.dropped)

let test_chaos_corruption_accounted () =
  (* Force enough wire corruption that injections certainly occur, and
     demand the run stays healthy: every verdict counted, invariants hold. *)
  let r = Chaos.run { chaos_cfg with Chaos.corruption = 0.3 } in
  check "corruption injected" true (r.Chaos.corrupted > 0);
  check "verdicts cover every error class" true
    (List.length r.Chaos.error_verdicts
    = List.length Dbgp_core.Errors.all_classes);
  check "verdicts issued for corrupted updates" true
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Chaos.error_verdicts
     + r.Chaos.corruption_survived
    > 0);
  check "invariants hold under corruption" true
    (E.Invariants.ok r.Chaos.invariants);
  check "still healthy" true (Chaos.healthy r)

let test_chaos_budget_censors () =
  (* A full run needs thousands of events; 50 cannot even converge the
     initial dissemination.  The report must say so — censored, never
     healthy — rather than presenting the truncation point as a verdict. *)
  let r = Chaos.run { chaos_cfg with Chaos.budget = Some 50 } in
  check "initial phase exhausted its budget" true
    r.Chaos.initial.Network.exhausted;
  check "report censored" true r.Chaos.censored;
  check "censored run is never healthy" false (Chaos.healthy r);
  (* The same config without the cap quiesces and is healthy — the
     verdict flip is attributable to the budget alone. *)
  let full = Chaos.run chaos_cfg in
  check "uncapped run not censored" false full.Chaos.censored;
  check "uncapped run healthy" true (Chaos.healthy full)

let test_convergence_budget_censors () =
  let capped = E.Convergence.observe ~ases:40 ~budget:25 ~seed:7 () in
  check "capped observe censored" true capped.E.Convergence.censored;
  let full = E.Convergence.observe ~ases:40 ~seed:7 () in
  check "uncapped observe not censored" false full.E.Convergence.censored;
  check "censoring visibly truncates the run" true
    (capped.E.Convergence.messages < full.E.Convergence.messages);
  (* A budget generous enough to reach quiescence must not censor. *)
  let roomy = E.Convergence.observe ~ases:40 ~budget:1_000_000 ~seed:7 () in
  check "roomy budget not censored" false roomy.E.Convergence.censored;
  check "roomy budget matches the uncapped run" true
    (roomy.E.Convergence.messages = full.E.Convergence.messages)

let test_chaos_seeds_vary () =
  let r1 = Chaos.run chaos_cfg in
  let r2 = Chaos.run { chaos_cfg with Chaos.seed = 10 } in
  (* Different seeds still satisfy the invariants... *)
  check "other seed healthy too" true (Chaos.healthy r2);
  (* ...but produce a genuinely different run. *)
  check "different runs" true
    (r1.Chaos.flapped <> r2.Chaos.flapped
    || r1.Chaos.final <> r2.Chaos.final)

let () =
  Alcotest.run "chaos"
    [ ("fault-model",
       [ Alcotest.test_case "deterministic" `Quick test_fault_model_deterministic;
         Alcotest.test_case "loss window" `Quick test_fault_model_window;
         Alcotest.test_case "per-link overrides" `Quick test_fault_model_per_link;
         Alcotest.test_case "validation" `Quick test_fault_model_validation;
         Alcotest.test_case "blackhole at loss 1.0" `Quick
           test_fault_model_blackhole;
         Alcotest.test_case "mutate deterministic" `Quick
           test_fault_model_mutate_deterministic ]);
      ("links",
       [ Alcotest.test_case "self-loop rejected" `Quick test_link_rejects_self_loop;
         Alcotest.test_case "fail clears MRAI batch" `Quick
           test_fail_link_clears_pending_mrai;
         Alcotest.test_case "recover restores routes" `Quick
           test_recover_link_restores_routes;
         Alcotest.test_case "recover unknown pair" `Quick
           test_recover_link_unknown_pair;
         Alcotest.test_case "flap validation" `Quick test_schedule_flap_validation ]);
      ("graceful-restart",
       [ Alcotest.test_case "flush after window" `Quick
           test_graceful_restart_flushes_after_window;
         Alcotest.test_case "peer returns in window" `Quick
           test_graceful_restart_peer_returns_in_window ]);
      ("damping",
       [ Alcotest.test_case "speaker suppress/reuse" `Quick
           test_speaker_damping_suppress_and_reuse;
         Alcotest.test_case "flapping link suppressed" `Quick
           test_network_damping_suppresses_flapping_link ]);
      ("corrupted-triggers",
       [ Alcotest.test_case "graceful restart, corrupted refresh" `Quick
           test_graceful_restart_corrupted_refresh;
         Alcotest.test_case "corrupted update charges damping" `Quick
           test_corrupted_update_charges_damping ]);
      ("chaos",
       [ Alcotest.test_case "healthy run" `Quick test_chaos_run_healthy;
         Alcotest.test_case "deterministic" `Quick test_chaos_run_deterministic;
         Alcotest.test_case "corruption accounted" `Quick
           test_chaos_corruption_accounted;
         Alcotest.test_case "budget exhaustion censors" `Quick
           test_chaos_budget_censors;
         Alcotest.test_case "convergence budget censors" `Quick
           test_convergence_budget_censors;
         Alcotest.test_case "seeds vary" `Quick test_chaos_seeds_vary ]) ]
