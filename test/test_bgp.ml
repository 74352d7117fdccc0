open Dbgp_types
module Attr = Dbgp_bgp.Attr
module Message = Dbgp_bgp.Message
module Decision = Dbgp_bgp.Decision
module Policy = Dbgp_bgp.Policy
module Fsm = Dbgp_bgp.Fsm
module W = Dbgp_wire.Writer
module R = Dbgp_wire.Reader

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string

let attrs ?med ?local_pref ?(origin = Attr.Igp) ?(communities = [])
    ?(unknowns = []) path =
  Attr.make ~origin ?med ?local_pref ~communities ~unknowns
    ~as_path:[ Attr.Seq (List.map asn path) ]
    ~next_hop:(ip "10.0.0.1") ()

(* ------------------------- Attr ------------------------- *)

let test_attr_roundtrip () =
  let a =
    Attr.make ~origin:Attr.Egp ~med:30 ~local_pref:150 ~atomic_aggregate:true
      ~aggregator:(asn 100, ip "1.1.1.1")
      ~communities:[ Attr.community ~asn:65000 ~value:42 ]
      ~unknowns:[ { Attr.type_code = 99; transitive = true; body = "blob" } ]
      ~as_path:[ Attr.Seq [ asn 1; asn 2 ]; Attr.Set [ asn 3; asn 4 ] ]
      ~next_hop:(ip "9.9.9.9") ()
  in
  let w = W.create () in
  Attr.encode w a;
  let b = Attr.decode (R.of_string (W.contents w)) in
  check "roundtrip equal" true (Attr.equal a b)

let test_attr_path_length () =
  let a = attrs [ 1; 2; 3 ] in
  check_int "seq" 3 (Attr.as_path_length a.Attr.as_path);
  let withset = [ Attr.Seq [ asn 1 ]; Attr.Set [ asn 2; asn 3; asn 4 ] ] in
  check_int "set counts one" 2 (Attr.as_path_length withset)

let test_attr_prepend () =
  let a = attrs [ 2; 3 ] in
  let p = Attr.prepend (asn 1) a.Attr.as_path in
  check "prepended" true (Attr.as_path_asns p = [ asn 1; asn 2; asn 3 ]);
  let onto_set = Attr.prepend (asn 1) [ Attr.Set [ asn 2 ] ] in
  check "new seq before set" true
    (match onto_set with Attr.Seq [ x ] :: Attr.Set _ :: [] -> Asn.equal x (asn 1) | _ -> false)

let test_attr_contains () =
  let a = attrs [ 10; 20 ] in
  check "contains" true (Attr.as_path_contains (asn 20) a.Attr.as_path);
  check "not contains" false (Attr.as_path_contains (asn 30) a.Attr.as_path)

let test_community_encoding () =
  let c = Attr.community ~asn:65000 ~value:10 in
  check_int "packed" ((65000 lsl 16) lor 10) c;
  Alcotest.check_raises "range" (Invalid_argument "Attr.community: halves must fit 16 bits")
    (fun () -> ignore (Attr.community ~asn:70000 ~value:0))

(* ------------------------- Message ------------------------- *)

let roundtrip m = Message.decode (Message.encode m)

let test_msg_open () =
  let o =
    Message.Open
      { Message.version = 4; my_asn = asn 65001; hold_time = 90;
        bgp_id = ip "10.0.0.1"; capabilities = [ Message.capability_dbgp ] }
  in
  check "open roundtrip" true (roundtrip o = o)

let test_msg_update () =
  let u =
    Message.Update
      { Message.withdrawn = [ pfx "10.1.0.0/16" ];
        attrs = Some (attrs [ 1; 2 ]);
        nlri = [ pfx "10.2.0.0/16"; pfx "10.3.0.0/24" ] }
  in
  check "update roundtrip" true (roundtrip u = u);
  let w_only =
    Message.Update { Message.withdrawn = [ pfx "1.0.0.0/8" ]; attrs = None; nlri = [] }
  in
  check "withdraw-only roundtrip" true (roundtrip w_only = w_only)

let test_msg_keepalive_notification () =
  check "keepalive" true (roundtrip Message.Keepalive = Message.Keepalive);
  let n = Message.Notification { Message.error_code = 6; error_subcode = 2; data = "bye" } in
  check "notification" true (roundtrip n = n)

let test_msg_malformed () =
  let fails s = try ignore (Message.decode s) ; false with R.Error _ -> true in
  check "bad marker" true (fails (String.make 19 '\x00'));
  check "truncated" true (fails "\xff\xff");
  let good = Message.encode Message.Keepalive in
  let tampered = String.sub good 0 (String.length good - 1) ^ "\x07" in
  check "bad type" true (fails (String.sub tampered 0 18 ^ "\x09"))

let test_msg_length_field () =
  let m = Message.encode Message.Keepalive in
  check_int "keepalive is 19 bytes" 19 (String.length m);
  let fails s = try ignore (Message.decode s) ; false with R.Error _ -> true in
  check "length mismatch" true (fails (m ^ "extra"))

(* ------------------------- Decision ------------------------- *)

let cand ?(peer = "10.0.0.9") ?(from = 200) ?(ebgp = true) a =
  { Decision.attrs = a; from_peer = ip peer; from_asn = asn from; ebgp }

let test_decision_local_pref () =
  let hi = cand (attrs ~local_pref:200 [ 1; 2; 3; 4 ]) in
  let lo = cand (attrs ~local_pref:100 [ 1 ]) in
  check "local pref dominates length" true (Decision.compare hi lo > 0)

let test_decision_path_length () =
  let short = cand (attrs [ 1; 2 ]) in
  let long = cand (attrs [ 1; 2; 3 ]) in
  check "shorter wins" true (Decision.compare short long > 0)

let test_decision_origin () =
  let igp = cand (attrs ~origin:Attr.Igp [ 1; 2 ]) in
  let egp = cand (attrs ~origin:Attr.Egp [ 1; 2 ]) in
  let inc = cand (attrs ~origin:Attr.Incomplete [ 1; 2 ]) in
  check "igp > egp" true (Decision.compare igp egp > 0);
  check "egp > incomplete" true (Decision.compare egp inc > 0)

let test_decision_med () =
  let a = cand ~from:100 (attrs ~med:10 [ 1; 2 ]) in
  let b = cand ~from:100 ~peer:"10.0.0.8" (attrs ~med:20 [ 1; 2 ]) in
  check "lower med same neighbor" true (Decision.compare a b > 0);
  let c = cand ~from:101 ~peer:"10.0.0.8" (attrs ~med:20 [ 1; 2 ]) in
  (* different neighbor AS: MED skipped, falls to ebgp tie then peer id *)
  check "med not compared across ASes" true (Decision.compare a c < 0)

let test_decision_ebgp_peer () =
  let e = cand ~ebgp:true (attrs [ 1; 2 ]) in
  let i = cand ~ebgp:false ~peer:"10.0.0.1" (attrs [ 1; 2 ]) in
  check "ebgp over ibgp" true (Decision.compare e i > 0);
  let p1 = cand ~peer:"10.0.0.1" (attrs [ 1; 2 ]) in
  let p2 = cand ~peer:"10.0.0.2" (attrs [ 1; 2 ]) in
  check "lower peer id wins" true (Decision.compare p1 p2 > 0)

let test_decision_best_rank () =
  let c1 = cand ~peer:"10.0.0.3" (attrs [ 1; 2; 3 ]) in
  let c2 = cand ~peer:"10.0.0.2" (attrs [ 1; 2 ]) in
  let c3 = cand ~peer:"10.0.0.1" (attrs ~local_pref:300 [ 1; 2; 3; 4; 5 ]) in
  check "best is highest lp" true (Decision.best [ c1; c2; c3 ] = Some c3);
  check "empty none" true (Decision.best [] = None);
  let ranked = Decision.rank [ c1; c2; c3 ] in
  check "rank order" true (ranked = [ c3; c2; c1 ])

(* ------------------------- Policy ------------------------- *)

let test_policy_first_match () =
  let pol =
    [ { Policy.cond = Policy.Match_prefix (pfx "10.0.0.0/8"); permit = false; actions = [] };
      { Policy.cond = Policy.Match_any; permit = true; actions = [ Policy.Set_med 5 ] } ]
  in
  check "denied" true (Policy.apply pol (pfx "10.1.0.0/16") (attrs [ 1 ]) = None);
  ( match Policy.apply pol (pfx "11.0.0.0/8") (attrs [ 1 ]) with
    | Some a -> check "action applied" true (a.Attr.med = Some 5)
    | None -> Alcotest.fail "should permit" );
  check "implicit deny" true (Policy.apply [] (pfx "1.0.0.0/8") (attrs [ 1 ]) = None)

let test_policy_matchers () =
  let a = attrs ~communities:[ Attr.community ~asn:1 ~value:2 ] [ 7; 8 ] in
  let m c = Policy.apply [ { Policy.cond = c; permit = true; actions = [] } ] (pfx "9.0.0.0/8") a <> None in
  check "asn on path" true (m (Policy.Match_asn_on_path (asn 8)));
  check "asn absent" false (m (Policy.Match_asn_on_path (asn 9)));
  check "community" true (m (Policy.Match_community (Attr.community ~asn:1 ~value:2)));
  check "not" true (m (Policy.Match_not (Policy.Match_asn_on_path (asn 9))));
  check "all" true
    (m (Policy.Match_all [ Policy.Match_any; Policy.Match_asn_on_path (asn 7) ]))

let test_policy_actions () =
  let a = attrs [ 5 ] in
  let run acts =
    match
      Policy.apply [ { Policy.cond = Policy.Match_any; permit = true; actions = acts } ]
        (pfx "9.0.0.0/8") a
    with
    | Some x -> x
    | None -> Alcotest.fail "permit expected"
  in
  check "set lp" true ((run [ Policy.Set_local_pref 300 ]).Attr.local_pref = Some 300);
  check_int "prepend twice" 3
    (Attr.as_path_length (run [ Policy.Prepend (asn 5, 2) ]).Attr.as_path);
  check "strip communities" true
    ((run [ Policy.Add_community 7; Policy.Strip_communities ]).Attr.communities = [])

let test_policy_gao_rexford () =
  let export learned to_ = Policy.valley_free ~learned ~to_ in
  check "customer routes exported everywhere" true
    (export (Some Policy.To_customer) Policy.To_peer);
  check "peer routes not to peers" false
    (export (Some Policy.To_peer) Policy.To_peer);
  check "peer routes to customers" true
    (export (Some Policy.To_peer) Policy.To_customer);
  check "local routes everywhere" true (export None Policy.To_provider)

(* ------------------------- FSM ------------------------- *)

let cfg =
  { Fsm.my_asn = asn 65001; my_id = ip "10.0.0.1"; hold_time = 90;
    capabilities = [ Message.capability_dbgp ] }

let peer_open : Message.open_msg =
  { Message.version = 4; my_asn = asn 65002; hold_time = 30;
    bgp_id = ip "10.0.0.2"; capabilities = [] }

let drive t evs = List.fold_left (fun (t, _) ev -> Fsm.handle t ev) (t, []) evs

let test_fsm_happy_path () =
  let t = Fsm.create cfg in
  check "starts idle" true (Fsm.state t = Fsm.Idle);
  let t, acts = Fsm.handle t Fsm.Manual_start in
  check "connecting" true (Fsm.state t = Fsm.Connect);
  check "wants tcp" true (List.mem Fsm.Connect_tcp acts);
  let t, acts = Fsm.handle t Fsm.Tcp_established in
  check "open sent" true (Fsm.state t = Fsm.Open_sent);
  check "sent open" true
    (List.exists (function Fsm.Send (Message.Open _) -> true | _ -> false) acts);
  let t, acts = Fsm.handle t (Fsm.Recv (Message.Open peer_open)) in
  check "open confirm" true (Fsm.state t = Fsm.Open_confirm);
  check "sent keepalive" true (List.mem (Fsm.Send Message.Keepalive) acts);
  let t, acts = Fsm.handle t (Fsm.Recv Message.Keepalive) in
  check "established" true (Fsm.state t = Fsm.Established);
  check "session up" true
    (List.exists (function Fsm.Session_up _ -> true | _ -> false) acts);
  check "negotiated min hold" true (List.mem (Fsm.Start_hold_timer 30) acts)

let established () =
  fst
    (drive (Fsm.create cfg)
       [ Fsm.Manual_start; Fsm.Tcp_established;
         Fsm.Recv (Message.Open peer_open); Fsm.Recv Message.Keepalive ])

let test_fsm_update_delivery () =
  let t = established () in
  let u = { Message.withdrawn = []; attrs = Some (attrs [ 1 ]); nlri = [ pfx "1.0.0.0/8" ] } in
  let t', acts = Fsm.handle t (Fsm.Recv (Message.Update u)) in
  check "still established" true (Fsm.state t' = Fsm.Established);
  check "delivered" true (List.mem (Fsm.Deliver_update u) acts);
  check "hold timer restarted" true
    (List.exists (function Fsm.Start_hold_timer _ -> true | _ -> false) acts)

let test_fsm_hold_expiry () =
  let t = established () in
  let t', acts = Fsm.handle t Fsm.Hold_timer_expired in
  check "reset to idle" true (Fsm.state t' = Fsm.Idle);
  check "session down" true (List.mem Fsm.Session_down acts);
  check "notified" true
    (List.exists (function Fsm.Send (Message.Notification _) -> true | _ -> false) acts)

let test_fsm_bad_version () =
  let t, _ = drive (Fsm.create cfg) [ Fsm.Manual_start; Fsm.Tcp_established ] in
  let t', acts = Fsm.handle t (Fsm.Recv (Message.Open { peer_open with Message.version = 3 })) in
  check "rejected to idle" true (Fsm.state t' = Fsm.Idle);
  check "open error" true
    (List.exists
       (function Fsm.Send (Message.Notification n) -> n.Message.error_code = 2 | _ -> false)
       acts)

let test_fsm_stop () =
  let t = established () in
  let t', acts = Fsm.handle t Fsm.Manual_stop in
  check "idle" true (Fsm.state t' = Fsm.Idle);
  check "cease sent" true
    (List.exists
       (function Fsm.Send (Message.Notification n) -> n.Message.error_code = 6 | _ -> false)
       acts)

let test_fsm_keepalive_cycle () =
  let t = established () in
  let _, acts = Fsm.handle t Fsm.Keepalive_timer_expired in
  check "keepalive sent and rearmed" true
    (List.mem (Fsm.Send Message.Keepalive) acts
    && List.exists (function Fsm.Start_keepalive_timer _ -> true | _ -> false) acts)

let test_fsm_unexpected_open_in_established () =
  let t = established () in
  let t', _ = Fsm.handle t (Fsm.Recv (Message.Open peer_open)) in
  check "fsm error resets" true (Fsm.state t' = Fsm.Idle)

let test_fsm_zero_hold_time () =
  (* hold time 0 disables keepalive/hold machinery entirely *)
  let z = { cfg with Fsm.hold_time = 0 } in
  let t, _ =
    drive (Fsm.create z)
      [ Fsm.Manual_start; Fsm.Tcp_established;
        Fsm.Recv (Message.Open { peer_open with Message.hold_time = 0 }) ]
  in
  let t, acts = Fsm.handle t (Fsm.Recv Message.Keepalive) in
  check "established" true (Fsm.state t = Fsm.Established);
  check "no timers armed" false
    (List.exists
       (function Fsm.Start_hold_timer _ | Fsm.Start_keepalive_timer _ -> true | _ -> false)
       acts)

(* ------------------------- connect-retry backoff ------------------------- *)

let no_jitter =
  { Fsm.base = 1.0; multiplier = 2.0; max_delay = 8.0; max_retries = 10;
    jitter = 0.; seed = 1 }

(* Fail [n] connection attempts in a row and collect the armed delays. *)
let backoff_delays t n =
  let rec go t acc k =
    if k = 0 then (t, acc)
    else
      let t, _ = Fsm.handle t Fsm.Connect_retry_expired in
      let t, acts = Fsm.handle t Fsm.Tcp_failed in
      let ds =
        List.filter_map
          (function Fsm.Start_connect_retry_timer d -> Some d | _ -> None)
          acts
      in
      (* No timer armed means the FSM gave up: the runtime would never
         deliver another Connect_retry_expired, so stop driving. *)
      if ds = [] then (t, acc) else go t (acc @ ds) (k - 1)
  in
  let t, acts = Fsm.handle t Fsm.Manual_start in
  assert (List.mem Fsm.Connect_tcp acts);
  let t, acts = Fsm.handle t Fsm.Tcp_failed in
  let first =
    List.filter_map
      (function Fsm.Start_connect_retry_timer d -> Some d | _ -> None)
      acts
  in
  go t first (n - 1)

let test_fsm_backoff_schedule () =
  (* Without jitter the schedule is exactly base * multiplier^n, capped. *)
  let _, ds = backoff_delays (Fsm.create ~retry:no_jitter cfg) 6 in
  Alcotest.(check (list (float 1e-9)))
    "exponential, capped at max_delay" [ 1.; 2.; 4.; 8.; 8.; 8. ] ds

let test_fsm_backoff_deterministic () =
  let jittered = { no_jitter with Fsm.jitter = 0.25; seed = 7 } in
  let _, d1 = backoff_delays (Fsm.create ~retry:jittered cfg) 5 in
  let _, d2 = backoff_delays (Fsm.create ~retry:jittered cfg) 5 in
  Alcotest.(check (list (float 0.))) "same seed, same schedule" d1 d2;
  List.iteri
    (fun i d ->
      let base = Float.min 8.0 (2.0 ** float_of_int i) in
      check "jitter within [d, 1.25d]" true (d >= base && d <= 1.25 *. base))
    d1

let test_fsm_backoff_max_retries () =
  let capped = { no_jitter with Fsm.max_retries = 3 } in
  let t, ds = backoff_delays (Fsm.create ~retry:capped cfg) 5 in
  check_int "gives up after the cap" 3 (List.length ds);
  check "parked in idle" true (Fsm.state t = Fsm.Idle);
  check_int "attempt counter reset on giving up" 0 (Fsm.attempts t)

let test_fsm_backoff_resets_on_established () =
  let t = Fsm.create ~retry:no_jitter cfg in
  let t, _ = drive t [ Fsm.Manual_start; Fsm.Tcp_failed ] in
  check_int "one attempt recorded" 1 (Fsm.attempts t);
  let t, _ =
    drive t
      [ Fsm.Connect_retry_expired; Fsm.Tcp_established;
        Fsm.Recv (Message.Open peer_open); Fsm.Recv Message.Keepalive ]
  in
  check "re-established via retry" true (Fsm.state t = Fsm.Established);
  check_int "attempts cleared" 0 (Fsm.attempts t);
  (* The next failure starts the schedule from the base delay again. *)
  let _, acts = Fsm.handle t Fsm.Tcp_failed in
  check "restarts from base delay" true
    (List.mem (Fsm.Start_connect_retry_timer 1.0) acts)

let test_fsm_manual_stop_cancels_retry () =
  let t = Fsm.create ~retry:no_jitter cfg in
  let t, _ = drive t [ Fsm.Manual_start; Fsm.Tcp_failed ] in
  let t, acts = Fsm.handle t Fsm.Manual_stop in
  check "stop action emitted" true (List.mem Fsm.Stop_connect_retry_timer acts);
  check_int "attempts cleared" 0 (Fsm.attempts t);
  (* A stale expiry after the stop is ignored once re-established. *)
  let t, _ = Fsm.handle t Fsm.Tcp_established in
  check "passive open still works" true (Fsm.state t = Fsm.Open_sent)

(* Hold-timer expiry must tear down (or no-op) in every non-Idle state;
   before the fault work only Established was exercised. *)
let test_fsm_hold_expiry_all_states () =
  let connect, _ = drive (Fsm.create cfg) [ Fsm.Manual_start ] in
  let t', acts = Fsm.handle connect Fsm.Hold_timer_expired in
  check "connect: spurious expiry ignored" true
    (Fsm.state t' = Fsm.Connect && acts = []);
  let open_sent, _ =
    drive (Fsm.create cfg) [ Fsm.Manual_start; Fsm.Tcp_established ]
  in
  let t', acts = Fsm.handle open_sent Fsm.Hold_timer_expired in
  check "open_sent: reset with notification" true
    (Fsm.state t' = Fsm.Idle
    && List.exists
         (function
           | Fsm.Send (Message.Notification n) -> n.Message.error_code = 4
           | _ -> false)
         acts);
  let open_confirm, _ =
    drive (Fsm.create cfg)
      [ Fsm.Manual_start; Fsm.Tcp_established;
        Fsm.Recv (Message.Open peer_open) ]
  in
  let t', acts = Fsm.handle open_confirm Fsm.Hold_timer_expired in
  check "open_confirm: reset with notification" true
    (Fsm.state t' = Fsm.Idle
    && List.exists
         (function
           | Fsm.Send (Message.Notification n) -> n.Message.error_code = 4
           | _ -> false)
         acts);
  let t', acts = Fsm.handle (established ()) Fsm.Hold_timer_expired in
  check "established: session down" true
    (Fsm.state t' = Fsm.Idle && List.mem Fsm.Session_down acts)

(* ------------------------- flap damping ------------------------- *)

module Damping = Dbgp_bgp.Flap_damping

let damp_params =
  { Damping.half_life = 1.;
    suppress_threshold = 1500.;
    reuse_threshold = 500.;
    withdraw_penalty = 1000.;
    attr_change_penalty = 500.;
    max_penalty = 4000. }

let test_damping_validate () =
  check "default valid" true (Damping.validate Damping.default == Damping.default);
  Alcotest.check_raises "reuse above suppress"
    (Invalid_argument
       "Flap_damping: need 0 < reuse_threshold < suppress_threshold")
    (fun () ->
      ignore
        (Damping.validate
           { damp_params with Damping.reuse_threshold = 2000. }))

let test_damping_decay () =
  let st = Damping.create () in
  Damping.penalize damp_params st ~now:0. 1000.;
  Alcotest.(check (float 1e-6)) "initial" 1000.
    (Damping.penalty damp_params st ~now:0.);
  Alcotest.(check (float 1e-6)) "one half-life" 500.
    (Damping.penalty damp_params st ~now:1.);
  Alcotest.(check (float 1e-6)) "two half-lives" 250.
    (Damping.penalty damp_params st ~now:2.)

let test_damping_suppress_reuse_crossing () =
  let st = Damping.create () in
  Damping.penalize damp_params st ~now:0. 1000.;
  check "below threshold" false (Damping.is_suppressed damp_params st ~now:0.);
  Damping.penalize damp_params st ~now:0. 1000.;
  check "crossed into suppression" true
    (Damping.is_suppressed damp_params st ~now:0.);
  let ttr = Damping.time_to_reuse damp_params st ~now:0. in
  Alcotest.(check (float 1e-6)) "reuse time = hl * log2(p/reuse)" 2. ttr;
  check "still suppressed just before reuse" true
    (Damping.is_suppressed damp_params st ~now:(ttr -. 0.01));
  check "released after reuse time" false
    (Damping.is_suppressed damp_params st ~now:(ttr +. 0.01))

let test_damping_penalty_cap () =
  let st = Damping.create () in
  for _ = 1 to 20 do
    Damping.penalize damp_params st ~now:0. 1000.
  done;
  Alcotest.(check (float 1e-6)) "capped at max_penalty" 4000.
    (Damping.penalty damp_params st ~now:0.);
  check_int "every flap counted" 20 (Damping.flaps st)

let test_attr_unknown_flags () =
  let a =
    attrs
      ~unknowns:
        [ { Attr.type_code = 200; transitive = true; body = "t" };
          { Attr.type_code = 201; transitive = false; body = "n" } ]
      [ 1 ]
  in
  let w = W.create () in
  Attr.encode w a;
  let b = Attr.decode (R.of_string (W.contents w)) in
  check "transitivity bits survive the wire" true
    (List.map (fun (u : Attr.unknown) -> (u.Attr.type_code, u.Attr.transitive)) b.Attr.unknowns
    = [ (200, true); (201, false) ])

let qcheck =
  let open QCheck in
  [ Test.make ~name:"attr wire roundtrip" ~count:200
      (triple (list_of_size (Gen.int_range 1 6) (int_bound 100000))
         (option (int_bound 1000)) (option (int_bound 1000)))
      (fun (path, med, lp) ->
        let a =
          Attr.make ?med ?local_pref:lp
            ~as_path:[ Attr.Seq (List.map asn path) ]
            ~next_hop:(ip "1.2.3.4") ()
        in
        let w = W.create () in
        Attr.encode w a;
        Attr.equal a (Attr.decode (R.of_string (W.contents w))));
    Test.make ~name:"decision total order antisymmetric" ~count:200
      (pair (list_of_size (Gen.int_range 1 5) (int_bound 1000))
         (list_of_size (Gen.int_range 1 5) (int_bound 1000)))
      (fun (p1, p2) ->
        let c1 = cand ~peer:"10.0.0.1" (attrs p1) in
        let c2 = cand ~peer:"10.0.0.2" (attrs p2) in
        let ab = Decision.compare c1 c2 and ba = Decision.compare c2 c1 in
        (ab > 0 && ba < 0) || (ab < 0 && ba > 0) || (ab = 0 && ba = 0)) ]

let () =
  Alcotest.run "bgp"
    [ ("attr",
       [ Alcotest.test_case "roundtrip" `Quick test_attr_roundtrip;
         Alcotest.test_case "path length" `Quick test_attr_path_length;
         Alcotest.test_case "prepend" `Quick test_attr_prepend;
         Alcotest.test_case "contains" `Quick test_attr_contains;
         Alcotest.test_case "communities" `Quick test_community_encoding ]);
      ("message",
       [ Alcotest.test_case "open" `Quick test_msg_open;
         Alcotest.test_case "update" `Quick test_msg_update;
         Alcotest.test_case "keepalive/notification" `Quick test_msg_keepalive_notification;
         Alcotest.test_case "malformed" `Quick test_msg_malformed;
         Alcotest.test_case "length field" `Quick test_msg_length_field ]);
      ("decision",
       [ Alcotest.test_case "local pref" `Quick test_decision_local_pref;
         Alcotest.test_case "path length" `Quick test_decision_path_length;
         Alcotest.test_case "origin" `Quick test_decision_origin;
         Alcotest.test_case "med" `Quick test_decision_med;
         Alcotest.test_case "ebgp/peer id" `Quick test_decision_ebgp_peer;
         Alcotest.test_case "best/rank" `Quick test_decision_best_rank ]);
      ("policy",
       [ Alcotest.test_case "first match" `Quick test_policy_first_match;
         Alcotest.test_case "matchers" `Quick test_policy_matchers;
         Alcotest.test_case "actions" `Quick test_policy_actions;
         Alcotest.test_case "gao-rexford" `Quick test_policy_gao_rexford ]);
      ("fsm",
       [ Alcotest.test_case "happy path" `Quick test_fsm_happy_path;
         Alcotest.test_case "update delivery" `Quick test_fsm_update_delivery;
         Alcotest.test_case "hold expiry" `Quick test_fsm_hold_expiry;
         Alcotest.test_case "bad version" `Quick test_fsm_bad_version;
         Alcotest.test_case "manual stop" `Quick test_fsm_stop;
         Alcotest.test_case "keepalive cycle" `Quick test_fsm_keepalive_cycle;
         Alcotest.test_case "unexpected open" `Quick test_fsm_unexpected_open_in_established;
         Alcotest.test_case "zero hold time" `Quick test_fsm_zero_hold_time;
         Alcotest.test_case "hold expiry in all states" `Quick
           test_fsm_hold_expiry_all_states ]);
      ("fsm-backoff",
       [ Alcotest.test_case "schedule" `Quick test_fsm_backoff_schedule;
         Alcotest.test_case "deterministic" `Quick test_fsm_backoff_deterministic;
         Alcotest.test_case "max retries" `Quick test_fsm_backoff_max_retries;
         Alcotest.test_case "reset on established" `Quick
           test_fsm_backoff_resets_on_established;
         Alcotest.test_case "manual stop cancels" `Quick
           test_fsm_manual_stop_cancels_retry ]);
      ("flap-damping",
       [ Alcotest.test_case "validate" `Quick test_damping_validate;
         Alcotest.test_case "decay" `Quick test_damping_decay;
         Alcotest.test_case "suppress/reuse crossing" `Quick
           test_damping_suppress_reuse_crossing;
         Alcotest.test_case "penalty cap" `Quick test_damping_penalty_cap ]);
      ("attr-flags", [ Alcotest.test_case "unknown transitivity" `Quick test_attr_unknown_flags ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck) ]
