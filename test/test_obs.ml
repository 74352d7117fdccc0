(* The observability layer: metrics registry semantics, trace-ring
   accounting, snapshot JSON shape, and the instrumented simulator
   end-to-end. *)

open Dbgp_types
module Metrics = Dbgp_obs.Metrics
module Trace = Dbgp_obs.Trace
module Snapshot = Dbgp_obs.Snapshot
module Speaker = Dbgp_core.Speaker
module Network = Dbgp_netsim.Network
module Session = Dbgp_netsim.Session
module E = Dbgp_eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------- metrics ------------------------- *)

let test_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.b" in
  check_int "starts at 0" 0 (Metrics.count c);
  Metrics.incr c;
  Metrics.incr ~by:10 c;
  check_int "accumulates" 11 (Metrics.count c);
  check "same instrument on re-lookup" true (Metrics.counter m "a.b" == c);
  check_int "shared state" 11 (Metrics.count (Metrics.counter m "a.b"));
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c);
  check "find hit" true (Metrics.find_counter m "a.b" <> None);
  check "find miss" true (Metrics.find_counter m "nope" = None);
  Alcotest.(check (list (pair string int)))
    "enumeration is name-sorted"
    [ ("a.b", 11); ("z", 0) ]
    ( ignore (Metrics.counter m "z");
      Metrics.counters m )

let test_gauges () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "clock" in
  check "initial 0" true (Metrics.value g = 0.);
  Metrics.set g 42.5;
  Metrics.set g 17.25;
  check "last write wins" true (Metrics.value g = 17.25)

let test_histogram_bucketing () =
  check_int "below 1 -> bucket 0" 0 (Metrics.For_tests.bucket_of 0.5);
  check_int "nan -> bucket 0" 0 (Metrics.For_tests.bucket_of Float.nan);
  check_int "negative -> bucket 0" 0 (Metrics.For_tests.bucket_of (-3.));
  check_int "1 -> bucket 1" 1 (Metrics.For_tests.bucket_of 1.0);
  check_int "1.99 -> bucket 1" 1 (Metrics.For_tests.bucket_of 1.99);
  check_int "2 -> bucket 2" 2 (Metrics.For_tests.bucket_of 2.0);
  check_int "3.99 -> bucket 2" 2 (Metrics.For_tests.bucket_of 3.99);
  check_int "4 -> bucket 3" 3 (Metrics.For_tests.bucket_of 4.0);
  check_int "huge -> last bucket" (Metrics.For_tests.nbuckets - 1)
    (Metrics.For_tests.bucket_of 1e30);
  check "upper of 0 is 1" true (Metrics.For_tests.bucket_upper 0 = 1.);
  check "upper of 3 is 8" true (Metrics.For_tests.bucket_upper 3 = 8.);
  check "last upper is inf" true
    (Metrics.For_tests.bucket_upper (Metrics.For_tests.nbuckets - 1) = Float.infinity)

let test_histogram_observe () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  check "empty quantile is 0" true (Metrics.quantile h 0.5 = 0.);
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 3.5; 100. ];
  check_int "count" 5 (Metrics.observations h);
  check "sum" true (Metrics.hist_sum h = 108.5);
  check "max" true (Metrics.hist_max h = 100.);
  (* Conservative quantiles: the bucket upper bound. 100 lands in
     [64, 128). *)
  check "p50 <= 4" true (Metrics.quantile h 0.5 <= 4.);
  check "p99 is 128" true (Metrics.quantile h 0.99 = 128.);
  Alcotest.check_raises "quantile range"
    (Invalid_argument "Metrics.quantile: q outside [0, 1]") (fun () ->
      ignore (Metrics.quantile h 1.5))

(* ------------------------- trace ------------------------- *)

let pfx s = Prefix.to_int (Prefix.of_string s)
let ev i = Trace.Damping_reuse { asn = i; prefix = pfx "10.0.0.0/8" }

let test_trace_ring () =
  let t = Trace.create ~capacity:4 () in
  check_int "capacity" 4 (Trace.capacity t);
  check_int "empty" 0 (List.length (Trace.entries t));
  for i = 1 to 6 do
    Trace.emit t ~at:(float_of_int i) (ev i)
  done;
  check_int "emitted counts all" 6 (Trace.emitted t);
  check_int "overwritten" 2 (Trace.overwritten t);
  let es = Trace.entries t in
  check_int "retains capacity" 4 (List.length es);
  Alcotest.(check (list int))
    "oldest first, newest kept" [ 3; 4; 5; 6 ]
    (List.map
       (fun (e : Trace.entry) ->
         match e.Trace.event with
         | Trace.Damping_reuse { asn; _ } -> asn
         | _ -> -1)
       es);
  Trace.clear t;
  check_int "clear empties" 0 (List.length (Trace.entries t));
  check_int "clear resets emitted" 0 (Trace.emitted t);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_trace_labels () =
  check_str "session_state" "session_state"
    (Trace.label (Trace.Session_state { asn = 1; peer = 2; state = "Idle" }));
  check_str "update_sent" "update_sent"
    (Trace.label
       (Trace.Update_sent
          { src = 1; dst = 2; prefix = 0; bytes = 3; withdraw = false }));
  check_str "mrai_flush" "mrai_flush"
    (Trace.label (Trace.Mrai_flush { src = 1; dst = 2; batched = 3 }))

(* Columns are lossless: every field of every kind comes back from
   [entries] bit for bit, across wraparound and [clear]. *)
let same_event (a : Trace.event) (b : Trace.event) =
  match (a, b) with
  | ( Trace.Damping_suppress { asn; peer; prefix; reuse_at },
      Trace.Damping_suppress
        { asn = asn'; peer = peer'; prefix = prefix'; reuse_at = reuse_at' } )
    ->
    asn = asn' && peer = peer' && prefix = prefix'
    && Int64.equal (Int64.bits_of_float reuse_at) (Int64.bits_of_float reuse_at')
  | _ -> a = b

let same_entry (at, ev) (e : Trace.entry) =
  Int64.equal (Int64.bits_of_float at) (Int64.bits_of_float e.Trace.at)
  && same_event ev e.Trace.event

let gen_event =
  let open QCheck.Gen in
  let asn = oneof [ return 0; return 0xFFFF_FFFF; int_bound 0xFFFF_FFFF ] in
  let prefix =
    map Prefix.to_int
      (oneof
         [ return Prefix.default;
           return (Prefix.of_string "255.255.255.255/32");
           map2
             (fun a l -> Prefix.make (Ipv4.of_int a) l)
             (int_bound 0xFFFF_FFFF) (int_bound 32) ])
  in
  let text =
    oneof [ return ""; return "\000"; return "a\000b\000"; string_size (int_bound 12) ]
  in
  let float =
    oneof
      [ return Float.nan; return Float.infinity; return Float.neg_infinity;
        return (-0.); return (-1.5); float ]
  in
  oneof
    [ map3 (fun asn peer state -> Trace.Session_state { asn; peer; state }) asn asn text;
      map3
        (fun (src, dst) prefix (bytes, withdraw) ->
          Trace.Update_sent { src; dst; prefix; bytes; withdraw })
        (pair asn asn) prefix (pair int bool);
      map3
        (fun (src, dst) prefix (bytes, withdraw) ->
          Trace.Update_received { src; dst; prefix; bytes; withdraw })
        (pair asn asn) prefix (pair int bool);
      map3
        (fun asn prefix (changed, best_via) ->
          Trace.Decision_run { asn; prefix; changed; best_via })
        asn prefix (pair bool (opt asn));
      map3 (fun src dst batched -> Trace.Mrai_flush { src; dst; batched }) asn asn int;
      map3
        (fun (asn, peer) prefix reuse_at ->
          Trace.Damping_suppress { asn; peer; prefix; reuse_at })
        (pair asn asn) prefix float;
      map2 (fun asn prefix -> Trace.Damping_reuse { asn; prefix }) asn prefix;
      map3
        (fun (asn, peer) phase routes -> Trace.Restart_phase { asn; peer; phase; routes })
        (pair asn asn) text int;
      map3 (fun asn peer prefix -> Trace.Import_rejected { asn; peer; prefix }) asn asn prefix;
      map3
        (fun (asn, peer) (cls, stage) reason ->
          Trace.Rx_error { asn; peer; cls; stage; reason })
        (pair asn asn) (pair text text) text ]
  |> pair float

let arb_trace_case =
  let open QCheck in
  let evs = Gen.list_size (Gen.int_bound 150) gen_event in
  make
    ~print:(fun (cap, a, b) ->
      Printf.sprintf "capacity %d: %s | %s" cap
        (String.concat " " (List.map (fun (_, e) -> Trace.label e) a))
        (String.concat " " (List.map (fun (_, e) -> Trace.label e) b)))
    Gen.(triple (int_range 1 64) evs evs)

let check_retained t sent =
  let n = List.length sent in
  let kept = List.filteri (fun i _ -> i >= n - Trace.capacity t) sent in
  let es = Trace.entries t in
  Trace.emitted t = n
  && Trace.overwritten t = max 0 (n - Trace.capacity t)
  && List.length es = List.length kept
  && List.for_all2 same_entry kept es

let prop_trace_lossless (cap, first, second) =
  let t = Trace.create ~capacity:cap () in
  List.iter (fun (at, ev) -> Trace.emit t ~at ev) first;
  let ok_first = check_retained t first in
  Trace.clear t;
  let ok_clear = Trace.entries t = [] && Trace.emitted t = 0 in
  List.iter (fun (at, ev) -> Trace.emit t ~at ev) second;
  ok_first && ok_clear && check_retained t second

let test_trace_rare_after_wrap () =
  (* Only common kinds until the ring has wrapped, then rare ones: the
     side ring starts late and must still pair with the right slots. *)
  let t = Trace.create ~capacity:4 () in
  for i = 1 to 9 do
    Trace.emit t ~at:(float_of_int i) (ev i)
  done;
  let rare =
    [ Trace.Restart_phase { asn = 1; peer = 2; phase = "flushed"; routes = 7 };
      ev 11;
      Trace.Rx_error { asn = 1; peer = 2; cls = ""; stage = "s\000"; reason = "" } ]
  in
  List.iteri (fun i e -> Trace.emit t ~at:(float_of_int (10 + i)) e) rare;
  check "rare kinds round-trip after wrap" true
    (List.for_all2 same_entry
       ((9., ev 9) :: List.mapi (fun i e -> (float_of_int (10 + i), e)) rare)
       (Trace.entries t))

(* Snapshot renders a packed prefix exactly as [Prefix.to_string]. *)
let prop_prefix_text (a, l) =
  let p = Prefix.make (Ipv4.of_int a) l in
  let t = Trace.create ~capacity:1 () in
  Trace.emit t ~at:0. (Trace.Damping_reuse { asn = 1; prefix = Prefix.to_int p });
  match Snapshot.member "events" (Snapshot.of_trace t) with
  | Some (Snapshot.List [ e ]) ->
    Snapshot.member "prefix" e = Some (Snapshot.String (Prefix.to_string p))
  | _ -> false

let trace_qcheck =
  let open QCheck in
  [ Test.make ~name:"columns are lossless" ~count:500 arb_trace_case
      prop_trace_lossless;
    Test.make ~name:"snapshot prefix text is Prefix.to_string" ~count:1000
      (pair
         (oneof [ int_bound 0xFFFF_FFFF; always 0; always 0xFFFF_FFFF ])
         (int_bound 32))
      prop_prefix_text ]

(* One event of each kind, rendered by the boxed-ring implementation
   that stored prefixes as text; the columnar ring must match it byte
   for byte. *)
let golden_of_trace =
  String.concat ""
    [ {|{"emitted":11,"overwritten":0,"events":[{"at":0.5,"type":"session_state","asn":64501,"peer":0,"state":"Established"},|};
      {|{"at":1,"type":"update_sent","src":64501,"dst":64502,"prefix":"10.1.0.0/16","bytes":71,"withdraw":false},|};
      {|{"at":1.25,"type":"update_received","src":64501,"dst":64502,"prefix":"0.0.0.0/0","bytes":9,"withdraw":true},|};
      {|{"at":2,"type":"decision_run","asn":64502,"prefix":"255.255.255.255/32","changed":true,"best_via":64501},|};
      {|{"at":2.5,"type":"decision_run","asn":4294967295,"prefix":"192.0.2.0/24","changed":false,"best_via":null},|};
      {|{"at":3,"type":"mrai_flush","src":64501,"dst":64502,"batched":12},|};
      {|{"at":3.75,"type":"damping_suppress","asn":64502,"peer":64501,"prefix":"10.1.0.0/16","reuse_at":1803.125},|};
      {|{"at":4,"type":"damping_reuse","asn":64502,"prefix":"10.1.0.0/16"},|};
      {|{"at":5,"type":"restart_phase","asn":64502,"peer":64501,"phase":"stale-marked","routes":40},|};
      {|{"at":6,"type":"import_rejected","asn":0,"peer":64501,"prefix":"172.16.0.0/12"},|};
      {|{"at":7,"type":"rx_error","asn":64502,"peer":64501,"cls":"treat_as_withdraw","stage":"attribute","reason":"bad \"len\"\n"}]}|} ]

let test_snapshot_golden () =
  let t = Trace.create ~capacity:16 () in
  let e at ev = Trace.emit t ~at ev in
  e 0.5 (Trace.Session_state { asn = 64501; peer = 0; state = "Established" });
  e 1.
    (Trace.Update_sent
       { src = 64501; dst = 64502; prefix = pfx "10.1.0.0/16"; bytes = 71;
         withdraw = false });
  e 1.25
    (Trace.Update_received
       { src = 64501; dst = 64502; prefix = pfx "0.0.0.0/0"; bytes = 9;
         withdraw = true });
  e 2.
    (Trace.Decision_run
       { asn = 64502; prefix = pfx "255.255.255.255/32"; changed = true;
         best_via = Some 64501 });
  e 2.5
    (Trace.Decision_run
       { asn = 4294967295; prefix = pfx "192.0.2.0/24"; changed = false;
         best_via = None });
  e 3. (Trace.Mrai_flush { src = 64501; dst = 64502; batched = 12 });
  e 3.75
    (Trace.Damping_suppress
       { asn = 64502; peer = 64501; prefix = pfx "10.1.0.0/16"; reuse_at = 1803.125 });
  e 4. (Trace.Damping_reuse { asn = 64502; prefix = pfx "10.1.0.0/16" });
  e 5.
    (Trace.Restart_phase
       { asn = 64502; peer = 64501; phase = "stale-marked"; routes = 40 });
  e 6. (Trace.Import_rejected { asn = 0; peer = 64501; prefix = pfx "172.16.0.0/12" });
  e 7.
    (Trace.Rx_error
       { asn = 64502; peer = 64501; cls = "treat_as_withdraw"; stage = "attribute";
         reason = "bad \"len\"\n" });
  check_str "of_trace JSON" golden_of_trace (Snapshot.to_json (Snapshot.of_trace t))

(* ------------------------- snapshot ------------------------- *)

let test_json_rendering () =
  check_str "scalars" "[null,true,42,1.5,\"a\\\"b\"]"
    (Snapshot.to_json
       (Snapshot.List
          [ Snapshot.Null; Snapshot.Bool true; Snapshot.Int 42;
            Snapshot.Float 1.5; Snapshot.String "a\"b" ]));
  check_str "nan is null" "null" (Snapshot.to_json (Snapshot.Float Float.nan));
  check_str "inf is null" "null"
    (Snapshot.to_json (Snapshot.Float Float.infinity));
  check_str "integral float" "3" (Snapshot.to_json (Snapshot.Float 3.0));
  check_str "object" "{\"k\":[]}"
    (Snapshot.to_json (Snapshot.Obj [ ("k", Snapshot.List []) ]))

let test_snapshot_of_metrics () =
  let m = Metrics.create () in
  Metrics.incr ~by:7 (Metrics.counter m "msgs");
  Metrics.set (Metrics.gauge m "t") 3.5;
  Metrics.observe (Metrics.histogram m "sz") 10.;
  let s = Snapshot.of_metrics m in
  ( match Snapshot.member "counters" s with
    | Some (Snapshot.Obj [ ("msgs", Snapshot.Int 7) ]) -> ()
    | _ -> Alcotest.fail "counters section wrong" );
  ( match Snapshot.member "histograms" s with
    | Some hs -> (
      match Snapshot.member "sz" hs with
      | Some h ->
        check "hist count" true
          (Snapshot.member "count" h = Some (Snapshot.Int 1));
        check "hist p50" true (Snapshot.member "p50" h <> None)
      | None -> Alcotest.fail "sz histogram missing" )
    | None -> Alcotest.fail "histograms section missing" );
  (* The whole thing renders without raising. *)
  check "renders" true (String.length (Snapshot.to_json_pretty s) > 0)

let test_snapshot_of_trace () =
  let t = Trace.create ~capacity:8 () in
  Trace.emit t ~at:1.
    (Trace.Update_sent
       { src = 1; dst = 2; prefix = pfx "99.0.0.0/24"; bytes = 64; withdraw = false });
  Trace.emit t ~at:2. (Trace.Damping_reuse { asn = 3; prefix = pfx "99.0.0.0/24" });
  let s = Snapshot.of_trace t in
  check "emitted field" true (Snapshot.member "emitted" s = Some (Snapshot.Int 2));
  ( match Snapshot.member "events" s with
    | Some (Snapshot.List [ first; second ]) ->
      check "first is update_sent" true
        (Snapshot.member "type" first = Some (Snapshot.String "update_sent"));
      check "bytes carried" true
        (Snapshot.member "bytes" first = Some (Snapshot.Int 64));
      check "prefix rendered" true
        (Snapshot.member "prefix" first = Some (Snapshot.String "99.0.0.0/24"));
      check "second is damping_reuse" true
        (Snapshot.member "type" second = Some (Snapshot.String "damping_reuse"))
    | _ -> Alcotest.fail "events list wrong" );
  ( match Snapshot.member "events" (Snapshot.of_trace ~last:1 t) with
    | Some (Snapshot.List [ only ]) ->
      check "last=1 keeps newest" true
        (Snapshot.member "type" only = Some (Snapshot.String "damping_reuse"))
    | _ -> Alcotest.fail "last=1 wrong" )

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4. ] in
  check "p0 is min" true (Snapshot.percentile xs 0. = 1.);
  check "p100 is max" true (Snapshot.percentile xs 1. = 4.);
  check "p50 interpolates" true (Snapshot.percentile xs 0.5 = 2.5);
  check "empty is nan" true (Float.is_nan (Snapshot.percentile [] 0.5));
  check "singleton" true (Snapshot.percentile [ 7. ] 0.9 = 7.);
  (* The consumers (Convergence.observe, Chaos) feed unsorted
     last-change times and can produce empty or one-element samples on
     censored runs — pin the whole edge-case surface. *)
  check "input need not be sorted" true
    (Snapshot.percentile [ 3.; 1.; 4.; 2. ] 0.5 = 2.5);
  check "two samples interpolate" true
    (Snapshot.percentile [ 10.; 20. ] 0.25 = 12.5);
  check "singleton at p0" true (Snapshot.percentile [ 7. ] 0. = 7.);
  check_str "empty-sample nan renders as JSON null" "null"
    (Snapshot.to_json (Snapshot.Float (Snapshot.percentile [] 0.9)));
  Alcotest.check_raises "q above 1 rejected"
    (Invalid_argument "Snapshot.percentile: q outside [0, 1]") (fun () ->
      ignore (Snapshot.percentile [ 1. ] 1.5));
  Alcotest.check_raises "q below 0 rejected even on empty input"
    (Invalid_argument "Snapshot.percentile: q outside [0, 1]") (fun () ->
      ignore (Snapshot.percentile [] (-0.1)))

(* ------------------------- end to end ------------------------- *)

let test_speaker_instruments () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(Asn.of_int 64501)
         ~addr:(Ipv4.of_string "10.0.0.1") ())
  in
  let ia =
    Dbgp_core.Ia.originate
      ~prefix:(Prefix.of_string "99.0.0.0/24")
      ~origin_asn:(Asn.of_int 64501)
      ~next_hop:(Ipv4.of_string "10.0.0.1")
      ()
  in
  ignore (Speaker.originate ~now:2.5 s ia);
  let count name =
    match Metrics.find_counter (Speaker.metrics s) name with
    | Some c -> Metrics.count c
    | None -> 0
  in
  check_int "one decision run" 1 (count "decision.runs");
  check_int "one change" 1 (count "decision.changes");
  ( match Metrics.find_gauge (Speaker.metrics s) "decision.last_change_at" with
    | Some g -> check "change time recorded" true (Metrics.value g = 2.5)
    | None -> Alcotest.fail "gauge missing" );
  check "decision_run traced" true
    (List.exists
       (fun (e : Trace.entry) ->
         match e.Trace.event with
         | Trace.Decision_run { asn = 64501; changed = true; _ } -> true
         | _ -> false)
       (Trace.entries (Speaker.trace s)))

let test_network_snapshot () =
  let o = E.Convergence.observe ~ases:30 ~recent_events:10 ~seed:7 () in
  check "messages flowed" true (o.E.Convergence.messages > 0);
  check "bytes counted" true (o.E.Convergence.announce_bytes > 0);
  check "decisions ran" true
    (o.E.Convergence.decision_runs >= o.E.Convergence.decision_changes);
  check "changes happened" true (o.E.Convergence.decision_changes > 0);
  check "percentiles ordered" true
    (o.E.Convergence.p50 <= o.E.Convergence.p90
    && o.E.Convergence.p90 <= o.E.Convergence.p99);
  let s = o.E.Convergence.snapshot in
  ( match Snapshot.member "network" s with
    | Some net -> (
      match Snapshot.member "counters" net with
      | Some (Snapshot.Obj fields) ->
        check "net.messages present" true (List.mem_assoc "net.messages" fields)
      | _ -> Alcotest.fail "network counters missing" )
    | None -> Alcotest.fail "network section missing" );
  ( match Snapshot.member "convergence" s with
    | Some c -> check "count positive" true
        ( match Snapshot.member "count" c with
          | Some (Snapshot.Int n) -> n > 0
          | _ -> false )
    | None -> Alcotest.fail "convergence section missing" );
  ( match Snapshot.member "trace" s with
    | Some tr -> (
      match Snapshot.member "events" tr with
      | Some (Snapshot.List es) ->
        check "trace bounded" true (List.length es <= 10)
      | _ -> Alcotest.fail "trace events missing" )
    | None -> Alcotest.fail "trace section missing" )

let test_session_instruments () =
  let q = Dbgp_netsim.Event_queue.create () in
  let cfg asn id : Dbgp_bgp.Fsm.config =
    { Dbgp_bgp.Fsm.my_asn = Asn.of_int asn; my_id = Ipv4.of_string id;
      hold_time = 90;
      capabilities = [ Dbgp_bgp.Message.capability_dbgp ] }
  in
  let a, b =
    Session.create q ~a:(cfg 64501 "10.0.0.1") ~b:(cfg 64502 "10.0.0.2") ()
  in
  Session.start a;
  Session.start b;
  ignore (Dbgp_netsim.Event_queue.run ~max_events:100 q);
  check "established" true (Session.state a = Dbgp_bgp.Fsm.Established);
  let count ep name =
    match Metrics.find_counter (Session.metrics ep) name with
    | Some c -> Metrics.count c
    | None -> 0
  in
  check_int "one establishment" 1 (count a "fsm.established");
  check "transitions counted" true (count a "fsm.transitions" >= 3);
  let states =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Session_state { state; _ } -> Some state
        | _ -> None)
      (Trace.entries (Session.trace a))
  in
  check "climbed to Established" true
    (List.exists (( = ) "Established") states);
  ( match Metrics.histograms (Session.metrics a) with
    | hs -> check "send bytes observed" true (List.mem_assoc "session.send_bytes" hs) )

let test_error_observability () =
  check_str "rx_error label" "rx_error"
    (Trace.label
       (Trace.Rx_error
          { asn = 1; peer = 2; cls = "treat_as_withdraw"; stage = "framing";
            reason = "x" }));
  (* A wire-level error must surface under its pinned names in both the
     counter registry and the trace snapshot. *)
  let s =
    Speaker.create
      (Speaker.config ~asn:(Asn.of_int 64501)
         ~addr:(Ipv4.of_string "10.0.0.1") ())
  in
  let from =
    Dbgp_core.Peer.make ~asn:(Asn.of_int 64502)
      ~addr:(Ipv4.of_string "10.0.0.2")
  in
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer from);
  ignore (Speaker.receive_wire s ~from Dbgp_core.Codec.Announce "\xff");
  ( match Snapshot.member "counters" (Snapshot.of_metrics (Speaker.metrics s)) with
    | Some (Snapshot.Obj fields) ->
      check "errors.session_reset pinned" true
        (List.mem_assoc "errors.session_reset" fields)
    | _ -> Alcotest.fail "counters section missing" );
  ( match Snapshot.member "events" (Snapshot.of_trace (Speaker.trace s)) with
    | Some (Snapshot.List es) -> (
      match
        List.filter
          (fun e ->
            Snapshot.member "type" e = Some (Snapshot.String "rx_error"))
          es
      with
      | e :: _ ->
        check "cls field" true
          (Snapshot.member "cls" e = Some (Snapshot.String "session_reset"));
        check "stage field" true
          (Snapshot.member "stage" e = Some (Snapshot.String "framing"));
        check "reason field present" true (Snapshot.member "reason" e <> None)
      | [] -> Alcotest.fail "rx_error not traced" )
    | _ -> Alcotest.fail "events missing" )

let test_chaos_snapshot_names () =
  (* The chaos report's JSON snapshot must pin the resilience metric
     names: corruption counters on the network registry, error-class
     totals under speakers, and the invariants section. *)
  let r =
    E.Chaos.run
      { E.Chaos.default with E.Chaos.ases = 20; seed = 5; corruption = 0.5 }
  in
  let s = r.E.Chaos.obs in
  ( match Snapshot.member "network" s with
    | Some net -> (
      match Snapshot.member "counters" net with
      | Some (Snapshot.Obj fields) ->
        check "net.corruption.injected pinned" true
          (List.mem_assoc "net.corruption.injected" fields)
      | _ -> Alcotest.fail "network counters missing" )
    | None -> Alcotest.fail "network section missing" );
  ( match Snapshot.member "speakers" s with
    | Some (Snapshot.Obj fields) ->
      check "errors.treat_as_withdraw pinned" true
        (List.mem_assoc "errors.treat_as_withdraw" fields)
    | _ -> Alcotest.fail "speakers section missing" );
  ( match Snapshot.member "invariants" s with
    | Some inv ->
      check "invariants.ok pinned" true
        (Snapshot.member "ok" inv = Some (Snapshot.Bool true));
      ( match Snapshot.member "violations" inv with
        | Some (Snapshot.Obj ks) ->
          check "per-kind violation counters" true
            (List.mem_assoc "forwarding_loop" ks
            && List.mem_assoc "passthrough_mutated" ks)
        | _ -> Alcotest.fail "violations section missing" )
    | None -> Alcotest.fail "invariants section missing" )

(* The batching and compact-route-store metric names are part of the
   observable schema: [net.batch.*] on the network registry once a
   batched MRAI flush has fired, and [attr_table.*] on the domain
   registry once a speaker has shared an attribute set. *)
let test_batch_attr_counter_names () =
  let net = Network.create () in
  List.iter (fun i -> ignore (E.Harness.add_as net i)) [ 1; 2 ];
  Network.link net ~a:(Asn.of_int 1) ~b:(Asn.of_int 2)
    ~b_is:Dbgp_bgp.Policy.To_provider ();
  Network.set_mrai net 1.0;
  for i = 0 to 7 do
    Network.originate net (Asn.of_int 1)
      (Dbgp_core.Ia.originate
         ~prefix:(Prefix.of_string (Printf.sprintf "99.0.%d.0/24" i))
         ~origin_asn:(Asn.of_int 1)
         ~next_hop:(Network.speaker_addr (Asn.of_int 1)) ())
  done;
  ignore (Network.run net);
  let count name =
    Metrics.count (Metrics.counter (Network.metrics net) name)
  in
  check "net.batch.frames counted" true (count "net.batch.frames" > 0);
  check "net.batch.saved counts elided messages" true
    (count "net.batch.saved" > 0);
  let at = Dbgp_core.Attr_table.metrics () in
  List.iter
    (fun name ->
      check (name ^ " registered") true (Metrics.find_counter at name <> None))
    [ "attr_table.hits"; "attr_table.misses"; "attr_table.evictions" ];
  check "attr sets resident" true (Dbgp_core.Attr_table.occupancy () > 0);
  (* Frames decode back into per-prefix routes at the receiver. *)
  check "batched routes delivered" true
    (Speaker.best (Network.speaker net (Asn.of_int 2))
       (Prefix.of_string "99.0.3.0/24")
     <> None)

(* One small convergence row shared by the two BENCH_perf.json tests. *)
let small_perf_row = lazy (E.Perf_report.run ~ases:25 ~prefixes:8 ())

(* BENCH_perf.json is [Perf_report.to_snapshot]'s document; pin a
   row's exact field set and JSON types against a small run, so
   the committed file cannot drift silently or regain a machine-dependent
   (wall-clock, CPU, GC or heap) field.  Every delivery crosses the
   wire, so both wire caches see the convergence traffic. *)
let test_perf_report_schema () =
  let r = Lazy.force small_perf_row in
  let s =
    match Snapshot.member "rows" (E.Perf_report.to_snapshot [ r ]) with
    | Some (Snapshot.List [ row ]) -> row
    | _ -> Alcotest.fail "rows: expected a one-row list"
  in
  let int_fields =
    [ "ases"; "prefixes"; "messages"; "updates"; "events"; "decision_runs";
      "dirty_marks"; "runs_saved"; "drains"; "export_hits"; "export_misses";
      "encode_cache_hits"; "encode_cache_misses"; "decode_memo_hits";
      "decode_memo_misses" ]
  in
  let float_fields =
    [ "runs_per_update"; "export_hit_rate"; "encode_cache_hit_rate";
      "decode_memo_hit_rate" ]
  in
  ( match s with
    | Snapshot.Obj fields ->
      Alcotest.(check (list string))
        "exactly the counter fields"
        (List.sort compare (int_fields @ float_fields))
        (List.sort compare (List.map fst fields))
    | _ -> Alcotest.fail "row must render as an object" );
  List.iter
    (fun f ->
      match Snapshot.member f s with
      | Some (Snapshot.Int _) -> ()
      | _ -> Alcotest.fail (f ^ ": expected Int field"))
    int_fields;
  List.iter
    (fun f ->
      match Snapshot.member f s with
      | Some (Snapshot.Float _) | Some (Snapshot.Int _) -> ()
      | _ -> Alcotest.fail (f ^ ": expected numeric field"))
    float_fields;
  ( match Snapshot.member "ases" s with
    | Some (Snapshot.Int 25) -> ()
    | _ -> Alcotest.fail "ases must echo the topology size" );
  check "encode cache hits > 0" true (r.E.Perf_report.enc_hits > 0);
  check "decode memo hits > 0" true (r.E.Perf_report.dec_hits > 0);
  check "json renders" true
    (String.length (Snapshot.to_json_pretty s) > 0)

(* The staged-pipeline columns of the same row: coalescing beats
   run-per-message, peer groups serve their members, and the two rates
   are the ratios of the counters printed beside them. *)
let test_pipeline_columns () =
  let r = Lazy.force small_perf_row in
  let open E.Perf_report in
  check "runs per update < 1.0" true (r.runs_per_update < 1.0);
  check "export cache hits > 0" true (r.export_hits > 0);
  check "marks >= runs saved" true (r.dirty_marks >= r.runs_saved);
  check "decision ran" true (r.decision_runs > 0 && r.drains > 0);
  Alcotest.(check (float 1e-9))
    "runs per update = runs / updates"
    (float_of_int r.decision_runs /. float_of_int r.updates)
    r.runs_per_update;
  Alcotest.(check (float 1e-9))
    "export hit rate = hits / lookups"
    (float_of_int r.export_hits
     /. float_of_int (r.export_hits + r.export_misses))
    r.export_hit_rate

(* The sharded sweep behind [perf --domains] prints one row per domain
   count to the terminal (no committed file); pin what a row records
   against a tiny two-domain run.  The run doubles as an end-to-end check
   that the determinism oracle feeds the sweep: both rows carry the same
   transcript. *)
let test_sharded_rows () =
  let rows =
    E.Perf_report.domains_suite ~ases:40 ~prefixes:6 ~regions:2
      ~domains:[ 1; 2 ] ()
  in
  check_int "one row per domain count" 2 (List.length rows);
  List.iter
    (fun (r : E.Perf_report.sharded_row) ->
      check_int "md5 length" 32 (String.length r.E.Perf_report.s_transcript_md5);
      check "transcript matches the 1-domain run" true
        r.E.Perf_report.s_transcript_match;
      check_int "regions recorded" 2 r.E.Perf_report.s_regions;
      check "cut edges recorded" true (r.E.Perf_report.s_cut_edges > 0);
      check "lookahead positive" true (r.E.Perf_report.s_lookahead > 0.);
      let line = Format.asprintf "%a" E.Perf_report.pp_sharded r in
      check "row prints its transcript verdict" true
        (String.ends_with ~suffix:"transcript match" line))
    rows;
  match rows with
  | [ r1; r2 ] ->
    check "domain counts recorded" true
      (r1.E.Perf_report.s_domains = 1 && r2.E.Perf_report.s_domains = 2);
    check_str "same transcript" r1.E.Perf_report.s_transcript_md5
      r2.E.Perf_report.s_transcript_md5
  | _ -> Alcotest.fail "unexpected row count"

(* BENCH_scale.json rows come straight from [Scale_bench.to_snapshot];
   pin the schema plus the headline claims, in per-prefix messages: a
   session bounce without graceful restart re-sends the whole table,
   the clean incremental arm streams ~nothing, and the churn arm
   re-sends only what changed. *)
let test_scale_bench_schema () =
  let r = E.Scale_bench.run ~ases:30 ~prefixes:50 ~bg:4 () in
  let s = E.Scale_bench.to_snapshot r in
  let int_fields =
    [ "ases"; "prefixes"; "bg_prefixes"; "edges"; "bg_updates";
      "load_updates"; "attr_sets"; "string_clears";
      "value_clears"; "descriptor_clears"; "peak_heap_words"; "live_words";
      "full_transfer_msgs"; "full_transfer_bytes";
      "batched_transfer_msgs"; "batched_transfer_bytes"; "batch_frames";
      "clean_transfer_msgs"; "clean_skipped"; "churn_routes";
      "churn_transfer_msgs" ]
  in
  let float_fields =
    [ "bg_elapsed_s"; "bg_updates_per_s"; "load_elapsed_s"; "load_cpu_s";
      "load_updates_per_s"; "words_per_route" ]
  in
  List.iter
    (fun f ->
      match Snapshot.member f s with
      | Some (Snapshot.Int _) -> ()
      | _ -> Alcotest.fail (f ^ ": expected Int field"))
    int_fields;
  List.iter
    (fun f ->
      match Snapshot.member f s with
      | Some (Snapshot.Float _) | Some (Snapshot.Int _) -> ()
      | _ -> Alcotest.fail (f ^ ": expected numeric field"))
    float_fields;
  check "storm re-sends the table" true
    (r.E.Scale_bench.full_transfer_msgs >= r.E.Scale_bench.prefixes);
  check "clean arm streams ~nothing" true
    (r.E.Scale_bench.clean_transfer_msgs <= 2);
  check "clean arm skipped the table" true
    (r.E.Scale_bench.clean_skipped >= r.E.Scale_bench.prefixes);
  check "churn arm re-sends only the changed slice" true
    (r.E.Scale_bench.churn_transfer_msgs
     <= r.E.Scale_bench.churn_routes + 1);
  (* The whole feed table shares one attribute set, so the storm must
     cross in a handful of multi-prefix frames — at least 4x fewer
     messages, and fewer bytes, than its per-prefix figures. *)
  check "batched arm fewer bytes" true
    (r.E.Scale_bench.batched_transfer_bytes
     < r.E.Scale_bench.full_transfer_bytes);
  check "batched arm >= 4x fewer messages" true
    (r.E.Scale_bench.batched_transfer_msgs * 4
     <= r.E.Scale_bench.full_transfer_msgs);
  check "batched arm sends frames" true (r.E.Scale_bench.batch_frames > 0);
  (* Attribute-set sharing: the resident set count is driven by path
     diversity, not table size — a 10x larger feed table on the same
     topology must not materially grow it. *)
  check "attr sets don't scale with the table" true
    (let r10 = E.Scale_bench.run ~ases:30 ~prefixes:500 ~bg:4 () in
     r10.E.Scale_bench.attr_sets < r.E.Scale_bench.attr_sets + 50);
  (* The reachable-words delta is deterministic (no GC noise), so even
     a 50-route table must grow the network. *)
  check "routes occupy memory" true (r.E.Scale_bench.words_per_route > 0.);
  check "json renders" true
    (String.length (Snapshot.to_json_pretty s) > 0)

(* BENCH_stability.json schema: the divergence-lab report shape, pinned
   against a two-case run (one divergent gadget, one converged control),
   each classified with damping off and on. *)
let test_stability_bench_schema () =
  let cases =
    List.filter
      (fun (c : E.Stability.case) ->
        List.mem c.E.Stability.name [ "bad-gadget"; "good-gadget" ])
      (E.Scenarios.divergence_cases ())
  in
  let r = E.Stability.run_cases ~budget:4_000 cases in
  let s = E.Stability.to_snapshot r in
  ( match Snapshot.member "budget" s with
    | Some (Snapshot.Int 4000) -> ()
    | _ -> Alcotest.fail "budget must echo the event budget" );
  let rows =
    match Snapshot.member "rows" s with
    | Some (Snapshot.List rows) -> rows
    | _ -> Alcotest.fail "rows must be a list"
  in
  check_int "two cases x two damping arms" 4 (List.length rows);
  List.iter
    (fun row ->
      List.iter
        (fun f ->
          match Snapshot.member f row with
          | Some (Snapshot.Int _) -> ()
          | _ -> Alcotest.fail (f ^ ": expected Int field"))
        [ "events"; "messages"; "decision_changes"; "withdrawals";
          "suppressions"; "reuses"; "suppressed_at_end" ];
      ( match Snapshot.member "scenario" row with
        | Some (Snapshot.String _) -> ()
        | _ -> Alcotest.fail "scenario: expected String field" );
      ( match Snapshot.member "verdict" row with
        | Some (Snapshot.String ("converged" | "oscillating" | "censored")) ->
          ()
        | _ -> Alcotest.fail "verdict: expected one of the three labels" );
      match (Snapshot.member "damping" row, Snapshot.member "censored" row) with
      | Some (Snapshot.Bool _), Some (Snapshot.Bool _) -> ()
      | _ -> Alcotest.fail "damping/censored: expected Bool fields")
    rows;
  let row scenario damping =
    List.find
      (fun row ->
        Snapshot.member "scenario" row = Some (Snapshot.String scenario)
        && Snapshot.member "damping" row = Some (Snapshot.Bool damping))
      rows
  in
  (* Verdict-dependent shape: an oscillating row carries the measured
     period and affected prefixes; a converged row the quiescence time. *)
  let bad = row "bad-gadget" false in
  ( match Snapshot.member "verdict" bad with
    | Some (Snapshot.String "oscillating") -> ()
    | _ -> Alcotest.fail "bad-gadget (no damping) must oscillate" );
  ( match Snapshot.member "period" bad with
    | Some (Snapshot.Int p) when p > 0 -> ()
    | _ -> Alcotest.fail "oscillating row needs a positive period" );
  ( match Snapshot.member "prefixes" bad with
    | Some (Snapshot.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "oscillating row needs non-empty prefixes" );
  ( match Snapshot.member "dispute_wheel" bad with
    | Some (Snapshot.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "bad-gadget row must carry its dispute wheel" );
  let good = row "good-gadget" false in
  ( match Snapshot.member "verdict" good with
    | Some (Snapshot.String "converged") -> ()
    | _ -> Alcotest.fail "good-gadget must converge" );
  ( match Snapshot.member "converged_at" good with
    | Some (Snapshot.Float _) | Some (Snapshot.Int _) -> ()
    | _ -> Alcotest.fail "converged row needs a numeric converged_at" );
  ( match Snapshot.member "period" good with
    | Some Snapshot.Null -> ()
    | _ -> Alcotest.fail "converged row has a null period" );
  check "json renders" true (String.length (Snapshot.to_json_pretty s) > 0)

(* BENCH_adversary.json schema: the blast-radius report shape — every
   topology x attack x arm combination present, per-scenario fields
   typed, and the containment contract visible in the data (an arm that
   claims containment reports zero blast radius). *)
let test_adversary_bench_schema () =
  let r = E.Adversary.run E.Adversary.default in
  let s = E.Adversary.to_snapshot r in
  List.iter
    (fun f ->
      match Snapshot.member f s with
      | Some (Snapshot.Int _) -> ()
      | _ -> Alcotest.fail (f ^ ": expected Int field"))
    [ "seed"; "brite_ases"; "caida_ases" ];
  ( match Snapshot.member "healthy" s with
    | Some (Snapshot.Bool true) -> ()
    | _ -> Alcotest.fail "the default suite must be healthy" );
  let rows =
    match Snapshot.member "scenarios" s with
    | Some (Snapshot.List rows) -> rows
    | _ -> Alcotest.fail "scenarios must be a list"
  in
  check_int "2 topologies x 6 attacks x 3 arms" 36 (List.length rows);
  List.iter
    (fun row ->
      ( match Snapshot.member "topology" row with
        | Some (Snapshot.String ("brite" | "caida")) -> ()
        | _ -> Alcotest.fail "topology: expected brite|caida" );
      ( match Snapshot.member "arm" row with
        | Some (Snapshot.String ("legacy" | "dbgp" | "dbgp_bgpsec")) -> ()
        | _ -> Alcotest.fail "arm: expected one of the three arms" );
      ( match Snapshot.member "attack" row with
        | Some (Snapshot.String _) -> ()
        | _ -> Alcotest.fail "attack: expected String field" );
      List.iter
        (fun f ->
          match Snapshot.member f row with
          | Some (Snapshot.Int _) -> ()
          | _ -> Alcotest.fail (f ^ ": expected Int field"))
        [ "attacker"; "victim"; "ases"; "baseline_via_attacker"; "poisoned";
          "detections" ];
      List.iter
        (fun f ->
          match Snapshot.member f row with
          | Some (Snapshot.Float _) -> ()
          | _ -> Alcotest.fail (f ^ ": expected Float field"))
        [ "blast_radius"; "time_to_poison"; "time_to_recover" ];
      List.iter
        (fun f ->
          match Snapshot.member f row with
          | Some (Snapshot.Bool _) -> ()
          | _ -> Alcotest.fail (f ^ ": expected Bool field"))
        [ "control_clean"; "detection_applicable"; "claims_containment";
          "contained"; "recovered_clean"; "censored" ];
      (* The containment contract, as recorded in the artifact. *)
      match (Snapshot.member "claims_containment" row,
             Snapshot.member "blast_radius" row) with
      | Some (Snapshot.Bool true), Some (Snapshot.Float b) when b <> 0. ->
        Alcotest.fail "containment claimed but blast radius nonzero"
      | _ -> ())
    rows;
  check "json renders" true (String.length (Snapshot.to_json_pretty s) > 0)

(* Regression: the wire codec's registry is long-lived (domain-local,
   not per-run), so a suite that reads it without an explicit
   [Codec.wire_metrics_reset] in its setup inherits whatever earlier
   suites encoded.  Pin the discipline: reset zeroes every instrument in
   place and preserves identity, so even stale handles read zero. *)
let test_wire_registry_bleed () =
  let module Codec = Dbgp_core.Codec in
  let ia =
    Dbgp_core.Ia.originate
      ~prefix:(Prefix.of_string "10.99.0.0/24")
      ~origin_asn:(Asn.of_int 99)
      ~next_hop:(Ipv4.of_string "10.99.0.1") ()
  in
  ignore (Codec.decode (Codec.encode ia));
  ignore (Codec.encode_cached ia);
  let m = Codec.wire_metrics () in
  let before = Metrics.counters m in
  check "codec traffic recorded" true (List.exists (fun (_, n) -> n > 0) before);
  (* A handle an "earlier suite" kept around. *)
  let stale = Metrics.counter m "wire.decode_memo.misses" in
  Codec.wire_metrics_reset ();
  check "registry identity stable across reset" true
    (Codec.wire_metrics () == m);
  List.iter
    (fun (name, _) ->
      check_int (name ^ " zeroed") 0 (Metrics.count (Metrics.counter m name)))
    before;
  check_int "stale handle reads zero" 0 (Metrics.count stale);
  (* The bleed this guards against: without the reset, the next suite
     would have started from [before]'s totals instead of from zero. *)
  ignore (Codec.encode_cached ia);
  check "post-reset counts reflect only new traffic" true
    (List.for_all (fun (_, n) -> n <= 2) (Metrics.counters m))

let () =
  Alcotest.run "obs"
    [ ("metrics",
       [ Alcotest.test_case "counters" `Quick test_counters;
         Alcotest.test_case "gauges" `Quick test_gauges;
         Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
         Alcotest.test_case "histogram observe/quantile" `Quick test_histogram_observe;
         Alcotest.test_case "wire registry bleed" `Quick test_wire_registry_bleed ]);
      ("trace",
       [ Alcotest.test_case "ring buffer" `Quick test_trace_ring;
         Alcotest.test_case "labels" `Quick test_trace_labels;
         Alcotest.test_case "rare kind after wrap" `Quick test_trace_rare_after_wrap ]
       @ List.map QCheck_alcotest.to_alcotest trace_qcheck);
      ("snapshot",
       [ Alcotest.test_case "json rendering" `Quick test_json_rendering;
         Alcotest.test_case "of_metrics" `Quick test_snapshot_of_metrics;
         Alcotest.test_case "of_trace" `Quick test_snapshot_of_trace;
         Alcotest.test_case "of_trace golden" `Quick test_snapshot_golden;
         Alcotest.test_case "percentile" `Quick test_percentile ]);
      ("end-to-end",
       [ Alcotest.test_case "speaker instruments" `Quick test_speaker_instruments;
         Alcotest.test_case "network snapshot" `Quick test_network_snapshot;
         Alcotest.test_case "session instruments" `Quick test_session_instruments;
         Alcotest.test_case "error observability" `Quick test_error_observability;
         Alcotest.test_case "batch + attr-table counter names" `Quick
           test_batch_attr_counter_names;
         Alcotest.test_case "chaos snapshot names" `Quick
           test_chaos_snapshot_names;
         Alcotest.test_case "pipeline bench schema" `Quick
           test_pipeline_columns;
         Alcotest.test_case "perf bench schema" `Quick
           test_perf_report_schema;
         Alcotest.test_case "scale bench schema" `Quick
           test_scale_bench_schema;
         Alcotest.test_case "stability bench schema" `Quick
           test_stability_bench_schema;
         Alcotest.test_case "adversary bench schema" `Quick
           test_adversary_bench_schema;
         Alcotest.test_case "sharded bench schema" `Quick
           test_sharded_rows ]) ]
