open Dbgp_types
module Eq = Dbgp_netsim.Event_queue
module Lookup = Dbgp_netsim.Lookup_service
module Network = Dbgp_netsim.Network
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module P = Dbgp_bgp.Policy
module Metrics = Dbgp_obs.Metrics

let net_counter net name = Metrics.count (Metrics.counter (Network.metrics net) name)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string

(* ------------------------- event queue ------------------------- *)

let test_eq_ordering () =
  let q = Eq.create () in
  let log = ref [] in
  Eq.schedule q ~delay:3. (fun () -> log := "c" :: !log);
  Eq.schedule q ~delay:1. (fun () -> log := "a" :: !log);
  Eq.schedule q ~delay:2. (fun () -> log := "b" :: !log);
  check_int "three events" 3 (Eq.run q);
  check "time order" true (List.rev !log = [ "a"; "b"; "c" ]);
  check "clock advanced" true (Eq.now q = 3.)

let test_eq_fifo_at_same_time () =
  let q = Eq.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Eq.schedule q ~delay:1. (fun () -> log := i :: !log)
  done;
  ignore (Eq.run q);
  check "scheduling order preserved" true (List.rev !log = [ 1; 2; 3; 4; 5 ])

let test_eq_nested_scheduling () =
  let q = Eq.create () in
  let log = ref [] in
  Eq.schedule q ~delay:1. (fun () ->
      log := "outer" :: !log;
      Eq.schedule q ~delay:1. (fun () -> log := "inner" :: !log));
  ignore (Eq.run q);
  check "cascade ran" true (List.rev !log = [ "outer"; "inner" ]);
  check "now is 2" true (Eq.now q = 2.)

let test_eq_errors_and_budget () =
  let q = Eq.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Event_queue.schedule: negative delay") (fun () ->
      Eq.schedule q ~delay:(-1.) (fun () -> ()));
  Eq.schedule q ~delay:1. (fun () -> ());
  Alcotest.check_raises "past" (Invalid_argument "Event_queue.schedule_at: time in the past")
    (fun () ->
      ignore (Eq.run q);
      Eq.schedule_at q ~time:0.5 (fun () -> ()));
  (* budget stops a self-perpetuating chain *)
  let q2 = Eq.create () in
  let rec forever () = Eq.schedule q2 ~delay:1. (fun () -> forever ()) in
  forever ();
  check_int "bounded" 10 (Eq.run ~max_events:10 q2)

let test_eq_step () =
  let q = Eq.create () in
  check "empty step" false (Eq.step q);
  Eq.schedule q ~delay:1. (fun () -> ());
  check_int "pending" 1 (Eq.pending q);
  check "step" true (Eq.step q);
  check "drained" true (Eq.is_empty q)

(* ------------------------- lookup service ------------------------- *)

let test_lookup_kv () =
  let l = Lookup.create () in
  let portal = ip "172.16.0.1" in
  Lookup.post l ~portal ~service:"svc" ~key:"k" (Value.Int 1);
  check "fetch" true (Lookup.fetch l ~portal ~service:"svc" ~key:"k" = Some (Value.Int 1));
  check "missing" true (Lookup.fetch l ~portal ~service:"svc" ~key:"other" = None);
  check "portal isolation" true
    (Lookup.fetch l ~portal:(ip "172.16.0.2") ~service:"svc" ~key:"k" = None);
  Lookup.post l ~portal ~service:"svc" ~key:"k" (Value.Int 2);
  check "overwrite" true (Lookup.fetch l ~portal ~service:"svc" ~key:"k" = Some (Value.Int 2));
  check "keys" true (Lookup.keys l ~portal ~service:"svc" = [ "k" ])

let test_lookup_rpc_accounting () =
  let l = Lookup.create () in
  let portal = ip "172.16.0.1" in
  check "no handler" true (Lookup.rpc l ~portal ~service:"x" (Value.Int 0) = None);
  Lookup.register_handler l ~portal ~service:"x" (fun v ->
      Option.map (fun n -> Value.Int (n + 1)) (Value.as_int v));
  check "handled" true (Lookup.rpc l ~portal ~service:"x" (Value.Int 41) = Some (Value.Int 42));
  check "handler declines" true (Lookup.rpc l ~portal ~service:"x" (Value.Str "no") = None);
  check "accesses counted" true (Lookup.accesses l > 0);
  Lookup.reset_accesses l;
  check_int "reset" 0 (Lookup.accesses l)

(* ------------------------- network ------------------------- *)

let mk_net chain =
  (* chain of customer->provider ASes, e.g. [1;2;3]: 1 cust of 2 cust of 3 *)
  let net = Network.create () in
  List.iter
    (fun n ->
      Network.add_speaker net
        (Speaker.create
           (Speaker.config ~asn:(asn n) ~addr:(Network.speaker_addr (asn n)) ())))
    chain;
  let rec links = function
    | a :: (b :: _ as rest) ->
      Network.link net ~a:(asn a) ~b:(asn b) ~b_is:P.To_provider ();
      links rest
    | _ -> ()
  in
  links chain;
  net

let origin_ia n prefix =
  Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn n)
    ~next_hop:(Network.speaker_addr (asn n)) ()

let test_network_propagation () =
  let net = mk_net [ 1; 2; 3; 4 ] in
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  let stats = Network.run net in
  check "messages flowed" true (stats.Network.messages >= 3);
  check "bytes counted" true (stats.Network.announce_bytes > 0);
  let best = Speaker.best (Network.speaker net (asn 4)) (pfx "99.0.0.0/24") in
  ( match best with
    | Some chosen ->
      check "full path" true
        (Ia.asns_on_path chosen.Speaker.candidate.Dbgp_core.Decision_module.ia
        = [ asn 3; asn 2; asn 1 ])
    | None -> Alcotest.fail "AS 4 should learn the route" );
  check "converged time positive" true (stats.Network.converged_at > 0.)

let test_network_next_hop_fib () =
  let net = mk_net [ 1; 2; 3 ] in
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  let s3 = Network.speaker net (asn 3) in
  check "fib points at 2" true
    (Speaker.next_hop_of s3 (ip "99.0.0.5") = Some (Network.speaker_addr (asn 2)));
  check "unknown dest" true (Speaker.next_hop_of s3 (ip "55.0.0.1") = None)

let test_network_link_failure () =
  let net = mk_net [ 1; 2; 3 ] in
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  check "learned" true (Speaker.best (Network.speaker net (asn 3)) (pfx "99.0.0.0/24") <> None);
  Network.fail_link net (asn 1) (asn 2);
  ignore (Network.run net);
  check "withdrawn everywhere" true
    (Speaker.best (Network.speaker net (asn 3)) (pfx "99.0.0.0/24") = None)

let test_network_alternate_path_after_failure () =
  (* diamond: 1 -> 2 -> 4 and 1 -> 3 -> 4 (all customer->provider up). *)
  let net = Network.create () in
  List.iter
    (fun n ->
      Network.add_speaker net
        (Speaker.create (Speaker.config ~asn:(asn n) ~addr:(Network.speaker_addr (asn n)) ())))
    [ 1; 2; 3; 4 ];
  Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:P.To_provider ();
  Network.link net ~a:(asn 1) ~b:(asn 3) ~b_is:P.To_provider ();
  Network.link net ~a:(asn 2) ~b:(asn 4) ~b_is:P.To_provider ();
  Network.link net ~a:(asn 3) ~b:(asn 4) ~b_is:P.To_provider ();
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  let via_first =
    match Speaker.best (Network.speaker net (asn 4)) (pfx "99.0.0.0/24") with
    | Some c -> Ia.asns_on_path c.Speaker.candidate.Dbgp_core.Decision_module.ia
    | None -> []
  in
  check "initially reachable" true (via_first <> []);
  let middle = List.hd via_first in
  Network.fail_link net (Asn.of_int (Asn.to_int middle)) (asn 4);
  ignore (Network.run net);
  ( match Speaker.best (Network.speaker net (asn 4)) (pfx "99.0.0.0/24") with
    | Some c ->
      let path = Ia.asns_on_path c.Speaker.candidate.Dbgp_core.Decision_module.ia in
      check "rerouted around failure" false (List.mem middle path)
    | None -> Alcotest.fail "alternate path should exist" )

let test_network_duplicate_speaker () =
  let net = Network.create () in
  let s = Speaker.create (Speaker.config ~asn:(asn 1) ~addr:(Network.speaker_addr (asn 1)) ()) in
  Network.add_speaker net s;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Network.add_speaker: duplicate speaker address")
    (fun () -> Network.add_speaker net s)

let test_network_inject () =
  (* A spoofed announcement from an unknown peer is processed like any
     other message (attack-injection hook). *)
  let net = mk_net [ 1; 2 ] in
  let bogus = Dbgp_core.Peer.make ~asn:(asn 66) ~addr:(ip "10.6.6.6") in
  Network.inject net ~from:bogus ~to_:(asn 2)
    (Speaker.Announce (origin_ia 66 "66.0.0.0/24"));
  ignore (Network.run net);
  check "spoofed route installed (no BGPSec!)" true
    (Speaker.best (Network.speaker net (asn 2)) (pfx "66.0.0.0/24") <> None)

let test_network_stats_withdrawals () =
  let net = mk_net [ 1; 2; 3 ] in
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run net);
  Network.fail_link net (asn 1) (asn 2);
  let stats = Network.run net in
  check "withdrawals counted" true (stats.Network.withdrawals >= 1)

let test_network_mrai_batches () =
  (* Diamond where AS 4 hears a long path first, then a shorter one: the
     transient extra advertisement to downstream AS 5 is suppressed by
     the MRAI batch (only the final state is delivered). *)
  let build mrai =
    let net = Network.create () in
    List.iter
      (fun n ->
        Network.add_speaker net
          (Speaker.create (Speaker.config ~asn:(asn n) ~addr:(Network.speaker_addr (asn n)) ())))
      [ 1; 2; 3; 4; 5 ];
    Network.set_mrai net mrai;
    Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:P.To_provider ~latency:5. ();
    Network.link net ~a:(asn 1) ~b:(asn 3) ~b_is:P.To_provider ~latency:1. ();
    Network.link net ~a:(asn 3) ~b:(asn 2) ~b_is:P.To_provider ~latency:1. ();
    Network.link net ~a:(asn 2) ~b:(asn 4) ~b_is:P.To_provider ~latency:1. ();
    Network.link net ~a:(asn 4) ~b:(asn 5) ~b_is:P.To_provider ~latency:1. ();
    Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
    Network.run net
  in
  let immediate = build 0. and batched = build 30. in
  check "batching reduces messages" true
    (batched.Network.messages < immediate.Network.messages);
  check "negative mrai rejected" true
    ( try
        Network.set_mrai (Network.create ()) (-1.);
        false
      with Invalid_argument _ -> true )

let test_network_mrai_converges_same_routes () =
  let routes mrai =
    let net = mk_net [ 1; 2; 3; 4 ] in
    Network.set_mrai net mrai;
    Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
    ignore (Network.run net);
    match Speaker.best (Network.speaker net (asn 4)) (pfx "99.0.0.0/24") with
    | Some c -> Ia.asns_on_path c.Speaker.candidate.Dbgp_core.Decision_module.ia
    | None -> []
  in
  check "same final routes with and without MRAI" true (routes 0. = routes 10.)

let test_network_mrai_cleared_batch () =
  (* A link failure empties the pending MRAI batch, but the flush it had
     scheduled still fires: it must do nothing — no flush counted, no
     trace event — rather than report a flush of zero messages. *)
  let net = mk_net [ 1; 2; 3 ] in
  Network.set_mrai net 5.;
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  check "one event ran" true (Eq.step (Network.queue net));
  Network.fail_link net (asn 1) (asn 2);
  let stats = Network.run net in
  check_int "no flush of an emptied batch" 0 (net_counter net "net.mrai_flushes");
  check_int "nothing batched" 0 (net_counter net "net.mrai_batched");
  check_int "nothing delivered" 0 stats.Network.messages;
  let flush_events =
    List.filter
      (fun (e : Dbgp_obs.Trace.entry) ->
        match e.event with Dbgp_obs.Trace.Mrai_flush _ -> true | _ -> false)
      (Dbgp_obs.Trace.entries (Network.trace net))
  in
  check_int "no flush traced" 0 (List.length flush_events)

let test_network_batched_delivery () =
  (* Frame conservation: on a fault-free MRAI run with no link failures
     every flushed message arrives in exactly one frame, so frames plus
     the per-prefix messages they replaced account for every message the
     flushes batched — and every route still reaches the far end. *)
  let n = 12 in
  let net = mk_net [ 1; 2; 3; 4 ] in
  Network.set_mrai net 5.;
  for i = 0 to n - 1 do
    Network.originate net (asn 1) (origin_ia 1 (Printf.sprintf "99.%d.0.0/24" i))
  done;
  let stats = Network.run net in
  for i = 0 to n - 1 do
    check "route reaches AS 4" true
      (Speaker.best (Network.speaker net (asn 4))
         (pfx (Printf.sprintf "99.%d.0.0/24" i))
       <> None)
  done;
  check_int "messages + saved = batched"
    (net_counter net "net.mrai_batched")
    (stats.Network.messages + net_counter net "net.batch.saved");
  check "frames counted" true (net_counter net "net.batch.frames" > 0);
  check "per-prefix messages saved" true
    (net_counter net "net.batch.saved" >= n - 1)

let test_network_default_delivers_bytes () =
  (* No setter called: every announce still crosses the wire as bytes,
     so each one passes through the receiver's decode memo once. *)
  let module Codec = Dbgp_core.Codec in
  Codec.wire_metrics_reset ();
  let net = mk_net [ 1; 2; 3 ] in
  Network.originate net (asn 1) (origin_ia 1 "99.0.0.0/24");
  Network.originate net (asn 3) (origin_ia 3 "99.1.0.0/24");
  ignore (Network.run net);
  let wire name = Metrics.count (Metrics.counter (Codec.wire_metrics ()) name) in
  let announces = Network.counter_total net "updates.received" in
  check "announces delivered" true (announces >= 4);
  check_int "every announce decoded from bytes" announces
    (wire "wire.decode_memo.hits" + wire "wire.decode_memo.misses");
  (* The old mode switches survive only as no-ops. *)
  Network.set_wire_delivery net true;
  Network.set_batching net true;
  List.iter
    (fun set ->
      match set net false with
      | () -> Alcotest.fail "switching delivery off must be refused"
      | exception Invalid_argument _ -> ())
    [ Network.set_wire_delivery; Network.set_batching ]

(* The attribute-set hash samples long payloads, so two 32 KB payloads
   differing in one unsampled byte collide.  Every table keyed by that
   hash must still tell them apart: distinct attribute-table entries, never
   one batched frame, and each IA's own bytes from the encode cache. *)
let test_sampled_hash_collisions () =
  let module Codec = Dbgp_core.Codec in
  let module Attr_table = Dbgp_core.Attr_table in
  let proto = Protocol_id.register ~kind:Protocol_id.Critical_fix "test-collide" in
  let payload_a = String.make (32 * 1024) 'x' in
  let payload_b = String.mapi (fun i c -> if i = 1 then 'y' else c) payload_a in
  let with_payload payload prefix =
    Ia.set_path_descriptor ~owners:[ proto ] ~field:"payload" (Value.Bytes payload)
      (origin_ia 1 prefix)
  in
  let a = with_payload payload_a "99.0.0.0/24" and b = with_payload payload_b "99.0.0.0/24" in
  check "the sampled hashes collide" true (Ia.attrs_hash a = Ia.attrs_hash b);
  check "the attribute sets differ" false (Ia.same_attrs a b);
  (* Attribute table: two resident entries. *)
  Attr_table.reset ();
  let a' = Attr_table.share a and b' = Attr_table.share b in
  check "shared a keeps its payload" true (Ia.equal (Attr_table.canon a') a);
  check "shared b keeps its payload" true (Ia.equal (Attr_table.canon b') b);
  check "distinct entries" false (Attr_table.same a' b');
  check "both resident" true
    (Attr_table.refcount a = Some 1 && Attr_table.refcount b = Some 1);
  Attr_table.release a';
  Attr_table.release b';
  (* Encode cache: same prefix and advertiser, so the same slot; each lookup must still
     answer with its own IA's bytes. *)
  List.iter
    (fun ia -> check "own bytes" true (Codec.encode_cached ia = Codec.encode ia))
    [ a; b; a; b ];
  (* Batching: p0 and p2 share a's attribute set, p1 carries b's.  One
     flush from AS 1 holds all three; only p0 and p2 may share a frame. *)
  let net = mk_net [ 1; 2 ] in
  Network.set_mrai net 5.;
  let prefixes = [ "99.0.0.0/24"; "99.1.0.0/24"; "99.2.0.0/24" ] in
  List.iteri
    (fun i p ->
      Network.originate net (asn 1) (with_payload (if i = 1 then payload_b else payload_a) p))
    prefixes;
  ignore (Network.run net);
  List.iteri
    (fun i p ->
      match Speaker.best (Network.speaker net (asn 2)) (pfx p) with
      | Some c ->
        check (p ^ " carries its own payload") true
          (Ia.find_path_descriptor ~proto ~field:"payload"
             c.Speaker.candidate.Dbgp_core.Decision_module.ia
          = Some (Value.Bytes (if i = 1 then payload_b else payload_a)))
      | None -> Alcotest.fail (p ^ " did not arrive"))
    prefixes;
  let frames = net_counter net "net.batch.frames" in
  check "a's two prefixes were batched" true (frames >= 1);
  check_int "no frame took b's prefix along" frames (net_counter net "net.batch.saved")

let test_network_sync_withdraw_sweep () =
  (* Routes withdrawn while a session is down leave tombstones; the
     incremental sync after a graceful re-establish sweeps them out as
     one batched withdraw frame, counted under sync.withdrawn. *)
  let n = 10 and k = 6 in
  let net = mk_net [ 1; 2 ] in
  Network.set_mrai net 5.;
  Network.set_graceful_restart net (Some 500.);
  for i = 0 to n - 1 do
    Network.originate net (asn 1) (origin_ia 1 (Printf.sprintf "99.%d.0.0/24" i))
  done;
  ignore (Network.run net);
  Network.fail_link net (asn 1) (asn 2);
  for i = 0 to k - 1 do
    Network.withdraw_origin net (asn 1) (pfx (Printf.sprintf "99.%d.0.0/24" i))
  done;
  let wd0 = Network.counter_total net "sync.withdrawn" in
  let saved0 = net_counter net "net.batch.saved" in
  (* Re-establish inside the restart window: a free-running Network.run
     would drain the queue past the window expiry and flush the stale
     state, so the recover rides the event queue. *)
  Eq.schedule (Network.queue net) ~delay:5. (fun () ->
      Network.recover_link net (asn 1) (asn 2));
  ignore (Network.run net);
  check "sweep counted under sync.withdrawn" true
    (Network.counter_total net "sync.withdrawn" - wd0 >= k);
  check "sweep left as a batched frame" true
    (net_counter net "net.batch.saved" - saved0 >= k - 1);
  let best i =
    Speaker.best (Network.speaker net (asn 2)) (pfx (Printf.sprintf "99.%d.0.0/24" i))
  in
  for i = 0 to k - 1 do
    check "withdrawn route gone" true (best i = None)
  done;
  for i = k to n - 1 do
    check "surviving route retained" true (best i <> None)
  done;
  check_int "no stale routes left" 0 (Network.stale_total net)

let test_network_duplicate_delivery () =
  (* Session-layer retransmits: every message delivered twice.  The
     duplicate copies must be absorbed by the speakers (no decision
     re-runs, no extra advertisements) and the network must converge to
     exactly the routes of a fault-free run. *)
  let routes net =
    match Speaker.best (Network.speaker net (asn 4)) (pfx "99.0.0.0/24") with
    | Some c -> Ia.asns_on_path c.Speaker.candidate.Dbgp_core.Decision_module.ia
    | None -> []
  in
  let clean = mk_net [ 1; 2; 3; 4 ] in
  Network.originate clean (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run clean);
  let dup = mk_net [ 1; 2; 3; 4 ] in
  let f = Dbgp_netsim.Fault_model.create ~seed:1 () in
  Dbgp_netsim.Fault_model.set_duplicate f 1.0;
  Network.set_fault_model dup f;
  Network.originate dup (asn 1) (origin_ia 1 "99.0.0.0/24");
  ignore (Network.run dup);
  check "duplicates injected" true (Dbgp_netsim.Fault_model.duplicated f > 0);
  check "duplicate copies absorbed" true
    (Network.counter_total dup "updates.duplicate" > 0);
  check "same routes as the fault-free run" true (routes dup = routes clean);
  check_int "no route flaps from retransmits" 0
    (Network.counter_total dup "withdrawals.received")

(* --------------- merge/drain order reference model --------------- *)

(* The contract a sharded run leans on (Shard.drain merges mailbox
   arrivals into region queues): [merge ~into:dst src] appends [src]'s
   events in their (time, seq) order, clamping past times to [dst]'s
   clock, so at equal times [dst]'s pre-existing events drain first and
   [src]'s relative order survives.  Model: a Map keyed by
   (time, dst-before-src, rank) replayed against the real queue after an
   arbitrary partial drain. *)
let qcheck_merge =
  let open QCheck in
  let module Key = struct
    type t = float * int * int

    let compare = Stdlib.compare
  end in
  let module M = Map.Make (Key) in
  Test.make ~name:"merge/drain order matches Map reference model" ~count:500
    (triple
       (list_of_size (Gen.int_range 0 12) (int_bound 40))
       (list_of_size (Gen.int_range 0 12) (int_bound 40))
       (int_bound 40))
    (fun (dst_raw, src_raw, h_raw) ->
      (* Quarter-step grid makes same-time ties common. *)
      let t_of i = float_of_int i /. 4. in
      let dst_times = List.map t_of dst_raw in
      let src_times = List.map t_of src_raw in
      let horizon = t_of h_raw in
      let log = ref [] in
      let emit tag () = log := tag :: !log in
      let dst = Eq.create () and src = Eq.create () in
      List.iteri (fun i t -> Eq.schedule_at dst ~time:t (emit ("d", i))) dst_times;
      List.iteri (fun j t -> Eq.schedule_at src ~time:t (emit ("s", j))) src_times;
      ignore (Eq.run_until dst ~horizon);
      Eq.merge ~into:dst src;
      let src_empty = Eq.is_empty src in
      ignore (Eq.run dst);
      (* Reference: the partial drain runs dst events strictly below the
         horizon in (time, seq) order and leaves the clock on the last
         one; everything else replays from the model map. *)
      let executed, remaining =
        List.partition (fun ((t, _, _), _) -> t < horizon)
          (List.mapi (fun i t -> ((t, 0, i), ("d", i))) dst_times)
      in
      let executed = List.sort (fun (a, _) (b, _) -> Key.compare a b) executed in
      let clock =
        List.fold_left (fun c ((t, _, _), _) -> max c t) 0. executed
      in
      let src_ranked =
        List.sort
          (fun (t, j, _) (t', j', _) -> Stdlib.compare (t, j) (t', j'))
          (List.mapi (fun j t -> (t, j, ("s", j))) src_times)
        |> List.mapi (fun rank (t, _, tag) -> ((max t clock, 1, rank), tag))
      in
      let model =
        List.fold_left
          (fun m (k, v) -> M.add k v m)
          M.empty (remaining @ src_ranked)
      in
      let expected =
        List.map snd executed @ List.map snd (M.bindings model)
      in
      src_empty && List.rev !log = expected)

let () =
  Alcotest.run "netsim"
    [ ("event-queue",
       [ Alcotest.test_case "ordering" `Quick test_eq_ordering;
         Alcotest.test_case "fifo ties" `Quick test_eq_fifo_at_same_time;
         Alcotest.test_case "nested" `Quick test_eq_nested_scheduling;
         Alcotest.test_case "errors/budget" `Quick test_eq_errors_and_budget;
         Alcotest.test_case "step" `Quick test_eq_step ]);
      ("lookup",
       [ Alcotest.test_case "kv" `Quick test_lookup_kv;
         Alcotest.test_case "rpc/accounting" `Quick test_lookup_rpc_accounting ]);
      ("network",
       [ Alcotest.test_case "propagation" `Quick test_network_propagation;
         Alcotest.test_case "fib" `Quick test_network_next_hop_fib;
         Alcotest.test_case "link failure" `Quick test_network_link_failure;
         Alcotest.test_case "reroute" `Quick test_network_alternate_path_after_failure;
         Alcotest.test_case "duplicate speaker" `Quick test_network_duplicate_speaker;
         Alcotest.test_case "inject" `Quick test_network_inject;
         Alcotest.test_case "withdrawal stats" `Quick test_network_stats_withdrawals;
         Alcotest.test_case "mrai batches" `Quick test_network_mrai_batches;
         Alcotest.test_case "mrai same routes" `Quick test_network_mrai_converges_same_routes;
         Alcotest.test_case "mrai cleared batch" `Quick test_network_mrai_cleared_batch;
         Alcotest.test_case "batched delivery" `Quick test_network_batched_delivery;
         Alcotest.test_case "default delivers bytes" `Quick
           test_network_default_delivers_bytes;
         Alcotest.test_case "sampled-hash collisions" `Quick test_sampled_hash_collisions;
         Alcotest.test_case "sync withdraw sweep" `Quick test_network_sync_withdraw_sweep;
         Alcotest.test_case "duplicate delivery absorbed" `Quick
           test_network_duplicate_delivery ]);
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_merge ]) ]
