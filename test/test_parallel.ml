(* Sharded-execution suite: the partitioner, the mailbox protocol, the
   domain pool, and — the point of it all — the determinism oracle.

   The oracle property under test: for a fixed seed and scenario, the
   sharded differential digest (merged transcript MD5 + final-state
   MD5) is byte-identical for every worker-domain count.  The region
   count is part of the scenario (it fixes the partitioned schedule);
   the domain count is pure execution policy.  Golden digests recorded
   at 1 domain live in [golden_sharded.txt]; this suite re-runs every
   scenario at 2 and 4 domains against them, and finishes with a
   4-domain convergence smoke bench whose transcript must match its
   own 1-domain run. *)

module Partition = Dbgp_netsim.Partition
module Mailbox = Dbgp_netsim.Mailbox
module Domain_pool = Dbgp_netsim.Domain_pool
module Shard = Dbgp_netsim.Shard
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Speaker = Dbgp_core.Speaker
module Asn = Dbgp_types.Asn
module Prefix = Dbgp_types.Prefix
module Differential = Dbgp_eval.Differential
module Perf_report = Dbgp_eval.Perf_report

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------ partition ----------------------------- *)

let line_edges latencies =
  Array.of_list
    (List.mapi (fun i l -> (i + 1, i + 2, l)) latencies)

let test_partition_balance () =
  let p =
    Partition.build ~nodes:[| 1; 2; 3; 4; 5; 6 |]
      ~edges:(line_edges [ 1.0; 1.0; 1.0; 1.0; 1.0 ])
      ~regions:2 ()
  in
  check_int "two regions" 2 (Partition.regions p);
  check_int "balanced: 3 + 3" 3 (Array.length (Partition.members p 0));
  check_int "one cut edge" 1 (Array.length (Partition.cut_edges p));
  Alcotest.(check (float 0.)) "lookahead = cut latency" 1.0 (Partition.lookahead p)

let test_partition_prefers_slow_cut () =
  (* One long-haul edge mid-line: cutting it keeps the lookahead big. *)
  let p =
    Partition.build ~nodes:[| 1; 2; 3; 4; 5; 6 |]
      ~edges:(line_edges [ 1.0; 1.0; 9.0; 1.0; 1.0 ])
      ~regions:2 ()
  in
  check_int "one cut edge" 1 (Array.length (Partition.cut_edges p));
  Alcotest.(check (float 0.)) "the slow edge is the cut" 9.0
    (Partition.lookahead p)

let test_partition_pinned () =
  let p =
    Partition.build
      ~pinned:[ (3, 4) ]
      ~nodes:[| 1; 2; 3; 4; 5; 6 |]
      ~edges:(line_edges [ 1.0; 1.0; 1.0; 1.0; 1.0 ])
      ~regions:2 ()
  in
  check_int "pinned endpoints share a region" (Partition.region_of p 3)
    (Partition.region_of p 4)

let test_partition_islands_whole () =
  (* Two disconnected triangles fit one per region: no cut at all. *)
  let p =
    Partition.build ~nodes:[| 1; 2; 3; 4; 5; 6 |]
      ~edges:
        [| (1, 2, 1.); (2, 3, 1.); (1, 3, 1.);
           (4, 5, 1.); (5, 6, 1.); (4, 6, 1.) |]
      ~regions:2 ()
  in
  check_int "no cut edges" 0 (Array.length (Partition.cut_edges p));
  check "lookahead infinite" true (Partition.lookahead p = infinity);
  check_int "triangle 1 intact" (Partition.region_of p 1)
    (Partition.region_of p 3);
  check_int "triangle 2 intact" (Partition.region_of p 4)
    (Partition.region_of p 6)

let test_partition_deterministic () =
  let build () =
    Partition.build ~nodes:(Array.init 40 (fun i -> i + 1))
      ~edges:(Array.init 39 (fun i -> (i + 1, i + 2, 1.0 +. float_of_int (i mod 3))))
      ~regions:4 ()
  in
  let a = build () and b = build () in
  for n = 1 to 40 do
    check_int "same region both builds" (Partition.region_of a n)
      (Partition.region_of b n)
  done

(* ------------------------------ mailbox ------------------------------- *)

let test_mailbox_order () =
  let mb = Mailbox.create () in
  check "fresh mailbox empty" true (Mailbox.is_empty mb);
  Mailbox.push mb ~time:3.0 "c";
  Mailbox.push mb ~time:1.0 "a";
  Mailbox.push mb ~time:2.0 "b";
  check_int "length" 3 (Mailbox.length mb);
  Alcotest.(check (option (float 0.))) "min_time" (Some 1.0) (Mailbox.min_time mb);
  (match Mailbox.drain mb with
  | [ (3.0, 0, "c"); (1.0, 1, "a"); (2.0, 2, "b") ] -> ()
  | _ -> Alcotest.fail "drain must preserve push order and indices");
  check "drained empty" true (Mailbox.is_empty mb);
  check "min_time of empty" true (Mailbox.min_time mb = None);
  (* Indices keep growing across drains: the consumer's total order
     stays stable over the mailbox's whole lifetime. *)
  Mailbox.push mb ~time:5.0 "d";
  match Mailbox.drain mb with
  | [ (5.0, 3, "d") ] -> ()
  | _ -> Alcotest.fail "push index must survive a drain"

(* ----------------------------- domain pool ---------------------------- *)

let test_pool_map () =
  let pool = Domain_pool.create ~size:3 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  check_int "size" 3 (Domain_pool.size pool);
  let seen = Domain_pool.map pool (fun m -> m * 10) in
  check "map collects by member" true (seen = [| 0; 10; 20 |]);
  (* The pool is persistent: rounds can repeat. *)
  let again = Domain_pool.map pool (fun m -> m + 1) in
  check "second round" true (again = [| 1; 2; 3 |])

exception Boom of int

let test_pool_exception () =
  let pool = Domain_pool.create ~size:2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  (match Domain_pool.run pool (fun m -> if m = 1 then raise (Boom m)) with
  | () -> Alcotest.fail "worker exception must propagate"
  | exception Boom 1 -> ());
  (* And the pool survives the failed round. *)
  let ok = Domain_pool.map pool (fun m -> m) in
  check "pool usable after exception" true (ok = [| 0; 1 |])

(* ------------------------- determinism oracle ------------------------- *)

let sharded_scenarios () =
  List.map (fun d -> d.Differential.scenario) (Golden.load "golden_sharded.txt")

(* Goldens were recorded at 1 domain; reproduce them at 2. *)
let test_goldens_match_sharded () =
  Golden.check_file ~domains:2 "golden_sharded.txt"

let test_oracle_domain_counts () =
  List.iter
    (fun name ->
      let one = Differential.run ~domains:1 name in
      let two = Differential.run ~domains:2 name in
      let four = Differential.run ~domains:4 name in
      check (name ^ ": 1 = 2 domains") true (Differential.equal one two);
      check (name ^ ": 1 = 4 domains") true (Differential.equal one four))
    (sharded_scenarios ())

let test_oracle_seed_sensitivity () =
  let a = Differential.run ~seed:42 "sharded-hub-policy" in
  let b = Differential.run ~seed:43 "sharded-hub-policy" in
  check "digests depend on the workload" false (Differential.equal a b)

let test_verify_helper () =
  let _, _, ok = Differential.verify ~domains:4 "sharded-relay-line" in
  check "verify agrees" true ok

(* ---------------------------- route refresh --------------------------- *)

(* [Network.refresh_all] on each region of a shard.  A region's link
   table also holds the local half of every cut edge, whose far speaker
   lives in the other region: each region refreshes only its own
   direction of a cut edge, as [Network.recover_half] does, and the
   other region sends the mirror direction. *)
let test_refresh_all_sharded () =
  let addr a = Network.speaker_addr (Asn.of_int a) in
  let sh =
    Shard.create ~regions:2
      ~make_speaker:(fun a ->
        Speaker.create (Speaker.config ~asn:(Asn.of_int a) ~addr:(addr a) ()))
      ()
  in
  List.iter (Shard.add_as sh) [ 1; 2; 3; 4 ];
  (* A customer chain 1 < 2 < 3 < 4: AS 1's route climbs the line and
     AS 4's descends it, so every link carries one route each way. *)
  List.iter
    (fun (a, b) -> Shard.link sh ~a ~b ~b_is:Dbgp_bgp.Policy.To_provider ())
    [ (1, 2); (2, 3); (3, 4) ];
  Shard.build sh;
  check_int "one cut edge" 1
    (Array.length (Partition.cut_edges (Shard.partition sh)));
  let ia a p =
    Dbgp_core.Ia.originate ~prefix:(Prefix.of_string p)
      ~origin_asn:(Asn.of_int a) ~next_hop:(addr a) ()
  in
  Shard.originate sh 1 (ia 1 "99.1.0.0/24");
  Shard.originate sh 4 (ia 4 "99.4.0.0/24");
  for r = 0 to Shard.regions sh - 1 do
    let net = Shard.network sh r in
    Event_queue.schedule_at (Network.queue net) ~time:10. (fun () ->
        Network.refresh_all net)
  done;
  ignore (Shard.run sh);
  check_int "each direction of each link re-sent its one route once" 6
    (Shard.counter_total sh "updates.duplicate");
  List.iter
    (fun a ->
      List.iter
        (fun p ->
          check
            (Printf.sprintf "AS %d holds %s" a p)
            true
            (Speaker.best (Shard.speaker sh a) (Prefix.of_string p) <> None))
        [ "99.1.0.0/24"; "99.4.0.0/24" ])
    [ 1; 2; 3; 4 ]

(* --------------------------- smoke benchmark -------------------------- *)

let test_smoke_bench () =
  let rows =
    Perf_report.domains_suite ~ases:60 ~prefixes:8 ~regions:4 ~domains:[ 1; 4 ]
      ()
  in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Perf_report.sharded_row) ->
      check "transcript matches 1-domain run" true
        r.Perf_report.s_transcript_match;
      check_int "md5 length" 32 (String.length r.Perf_report.s_transcript_md5);
      check_int "regions recorded" 4 r.Perf_report.s_regions;
      check "updates delivered" true (r.Perf_report.s_updates > 0);
      check "barriers ran" true (r.Perf_report.s_epochs > 0))
    rows;
  match rows with
  | [ one; four ] ->
    check_int "first row is 1 domain" 1 one.Perf_report.s_domains;
    check_int "second row capped at 4 regions" 4 four.Perf_report.s_domains;
    check_str "same schedule, same transcript" one.Perf_report.s_transcript_md5
      four.Perf_report.s_transcript_md5
  | _ -> Alcotest.fail "unexpected row count"

let () =
  Alcotest.run "parallel"
    [ ( "partition",
        [ Alcotest.test_case "balance" `Quick test_partition_balance;
          Alcotest.test_case "slow cut preferred" `Quick
            test_partition_prefers_slow_cut;
          Alcotest.test_case "pinned edges" `Quick test_partition_pinned;
          Alcotest.test_case "islands placed whole" `Quick
            test_partition_islands_whole;
          Alcotest.test_case "deterministic" `Quick
            test_partition_deterministic ] );
      ( "mailbox",
        [ Alcotest.test_case "push/drain order" `Quick test_mailbox_order ] );
      ( "domain-pool",
        [ Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception ] );
      ( "oracle",
        [ Alcotest.test_case "golden fingerprints (2 domains)" `Quick
            test_goldens_match_sharded;
          Alcotest.test_case "1 = 2 = 4 domains" `Slow
            test_oracle_domain_counts;
          Alcotest.test_case "seed sensitivity" `Quick
            test_oracle_seed_sensitivity;
          Alcotest.test_case "verify helper" `Quick test_verify_helper ] );
      ( "refresh",
        [ Alcotest.test_case "refresh_all on both regions" `Quick
            test_refresh_all_sharded ] );
      ( "smoke-bench",
        [ Alcotest.test_case "4-domain convergence" `Slow test_smoke_bench ] )
    ]
