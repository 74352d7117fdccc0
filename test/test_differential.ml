(* Differential equivalence against the committed golden transcripts.

   The golden fingerprints in [golden_differential.txt] were recorded
   against the pre-pipeline speaker; the staged-RIB speaker must
   reproduce them byte for byte — identical ordered message transcript,
   identical final state — on every scenario, including the seeded
   chaos run.  A batched (MRAI > 0) chaos run additionally has to come
   out healthy: receive-side coalescing must not cost safety. *)

module Differential = Dbgp_eval.Differential
module Chaos = Dbgp_eval.Chaos

let check = Alcotest.(check bool)

let test_goldens_match () =
  Alcotest.(check (list string))
    "one golden per scenario, sequential then sharded" Differential.scenarios
    (List.map
       (fun d -> d.Differential.scenario)
       (Golden.load "golden_differential.txt" @ Golden.load "golden_sharded.txt"));
  Golden.check_file ~domains:1 "golden_differential.txt"

let test_digest_line_roundtrip () =
  let d = Differential.run "relay-line" in
  check "to_line/of_line roundtrip" true
    (Differential.of_line (Differential.to_line d) = Some d);
  check "of_line rejects garbage" true
    (Differential.of_line "not a golden line" = None)

let test_seed_sensitivity () =
  (* A different seed must change the fingerprints — otherwise the
     digests are not actually covering the workload. *)
  let a = Differential.run ~seed:42 "hub-policy" in
  let b = Differential.run ~seed:43 "hub-policy" in
  check "digests depend on the workload" false (Differential.equal a b)

let test_batched_chaos_healthy () =
  let report = Chaos.run { Chaos.default with Chaos.mrai = 2.0 } in
  check "batched chaos run is healthy" true (Chaos.healthy report);
  check "invariants hold" true
    (Dbgp_eval.Invariants.ok report.Chaos.invariants)

let () =
  Alcotest.run "differential"
    [ ( "golden",
        [ Alcotest.test_case "all scenarios match" `Quick test_goldens_match;
          Alcotest.test_case "line roundtrip" `Quick
            test_digest_line_roundtrip;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity ]
      );
      ( "batched-chaos",
        [ Alcotest.test_case "mrai 2.0 healthy" `Quick
            test_batched_chaos_healthy ] ) ]
