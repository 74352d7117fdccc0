(* The @scale smoke cell: the full Internet-scale benchmark machinery
   (CAIDA topology, background convergence, full-table feed load, and
   the three-way session-bounce table-transfer comparison) at 100 ASes
   and 1k prefixes, with the tentpole's headline claims asserted on the
   real counters.  The committed BENCH_scale.json runs the same code at
   {1k, 10k} ASes x {1k, 100k} prefixes via `dune exec bench/main.exe`
   or `dbgp-sim scale`. *)

module E = Dbgp_eval

let check = Alcotest.(check bool)

let test_smoke () =
  let r = E.Scale_bench.smoke () in
  Format.printf "%a@." E.Scale_bench.pp r;
  let n = r.E.Scale_bench.prefixes in
  check "table loaded" true (r.E.Scale_bench.load_updates >= n);
  check "updates/s measured" true (r.E.Scale_bench.load_updates_per_s > 0.);
  check "words/route measured" true (r.E.Scale_bench.words_per_route > 0.);
  (* The bugfix, end to end: a session bounce without graceful restart
     re-announces the full table (one per-prefix message per route,
     carried in a few frames); the streamed incremental re-establish
     sends ~nothing for an unchanged table and exactly the changed slice
     under churn. *)
  check "storm re-announces the full table" true
    (r.E.Scale_bench.full_transfer_msgs >= n);
  check "storm crosses in frames" true
    (r.E.Scale_bench.batch_frames > 0
    && r.E.Scale_bench.batched_transfer_msgs < r.E.Scale_bench.full_transfer_msgs
    && r.E.Scale_bench.batched_transfer_bytes
       < r.E.Scale_bench.full_transfer_bytes);
  check "clean incremental arm sends ~nothing" true
    (r.E.Scale_bench.clean_transfer_msgs <= 2);
  check "clean arm skipped the whole table" true
    (r.E.Scale_bench.clean_skipped >= n);
  check "churn arm re-sends only what changed" true
    (r.E.Scale_bench.churn_transfer_msgs
     <= r.E.Scale_bench.churn_routes + 1
    && r.E.Scale_bench.churn_transfer_msgs >= r.E.Scale_bench.churn_routes)

let () =
  Alcotest.run "scale"
    [ ( "smoke",
        [ Alcotest.test_case "100 ASes / 1k prefixes" `Quick test_smoke ] ) ]
