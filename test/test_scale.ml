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
  let r = E.Scale_bench.run ~bg:16 ~ases:100 ~prefixes:1_000 () in
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

(* The route store's caps are loud: every cell reports its intern-table
   clears, and on a grid well inside the caps all of them read zero. *)
let test_caps_silent () =
  List.iter
    (fun (r : E.Scale_bench.row) ->
      let what = Printf.sprintf "%d ASes / %d prefixes" r.ases r.prefixes in
      Alcotest.(check int) (what ^ ": string table clears") 0 r.string_clears;
      Alcotest.(check int) (what ^ ": value table clears") 0 r.value_clears;
      Alcotest.(check int)
        (what ^ ": descriptor table clears") 0 r.descriptor_clears)
    (E.Scale_bench.suite ~grid:[ (30, 200); (100, 2_000) ] ());
  check "caps named" true
    (List.map fst (E.Scale_bench.caps ())
    = [ "intern.string.clears"; "intern.value.clears";
        "attr_table.descriptors.clears" ])

let () =
  Alcotest.run "scale"
    [ ( "smoke",
        [ Alcotest.test_case "100 ASes / 1k prefixes" `Quick test_smoke;
          Alcotest.test_case "caps silent on a small grid" `Quick
            test_caps_silent ] ) ]
