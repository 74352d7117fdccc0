(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and runs bechamel micro-benchmarks over the kernels behind
   them (IA codec, speaker pipeline, benefit-propagation round), plus the
   ablations called out in DESIGN.md (in-band vs out-of-band
   dissemination, island-ID abstraction vs full AS listing, descriptor
   sharing on/off). *)

open Bechamel
open Toolkit
module E = Dbgp_eval
open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Codec = Dbgp_core.Codec
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer

let out = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Micro-benchmark kernels                                             *)
(* ------------------------------------------------------------------ *)

let sample_ia payload =
  let ia =
    Ia.originate
      ~prefix:(Prefix.of_string "198.51.100.0/24")
      ~origin_asn:(Asn.of_int 64501)
      ~next_hop:(Ipv4.of_string "10.0.0.1")
      ()
    |> Ia.prepend_as (Asn.of_int 64502)
    |> Ia.prepend_as (Asn.of_int 64503)
    |> Ia.prepend_island (Island_id.named "A")
  in
  if payload = 0 then ia
  else
    Ia.set_path_descriptor
      ~owners:[ Protocol_id.wiser; Protocol_id.bgpsec; Protocol_id.eq_bgp ]
      ~field:"payload"
      (Value.Bytes (String.make payload 'x'))
      ia

(* Section 5 stress kernels: encode / decode / full speaker receive. *)
let encode_test payload =
  let ia = sample_ia payload in
  Test.make
    ~name:(Printf.sprintf "encode-%dB" payload)
    (Staged.stage (fun () -> ignore (Codec.encode ia)))

let decode_test payload =
  let wire = Codec.encode (sample_ia payload) in
  Test.make
    ~name:(Printf.sprintf "decode-%dB" payload)
    (Staged.stage (fun () -> ignore (Codec.decode wire)))

let speaker_receive_test () =
  let speaker =
    Speaker.create
      (Speaker.config ~asn:(Asn.of_int 64510)
         ~addr:(Ipv4.of_string "10.9.9.9") ())
  in
  let from = Peer.make ~asn:(Asn.of_int 64502) ~addr:(Ipv4.of_string "10.9.9.2") in
  Speaker.add_neighbor speaker
    (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_peer from);
  let ia = sample_ia 128 in
  Test.make ~name:"speaker-receive"
    (Staged.stage (fun () ->
         ignore (Speaker.receive speaker ~from (Speaker.Announce ia))))

(* Figure 9/10 kernel: one full per-destination benefit propagation. *)
let benefit_round_test () =
  let cfg =
    { E.Benefits.default with
      E.Benefits.brite = { Dbgp_topology.Brite.default with Dbgp_topology.Brite.n = 200 };
      trials = 1;
      dest_sample = 5;
      adoption_levels = [ 50 ] }
  in
  Test.make ~name:"fig9-propagation-n200"
    (Staged.stage (fun () ->
         ignore (E.Benefits.extra_paths cfg E.Benefits.Dbgp_baseline)))

(* Table 3 kernel: the analytic model itself. *)
let overhead_test () =
  Test.make ~name:"table3-model"
    (Staged.stage (fun () ->
         ignore (E.Overhead.table3 E.Overhead.lo);
         ignore (E.Overhead.table3 E.Overhead.hi)))

(* Ablation: out-of-band dissemination pays a lookup access per IA
   (CF-R2's constant penalty). *)
let oob_ablation_tests () =
  let lookup = Dbgp_netsim.Lookup_service.create () in
  let portal = Ipv4.of_string "172.16.0.1" in
  let ia = sample_ia 128 in
  let wire = Codec.encode ia in
  Dbgp_netsim.Lookup_service.post lookup ~portal ~service:"ia-store" ~key:"k"
    (Value.Bytes wire);
  let inband =
    Test.make ~name:"dissemination-in-band"
      (Staged.stage (fun () -> ignore (Codec.decode wire)))
  in
  let oob =
    Test.make ~name:"dissemination-out-of-band"
      (Staged.stage (fun () ->
           match
             Dbgp_netsim.Lookup_service.fetch lookup ~portal ~service:"ia-store"
               ~key:"k"
           with
           | Some (Value.Bytes w) -> ignore (Codec.decode w)
           | _ -> assert false))
  in
  [ inband; oob ]

let bench_groups () =
  [ Test.make_grouped ~name:"stress"
      [ encode_test 0; encode_test 1024; encode_test 32768;
        decode_test 0; decode_test 1024; decode_test 32768;
        speaker_receive_test () ];
    Test.make_grouped ~name:"figures" [ benefit_round_test () ];
    Test.make_grouped ~name:"tables" [ overhead_test () ];
    Test.make_grouped ~name:"ablation-oob" (oob_ablation_tests ()) ]

let run_bechamel () =
  Format.fprintf out
    "@.==================== bechamel micro-benchmarks ====================@.@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.25) ()
  in
  List.iter
    (fun group ->
      let raw = Benchmark.all cfg instances group in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols) ->
             match Analyze.OLS.estimates ols with
             | Some [ ns ] when ns >= 1000. ->
               Format.fprintf out "%-40s %12.2f us/run@." name (ns /. 1000.)
             | Some [ ns ] -> Format.fprintf out "%-40s %12.1f ns/run@." name ns
             | _ -> Format.fprintf out "%-40s (no estimate)@." name))
    (bench_groups ());
  Format.fprintf out "@."

(* ------------------------------------------------------------------ *)
(* Ablation: island-ID abstraction vs full AS listing (IA size and     *)
(* path diversity trade-off of Section 3.2)                            *)
(* ------------------------------------------------------------------ *)

let island_id_ablation () =
  Format.fprintf out
    "==================== ablation: island-ID abstraction ====================@.@.";
  let members = List.init 12 (fun i -> Asn.of_int (64600 + i)) in
  let listed =
    List.fold_left
      (fun ia a -> Ia.prepend_as a ia)
      (Ia.originate
         ~prefix:(Prefix.of_string "198.51.100.0/24")
         ~origin_asn:(Asn.of_int 64501)
         ~next_hop:(Ipv4.of_string "10.0.0.1")
         ())
      members
    |> Ia.declare_membership ~island:(Island_id.named "big-island") ~members
  in
  let abstracted =
    Ia.abstract_island ~island:(Island_id.named "big-island") ~members listed
  in
  Format.fprintf out
    "full AS listing:      %4d bytes, path length %2d (loop detection per AS)@."
    (Codec.size listed) (Ia.path_length listed);
  Format.fprintf out
    "island-ID abstracted: %4d bytes, path length %2d (diversity reduced to island granularity)@.@."
    (Codec.size abstracted)
    (Ia.path_length abstracted)

(* ------------------------------------------------------------------ *)
(* Experiment regenerators (same outputs as bin/dbgp-sim)              *)
(* ------------------------------------------------------------------ *)

let rule title =
  Format.fprintf out "@.==================== %s ====================@.@." title

let print_benefit fig (dbgp : E.Benefits.series) (bgp : E.Benefits.series) =
  Format.fprintf out "Figure %s: %s archetype@.@." fig dbgp.E.Benefits.archetype;
  Format.fprintf out "status quo: %.1f    best case: %.1f@.@."
    dbgp.E.Benefits.status_quo dbgp.E.Benefits.best_case;
  Format.fprintf out "%9s %22s %22s@." "adoption" "D-BGP baseline" "BGP baseline";
  List.iter2
    (fun (d : E.Benefits.point) (b : E.Benefits.point) ->
      Format.fprintf out "%8d%% %12.1f +/-%6.1f %12.1f +/-%6.1f@."
        d.E.Benefits.adoption_pct d.E.Benefits.mean d.E.Benefits.ci95
        b.E.Benefits.mean b.E.Benefits.ci95)
    dbgp.E.Benefits.points bgp.E.Benefits.points;
  List.iter
    (fun (s : E.Benefits.series) ->
      match E.Benefits.crossover s with
      | Some pct ->
        Format.fprintf out "%s crosses status quo at %d%%@."
          (E.Benefits.baseline_name s.E.Benefits.baseline)
          pct
      | None ->
        Format.fprintf out "%s never crosses status quo@."
          (E.Benefits.baseline_name s.E.Benefits.baseline))
    [ dbgp; bgp ]

(* ------------------------------------------------------------------ *)
(* Chaos scenario: reconvergence under seeded faults, persisted as      *)
(* BENCH_chaos.json so runs can be compared across revisions.           *)
(* ------------------------------------------------------------------ *)

let chaos_bench () =
  rule "Chaos: reconvergence under seeded faults";
  let r = E.Chaos.run E.Chaos.default in
  let s = E.Chaos.session_chaos ~seed:E.Chaos.default.E.Chaos.seed () in
  Format.fprintf out "%a@.%a@." E.Chaos.pp_report r E.Chaos.pp_session_report s;
  let reconvergence_time =
    r.E.Chaos.final.Dbgp_netsim.Network.converged_at
    -. r.E.Chaos.initial.Dbgp_netsim.Network.converged_at
  in
  let message_overhead =
    r.E.Chaos.final.Dbgp_netsim.Network.messages
    - r.E.Chaos.initial.Dbgp_netsim.Network.messages
  in
  let oc = open_out "BENCH_chaos.json" in
  Printf.fprintf oc
    "{\n\
    \  \"seed\": %d,\n\
    \  \"ases\": %d,\n\
    \  \"loss\": %g,\n\
    \  \"flaps\": %d,\n\
    \  \"initial_messages\": %d,\n\
    \  \"initial_converged_at\": %g,\n\
    \  \"final_messages\": %d,\n\
    \  \"final_converged_at\": %g,\n\
    \  \"reconvergence_time\": %g,\n\
    \  \"message_overhead\": %d,\n\
    \  \"dropped\": %d,\n\
    \  \"stale_leaks\": %d,\n\
    \  \"forwarding_loops\": %d,\n\
    \  \"corruption_injected\": %d,\n\
    \  \"corruption_survived\": %d,\n\
    \  \"errors_discard_attribute\": %d,\n\
    \  \"errors_treat_as_withdraw\": %d,\n\
    \  \"errors_session_reset\": %d,\n\
    \  \"invariants_ok\": %b,\n\
    \  \"censored\": %b,\n\
    \  \"healthy\": %b,\n\
    \  \"session_pairs_restored\": %d,\n\
    \  \"session_retries\": %d\n\
     }\n"
    r.E.Chaos.config.E.Chaos.seed r.E.Chaos.config.E.Chaos.ases
    r.E.Chaos.config.E.Chaos.loss
    (List.length r.E.Chaos.flapped)
    r.E.Chaos.initial.Dbgp_netsim.Network.messages
    r.E.Chaos.initial.Dbgp_netsim.Network.converged_at
    r.E.Chaos.final.Dbgp_netsim.Network.messages
    r.E.Chaos.final.Dbgp_netsim.Network.converged_at reconvergence_time
    message_overhead r.E.Chaos.dropped r.E.Chaos.stale_leaks
    r.E.Chaos.forwarding_loops r.E.Chaos.corrupted
    r.E.Chaos.corruption_survived
    (List.assoc "errors.discard_attribute" r.E.Chaos.error_verdicts)
    (List.assoc "errors.treat_as_withdraw" r.E.Chaos.error_verdicts)
    (List.assoc "errors.session_reset" r.E.Chaos.error_verdicts)
    (E.Invariants.ok r.E.Chaos.invariants)
    r.E.Chaos.censored
    (E.Chaos.healthy r) s.E.Chaos.established s.E.Chaos.retries;
  close_out oc;
  Format.fprintf out "wrote BENCH_chaos.json@."

(* ------------------------------------------------------------------ *)
(* Fuzz scenario: the seeded adversarial-input run, persisted as        *)
(* BENCH_fuzz.json.  Every field except cases_per_sec is reproducible   *)
(* from the seed.                                                       *)
(* ------------------------------------------------------------------ *)

let fuzz_bench () =
  rule "Fuzz: adversarial inputs through codec and speaker";
  let r = E.Fuzz.run E.Fuzz.default in
  Format.fprintf out "%a@." E.Fuzz.pp_report r;
  let oc = open_out "BENCH_fuzz.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty (E.Fuzz.to_snapshot r));
  close_out oc;
  Format.fprintf out "wrote BENCH_fuzz.json@."

(* ------------------------------------------------------------------ *)
(* Pipeline scenario: decision-run coalescing and group-major export   *)
(* fan-out under MRAI batching, at three BRITE sizes, persisted as      *)
(* BENCH_pipeline.json.  Deterministic except for the wall-clock        *)
(* fields.                                                              *)
(* ------------------------------------------------------------------ *)

let pipeline_bench () =
  rule "Pipeline: dirty-prefix coalescing and group-major export";
  let rows = E.Pipeline_bench.suite () in
  List.iter (fun r -> Format.fprintf out "%a@." E.Pipeline_bench.pp r) rows;
  let doc =
    Dbgp_obs.Snapshot.Obj
      [ ("seed", Dbgp_obs.Snapshot.Int 42);
        ("mrai", Dbgp_obs.Snapshot.Float 2.0);
        ( "rows",
          Dbgp_obs.Snapshot.List (List.map E.Pipeline_bench.to_snapshot rows)
        ) ]
  in
  let oc = open_out "BENCH_pipeline.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty doc);
  close_out oc;
  Format.fprintf out "wrote BENCH_pipeline.json@."

(* ------------------------------------------------------------------ *)
(* Hot-path scenario: updates/s, GC words per update and wire-cache hit *)
(* rates at three BRITE sizes, compared against the recorded           *)
(* pre-change baseline, persisted as BENCH_perf.json.                  *)
(* Message counts are deterministic; timing and GC fields are not.      *)
(* ------------------------------------------------------------------ *)

let perf_bench () =
  rule "Hot path: throughput, allocation and wire caches";
  let rows = E.Perf_bench.suite () in
  List.iter (fun r -> Format.fprintf out "%a@." E.Perf_bench.pp r) rows;
  let headline = E.Perf_bench.headline rows in
  ( match headline with
    | Some h -> Format.fprintf out "%a@." E.Perf_bench.pp_headline h
    | None -> () );
  rule "Sharded execution: domain-count scaling (determinism-checked)";
  let sharded = E.Perf_bench.domains_suite ~ases:1000 () in
  List.iter (fun r -> Format.fprintf out "%a@." E.Perf_bench.pp_sharded r) sharded;
  if List.exists (fun r -> not r.E.Perf_bench.s_transcript_match) sharded then
    failwith "sharded transcript diverged from the sequential run";
  let doc =
    Dbgp_obs.Snapshot.Obj
      [ ("seed", Dbgp_obs.Snapshot.Int 42);
        ("mrai", Dbgp_obs.Snapshot.Float 2.0);
        ( "rows",
          Dbgp_obs.Snapshot.List (List.map E.Perf_bench.to_snapshot rows) );
        ( "sharded",
          Dbgp_obs.Snapshot.List
            (List.map E.Perf_bench.sharded_to_snapshot sharded) );
        ( "headline",
          match headline with
          | Some h -> E.Perf_bench.headline_to_snapshot h
          | None -> Dbgp_obs.Snapshot.Null ) ]
  in
  let oc = open_out "BENCH_perf.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty doc);
  close_out oc;
  Format.fprintf out "wrote BENCH_perf.json@."

(* ------------------------------------------------------------------ *)
(* Internet-scale scenario: CAIDA-style topologies, full-table feed     *)
(* load, words/route, and the three-way table-transfer comparison       *)
(* (legacy storm vs clean incremental sync vs churned sync), persisted  *)
(* as BENCH_scale.json.  Message and skip counts are deterministic;     *)
(* timing and GC fields are not.                                        *)
(* ------------------------------------------------------------------ *)

let scale_bench () =
  rule "Internet scale: table transfer and RIB footprint";
  let rows = E.Scale_bench.suite () in
  List.iter (fun r -> Format.fprintf out "%a@." E.Scale_bench.pp r) rows;
  let doc =
    Dbgp_obs.Snapshot.Obj
      [ ("seed", Dbgp_obs.Snapshot.Int 42);
        ("mrai", Dbgp_obs.Snapshot.Float 0.5);
        ( "rows",
          Dbgp_obs.Snapshot.List (List.map E.Scale_bench.to_snapshot rows) ) ]
  in
  let oc = open_out "BENCH_scale.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty doc);
  close_out oc;
  Format.fprintf out "wrote BENCH_scale.json@."

(* ------------------------------------------------------------------ *)
(* Observability scenario: one converged dissemination read back out    *)
(* through the metrics layer, persisted as BENCH_obs.json.  The run is  *)
(* fully seeded, so the file is byte-reproducible across revisions.     *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  rule "Observability: converged-network snapshot";
  let o = E.Convergence.observe ~ases:200 ~recent_events:0 ~seed:42 () in
  Format.fprintf out "%a@." E.Convergence.pp_observed o;
  let doc =
    Dbgp_obs.Snapshot.Obj
      [ ("seed", Dbgp_obs.Snapshot.Int 42);
        ("ases", Dbgp_obs.Snapshot.Int o.E.Convergence.ases);
        ("censored", Dbgp_obs.Snapshot.Bool o.E.Convergence.censored);
        ("messages", Dbgp_obs.Snapshot.Int o.E.Convergence.messages);
        ("announce_bytes", Dbgp_obs.Snapshot.Int o.E.Convergence.announce_bytes);
        ("decision_runs", Dbgp_obs.Snapshot.Int o.E.Convergence.decision_runs);
        ( "decision_changes",
          Dbgp_obs.Snapshot.Int o.E.Convergence.decision_changes );
        ("convergence_p50", Dbgp_obs.Snapshot.Float o.E.Convergence.p50);
        ("convergence_p90", Dbgp_obs.Snapshot.Float o.E.Convergence.p90);
        ("convergence_p99", Dbgp_obs.Snapshot.Float o.E.Convergence.p99);
        ("snapshot", o.E.Convergence.snapshot) ]
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty doc);
  close_out oc;
  Format.fprintf out "wrote BENCH_obs.json@."

(* ------------------------------------------------------------------ *)
(* Stability scenario: the divergence lab — known-divergent gadgets     *)
(* and converged controls, flap damping off and on, persisted as        *)
(* BENCH_stability.json.  Fully seeded, so the file is reproducible.    *)
(* ------------------------------------------------------------------ *)

let stability_bench () =
  rule "Stability: divergence lab (gadgets vs controls, damping off/on)";
  let cases = E.Scenarios.divergence_cases ~seed:42 ~control_ases:30 () in
  let r = E.Stability.run_cases ~budget:20_000 cases in
  Format.fprintf out "%a@." E.Stability.pp_report r;
  let oc = open_out "BENCH_stability.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty (E.Stability.to_snapshot r));
  close_out oc;
  Format.fprintf out "wrote BENCH_stability.json@."

(* ------------------------------------------------------------------ *)
(* Adversary suite: every attack class across the three protocol arms, *)
(* scored by blast radius, persisted as BENCH_adversary.json.  Fully   *)
(* seeded, so the file is byte-reproducible.                           *)
(* ------------------------------------------------------------------ *)

let adversary_bench () =
  rule "Adversary suite: hijacks, leaks and island attacks (blast radius)";
  let r = E.Adversary.run E.Adversary.default in
  Format.fprintf out "%a@." E.Adversary.pp_report r;
  let oc = open_out "BENCH_adversary.json" in
  output_string oc (Dbgp_obs.Snapshot.to_json_pretty (E.Adversary.to_snapshot r));
  close_out oc;
  Format.fprintf out "wrote BENCH_adversary.json@."

let () =
  let t0 = Unix.gettimeofday () in
  rule "Table 1: protocol taxonomy";
  List.iter
    (fun scenario ->
      Format.fprintf out "%s@." (E.Taxonomy.scenario_name scenario);
      List.iter
        (fun (e : E.Taxonomy.entry) ->
          Format.fprintf out "  %-12s %-40s %s@." e.E.Taxonomy.name
            e.E.Taxonomy.summary
            (String.concat "; " e.E.Taxonomy.control_info))
        (E.Taxonomy.by_scenario scenario))
    [ E.Taxonomy.Critical_fix; E.Taxonomy.Custom_protocol;
      E.Taxonomy.Replacement_protocol ];
  rule "Table 2: overhead-model parameters";
  List.iter
    (fun (p, v, r, _) -> Format.fprintf out "%-36s %-9s %s@." p v r)
    E.Overhead.table2;
  rule "Table 3: control-plane overhead";
  List.iter2
    (fun (lo : E.Overhead.row) (hi : E.Overhead.row) ->
      Format.fprintf out "%-22s %a - %a@." lo.E.Overhead.name
        E.Overhead.pp_bytes lo.E.Overhead.total_bytes E.Overhead.pp_bytes
        hi.E.Overhead.total_bytes)
    (E.Overhead.table3 E.Overhead.lo)
    (E.Overhead.table3 E.Overhead.hi);
  Format.fprintf out "overhead ratio: %.1fx - %.1fx (paper: 1.3x - 2.5x)@."
    (E.Overhead.overhead_ratio E.Overhead.lo)
    (E.Overhead.overhead_ratio E.Overhead.hi);
  rule "Section 5: stress test";
  List.iter
    (fun r -> Format.fprintf out "%a@." E.Stress.pp_result r)
    (E.Stress.suite ~advertisements:2_000 ());
  rule "Section 6.1: deployment across gulfs (Figure 8)";
  let w = E.Scenarios.wiser_across_gulf () in
  Format.fprintf out "Wiser:   cost at S = %s (BGP baseline: %s), low-cost path chosen: %b@."
    (match w.E.Scenarios.cost_seen with Some c -> string_of_int c | None -> "none")
    (match w.E.Scenarios.cost_seen_bgp with Some c -> string_of_int c | None -> "none")
    w.E.Scenarios.chose_low_cost;
  let p = E.Scenarios.pathlet_across_gulf () in
  Format.fprintf out "Pathlet: %d/%d pathlets at S (BGP baseline: %d), %d end-to-end routes@."
    p.E.Scenarios.seen p.E.Scenarios.expected p.E.Scenarios.seen_bgp
    p.E.Scenarios.end_to_end;
  rule "Section 6.1: LoC report";
  E.Loc_report.pp out (E.Loc_report.report ());
  rule "Figures 1-3: motivating scenarios";
  let m = E.Scenarios.miro_discovery () in
  Format.fprintf out "MIRO discovery: %b (BGP: %b), tunnel works: %b@."
    m.E.Scenarios.discovered m.E.Scenarios.discovered_bgp m.E.Scenarios.tunnel_works;
  let s = E.Scenarios.scion_multipath () in
  Format.fprintf out "SCION paths at S: %d (BGP: %d), extra path forwards: %b@."
    s.E.Scenarios.paths_seen s.E.Scenarios.paths_seen_bgp s.E.Scenarios.forwarded_on_extra;
  rule "Figures 6-7: rich world";
  let ia, c = E.Rich_world.run () in
  ( match ia with
    | Some ia -> Format.fprintf out "%a@." Ia.pp ia
    | None -> Format.fprintf out "no IA@." );
  Format.fprintf out "all Figure-7 content present: %b@." (E.Rich_world.expected_ok c);
  let bench_cfg =
    { E.Benefits.default with E.Benefits.trials = 5; dest_sample = 60 }
  in
  rule "Figure 9: extra-paths archetype (1000 ASes)";
  print_benefit "9"
    (E.Benefits.extra_paths bench_cfg E.Benefits.Dbgp_baseline)
    (E.Benefits.extra_paths bench_cfg E.Benefits.Bgp_baseline);
  rule "Figure 10: bottleneck-bandwidth archetype (1000 ASes)";
  print_benefit "10"
    (E.Benefits.bottleneck_bandwidth bench_cfg E.Benefits.Dbgp_baseline)
    (E.Benefits.bottleneck_bandwidth bench_cfg E.Benefits.Bgp_baseline);
  rule "Ablation: adoption order (Figure 9 archetype)";
  List.iter
    (fun (label, order) ->
      let s = E.Benefits.extra_paths ~order bench_cfg E.Benefits.Dbgp_baseline in
      let at pct =
        (List.find (fun (p : E.Benefits.point) -> p.E.Benefits.adoption_pct = pct)
           s.E.Benefits.points)
          .E.Benefits.mean
      in
      Format.fprintf out "%-12s benefit at 20%% adoption: %8.1f   at 50%%: %8.1f@."
        label (at 20) (at 50))
    [ ("random", E.Benefits.Random_order); ("core-first", E.Benefits.Core_first);
      ("edge-first", E.Benefits.Edge_first) ];
  Format.fprintf out
    "(benefit is measured at upgraded stubs: a core-first rollout shows 0 until@.";
  Format.fprintf out
    " stubs join, then jumps — the transit core is already multipath-capable;@.";
  Format.fprintf out
    " edge-first scatters adopters and underperforms random at every level)@.";
  rule "Section 6.3 aside: end-to-end-latency archetype (additive objective)";
  Format.fprintf out "%a@." E.Benefits.pp_series
    (E.Benefits.end_to_end_latency bench_cfg E.Benefits.Dbgp_baseline);
  rule "Figure 10 mitigation: coverage-gated archetype (Section 3.5)";
  Format.fprintf out "%a@." E.Benefits.pp_series
    (E.Benefits.bottleneck_bandwidth_threshold bench_cfg ~coverage_pct:100
       E.Benefits.Dbgp_baseline);
  rule "Section 3.5: convergence";
  List.iter
    (fun d -> Format.fprintf out "%a@." E.Convergence.pp_dissemination d)
    (E.Convergence.vs_size ~seed:42 ());
  Format.fprintf out "%a@." E.Convergence.pp_failure
    (E.Convergence.after_failure ~seed:42 ());
  Format.fprintf out "%a@." E.Convergence.pp_reset (E.Convergence.session_reset ());
  Format.fprintf out "%a@." E.Convergence.pp_reset
    (E.Convergence.session_reset ~payload_bytes:4096 ());
  rule "Table 3 empirical validation";
  List.iter
    (fun c -> Format.fprintf out "%a@." E.Empirical_overhead.pp c)
    (E.Empirical_overhead.run ());
  island_id_ablation ();
  chaos_bench ();
  fuzz_bench ();
  pipeline_bench ();
  perf_bench ();
  scale_bench ();
  obs_bench ();
  stability_bench ();
  adversary_bench ();
  run_bechamel ();
  Format.fprintf out "total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
