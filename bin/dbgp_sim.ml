(* dbgp-sim: command-line driver for every experiment in the paper.

   Each subcommand regenerates one table or figure of "Bootstrapping
   evolvability for inter-domain routing with D-BGP" (SIGCOMM 2017). *)

open Cmdliner
module E = Dbgp_eval

let out = Format.std_formatter

(* ---------- table1 ---------- *)

let table1 () =
  Format.fprintf out "Table 1: analyzed protocols by evolvability scenario@.";
  List.iter
    (fun scenario ->
      Format.fprintf out "@.%s@." (E.Taxonomy.scenario_name scenario);
      List.iter
        (fun (e : E.Taxonomy.entry) ->
          Format.fprintf out "  %-12s %-38s %s%s@." e.E.Taxonomy.name
            e.E.Taxonomy.summary
            (String.concat "; " e.E.Taxonomy.control_info)
            ( match e.E.Taxonomy.implemented_by with
              | Some m -> "  [" ^ m ^ "]"
              | None -> "" ))
        (E.Taxonomy.by_scenario scenario))
    [ E.Taxonomy.Critical_fix; E.Taxonomy.Custom_protocol;
      E.Taxonomy.Replacement_protocol ];
  Format.fprintf out "@.registry consistent: %b@." (E.Taxonomy.consistent ())

(* ---------- table2 / table3 ---------- *)

let table2 () =
  Format.fprintf out
    "Table 2: parameters for the control-plane overhead analysis@.@.";
  Format.fprintf out "%-36s %-9s %-22s %s@." "Parameter" "Variable" "Range"
    "Rationale";
  List.iter
    (fun (p, v, r, why) -> Format.fprintf out "%-36s %-9s %-22s %s@." p v r why)
    E.Overhead.table2

let table3 () =
  Format.fprintf out "Table 3: control-plane overhead of D-BGP at a tier-1 AS@.@.";
  Format.fprintf out "%-22s %14s %14s %14s %16s@." "Name" "CF bytes/IA"
    "CR bytes/IA" "# of IAs" "Total overhead";
  let row name (at_lo : E.Overhead.row) (at_hi : E.Overhead.row) =
    Format.fprintf out "%-22s %6d-%-8d %6d-%-8d %7d-%-8d %a - %a@." name
      at_lo.E.Overhead.ia_cf_bytes at_hi.E.Overhead.ia_cf_bytes
      at_lo.E.Overhead.ia_cr_bytes at_hi.E.Overhead.ia_cr_bytes
      at_lo.E.Overhead.advertisements at_hi.E.Overhead.advertisements
      E.Overhead.pp_bytes at_lo.E.Overhead.total_bytes E.Overhead.pp_bytes
      at_hi.E.Overhead.total_bytes
  in
  List.iter2
    (fun (lo : E.Overhead.row) hi -> row lo.E.Overhead.name lo hi)
    (E.Overhead.table3 E.Overhead.lo)
    (E.Overhead.table3 E.Overhead.hi);
  Format.fprintf out
    "@.multi-protocol vs single-protocol overhead: %.1fx (min) - %.1fx (max)@."
    (E.Overhead.overhead_ratio E.Overhead.lo)
    (E.Overhead.overhead_ratio E.Overhead.hi);
  Format.fprintf out
    "(paper: 24 GB-36,000 GB basic; 7-1,300 GB +paths; 3-610 GB +sharing;@.";
  Format.fprintf out " 2.3-240 GB single; headline ratio 1.3x-2.5x)@."

(* ---------- fig9 / fig10 ---------- *)

let benefit_cfg n trials dests seed =
  { E.Benefits.default with
    E.Benefits.brite = { Dbgp_topology.Brite.default with Dbgp_topology.Brite.n };
    trials;
    dest_sample = dests;
    seed }

let print_benefit fig archetype_name (dbgp : E.Benefits.series)
    (bgp : E.Benefits.series) =
  Format.fprintf out "Figure %s: incremental benefits, %s archetype@.@." fig
    archetype_name;
  Format.fprintf out "status quo: %.1f    best case: %.1f@.@." dbgp.E.Benefits.status_quo
    dbgp.E.Benefits.best_case;
  Format.fprintf out "%9s %22s %22s@." "adoption" "D-BGP baseline"
    "BGP baseline";
  List.iter2
    (fun (d : E.Benefits.point) (b : E.Benefits.point) ->
      Format.fprintf out "%8d%% %12.1f +/-%6.1f %12.1f +/-%6.1f@."
        d.E.Benefits.adoption_pct d.E.Benefits.mean d.E.Benefits.ci95
        b.E.Benefits.mean b.E.Benefits.ci95)
    dbgp.E.Benefits.points bgp.E.Benefits.points;
  let show_cross name s =
    match E.Benefits.crossover s with
    | Some pct -> Format.fprintf out "%s crosses status quo at %d%% adoption@." name pct
    | None -> Format.fprintf out "%s never crosses status quo@." name
  in
  Format.fprintf out "@.";
  show_cross "D-BGP baseline" dbgp;
  show_cross "BGP baseline" bgp

let fig9 n trials dests seed =
  let cfg = benefit_cfg n trials dests seed in
  let dbgp = E.Benefits.extra_paths cfg E.Benefits.Dbgp_baseline in
  let bgp = E.Benefits.extra_paths cfg E.Benefits.Bgp_baseline in
  print_benefit "9" "extra-paths" dbgp bgp;
  Format.fprintf out
    "@.(paper shape: D-BGP >= BGP at every level; steeper D-BGP slope at 10-40%%)@."

let fig10 n trials dests seed =
  let cfg = benefit_cfg n trials dests seed in
  let dbgp = E.Benefits.bottleneck_bandwidth cfg E.Benefits.Dbgp_baseline in
  let bgp = E.Benefits.bottleneck_bandwidth cfg E.Benefits.Bgp_baseline in
  print_benefit "10" "bottleneck-bandwidth" dbgp bgp;
  Format.fprintf out
    "@.(paper shape: dip below status quo at low adoption; D-BGP crossover ~30%%, BGP ~90%%)@."

(* ---------- stress ---------- *)

let stress advertisements =
  Format.fprintf out "Section 5 stress test (Beagle vs Quagga-equivalent)@.@.";
  List.iter
    (fun r -> Format.fprintf out "%a@." E.Stress.pp_result r)
    (E.Stress.suite ~advertisements ());
  Format.fprintf out "@.%a@." E.Stress.pp_budget_probe (E.Stress.run_budget_probe ());
  Format.fprintf out
    "@.(paper: 40,700 vs 40,900 prefixes/s BGP-only; 7,073 at 32 KB; 926 at 256 KB)@."

(* ---------- perf (pipeline and wire-cache counters) ---------- *)

(* "--domains 1,2,4" -> [1; 2; 4]; None on anything malformed. *)
let parse_domains spec =
  match
    List.map int_of_string_opt
      (String.split_on_char ',' (String.trim spec))
  with
  | [] -> None
  | parts ->
    if List.for_all (function Some d -> d >= 1 | None -> false) parts then
      Some (List.filter_map Fun.id parts)
    else None

(* Sharded rows for one comma-separated --domains spec.  The first
   count is the sequential reference; any later row whose transcript
   diverges from it is a determinism violation, reported by a non-zero
   exit so the sweep enforces the oracle, not just the test suite. *)
let run_domains_axis ~ases spec =
  match parse_domains spec with
  | None ->
    Format.eprintf
      "dbgp-sim: --domains expects a comma-separated list of positive \
       integers (e.g. 1,2,4,8)@.";
    exit 2
  | Some domains ->
    let domains = if List.mem 1 domains then domains else 1 :: domains in
    Format.fprintf out
      "@.Sharded execution: 8-region partition, conservative barrier \
       epochs (%d cores)@.@."
      (Domain.recommended_domain_count ());
    let rows = E.Perf_report.domains_suite ~ases ~domains () in
    List.iter (fun r -> Format.fprintf out "%a@." E.Perf_report.pp_sharded r) rows;
    let diverged =
      List.filter (fun r -> not r.E.Perf_report.s_transcript_match) rows
    in
    if diverged <> [] then begin
      List.iter
        (fun r ->
          Format.eprintf
            "dbgp-sim: %d-domain transcript diverged from the sequential run \
             (%s)@."
            r.E.Perf_report.s_domains r.E.Perf_report.s_transcript_md5)
        diverged;
      exit 1
    end

let perf domains ases json =
  if ases < 20 then (
    Format.eprintf "dbgp-sim: --perf-ases must be at least 20@.";
    exit 2 );
  Format.fprintf out
    "Convergence report (decision runs, group export, wire caches)@.@.";
  let rows = E.Perf_report.suite () in
  List.iter (fun r -> Format.fprintf out "%a@." E.Perf_report.pp r) rows;
  ( match json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Dbgp_obs.Snapshot.to_json_pretty (E.Perf_report.to_snapshot rows));
      close_out oc;
      Format.fprintf out "wrote %s@." path );
  Option.iter (run_domains_axis ~ases) domains

(* ---------- scale (Internet-scale table transfer / RIB footprint) ---------- *)

let scale ases prefixes bg seed grid json =
  if ases < 20 then (
    Format.eprintf "dbgp-sim: --ases must be at least 20@.";
    exit 2 );
  if prefixes < 1 then (
    Format.eprintf "dbgp-sim: --prefixes must be positive@.";
    exit 2 );
  if bg < 1 then (
    Format.eprintf "dbgp-sim: --bg must be positive@.";
    exit 2 );
  Format.fprintf out
    "Internet-scale benchmark: CAIDA-style topology, full-table feed,@.\
     session-bounce table transfer (legacy storm vs streamed incremental \
     sync)@.@.";
  let rows =
    if grid then E.Scale_bench.suite ~seed ()
    else [ E.Scale_bench.run ~seed ~bg ~ases ~prefixes () ]
  in
  List.iter (fun r -> Format.fprintf out "%a@." E.Scale_bench.pp r) rows;
  match json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Dbgp_obs.Snapshot.to_json_pretty
         (Dbgp_obs.Snapshot.Obj
            [ ("seed", Dbgp_obs.Snapshot.Int seed);
              ("mrai", Dbgp_obs.Snapshot.Float 0.5);
              ( "rows",
                Dbgp_obs.Snapshot.List (List.map E.Scale_bench.to_snapshot rows)
              ) ]));
    close_out oc;
    Format.fprintf out "wrote %s@." path

(* ---------- deploy (Figure 8 + motivating scenarios) ---------- *)

let deploy () =
  Format.fprintf out "Section 6.1 deployment experiments (Figure 8 topology)@.@.";
  let w = E.Scenarios.wiser_across_gulf () in
  Format.fprintf out
    "Wiser:   cost seen at S: %s | chose low-cost long path: %b | portal seen: %b@."
    ( match w.E.Scenarios.cost_seen with
      | Some c -> string_of_int c
      | None -> "none" )
    w.E.Scenarios.chose_low_cost w.E.Scenarios.portal_seen;
  Format.fprintf out
    "         BGP baseline: cost %s, low-cost chosen: %b (expected: invisible, shortest)@."
    ( match w.E.Scenarios.cost_seen_bgp with
      | Some c -> string_of_int c
      | None -> "none" )
    w.E.Scenarios.chose_low_cost_bgp;
  let p = E.Scenarios.pathlet_across_gulf () in
  Format.fprintf out
    "Pathlet: %d/%d pathlets reached S (BGP baseline: %d); %d end-to-end routes composable@."
    p.E.Scenarios.seen p.E.Scenarios.expected p.E.Scenarios.seen_bgp
    p.E.Scenarios.end_to_end

let motivate () =
  Format.fprintf out "Motivating scenarios (Figures 1-3)@.@.";
  let w = E.Scenarios.wiser_across_gulf () in
  Format.fprintf out
    "Fig 1 (Wiser):  BGP hides path costs (saw %s) -> S picks the expensive short path;@."
    ( match w.E.Scenarios.cost_seen_bgp with
      | Some c -> string_of_int c
      | None -> "none" );
  Format.fprintf out
    "                D-BGP passes them through (saw %s) -> S picks cost-10 path: %b@."
    ( match w.E.Scenarios.cost_seen with
      | Some c -> string_of_int c
      | None -> "none" )
    w.E.Scenarios.chose_low_cost;
  let m = E.Scenarios.miro_discovery () in
  Format.fprintf out
    "Fig 2 (MIRO):   discovery across gulf: %b (BGP baseline: %b); negotiated: %s; tunnel delivers: %b@."
    m.E.Scenarios.discovered m.E.Scenarios.discovered_bgp
    ( match m.E.Scenarios.negotiated with
      | Some (via, ep) -> Printf.sprintf "%s via %s" via (Dbgp_types.Ipv4.to_string ep)
      | None -> "no" )
    m.E.Scenarios.tunnel_works;
  let s = E.Scenarios.scion_multipath () in
  Format.fprintf out
    "Fig 3 (SCION):  within-island paths at S: %d (BGP baseline: %d); extra path forwards: %b@."
    s.E.Scenarios.paths_seen s.E.Scenarios.paths_seen_bgp
    s.E.Scenarios.forwarded_on_extra

let fig7 () =
  Format.fprintf out "Figures 6-7: the rich, evolvable Internet@.@.";
  let ia, c = E.Rich_world.run () in
  ( match ia with
    | Some ia -> Format.fprintf out "%a@." Dbgp_core.Ia.pp ia
    | None -> Format.fprintf out "route did not propagate!@." );
  Format.fprintf out
    "@.checks: wiser cost %s | wiser portal %b | miro portal %b | D pathlets %d | G pathlets %d | F scion paths %d@."
    ( match c.E.Rich_world.wiser_cost with
      | Some v -> string_of_int v
      | None -> "none" )
    c.E.Rich_world.wiser_portal_11 c.E.Rich_world.miro_portal_11
    c.E.Rich_world.pathlets_d c.E.Rich_world.pathlets_g
    c.E.Rich_world.scion_paths_f;
  Format.fprintf out "all Figure-7 content present: %b@."
    (E.Rich_world.expected_ok c)

let convergence () =
  Format.fprintf out "Section 3.5: convergence-cost experiments@.@.";
  Format.fprintf out "dissemination cost vs topology size and IA payload:@.";
  List.iter
    (fun d -> Format.fprintf out "  %a@." E.Convergence.pp_dissemination d)
    (E.Convergence.vs_size ~seed:42 ());
  Format.fprintf out "@.re-convergence after a best-path link failure:@.";
  Format.fprintf out "  %a@." E.Convergence.pp_failure
    (E.Convergence.after_failure ~seed:42 ());
  Format.fprintf out "@.session reset (full-table transfer over a real FSM session):@.";
  Format.fprintf out "  %a@." E.Convergence.pp_reset (E.Convergence.session_reset ());
  Format.fprintf out "  %a@." E.Convergence.pp_reset
    (E.Convergence.session_reset ~payload_bytes:4096 ())

let chaos ases seed loss flaps =
  if loss < 0. || loss > 1. then (
    Format.eprintf "dbgp-sim: --loss must be in [0, 1]@.";
    exit 2 );
  if flaps < 0 then (
    Format.eprintf "dbgp-sim: --flaps must be non-negative@.";
    exit 2 );
  if ases < 2 then (
    Format.eprintf "dbgp-sim: --chaos-ases must be at least 2@.";
    exit 2 );
  Format.fprintf out
    "Chaos run: seeded faults (loss, jitter, link flaps) with graceful \
     restart and flap damping@.@.";
  let cfg = { E.Chaos.default with E.Chaos.ases; seed; loss; flaps } in
  let r = E.Chaos.run cfg in
  Format.fprintf out "%a@." E.Chaos.pp_report r;
  Format.fprintf out "healthy: %b@.@." (E.Chaos.healthy r);
  let s = E.Chaos.session_chaos ~seed () in
  Format.fprintf out "%a@." E.Chaos.pp_session_report s

(* ---------- fuzz ---------- *)

let fuzz cases seed json =
  if cases < 1 then (
    Format.eprintf "dbgp-sim: --cases must be positive@.";
    exit 2 );
  let r = E.Fuzz.run { E.Fuzz.seed; cases } in
  Format.fprintf out "%a@." E.Fuzz.pp_report r;
  ( match json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Dbgp_obs.Snapshot.to_json_pretty (E.Fuzz.to_snapshot r));
      close_out oc;
      Format.fprintf out "wrote %s@." path );
  if r.E.Fuzz.escaped > 0 || r.E.Fuzz.roundtrip_failures > 0 then exit 1

(* ---------- stability ---------- *)

let stability budget seed control_ases json =
  if budget < 1 then (
    Format.eprintf "dbgp-sim: --budget must be positive@.";
    exit 2 );
  Format.fprintf out
    "Divergence lab: known-divergent gadgets and converged controls,@.\
     flap damping off and on (safety report for decision-process changes)@.@.";
  let cases = E.Scenarios.divergence_cases ~seed ~control_ases () in
  let r = E.Stability.run_cases ~budget cases in
  Format.fprintf out "%a@." E.Stability.pp_report r;
  ( match json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Dbgp_obs.Snapshot.to_json_pretty (E.Stability.to_snapshot r));
      close_out oc;
      Format.fprintf out "wrote %s@." path );
  (* Safety gate: every known-divergent gadget must be caught (oscillating
     or at least censored), every control must converge, and the static
     wheel check must agree with the spec's expectation. *)
  let expected = Hashtbl.create 8 in
  List.iter
    (fun (c : E.Stability.case) ->
      Hashtbl.replace expected c.E.Stability.name c.E.Stability.expect_divergence)
    cases;
  let ok =
    List.for_all
      (fun (row : E.Stability.row) ->
        match Hashtbl.find_opt expected row.E.Stability.scenario with
        | None -> true
        | Some divergent ->
          ( match row.E.Stability.verdict with
            | E.Stability.Converged _ -> not divergent
            | E.Stability.Oscillating _ -> divergent
            | E.Stability.Censored _ ->
              (* An exhausted budget is an honest "could not prove
                 convergence" — acceptable only for divergent cases. *)
              divergent ))
      r.E.Stability.rows
  in
  Format.fprintf out "verdicts match expectations: %b@." ok;
  if not ok then exit 1

(* ---------- adversary ---------- *)

let adversary seed json =
  Format.fprintf out
    "Adversary suite: hijacks, route leaks and D-BGP island attacks@.\
     across legacy BGP / D-BGP / D-BGP + BGPSec-like critical fix,@.\
     scored by blast radius (exit 1 on broken containment)@.@.";
  let r = E.Adversary.run { E.Adversary.default with E.Adversary.seed } in
  Format.fprintf out "%a@." E.Adversary.pp_report r;
  ( match json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Dbgp_obs.Snapshot.to_json_pretty (E.Adversary.to_snapshot r));
      close_out oc;
      Format.fprintf out "wrote %s@." path );
  (* Safety gate: an arm that claims containment must show zero blast
     radius, detection must fire wherever applicable, and control and
     recovery phases must be clean — all folded into [healthy]. *)
  if not r.E.Adversary.healthy then exit 1

(* ---------- stats ---------- *)

let stats ases seed events =
  if ases < 2 then (
    Format.eprintf "dbgp-sim: --stats-ases must be at least 2@.";
    exit 2 );
  if events < 0 then (
    Format.eprintf "dbgp-sim: --events must be non-negative@.";
    exit 2 );
  let o = E.Convergence.observe ~ases ~recent_events:events ~seed () in
  let snapshot =
    match o.E.Convergence.snapshot with
    | Dbgp_obs.Snapshot.Obj fields ->
      Dbgp_obs.Snapshot.Obj
        (fields
        @ [ ( "route_store",
              Dbgp_obs.Snapshot.Obj
                (List.map
                   (fun (k, v) -> (k, Dbgp_obs.Snapshot.Int v))
                   (E.Scale_bench.caps ())) );
            ("ases", Dbgp_obs.Snapshot.Int ases);
            ("seed", Dbgp_obs.Snapshot.Int seed) ])
    | other -> other
  in
  print_string (Dbgp_obs.Snapshot.to_json_pretty snapshot)

let empirical () =
  Format.fprintf out
    "Empirical validation of the Table 3 size model (measured vs modeled IA bytes):@.@.";
  List.iter
    (fun c -> Format.fprintf out "  %a@." E.Empirical_overhead.pp c)
    (E.Empirical_overhead.run ())

let loc root =
  Format.fprintf out "Section 6.1: per-protocol deployment effort@.@.";
  E.Loc_report.pp out (E.Loc_report.report ~root ());
  Format.fprintf out "@."

let all n trials dests seed advertisements root =
  let rule title =
    Format.fprintf out
      "@.==================== %s ====================@.@." title
  in
  rule "Table 1";
  table1 ();
  rule "Table 2";
  table2 ();
  rule "Table 3";
  table3 ();
  rule "Section 5 stress test";
  stress advertisements;
  rule "Section 6.1 deployment (Figure 8)";
  deploy ();
  rule "Section 6.1 effort (LoC)";
  loc root;
  rule "Figures 1-3";
  motivate ();
  rule "Figures 6-7";
  fig7 ();
  rule "Section 3.5 convergence";
  convergence ();
  rule "Chaos (fault injection)";
  chaos 60 seed 0.05 4;
  rule "Table 3 empirical validation";
  empirical ();
  rule "Figure 9";
  fig9 n trials dests seed;
  rule "Figure 10";
  fig10 n trials dests seed

(* ---------- cmdliner plumbing ---------- *)

let n_arg =
  Arg.(value & opt int 1000 & info [ "n"; "ases" ] ~doc:"Number of ASes")

let trials_arg = Arg.(value & opt int 9 & info [ "trials" ] ~doc:"Trials")

let dests_arg =
  Arg.(value & opt int 120 & info [ "dests" ] ~doc:"Sampled destinations")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed")

let advs_arg =
  Arg.(
    value & opt int 30_000
    & info [ "advertisements" ] ~doc:"Stress-test advertisements")

let root_arg =
  Arg.(value & opt string "." & info [ "root" ] ~doc:"Repository root")

let chaos_ases_arg =
  Arg.(value & opt int 60 & info [ "chaos-ases" ] ~doc:"Chaos topology size")

let loss_arg =
  Arg.(value & opt float 0.05 & info [ "loss" ] ~doc:"Message-loss probability")

let flaps_arg =
  Arg.(value & opt int 4 & info [ "flaps" ] ~doc:"Scheduled link flaps")

let cases_arg =
  Arg.(value & opt int 10_000 & info [ "cases" ] ~doc:"Fuzz cases to run")

let fuzz_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~doc:"Write the fuzz report as JSON to $(docv)" ~docv:"FILE")

let budget_arg =
  Arg.(
    value & opt int E.Stability.default_budget
    & info [ "budget" ] ~doc:"Event budget per stability run")

let control_ases_arg =
  Arg.(
    value & opt int 30
    & info [ "control-ases" ] ~doc:"Size of the BRITE converged control")

let stability_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:"Write the stability report as JSON to $(docv)" ~docv:"FILE")

let adversary_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:"Write the adversary report as JSON to $(docv)" ~docv:"FILE")

let stats_ases_arg =
  Arg.(value & opt int 200 & info [ "stats-ases" ] ~doc:"Stats topology size")

let events_arg =
  Arg.(
    value & opt int 20
    & info [ "events" ] ~doc:"Recent trace events to include (0 to omit)")

let scale_ases_arg =
  Arg.(value & opt int 1_000 & info [ "scale-ases" ] ~doc:"Scale topology size")

let prefixes_arg =
  Arg.(value & opt int 100_000 & info [ "prefixes" ] ~doc:"Feed table size")

let bg_arg =
  Arg.(value & opt int 32 & info [ "bg" ] ~doc:"Background prefixes")

let grid_arg =
  Arg.(
    value & flag
    & info [ "grid" ]
        ~doc:
          "Run the full six-cell grid instead of one cell: the {1k, 10k} \
           ASes x {1k, 100k} prefixes cells, 70k ASes x 10k prefixes and \
           1k ASes x 1M prefixes.  The 1M-prefix cell last peaked at about \
           4.2 GB of major heap; run the grid only on a machine with that \
           much memory to spare")

let scale_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:"Write the scale report as JSON to $(docv)" ~docv:"FILE")

let domains_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "domains" ]
        ~doc:
          "Also run the sharded sweep at these domain counts \
           (comma-separated, e.g. 1,2,4,8) and print its wall-clock rows.  \
           Every count must reproduce the sequential transcript \
           byte-for-byte; a divergence exits 1."
        ~docv:"COUNTS")

let perf_ases_arg =
  Arg.(
    value & opt int 1_000
    & info [ "perf-ases" ] ~doc:"Topology size for the sharded sweep")

let perf_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:"Write the perf report as JSON to $(docv)" ~docv:"FILE")

let unit_cmd name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ const ())

let cmds =
  [ unit_cmd "table1" "Table 1: protocol taxonomy" table1;
    unit_cmd "table2" "Table 2: overhead-model parameters" table2;
    unit_cmd "table3" "Table 3: control-plane overhead" table3;
    Cmd.v
      (Cmd.info "fig9" ~doc:"Figure 9: extra-paths archetype benefits")
      Term.(const fig9 $ n_arg $ trials_arg $ dests_arg $ seed_arg);
    Cmd.v
      (Cmd.info "fig10" ~doc:"Figure 10: bottleneck-bandwidth benefits")
      Term.(const fig10 $ n_arg $ trials_arg $ dests_arg $ seed_arg);
    Cmd.v
      (Cmd.info "stress" ~doc:"Section 5 stress test")
      Term.(const stress $ advs_arg);
    Cmd.v
      (Cmd.info "perf"
         ~doc:
           "Convergence report: decision runs, group export and wire-cache \
            hit rates at 100/500/1000 BRITE ASes (deterministic; --json \
            writes BENCH_perf.json); with --domains, the sharded sweep \
            guarded by the determinism oracle")
      Term.(const perf $ domains_arg $ perf_ases_arg $ perf_json_arg);
    Cmd.v
      (Cmd.info "scale"
         ~doc:
           "Internet-scale benchmark: load a full-size table at a stub feed \
            of a CAIDA-style topology and compare session-bounce table \
            transfer (legacy re-announce storm vs streamed incremental \
            sync), with words/route and updates/s")
      Term.(
        const scale $ scale_ases_arg $ prefixes_arg $ bg_arg $ seed_arg
        $ grid_arg $ scale_json_arg);
    unit_cmd "deploy" "Figure 8 deployment experiments" deploy;
    unit_cmd "motivate" "Figures 1-3 motivating scenarios" motivate;
    unit_cmd "fig7" "Figures 6-7 rich-world IA" fig7;
    Cmd.v (Cmd.info "loc" ~doc:"Section 6.1 LoC report") Term.(const loc $ root_arg);
    unit_cmd "convergence" "Section 3.5 convergence-cost experiments" convergence;
    Cmd.v
      (Cmd.info "chaos"
         ~doc:"Fault-injection run: lossy links, flaps, graceful restart")
      Term.(const chaos $ chaos_ases_arg $ seed_arg $ loss_arg $ flaps_arg);
    unit_cmd "empirical" "Empirical validation of the Table 3 model" empirical;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Seeded deterministic fuzzing of the IA codec and speaker \
            pipeline (exit 1 if any exception escapes)")
      Term.(const fuzz $ cases_arg $ seed_arg $ fuzz_json_arg);
    Cmd.v
      (Cmd.info "stability"
         ~doc:
           "Divergence lab: classify known-divergent gadgets and converged \
            controls as converged / oscillating / censored, with flap \
            damping off and on (exit 1 on unexpected verdicts)")
      Term.(
        const stability $ budget_arg $ seed_arg $ control_ases_arg
        $ stability_json_arg);
    Cmd.v
      (Cmd.info "adversary"
         ~doc:
           "Adversary suite: prefix hijacks, route leaks and D-BGP island \
            attacks across three protocol arms, scored by blast radius \
            (exit 1 if a containment claim is broken, detection misses an \
            attack, or control/recovery state is unclean)")
      Term.(const adversary $ seed_arg $ adversary_json_arg);
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Converge a BRITE topology and print the observability snapshot \
            (metrics registries, convergence percentiles, recent trace) as \
            JSON")
      Term.(const stats $ stats_ases_arg $ seed_arg $ events_arg);
    Cmd.v
      (Cmd.info "all" ~doc:"Run every experiment")
      Term.(
        const all $ n_arg $ trials_arg $ dests_arg $ seed_arg $ advs_arg
        $ root_arg) ]

let () =
  let info =
    Cmd.info "dbgp-sim" ~version:"1.0.0"
      ~doc:"Reproduce the D-BGP (SIGCOMM 2017) evaluation"
  in
  exit (Cmd.eval (Cmd.group info cmds))
