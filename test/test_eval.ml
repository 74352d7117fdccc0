open Dbgp_eval
module Brite = Dbgp_topology.Brite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------- overhead (Tables 2, 3) ------------------------- *)

let gib = 1024. *. 1024. *. 1024.

let test_overhead_basic_row () =
  let lo = Overhead.basic Overhead.lo and hi = Overhead.basic Overhead.hi in
  (* Paper: 24 GB - 36,000 GB *)
  check "min ~24 GB" true (abs_float ((lo.Overhead.total_bytes /. gib) -. 24.4) < 1.);
  check "max ~36,000 GB" true
    (hi.Overhead.total_bytes /. gib > 30_000. && hi.Overhead.total_bytes /. gib < 40_000.)

(* Table 3's rows, in order: basic, + path lengths, + sharing, single
   protocol. *)
let table3_row i p = List.nth (Overhead.table3 p) i

let test_overhead_path_lengths_row () =
  let lo = table3_row 1 Overhead.lo in
  let hi = table3_row 1 Overhead.hi in
  (* Paper: 7 GB - 1,300 GB *)
  check "min ~7 GB" true (lo.Overhead.total_bytes /. gib > 6. && lo.Overhead.total_bytes /. gib < 9.);
  check "max ~1,300 GB" true
    (hi.Overhead.total_bytes /. gib > 1_100. && hi.Overhead.total_bytes /. gib < 1_500.)

let test_overhead_sharing_row () =
  let lo = Overhead.plus_sharing Overhead.lo in
  let hi = Overhead.plus_sharing Overhead.hi in
  (* Paper: 3 GB - 610 GB *)
  check "min ~3 GB" true (lo.Overhead.total_bytes /. gib > 2.5 && lo.Overhead.total_bytes /. gib < 4.);
  check "max ~610 GB" true
    (hi.Overhead.total_bytes /. gib > 550. && hi.Overhead.total_bytes /. gib < 680.)

let test_overhead_single_row () =
  let lo = table3_row 3 Overhead.lo in
  let hi = table3_row 3 Overhead.hi in
  (* Paper: 2.3 GB - 240 GB *)
  check "min ~2.3 GB" true (abs_float ((lo.Overhead.total_bytes /. gib) -. 2.3) < 0.2);
  check "max ~240 GB" true (abs_float ((hi.Overhead.total_bytes /. gib) -. 244.) < 10.)

let test_overhead_ordering_and_ratio () =
  List.iter
    (fun p ->
      match Overhead.table3 p with
      | [ basic; paths; sharing; single ] ->
        check "basic > +paths" true (basic.Overhead.total_bytes > paths.Overhead.total_bytes);
        check "+paths > +sharing" true (paths.Overhead.total_bytes > sharing.Overhead.total_bytes);
        check "+sharing > single" true (sharing.Overhead.total_bytes > single.Overhead.total_bytes)
      | _ -> Alcotest.fail "table3 must have 4 rows")
    [ Overhead.lo; Overhead.hi ];
  (* Paper headline: 1.3x - 2.5x *)
  check "ratio min ~1.3" true (abs_float (Overhead.overhead_ratio Overhead.lo -. 1.3) < 0.1);
  check "ratio max ~2.5" true (abs_float (Overhead.overhead_ratio Overhead.hi -. 2.5) < 0.1)

let test_overhead_table2_complete () =
  check_int "ten parameters" 10 (List.length Overhead.table2)

(* ------------------------- taxonomy (Table 1) ------------------------- *)

let test_taxonomy () =
  check_int "fourteen protocols" 14 (List.length Taxonomy.entries);
  check_int "six critical fixes" 6 (List.length (Taxonomy.by_scenario Taxonomy.Critical_fix));
  check_int "three custom" 3 (List.length (Taxonomy.by_scenario Taxonomy.Custom_protocol));
  check_int "five replacements" 5
    (List.length (Taxonomy.by_scenario Taxonomy.Replacement_protocol));
  check "registry kinds consistent" true (Taxonomy.consistent ());
  check "replacements need multi-proto headers (except HLP)" true
    (List.for_all
       (fun (e : Taxonomy.entry) ->
         e.Taxonomy.name = "HLP"
         || List.mem Taxonomy.Multi_network_proto_headers e.Taxonomy.data_plane)
       (Taxonomy.by_scenario Taxonomy.Replacement_protocol))

(* ------------------------- workload ------------------------- *)

let test_workload_basic () =
  let s = Workload.spec ~advertisements:200 () in
  let ias = Workload.generate s in
  check_int "count" 200 (List.length ias);
  let prefixes =
    List.map (fun (ia : Dbgp_core.Ia.t) -> ia.Dbgp_core.Ia.prefix) ias
  in
  check_int "distinct prefixes" 200
    (List.length (List.sort_uniq Dbgp_types.Prefix.compare prefixes));
  check "loop free" true
    (List.for_all (fun ia -> not (Dbgp_core.Ia.has_loop ia)) ias);
  check "path lengths in range" true
    (List.for_all
       (fun ia ->
         let l = Dbgp_core.Ia.path_length ia in
         l >= 3 && l <= 5)
       ias)

let test_workload_payload_sizing () =
  let plain = Workload.generate (Workload.spec ~advertisements:5 ()) in
  let fat = Workload.generate (Workload.spec ~payload_bytes:32768 ~advertisements:5 ()) in
  let avg ias =
    List.fold_left (fun a ia -> a + Dbgp_core.Codec.size ia) 0 ias / List.length ias
  in
  check "payload inflates" true (avg fat > avg plain + 32_000);
  check "deterministic" true
    (Workload.generate (Workload.spec ~advertisements:5 ())
    = Workload.generate (Workload.spec ~advertisements:5 ()))

let test_workload_updates_arm () =
  let ups = Workload.generate_updates (Workload.spec ~advertisements:50 ()) in
  check_int "count" 50 (List.length ups);
  check "every update has attrs and one nlri" true
    (List.for_all
       (fun (u : Dbgp_bgp.Message.update) ->
         u.Dbgp_bgp.Message.attrs <> None
         && List.length u.Dbgp_bgp.Message.nlri = 1)
       ups)

(* ------------------------- scenarios (Figures 1-3, 8) ------------------------- *)

let test_scenario_wiser () =
  let r = Scenarios.wiser_across_gulf () in
  check "cost visible with D-BGP" true (r.Scenarios.cost_seen = Some 10);
  check "low-cost path chosen" true r.Scenarios.chose_low_cost;
  check "portal descriptor crossed the gulf" true r.Scenarios.portal_seen;
  check "cost invisible with BGP" true (r.Scenarios.cost_seen_bgp = None);
  check "BGP picks the short expensive path" false r.Scenarios.chose_low_cost_bgp

let test_scenario_pathlet () =
  let r = Scenarios.pathlet_across_gulf () in
  check_int "all five pathlets reach S" r.Scenarios.expected r.Scenarios.seen;
  check_int "none with plain BGP" 0 r.Scenarios.seen_bgp;
  check_int "two composable end-to-end routes" 2 r.Scenarios.end_to_end

let test_scenario_miro () =
  let r = Scenarios.miro_discovery () in
  check "discovered across gulf" true r.Scenarios.discovered;
  check "not discoverable with BGP" false r.Scenarios.discovered_bgp;
  check "negotiation succeeded" true (r.Scenarios.negotiated <> None);
  check "tunnel delivers" true r.Scenarios.tunnel_works

let test_scenario_scion () =
  let r = Scenarios.scion_multipath () in
  check_int "both paths visible" 2 r.Scenarios.paths_seen;
  check_int "lost with BGP" 0 r.Scenarios.paths_seen_bgp;
  check "extra path forwards" true r.Scenarios.forwarded_on_extra

let test_rich_world () =
  let ia, c = Rich_world.run () in
  check "IA propagated" true (ia <> None);
  check "wiser cost 75" true (c.Rich_world.wiser_cost = Some 75);
  check "all figure-7 content" true (Rich_world.expected_ok c);
  check "five protocols in IA" true (List.length c.Rich_world.protocols_in_ia >= 5)

(* ------------------------- benefits (Figures 9, 10) ------------------------- *)

let small_cfg =
  { Benefits.default with
    Benefits.brite = { Brite.default with Brite.n = 80 };
    trials = 3;
    dest_sample = 25;
    adoption_levels = [ 20; 50; 80; 100 ] }

let test_benefits_extra_paths_shape () =
  let dbgp = Benefits.extra_paths small_cfg Benefits.Dbgp_baseline in
  let bgp = Benefits.extra_paths small_cfg Benefits.Bgp_baseline in
  check "status quo equal across baselines" true
    (abs_float (dbgp.Benefits.status_quo -. bgp.Benefits.status_quo) < 1e-6);
  check "best case equal at 100%" true
    (abs_float (dbgp.Benefits.best_case -. bgp.Benefits.best_case) < 1e-6);
  (* D-BGP dominates BGP at every level (paper's Fig 9 claim). *)
  List.iter2
    (fun (d : Benefits.point) (b : Benefits.point) ->
      check
        (Printf.sprintf "dbgp >= bgp at %d%%" d.Benefits.adoption_pct)
        true
        (d.Benefits.mean >= b.Benefits.mean -. 1e-6))
    dbgp.Benefits.points bgp.Benefits.points;
  check "benefits exceed status quo by 100%" true
    (dbgp.Benefits.best_case > dbgp.Benefits.status_quo)

let test_benefits_bottleneck_shape () =
  let dbgp = Benefits.bottleneck_bandwidth small_cfg Benefits.Dbgp_baseline in
  let bgp = Benefits.bottleneck_bandwidth small_cfg Benefits.Bgp_baseline in
  check "status quo positive" true (dbgp.Benefits.status_quo > 0.);
  (* At this tiny scale per-level crossovers are noisy; the robust shape
     claim is that pass-through helps on average across adoption levels. *)
  let avg s =
    List.fold_left (fun a (p : Benefits.point) -> a +. p.Benefits.mean) 0.
      s.Benefits.points
    /. float_of_int (List.length s.Benefits.points)
  in
  check "dbgp means dominate bgp means on average" true (avg dbgp > avg bgp);
  check "100% beats status quo" true (dbgp.Benefits.best_case > dbgp.Benefits.status_quo)

let test_benefits_threshold_mitigation () =
  let plain = Benefits.bottleneck_bandwidth small_cfg Benefits.Dbgp_baseline in
  let thr =
    Benefits.bottleneck_bandwidth_threshold small_cfg ~coverage_pct:100
      Benefits.Dbgp_baseline
  in
  (* Same endgame: with everyone upgraded, the gate is always open. *)
  check "identical best case" true
    (abs_float (plain.Benefits.best_case -. thr.Benefits.best_case) < 1e-6);
  (* The mitigation's point: at low adoption the gated protocol routes by
     shortest path and stays near the status quo instead of gambling. *)
  ( match thr.Benefits.points with
    | first :: _ ->
      check "low adoption stays near status quo" true
        (first.Benefits.mean > thr.Benefits.status_quo *. 0.9)
    | [] -> Alcotest.fail "no points" )

let test_benefits_latency_faster_than_bottleneck () =
  (* Section 6.3's aside: the additive latency objective gains benefits
     at lower adoption than the bottleneck objective.  Compare the
     fraction of the 0%%->100%% gap closed at 50%% adoption. *)
  let closed (s : Benefits.series) pct =
    let p = List.find (fun (p : Benefits.point) -> p.Benefits.adoption_pct = pct) s.Benefits.points in
    (p.Benefits.mean -. s.Benefits.status_quo)
    /. (s.Benefits.best_case -. s.Benefits.status_quo)
  in
  let latency = Benefits.end_to_end_latency small_cfg Benefits.Dbgp_baseline in
  let bottleneck = Benefits.bottleneck_bandwidth small_cfg Benefits.Dbgp_baseline in
  check "latency improves over status quo at 100%" true
    (latency.Benefits.best_case > latency.Benefits.status_quo);
  check "latency archetype closes the gap faster at 50%" true
    (closed latency 50 > closed bottleneck 50)

let test_benefits_adoption_orders () =
  let series order = Benefits.extra_paths ~order small_cfg Benefits.Dbgp_baseline in
  let r = series Benefits.Random_order in
  let c = series Benefits.Core_first in
  let e = series Benefits.Edge_first in
  check "same status quo" true
    (r.Benefits.status_quo = c.Benefits.status_quo
    && c.Benefits.status_quo = e.Benefits.status_quo);
  (* at 100% all orders coincide *)
  let last s = (List.nth s.Benefits.points (List.length s.Benefits.points - 1)).Benefits.mean in
  check "identical at 100%" true (last r = last c && last c = last e);
  (* ordered rollouts are deterministic: the CI collapses to sampling noise
     across topologies only, and repeated runs agree exactly *)
  check "core-first deterministic" true
    (let c2 = series Benefits.Core_first in
     List.for_all2
       (fun (a : Benefits.point) (b : Benefits.point) -> a.Benefits.mean = b.Benefits.mean)
       c.Benefits.points c2.Benefits.points)

let test_benefits_deterministic () =
  let a = Benefits.extra_paths small_cfg Benefits.Dbgp_baseline in
  let b = Benefits.extra_paths small_cfg Benefits.Dbgp_baseline in
  check "same config same series" true
    (List.for_all2
       (fun (x : Benefits.point) (y : Benefits.point) -> x.Benefits.mean = y.Benefits.mean)
       a.Benefits.points b.Benefits.points)

(* ------------------------- stress (Section 5) ------------------------- *)

let test_stress_smoke () =
  let r = Stress.run_beagle ~advertisements:300 () in
  check "throughput positive" true (r.Stress.prefixes_per_s > 0.);
  check_int "count recorded" 300 r.Stress.advertisements;
  let q = Stress.run_quagga_equivalent ~advertisements:300 () in
  check "quagga arm works" true (q.Stress.prefixes_per_s > 0.)

let test_stress_size_decay () =
  (* Larger IAs must process strictly slower (the paper's 32 KB / 256 KB
     decay), by a wide margin. *)
  let small = Stress.run_beagle ~advertisements:400 () in
  let big = Stress.run_beagle ~payload_bytes:65536 ~advertisements:100 () in
  check "throughput decays with IA size" true
    (big.Stress.prefixes_per_s < small.Stress.prefixes_per_s);
  check "avg bytes reflect payload" true (big.Stress.avg_adv_bytes > 65_000)

(* ------------------------- loc report ------------------------- *)

let test_loc_report () =
  let entries = Loc_report.report ~root:".." () in
  (* When run from the dune sandbox the sources may be elsewhere; only
     check structure. *)
  check_int "seven components" 7 (List.length entries);
  check "counts non-negative" true
    (List.for_all (fun (e : Loc_report.entry) -> e.Loc_report.loc >= 0) entries)

let () =
  Alcotest.run "eval"
    [ ("overhead",
       [ Alcotest.test_case "basic row" `Quick test_overhead_basic_row;
         Alcotest.test_case "+path lengths row" `Quick test_overhead_path_lengths_row;
         Alcotest.test_case "+sharing row" `Quick test_overhead_sharing_row;
         Alcotest.test_case "single row" `Quick test_overhead_single_row;
         Alcotest.test_case "ordering+ratio" `Quick test_overhead_ordering_and_ratio;
         Alcotest.test_case "table2 complete" `Quick test_overhead_table2_complete ]);
      ("taxonomy", [ Alcotest.test_case "table1" `Quick test_taxonomy ]);
      ("workload",
       [ Alcotest.test_case "basic" `Quick test_workload_basic;
         Alcotest.test_case "payload sizing" `Quick test_workload_payload_sizing;
         Alcotest.test_case "updates arm" `Quick test_workload_updates_arm ]);
      ("scenarios",
       [ Alcotest.test_case "wiser (fig 1)" `Quick test_scenario_wiser;
         Alcotest.test_case "pathlet (fig 8)" `Quick test_scenario_pathlet;
         Alcotest.test_case "miro (fig 2)" `Quick test_scenario_miro;
         Alcotest.test_case "scion (fig 3)" `Quick test_scenario_scion;
         Alcotest.test_case "rich world (figs 6-7)" `Quick test_rich_world ]);
      ("benefits",
       [ Alcotest.test_case "fig 9 shape" `Slow test_benefits_extra_paths_shape;
         Alcotest.test_case "fig 10 shape" `Slow test_benefits_bottleneck_shape;
         Alcotest.test_case "threshold mitigation" `Slow test_benefits_threshold_mitigation;
         Alcotest.test_case "latency beats bottleneck incrementally" `Slow
           test_benefits_latency_faster_than_bottleneck;
         Alcotest.test_case "adoption orders" `Slow test_benefits_adoption_orders;
         Alcotest.test_case "deterministic" `Slow test_benefits_deterministic ]);
      ("stress",
       [ Alcotest.test_case "smoke" `Quick test_stress_smoke;
         Alcotest.test_case "size decay" `Quick test_stress_size_decay ]);
      ("loc", [ Alcotest.test_case "report" `Quick test_loc_report ]) ]
