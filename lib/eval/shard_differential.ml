(* Sharded differential scenarios: the determinism oracle's workloads.

   Each scenario builds a partitioned topology ({!Dbgp_netsim.Shard}),
   drives it through a seeded workload and folds the observable
   behaviour into the same {!Differential.digest} shape the sequential
   differential uses: a transcript MD5 (here the shard's merged
   per-region transcript — every Loc-RIB change, cross-partition
   delivery and NACK, totally ordered by (time, region, sequence)) and
   a state MD5 ({!Differential.state_digest} over every speaker).

   The oracle property: for a fixed seed, the digest is byte-identical
   for every [domains] value.  The region count is part of the
   scenario (it fixes the partitioned schedule); the domain count only
   changes which OS thread executes which region.  Golden digests for
   [domains = 1] live in [test/golden_sharded.txt]; the parallel suite
   re-runs each scenario at 2 and 4 domains and compares. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Ia = Dbgp_core.Ia
module Filters = Dbgp_core.Filters
module Network = Dbgp_netsim.Network
module Shard = Dbgp_netsim.Shard
module Fault_model = Dbgp_netsim.Fault_model
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Damping = Dbgp_bgp.Flap_damping

let scenarios =
  [ "sharded-relay-line"; "sharded-hub-policy"; "sharded-chaos-30" ]

let mk_speaker ?(damping = None) a =
  let asn = Asn.of_int a in
  let s =
    Speaker.create
      (Speaker.config ~asn ~addr:(Network.speaker_addr asn) ())
  in
  Speaker.set_damping s damping;
  s

let digest name sh ~steps ~prefixes (stats : Shard.stats) =
  { Differential.scenario = name;
    steps;
    messages = stats.Shard.net.Network.messages;
    transcript_md5 = Shard.transcript_digest sh;
    state_md5 = Differential.state_digest (Shard.speakers sh) prefixes }

(* ------------------------------------------------------------------ *)
(* Scenario 1: the 6-AS line, split across two regions.  The mid-line  *)
(* peer edge becomes the cut; its fail/recover exercises the lockstep  *)
(* half-link teardown and the cross-partition route refresh.           *)
(* ------------------------------------------------------------------ *)

let run_relay_line ~seed ~domains =
  let rng = Prng.create seed in
  let sh = Shard.create ~regions:2 ~make_speaker:(fun a -> mk_speaker a) () in
  List.iter (Shard.add_as sh) [ 1; 2; 3; 4; 5; 6 ];
  let strip_membership ia = Some { ia with Ia.membership = [] } in
  Shard.link sh ~a:1 ~b:2 ~b_is:Dbgp_bgp.Policy.To_provider ();
  Shard.link sh ~a:2 ~b:3 ~b_is:Dbgp_bgp.Policy.To_provider
    ~a_export:strip_membership ();
  Shard.link sh ~a:3 ~b:4 ~b_is:Dbgp_bgp.Policy.To_peer ();
  Shard.link sh ~a:4 ~b:5 ~b_is:Dbgp_bgp.Policy.To_customer ();
  Shard.link sh ~a:5 ~b:6 ~b_is:Dbgp_bgp.Policy.To_customer ~b_dbgp:false ();
  Shard.enable_transcript sh;
  Shard.build sh;
  let originations =
    List.map (fun i -> (1, Printf.sprintf "10.1.%d.0/24" i)) [ 0; 1; 2; 3 ]
    @ List.map (fun i -> (6, Printf.sprintf "10.6.%d.0/24" i)) [ 0; 1 ]
  in
  let order = Array.of_list originations in
  Prng.shuffle rng order;
  let steps = ref 0 in
  Array.iteri
    (fun i (origin, p) ->
      incr steps;
      let prefix = Prefix.of_string p in
      Shard.originate sh
        ~at:(float_of_int (i + 1))
        origin
        (Ia.originate ~prefix ~origin_asn:(Asn.of_int origin)
           ~next_hop:(Network.speaker_addr (Asn.of_int origin)) ()))
    order;
  incr steps;
  Shard.schedule_fail sh ~at:40. 3 4;
  incr steps;
  Shard.schedule_recover sh ~at:60. 3 4;
  let stats = Shard.run ~domains sh in
  digest "sharded-relay-line" sh ~steps:!steps
    ~prefixes:(List.map (fun (_, p) -> Prefix.of_string p) originations)
    stats

(* ------------------------------------------------------------------ *)
(* Scenario 2: the policy-rich hub, with real spoke speakers this time *)
(* so the partitioner has something to split.  MRAI 2.0 exercises the  *)
(* uncoalesced cross-partition send path; damping, a cut-link flap and *)
(* shared-pool churn from every spoke exercise suppression, NACKs and  *)
(* best-path competition across the cut.                               *)
(* ------------------------------------------------------------------ *)

let run_hub_policy ~seed ~domains =
  let rng = Prng.create (seed + 1) in
  let hub = 100 in
  let damping = Some { Damping.default with Damping.half_life = 5. } in
  let sh =
    Shard.create ~mrai:2.0 ~regions:2
      ~make_speaker:(fun a -> mk_speaker ~damping a)
      ()
  in
  let spokes = [| 11; 12; 13; 14; 15; 16 |] in
  Shard.add_as sh hub;
  Array.iter (Shard.add_as sh) spokes;
  let drop_big = Filters.max_size 90 in
  Shard.link sh ~a:hub ~b:11 ~b_is:Dbgp_bgp.Policy.To_customer ();
  Shard.link sh ~a:hub ~b:12 ~b_is:Dbgp_bgp.Policy.To_customer ();
  Shard.link sh ~a:hub ~b:13 ~b_is:Dbgp_bgp.Policy.To_provider ();
  Shard.link sh ~a:hub ~b:14 ~b_is:Dbgp_bgp.Policy.To_peer ();
  Shard.link sh ~a:hub ~b:15 ~b_is:Dbgp_bgp.Policy.To_customer
    ~b_dbgp:false ();
  Shard.link sh ~a:hub ~b:16 ~b_is:Dbgp_bgp.Policy.To_customer
    ~a_export:drop_big ();
  Shard.enable_transcript sh;
  Shard.build sh;
  let pool =
    Array.init 12 (fun i -> Prefix.of_string (Printf.sprintf "20.0.%d.0/24" i))
  in
  let mk_ia from prefix =
    let ia =
      Ia.originate ~prefix ~origin_asn:(Asn.of_int from)
        ~next_hop:(Network.speaker_addr (Asn.of_int from)) ()
    in
    (* Vary the path length for selection pressure at the hub. *)
    let hops = Prng.int rng 3 in
    let ia = ref ia in
    for h = 1 to hops do
      ia := Ia.prepend_as (Asn.of_int (200 + (10 * from) + h)) !ia
    done;
    if Prng.int rng 4 = 0 then
      ia :=
        Ia.set_path_descriptor ~owners:[ Protocol_id.wiser ] ~field:"cost"
          (Dbgp_core.Value.Int (Prng.int rng 100))
          !ia;
    !ia
  in
  let steps = 120 in
  for step = 1 to steps do
    let at = float_of_int step in
    let from = spokes.(Prng.int rng (Array.length spokes)) in
    let prefix = pool.(Prng.int rng (Array.length pool)) in
    if Prng.int rng 4 = 0 then Shard.withdraw_origin sh ~at from prefix
    else Shard.originate sh ~at from (mk_ia from prefix)
  done;
  (* One flap on a hub spoke — whichever side of the cut 14 landed on,
     the schedule is part of the partitioned workload and identical for
     every domain count. *)
  Shard.schedule_fail sh ~at:140. hub 14;
  Shard.schedule_recover sh ~at:155. hub 14;
  let stats = Shard.run ~domains sh in
  digest "sharded-hub-policy" sh ~steps:(steps + 2)
    ~prefixes:(Array.to_list pool) stats

(* ------------------------------------------------------------------ *)
(* Scenario 3: seeded chaos over a 30-AS BRITE graph in four regions.  *)
(* Flap links are pinned intra-region (fault state must stay region-   *)
(* private); per-link loss/jitter/corruption apply only to intra-      *)
(* region links, drawn from per-region split PRNG streams.  Every      *)
(* delivery crosses the codec, so the per-domain encode/decode caches  *)
(* earn their keep.                                                     *)
(* ------------------------------------------------------------------ *)

let run_chaos ~seed ~domains =
  let rng = Prng.create (seed + 2) in
  let g = Brite.generate rng { Brite.default with Brite.n = 30 } in
  let edges =
    List.rev
      (Graph.fold_edges
         (fun a b view acc ->
           let rel = Harness.relationship view in
           (a + 1, b + 1, rel) :: acc)
         g [])
  in
  let flapped =
    Array.to_list
      (Prng.sample rng 3
         (Array.of_list (List.map (fun (a, b, _) -> (a, b)) edges)))
  in
  let is_flap a b = List.mem (a, b) flapped || List.mem (b, a) flapped in
  let damping = Some { Damping.default with Damping.half_life = 5. } in
  let sh =
    Shard.create ~regions:4
      ~make_speaker:(fun a -> mk_speaker ~damping a)
      ()
  in
  for a = 1 to Graph.size g do
    Shard.add_as sh a
  done;
  List.iter
    (fun (a, b, rel) -> Shard.link sh ~pinned:(is_flap a b) ~a ~b ~b_is:rel ())
    edges;
  Shard.enable_transcript sh;
  Shard.build sh;
  (* Region-private fault streams; per-link faults only where both
     endpoints share a region (cut links are fault-free by contract). *)
  let fms = Shard.fault_models sh ~seed:(seed + 3) in
  List.iter
    (fun (a, b, _) ->
      let ra = Shard.region_of sh a in
      if ra = Shard.region_of sh b then
        Fault_model.set_link fms.(ra) ~a ~b ~loss:0.03 ~jitter:0.2
          ~corrupt:0.01 ~duplicate:0.01 ())
    edges;
  let prefixes =
    List.init 6 (fun i -> Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i))
  in
  List.iteri
    (fun i prefix ->
      let origin = 1 + (5 * i mod Graph.size g) in
      Shard.originate sh
        ~at:(float_of_int (i + 1))
        origin
        (Ia.originate ~prefix ~origin_asn:(Asn.of_int origin)
           ~next_hop:(Network.speaker_addr (Asn.of_int origin)) ()))
    prefixes;
  List.iteri
    (fun i (a, b) ->
      let down_at = 30. +. (20. *. float_of_int i) in
      Shard.schedule_fail sh ~at:down_at a b;
      Shard.schedule_recover sh ~at:(down_at +. 8.) a b)
    flapped;
  let stats = Shard.run ~domains sh in
  digest "sharded-chaos-30" sh
    ~steps:(List.length prefixes + List.length flapped)
    ~prefixes stats

let run ?(seed = 42) ?(domains = 1) name =
  match name with
  | "sharded-relay-line" -> run_relay_line ~seed ~domains
  | "sharded-hub-policy" -> run_hub_policy ~seed ~domains
  | "sharded-chaos-30" -> run_chaos ~seed ~domains
  | _ -> invalid_arg ("Shard_differential.run: unknown scenario " ^ name)

let run_all ?domains () = List.map (fun n -> run ?domains n) scenarios

let verify ?(domains = 2) name =
  let sequential = run ~domains:1 name in
  let sharded = run ~domains name in
  (sequential, sharded, Differential.equal sequential sharded)
