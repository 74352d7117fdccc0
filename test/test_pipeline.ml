(* The staged RIB pipeline: stage-module unit tests (Adj-RIB-In,
   Loc-RIB, Adj-RIB-Out peer groups + handles, the dirty-prefix
   scheduler), a group-major fan-out property against a per-neighbor
   reference, speaker-level batched ingestion, and teardown
   cleanliness ([remove_neighbor] / [Network.unlink] leaving no state
   behind, asserted through [Invariants.peer_clean]). *)

open Dbgp_types
module Ia = Dbgp_core.Ia
module Filters = Dbgp_core.Filters
module Adj_rib_in = Dbgp_core.Adj_rib_in
module Loc_rib = Dbgp_core.Loc_rib
module Adj_rib_out = Dbgp_core.Adj_rib_out
module Pipeline = Dbgp_core.Pipeline
module Speaker = Dbgp_core.Speaker
module Dm = Dbgp_core.Decision_module
module Peer = Dbgp_core.Peer
module Policy = Dbgp_bgp.Policy
module Damping = Dbgp_bgp.Flap_damping
module Metrics = Dbgp_obs.Metrics
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Invariants = Dbgp_eval.Invariants
module Harness = Dbgp_eval.Harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let asn = Asn.of_int
let ip = Ipv4.of_string
let pfx = Prefix.of_string
let peer n = Peer.make ~asn:(asn n) ~addr:(Ipv4.of_octets 10 0 0 n)

let base_ia ?(prefix = "99.0.0.0/24") ?(origin = 1) () =
  Ia.originate ~prefix:(pfx prefix) ~origin_asn:(asn origin)
    ~next_hop:(Ipv4.of_octets 10 0 0 origin) ()

let counter_of s name =
  match Metrics.find_counter (Speaker.metrics s) name with
  | Some c -> Metrics.count c
  | None -> 0

(* ------------------------- Adj-RIB-In ------------------------- *)

let test_adj_rib_in_stale () =
  let db = Adj_rib_in.create () in
  let p1 = peer 1 and p2 = peer 2 in
  Adj_rib_in.set db ~peer:p1 (pfx "1.0.0.0/8") "a";
  Adj_rib_in.set db ~peer:p1 (pfx "2.0.0.0/8") "b";
  Adj_rib_in.set db ~peer:p2 (pfx "1.0.0.0/8") "c";
  check_int "mark_stale returns set size" 2 (Adj_rib_in.mark_stale db ~peer:p1);
  check "marked" true (Adj_rib_in.is_stale db ~peer:p1 (pfx "1.0.0.0/8"));
  check "other peer untouched" false
    (Adj_rib_in.is_stale db ~peer:p2 (pfx "1.0.0.0/8"));
  Adj_rib_in.clear_stale db ~peer:p1 (pfx "1.0.0.0/8");
  check_int "one left" 1 (Adj_rib_in.stale_count db);
  let taken = Adj_rib_in.take_stale db ~peer:p1 in
  check "take returns the marks left" true (taken = [ pfx "2.0.0.0/8" ]);
  check_int "nothing stale after take" 0 (Adj_rib_in.stale_count db);
  check_int "routeless peer marks nothing" 0
    (Adj_rib_in.mark_stale db ~peer:(peer 9))

let test_adj_rib_in_drop_clears_stale () =
  let db = Adj_rib_in.create () in
  let p1 = peer 1 in
  Adj_rib_in.set db ~peer:p1 (pfx "2.0.0.0/8") "b";
  Adj_rib_in.set db ~peer:p1 (pfx "1.0.0.0/8") "a";
  ignore (Adj_rib_in.mark_stale db ~peer:p1);
  let affected = Adj_rib_in.drop_peer db ~peer:p1 in
  check "affected ascending" true
    (affected = [ pfx "1.0.0.0/8"; pfx "2.0.0.0/8" ]);
  check_int "stale erased with routes" 0 (Adj_rib_in.stale_count db);
  check "no routes left" false (Adj_rib_in.has_routes db ~peer:p1)

(* Random set/remove sequences over a few prefixes and up to six peers,
   against a [Peer.Map] per prefix.  Contested prefixes keep crossing the
   one-peer/two-peer boundary, so slots flip between [Single] and
   [Multi] both ways; every read is compared after every write. *)
let qcheck_adj_rib_in_model =
  let open QCheck in
  let prefixes = List.map pfx [ "1.0.0.0/8"; "2.0.0.0/8"; "3.0.0.0/8" ] in
  let peers = List.init 6 (fun i -> peer (i + 1)) in
  (* (peer index, prefix index, [Some v] sets, [None] removes) *)
  let gen_op =
    Gen.(
      triple (int_bound 5) (int_bound 2)
        (frequency [ (2, return None); (3, map Option.some (int_bound 99)) ]))
  in
  let print =
    Print.list (fun (i, j, v) ->
        Printf.sprintf "%d %d %s" i j
          (match v with None -> "-" | Some v -> string_of_int v))
  in
  Test.make ~name:"adj-rib-in = peer-map model" ~count:500
    (make ~print Gen.(list_size (int_range 0 60) gen_op))
    (fun ops ->
      let db = Adj_rib_in.create () in
      let agrees model =
        let slot q =
          Option.value (Prefix.Map.find_opt q model) ~default:Peer.Map.empty
        in
        List.for_all
          (fun q ->
            Adj_rib_in.candidates db q = Peer.Map.bindings (slot q)
            && List.for_all
                 (fun p ->
                   Adj_rib_in.find db ~peer:p q = Peer.Map.find_opt p (slot q))
                 peers)
          prefixes
        && Adj_rib_in.size db
           = Prefix.Map.fold (fun _ m n -> n + Peer.Map.cardinal m) model 0
        && Prefix.Set.elements (Adj_rib_in.prefixes db)
           = List.map fst (Prefix.Map.bindings model)
        && List.for_all
             (fun p ->
               let held =
                 List.filter (fun q -> Peer.Map.mem p (slot q)) prefixes
               in
               Adj_rib_in.prefixes_of db ~peer:p = held
               && Adj_rib_in.has_routes db ~peer:p = (held <> []))
             peers
      in
      let step model (i, j, v) =
        let p = List.nth peers i and q = List.nth prefixes j in
        let m =
          Option.value (Prefix.Map.find_opt q model) ~default:Peer.Map.empty
        in
        let m =
          match v with
          | Some v ->
            Adj_rib_in.set db ~peer:p q v;
            Peer.Map.add p v m
          | None ->
            Adj_rib_in.remove db ~peer:p q;
            Peer.Map.remove p m
        in
        if Peer.Map.is_empty m then Prefix.Map.remove q model
        else Prefix.Map.add q m model
      in
      let rec go model = function
        | [] -> true
        | op :: rest ->
          let model = step model op in
          agrees model && go model rest
      in
      go Prefix.Map.empty ops)

(* ------------------------- Loc-RIB ------------------------- *)

let test_loc_rib_lpm_fib () =
  (* Routes are (label, next hop) pairs; the FIB view is the projection
     supplied at create. *)
  let loc = Loc_rib.create ~next_hop:snd () in
  Loc_rib.set loc (pfx "10.0.0.0/8") ("wide", Some (ip "10.0.0.1"));
  Loc_rib.set loc (pfx "10.1.0.0/16") ("narrow", Some (ip "10.0.0.2"));
  check "fib follows lpm" true
    (Loc_rib.next_hop loc (ip "10.1.2.3") = Some (ip "10.0.0.2"));
  check_int "cardinal" 2 (Loc_rib.cardinal loc);
  Loc_rib.remove loc (pfx "10.1.0.0/16");
  check "fib fallback" true
    (Loc_rib.next_hop loc (ip "10.1.2.3") = Some (ip "10.0.0.1"));
  (* A locally originated route (no next hop) is selectable but not
     forwardable. *)
  Loc_rib.set loc (pfx "10.0.0.0/8") ("local", None);
  check "still selected" true
    (match Loc_rib.find loc (pfx "10.0.0.0/8") with
     | Some ("local", _) -> true
     | _ -> false);
  check "absent from fib" true (Loc_rib.next_hop loc (ip "10.1.2.3") = None);
  (* ...and a hop-less more-specific never shadows a forwardable
     covering route. *)
  Loc_rib.set loc (pfx "10.0.0.0/8") ("wide", Some (ip "10.0.0.1"));
  Loc_rib.set loc (pfx "10.1.2.0/24") ("local", None);
  check "hop-less /24 skipped" true
    (Loc_rib.next_hop loc (ip "10.1.2.3") = Some (ip "10.0.0.1"));
  check "find still sees it" true
    (Loc_rib.find loc (pfx "10.1.2.0/24") = Some ("local", None))

(* Random write sequences against a model map.  After every write the
   FIB must answer like a linear scan for the deepest hop-bearing match,
   skipping locally originated routes (so each query also covers the
   rebuild after a write). *)
let qcheck_loc_rib_fib =
  let open QCheck in
  let gen_prefix =
    Gen.(
      map3
        (fun base off len ->
          Prefix.make (Ipv4.of_int ((base lsl 24) lor off)) len)
        (int_bound 3) (int_bound 0xFFFF)
        (oneof [ oneofl [ 0; 8; 16; 24; 32 ]; int_bound 32 ]))
  in
  (* [None] removes; [Some None] installs a hop-less route. *)
  let gen_op =
    Gen.(
      pair gen_prefix
        (frequency
           [ (1, return None);
             (2, return (Some None));
             (5, map (fun h -> Some (Some (Ipv4.of_int h))) (int_bound 0xFFFF)) ]))
  in
  let gen =
    Gen.(pair (list_size (int_range 0 40) gen_op) (list_size (return 8) (int_bound 0xFF)))
  in
  let print (ops, _) =
    String.concat "; "
      (List.map
         (fun (q, op) ->
           Prefix.to_string q
           ^ match op with
             | None -> " -"
             | Some None -> " local"
             | Some (Some h) -> " via " ^ Ipv4.to_string h)
         ops)
  in
  Test.make ~name:"loc-rib fib = linear scan, local routes skipped" ~count:300
    (make ~print gen) (fun (ops, offs) ->
      let loc = Loc_rib.create ~next_hop:Fun.id () in
      let probes model =
        Ipv4.any :: Ipv4.of_int 0xFFFFFFFF
        :: List.concat_map
             (fun (q, _) ->
               let n = Ipv4.to_int (Prefix.network q) in
               List.map (fun o -> Ipv4.of_int (n lor o)) offs
               @ [ Prefix.network q; Ipv4.of_int (n lor 0xFFFF) ])
             (Prefix.Map.bindings model)
      in
      let agrees model =
        List.for_all
          (fun a ->
            let deepest =
              Prefix.Map.fold
                (fun q h acc ->
                  match (h, acc) with
                  | Some _, Some (d, _) when Prefix.length d >= Prefix.length q -> acc
                  | Some h, _ when Prefix.mem a q -> Some (q, h)
                  | _ -> acc)
                model None
            in
            Loc_rib.next_hop loc a = Option.map snd deepest)
          (probes model)
      in
      let step model (q, op) =
        match model with
        | None -> None
        | Some model ->
          let model =
            match op with
            | None -> Loc_rib.remove loc q; Prefix.Map.remove q model
            | Some h -> Loc_rib.set loc q h; Prefix.Map.add q h model
          in
          if agrees model then Some model else None
      in
      Loc_rib.next_hop loc (ip "10.0.0.1") = None
      && List.fold_left step (Some Prefix.Map.empty) ops <> None)

(* Nested active ranges: the deepest range covering the whole prefix
   wins, and a more-specific range inside the prefix does not hide the
   one that covers it. *)
let test_active_for_nested () =
  let s =
    Speaker.create (Speaker.config ~asn:(asn 5) ~addr:(Ipv4.of_octets 10 0 0 5) ())
  in
  let p = Protocol_id.wiser and q = Protocol_id.bgpsec in
  Speaker.add_module s { (Dm.bgp ()) with Dm.protocol = p };
  Speaker.add_module s { (Dm.bgp ()) with Dm.protocol = q };
  Speaker.set_active s (pfx "10.0.0.0/8") p;
  Speaker.set_active s (pfx "10.0.0.0/24") q;
  let active x = Speaker.For_tests.active_for s (pfx x) in
  check "/8 -> P" true (Protocol_id.equal (active "10.0.0.0/8") p);
  check "/16 -> P" true (Protocol_id.equal (active "10.0.0.0/16") p);
  check "/24 -> Q" true (Protocol_id.equal (active "10.0.0.0/24") q);
  check "/25 -> Q" true (Protocol_id.equal (active "10.0.0.0/25") q);
  check "outside -> BGP" true
    (Protocol_id.equal (active "11.0.0.0/8") Protocol_id.bgp);
  (* Setting an exact range again replaces its protocol and keeps the
     ranges nested inside or around it. *)
  Speaker.set_active s (pfx "10.0.0.0/8") q;
  Speaker.set_active s (pfx "10.0.0.0/24") p;
  check "replaced /8 -> Q" true (Protocol_id.equal (active "10.0.0.0/16") q);
  check "replaced /24 -> P" true (Protocol_id.equal (active "10.0.0.0/25") p);
  check "outside still BGP" true
    (Protocol_id.equal (active "11.0.0.0/8") Protocol_id.bgp)

(* Random [set_active] sequences over nested ranges against a map
   model: [active_for] is the protocol of the deepest range that
   subsumes the prefix, the last write winning for an exact range. *)
let qcheck_active_for =
  let open QCheck in
  let protos = [| Protocol_id.bgp; Protocol_id.wiser; Protocol_id.bgpsec |] in
  let gen_prefix =
    Gen.(
      map2
        (fun off len -> Prefix.make (Ipv4.of_int ((10 lsl 24) lor off)) len)
        (int_bound 0xFFFF)
        (oneof [ oneofl [ 0; 8; 16; 24; 32 ]; int_bound 32 ]))
  in
  let gen =
    Gen.(
      pair
        (list_size (int_range 0 12) (pair gen_prefix (int_bound 2)))
        (list_size (int_range 1 12) gen_prefix))
  in
  let print (sets, probes) =
    String.concat "; "
      (List.map (fun (q, i) -> Printf.sprintf "%s=%d" (Prefix.to_string q) i) sets)
    ^ " | "
    ^ String.concat " " (List.map Prefix.to_string probes)
  in
  Test.make ~name:"active_for = deepest covering range" ~count:300
    (make ~print gen) (fun (sets, probes) ->
      let s =
        Speaker.create (Speaker.config ~asn:(asn 5) ~addr:(Ipv4.of_octets 10 0 0 5) ())
      in
      Speaker.add_module s { (Dm.bgp ()) with Dm.protocol = Protocol_id.wiser };
      Speaker.add_module s { (Dm.bgp ()) with Dm.protocol = Protocol_id.bgpsec };
      List.iter (fun (q, i) -> Speaker.set_active s q protos.(i)) sets;
      let model =
        List.fold_left
          (fun m (q, i) -> Prefix.Map.add q protos.(i) m)
          Prefix.Map.empty sets
      in
      let deepest x =
        Prefix.Map.fold
          (fun q proto acc ->
            match acc with
            | Some (d, _) when Prefix.length d >= Prefix.length q -> acc
            | _ when Prefix.subsumes q x -> Some (q, proto)
            | _ -> acc)
          model None
        |> Option.fold ~none:Protocol_id.bgp ~some:snd
      in
      List.for_all
        (fun x -> Protocol_id.equal (Speaker.For_tests.active_for s x) (deepest x))
        (probes @ List.map fst sets))

(* ------------------ dirty-prefix scheduler ------------------ *)

let test_pipeline_coalescing () =
  let obs = Metrics.create () in
  let sched = Pipeline.create obs in
  let count name = Metrics.count (Metrics.counter obs name) in
  Pipeline.mark sched (pfx "2.0.0.0/8");
  Pipeline.mark sched (pfx "1.0.0.0/8");
  Pipeline.mark sched (pfx "2.0.0.0/8");
  Pipeline.mark sched (pfx "2.0.0.0/8");
  check_int "coalesced to two" 2 (Pipeline.pending sched);
  check_int "marks counted" 4 (count "pipeline.dirty_marks");
  check_int "two runs saved" 2 (count "pipeline.runs_saved");
  let out = Pipeline.drain sched ~f:(fun p -> [ Prefix.to_string p ]) in
  check "ascending drain order" true (out = [ "1.0.0.0/8"; "2.0.0.0/8" ]);
  check_int "drained" 0 (Pipeline.pending sched);
  check_int "one nonempty drain" 1 (count "pipeline.drains");
  ignore (Pipeline.drain sched ~f:(fun _ -> []));
  check_int "empty drain not counted" 1 (count "pipeline.drains")

let test_pipeline_remark_during_drain () =
  let obs = Metrics.create () in
  let sched = Pipeline.create obs in
  Pipeline.mark sched (pfx "1.0.0.0/8");
  let out =
    Pipeline.drain sched ~f:(fun p ->
        (* A prefix dirtied by the drain itself lands in the NEXT drain,
           not this one — no livelock. *)
        Pipeline.mark sched (pfx "2.0.0.0/8");
        [ Prefix.to_string p ])
  in
  check "only first prefix this drain" true (out = [ "1.0.0.0/8" ]);
  check_int "re-mark pending" 1 (Pipeline.pending sched)

(* ------------------------- peer groups ------------------------- *)

let key rel =
  { Adj_rib_out.relationship = rel;
    dbgp_capable = true;
    same_island = false;
    export = Filters.accept }

let test_groups_membership () =
  let out = Adj_rib_out.create () in
  let join p k =
    ignore (Adj_rib_out.join out ~peer:(peer p) k);
    Adj_rib_out.group_of out ~peer:(peer p)
  in
  let g1 = join 1 (key Policy.To_customer) in
  let g2 = join 2 (key Policy.To_customer) in
  let g3 = join 3 (key Policy.To_peer) in
  check "same egress identity shares a group" true (g1 = g2);
  check "different relationship splits" true (g3 <> g1);
  check_int "two groups" 2 (Adj_rib_out.For_tests.group_count out);
  (* Export filters compare physically: an identical-behaviour closure is
     still a different group. *)
  let f : Filters.t = fun ia -> Some ia in
  let g4 = join 4 { (key Policy.To_customer) with Adj_rib_out.export = f } in
  check "fresh closure, fresh group" true (g4 <> g1);
  check_int "members" 2
    (List.length
       (List.filter
          (fun p -> Adj_rib_out.group_of out ~peer:(peer p) = g1)
          [ 1; 2; 3; 4 ]));
  Adj_rib_out.leave out ~peer:(peer 4);
  check_int "empty group dropped" 2 (Adj_rib_out.For_tests.group_count out);
  check "membership gone" true (Adj_rib_out.group_of out ~peer:(peer 4) = None)

(* A peer re-joining with a changed key moves its handle to the new
   group, keeping what was advertised to it; the group it left survives
   while other members still use it. *)
let test_join_move_keeps_survivors_group () =
  let out = Adj_rib_out.create () in
  let h1 = Adj_rib_out.join out ~peer:(peer 1) (key Policy.To_customer) in
  ignore (Adj_rib_out.join out ~peer:(peer 2) (key Policy.To_customer));
  let g1 = Adj_rib_out.group_of out ~peer:(peer 1) in
  check "peers 1 and 2 share a group" true
    (g1 = Adj_rib_out.group_of out ~peer:(peer 2));
  let ia = base_ia () in
  Adj_rib_out.record h1 ia.Ia.prefix (Some ia);
  let f : Filters.t = fun ia -> Some ia in
  let h1' =
    Adj_rib_out.join out ~peer:(peer 1)
      { (key Policy.To_customer) with Adj_rib_out.export = f }
  in
  check "same handle" true (h1 == h1');
  check "moved to a fresh group" true
    (Adj_rib_out.group_of out ~peer:(peer 1) <> g1);
  check "advertised state kept" true (Adj_rib_out.advertised h1' ia.Ia.prefix);
  check "peer 2 still in the old group" true
    (Adj_rib_out.group_of out ~peer:(peer 2) = g1);
  check_int "both groups live" 2 (Adj_rib_out.For_tests.group_count out);
  Adj_rib_out.leave out ~peer:(peer 2);
  check_int "emptied group dropped" 1 (Adj_rib_out.For_tests.group_count out)

(* Speaker-level: same-group neighbors receive structurally identical
   IAs, computed once and fanned out. *)
let test_speaker_export_fanout () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  List.iter
    (fun n ->
      Speaker.add_neighbor s
        (Speaker.neighbor ~relationship:Policy.To_customer (peer n)))
    [ 1; 2; 3 ];
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_peer (peer 4));
  check "customers share a group" true
    (Speaker.export_group_of s (peer 1) = Speaker.export_group_of s (peer 2)
    && Speaker.export_group_of s (peer 2) = Speaker.export_group_of s (peer 3));
  check "peer relationship splits" true
    (Speaker.export_group_of s (peer 4) <> Speaker.export_group_of s (peer 1));
  let groups () =
    List.length
      (List.sort_uniq compare
         (List.map (fun n -> Speaker.export_group_of s (peer n)) [ 1; 2; 3; 4 ]))
  in
  check_int "two groups" 2 (groups ());
  let out = Speaker.originate s (base_ia ~origin:100 ()) in
  (* Local origination exports everywhere (valley-free allows it). *)
  check_int "all four neighbors served" 4 (List.length out);
  let ia_for n =
    match List.assoc_opt (peer n) out with
    | Some (Speaker.Announce ia) -> ia
    | _ -> Alcotest.fail "expected an announcement"
  in
  check "same-group IAs structurally identical" true
    (Ia.equal (ia_for 1) (ia_for 2) && Ia.equal (ia_for 2) (ia_for 3));
  (* One egress evaluation per group (a miss), served to the group's
     other members (a hit each). *)
  check_int "two members served by their group" 2
    (counter_of s "pipeline.export_cache.hits");
  check_int "one evaluation per group" 2
    (counter_of s "pipeline.export_cache.misses");
  (* Re-binding one customer with a private export filter moves it out of
     the group without disturbing the others' membership. *)
  let f : Filters.t = fun ia -> Some ia in
  Speaker.add_neighbor s
    (Speaker.neighbor ~export:f ~relationship:Policy.To_customer (peer 3));
  check "filtered customer left the group" true
    (Speaker.export_group_of s (peer 3) <> Speaker.export_group_of s (peer 1));
  check_int "three groups now" 3 (groups ());
  check "remaining pair intact" true
    (Speaker.export_group_of s (peer 1) = Speaker.export_group_of s (peer 2))

(* ------------------- batched ingestion ------------------- *)

let customers_speaker () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  List.iter
    (fun n ->
      Speaker.add_neighbor s
        (Speaker.neighbor ~relationship:Policy.To_customer (peer n)))
    [ 1; 2; 3 ];
  s

(* ------------- group-major fan-out vs a reference ------------- *)

(* The export filters neighbors draw from.  Drawing the same index twice
   shares the physical value, so two neighbors can share a group. *)
let strip_scion ia = Some (Ia.remove_protocol Protocol_id.scion ia)
let short_paths : Filters.t = fun ia -> if Ia.path_length ia > 3 then None else Some ia
let export_pool = [| Filters.accept; Filters.reject; strip_scion; short_paths |]
let relationships = [| Policy.To_customer; Policy.To_peer; Policy.To_provider |]
let me = 100
let island = Island_id.named "I"
let island_members = [ asn me; asn 101 ]

type nbr_spec = { rel : int; capable : bool; same : bool; exp : int }

(* [island_mode]: 0 none, 1 declare membership, 2 hide the interior.
   [global]: the global export filter, 0 accept, 1 strip SCION.
   [events]: (withdraw?, sender index, on-path index — out of range for
   "nobody"). *)
type scenario = {
  island_mode : int;
  global : int;
  nbrs : nbr_spec list;
  events : (bool * int * int) list;
}

let print_scenario sc =
  Printf.sprintf "island=%d global=%d nbrs=[%s] events=[%s]" sc.island_mode
    sc.global
    (String.concat "; "
       (List.map
          (fun n ->
            Printf.sprintf "rel%d cap=%b same=%b exp%d" n.rel n.capable n.same
              n.exp)
          sc.nbrs))
    (String.concat "; "
       (List.map
          (fun (w, s, o) -> Printf.sprintf "%s%d/%d" (if w then "w" else "a") s o)
          sc.events))

let gen_scenario =
  let open QCheck.Gen in
  let nbr =
    map4
      (fun rel capable same exp -> { rel; capable; same; exp })
      (int_bound 2) bool bool (int_bound 3)
  in
  int_range 2 7 >>= fun k ->
  map4
    (fun island_mode global nbrs events -> { island_mode; global; nbrs; events })
    (int_bound 2) (int_bound 1) (list_repeat k nbr)
    (list_size (int_range 1 5)
       (triple (map (fun n -> n = 0) (int_bound 3)) (int_bound (k - 1))
          (int_bound k)))

let scenario_speaker sc =
  let cfg =
    match sc.island_mode with
    | 0 ->
      Speaker.config ~global_export:export_pool.(sc.global * 2) ~asn:(asn me)
        ~addr:(Ipv4.of_octets 10 0 0 me) ()
    | mode ->
      Speaker.config ~island ~island_members ~hide_island_interior:(mode = 2)
        ~global_export:export_pool.(sc.global * 2) ~asn:(asn me)
        ~addr:(Ipv4.of_octets 10 0 0 me) ()
  in
  let s = Speaker.create cfg in
  let nbrs =
    List.mapi
      (fun i n ->
        Speaker.neighbor ~export:export_pool.(n.exp) ~dbgp_capable:n.capable
          ~same_island:n.same ~relationship:relationships.(n.rel) (peer (i + 1)))
      sc.nbrs
  in
  List.iter (Speaker.add_neighbor s) nbrs;
  (s, cfg, nbrs)

(* The group-wide half of the export decision, evaluated directly:
   valley-free, then the full stage-7 chain built afresh. *)
let reference_group_emission (cfg : Speaker.config) (chosen : Speaker.chosen)
    ~learned (n : Speaker.neighbor) =
  if not (Policy.valley_free ~learned ~to_:n.relationship) then None
  else
    let island_egress =
      match cfg.Speaker.island with
      | Some island when not n.same_island ->
        if cfg.Speaker.hide_island_interior then
          Filters.abstract_island ~island ~members:cfg.Speaker.island_members
        else Filters.declare_membership ~island ~members:cfg.Speaker.island_members
      | _ -> Filters.accept
    in
    let downgrade =
      if n.dbgp_capable then Filters.accept
      else
        Filters.compose
          (Filters.keep_only (Protocol_id.Set.singleton Protocol_id.bgp))
          (fun ia -> Some { ia with Ia.membership = [] })
    in
    Filters.chain
      [ island_egress; cfg.Speaker.global_export; n.export; downgrade ]
      chosen.Speaker.outgoing

(* The per-neighbor export decision: split-horizon and on-path, then the
   group-wide half. *)
let reference_emission (cfg : Speaker.config) (chosen : Speaker.chosen) ~learned
    (n : Speaker.neighbor) =
  let is_sender =
    match chosen.Speaker.candidate.Dbgp_core.Decision_module.from_peer with
    | Some p -> Peer.equal p n.peer
    | None -> false
  in
  let on_path =
    List.exists
      (Path_elem.mentions_asn n.peer.Peer.asn)
      chosen.Speaker.outgoing.Ia.path_vector
    && not (Asn.equal n.peer.Peer.asn cfg.Speaker.asn)
  in
  if is_sender || on_path then None
  else reference_group_emission cfg chosen ~learned n

let same_msg (p, m) (p', m') =
  Peer.equal p p'
  &&
  match (m, m') with
  | Speaker.Announce a, Speaker.Announce b -> Ia.equal a b
  | Speaker.Withdraw a, Speaker.Withdraw b -> Prefix.equal a b
  | _ -> false

let prop_group_major sc =
  let s, cfg, nbrs = scenario_speaker sc in
  let k = List.length nbrs in
  let prefix = pfx "99.0.0.0/24" in
  let announced = Hashtbl.create 8 in
  let groups =
    List.sort_uniq compare
      (List.map (fun (n : Speaker.neighbor) -> Speaker.export_group_of s n.peer) nbrs)
  in
  List.for_all
    (fun (withdraw, sender, onpath) ->
      let from = peer (sender + 1) in
      let msg =
        if withdraw then Speaker.Withdraw prefix
        else
          let origin = if onpath <> sender && onpath < k then onpath + 1 else 500 in
          Ia.originate ~prefix ~origin_asn:(asn origin)
            ~next_hop:(Ipv4.of_octets 10 0 0 (sender + 1)) ()
          |> Ia.set_path_descriptor ~owners:[ Protocol_id.scion ] ~field:"hint"
               (Dbgp_core.Value.Int origin)
          |> Ia.prepend_as (asn (sender + 1))
          |> fun ia -> Speaker.Announce ia
      in
      let changes = counter_of s "decision.changes" in
      let hits = counter_of s "pipeline.export_cache.hits" in
      let misses = counter_of s "pipeline.export_cache.misses" in
      (* Nothing recorded toward anyone before this event: if every
         group then rejects the route, the fan-out serves no member. *)
      let none_held = Hashtbl.length announced = 0 in
      let out = Speaker.receive s ~from msg in
      let dhits = counter_of s "pipeline.export_cache.hits" - hits in
      let dmisses = counter_of s "pipeline.export_cache.misses" - misses in
      if counter_of s "decision.changes" = changes then out = [] && dmisses = 0
      else
        let best = Speaker.best s prefix in
        let learned =
          match best with
          | None -> None
          | Some chosen ->
            Option.map
              (fun p ->
                (List.find (fun (m : Speaker.neighbor) -> Peer.equal m.peer p) nbrs)
                  .relationship)
              chosen.Speaker.candidate.Dbgp_core.Decision_module.from_peer
        in
        let expected =
          List.filter_map
            (fun (n : Speaker.neighbor) ->
              let o =
                match best with
                | None -> None
                | Some chosen -> reference_emission cfg chosen ~learned n
              in
              match o with
              | Some ia ->
                Hashtbl.replace announced n.peer ();
                Some (n.peer, Speaker.Announce ia)
              | None ->
                if Hashtbl.mem announced n.peer then begin
                  Hashtbl.remove announced n.peer;
                  Some (n.peer, Speaker.Withdraw prefix)
                end
                else None)
            nbrs
        in
        let quiet =
          match best with
          | None -> true
          | Some chosen ->
            none_held
            && List.for_all
                 (fun n -> reference_group_emission cfg chosen ~learned n = None)
                 nbrs
        in
        let evaluations = if best = None then 0 else List.length groups in
        List.compare_lengths out expected = 0
        && List.for_all2 same_msg out expected
        && dmisses = evaluations
        && dhits = (if quiet then 0 else k - evaluations))
    sc.events

let qcheck_group_major =
  QCheck.Test.make ~count:300 ~name:"group-major fan-out matches reference"
    (QCheck.make ~print:print_scenario gen_scenario)
    prop_group_major

(* ------------------- Adj-RIB-Out advertised state ------------------- *)

(* Advertised-state operations: [Record (peer, prefix, ia)] with [ia] an
   index into a small IA pool or [None] for a withdraw, and
   [Lost (peer, prefix)] for a message the transport dropped. *)
type out_op = Record of int * int * int option | Lost of int * int

let out_peers = List.init 3 (fun i -> peer (i + 1))
let out_prefixes = List.map pfx [ "20.0.0.0/24"; "21.0.0.0/24"; "22.0.0.0/24" ]

let out_pool =
  Array.init 3 (fun k ->
      Array.of_list
        (List.map
           (fun q -> base_ia ~prefix:(Prefix.to_string q) ~origin:(k + 1) ())
           out_prefixes))

let print_out_op = function
  | Record (i, j, None) -> Printf.sprintf "record %d %d -" i j
  | Record (i, j, Some k) -> Printf.sprintf "record %d %d ia%d" i j k
  | Lost (i, j) -> Printf.sprintf "lost %d %d" i j

(* Runs [ops] against both the Adj-RIB-Out and a reference map of
   [(out, confirmed)] per peer, comparing every accessor after every
   operation.  A record sets [(out, true)] or, for a withdraw, removes
   the entry; a loss clears [confirmed], or leaves an unconfirmed
   [None] tombstone where a withdraw already removed the entry. *)
let adj_rib_out_agrees ops =
  let rib = Adj_rib_out.create () in
  let handles =
    List.map (fun p -> Adj_rib_out.join rib ~peer:p (key Policy.To_customer)) out_peers
  in
  let same_out a b = Option.equal Ia.equal a b in
  let agrees model =
    List.for_all2
      (fun (p, h) m ->
        let entries = Prefix.Map.bindings m in
        List.for_all
          (fun q ->
            Option.equal
              (fun (o, c) (o', c') -> same_out o o' && c = c')
              (Adj_rib_out.find h q) (Prefix.Map.find_opt q m)
            && Adj_rib_out.advertised h q = Prefix.Map.mem q m)
          out_prefixes
        && List.for_all
             (fun backed ->
               List.equal Prefix.equal
                 (Adj_rib_out.unbacked h ~backed)
                 (List.filter (fun q -> not (backed q)) (List.map fst entries)))
             [ (fun _ -> false); (fun _ -> true);
               Prefix.equal (List.nth out_prefixes 1) ]
        && List.equal
             (fun (q, ia) (q', ia') -> Prefix.equal q q' && Ia.equal ia ia')
             (Adj_rib_out.bindings rib ~peer:p)
             (List.filter_map
                (fun (q, (o, _)) -> Option.map (fun ia -> (q, ia)) o)
                entries))
      (List.combine out_peers handles)
      model
    && Adj_rib_out.peers rib
       = List.filter_map
           (fun (p, m) -> if Prefix.Map.is_empty m then None else Some p)
           (List.combine out_peers model)
  in
  let step model = function
    | Record (i, j, o) ->
      let q = List.nth out_prefixes j in
      let o = Option.map (fun k -> out_pool.(k).(j)) o in
      Adj_rib_out.record (List.nth handles i) q o;
      List.mapi
        (fun i' m ->
          if i' <> i then m
          else
            match o with
            | Some _ -> Prefix.Map.add q (o, true) m
            | None -> Prefix.Map.remove q m)
        model
    | Lost (i, j) ->
      let q = List.nth out_prefixes j in
      Adj_rib_out.note_failed rib ~peer:(List.nth out_peers i) q;
      List.mapi
        (fun i' m ->
          if i' <> i then m
          else
            let o = Option.fold ~none:None ~some:fst (Prefix.Map.find_opt q m) in
            Prefix.Map.add q (o, false) m)
        model
  in
  let rec go model = function
    | [] -> true
    | op :: rest ->
      let model = step model op in
      agrees model && go model rest
  in
  go (List.map (fun _ -> Prefix.Map.empty) out_peers) ops

(* A lost withdraw leaves a tombstone that a later withdraw clears; a
   lost announcement is confirmed again by its re-record. *)
let test_adj_rib_out_tombstone_and_rerecord () =
  check "scripted sequence matches the model" true
    (adj_rib_out_agrees
       [ Record (0, 0, Some 0);
         Record (0, 0, None);
         Lost (0, 0);
         Record (0, 1, Some 1);
         Lost (0, 1);
         Record (0, 1, Some 2);
         Lost (1, 2);
         Record (0, 0, None);
         Record (1, 2, None) ]);
  let rib = Adj_rib_out.create () in
  let h = Adj_rib_out.join rib ~peer:(peer 1) (key Policy.To_customer) in
  let q = List.hd out_prefixes in
  Adj_rib_out.record h q (Some out_pool.(0).(0));
  Adj_rib_out.record h q None;
  Adj_rib_out.note_failed rib ~peer:(peer 1) q;
  check "lost withdraw leaves an unconfirmed tombstone" true
    (Adj_rib_out.find h q = Some (None, false));
  check "tombstone keeps the peer listed" true (Adj_rib_out.peers rib = [ peer 1 ]);
  Adj_rib_out.record h q (Some out_pool.(1).(0));
  Adj_rib_out.note_failed rib ~peer:(peer 1) q;
  Adj_rib_out.record h q (Some out_pool.(2).(0));
  check "re-record after a loss is confirmed" true
    (match Adj_rib_out.find h q with
     | Some (Some ia, true) -> Ia.equal ia out_pool.(2).(0)
     | _ -> false)

let qcheck_adj_rib_out_model =
  let open QCheck in
  let gen_op =
    Gen.(
      frequency
        [ ( 3,
            map3
              (fun i j o -> Record (i, j, o))
              (int_bound 2) (int_bound 2)
              (frequency [ (1, return None); (2, map Option.some (int_bound 2)) ]) );
          (2, map2 (fun i j -> Lost (i, j)) (int_bound 2) (int_bound 2)) ])
  in
  Test.make ~name:"adj-rib-out = (out, confirmed) model" ~count:500
    (make ~print:(Print.list print_out_op) Gen.(list_size (int_range 0 60) gen_op))
    adj_rib_out_agrees

(* ------------------- per-route memory guard ------------------- *)

(* Marginal heap words per prefix at a speaker whose two customers
   announce the same [n] prefixes: each prefix then holds a contested
   Adj-RIB-In slot, a Loc-RIB entry and an Adj-RIB-Out entry toward the
   losing customer.  Taking the difference of two table sizes cancels
   the speaker's fixed cost (registry, trace ring, modules). *)
let words_per_prefix () =
  let words n =
    let s =
      Speaker.create
        (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
    in
    List.iter
      (fun k ->
        Speaker.add_neighbor s
          (Speaker.neighbor ~relationship:Policy.To_customer (peer k)))
      [ 1; 2 ];
    for i = 0 to n - 1 do
      let prefix = Prefix.make (Ipv4.of_int (0x0A000000 + (i lsl 8))) 24 in
      List.iter
        (fun k ->
          let ia =
            Ia.originate ~prefix ~origin_asn:(asn k)
              ~next_hop:(Ipv4.of_octets 10 0 0 k) ()
          in
          Speaker.ingest s ~from:(peer k) (Speaker.Announce ia))
        [ 1; 2 ]
    done;
    ignore (Speaker.flush s);
    check_int "every prefix selected" n (List.length (Speaker.best_routes s));
    Obj.reachable_words (Obj.repr s)
  in
  let n1 = 2048 and n2 = 4096 in
  float_of_int (words n2 - words n1) /. float_of_int (n2 - n1)

(* The attribute table has no cap: 300,000 distinct sets, more than the
   262,144 it once stopped sharing at, all stay resident, and releasing
   them empties the table. *)
let test_attr_table_uncapped () =
  let module Attr_table = Dbgp_core.Attr_table in
  Attr_table.reset ();
  let n = 300_000 in
  let set i =
    Ia.originate ~prefix:(pfx "99.0.0.0/24") ~origin_asn:(asn 1)
      ~next_hop:(Ipv4.of_int i) ()
  in
  let entries = Array.init n (fun i -> Attr_table.share (set i)) in
  let missing = ref 0 in
  for i = 0 to n - 1 do
    if Attr_table.refcount (set i) <> Some 1 then incr missing
  done;
  check_int "every set resident with one reference" 0 !missing;
  check_int "occupancy" n (Attr_table.occupancy ());
  check "held references balance" true
    (Attr_table.audit (fun f -> Array.iter f entries) = []);
  Array.iter Attr_table.release entries;
  check "audit empty after release" true (Attr_table.audit (fun _ -> ()) = []);
  check_int "table empty" 0 (Attr_table.occupancy ())

let test_words_per_prefix () =
  let w = words_per_prefix () in
  (* Measured at 41.5 words; a field added to an entry of any of the
     three stages costs at least one more word per prefix. *)
  if w > 42.0 then
    Alcotest.failf "%.2f words per prefix, above the 42.0 guard" w

(* ------------------- attribute-set refcounts ------------------- *)

(* Every resident attribute set's refcount equals the references the
   speaker's stores hold, after every step of a random sequence of
   announces (new, replacing, duplicate, looped), withdraws,
   originations, teardowns, graceful restarts and restart-window
   closes.  Peer 3's import filter rewrites what it selects, so the
   Loc-RIB also holds sets that no Adj-RIB-In route does. *)
type refcount_op =
  | Rc_announce of int * int * int * bool (* peer, prefix, set, via the wire *)
  | Rc_looped of int * int
  | Rc_withdraw of int * int
  | Rc_originate of int * int
  | Rc_stop_origin of int
  | Rc_peer_down of int
  | Rc_remove of int
  | Rc_graceful of int
  | Rc_flush_stale of int

let print_refcount_op = function
  | Rc_announce (p, q, k, w) -> Printf.sprintf "announce p%d q%d set%d%s" p q k (if w then " wire" else "")
  | Rc_looped (p, q) -> Printf.sprintf "looped p%d q%d" p q
  | Rc_withdraw (p, q) -> Printf.sprintf "withdraw p%d q%d" p q
  | Rc_originate (q, k) -> Printf.sprintf "originate q%d set%d" q k
  | Rc_stop_origin q -> Printf.sprintf "stop-origin q%d" q
  | Rc_peer_down p -> Printf.sprintf "peer-down p%d" p
  | Rc_remove p -> Printf.sprintf "remove p%d" p
  | Rc_graceful p -> Printf.sprintf "graceful p%d" p
  | Rc_flush_stale p -> Printf.sprintf "flush-stale p%d" p

let qcheck_refcounts =
  let open QCheck in
  let prefixes = Array.map pfx [| "1.0.0.0/8"; "2.0.0.0/8"; "3.0.0.0/8" |] in
  let rc_peer i = peer (i + 1) in
  let gen_op =
    Gen.(
      let p = int_bound 2 and q = int_bound 2 and k = int_bound 3 in
      frequency
        [ (8, map (fun (p, q, (k, w)) -> Rc_announce (p, q, k, w)) (triple p q (pair k bool)));
          (1, map2 (fun p q -> Rc_looped (p, q)) p q);
          (3, map2 (fun p q -> Rc_withdraw (p, q)) p q);
          (2, map2 (fun q k -> Rc_originate (q, k)) q k);
          (1, map (fun q -> Rc_stop_origin q) q);
          (1, map (fun p -> Rc_peer_down p) p);
          (1, map (fun p -> Rc_remove p) p);
          (1, map (fun p -> Rc_graceful p) p);
          (1, map (fun p -> Rc_flush_stale p) p) ])
  in
  let add s i =
    let import =
      if i = 2 then Filters.prepend_as (asn 99) else Filters.accept
    in
    Speaker.add_neighbor s
      (Speaker.neighbor ~import ~relationship:Policy.To_customer (rc_peer i))
  in
  (* Set [k] as announced by peer [i]: four distinct paths, each shared
     by every prefix that carries it. *)
  let announced i q k =
    Ia.originate ~prefix:prefixes.(q) ~origin_asn:(asn (50 + k))
      ~next_hop:(Ipv4.of_octets 10 0 0 (i + 1)) ()
    |> Ia.prepend_as (asn (i + 1))
  in
  Test.make ~name:"refcounts = stored references" ~count:300
    (make ~print:(Print.list print_refcount_op) Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      Dbgp_core.Attr_table.reset ();
      let s =
        Speaker.create (Speaker.config ~asn:(asn 10) ~addr:(Ipv4.of_octets 10 0 0 10) ())
      in
      for i = 0 to 2 do add s i done;
      let step = function
        | Rc_announce (i, q, k, wire) ->
          let ia = announced i q k in
          if wire then
            ignore
              (Speaker.receive_wire s ~from:(rc_peer i) Dbgp_core.Codec.Announce
                 (Dbgp_core.Codec.encode ia))
          else ignore (Speaker.receive s ~from:(rc_peer i) (Speaker.Announce ia))
        | Rc_looped (i, q) ->
          ignore
            (Speaker.receive s ~from:(rc_peer i)
               (Speaker.Announce (Ia.prepend_as (asn 10) (announced i q 0))))
        | Rc_withdraw (i, q) ->
          ignore (Speaker.receive s ~from:(rc_peer i) (Speaker.Withdraw prefixes.(q)))
        | Rc_originate (q, k) ->
          ignore
            (Speaker.originate s
               (Ia.originate ~prefix:prefixes.(q) ~origin_asn:(asn 10)
                  ~next_hop:(Ipv4.of_int k) ()))
        | Rc_stop_origin q -> ignore (Speaker.withdraw_origin s prefixes.(q))
        | Rc_peer_down i ->
          ignore (Speaker.peer_down s (rc_peer i));
          add s i
        | Rc_remove i ->
          ignore (Speaker.remove_neighbor s (rc_peer i));
          add s i
        | Rc_graceful i -> Speaker.peer_down_graceful s (rc_peer i)
        | Rc_flush_stale i -> ignore (Speaker.flush_stale s (rc_peer i))
      in
      let balanced () = Invariants.refcounts [ s ] = [] in
      let ok = List.for_all (fun op -> step op; balanced ()) ops in
      (* Tearing everything down returns every reference. *)
      for i = 0 to 2 do ignore (Speaker.remove_neighbor s (rc_peer i)) done;
      Array.iter (fun q -> ignore (Speaker.withdraw_origin s q)) prefixes;
      ok && balanced () && Dbgp_core.Attr_table.occupancy () = 0)

(* ------------------- Adj-RIB-Out handle lifetime ------------------- *)

let msgs_to p out = List.filter_map (fun (q, m) -> if Peer.equal p q then Some m else None) out

let test_readd_follows_new_filter () =
  let s = customers_speaker () in
  let a = base_ia ~origin:me ~prefix:"20.0.0.0/24" () in
  ignore (Speaker.originate s a);
  let old_group = Speaker.export_group_of s (peer 2) in
  Speaker.add_neighbor s
    (Speaker.neighbor ~export:(Filters.prepend_as (asn 77))
       ~relationship:Policy.To_customer (peer 2));
  check "moved to a new group" true
    (Speaker.export_group_of s (peer 2) <> old_group
    && Speaker.export_group_of s (peer 1) = old_group);
  check "advertised state survives the move" true
    (List.length (Speaker.adj_out s (peer 2)) = 1);
  let out = Speaker.originate s (base_ia ~origin:me ~prefix:"21.0.0.0/24" ()) in
  let path_of p =
    match msgs_to (peer p) out with
    | [ Speaker.Announce ia ] -> Ia.asns_on_path ia
    | _ -> Alcotest.fail "expected one announcement"
  in
  check "new filter applied" true (List.mem (asn 77) (path_of 2));
  check "old group unaffected" false (List.mem (asn 77) (path_of 1))

let test_peer_down_readd_empty () =
  let s = customers_speaker () in
  ignore (Speaker.originate s (base_ia ~origin:me ~prefix:"20.0.0.0/24" ()));
  check "announced" true (Speaker.adj_out s (peer 2) <> []);
  ignore (Speaker.peer_down s (peer 2));
  check "nothing left after peer_down" true
    (Speaker.adj_out s (peer 2) = []
    && not (List.exists (Peer.equal (peer 2)) (Speaker.adj_out_peers s)));
  (* A message that was in flight when the session died is reported
     lost afterwards: the peer holds nothing from us, so it leaves no
     trace. *)
  Speaker.note_undelivered s (peer 2) (pfx "20.0.0.0/24");
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 2));
  check "re-added neighbor starts empty" true (Speaker.adj_out s (peer 2) = []);
  let out, next = Speaker.sync_peer s (peer 2) in
  check "sync is a full send" true
    (next = None
    && counter_of s "sync.skipped" = 0
    && match out with [ (p, Speaker.Announce _) ] -> Peer.equal p (peer 2) | _ -> false)

let test_group_flip_withdraws_once () =
  let s =
    Speaker.create (Speaker.config ~asn:(asn me) ~addr:(Ipv4.of_octets 10 0 0 me) ())
  in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  List.iter
    (fun n -> Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_peer (peer n)))
    [ 2; 3; 4 ];
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider (peer 5));
  let prefix = "30.0.0.0/24" in
  let via_provider =
    base_ia ~prefix ~origin:50 ()
    |> Ia.prepend_as (asn 9) |> Ia.prepend_as (asn 8) |> Ia.prepend_as (asn 5)
  in
  let out = Speaker.receive s ~from:(peer 5) (Speaker.Announce via_provider) in
  check "provider route not exported to peers" true
    (List.for_all (fun n -> msgs_to (peer n) out = []) [ 2; 3; 4 ]);
  (* The customer route crosses peer 4, so peer 4 is never sent it. *)
  let via_customer = base_ia ~prefix ~origin:4 () |> Ia.prepend_as (asn 1) in
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Announce via_customer) in
  check "customer route selected" true
    (match Speaker.best s (pfx prefix) with
     | Some c -> c.Speaker.candidate.Dbgp_core.Decision_module.from_peer = Some (peer 1)
     | None -> false);
  check "peers 2 and 3 announced, on-path peer 4 not" true
    (List.length (msgs_to (peer 2) out) = 1
    && List.length (msgs_to (peer 3) out) = 1
    && msgs_to (peer 4) out = []);
  (* The customer withdraws: the provider route wins again and the peer
     group's evaluation flips from accept to reject. *)
  let out = Speaker.receive s ~from:(peer 1) (Speaker.Withdraw (pfx prefix)) in
  check "one withdraw per announced member" true
    (msgs_to (peer 2) out = [ Speaker.Withdraw (pfx prefix) ]
    && msgs_to (peer 3) out = [ Speaker.Withdraw (pfx prefix) ]);
  check "never-announced member gets nothing" true (msgs_to (peer 4) out = [])

let test_orphan_adj_out_check () =
  let s = customers_speaker () in
  ignore (Speaker.originate s (base_ia ~origin:me ~prefix:"20.0.0.0/24" ()));
  (* The teardown check sees both halves of a live neighbor's handle:
     its advertised table and its group membership. *)
  check "live handle flagged twice" true
    (Invariants.peer_clean s (peer 2)
    = [ Invariants.Orphan_adj_out (me, 2); Invariants.Orphan_adj_out (me, 2) ]);
  ignore (Speaker.remove_neighbor s (peer 2));
  Speaker.note_undelivered s (peer 2) (pfx "20.0.0.0/24");
  check "clean after removal and a late drop" true
    (Invariants.peer_clean s (peer 2) = [])

let test_ingest_flush_coalesces () =
  let s = customers_speaker () in
  (* Three announcements for the same prefix arrive within one batch:
     one decision run at the drain, two runs saved. *)
  List.iter
    (fun n ->
      Speaker.ingest s ~from:(peer n)
        (Speaker.Announce (base_ia ~origin:n ())))
    [ 1; 2; 3 ];
  check_int "one dirty prefix" 1 (Speaker.pending s);
  check_int "no decision yet" 0 (counter_of s "decision.runs");
  let out = Speaker.flush s in
  check_int "single decision run" 1 (counter_of s "decision.runs");
  check_int "two runs saved" 2 (counter_of s "pipeline.runs_saved");
  check_int "drained" 0 (Speaker.pending s);
  check "best chosen" true (Speaker.best s (pfx "99.0.0.0/24") <> None);
  check "emitted" true (out <> []);
  (* The equivalent eager replay runs the decision process thrice but
     lands on the same best route. *)
  let e = customers_speaker () in
  List.iter
    (fun n ->
      ignore
        (Speaker.receive e ~from:(peer n)
           (Speaker.Announce (base_ia ~origin:n ()))))
    [ 1; 2; 3 ];
  check_int "eager runs thrice" 3 (counter_of e "decision.runs");
  check "same final best" true
    (match
       ( Speaker.best s (pfx "99.0.0.0/24"),
         Speaker.best e (pfx "99.0.0.0/24") )
     with
    | Some a, Some b ->
      Ia.equal a.Speaker.outgoing b.Speaker.outgoing
      && a.Speaker.candidate.Dbgp_core.Decision_module.from_peer
         = b.Speaker.candidate.Dbgp_core.Decision_module.from_peer
    | _ -> false)

(* ------------------- teardown cleanliness ------------------- *)

let damp_params =
  { Damping.half_life = 1.;
    suppress_threshold = 1500.;
    reuse_threshold = 500.;
    withdraw_penalty = 1000.;
    attr_change_penalty = 500.;
    max_penalty = 4000. }

(* One noisy neighbor leaving fingerprints in every stage: Adj-RIB-In
   routes, Adj-RIB-Out advertisements, stale marks (graceful down) and
   flap-damping memory (one withdraw). *)
let noisy_speaker () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  Speaker.set_damping s (Some damp_params);
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer (peer 2));
  let ia n p = base_ia ~prefix:p ~origin:n () in
  ignore
    (Speaker.receive ~now:0. s ~from:(peer 1)
       (Speaker.Announce (ia 1 "20.0.0.0/24")));
  ignore
    (Speaker.receive ~now:0.1 s ~from:(peer 1)
       (Speaker.Withdraw (pfx "20.0.0.0/24")));
  ignore
    (Speaker.receive ~now:5. s ~from:(peer 1)
       (Speaker.Announce (ia 1 "20.0.0.0/24")));
  ignore
    (Speaker.receive ~now:5. s ~from:(peer 2)
       (Speaker.Announce (ia 2 "21.0.0.0/24")));
  Speaker.peer_down_graceful ~now:6. s (peer 1);
  s

let test_remove_neighbor_clean () =
  let s = noisy_speaker () in
  check "flap state built" true (Speaker.has_flap_state s (peer 1));
  check "stale marks built" true (Speaker.has_stale s (peer 1));
  check "still advertised meanwhile" true (Speaker.has_adj_in s (peer 1));
  let out = Speaker.remove_neighbor ~now:7. s (peer 1) in
  (* The removed peer's route was advertised to peer 2; removal must
     withdraw it there. *)
  check "withdrawal emitted" true
    (List.exists
       (fun (p, m) ->
         Peer.equal p (peer 2) && m = Speaker.Withdraw (pfx "20.0.0.0/24"))
       out);
  check "peer fully erased" true (Invariants.peer_clean s (peer 1) = []);
  check "survivor untouched" true
    (Speaker.best s (pfx "21.0.0.0/24") <> None
    && Speaker.has_neighbor s (peer 2));
  check "removed route gone" true (Speaker.best s (pfx "20.0.0.0/24") = None)

let test_peer_down_keeps_damping () =
  let s = noisy_speaker () in
  ignore (Speaker.peer_down ~now:7. s (peer 1));
  (* Session loss: damping memory deliberately survives — a flapping link
     must not reset its own penalties... *)
  check "flap state retained" true (Speaker.has_flap_state s (peer 1));
  check "routes gone" false (Speaker.has_adj_in s (peer 1));
  check "only the flap orphan remains" true
    (Invariants.peer_clean s (peer 1) = [ Invariants.Orphan_flap (100, 1) ]);
  (* ...and only administrative removal erases it. *)
  ignore (Speaker.remove_neighbor ~now:8. s (peer 1));
  check "clean after removal" true (Invariants.peer_clean s (peer 1) = [])

let test_network_unlink_clean () =
  let net = Network.create () in
  List.iter (fun n -> ignore (Harness.add_as net n)) [ 1; 2; 3 ];
  Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:Policy.To_provider ();
  Network.link net ~a:(asn 2) ~b:(asn 3) ~b_is:Policy.To_customer ();
  Network.originate net (asn 1)
    (Ia.originate ~prefix:(pfx "99.0.0.0/24") ~origin_asn:(asn 1)
       ~next_hop:(Network.speaker_addr (asn 1)) ());
  ignore (Network.run net);
  check "3 learned via 2" true
    (Speaker.best (Network.speaker net (asn 3)) (pfx "99.0.0.0/24") <> None);
  Network.unlink net (asn 2) (asn 3);
  ignore (Network.run net);
  let s2 = Network.speaker net (asn 2) and s3 = Network.speaker net (asn 3) in
  check "both sides clean" true
    (Invariants.peer_clean s2 (Network.peer_of net (asn 3)) = []
    && Invariants.peer_clean s3 (Network.peer_of net (asn 2)) = []);
  check "route gone at 3" true
    (Speaker.best s3 (pfx "99.0.0.0/24") = None);
  check "no orphans network-wide" true
    (Invariants.ok
       (Invariants.check ~prefix:(pfx "99.0.0.0/24") ~dest:(ip "99.0.0.1")
          net));
  check "unlink is permanent" true
    (match Network.recover_link net (asn 2) (asn 3) with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------------- batched network path ---------------- *)

(* The same seeded topology converged eagerly (MRAI 0) and batched
   (MRAI 2) must agree on every speaker's best route and FIB next hop,
   while the batched run demonstrably coalesces decision work. *)
let test_batched_network_equivalence () =
  let build () =
    let rng = Prng.create 7 in
    let g = Brite.generate rng { Brite.default with Brite.n = 40 } in
    let net = Network.create () in
    for i = 0 to Graph.size g - 1 do
      ignore (Harness.add_as net (i + 1))
    done;
    Graph.fold_edges
      (fun a b view () ->
        let rel =
          match view with
          | Graph.Customer_of_me -> Policy.To_customer
          | Graph.Provider_of_me -> Policy.To_provider
          | Graph.Peer_of_me -> Policy.To_peer
        in
        Network.link net ~a:(asn (a + 1)) ~b:(asn (b + 1)) ~b_is:rel ())
      g ();
    net
  in
  let converge mrai =
    let net = build () in
    Network.set_mrai net mrai;
    for i = 0 to 2 do
      let prefix = pfx (Printf.sprintf "99.%d.0.0/24" i) in
      Network.originate net
        (asn (1 + i))
        (Ia.originate ~prefix ~origin_asn:(asn (1 + i))
           ~next_hop:(Network.speaker_addr (asn (1 + i))) ())
    done;
    ignore (Network.run net);
    net
  in
  let eager = converge 0. and batched = converge 2.0 in
  let state net =
    List.map
      (fun a ->
        let s = Network.speaker net a in
        List.map
          (fun (p, (c : Speaker.chosen)) ->
            ( Prefix.to_string p,
              c.Speaker.candidate.Dbgp_core.Decision_module.from_peer,
              Speaker.next_hop_of s (Prefix.network p) ))
          (Speaker.best_routes s))
      (Network.asns net)
  in
  check "identical best routes and FIB" true (state eager = state batched);
  let total net name = Network.counter_total net name in
  let updates net =
    total net "updates.received" + total net "withdrawals.received"
  in
  check "batched saved runs" true (total batched "pipeline.runs_saved" > 0);
  check_int "eager saved none" 0 (total eager "pipeline.runs_saved");
  check "batched coalesced below run-per-update" true
    (total batched "decision.runs" < updates batched)

(* ---------------- session re-establishment ---------------- *)

let feed_net n =
  let net = Network.create () in
  List.iter (fun i -> ignore (Harness.add_as net i)) [ 1; 2 ];
  Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:Policy.To_provider ();
  for i = 0 to n - 1 do
    Network.originate net (asn 1)
      (Ia.originate
         ~prefix:(pfx (Printf.sprintf "99.%d.0.0/24" i))
         ~origin_asn:(asn 1)
         ~next_hop:(Network.speaker_addr (asn 1)) ())
  done;
  ignore (Network.run net);
  net

let messages net =
  Metrics.count (Metrics.counter (Network.metrics net) "net.messages")

let table_at net a n =
  List.for_all
    (fun i ->
      Speaker.best (Network.speaker net (asn a))
        (pfx (Printf.sprintf "99.%d.0.0/24" i))
      <> None)
    (List.init n Fun.id)

(* The tentpole bugfix: a clean down/up inside the graceful window must
   NOT re-announce the full table — the streamed incremental sync skips
   every route whose confirmed Adj-RIB-Out record already matches. *)
let test_reestablish_incremental () =
  let n = 40 in
  (* Control arm: without graceful restart the bounce re-sends the whole
     table (the legacy storm). *)
  let net = feed_net n in
  Network.fail_link net (asn 1) (asn 2);
  ignore (Network.run net);
  let m0 = messages net in
  Network.recover_link net (asn 1) (asn 2);
  ignore (Network.run net);
  let storm = messages net - m0 in
  check "storm re-sends the table" true (storm >= n);
  (* Fixed arm: graceful down/up, nothing changed meanwhile. *)
  let net = feed_net n in
  Network.set_graceful_restart net (Some 50.);
  Network.fail_link net (asn 1) (asn 2);
  let m0 = messages net in
  let sk0 = Network.counter_total net "sync.skipped" in
  let sent0 = Network.counter_total net "sync.sent" in
  Network.recover_link net (asn 1) (asn 2);
  ignore (Network.run net);
  let resent = messages net - m0 in
  check "incremental sync sends almost nothing" true (resent <= 2);
  check "whole table skipped" true
    (Network.counter_total net "sync.skipped" - sk0 >= n);
  check_int "nothing streamed" sent0 (Network.counter_total net "sync.sent");
  check "table intact at the receiver" true (table_at net 2 n);
  check_int "no stale routes left" 0 (Network.stale_total net)

(* Graceful re-establish under churn: routes that changed while the
   session was down are re-sent exactly once; the rest are retained by
   the End-of-RIB without being flushed or re-sent (no double-send, no
   wrongful flush from the cancelled restart timer). *)
let test_restart_under_churn () =
  let n = 20 and extra = 3 in
  let net = feed_net n in
  Network.set_graceful_restart net (Some 100.);
  let q = Network.queue net in
  Network.fail_link net (asn 1) (asn 2);
  (* New routes appear while the session is down: their announcements
     die on the cut link, demoting the Adj-RIB-Out records. *)
  for i = n to n + extra - 1 do
    Network.originate net (asn 1)
      (Ia.originate
         ~prefix:(pfx (Printf.sprintf "99.%d.0.0/24" i))
         ~origin_asn:(asn 1)
         ~next_hop:(Network.speaker_addr (asn 1)) ())
  done;
  let m0 = messages net in
  let u0 = Network.counter_total net "updates.received" in
  let ret0 = Network.counter_total net "restart.retained" in
  Event_queue.schedule q ~delay:5. (fun () ->
      Network.recover_link net (asn 1) (asn 2));
  ignore (Network.run net);
  (* Exactly the churned slice travels... *)
  check "only changed routes re-sent" true (messages net - m0 <= extra + 1);
  check_int "each delivered exactly once" extra
    (Network.counter_total net "updates.received" - u0);
  (* ...the unchanged table is retained by the End-of-RIB... *)
  check "unchanged routes retained, not re-sent" true
    (Network.counter_total net "restart.retained" - ret0 >= n);
  check "full table present" true (table_at net 2 (n + extra));
  (* ...and the cancelled restart timer never flushes anything, even
     after simulated time passes the original window. *)
  check_int "no stale routes left" 0 (Network.stale_total net)

(* ----------- costs that follow the change, not the table ----------- *)

(* The [i]-th /24 above 0.0.0.0. *)
let nth_prefix i = Prefix.make (Ipv4.of_int ((i + 1) lsl 8)) 24

(* [sender]'s announcement of [prefix], originated by [origin]. *)
let relayed ?(origin = 500) sender prefix =
  Speaker.Announce
    ( Ia.originate ~prefix ~origin_asn:(asn origin)
        ~next_hop:(Ipv4.of_octets 10 0 0 sender) ()
    |> Ia.prepend_as (asn sender) )

(* A speaker whose nine neighbors, in three groups, all export nothing
   pays one evaluation per group per route and serves no member.  Once
   a neighbor holds a record the fan-out must reach it again: a changed
   route and a withdrawal each take back what it holds, from it alone. *)
let test_quiet_speaker_costs_groups () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  let rel n =
    if n <= 3 then Policy.To_customer
    else if n <= 6 then Policy.To_peer
    else Policy.To_provider
  in
  let quiet n =
    Speaker.neighbor ~export:Filters.reject ~relationship:(rel n) (peer n)
  in
  let members = List.init 9 (fun i -> i + 1) in
  List.iter (fun n -> Speaker.add_neighbor s (quiet n)) members;
  check_int "three groups" 3
    (List.length
       (List.sort_uniq compare
          (List.map (fun n -> Speaker.export_group_of s (peer n)) members)));
  let hits () = counter_of s "pipeline.export_cache.hits"
  and misses () = counter_of s "pipeline.export_cache.misses" in
  let k = 40 in
  let out =
    List.concat_map
      (fun i -> Speaker.receive s ~from:(peer 1) (relayed 1 (nth_prefix i)))
      (List.init k Fun.id)
  in
  check "nothing sent" true (out = []);
  check_int "one evaluation per group per route" (3 * k) (misses ());
  check_int "no member served" 0 (hits ());
  (* Peer 5 starts exporting: it alone is announced to, and the fan-out
     counts as before — one evaluation per group, the other members
     served by it. *)
  let p = nth_prefix k and q = nth_prefix (k + 1) in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_peer (peer 5));
  let m0 = misses () and h0 = hits () in
  let out_p = Speaker.receive s ~from:(peer 1) (relayed 1 p) in
  check_int "four groups evaluated" 4 (misses () - m0);
  check_int "five members served by them" 5 (hits () - h0);
  let out = out_p @ Speaker.receive s ~from:(peer 1) (relayed 1 q) in
  check "peer 5 alone announced to" true
    ( match out with
      | [ (a, Speaker.Announce x); (b, Speaker.Announce y) ] ->
        Peer.equal a (peer 5) && Peer.equal b (peer 5)
        && Prefix.equal x.Ia.prefix p && Prefix.equal y.Ia.prefix q
      | _ -> false );
  (* Back to rejecting, peer 5 still holds [p] and [q]. *)
  Speaker.add_neighbor s (quiet 5);
  check "changed route withdrawn from peer 5 alone" true
    (Speaker.receive s ~from:(peer 1) (relayed ~origin:501 1 p)
    = [ (peer 5, Speaker.Withdraw p) ]);
  check "withdrawal reaches peer 5 alone" true
    (Speaker.receive s ~from:(peer 1) (Speaker.Withdraw q)
    = [ (peer 5, Speaker.Withdraw q) ]);
  (* Nothing is held any more: quiet again. *)
  let m0 = misses () and h0 = hits () in
  check "quiet again" true
    (Speaker.receive s ~from:(peer 1) (relayed 1 (nth_prefix (k + 2))) = []);
  check_int "quiet again: one evaluation per group" 3 (misses () - m0);
  check_int "quiet again: no member served" 0 (hits () - h0)

(* A sync toward a peer holding confirmed records (skipped), an
   unconfirmed record (re-sent), a tombstone for a prefix the Loc-RIB
   still routes (withdrawn by the walk) and tombstones for prefixes it
   no longer routes (withdrawn by the tail, ascending, though they were
   recorded descending). *)
let test_sync_tail_withdraws_unbacked () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  let f = peer 1 and t = peer 2 and up = peer 3 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer f);
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_peer t);
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_provider up);
  let a = nth_prefix 0 and b = nth_prefix 1 and c = nth_prefix 2
  and x = nth_prefix 3 in
  let unbacked = List.init 20 (fun i -> nth_prefix (10 + i)) in
  let rx from m = ignore (Speaker.receive s ~from m) in
  List.iter (fun q -> rx f (relayed 1 q)) ([ a; b; c; x ] @ unbacked);
  (* [b] changes and the announcement is lost: unconfirmed. *)
  rx f (relayed ~origin:501 1 b);
  Speaker.note_undelivered s t b;
  (* The withdrawals of the unbacked prefixes are lost: tombstones. *)
  List.iter
    (fun q ->
      rx f (Speaker.Withdraw q);
      Speaker.note_undelivered s t q)
    (List.rev unbacked);
  (* [x] moves to a provider route, which is not exported to a peer;
     both withdrawals toward [t] are lost. *)
  rx f (Speaker.Withdraw x);
  Speaker.note_undelivered s t x;
  rx up (relayed 3 x);
  Speaker.note_undelivered s t x;
  let w0 = counter_of s "sync.withdrawn" in
  let out, next = Speaker.sync_peer s t in
  check "complete" true (next = None);
  let shape =
    List.map
      (function
        | p, Speaker.Announce ia when Peer.equal p t -> `A ia.Ia.prefix
        | p, Speaker.Withdraw q when Peer.equal p t -> `W q
        | _ -> `Other)
      out
  in
  check "re-send, walk withdraw, then the tail ascending" true
    (shape = (`A b :: `W x :: List.map (fun q -> `W q) unbacked));
  check_int "sync.withdrawn" 21 (counter_of s "sync.withdrawn" - w0);
  check_int "sync.skipped" 2 (counter_of s "sync.skipped");
  check "nothing left to send" true (fst (Speaker.sync_peer s t) = [])

(* End-of-RIB keeps the routes, returns the number of marks left and
   counts them under restart.retained; no mark survives it. *)
let test_end_of_rib_counts_marks () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(asn 100) ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  let f = peer 1 in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer f);
  let n = 40 in
  let ps = List.init n nth_prefix in
  List.iter (fun q -> ignore (Speaker.receive s ~from:f (relayed 1 q))) ps;
  Speaker.peer_down_graceful s f;
  check_int "all marked" n (Speaker.stale_count s);
  (* A refreshed route is no longer stale. *)
  ignore (Speaker.receive s ~from:f (relayed 1 (List.hd ps)));
  check_int "end_of_rib returns the marks left" (n - 1) (Speaker.end_of_rib s f);
  check_int "restart.retained" (n - 1) (counter_of s "restart.retained");
  check "no marks behind" true (Speaker.stale_count s = 0 && not (Speaker.has_stale s f));
  check "routes kept" true (List.for_all (fun q -> Speaker.best s q <> None) ps);
  check_int "a second end_of_rib finds none" 0 (Speaker.end_of_rib s f);
  check_int "restart.retained unchanged" (n - 1) (counter_of s "restart.retained")

(* A drain after a 50,000-mark drain processes only what was marked
   since, and marks made inside [f] land in the next drain. *)
let test_pipeline_drain_after_full_table () =
  let obs = Metrics.create () in
  let sched = Pipeline.create obs in
  let n = 50_000 in
  for i = 0 to n - 1 do
    let j = i * 7919 mod n in
    Pipeline.mark sched (nth_prefix j);
    if j mod 10 = 0 then Pipeline.mark sched (nth_prefix j)
  done;
  check_int "coalesced" n (Pipeline.pending sched);
  let remark = nth_prefix 3 in
  let seen = ref 0 and last = ref (-1) and ascending = ref true in
  let out =
    Pipeline.drain sched ~f:(fun p ->
        if Prefix.to_int p <= !last then ascending := false;
        last := Prefix.to_int p;
        incr seen;
        if Prefix.equal p remark then Pipeline.mark sched remark;
        [])
  in
  check "each prefix once, ascending" true (out = [] && !seen = n && !ascending);
  check_int "the mark made inside f is pending" 1 (Pipeline.pending sched);
  check "next drain: that mark alone" true
    (Pipeline.drain sched ~f:(fun p -> [ p ]) = [ remark ]);
  Pipeline.mark sched (nth_prefix 42);
  check "a 1-mark drain processes only its prefix" true
    (Pipeline.drain sched ~f:(fun p -> [ p ]) = [ nth_prefix 42 ]);
  check_int "three drains" 3 (Metrics.count (Metrics.counter obs "pipeline.drains"))

(* A Loc-RIB large enough for the radix rebuild of its key view walks in
   ascending order, prefixes of every length and the extremes included,
   before and after removals and a second wholesale rebuild. *)
let test_loc_rib_full_rebuild_order () =
  let rib = Loc_rib.create () in
  let rng = Random.State.make [| 7 |] in
  let random_prefix () =
    let a = (Random.State.bits rng lsl 2) lxor Random.State.bits rng in
    Prefix.make (Ipv4.of_int (a land 0xFFFF_FFFF)) (Random.State.int rng 33)
  in
  let model = ref Prefix.Set.empty in
  let add p =
    Loc_rib.set rib p ();
    model := Prefix.Set.add p !model
  in
  add (pfx "0.0.0.0/0");
  add (pfx "255.255.255.255/32");
  for _ = 1 to 20_000 do add (random_prefix ()) done;
  let agrees () =
    List.map fst (Loc_rib.bindings rib) = Prefix.Set.elements !model
  in
  check "first rebuild ascending" true (agrees ());
  Prefix.Set.iter
    (fun p ->
      if Random.State.int rng 3 = 0 then begin
        Loc_rib.remove rib p;
        model := Prefix.Set.remove p !model
      end)
    !model;
  check "after removals" true (agrees ());
  for _ = 1 to 30_000 do add (random_prefix ()) done;
  check "second rebuild ascending" true (agrees ())

(* ------------- set-major ingress and decision reuse ------------- *)

module Codec = Dbgp_core.Codec

(* A non-stock filter that changes nothing: installed as global and
   neighbor import, it sends every route through the per-route ingress
   and every decision run through the full path. *)
let identity : Filters.t = fun ia -> Some ia

let reuse_speaker ?(import = Filters.accept) () =
  let s =
    Speaker.create
      (Speaker.config ~global_import:import ~asn:(asn 100)
         ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  List.iter
    (fun n ->
      Speaker.add_neighbor s (Speaker.neighbor ~import ~relationship:Policy.To_customer (peer n)))
    [ 1; 2; 3; 4 ];
  s

(* [sender]'s routes to [prefixes], all carrying one set that [origin]
   originated — or, [looped], a path that passes [sender] twice. *)
let routes ?(looped = false) sender origin prefixes =
  Codec.Routes
    (List.map
       (fun prefix ->
         let ia =
           Ia.originate ~prefix ~origin_asn:(asn (if looped then sender else origin))
             ~next_hop:(Ipv4.of_octets 10 0 0 sender) ()
         in
         (if looped then Ia.prepend_as (asn 900) ia else ia) |> Ia.prepend_as (asn sender))
       prefixes)

let deliver ?(defer = false) s sender frame =
  snd
    (Speaker.receive_wire ~defer s ~from:(peer sender) (Codec.layout frame)
       (Codec.encode_frame frame))

let same_out a b =
  List.equal
    (fun (p, m) (q, n) ->
      Peer.equal p q
      &&
      match (m, n) with
      | Speaker.Announce x, Speaker.Announce y -> Ia.equal x y
      | Speaker.Withdraw x, Speaker.Withdraw y -> Prefix.equal x y
      | _ -> false)
    a b

let same_loc a b =
  List.equal
    (fun (p, (c : Speaker.chosen)) (q, (d : Speaker.chosen)) ->
      Prefix.equal p q
      && Option.equal Peer.equal c.Speaker.candidate.Dm.from_peer
           d.Speaker.candidate.Dm.from_peer
      && Ia.equal c.Speaker.candidate.Dm.ia d.Speaker.candidate.Dm.ia
      && Ia.equal c.Speaker.outgoing d.Speaker.outgoing)
    (Speaker.best_routes a) (Speaker.best_routes b)

(* Every counter but the one that tells the two paths apart. *)
let counters s =
  List.filter (fun (n, _) -> n <> "decision.reused") (Metrics.counters (Speaker.metrics s))

(* Identical frames into a stock speaker and one whose identity imports
   force the full path: shared sets, rows that diverge mid-drain,
   duplicates, a looped set rejecting whole frames and replacing routes,
   withdraws, a local origination.  Nothing observable may differ. *)
let test_reuse_differential () =
  Dbgp_core.Attr_table.reset ();
  let fast = reuse_speaker () and full = reuse_speaker ~import:identity () in
  let ps = List.init 8 nth_prefix in
  let sub i j = List.filteri (fun k _ -> k >= i && k <= j) ps in
  let frame ?(defer = false) sender frame s =
    let out = deliver ~defer s sender frame in
    if defer then out @ Speaker.flush s else out
  in
  (* A shared-set frame to fresh prefixes and an origination of its
     lowest, drained together: the lowest run selects the local route,
     and the next, with the same row, must not take it. *)
  let fresh = List.init 3 (fun i -> nth_prefix (8 + i)) in
  let originated s =
    let learned = deliver ~defer:true s 1 (routes 1 502 fresh) in
    learned
    @ Speaker.originate s
        (Ia.originate ~prefix:(List.hd fresh) ~origin_asn:(asn 100)
           ~next_hop:(Ipv4.of_octets 10 0 0 100) ())
  in
  let steps =
    [ ("shared set", frame ~defer:true 1 (routes 1 500 ps));
      ("second peer on a middle run", frame 2 (routes 2 600 (sub 2 4)));
      ("duplicate frame", frame 1 (routes 1 500 ps));
      ("third peer", frame ~defer:true 3 (routes 3 700 (sub 5 7)));
      ("looped frame", frame ~defer:true 3 (routes ~looped:true 3 0 (sub 0 0 @ sub 6 7)));
      ("withdraws", frame ~defer:true 2 (Codec.Withdraws (sub 3 4)));
      ("single prefix", frame ~defer:true 4 (routes 4 800 (sub 1 1)));
      ("new set", frame 1 (routes 1 501 ps));
      ("origination in a shared-set drain", originated) ]
  in
  List.iter
    (fun (name, step) ->
      let a = step fast and b = step full in
      check (name ^ ": messages") true (same_out a b);
      check (name ^ ": Loc-RIB") true (same_loc fast full);
      List.iter
        (fun n ->
          check
            (Printf.sprintf "%s: Adj-RIB-Out toward %d" name n)
            true
            (List.equal
               (fun (p, x) (q, y) -> Prefix.equal p q && Ia.equal x y)
               (Speaker.adj_out fast (peer n)) (Speaker.adj_out full (peer n))))
        [ 1; 2; 3; 4 ];
      check (name ^ ": counters") true (counters fast = counters full))
    steps;
  check "the stock speaker reused runs" true (counter_of fast "decision.reused" > 0);
  check_int "the full path reused none" 0 (counter_of full "decision.reused");
  check "duplicates seen" true (counter_of fast "updates.duplicate" = 8);
  check "rejections seen" true (counter_of fast "import.rejected" = 3);
  check "refcounts balanced" true (Invariants.refcounts [ fast; full ] = [])

(* A global import that reads the prefix sees every route of a frame:
   it rejects exactly the prefix it names. *)
let test_prefix_dependent_import () =
  let bad = nth_prefix 2 in
  let import ia = if Prefix.equal ia.Ia.prefix bad then None else Some ia in
  let s =
    Speaker.create
      (Speaker.config ~global_import:import ~asn:(asn 100)
         ~addr:(Ipv4.of_octets 10 0 0 100) ())
  in
  Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer (peer 1));
  let ps = List.init 4 nth_prefix in
  ignore (deliver s 1 (routes 1 500 ps));
  check_int "one rejection" 1 (counter_of s "import.rejected");
  List.iter
    (fun p ->
      check (Prefix.to_string p) (not (Prefix.equal p bad)) (Speaker.best s p <> None))
    ps

(* Damping makes selection depend on per-prefix penalties: no reuse. *)
let test_damping_bypasses_reuse () =
  let run damping =
    let s = reuse_speaker () in
    Speaker.set_damping s damping;
    ignore (deliver s 1 (routes 1 500 (List.init 4 nth_prefix)));
    (counter_of s "decision.runs", counter_of s "decision.reused")
  in
  check "undamped: all but the first run reused" true (run None = (4, 3));
  check "damped: none reused" true (run (Some damp_params) = (4, 0))

(* An MRAI flush whose announces carry structurally equal sets in
   physically distinct fields ships one frame per set: no announce
   shares its fields with the last bucket's head, so each is hashed. *)
let test_flush_buckets_by_set () =
  let frames sets =
    let net = Network.create () in
    List.iter (fun i -> ignore (Harness.add_as net i)) [ 1; 2 ];
    Network.link net ~a:(asn 1) ~b:(asn 2) ~b_is:Policy.To_provider ();
    Network.set_mrai net 1.0;
    (* Re-allocate every list of each announce on its way out. *)
    Network.set_interposer net
      (Some
         (fun ~from:_ ~to_:_ -> function
           | Speaker.Announce ia ->
             Some
               (Speaker.Announce
                  { ia with
                    Ia.path_vector = List.map Fun.id ia.Ia.path_vector;
                    path_descriptors = List.map Fun.id ia.Ia.path_descriptors })
           | m -> Some m));
    for i = 0 to (2 * sets) - 1 do
      Network.originate net (asn 1)
        (Ia.originate ~prefix:(nth_prefix i) ~origin_asn:(asn 1)
           ~next_hop:(Ipv4.of_octets 10 1 0 (i mod sets)) ())
    done;
    let stats = Network.run net in
    ( stats.Network.messages,
      List.length (Speaker.best_routes (Network.speaker net (asn 2))) )
  in
  check "one set: one frame" true (frames 1 = (1, 2));
  check "twelve sets: twelve frames" true (frames 12 = (12, 24))

let () =
  Alcotest.run "pipeline"
    [ ( "adj-rib-in",
        [ Alcotest.test_case "stale marks" `Quick test_adj_rib_in_stale;
          Alcotest.test_case "drop clears stale" `Quick
            test_adj_rib_in_drop_clears_stale;
          QCheck_alcotest.to_alcotest qcheck_adj_rib_in_model ] );
      ( "loc-rib",
        [ Alcotest.test_case "lpm + fib" `Quick test_loc_rib_lpm_fib;
          QCheck_alcotest.to_alcotest qcheck_loc_rib_fib;
          Alcotest.test_case "full rebuild = sorted keys" `Quick
            test_loc_rib_full_rebuild_order ] );
      ( "active-range",
        [ Alcotest.test_case "nested ranges" `Quick test_active_for_nested;
          QCheck_alcotest.to_alcotest qcheck_active_for ] );
      ( "scheduler",
        [ Alcotest.test_case "coalescing" `Quick test_pipeline_coalescing;
          Alcotest.test_case "re-mark during drain" `Quick
            test_pipeline_remark_during_drain;
          Alcotest.test_case "drain after a full-table drain" `Quick
            test_pipeline_drain_after_full_table ] );
      ( "peer-groups",
        [ Alcotest.test_case "membership" `Quick test_groups_membership;
          Alcotest.test_case "move keeps survivors' group" `Quick
            test_join_move_keeps_survivors_group;
          Alcotest.test_case "speaker fanout" `Quick
            test_speaker_export_fanout;
          QCheck_alcotest.to_alcotest qcheck_group_major;
          Alcotest.test_case "quiet speaker: one evaluation per group" `Quick
            test_quiet_speaker_costs_groups ] );
      ( "adj-rib-out-handles",
        [ Alcotest.test_case "re-add follows the new filter" `Quick
            test_readd_follows_new_filter;
          Alcotest.test_case "peer_down + re-add starts empty" `Quick
            test_peer_down_readd_empty;
          Alcotest.test_case "group flip withdraws once" `Quick
            test_group_flip_withdraws_once;
          Alcotest.test_case "orphan Adj-RIB-Out check" `Quick
            test_orphan_adj_out_check ] );
      ( "adj-rib-out-state",
        [ Alcotest.test_case "tombstone and re-record" `Quick
            test_adj_rib_out_tombstone_and_rerecord;
          QCheck_alcotest.to_alcotest qcheck_adj_rib_out_model ] );
      ( "route-memory",
        [ Alcotest.test_case "words per prefix" `Quick test_words_per_prefix;
          Alcotest.test_case "attribute table past the old cap" `Quick
            test_attr_table_uncapped;
          QCheck_alcotest.to_alcotest qcheck_refcounts ] );
      ( "reestablish",
        [ Alcotest.test_case "incremental sync, not a storm" `Quick
            test_reestablish_incremental;
          Alcotest.test_case "restart under churn" `Quick
            test_restart_under_churn;
          Alcotest.test_case "sync tail withdraws unbacked records" `Quick
            test_sync_tail_withdraws_unbacked;
          Alcotest.test_case "end-of-rib counts and clears marks" `Quick
            test_end_of_rib_counts_marks ] );
      ( "batching",
        [ Alcotest.test_case "ingest/flush coalesces" `Quick
            test_ingest_flush_coalesces;
          Alcotest.test_case "network equivalence" `Quick
            test_batched_network_equivalence;
          Alcotest.test_case "flush buckets by set" `Quick test_flush_buckets_by_set ] );
      ( "set-major",
        [ Alcotest.test_case "reuse = full path" `Quick test_reuse_differential;
          Alcotest.test_case "prefix-dependent import" `Quick
            test_prefix_dependent_import;
          Alcotest.test_case "damping bypasses reuse" `Quick
            test_damping_bypasses_reuse ] );
      ( "teardown",
        [ Alcotest.test_case "remove_neighbor clean" `Quick
            test_remove_neighbor_clean;
          Alcotest.test_case "peer_down keeps damping" `Quick
            test_peer_down_keeps_damping;
          Alcotest.test_case "network unlink clean" `Quick
            test_network_unlink_clean ] ) ]
