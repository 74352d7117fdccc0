(* One rep of one benchmark workload, measured from outside the
   simulator (run.py repeats reps, one process each, and takes medians):

     bench.exe --workload NAME --seed N [--trace] [--verify]
               [--trace-out FILE]

   A rep builds the workload's set-up (timed as [setup_s]), compacts the
   heap, runs the measured phase (timed as [run_s] and [cpu_s]) and
   then, untimed, digests every speaker's Loc-RIB and measures the
   simulator state.  [--verify] adds the workload's full checks.

   With [--trace], spans are recorded around the driver's calls into
   each layer (see {!Span}) and the public counter registries are read
   at the same points; the rep then reports per-layer metrics and
   [--trace-out] receives every span and counter delta.

   The only line on standard output is one JSON object; a readable span
   table and any failed check go to standard error. *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Speaker = Dbgp_core.Speaker
module Codec = Dbgp_core.Codec
module Ia = Dbgp_core.Ia
module Peer = Dbgp_core.Peer
module Filters = Dbgp_core.Filters
module Attr_table = Dbgp_core.Attr_table
module Metrics = Dbgp_obs.Metrics
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite
module Caida = Dbgp_topology.Caida
module Policy = Dbgp_bgp.Policy
module Harness = Dbgp_eval.Harness
module Invariants = Dbgp_eval.Invariants

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)
(* ------------------------------------------------------------------ *)

let brite_ases = 1000
let origins = 16
let prefixes_per_origin = 4
let converge_mrai = 2.0
let converge_setup_builds = 9
let collector_setup_builds = 3
let churn_flaps = 8
let churn_gr_window = 10.
let churn_gr_down = 5.
let churn_full_down = 30.
let caida_ases = 1000
let collector_bg = 32
let collector_mrai = 0.5
let collector_gr_window = 10.
let collector_table = 50_000
let collector_lookups = 500_000
let lookup_batch = 1000
let stress_ads = 2000
let stress_payload = 32 * 1024
let stress_feeds = 6
let stress_base_table = 20_000

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let seconds_since t0 = float_of_int (Span.now_ns () - t0) *. 1e-9

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let count reg name =
  match Metrics.find_counter reg name with
  | Some c -> float_of_int (Metrics.count c)
  | None -> 0.

(* Counters every workload reads: the codec, attribute-table and intern
   registries, which are process-wide, and the runtime's GC. *)
let global_counters () =
  let wire = Codec.wire_metrics () and attrs = Attr_table.metrics () in
  let intern prefix (s : Intern.stats) =
    [ (prefix ^ ".hits", float_of_int s.hits);
      (prefix ^ ".misses", float_of_int s.misses);
      (prefix ^ ".clears", float_of_int s.clears) ]
  in
  let gc = Gc.quick_stat () in
  List.map
    (fun n -> (n, count wire n))
    [ "wire.encode_cache.hits"; "wire.encode_cache.misses";
      "wire.decode_memo.hits"; "wire.decode_memo.misses" ]
  @ List.map
      (fun n -> (n, count attrs n))
      [ "attr_table.hits"; "attr_table.misses"; "attr_table.evictions";
        "attr_table.overflow" ]
  @ [ ("attr_table.occupancy", float_of_int (Attr_table.occupancy ())) ]
  @ intern "intern.path_vector" (Intern.path_vector_stats ())
  @ intern "intern.string" (Intern.string_stats ())
  @ intern "intern.path_elem" (Intern.path_elem_stats ())
  @ [ ("gc.minor_words", gc.Gc.minor_words);
      ("gc.major_words", gc.Gc.major_words);
      ("gc.major_collections", float_of_int gc.Gc.major_collections) ]

let speaker_counter_names =
  [ "decision.runs"; "decision.changes"; "updates.received";
    "updates.duplicate"; "withdrawals.received"; "import.rejected";
    "restart.stale_marked"; "restart.flushed"; "restart.retained";
    "sync.sent"; "sync.skipped"; "sync.withdrawn";
    "errors.discard_attribute"; "errors.treat_as_withdraw";
    "errors.session_reset"; "errors.internal"; "pipeline.dirty_marks";
    "pipeline.runs_saved"; "pipeline.drains"; "pipeline.export_cache.hits";
    "pipeline.export_cache.misses" ]

let failure_verdicts d =
  d "errors.session_reset" +. d "errors.treat_as_withdraw"
  +. d "errors.internal"

(* Loc-RIB digest over (speaker, prefix, selected peer, AS path): what
   was chosen, not how it was framed on the wire. *)
let loc_rib_digest speakers =
  let b = Buffer.create 65536 and routes = ref 0 in
  List.iter
    (fun s ->
      let asn = Asn.to_string (Speaker.asn s) in
      Speaker.best_routes s
      |> List.sort (fun (p, _) (q, _) -> Prefix.compare p q)
      |> List.iter (fun (p, (ch : Speaker.chosen)) ->
             incr routes;
             let cand = ch.Speaker.candidate in
             Buffer.add_string b asn;
             Buffer.add_char b ' ';
             Buffer.add_string b (Prefix.to_string p);
             Buffer.add_char b ' ';
             Buffer.add_string b
               ( match cand.Dbgp_core.Decision_module.from_peer with
                 | Some peer -> Asn.to_string peer.Peer.asn
                 | None -> "-" );
             Buffer.add_char b ' ';
             List.iter
               (fun e ->
                 Buffer.add_string b (Path_elem.to_string e);
                 Buffer.add_char b ',')
               cand.Dbgp_core.Decision_module.ia.Ia.path_vector;
             Buffer.add_char b '\n'))
    speakers;
  (Digest.to_hex (Digest.string (Buffer.contents b)), !routes)

(* What a set-up hands the rep. *)
type instance = {
  measure : unit -> unit;
  counters : unit -> (string * float) list;
      (** cumulative values; the rep reads deltas around [measure] *)
  clock : unit -> float;  (** simulated time; 0 without a simulator *)
  state : Obj.t;  (** the simulator state [state_mwords] measures *)
  speakers : unit -> Speaker.t list;
  check : settled:string -> string list;
      (** failed checks, given the Loc-RIB digest taken after set-up *)
}

(* ------------------------------------------------------------------ *)
(* Network workloads                                                   *)
(* ------------------------------------------------------------------ *)

let relationship = function
  | Graph.Customer_of_me -> Policy.To_customer
  | Graph.Provider_of_me -> Policy.To_provider
  | Graph.Peer_of_me -> Policy.To_peer

(* Inputs from the seed.  The topology, the origin ASes, the flapped
   links and the feed are structural: they come from a fixed
   [structure_seed], so every seed does the same amount of work and the
   spread across seeds measures the code rather than the inputs.  The
   seed permutes AS numbers over that structure, which moves every
   speaker address and so every tie-break, Hashtbl layout and event
   interleaving, and it draws the per-run choices below (origination
   order, which prefix of each origin is withdrawn, lookup addresses,
   the stress paths). *)
let structure_seed = 42

(* [asn.(i)] is the AS number of topology node [i]. *)
let relabel seed n =
  let asn = Array.init n (fun i -> i + 1) in
  Prng.shuffle (Prng.create seed) asn;
  asn

(* Speakers and links for a generated topology, wired as
   [Perf_bench.build] does.  [quiet] (a node) is an AS that exports
   nothing: the route collector. *)
let build_network ?(quiet = -1) ~asn g =
  Span.record "network.build" (fun () ->
      let net = Network.create () in
      Array.iter (fun a -> ignore (Harness.add_as net a)) asn;
      Graph.fold_edges
        (fun a b view () ->
          let pa = Asn.of_int asn.(a) and pb = Asn.of_int asn.(b) in
          let b_is = relationship view in
          if a = quiet then
            Network.link net ~a_export:Filters.reject ~a:pa ~b:pb ~b_is ()
          else if b = quiet then
            Network.link net ~b_export:Filters.reject ~a:pa ~b:pb ~b_is ()
          else Network.link net ~a:pa ~b:pb ~b_is ())
        g ();
      net)

(* Events executed and budget-exhausted runs, summed over every
   [Network.run] the driver makes, and FIB lookups made. *)
type tally = {
  mutable events : int;
  mutable exhausted : int;
  mutable lookups : int;
}

let tally () = { events = 0; exhausted = 0; lookups = 0 }

let run_net tally net =
  Span.record "network.run" (fun () ->
      let st = Network.run net in
      tally.events <- tally.events + st.Network.events;
      if st.Network.exhausted then tally.exhausted <- tally.exhausted + 1)

let net_counters net tally () =
  let reg = Network.metrics net in
  let frames =
    List.assoc_opt "net.batch.prefixes_per_frame" (Metrics.histograms reg)
  in
  let messages = count reg "net.messages" in
  let speaker =
    List.map (fun n -> (n, float_of_int (Network.counter_total net n)))
      speaker_counter_names
  in
  let verdicts = failure_verdicts (fun n -> List.assoc n speaker) in
  let updates =
    List.assoc "updates.received" speaker
    +. List.assoc "withdrawals.received" speaker
  in
  [ ("e2e.messages", messages);
    ("e2e.wire_bytes", count reg "net.announce_bytes");
    ("e2e.attempted", updates +. float_of_int tally.lookups);
    ("e2e.failed", verdicts +. float_of_int tally.exhausted);
    ("net.events", float_of_int tally.events);
    ("net.messages", messages);
    ( "net.batch.prefixes_per_frame.sum",
      Option.fold ~none:0. ~some:Metrics.hist_sum frames );
    ( "net.batch.prefixes_per_frame.count",
      Option.fold ~none:0.
        ~some:(fun h -> float_of_int (Metrics.observations h))
        frames ) ]
  @ List.map
      (fun n -> (n, count reg n))
      [ "net.announce_bytes"; "net.withdrawals"; "net.dropped";
        "net.mrai_flushes"; "net.mrai_batched"; "net.batch.frames";
        "net.batch.saved" ]
  @ speaker @ global_counters ()

let net_instance ~net ~tally ~measure ~check =
  { measure;
    counters = net_counters net tally;
    clock = (fun () -> Event_queue.now (Network.queue net));
    state = Obj.repr net;
    speakers = (fun () -> List.map (Network.speaker net) (Network.asns net));
    check }

(* Safety of the converged state for each prefix: loop-free forwarding,
   RIB/FIB agreement, no route through a down link, no leaked stale
   route, no valley export. *)
let network_checks net ~tally prefixes =
  let bad = ref [] in
  if tally.exhausted > 0 then bad := "event budget exhausted" :: !bad;
  if Network.stale_total net <> 0 then bad := "stale routes left" :: !bad;
  List.iter
    (fun p ->
      let r = Invariants.check ~prefix:p ~dest:(Prefix.network p) net in
      if not (Invariants.ok r) then
        bad :=
          Format.asprintf "%s: %a" (Prefix.to_string p) Invariants.pp r :: !bad)
    prefixes;
  if Invariants.valley_violations net <> [] then
    bad := "valley-free export violated" :: !bad;
  List.rev !bad

let bench_prefix i =
  Prefix.of_string (Printf.sprintf "99.%d.%d.0/24" (i / 256) (i mod 256))

let originate net asn prefix =
  Network.originate net asn
    (Ia.originate ~prefix ~origin_asn:asn ~next_hop:(Network.speaker_addr asn)
       ())

(* converge and churn share one network: a BRITE topology, the MRAI /
   wire / batching configuration, and 64 prefixes from 16 origins, four
   each, so every flush carries multi-prefix buckets. *)
type brite_world = {
  rng : Prng.t;  (** the seed's stream, after relabelling *)
  structure : Prng.t;  (** the fixed stream, after choosing origins *)
  g : Graph.t;
  asn : int array;
  net : Network.t;
  origin_of : int -> Asn.t;  (** by prefix index *)
  prefixes : Prefix.t list;
  order : int array;  (** origination order of the prefix indices *)
}

let brite_world ?(relabelled = true) seed =
  let structure = Prng.create structure_seed in
  let g =
    Span.record "topology.generate" (fun () ->
        Brite.generate structure { Brite.default with Brite.n = brite_ases })
  in
  let asn =
    if relabelled then relabel seed brite_ases
    else Array.init brite_ases (fun i -> i + 1)
  in
  let net = build_network ~asn g in
  Network.set_mrai net converge_mrai;
  Network.set_wire_delivery net true;
  Network.set_batching net true;
  let nodes = Prng.sample structure origins (Array.init brite_ases Fun.id) in
  let rng = Prng.create (seed + 1) in
  let n = origins * prefixes_per_origin in
  let order = Array.init n Fun.id in
  Prng.shuffle rng order;
  { rng;
    structure;
    g;
    asn;
    net;
    origin_of = (fun i -> Asn.of_int asn.(nodes.(i / prefixes_per_origin)));
    prefixes = List.init n bench_prefix;
    order }

let originate_all w =
  Span.record "network.originate" (fun () ->
      Array.iter
        (fun i -> originate w.net (w.origin_of i) (bench_prefix i))
        w.order)

let converge seed =
  let w = brite_world seed in
  let tally = tally () in
  net_instance ~net:w.net ~tally
    ~measure:(fun () ->
      Span.set_request 1;
      Span.record "phase.converge" (fun () ->
          originate_all w;
          run_net tally w.net))
    ~check:(fun ~settled:_ -> network_checks w.net ~tally w.prefixes)

(* churn keeps the structure's AS numbering: path exploration after a
   withdrawal is chaotic in tie-breaks, and relabelling moved its message
   count by 8% between seeds, which would swamp the timing signal.  Its
   seed still orders the originations and picks the withdrawn prefixes;
   every seed does the same work and ends in the same converged state. *)
let churn seed =
  let w = brite_world ~relabelled:false seed in
  let tally = tally () in
  Span.record "setup.warm" (fun () ->
      originate_all w;
      run_net tally w.net);
  (* The flapped links join the best-connected ASes: a core link carries
     many selected routes, so each flap moves real traffic. *)
  let core (a, b) = min (Graph.degree w.g a) (Graph.degree w.g b) in
  let flaps =
    Graph.fold_edges (fun a b _ acc -> (a, b) :: acc) w.g []
    |> List.sort (fun e f -> compare (core f, f) (core e, e))
    |> List.filteri (fun i _ -> i < churn_flaps)
    |> List.map (fun (a, b) -> (Asn.of_int w.asn.(a), Asn.of_int w.asn.(b)))
    |> Array.of_list
  in
  (* A quarter of the prefixes: one of each origin's four. *)
  let bounced =
    Array.init origins (fun o ->
        let i = (o * prefixes_per_origin) + Prng.int w.rng prefixes_per_origin in
        (i, bench_prefix i))
  in
  let q = Network.queue w.net and net = w.net in
  let flap ~span ~down (a, b) =
    Span.record span (fun () ->
        Span.record "network.fail_link" (fun () -> Network.fail_link net a b);
        Event_queue.schedule q ~delay:down (fun () ->
            Network.recover_link net a b);
        run_net tally net)
  in
  let measure () =
    Span.set_request 1;
    Span.record "phase.flaps_graceful" (fun () ->
        Network.set_graceful_restart net (Some churn_gr_window);
        Array.iter (flap ~span:"network.bounce" ~down:churn_gr_down) flaps);
    Span.set_request 2;
    Span.record "phase.flaps_refresh" (fun () ->
        Network.set_graceful_restart net None;
        Array.iter (flap ~span:"network.flap" ~down:churn_full_down) flaps);
    Span.set_request 3;
    Span.record "phase.withdraw_reoriginate" (fun () ->
        Span.record "network.withdraw_origin" (fun () ->
            Array.iter
              (fun (i, p) -> Network.withdraw_origin net (w.origin_of i) p)
              bounced);
        run_net tally net;
        Span.record "network.originate" (fun () ->
            Array.iter (fun (i, p) -> originate net (w.origin_of i) p) bounced);
        run_net tally net)
  in
  (* Gao-Rexford routing has one stable state, so after the churn every
     speaker must hold exactly the routes it held after set-up. *)
  let check ~settled =
    let after =
      loc_rib_digest (List.map (Network.speaker net) (Network.asns net))
    in
    (if fst after <> settled then
       [ "churn did not return to the converged state" ]
     else [])
    @ network_checks net ~tally w.prefixes
  in
  net_instance ~net ~tally ~measure ~check

(* The feed is a single-homed stub; its provider is the collector. *)
let feed_and_collector g =
  match
    List.find_opt
      (fun v -> Graph.degree g v = 1 && List.length (Graph.providers g v) = 1)
      (Graph.stubs g)
  with
  | Some v -> (v, List.hd (Graph.providers g v))
  | None -> failwith "collector: topology has no single-homed stub"

let collector seed =
  let structure = Prng.create structure_seed in
  let g =
    Span.record "topology.generate" (fun () ->
        Caida.generate structure { Caida.default with Caida.n = caida_ases })
  in
  let feed, coll = feed_and_collector g in
  let asn = relabel seed caida_ases in
  let net = build_network ~quiet:coll ~asn g in
  let feed_asn = Asn.of_int asn.(feed) and coll_asn = Asn.of_int asn.(coll) in
  Network.set_mrai net collector_mrai;
  Network.set_wire_delivery net true;
  Network.set_batching net true;
  let tally = tally () in
  let others =
    List.filter (fun i -> i <> feed && i <> coll) (List.init caida_ases Fun.id)
  in
  let bg_origins = Prng.sample structure collector_bg (Array.of_list others) in
  let bg = List.init collector_bg bench_prefix in
  Span.record "setup.warm" (fun () ->
      List.iteri
        (fun i p -> originate net (Asn.of_int asn.(bg_origins.(i))) p)
        bg;
      run_net tally net);
  let rng = Prng.create (seed + 1) in
  let addrs =
    Array.init collector_lookups (fun _ ->
        let p =
          Dbgp_eval.Scale_bench.feed_prefix (Prng.int rng collector_table)
        in
        Ipv4.of_int (Ipv4.to_int (Prefix.network p) + 1 + Prng.int rng 254))
  in
  let feed_addr = Network.speaker_addr feed_asn in
  let wrong_hops = ref 0 in
  let sync0 = ref (0., 0.) in
  let sync_counts () =
    ( float_of_int (Network.counter_total net "sync.sent"),
      float_of_int (Network.counter_total net "sync.skipped") )
  in
  let measure () =
    Span.set_request 1;
    Span.record "phase.load" (fun () ->
        Span.record "network.originate" (fun () ->
            for i = 0 to collector_table - 1 do
              originate net feed_asn (Dbgp_eval.Scale_bench.feed_prefix i)
            done);
        run_net tally net);
    Span.set_request 2;
    Span.record "phase.lookup" (fun () ->
        let s = Network.speaker net coll_asn in
        for b = 0 to (collector_lookups / lookup_batch) - 1 do
          Span.record "loc_rib.lookup_batch" (fun () ->
              for j = b * lookup_batch to ((b + 1) * lookup_batch) - 1 do
                tally.lookups <- tally.lookups + 1;
                match Speaker.next_hop_of s addrs.(j) with
                | Some a when Ipv4.equal a feed_addr -> ()
                | _ -> incr wrong_hops
              done)
        done);
    Span.set_request 3;
    sync0 := sync_counts ();
    Network.set_graceful_restart net (Some collector_gr_window);
    Span.record "network.bounce" (fun () ->
        Span.record "network.fail_link" (fun () ->
            Network.fail_link net feed_asn coll_asn);
        Span.record "network.recover_link" (fun () ->
            Network.recover_link net feed_asn coll_asn);
        run_net tally net)
  in
  let check ~settled:_ =
    let sent1, skipped1 = sync_counts () in
    let sent0, skipped0 = !sync0 in
    (if !wrong_hops > 0 then
       [ Printf.sprintf "%d lookups missed the feed" !wrong_hops ]
     else [])
    @ (if sent1 -. sent0 > 0. then [ "clean bounce re-sent routes" ] else [])
    @ (if skipped1 -. skipped0 < float_of_int collector_table then
         [ "sync walk skipped fewer routes than the table holds" ]
       else [])
    @ network_checks net ~tally bg
  in
  net_instance ~net ~tally ~measure ~check

(* ------------------------------------------------------------------ *)
(* stress-32k: the paper's section 5 replay against one speaker        *)
(* ------------------------------------------------------------------ *)

(* Base-table prefixes continue [Workload]'s prefix sequence past the
   replayed ones, so the two sets never overlap. *)
let base_prefix i =
  let net = ((stress_ads + i) * 2654435761) land 0xFFFFFF in
  Prefix.make (Ipv4.of_int (net lsl 8)) 24

let random_path rng =
  let rec go acc n =
    if n = 0 then acc
    else
      let a = Prng.int_in rng 1 64000 in
      if List.mem a acc then go acc n else go (a :: acc) (n - 1)
  in
  List.map (fun a -> Path_elem.As (Asn.of_int a)) (go [] (Prng.int_in rng 3 5))

(* Inputs, made once per process from the seed: the encoded replay
   advertisements, each carrying a 32 KB descriptor, and the BGP-only
   base table the feeds preload in set-up. *)
let stress_wires = ref [||]
let stress_base = ref [||]

let stress_inputs seed =
  let spec =
    Dbgp_eval.Workload.spec ~payload_bytes:stress_payload ~seed
      ~advertisements:stress_ads ()
  in
  stress_wires :=
    Array.of_list (List.map Codec.encode (Dbgp_eval.Workload.generate spec));
  let rng = Prng.create (seed lxor 0x5eed) in
  stress_base :=
    Array.init stress_base_table (fun i ->
        let path = random_path rng in
        let origin_asn =
          match List.rev path with
          | Path_elem.As a :: _ -> a
          | _ -> Asn.of_int 65000
        in
        { (Ia.originate ~prefix:(base_prefix i) ~origin_asn
             ~next_hop:(Ipv4.of_int (0x0A000000 + i))
             ())
          with
          Ia.path_vector = path })

(* The speaker is node 0 of a star whose six leaves, the feeds, are its
   customers, so every route it learns is exported to the other five and
   the encode stage always runs.  The replay drives the speaker directly;
   the network only wires it. *)
let stress_hub = 64512

let stress _seed =
  let g =
    Span.record "topology.generate" (fun () ->
        let g = Graph.create (1 + stress_feeds) in
        for i = 1 to stress_feeds do
          Graph.add_customer_provider g ~customer:i ~provider:0
        done;
        g)
  in
  let asn =
    Array.init (1 + stress_feeds) (fun i ->
        if i = 0 then stress_hub else 65000 + i)
  in
  let net = build_network ~asn g in
  let speaker = Network.speaker net (Asn.of_int stress_hub) in
  let feeds =
    Array.init stress_feeds (fun i ->
        Network.peer_of net (Asn.of_int asn.(i + 1)))
  in
  let base = !stress_base in
  Span.record "setup.warm" (fun () ->
      Array.iteri
        (fun i ia ->
          Speaker.ingest speaker ~from:feeds.(i mod stress_feeds)
            (Speaker.Announce ia);
          if i mod 256 = 255 then ignore (Speaker.flush speaker))
        base;
      ignore (Speaker.flush speaker));
  let replayed = ref 0 and decoded_bytes = ref 0 and undecodable = ref 0 in
  let emitted = ref 0 and emitted_bytes = ref 0 in
  let measure () =
    Array.iteri
      (fun i wire ->
        Span.set_request i;
        Span.record "stress.advertisement" (fun () ->
            incr replayed;
            decoded_bytes := !decoded_bytes + String.length wire;
            match
              Span.record "codec.decode_robust" (fun () ->
                  Codec.decode_robust wire)
            with
            | Error _ -> incr undecodable
            | Ok (ia, _) ->
              Span.record "speaker.ingest" (fun () ->
                  Speaker.ingest speaker ~from:feeds.(i mod stress_feeds)
                    (Speaker.Announce ia));
              let outbox =
                Span.record "speaker.flush" (fun () -> Speaker.flush speaker)
              in
              List.iter
                (fun (_, m) ->
                  let bytes =
                    Span.record "codec.encode_cached" (fun () ->
                        match m with
                        | Speaker.Announce ia -> Codec.encode_cached ia
                        | Speaker.Withdraw p -> Codec.encode_withdraw p)
                  in
                  incr emitted;
                  emitted_bytes := !emitted_bytes + String.length bytes)
                outbox))
      !stress_wires
  in
  let counters () =
    let reg = Speaker.metrics speaker in
    let speaker = List.map (fun n -> (n, count reg n)) speaker_counter_names in
    let verdicts = failure_verdicts (fun n -> List.assoc n speaker) in
    [ ("e2e.messages", float_of_int !emitted);
      ("e2e.wire_bytes", float_of_int !emitted_bytes);
      ("e2e.attempted", float_of_int !replayed);
      ("e2e.failed", verdicts +. float_of_int !undecodable);
      ("stress.decoded_bytes", float_of_int !decoded_bytes);
      ("stress.encoded_bytes", float_of_int !emitted_bytes) ]
    @ speaker @ global_counters ()
  in
  let check ~settled:_ =
    let routes = List.length (Speaker.best_routes speaker) in
    (if !emitted = 0 then [ "the speaker emitted no re-advertisements" ]
     else [])
    @
    if routes <> stress_base_table + stress_ads then
      [ Printf.sprintf "Loc-RIB holds %d routes, expected %d" routes
          (stress_base_table + stress_ads) ]
    else []
  in
  { measure;
    counters;
    clock = (fun () -> 0.);
    state = Obj.repr speaker;
    speakers = (fun () -> [ speaker ]);
    check }

type workload = {
  name : string;
  inputs : int -> unit;  (** once per process, untimed *)
  setup : int -> instance;
  builds : int;  (** set-ups timed per rep; the last one is measured *)
  spans : string list;  (** spans every traced rep must record *)
}

let workloads =
  [ { name = "converge";
      inputs = ignore;
      setup = converge;
      builds = converge_setup_builds;
      spans = [ "network.run" ] };
    { name = "churn";
      inputs = ignore;
      setup = churn;
      builds = 1;
      spans = [ "network.bounce"; "network.flap" ] };
    { name = "collector";
      inputs = ignore;
      setup = collector;
      builds = collector_setup_builds;
      spans = [ "loc_rib.lookup_batch"; "network.bounce" ] };
    (* The encode stage must not vanish: re-advertisements are emitted
       and encoded on every replayed advertisement. *)
    { name = "stress-32k";
      inputs = stress_inputs;
      setup = stress;
      builds = 1;
      spans = [ "codec.decode_robust"; "codec.encode_cached" ] } ]

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics of a traced rep.  [d] reads a counter's delta
   across the measured phase, [after] its value at the end. *)
let per_layer ~spans ~d ~after ~sim_s ~routes ~state_words =
  let find n = List.find_opt (fun s -> s.Span.s_name = n) spans in
  let total n = Option.fold ~none:0. ~some:(fun s -> s.Span.total_s) (find n) in
  let calls n =
    Option.fold ~none:0. ~some:(fun s -> float_of_int s.Span.count) (find n)
  in
  let p50 n = Option.fold ~none:0. ~some:(fun s -> s.Span.p50_s) (find n) in
  let updates = d "updates.received" +. d "withdrawals.received" in
  let runs = d "decision.runs" in
  let hit_rate hits misses = ratio (d hits) (d hits +. d misses) in
  let sync_walked = d "sync.sent" +. d "sync.skipped" in
  [ ("topology.generate_s", p50 "topology.generate", "s");
    ("network.build_s", p50 "network.build", "s");
    ("network.events", d "net.events", "count");
    ("network.events_per_message", ratio (d "net.events") (d "net.messages"), "ratio");
    ("network.events_per_s", ratio (d "net.events") (total "network.run"), "1/s");
    ("network.mrai_flushes", d "net.mrai_flushes", "count");
    ("network.mrai_batched", d "net.mrai_batched", "count");
    ("network.batch_frames", d "net.batch.frames", "count");
    ( "network.prefixes_per_frame",
      ratio
        (d "net.batch.prefixes_per_frame.sum")
        (d "net.batch.prefixes_per_frame.count"),
      "ratio" );
    ("network.sim_converge_s", sim_s, "sim_s");
    ("speaker.updates", updates, "count");
    ("speaker.duplicates", d "updates.duplicate", "count");
    ("speaker.decision_runs", runs, "count");
    ("speaker.runs_per_update", ratio runs updates, "ratio");
    ("speaker.changes_per_run", ratio (d "decision.changes") runs, "ratio");
    ("speaker.runs_saved", d "pipeline.runs_saved", "count");
    ("speaker.ingest_per_s", ratio (calls "speaker.ingest") (total "speaker.ingest"), "1/s");
    ("speaker.flush_per_s", ratio (calls "speaker.flush") (total "speaker.flush"), "1/s");
    ( "adj_rib_out.export_lookups",
      d "pipeline.export_cache.hits" +. d "pipeline.export_cache.misses",
      "count" );
    ( "adj_rib_out.export_hit_rate",
      hit_rate "pipeline.export_cache.hits" "pipeline.export_cache.misses",
      "ratio" );
    ( "codec.encode_calls",
      d "wire.encode_cache.hits" +. d "wire.encode_cache.misses",
      "count" );
    ( "codec.encode_hit_rate",
      hit_rate "wire.encode_cache.hits" "wire.encode_cache.misses",
      "ratio" );
    ( "codec.decode_memo_lookups",
      d "wire.decode_memo.hits" +. d "wire.decode_memo.misses",
      "count" );
    ( "codec.decode_memo_hit_rate",
      hit_rate "wire.decode_memo.hits" "wire.decode_memo.misses",
      "ratio" );
    ( "codec.decode_mb_per_s",
      ratio (d "stress.decoded_bytes" /. 1e6) (total "codec.decode_robust"),
      "MB/s" );
    ( "codec.encode_mb_per_s",
      ratio (d "stress.encoded_bytes" /. 1e6) (total "codec.encode_cached"),
      "MB/s" );
    ("attr_table.lookups", d "attr_table.hits" +. d "attr_table.misses", "count");
    ("attr_table.hit_rate", hit_rate "attr_table.hits" "attr_table.misses", "ratio");
    ("attr_table.occupancy", after "attr_table.occupancy", "count");
    ("attr_table.evictions", d "attr_table.evictions", "count");
    ("attr_table.overflow", d "attr_table.overflow", "count");
    ( "intern.path_vector_lookups",
      d "intern.path_vector.hits" +. d "intern.path_vector.misses",
      "count" );
    ( "intern.path_vector_hit_rate",
      hit_rate "intern.path_vector.hits" "intern.path_vector.misses",
      "ratio" );
    ("intern.string_hit_rate", hit_rate "intern.string.hits" "intern.string.misses", "ratio");
    ( "intern.clears",
      d "intern.path_vector.clears" +. d "intern.string.clears"
      +. d "intern.path_elem.clears",
      "count" );
    ( "loc_rib.lookups_per_s",
      ratio
        (calls "loc_rib.lookup_batch" *. float_of_int lookup_batch)
        (total "loc_rib.lookup_batch"),
      "1/s" );
    ("loc_rib.routes", float_of_int routes, "count");
    ( "loc_rib.words_per_route",
      ratio (float_of_int state_words) (float_of_int routes),
      "words" );
    ("sync.sent", d "sync.sent", "count");
    ("sync.skipped", d "sync.skipped", "count");
    ("sync.withdrawn", d "sync.withdrawn", "count");
    ("sync.routes_per_s", ratio sync_walked (total "network.bounce"), "1/s");
    ("gc.minor_words_per_update", ratio (d "gc.minor_words") updates, "words");
    ("gc.major_words_per_update", ratio (d "gc.major_words") updates, "words");
    ("gc.major_collections", d "gc.major_collections", "count") ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

module Json = Dbgp_obs.Snapshot

let json_metrics ms =
  Json.Obj
    (List.map
       (fun (n, v, u) ->
         (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
       ms)

let write_trace file ~workload ~seed ~layer ~deltas ~spans ~raw =
  let span_summary (s : Span.summary) =
    Json.Obj
      [ ("name", Json.String s.Span.s_name);
        ("count", Json.Int s.Span.count);
        ("total_s", Json.Float s.Span.total_s);
        ("self_s", Json.Float s.Span.self_s);
        ("p50_s", Json.Float s.Span.p50_s);
        ("p99_s", Json.Float s.Span.p99_s) ]
  in
  let raw_span (s : Span.t) =
    Json.List
      [ Json.String s.Span.name; Json.Int s.Span.request; Json.Int s.Span.parent;
        Json.Int s.Span.start_ns; Json.Int s.Span.stop_ns ]
  in
  let trace =
    Json.Obj
      [ ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("per_layer", json_metrics layer);
        ("counter_deltas", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) deltas));
        ("spans", Json.List (List.map span_summary spans));
        ( "raw_span_fields",
          Json.List
            (List.map
               (fun f -> Json.String f)
               [ "name"; "request"; "parent"; "start_ns"; "stop_ns" ]) );
        ("raw_spans", Json.List (Array.to_list (Array.map raw_span raw))) ]
  in
  let oc = open_out file in
  output_string oc (Json.to_json trace);
  output_char oc '\n';
  close_out oc

let print_spans spans =
  Printf.eprintf "  %-28s %8s %10s %10s %12s %12s\n" "span" "calls" "total s"
    "self s" "p50" "p99";
  List.iter
    (fun (s : Span.summary) ->
      Printf.eprintf "  %-28s %8d %10.4f %10.4f %12.3e %12.3e\n" s.Span.s_name
        s.Span.count s.Span.total_s s.Span.self_s s.Span.p50_s s.Span.p99_s)
    spans

let () =
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let verify = ref false and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--trace", Arg.Set trace, " record spans; report per-layer metrics");
      ("--verify", Arg.Set verify, " run the workload's full checks");
      ("--trace-out", Arg.Set_string trace_out, "FILE where spans are written")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace] [--verify] [--trace-out FILE]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  w.inputs !seed;
  Span.on := !trace;
  (* Only the timings of earlier builds are kept: each earlier instance
     is unreachable before the next build and the final compaction, and
     the process-wide tables it filled are emptied, so every build starts
     as the first one in a fresh process would. *)
  let rec build i times =
    let t0 = Span.now_ns () in
    let inst = Span.record "setup" (fun () -> w.setup !seed) in
    let times = seconds_since t0 :: times in
    if i = w.builds then (times, inst)
    else begin
      Attr_table.reset ();
      Intern.clear_all ();
      Codec.wire_metrics_reset ();
      Gc.compact ();
      build (i + 1) times
    end
  in
  let setup_times, inst = build 1 [] in
  let settled =
    if !verify then fst (loc_rib_digest (inst.speakers ())) else ""
  in
  Gc.compact ();
  let before = inst.counters () and sim0 = inst.clock () in
  let cpu0 = cpu_now () and t0 = Span.now_ns () in
  Span.record "measure" inst.measure;
  let run_s = seconds_since t0 and cpu_s = cpu_now () -. cpu0 in
  Span.on := false;
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let sim_s = inst.clock () -. sim0 in
  let after = inst.counters () in
  let value assoc n = Option.value (List.assoc_opt n assoc) ~default:0. in
  let deltas = List.map (fun (n, v) -> (n, v -. value before n)) after in
  let d = value deltas in
  let digest, routes = loc_rib_digest (inst.speakers ()) in
  let state_words = Obj.reachable_words inst.state in
  let raw = Span.recorded () in
  let spans = Span.summarize raw in
  let missing =
    if not !trace then []
    else
      List.filter_map
        (fun n ->
          if List.exists (fun s -> s.Span.s_name = n) spans then None
          else Some ("no " ^ n ^ " span recorded"))
        w.spans
  in
  let failures = (if !verify then inst.check ~settled else []) @ missing in
  let layer =
    if !trace then
      per_layer ~spans ~d ~after:(value after) ~sim_s ~routes ~state_words
    else []
  in
  if !trace then begin
    print_spans spans;
    if !trace_out <> "" then
      write_trace !trace_out ~workload:w.name ~seed:!seed ~layer ~deltas ~spans
        ~raw
  end;
  List.iter (Printf.eprintf "%s: FAILED: %s\n" w.name) failures;
  let fields =
    List.map
      (fun (n, v) -> (n, Json.Float v))
      [ ("setup_s", median setup_times);
        ("run_s", run_s);
        ("cpu_s", cpu_s);
        ("peak_heap_mb", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6);
        ("state_mwords", float_of_int state_words /. 1e6);
        ("messages", d "e2e.messages");
        ("wire_bytes", d "e2e.wire_bytes");
        ("sim_s", sim_s);
        ("attempted", d "e2e.attempted");
        ("failed", d "e2e.failed") ]
  in
  print_endline
    (Json.to_json
       (Json.Obj
          (fields
          @ [ ("digest", Json.String digest);
              ("routes", Json.Int routes);
              ("failures", Json.List (List.map (fun f -> Json.String f) failures));
              ("layer", json_metrics layer) ])))
