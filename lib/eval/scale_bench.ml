(* Internet-scale RIB benchmark: the numbers behind the streaming
   table-transfer and compressed-trie work.

   Each row builds a seeded CAIDA-style power-law topology
   ({!Dbgp_topology.Caida}), converges a small background prefix set
   across the whole graph (the topology-scale updates/s figure), then
   loads a full-size table at a single-homed stub feed whose provider
   re-exports nothing — the classic "route collector" arrangement that
   lets a 100k-prefix table exist without flooding 10k ASes with 10^9
   updates.  On the loaded table it measures:

   - sustained updates/s (wall and CPU) for the table load;
   - resident words/route from the network's [Obj.reachable_words]
     delta around the load (FIB index built), i.e. the combined
     sender + receiver footprint of one route crossing the pipeline;
   - table-transfer message counts for a session bounce on the feed
     link, three ways: [full] (no graceful restart — the re-announce
     storm, which crosses in attribute-bucketed frames and is also
     reported per prefix, ~1 message per route), [clean] (graceful
     restart, nothing changed while down — the streamed incremental
     sync should send ~0 and skip ~all), and [churn] (a slice of the
     table re-originated while the session was down — the sync should
     re-send just that slice). *)

open Dbgp_types
module Network = Dbgp_netsim.Network
module Event_queue = Dbgp_netsim.Event_queue
module Graph = Dbgp_topology.As_graph
module Caida = Dbgp_topology.Caida
module Filters = Dbgp_core.Filters
module Speaker = Dbgp_core.Speaker
module Metrics = Dbgp_obs.Metrics
module Snapshot = Dbgp_obs.Snapshot

type row = {
  ases : int;
  prefixes : int;       (* feed table size *)
  bg_prefixes : int;
  edges : int;
  bg_updates : int;
  bg_elapsed_s : float;
  bg_updates_per_s : float;
  load_updates : int;
  load_elapsed_s : float;
  load_cpu_s : float;
  load_updates_per_s : float;
  words_per_route : float;
  attr_sets : int;          (* resident shared attribute sets after load *)
  string_clears : int;
  value_clears : int;
  descriptor_clears : int;
  peak_heap_words : int;    (* major-heap high-water mark after load *)
  live_words : int;         (* live words after load (post full major) *)
  full_transfer_msgs : int;
  full_transfer_bytes : int;
  batched_transfer_msgs : int;
  batched_transfer_bytes : int;
  batch_frames : int;
  clean_transfer_msgs : int;
  clean_skipped : int;
  churn_routes : int;
  churn_transfer_msgs : int;
}

(* /24s spread over 192.0.0.0/2 by a multiplicative hash: the odd
   multiplier is invertible mod 2^22, so up to ~4M indices map to
   distinct networks, and the bit-scattered spread exercises the
   path-compressed trie far harder than a sequential range would. *)
let feed_addr i = Ipv4.of_int (0xC0000000 lor (((i * 2654435761) land 0x3FFFFF) lsl 8))
let feed_prefix i = Prefix.make (feed_addr i) 24

(* The feed is a single-homed stub; its provider is the collector. *)
let feed_and_provider g =
  let rec pick = function
    | [] -> invalid_arg "Scale_bench: topology has no single-homed stub"
    | v :: rest ->
      if Graph.degree g v = 1 then
        match Graph.providers g v with
        | [ p ] -> (v, p)
        | _ -> pick rest
      else pick rest
  in
  pick (Graph.stubs g)

let build ~seed ~ases =
  let rng = Prng.create seed in
  let g = Caida.generate rng { Caida.default with Caida.n = ases } in
  let feed, provider = feed_and_provider g in
  let net = Network.create () in
  for i = 0 to Graph.size g - 1 do
    ignore (Harness.add_as net (i + 1))
  done;
  Graph.fold_edges
    (fun a b view () ->
      let rel = Harness.relationship view in
      let pa = Asn.of_int (a + 1) and pb = Asn.of_int (b + 1) in
      (* The collector keeps the feed's table to itself: exporting
         nothing bounds propagation to one hop, so the table's cost is
         measured, not the flood's. *)
      if a = provider then
        Network.link net ~a_export:Filters.reject ~a:pa ~b:pb ~b_is:rel ()
      else if b = provider then
        Network.link net ~b_export:Filters.reject ~a:pa ~b:pb ~b_is:rel ()
      else Network.link net ~a:pa ~b:pb ~b_is:rel ())
    g ();
  (net, g, Asn.of_int (feed + 1), Asn.of_int (provider + 1), feed, provider)

(* [Gc.live_words] deltas are swamped by unrelated collection when
   several cells run in one process (a later cell's load phase frees the
   previous cell's network), so measure the network's own footprint:
   every word reachable from it, counting shared blocks once. *)
let net_words net = Obj.reachable_words (Obj.repr net)

let caps () =
  [ ("intern.string.clears", (Dbgp_types.Intern.string_stats ()).clears);
    ("intern.value.clears", (Dbgp_core.Codec.value_intern_stats ()).clears);
    ("attr_table.descriptors.clears",
     (Dbgp_core.Attr_table.descriptor_stats ()).clears) ]

let run ?(seed = 42) ?(bg = 32) ~ases ~prefixes () =
  (* Rows must be independent: a previous cell's speakers were dropped
     without teardown, so their attribute sets would otherwise stay
     resident and pollute this row's [attr_sets]. *)
  Dbgp_core.Attr_table.reset ();
  let caps0 = caps () in
  let net, g, feed_asn, prov_asn, feed, provider = build ~seed ~ases in
  Network.set_mrai net 0.5;
  let c = Network.counter_total net in
  let msgs () = Metrics.count (Metrics.counter (Network.metrics net) "net.messages") in
  let updates () = c "updates.received" + c "withdrawals.received" in
  (* Background convergence: a handful of prefixes originated at spread
     ASes and flooded valley-free across the whole topology — the
     updates/s number that scales with [ases]. *)
  let rec bg_origin id =
    if id = feed || id = provider then bg_origin ((id + 1) mod ases) else id
  in
  for i = 0 to bg - 1 do
    let origin = Asn.of_int (1 + bg_origin (i * 7919 mod ases)) in
    let prefix =
      Prefix.of_string (Printf.sprintf "99.%d.%d.0/24" (i / 256) (i mod 256))
    in
    Network.originate net origin
      (Dbgp_core.Ia.originate ~prefix ~origin_asn:origin
         ~next_hop:(Network.speaker_addr origin) ())
  done;
  let u0 = updates () in
  let t0 = Unix.gettimeofday () in
  ignore (Network.run net);
  let bg_elapsed = Unix.gettimeofday () -. t0 in
  let bg_updates = updates () - u0 in
  (* Full-table load at the feed. *)
  let w0 = net_words net in
  let u0 = updates () in
  let tm0 = Unix.times () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to prefixes - 1 do
    Network.originate net feed_asn
      (Dbgp_core.Ia.originate ~prefix:(feed_prefix i) ~origin_asn:feed_asn
         ~next_hop:(Network.speaker_addr feed_asn) ())
  done;
  ignore (Network.run net);
  let load_elapsed = Unix.gettimeofday () -. t0 in
  let tm1 = Unix.times () in
  let load_cpu =
    tm1.Unix.tms_utime -. tm0.Unix.tms_utime
    +. (tm1.Unix.tms_stime -. tm0.Unix.tms_stime)
  in
  let load_updates = updates () - u0 in
  (* Build the collector's FIB index so the words/route figure includes
     the data-plane structure, not just the RIBs. *)
  ignore (Speaker.next_hop_of (Network.speaker net prov_asn) (feed_addr 0));
  let w1 = net_words net in
  let words_per_route =
    if prefixes = 0 then 0.
    else float_of_int (w1 - w0) /. float_of_int prefixes
  in
  let attr_sets = Dbgp_core.Attr_table.occupancy () in
  (* Heap figures for the loaded table: the major-heap high-water mark
     over the run so far, and the live set after a full major (so dead
     load-phase garbage doesn't inflate it). *)
  Gc.full_major ();
  let gc = Gc.stat () in
  let peak_heap_words = gc.Gc.top_heap_words in
  let live_words = gc.Gc.live_words in
  let abytes () =
    Metrics.count (Metrics.counter (Network.metrics net) "net.announce_bytes")
  in
  let frames () =
    Metrics.count (Metrics.counter (Network.metrics net) "net.batch.frames")
  in
  (* Per-prefix messages: every multi-prefix frame stands in for
     [net.batch.saved] further single-prefix messages. *)
  let per_prefix () =
    msgs ()
    + Metrics.count (Metrics.counter (Network.metrics net) "net.batch.saved")
  in
  (* Arm 1 — the session-establish storm: no graceful restart, so the
     bounce drops and refreshes the full table.  The feed's table shares
     one attribute set, so each MRAI flush leaves as one multi-prefix
     frame (one attribute block + NLRI list).  The per-prefix baseline
     the frames are judged against — one message and one single-prefix
     encoding per route — follows from the same run: the per-prefix
     message count, and the routes the frames carried, which are the
     feed's Adj-RIB-Out toward the collector. *)
  Network.set_graceful_restart net None;
  Network.fail_link net feed_asn prov_asn;
  ignore (Network.run net);
  let m0 = msgs () in
  let b0 = abytes () in
  let f0 = frames () in
  let p0 = per_prefix () in
  Network.recover_link net feed_asn prov_asn;
  ignore (Network.run net);
  let batched_transfer_msgs = msgs () - m0 in
  let batched_transfer_bytes = abytes () - b0 in
  let batch_frames = frames () - f0 in
  let full_transfer_msgs = per_prefix () - p0 in
  let full_transfer_bytes =
    List.fold_left
      (fun acc (_, ia) -> acc + Dbgp_core.Codec.size ia)
      0
      (Speaker.adj_out (Network.speaker net feed_asn)
         (Network.peer_of net prov_asn))
  in
  (* Arm 2 — clean incremental re-establish inside the graceful window:
     both Adj-RIB-Outs survived, nothing changed, so the streamed sync
     should skip everything. *)
  Network.set_graceful_restart net (Some 1e9);
  Network.fail_link net feed_asn prov_asn;
  let p0 = per_prefix () in
  let sk0 = c "sync.skipped" in
  Network.recover_link net feed_asn prov_asn;
  ignore (Network.run net);
  let clean_transfer_msgs = per_prefix () - p0 in
  let clean_skipped = c "sync.skipped" - sk0 in
  (* Arm 3 — churn under the outage: a slice of the table re-originates
     while the session is down (the sends die on the cut link and demote
     their Adj-RIB-Out records), so the sync must re-send exactly that
     slice, 5% of the table.  The recover is scheduled after the churn
     events fire. *)
  let churn_routes = max 1 (int_of_float (0.05 *. float_of_int prefixes)) in
  let q = Network.queue net in
  Network.fail_link net feed_asn prov_asn;
  for i = prefixes to prefixes + churn_routes - 1 do
    Network.originate net feed_asn
      (Dbgp_core.Ia.originate ~prefix:(feed_prefix i) ~origin_asn:feed_asn
         ~next_hop:(Network.speaker_addr feed_asn) ())
  done;
  let p0 = per_prefix () in
  Event_queue.schedule q ~delay:5.0 (fun () ->
      Network.recover_link net feed_asn prov_asn);
  ignore (Network.run net);
  let churn_transfer_msgs = per_prefix () - p0 in
  let cap name = List.assoc name (caps ()) - List.assoc name caps0 in
  { ases;
    prefixes;
    bg_prefixes = bg;
    edges = Graph.edge_count g;
    bg_updates;
    bg_elapsed_s = bg_elapsed;
    bg_updates_per_s =
      (if bg_elapsed > 0. then float_of_int bg_updates /. bg_elapsed else 0.);
    load_updates;
    load_elapsed_s = load_elapsed;
    load_cpu_s = load_cpu;
    load_updates_per_s =
      (if load_elapsed > 0. then float_of_int load_updates /. load_elapsed
       else 0.);
    words_per_route;
    attr_sets;
    string_clears = cap "intern.string.clears";
    value_clears = cap "intern.value.clears";
    descriptor_clears = cap "attr_table.descriptors.clears";
    peak_heap_words;
    live_words;
    full_transfer_msgs;
    full_transfer_bytes;
    batched_transfer_msgs;
    batched_transfer_bytes;
    batch_frames;
    clean_transfer_msgs;
    clean_skipped;
    churn_routes;
    churn_transfer_msgs }

let suite ?(seed = 42)
    ?(grid =
      [ (1_000, 1_000);
        (1_000, 100_000);
        (10_000, 1_000);
        (10_000, 100_000);
        (70_000, 10_000);
        (1_000, 1_000_000) ])
    () =
  List.map
    (fun (ases, prefixes) ->
      (* At Internet AS-count the background flood dominates wall time
         without adding information; a smaller bg set keeps the 70k row
         about the table, not the flood. *)
      let bg = if ases >= 50_000 then 8 else 32 in
      run ~seed ~bg ~ases ~prefixes ())
    grid

let to_snapshot r =
  Snapshot.Obj
    [ ("ases", Snapshot.Int r.ases);
      ("prefixes", Snapshot.Int r.prefixes);
      ("bg_prefixes", Snapshot.Int r.bg_prefixes);
      ("edges", Snapshot.Int r.edges);
      ("bg_updates", Snapshot.Int r.bg_updates);
      ("bg_elapsed_s", Snapshot.Float r.bg_elapsed_s);
      ("bg_updates_per_s", Snapshot.Float r.bg_updates_per_s);
      ("load_updates", Snapshot.Int r.load_updates);
      ("load_elapsed_s", Snapshot.Float r.load_elapsed_s);
      ("load_cpu_s", Snapshot.Float r.load_cpu_s);
      ("load_updates_per_s", Snapshot.Float r.load_updates_per_s);
      ("words_per_route", Snapshot.Float r.words_per_route);
      ("attr_sets", Snapshot.Int r.attr_sets);
      ("string_clears", Snapshot.Int r.string_clears);
      ("value_clears", Snapshot.Int r.value_clears);
      ("descriptor_clears", Snapshot.Int r.descriptor_clears);
      ("peak_heap_words", Snapshot.Int r.peak_heap_words);
      ("live_words", Snapshot.Int r.live_words);
      ("full_transfer_msgs", Snapshot.Int r.full_transfer_msgs);
      ("full_transfer_bytes", Snapshot.Int r.full_transfer_bytes);
      ("batched_transfer_msgs", Snapshot.Int r.batched_transfer_msgs);
      ("batched_transfer_bytes", Snapshot.Int r.batched_transfer_bytes);
      ("batch_frames", Snapshot.Int r.batch_frames);
      ("clean_transfer_msgs", Snapshot.Int r.clean_transfer_msgs);
      ("clean_skipped", Snapshot.Int r.clean_skipped);
      ("churn_routes", Snapshot.Int r.churn_routes);
      ("churn_transfer_msgs", Snapshot.Int r.churn_transfer_msgs) ]

let pp ppf r =
  Format.fprintf ppf
    "%5d ASes %7d pfx  %7.0f bg-up/s  %7.0f load-up/s  %5.1f words/route  \
     (%d attr sets, %d+%d+%d intern clears, %.1fM live \
     words)  transfer full %d msgs/%d B, batched \
     %d msgs/%d B in %d frames / clean %d (skipped %d) / churn %d (of %d \
     changed)"
    r.ases r.prefixes r.bg_updates_per_s r.load_updates_per_s r.words_per_route
    r.attr_sets r.string_clears r.value_clears
    r.descriptor_clears
    (float_of_int r.live_words /. 1e6)
    r.full_transfer_msgs r.full_transfer_bytes r.batched_transfer_msgs
    r.batched_transfer_bytes r.batch_frames r.clean_transfer_msgs
    r.clean_skipped r.churn_transfer_msgs r.churn_routes
