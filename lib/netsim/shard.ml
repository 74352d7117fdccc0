(* Sharded simulation engine: one topology partitioned into regions,
   one OCaml domain per region, synchronized conservatively.

   Execution alternates drain and run phases on an adaptive epoch
   grid.  Let L be the lookahead: the minimum latency over cut edges,
   plus the MRAI interval when one is configured (cross-partition
   sends skip sender-side coalescing and instead add the full MRAI
   interval to their arrival delay, so L is a true lower bound on
   "send now, arrive when").  Each epoch the engine computes the
   global minimum next-event time T over all region queues and all
   pending mailbox entries, sets the horizon H = T + L, and executes
   two barrier rounds: first every region drains its inbound mailboxes
   — scheduling each recorded arrival into its own event queue — then
   every region executes its events with time < H.  (The barrier
   between the rounds is what lets the mailboxes stay lock-free, and
   what makes the drain schedule independent of the domain count.)
   Any message sent by an event at time t < H
   arrives at t + L' with L' >= L, hence at or after H: no region can
   receive an arrival in its executed past.  That is the whole
   correctness argument, and it holds for every domain count.

   Determinism: T and H are functions of global simulation state only;
   regions execute sequentially and deterministically within a domain;
   mailbox drains impose the total order (arrival time, source region,
   push index).  Consequently which *domain* executes a region affects
   nothing — transcripts are byte-identical between 1-domain and
   N-domain runs of the same partitioned schedule.  Domain-local
   caches (intern tables, codec caches, wire metrics) only change hit
   rates, never results. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Metrics = Dbgp_obs.Metrics

type cross =
  | Deliver of { from : int; to_ : int; msg : Speaker.msg }
  | Nack of { local : int; remote : int; prefix : Prefix.t }

type link_decl = {
  l_a : int;
  l_b : int;
  l_latency : float;
  l_a_export : Dbgp_core.Filters.t;
  l_b_export : Dbgp_core.Filters.t;
  l_a_dbgp : bool;
  l_b_dbgp : bool;
  l_b_is : Dbgp_bgp.Policy.relationship;
}

type built = {
  part : Partition.t;
  nets : Network.t array;
  (* outboxes.(src).(dst): pushed by src's domain during its epoch,
     drained by dst's domain after the barrier. *)
  outboxes : cross Mailbox.t array array;
  (* Per-region transcript: (time, per-region seq, line), newest
     first.  Written only by the owning domain; merged on the main
     domain after the run. *)
  logs : (float * int * string) list ref array;
  log_seq : int array;
  mutable transcript_on : bool;
  (* Per-domain wire-codec registries, merged in at the end of every
     run (each member can only read its own domain's DLS). *)
  wire : Metrics.t;
}

type t = {
  mrai : float;
  want_regions : int;
  make_speaker : int -> Speaker.t;
  mutable decl_nodes : int list;          (* reversed *)
  mutable decl_links : link_decl list;    (* reversed *)
  mutable decl_pinned : (int * int) list;
  mutable want_transcript : bool;
  mutable built : built option;
}

type stats = {
  net : Network.stats;
  epochs : int;
  domains : int;
  regions : int;
  cut_edges : int;
  lookahead : float;
}

let create ?(mrai = 0.) ?(regions = 2) ~make_speaker () =
  if mrai < 0. then invalid_arg "Shard.create: negative MRAI";
  if regions < 1 then invalid_arg "Shard.create: regions must be >= 1";
  {
    mrai;
    want_regions = regions;
    make_speaker;
    decl_nodes = [];
    decl_links = [];
    decl_pinned = [];
    want_transcript = false;
    built = None;
  }

let check_declaring t op =
  if t.built <> None then
    invalid_arg (Printf.sprintf "Shard.%s: topology already built" op)

let require_built t op =
  match t.built with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Shard.%s: call Shard.build first" op)

let add_as t asn =
  check_declaring t "add_as";
  t.decl_nodes <- asn :: t.decl_nodes

let link t ?(latency = 1.0) ?(pinned = false)
    ?(a_export = Dbgp_core.Filters.accept)
    ?(b_export = Dbgp_core.Filters.accept) ?(a_dbgp = true) ?(b_dbgp = true)
    ~a ~b ~b_is () =
  check_declaring t "link";
  if latency <= 0. then invalid_arg "Shard.link: latency must be positive";
  if pinned then t.decl_pinned <- (a, b) :: t.decl_pinned;
  t.decl_links <-
    { l_a = a; l_b = b; l_latency = latency; l_a_export = a_export;
      l_b_export = b_export;
      l_a_dbgp = a_dbgp; l_b_dbgp = b_dbgp; l_b_is = b_is }
    :: t.decl_links

let inverse : Dbgp_bgp.Policy.relationship -> Dbgp_bgp.Policy.relationship =
  function
  | Dbgp_bgp.Policy.To_customer -> Dbgp_bgp.Policy.To_provider
  | Dbgp_bgp.Policy.To_provider -> Dbgp_bgp.Policy.To_customer
  | Dbgp_bgp.Policy.To_peer -> Dbgp_bgp.Policy.To_peer

let record b r ~at line =
  if b.transcript_on then begin
    b.logs.(r) := (at, b.log_seq.(r), line) :: !(b.logs.(r));
    b.log_seq.(r) <- b.log_seq.(r) + 1
  end

let msg_enc = function
  | Speaker.Announce ia -> "A" ^ Dbgp_core.Codec.encode ia
  | Speaker.Withdraw p -> "W" ^ Prefix.to_string p

let wire_transcript b =
  b.transcript_on <- true;
  Array.iteri
    (fun i net ->
      Network.set_change_feed net
        (Some
           (fun ~asn ~prefix ~at ~fingerprint ->
             record b i ~at
               (Printf.sprintf "C %d %s %d" (Asn.to_int asn)
                  (Prefix.to_string prefix) fingerprint))))
    b.nets

let build t =
  check_declaring t "build";
  let nodes = Array.of_list (List.rev t.decl_nodes) in
  let links = List.rev t.decl_links in
  let edges =
    Array.of_list (List.map (fun l -> (l.l_a, l.l_b, l.l_latency)) links)
  in
  let part =
    Partition.build ~pinned:t.decl_pinned ~nodes ~edges
      ~regions:t.want_regions ()
  in
  let nregions = Partition.regions part in
  let nets = Array.init nregions (fun _ -> Network.create ()) in
  Array.iter (fun net -> Network.set_mrai net t.mrai) nets;
  let speakers = Hashtbl.create (Array.length nodes) in
  Array.iter
    (fun a ->
      let s = t.make_speaker a in
      if
        Ipv4.to_int (Speaker.addr s)
        <> Ipv4.to_int (Network.speaker_addr (Asn.of_int a))
      then
        invalid_arg
          "Shard.build: make_speaker must use Network.speaker_addr \
           (remote peer stubs are derived from it)";
      Hashtbl.replace speakers a s;
      Network.add_speaker nets.(Partition.region_of part a) s)
    nodes;
  List.iter
    (fun l ->
      let ra = Partition.region_of part l.l_a
      and rb = Partition.region_of part l.l_b in
      let a = Asn.of_int l.l_a and b = Asn.of_int l.l_b in
      if ra = rb then
        Network.link nets.(ra) ~latency:l.l_latency ~a_export:l.l_a_export
          ~b_export:l.l_b_export ~a_dbgp:l.l_a_dbgp ~b_dbgp:l.l_b_dbgp ~a ~b
          ~b_is:l.l_b_is ()
      else begin
        let sa = Hashtbl.find speakers l.l_a
        and sb = Hashtbl.find speakers l.l_b in
        let same_island =
          match (Speaker.island_of sa, Speaker.island_of sb) with
          | Some ia, Some ib -> Island_id.equal ia ib
          | _ -> false
        in
        Network.half_link nets.(ra) ~latency:l.l_latency
          ~export:l.l_a_export ~remote_dbgp:l.l_b_dbgp
          ~same_island ~local:a ~remote:b ~remote_is:l.l_b_is ();
        Network.half_link nets.(rb) ~latency:l.l_latency
          ~export:l.l_b_export ~remote_dbgp:l.l_a_dbgp
          ~same_island ~local:b ~remote:a ~remote_is:(inverse l.l_b_is) ()
      end)
    links;
  let outboxes =
    Array.init nregions (fun _ -> Array.init nregions (fun _ -> Mailbox.create ()))
  in
  let b =
    {
      part;
      nets;
      outboxes;
      logs = Array.init nregions (fun _ -> ref []);
      log_seq = Array.make nregions 0;
      transcript_on = false;
      wire = Metrics.create ();
    }
  in
  Array.iteri
    (fun i net ->
      Network.set_remote_hook net
        (Some
           (fun ~from ~to_ ~at msg ->
             let dst = Partition.region_of part (Asn.to_int to_) in
             Mailbox.push outboxes.(i).(dst) ~time:at
               (Deliver { from = Asn.to_int from; to_ = Asn.to_int to_; msg }))))
    nets;
  if t.want_transcript then wire_transcript b;
  t.built <- Some b

(* ------------------------------ queries ------------------------------ *)

let partition t = (require_built t "partition").part
let regions t = Partition.regions (require_built t "regions").part
let region_of t a = Partition.region_of (require_built t "region_of").part a
let network t r = (require_built t "network").nets.(r)

let lookahead t =
  let b = require_built t "lookahead" in
  let base = Partition.lookahead b.part in
  if base = infinity then infinity else base +. t.mrai

let speaker t a =
  let b = require_built t "speaker" in
  Network.speaker b.nets.(Partition.region_of b.part a) (Asn.of_int a)

let speakers t =
  let b = require_built t "speakers" in
  Array.to_list
    (Array.map
       (fun net -> List.map (fun a -> (Asn.to_int a, Network.speaker net a)) (Network.asns net))
       b.nets)
  |> List.concat
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* ------------------------------ workload ----------------------------- *)

let net_of t op a =
  let b = require_built t op in
  b.nets.(Partition.region_of b.part a)

(* Workload injections accept an absolute time so seeded churn can be
   spread over the simulated clock; [at <= now] executes immediately. *)
let inject net ~at f =
  if at <= Event_queue.now (Network.queue net) then f ()
  else Event_queue.schedule_at (Network.queue net) ~time:at f

let originate ?(at = 0.) t a ia =
  let net = net_of t "originate" a in
  inject net ~at (fun () -> Network.originate net (Asn.of_int a) ia)

let withdraw_origin ?(at = 0.) t a prefix =
  let net = net_of t "withdraw_origin" a in
  inject net ~at (fun () -> Network.withdraw_origin net (Asn.of_int a) prefix)

let set_damping t params =
  Array.iter (fun net -> Network.set_damping net params)
    (require_built t "set_damping").nets

let schedule_cross t op ~at a b ~intra ~half =
  let bt = require_built t op in
  let ra = Partition.region_of bt.part a
  and rb = Partition.region_of bt.part b in
  let aa = Asn.of_int a and ab = Asn.of_int b in
  if ra = rb then
    Event_queue.schedule_at (Network.queue bt.nets.(ra)) ~time:at (fun () ->
        intra bt.nets.(ra) aa ab)
  else begin
    (* Both halves fire at the same simulated time, each in its own
       region — lockstep without any cross-domain call. *)
    Event_queue.schedule_at (Network.queue bt.nets.(ra)) ~time:at (fun () ->
        half bt.nets.(ra) aa ab);
    Event_queue.schedule_at (Network.queue bt.nets.(rb)) ~time:at (fun () ->
        half bt.nets.(rb) ab aa)
  end

let schedule_fail t ~at a b =
  schedule_cross t "schedule_fail" ~at a b ~intra:Network.fail_link
    ~half:Network.fail_half

let schedule_recover t ~at a b =
  schedule_cross t "schedule_recover" ~at a b ~intra:Network.recover_link
    ~half:Network.recover_half

let fault_models t ~seed =
  let b = require_built t "fault_models" in
  let master = Prng.create seed in
  let streams = Prng.split_n master (Array.length b.nets) in
  Array.mapi
    (fun i rng ->
      let f =
        Fault_model.create ~seed:(Int64.to_int (Prng.bits64 rng) land max_int) ()
      in
      Network.set_fault_model b.nets.(i) f;
      f)
    streams

(* ----------------------------- transcript ---------------------------- *)

let enable_transcript t =
  t.want_transcript <- true;
  match t.built with
  | Some b when not b.transcript_on -> wire_transcript b
  | _ -> ()

let transcript_lines t =
  let b = require_built t "transcript_lines" in
  let entries = ref [] in
  Array.iteri
    (fun r log ->
      List.iter (fun (at, seq, line) -> entries := (at, r, seq, line) :: !entries) !log)
    b.logs;
  let entries =
    List.sort
      (fun (t1, r1, s1, _) (t2, r2, s2, _) ->
        match Float.compare t1 t2 with
        | 0 -> ( match Int.compare r1 r2 with 0 -> Int.compare s1 s2 | c -> c)
        | c -> c)
      !entries
  in
  List.map
    (fun (at, r, _, line) -> Printf.sprintf "%.6f %d %s" at r line)
    entries

let transcript_digest t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (transcript_lines t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------ execution ---------------------------- *)

(* Drain region [r]'s inbound mailboxes: impose the (arrival time,
   source region, push index) total order, apply NACKs immediately
   (they are time-independent sender-side bookkeeping) and schedule
   deliveries at their recorded arrival times.  Runs on [r]'s owning
   domain, after the barrier that makes the producers' pushes visible. *)
let drain b r =
  let nregions = Array.length b.nets in
  let entries = ref [] in
  for src = 0 to nregions - 1 do
    if src <> r then
      List.iter
        (fun (time, seq, payload) -> entries := (time, src, seq, payload) :: !entries)
        (Mailbox.drain b.outboxes.(src).(r))
  done;
  let entries =
    List.sort
      (fun (t1, r1, s1, _) (t2, r2, s2, _) ->
        match Float.compare t1 t2 with
        | 0 -> ( match Int.compare r1 r2 with 0 -> Int.compare s1 s2 | c -> c)
        | c -> c)
      !entries
  in
  let net = b.nets.(r) in
  let q = Network.queue net in
  List.iter
    (fun (time, _src, _seq, payload) ->
      match payload with
      | Nack { local; remote; prefix } ->
        record b r ~at:time
          (Printf.sprintf "N %d %d %s" local remote (Prefix.to_string prefix));
        Network.apply_nack net ~local:(Asn.of_int local)
          ~remote:(Asn.of_int remote) prefix
      | Deliver { from; to_; msg } ->
        Event_queue.schedule_at q ~time (fun () ->
            record b r ~at:time
              (Printf.sprintf "X %d>%d %s" from to_ (msg_enc msg));
            match
              Network.deliver_remote net ~from:(Asn.of_int from)
                ~to_:(Asn.of_int to_) msg
            with
            | None -> ()
            | Some prefix ->
              (* The half link died while the message crossed the cut:
                 NACK the sender's region so its Adj-RIB-Out learns. *)
              let sr = Partition.region_of b.part from in
              Mailbox.push b.outboxes.(r).(sr) ~time:(Event_queue.now q)
                (Nack { local = from; remote = to_; prefix })))
    entries

let run ?(max_events = 10_000_000) ?(domains = 1) t =
  if domains < 1 then invalid_arg "Shard.run: domains must be >= 1";
  let b = require_built t "run" in
  let nregions = Array.length b.nets in
  let size = min domains nregions in
  let la = lookahead t in
  let pool = Domain_pool.create ~size in
  let region_events = Array.make nregions 0 in
  let epochs = ref 0 in
  let exhausted = ref false in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let continue = ref true in
  while !continue do
    (* Global minimum next-event time across queues and mailboxes;
       computed from simulation state only, hence identical for every
       domain count. *)
    let tmin = ref infinity in
    Array.iter
      (fun net ->
        match Event_queue.peek_time (Network.queue net) with
        | Some tm when tm < !tmin -> tmin := tm
        | _ -> ())
      b.nets;
    Array.iter
      (Array.iter (fun mb ->
           match Mailbox.min_time mb with
           | Some tm when tm < !tmin -> tmin := tm
           | _ -> ()))
      b.outboxes;
    if !tmin = infinity then continue := false
    else begin
      let total = Array.fold_left ( + ) 0 region_events in
      if total >= max_events then begin
        exhausted := true;
        continue := false
      end
      else begin
        incr epochs;
        let budget = max_events - total in
        let horizon = if la = infinity then infinity else !tmin +. la in
        (* Two barrier rounds per epoch, with a static region->member
           assignment (r mod size — cache affinity for the domain-local
           intern and codec caches).  The drain/run split is load-
           bearing twice over: every drain must complete before any run
           starts, (1) so nobody pushes into a mailbox while its
           consumer drains it (the mailboxes are lock-free by the
           barrier contract), and (2) so the epoch at which a region
           ingests a neighbour's pushes is a function of the epoch
           schedule alone — with drain and run fused, a single domain
           would run region 0 before draining region 1, feeding region
           1 the current epoch's pushes where an N-domain run feeds it
           the previous epoch's, and same-time events would interleave
           differently. *)
        Domain_pool.run pool (fun m ->
            let i = ref m in
            while !i < nregions do
              drain b !i;
              i := !i + size
            done);
        Domain_pool.run pool (fun m ->
            let i = ref m in
            while !i < nregions do
              region_events.(!i) <-
                region_events.(!i)
                + Event_queue.run_until ~max_events:budget
                    (Network.queue b.nets.(!i)) ~horizon;
              i := !i + size
            done)
      end
    end
  done;
  (* Fold each member's domain-local wire-codec registry into the
     engine's merged view: only the owning domain can read its DLS, so
     each member copies into its own slot and the barrier publishes
     the slots to the main domain. *)
  let wire_parts = Array.init size (fun _ -> Metrics.create ()) in
  Domain_pool.run pool (fun m ->
      Metrics.merge_into ~into:wire_parts.(m) (Dbgp_core.Codec.wire_metrics ()));
  Array.iter (fun p -> Metrics.merge_into ~into:b.wire p) wire_parts;
  let per =
    Array.mapi
      (fun i net -> Network.stats_now net ~events:region_events.(i) ~exhausted:false)
      b.nets
  in
  let net =
    Array.fold_left
      (fun (acc : Network.stats) (s : Network.stats) ->
        {
          Network.messages = acc.Network.messages + s.Network.messages;
          announce_bytes = acc.Network.announce_bytes + s.Network.announce_bytes;
          withdrawals = acc.Network.withdrawals + s.Network.withdrawals;
          dropped = acc.Network.dropped + s.Network.dropped;
          events = acc.Network.events + s.Network.events;
          converged_at = Float.max acc.Network.converged_at s.Network.converged_at;
          exhausted = acc.Network.exhausted || s.Network.exhausted;
        })
      {
        Network.messages = 0;
        announce_bytes = 0;
        withdrawals = 0;
        dropped = 0;
        events = 0;
        converged_at = 0.;
        exhausted = !exhausted;
      }
      per
  in
  {
    net;
    epochs = !epochs;
    domains = size;
    regions = nregions;
    cut_edges = Array.length (Partition.cut_edges b.part);
    lookahead = la;
  }

(* --------------------------- observability --------------------------- *)

let metrics t =
  let b = require_built t "metrics" in
  let into = Metrics.create () in
  Array.iter (fun net -> Metrics.merge_into ~into (Network.metrics net)) b.nets;
  Metrics.merge_into ~into b.wire;
  into

let counter_total t name =
  let b = require_built t "counter_total" in
  Array.fold_left (fun acc net -> acc + Network.counter_total net name) 0 b.nets

let stale_total t =
  let b = require_built t "stale_total" in
  Array.fold_left (fun acc net -> acc + Network.stale_total net) 0 b.nets
