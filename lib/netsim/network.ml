open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Codec = Dbgp_core.Codec
module Metrics = Dbgp_obs.Metrics
module Trace = Dbgp_obs.Trace
module Snapshot = Dbgp_obs.Snapshot

type stats = {
  messages : int;
  announce_bytes : int;
  withdrawals : int;
  dropped : int;
  events : int;
  converged_at : float;
  exhausted : bool;
}

(* Everything needed to re-create both directions of a link after a
   failure, so [recover_link] can restore exactly what [link] built. *)
type link_cfg = {
  c_latency : float;
  c_a : Asn.t;
  c_b : Asn.t;
  c_a_export : Dbgp_core.Filters.t;
  c_b_export : Dbgp_core.Filters.t;
  c_a_dbgp : bool;
  c_b_dbgp : bool;
  c_b_is : Dbgp_bgp.Policy.relationship;
}

(* One side of a link whose other endpoint lives in a different
   partition: everything needed to (re-)install the local neighbor
   entry, mirroring [link_cfg] for half of a cut edge. *)
type half_cfg = {
  hc_latency : float;
  hc_local : Asn.t;
  hc_remote : Asn.t;
  hc_export : Dbgp_core.Filters.t;
  hc_remote_dbgp : bool;
  hc_remote_is : Dbgp_bgp.Policy.relationship;
  hc_same_island : bool;
}

(* One directed pair's MRAI batch: the latest message per prefix, the
   prefixes newest first by first insertion, and whether a flush is
   scheduled.  A flush orders its frames by first insertion, so they do
   not depend on hash layout. *)
type batch = {
  latest : Speaker.msg Prefix.Tbl.t;
  mutable order : Prefix.t list;
  mutable scheduled : bool;
}

type t = {
  q : Event_queue.t;
  lookup : Lookup_service.t;
  speakers : Speaker.t Int_tbl.t;               (* by ASN *)
  by_addr : int Int_tbl.t;                      (* speaker addr -> ASN *)
  (* Cross-partition egress: messages to an ASN in [remote_addrs] are
     handed (with their computed arrival time) to the shard engine's
     hook instead of the local event queue. *)
  mutable remote :
    (from:Asn.t -> to_:Asn.t -> at:float -> Speaker.msg -> unit) option;
  remote_addrs : (int, int) Hashtbl.t;       (* peer addr -> remote ASN *)
  half_links : (int, half_cfg) Hashtbl.t;    (* by packed pair *)
  latencies : (int, float) Hashtbl.t;  (* by packed ASN pair, a < b; presence = link up *)
  links : (int, link_cfg) Hashtbl.t;   (* config for every link ever made *)
  mutable mrai : float;
  mutable fault : Fault_model.t option;
  (* Adversarial egress interposition: a compromised AS rewrites (or
     silently drops) messages it sends, before they hit the wire.  The
     adversary layer installs this; [None] result = message suppressed. *)
  mutable interposer :
    (from:Asn.t -> to_:Asn.t -> Speaker.msg -> Speaker.msg option) option;
  mutable graceful_window : float option;    (* restart window; None = flush at once *)
  restart_gen : (int, int) Hashtbl.t;  (* invalidates superseded flush timers *)
  (* Open restart windows by packed link key: the absolute time the
     graceful flush will fire.  A link recovering before its deadline
     re-establishes with an incremental sync (both sides kept state);
     past it — or with no entry — only a full refresh is sound. *)
  restart_deadline : (int, float) Hashtbl.t;
  (* Per (src, dst) directed pair: the MRAI batch. *)
  pending : batch Int_tbl.t;
  (* Receive-side batching (MRAI mode): per-ASN flag marking an already
     scheduled pipeline drain, so a burst of arrivals buys one drain. *)
  drain_scheduled : bool ref Int_tbl.t;
  (* ASN -> shared Peer.t handed to speakers on every delivery. *)
  peer_memo : Peer.t Int_tbl.t;
  (* Network-level observability: message accounting lives in a metrics
     registry (the hot-path counters are cached), wire-level events go to
     the trace ring. *)
  obs : Metrics.t;
  trace : Trace.t;
  c_messages : Metrics.counter;
  c_announce_bytes : Metrics.counter;
  c_withdrawals : Metrics.counter;
  c_dropped : Metrics.counter;
  h_msg_bytes : Metrics.histogram;
  (* Batching instruments, registered on first use: a network that never
     batches lists none of them. *)
  c_mrai_flushes : Metrics.counter Lazy.t;
  c_mrai_batched : Metrics.counter Lazy.t;
  c_batch_frames : Metrics.counter Lazy.t;
  c_batch_saved : Metrics.counter Lazy.t;
  h_prefixes_per_frame : Metrics.histogram Lazy.t;
  c_pipeline_drains : Metrics.counter Lazy.t;
}

let create () =
  let obs = Metrics.create () in
  { q = Event_queue.create ();
    lookup = Lookup_service.create ();
    speakers = Int_tbl.create 64;
    by_addr = Int_tbl.create 64;
    remote = None;
    remote_addrs = Hashtbl.create 16;
    half_links = Hashtbl.create 16;
    latencies = Hashtbl.create 64;
    links = Hashtbl.create 64;
    mrai = 0.;
    fault = None;
    interposer = None;
    graceful_window = None;
    restart_gen = Hashtbl.create 16;
    restart_deadline = Hashtbl.create 16;
    pending = Int_tbl.create 64;
    drain_scheduled = Int_tbl.create 64;
    peer_memo = Int_tbl.create 64;
    obs;
    trace = Trace.create ();
    c_messages = Metrics.counter obs "net.messages";
    c_announce_bytes = Metrics.counter obs "net.announce_bytes";
    c_withdrawals = Metrics.counter obs "net.withdrawals";
    c_dropped = Metrics.counter obs "net.dropped";
    h_msg_bytes = Metrics.histogram obs "net.msg_bytes";
    c_mrai_flushes = lazy (Metrics.counter obs "net.mrai_flushes");
    c_mrai_batched = lazy (Metrics.counter obs "net.mrai_batched");
    c_batch_frames = lazy (Metrics.counter obs "net.batch.frames");
    c_batch_saved = lazy (Metrics.counter obs "net.batch.saved");
    h_prefixes_per_frame = lazy (Metrics.histogram obs "net.batch.prefixes_per_frame");
    c_pipeline_drains = lazy (Metrics.counter obs "net.pipeline_drains") }

let lookup t = t.lookup
let queue t = t.q
let metrics t = t.obs
let trace t = t.trace

let speaker_addr a =
  let n = Asn.to_int a in
  Ipv4.of_octets 10 ((n lsr 16) land 0xFF) ((n lsr 8) land 0xFF) (n land 0xFF)

let add_speaker t s =
  let addr = Ipv4.to_int (Speaker.addr s) in
  if Int_tbl.mem t.by_addr addr then
    invalid_arg "Network.add_speaker: duplicate speaker address"
  else begin
    Int_tbl.replace t.speakers (Asn.to_int (Speaker.asn s)) s;
    Int_tbl.replace t.by_addr addr (Asn.to_int (Speaker.asn s));
    Int_tbl.remove t.peer_memo (Asn.to_int (Speaker.asn s))
  end

let speaker t a =
  match Int_tbl.find_opt t.speakers (Asn.to_int a) with
  | Some s -> s
  | None -> raise Not_found

(* One Peer.t per simulated speaker, built on first use: [peer_of] runs
   once per delivered message, and sharing the value also lets the
   receiving speaker's identity-first comparisons hit.  Invalidated
   when a speaker is (re-)registered under the ASN. *)
let peer_of t a =
  let key = Asn.to_int a in
  match Int_tbl.find_opt t.peer_memo key with
  | Some p -> p
  | None ->
    let s = speaker t a in
    let p = Peer.make ~asn:(Speaker.asn s) ~addr:(Speaker.addr s) in
    Int_tbl.replace t.peer_memo key p;
    p

let asn_of_addr t addr =
  Option.map Asn.of_int (Int_tbl.find_opt t.by_addr (Ipv4.to_int addr))

let set_remote_hook t f = t.remote <- f

(* Register an AS simulated by another partition: a shared Peer.t (so
   the local speakers' identity-first comparisons still hit) plus the
   reverse address mapping [dispatch] uses to route egress to the
   shard engine instead of dropping it. *)
let add_remote_peer t a =
  let key = Asn.to_int a in
  if not (Int_tbl.mem t.peer_memo key) then begin
    let addr = speaker_addr a in
    Int_tbl.replace t.peer_memo key (Peer.make ~asn:a ~addr);
    Hashtbl.replace t.remote_addrs (Ipv4.to_int addr) key
  end

(* ASN pairs are packed into a single int ((lo lsl 31) lor hi) so the
   per-message link and MRAI-batch lookups probe int-keyed tables
   instead of allocating and generic-hashing a tuple each time. *)
let pack_pair a b = (a lsl 31) lor b

let lat_key a b =
  let a = Asn.to_int a and b = Asn.to_int b in
  if a < b then pack_pair a b else pack_pair b a

let latency t a b =
  Option.value (Hashtbl.find_opt t.latencies (lat_key a b)) ~default:1.0

let link_up t a b = Hashtbl.mem t.latencies (lat_key a b)

let set_fault_model t f = t.fault <- Some f

let set_graceful_restart t w =
  ( match w with
    | Some w when w <= 0. ->
      invalid_arg "Network.set_graceful_restart: window must be positive"
    | _ -> () );
  t.graceful_window <- w

let set_damping t params =
  Int_tbl.iter (fun _ s -> Speaker.set_damping s params) t.speakers

let set_change_feed t feed =
  Int_tbl.iter
    (fun a s ->
      match feed with
      | None -> Speaker.set_change_hook s None
      | Some f ->
        let asn = Asn.of_int a in
        Speaker.set_change_hook s
          (Some
             (fun ~now prefix ->
               f ~asn ~prefix ~at:now
                 ~fingerprint:(Speaker.loc_fingerprint s prefix))))
    t.speakers

let prefix_of_msg = function
  | Speaker.Announce ia -> ia.Dbgp_core.Ia.prefix
  | Speaker.Withdraw p -> p

(* Encoded size of a message on its own (a one-prefix frame). *)
let msg_bytes m =
  match m with
  | Speaker.Announce ia -> Codec.size ia
  | Speaker.Withdraw p -> Codec.withdraw_size p

let is_withdraw = function
  | Speaker.Announce _ -> false
  | Speaker.Withdraw _ -> true

(* ------------------------------ frames ------------------------------

   Every message crosses the wire as a {!Codec.frame} of bytes.  With
   MRAI 0 each message leaves alone, as a one-prefix frame; an MRAI
   flush buckets its announces by attribute set
   ({!Dbgp_core.Ia.same_attrs}) so each bucket ships one attribute block
   plus an NLRI list, and the flush's withdraws ship as one frame. *)

let frame_prefixes = function
  | Codec.Routes ias -> List.map (fun (ia : Dbgp_core.Ia.t) -> ia.Dbgp_core.Ia.prefix) ias
  | Codec.Withdraws ps -> ps

module Attr_buckets = Hashtbl.Make (struct
  type t = Dbgp_core.Ia.t

  let equal = Dbgp_core.Ia.same_attrs
  let hash = Dbgp_core.Ia.attrs_hash
end)

let new_batch () = { latest = Prefix.Tbl.create 0; order = []; scheduled = false }

let batch_add b msg =
  let p = prefix_of_msg msg and n = Prefix.Tbl.length b.latest in
  Prefix.Tbl.replace b.latest p msg;
  if Prefix.Tbl.length b.latest > n then b.order <- p :: b.order

let batch_clear b =
  Prefix.Tbl.reset b.latest;
  b.order <- []

(* One attribute set's announces in a flush, and the first-insertion
   position of the oldest of them. *)
type bucket = { head : Dbgp_core.Ia.t; mutable ias : Dbgp_core.Ia.t list; mutable first : int }

(* Bucket one MRAI flush into frames: the withdraws first, then one
   frame per attribute set in order of first appearance, each frame's
   prefixes in first-insertion order (each prefix appears once).  The
   walk goes newest first, so consing leaves every list oldest first
   without a reversed copy of the batch; the buckets are sorted by
   their oldest prefix.  Consecutive announces mostly share their set
   physically (one Loc-RIB set fanned out with [Ia.with_prefix]), so
   the last bucket hit is tried by pointer before the set is hashed. *)
let frames_of_flush b =
  let withdraws = ref [] and buckets = ref [] and last = ref None in
  let tbl = Attr_buckets.create 16 in
  let pos = ref (Prefix.Tbl.length b.latest) in
  List.iter
    (fun p ->
      decr pos;
      match Prefix.Tbl.find b.latest p with
      | Speaker.Withdraw p -> withdraws := p :: !withdraws
      | Speaker.Announce ia ->
        let k =
          match !last with
          | Some k when Dbgp_core.Ia.shares_fields k.head ia -> k
          | _ -> (
            match Attr_buckets.find_opt tbl ia with
            | Some k -> k
            | None ->
              let k = { head = ia; ias = []; first = 0 } in
              Attr_buckets.add tbl ia k;
              buckets := k :: !buckets;
              k )
        in
        k.ias <- ia :: k.ias;
        k.first <- !pos;
        last := Some k)
    b.order;
  let routes =
    List.map
      (fun k -> Codec.Routes k.ias)
      (List.sort (fun k k' -> Int.compare k.first k'.first) !buckets)
  in
  if !withdraws = [] then routes else Codec.Withdraws !withdraws :: routes

(* Where a message to [peer] goes: the destination ASN, with the shard
   engine's hook when another partition simulates it; [None] when it is
   simulated nowhere. *)
let destination t (peer : Peer.t) =
  let addr = Ipv4.to_int peer.Peer.addr in
  match Int_tbl.find_opt t.by_addr addr with
  | Some asn -> Some (asn, None)
  | None -> (
    match (t.remote, Hashtbl.find_opt t.remote_addrs addr) with
    | Some hook, Some asn -> Some (asn, Some hook)
    | _ -> None )

(* The compromised sender's rewrite, if any: [None] = suppressed. *)
let interpose t ~from ~to_ msg =
  match t.interposer with
  | None -> Some msg
  | Some f -> (
    match f ~from ~to_ msg with
    | Some m ->
      if m != msg then
        Metrics.incr (Metrics.counter t.obs "net.adversary.tampered");
      Some m
    | None ->
      Metrics.incr (Metrics.counter t.obs "net.adversary.dropped");
      None )

(* Delivery-failure feedback to the sender's Adj-RIB-Out: in this
   simulator the transport knows exactly which messages die, playing
   the role a TCP connection reset plays for a real speaker.  Without
   it the confirmed bits would claim the peer holds state it never
   received and an incremental sync would wrongly skip it. *)
let note_lost t ~from ~to_ prefixes =
  match Int_tbl.find_opt t.speakers (Asn.to_int from) with
  | Some s ->
    let peer = peer_of t to_ in
    List.iter (Speaker.note_undelivered s peer) prefixes
  | None -> ()

let rec dispatch t ~from outbox =
  List.iter
    (fun ((peer : Peer.t), msg) ->
      match destination t peer with
      | None -> () (* neighbor not simulated anywhere; drop *)
      | Some (dst_asn, remote) -> (
        let dst = Asn.of_int dst_asn in
        match Hashtbl.find_opt t.latencies (lat_key from dst) with
        | None ->
          (* Link already down at send time: the message dies here, and
             the sender's Adj-RIB-Out must know (routes that change
             while a session is down are exactly what an incremental
             re-establish has to re-send). *)
          note_lost t ~from ~to_:dst [ prefix_of_msg msg ]
        | Some lat -> (
          match interpose t ~from ~to_:dst msg with
          | None -> () (* suppressed by the compromised sender *)
          | Some msg -> (
            Trace.emit t.trace ~at:(Event_queue.now t.q)
              (Trace.Update_sent
                 { src = Asn.to_int from;
                   dst = dst_asn;
                   prefix = Prefix.to_int (prefix_of_msg msg);
                   bytes = msg_bytes msg;
                   withdraw = is_withdraw msg });
            match remote with
            | Some hook ->
              (* Cross-partition sends bypass MRAI sender-side
                 coalescing (each message ships individually with the
                 MRAI interval added to its arrival delay, preserving
                 the conservative lookahead the epoch barrier depends
                 on) and see no fault model (cross-cut links are
                 fault-free by the partitioner's pinning contract).
                 Receive-side batching at the destination still
                 coalesces decision runs. *)
              hook ~from ~to_:dst
                ~at:(Event_queue.now t.q +. Float.max t.mrai 0. +. lat)
                msg
            | None -> send t ~from ~to_:dst ~lat msg ) ) ))
    outbox

(* Local egress over a link of latency [lat]: fault-model delay, then
   either immediate delivery (MRAI 0) or the per-pair MRAI batch. *)
and send t ~from ~to_ ~lat msg =
  let jitter, reorder =
    match t.fault with
    | Some f ->
      ( Fault_model.jitter f (Asn.to_int from) (Asn.to_int to_),
        Fault_model.reorder_delay f ~now:(Event_queue.now t.q)
          (Asn.to_int from) (Asn.to_int to_) )
    | None -> (0., 0.)
  in
  let delay = lat +. jitter +. reorder in
  if t.mrai <= 0. then
    Event_queue.schedule t.q ~delay (fun () ->
        deliver t ~from ~to_ (Speaker.frame msg))
  else begin
    (* MRAI batching: keep only the latest state per prefix and flush
       the whole batch once per interval. *)
    let key = pack_pair (Asn.to_int from) (Asn.to_int to_) in
    let b =
      match Int_tbl.find_opt t.pending key with
      | Some b -> b
      | None ->
        let b = new_batch () in
        Int_tbl.replace t.pending key b;
        b
    in
    batch_add b msg;
    if not b.scheduled then begin
      b.scheduled <- true;
      Event_queue.schedule t.q ~delay:(t.mrai +. delay) (fun () ->
          b.scheduled <- false;
          (* A batch {!clear_pending} emptied has nothing to flush. *)
          if Prefix.Tbl.length b.latest > 0 then begin
            let n = Prefix.Tbl.length b.latest in
            let frames = frames_of_flush b in
            batch_clear b;
            Metrics.incr (Lazy.force t.c_mrai_flushes);
            Metrics.incr ~by:n (Lazy.force t.c_mrai_batched);
            Trace.emit t.trace ~at:(Event_queue.now t.q)
              (Trace.Mrai_flush
                 { src = Asn.to_int from; dst = Asn.to_int to_; batched = n });
            List.iter (deliver t ~from ~to_) frames
          end)
    end
  end

(* The transport's fate for one frame: lost with a link that went down
   while it was in flight, dropped by the fault model, or received —
   twice when the session layer retransmits it. *)
and deliver t ~from ~to_ frame =
  let now = Event_queue.now t.q in
  let a = Asn.to_int from and b = Asn.to_int to_ in
  if
    (not (Hashtbl.mem t.latencies (lat_key from to_)))
    || match t.fault with Some f -> Fault_model.drop f ~now a b | None -> false
  then begin
    Metrics.incr t.c_dropped;
    note_lost t ~from ~to_ (frame_prefixes frame)
  end
  else begin
    (* The duplicate copy draws its own corruption decision, as a real
       retransmit would. *)
    let dup =
      match t.fault with
      | Some f -> Fault_model.duplicate f ~now a b
      | None -> false
    in
    receive t ~now ~from ~to_ frame;
    if dup then receive t ~now ~from ~to_ frame
  end

(* One copy of a frame arriving: encode it, let the fault model damage
   the bytes, account for it, and hand the bytes to the speaker's robust
   decode.  A damaged attribute block takes the whole frame to
   treat-as-withdraw, a damaged NLRI entry loses only itself. *)
and receive t ~now ~from ~to_ frame =
  let a = Asn.to_int from and b = Asn.to_int to_ in
  let layout = Codec.layout frame in
  let clean = Codec.encode_frame frame in
  let wire, corrupted =
    match t.fault with
    | Some f when Fault_model.corrupt f ~now a b ->
      Metrics.incr (Metrics.counter t.obs "net.corruption.injected");
      (Fault_model.mutate f clean, true)
    | _ -> (clean, false)
  in
  let prefixes = frame_prefixes frame in
  let n = List.length prefixes in
  (* Accounted at the size the sender put on the wire. *)
  let bytes = String.length clean in
  Metrics.incr t.c_messages;
  Metrics.observe t.h_msg_bytes (float_of_int bytes);
  ( match frame with
    | Codec.Routes _ -> Metrics.incr ~by:bytes t.c_announce_bytes
    | Codec.Withdraws _ -> Metrics.incr ~by:n t.c_withdrawals );
  if n > 1 then begin
    Metrics.incr (Lazy.force t.c_batch_frames);
    Metrics.incr ~by:(n - 1) (Lazy.force t.c_batch_saved);
    Metrics.observe (Lazy.force t.h_prefixes_per_frame) (float_of_int n)
  end;
  Trace.emit t.trace ~at:now
    (Trace.Update_received
       { src = a;
         dst = b;
         prefix = Prefix.to_int (List.hd prefixes);
         bytes;
         withdraw = (match frame with Codec.Withdraws _ -> true | _ -> false) });
  let s = speaker t to_ in
  (* With a positive MRAI, receipt only ingests (marks the prefixes
     dirty in the speaker's pipeline); the decision process runs once per
     dirty prefix when the scheduled drain fires. *)
  let defer = t.mrai > 0. in
  let outcome, outbox =
    Speaker.receive_wire ~now ~defer s ~from:(peer_of t from) layout wire
  in
  if corrupted then begin
    (* The damage hit bits the codec could absorb: the routes were
       accepted, or exactly the intended prefixes were withdrawn. *)
    let survived =
      match (frame, outcome) with
      | Codec.Routes _, Speaker.Rx_accepted _ -> true
      | Codec.Withdraws ps, Speaker.Rx_withdrawn ->
        List.equal Prefix.equal (Codec.decode_frame layout wire).Codec.withdrawn ps
      | _ -> false
    in
    if survived then Metrics.incr (Metrics.counter t.obs "net.corruption.survived")
  end;
  drain_reuse t to_ s;
  dispatch t ~from:to_ outbox;
  if defer then schedule_drain t to_ s

(* One pending drain per speaker: the first arrival in a batch schedules
   it, everything landing within the MRAI window coalesces into the same
   flush. *)
and schedule_drain t asn s =
  if Speaker.pending s > 0 then begin
    let flag =
      match Int_tbl.find_opt t.drain_scheduled (Asn.to_int asn) with
      | Some f -> f
      | None ->
        let f = ref false in
        Int_tbl.replace t.drain_scheduled (Asn.to_int asn) f;
        f
    in
    if not !flag then begin
      flag := true;
      Event_queue.schedule t.q ~delay:t.mrai (fun () ->
          flag := false;
          let outbox = Speaker.flush ~now:(Event_queue.now t.q) s in
          Metrics.incr (Lazy.force t.c_pipeline_drains);
          drain_reuse t asn s;
          dispatch t ~from:asn outbox;
          (* A drain can dirty further prefixes (e.g. a decision change
             marked by a concurrent ingest); keep draining until clean. *)
          schedule_drain t asn s)
    end
  end

(* Damping reuse obligations: when a speaker suppressed a route it hands
   us (prefix, time) pairs; re-run its decision process at each time so
   the route returns to service once its penalty has decayed. *)
and drain_reuse t asn s =
  List.iter
    (fun (prefix, at) ->
      let time = Float.max at (Event_queue.now t.q) in
      Event_queue.schedule_at t.q ~time (fun () ->
          let outbox =
            Speaker.reevaluate ~now:(Event_queue.now t.q) s prefix
          in
          drain_reuse t asn s;
          dispatch t ~from:asn outbox))
    (Speaker.take_reuse_events s)

let inverse : Dbgp_bgp.Policy.relationship -> Dbgp_bgp.Policy.relationship =
  function
  | Dbgp_bgp.Policy.To_customer -> Dbgp_bgp.Policy.To_provider
  | Dbgp_bgp.Policy.To_provider -> Dbgp_bgp.Policy.To_customer
  | Dbgp_bgp.Policy.To_peer -> Dbgp_bgp.Policy.To_peer

(* Bring a (possibly recovered) link up from its stored configuration:
   set the latency and (re-)install both neighbor entries. *)
let connect_link t cfg =
  let a = cfg.c_a and b = cfg.c_b in
  let sa = speaker t a and sb = speaker t b in
  Hashtbl.replace t.latencies (lat_key a b) cfg.c_latency;
  let same_island =
    match (Speaker.island_of sa, Speaker.island_of sb) with
    | Some ia, Some ib -> Island_id.equal ia ib
    | _ -> false
  in
  Speaker.add_neighbor sa
    (Speaker.neighbor ~export:cfg.c_a_export
       ~dbgp_capable:cfg.c_b_dbgp ~same_island ~relationship:cfg.c_b_is
       (peer_of t b));
  Speaker.add_neighbor sb
    (Speaker.neighbor ~export:cfg.c_b_export
       ~dbgp_capable:cfg.c_a_dbgp ~same_island
       ~relationship:(inverse cfg.c_b_is) (peer_of t a))

let link t ?(latency = 1.0) ?(a_export = Dbgp_core.Filters.accept)
    ?(b_export = Dbgp_core.Filters.accept) ?(a_dbgp = true) ?(b_dbgp = true)
    ~a ~b ~b_is () =
  if Asn.equal a b then invalid_arg "Network.link: cannot link an AS to itself";
  let cfg =
    { c_latency = latency;
      c_a = a;
      c_b = b;
      c_a_export = a_export;
      c_b_export = b_export;
      c_a_dbgp = a_dbgp;
      c_b_dbgp = b_dbgp;
      c_b_is = b_is }
  in
  Hashtbl.replace t.links (lat_key a b) cfg;
  connect_link t cfg

(* MRAI batches survive across link events as closures over the batch
   table; emptying the table makes an already-scheduled flush a no-op —
   nothing delivered, counted or traced — so a failed link never
   delivers stale pre-failure state. *)
let clear_pending t a b =
  let clear src dst =
    let key = pack_pair (Asn.to_int src) (Asn.to_int dst) in
    match Int_tbl.find_opt t.pending key with
    | Some b ->
      (* Discarded batch contents were never delivered: tell the sender,
         so its Adj-RIB-Out confirmed bits stay truthful for the next
         incremental sync. *)
      ( match Int_tbl.find_opt t.speakers (Asn.to_int src) with
        | Some s -> List.iter (Speaker.note_undelivered s (peer_of t dst)) b.order
        | None -> () );
      batch_clear b;
      Int_tbl.remove t.pending key
    | None -> ()
  in
  clear a b;
  clear b a

(* Loc-RIB routes examined per streaming-transfer event: bounds per-event
   work so a million-prefix sync interleaves with normal traffic. *)
let sync_chunk = 512

(* One direction of a table transfer: chunked, self-rescheduling events
   walking the sender's Loc-RIB cursor.  [full] makes it a route
   refresh: the first step marks every record toward the receiver
   unconfirmed, so the whole table travels and every record no longer
   backed is withdrawn.  Every step (and the trailing End-of-RIB) is
   guarded by the link's restart generation — 0 until the link first
   fails — so a new failure mid-transfer aborts it cleanly. *)
let sync_dir t ~full src dst =
  let key = lat_key src dst in
  let gen () = Option.value (Hashtbl.find_opt t.restart_gen key) ~default:0 in
  let started = gen () in
  let live () = gen () = started && Hashtbl.mem t.latencies key in
  let rec step cursor =
    Event_queue.schedule t.q ~delay:0. (fun () ->
        if live () then begin
          let s = speaker t src and peer = peer_of t dst in
          if full && Option.is_none cursor then Speaker.unconfirm_peer s peer;
          let out, next = Speaker.sync_peer ~limit:sync_chunk ?cursor s peer in
          dispatch t ~from:src out;
          match (next, Int_tbl.find_opt t.speakers (Asn.to_int dst)) with
          | (Some _ as next), _ -> step next
          | None, Some receiver when Speaker.has_stale receiver (peer_of t src)
            ->
            (* End-of-RIB: once everything in flight has had time to
               land (link latency plus an MRAI flush), the receiver
               retains whatever is still stale — exactly the routes the
               transfer skipped as already delivered.  {!Speaker.end_of_rib}
               never drops routes, so a late (jittered) straggler is
               harmless.  A receiver holding nothing stale from the
               sender needs no marker. *)
            Event_queue.schedule t.q ~delay:(latency t src dst +. t.mrai)
              (fun () ->
                if live () then
                  ignore
                    (Speaker.end_of_rib ~now:(Event_queue.now t.q) receiver
                       (peer_of t src)))
          | None, _ -> ()
        end)
  in
  step None

let sync_link t ~full a b =
  sync_dir t ~full a b;
  sync_dir t ~full b a

(* ------------------- cross-partition half links ------------------- *)

(* The local side of a cut edge: install latency, the remote peer and
   the local speaker's neighbor entry.  The remote region installs the
   mirror half from its own [half_cfg]. *)
let connect_half t cfg =
  let s = speaker t cfg.hc_local in
  add_remote_peer t cfg.hc_remote;
  Hashtbl.replace t.latencies (lat_key cfg.hc_local cfg.hc_remote) cfg.hc_latency;
  Speaker.add_neighbor s
    (Speaker.neighbor ~export:cfg.hc_export
       ~dbgp_capable:cfg.hc_remote_dbgp ~same_island:cfg.hc_same_island
       ~relationship:cfg.hc_remote_is (peer_of t cfg.hc_remote))

let half_link t ?(latency = 1.0) ?(export = Dbgp_core.Filters.accept) ?(remote_dbgp = true)
    ?(same_island = false) ~local ~remote ~remote_is () =
  if Asn.equal local remote then
    invalid_arg "Network.half_link: cannot link an AS to itself";
  let cfg =
    { hc_latency = latency;
      hc_local = local;
      hc_remote = remote;
      hc_export = export;
      hc_remote_dbgp = remote_dbgp;
      hc_remote_is = remote_is;
      hc_same_island = same_island }
  in
  Hashtbl.replace t.half_links (lat_key local remote) cfg;
  connect_half t cfg

(* Session loss on a cut edge, local side only: the shard engine fires
   the same event at the same simulated time in the remote region, so
   both halves act in lockstep without any cross-domain call.  Cross
   links never use graceful restart (the restart window would need
   cross-region timers); failure flushes immediately. *)
let fail_half t local remote =
  Hashtbl.remove t.latencies (lat_key local remote);
  clear_pending t local remote;
  let s = speaker t local in
  let now = Event_queue.now t.q in
  let out = Speaker.peer_down ~now s (peer_of t remote) in
  Event_queue.schedule t.q ~delay:0. (fun () -> dispatch t ~from:local out)

let recover_half t local remote =
  match Hashtbl.find_opt t.half_links (lat_key local remote) with
  | None -> invalid_arg "Network.recover_half: half link was never configured"
  | Some cfg ->
    if not (Hashtbl.mem t.latencies (lat_key local remote)) then begin
      connect_half t cfg;
      (* Cross-partition recovery resynchronizes with a full route
         refresh (incremental sync would need the peer's restart
         window, which lives in another region). *)
      sync_dir t ~full:true local remote
    end

(* Ingest one cross-partition arrival, drained from a mailbox at an
   epoch boundary and scheduled at its precomputed arrival time.
   Returns the prefix to NACK back to the sending region when the
   message dies on a link that went down while it crossed the cut —
   the sender's Adj-RIB-Out confirmed bits must learn about the loss,
   and the only route back is the mailbox in the other direction.
   Cross links see no fault model (the partitioner pins faulty links
   intra-region), so no PRNG draw happens here. *)
let deliver_remote t ~from ~to_ msg =
  let now = Event_queue.now t.q in
  if not (Hashtbl.mem t.latencies (lat_key from to_)) then begin
    Metrics.incr t.c_dropped;
    Some (prefix_of_msg msg)
  end
  else begin
    receive t ~now ~from ~to_ (Speaker.frame msg);
    None
  end

(* Apply a NACK from the region that dropped our message:
   [Speaker.note_undelivered] is time-independent, so it is sound to
   apply at mailbox-drain time, one epoch after the drop. *)
let apply_nack t ~local ~remote prefix =
  match Int_tbl.find_opt t.speakers (Asn.to_int local) with
  | Some s -> Speaker.note_undelivered s (peer_of t remote) prefix
  | None -> ()

let bump_restart_gen t key =
  let g = 1 + Option.value (Hashtbl.find_opt t.restart_gen key) ~default:0 in
  Hashtbl.replace t.restart_gen key g;
  g

let fail_link t a b =
  Hashtbl.remove t.latencies (lat_key a b);
  clear_pending t a b;
  let sa = speaker t a and sb = speaker t b in
  match t.graceful_window with
  | Some window ->
    (* Graceful restart: both sides retain the peer's routes as stale and
       keep forwarding; a timer closes the restart window and flushes
       whatever the (possibly returned) peer did not refresh. *)
    let now = Event_queue.now t.q in
    Speaker.peer_down_graceful ~now sa (peer_of t b);
    Speaker.peer_down_graceful ~now sb (peer_of t a);
    let gen = bump_restart_gen t (lat_key a b) in
    Hashtbl.replace t.restart_deadline (lat_key a b) (now +. window);
    Event_queue.schedule t.q ~delay:window (fun () ->
        if Hashtbl.find_opt t.restart_gen (lat_key a b) = Some gen then begin
          Hashtbl.remove t.restart_deadline (lat_key a b);
          let now = Event_queue.now t.q in
          let out_a = Speaker.flush_stale ~now sa (peer_of t b) in
          let out_b = Speaker.flush_stale ~now sb (peer_of t a) in
          drain_reuse t a sa;
          drain_reuse t b sb;
          dispatch t ~from:a out_a;
          dispatch t ~from:b out_b
        end)
  | None ->
    let now = Event_queue.now t.q in
    let out_a = Speaker.peer_down ~now sa (peer_of t b) in
    let out_b = Speaker.peer_down ~now sb (peer_of t a) in
    Event_queue.schedule t.q ~delay:0. (fun () -> dispatch t ~from:a out_a);
    Event_queue.schedule t.q ~delay:0. (fun () -> dispatch t ~from:b out_b)

let recover_link t a b =
  match Hashtbl.find_opt t.links (lat_key a b) with
  | None -> invalid_arg "Network.recover_link: link was never configured"
  | Some cfg ->
    if not (Hashtbl.mem t.latencies (lat_key a b)) then begin
      connect_link t cfg;
      (* Re-establishing inside an open restart window stops the pending
         stale flush (RFC 4724's restart-timer stop on session
         re-establishment) and streams an incremental sync — both sides
         kept state, so only the delta travels.  Outside a window the
         peers' views may have diverged arbitrarily (stale state already
         flushed, or no graceful mode at all): the same transfer runs as
         a full route refresh. *)
      let within_window =
        match Hashtbl.find_opt t.restart_deadline (lat_key a b) with
        | Some deadline -> Event_queue.now t.q < deadline
        | None -> false
      in
      ignore (bump_restart_gen t (lat_key a b));
      Hashtbl.remove t.restart_deadline (lat_key a b);
      sync_link t ~full:(not within_window) a b
    end

(* Permanent administrative teardown, as opposed to [fail_link]'s
   session loss: the configuration is forgotten (no [recover_link]), and
   both speakers run {!Speaker.remove_neighbor} — erasing Adj-RIB-In,
   Adj-RIB-Out, stale marks, group membership and flap-damping state for
   the peer. *)
let unlink t a b =
  match Hashtbl.find_opt t.links (lat_key a b) with
  | None -> invalid_arg "Network.unlink: link was never configured"
  | Some _ ->
    Hashtbl.remove t.latencies (lat_key a b);
    Hashtbl.remove t.links (lat_key a b);
    clear_pending t a b;
    ignore (bump_restart_gen t (lat_key a b));
    let sa = speaker t a and sb = speaker t b in
    let now = Event_queue.now t.q in
    let out_a = Speaker.remove_neighbor ~now sa (peer_of t b) in
    let out_b = Speaker.remove_neighbor ~now sb (peer_of t a) in
    Event_queue.schedule t.q ~delay:0. (fun () -> dispatch t ~from:a out_a);
    Event_queue.schedule t.q ~delay:0. (fun () -> dispatch t ~from:b out_b)

(* In a shard region, [latencies] also holds the local half of every
   cut edge; its far speaker lives in another region, which refreshes
   the mirror direction itself, so only the local direction runs here
   (as in [recover_half]). *)
let refresh_all t =
  Hashtbl.iter
    (fun key _ ->
      match Hashtbl.find_opt t.half_links key with
      | Some cfg -> sync_dir t ~full:true cfg.hc_local cfg.hc_remote
      | None ->
        sync_link t ~full:true (Asn.of_int (key lsr 31))
          (Asn.of_int (key land 0x7FFF_FFFF)))
    t.latencies

let schedule_flap t ~down_at ~up_at a b =
  if up_at <= down_at then
    invalid_arg "Network.schedule_flap: up_at must follow down_at";
  Event_queue.schedule_at t.q ~time:down_at (fun () -> fail_link t a b);
  Event_queue.schedule_at t.q ~time:up_at (fun () -> recover_link t a b)

let originate t a ia =
  Event_queue.schedule t.q ~delay:0. (fun () ->
      let s = speaker t a in
      let outbox = Speaker.originate ~now:(Event_queue.now t.q) s ia in
      dispatch t ~from:a outbox)

let inject t ~from ~to_ msg =
  Event_queue.schedule t.q ~delay:0. (fun () ->
      Metrics.incr t.c_messages;
      let s = speaker t to_ in
      let outbox =
        Speaker.receive ~now:(Event_queue.now t.q) s ~from msg
      in
      drain_reuse t (Speaker.asn s) s;
      dispatch t ~from:(Speaker.asn s) outbox)

let reevaluate t a prefix =
  Event_queue.schedule t.q ~delay:0. (fun () ->
      let s = speaker t a in
      let outbox = Speaker.reevaluate ~now:(Event_queue.now t.q) s prefix in
      drain_reuse t a s;
      dispatch t ~from:a outbox)

let withdraw_origin t a prefix =
  Event_queue.schedule t.q ~delay:0. (fun () ->
      let s = speaker t a in
      let outbox = Speaker.withdraw_origin ~now:(Event_queue.now t.q) s prefix in
      dispatch t ~from:a outbox)

let readvertise_all t a =
  Event_queue.schedule t.q ~delay:0. (fun () ->
      let s = speaker t a in
      let outbox = Speaker.readvertise_all s in
      dispatch t ~from:a outbox)

let set_interposer t f = t.interposer <- f

let set_mrai t v =
  if v < 0. then invalid_arg "Network.set_mrai: negative interval" else t.mrai <- v

(* Batched wire delivery is the only delivery path; these remain so
   callers that ask for it keep working. *)
let only_path name v =
  if not v then invalid_arg (name ^ ": batched wire delivery is the only path")

let set_wire_delivery _ v = only_path "Network.set_wire_delivery" v
let set_batching _ v = only_path "Network.set_batching" v

(* Stats as of now; [events]/[exhausted] are the caller's because only
   it knows how many queue events this run accounted for (the sharded
   engine drives the queue itself across many epochs). *)
let stats_now t ~events ~exhausted =
  { messages = Metrics.count t.c_messages;
    announce_bytes = Metrics.count t.c_announce_bytes;
    withdrawals = Metrics.count t.c_withdrawals;
    dropped =
      Metrics.count t.c_dropped
      + (match t.fault with Some f -> Fault_model.dropped f | None -> 0);
    events;
    converged_at = Event_queue.now t.q;
    exhausted }

let run ?max_events t =
  let events = Event_queue.run ?max_events t.q in
  stats_now t ~events ~exhausted:(Event_queue.budget_exhausted t.q)

let asns t =
  Int_tbl.fold (fun a _ acc -> Asn.of_int a :: acc) t.speakers []
  |> List.sort Asn.compare

let stale_total t =
  Int_tbl.fold (fun _ s acc -> acc + Speaker.stale_count s) t.speakers 0

(* ------------------------- observability ------------------------- *)

(* Sum one named counter across every speaker's registry. *)
let counter_total t name =
  Int_tbl.fold
    (fun _ s acc ->
      match Metrics.find_counter (Speaker.metrics s) name with
      | Some c -> acc + Metrics.count c
      | None -> acc)
    t.speakers 0

(* Per-speaker convergence time: the simulation time of the last best-path
   change, for every speaker whose decision process changed state at least
   once.  The distribution of these is the network's convergence profile. *)
let convergence_times t =
  Int_tbl.fold
    (fun _ s acc ->
      let m = Speaker.metrics s in
      let changed =
        match Metrics.find_counter m "decision.changes" with
        | Some c -> Metrics.count c > 0
        | None -> false
      in
      if not changed then acc
      else
        match Metrics.find_gauge m "decision.last_change_at" with
        | Some g -> Metrics.value g :: acc
        | None -> acc)
    t.speakers []
  |> List.sort compare

let speaker_counter_names =
  [ "decision.runs"; "decision.changes"; "updates.received";
    "updates.duplicate"; "withdrawals.received"; "import.rejected";
    "damping.suppressed"; "damping.reused"; "restart.stale_marked";
    "restart.flushed"; "restart.retained"; "sync.sent"; "sync.skipped";
    "sync.withdrawn"; "errors.discard_attribute";
    "errors.treat_as_withdraw"; "errors.session_reset"; "errors.internal";
    "pipeline.dirty_marks"; "pipeline.runs_saved"; "pipeline.drains";
    "pipeline.export_cache.hits"; "pipeline.export_cache.misses" ]

let snapshot ?(recent_events = 0) t =
  let speaker_totals =
    List.filter_map
      (fun name ->
        match counter_total t name with
        | 0 -> None
        | v -> Some (name, Snapshot.Int v))
      speaker_counter_names
  in
  let fields =
    [ ("at", Snapshot.Float (Event_queue.now t.q));
      ("network", Snapshot.of_metrics t.obs);
      ( "speakers",
        Snapshot.Obj
          (("count", Snapshot.Int (Int_tbl.length t.speakers))
           :: speaker_totals) );
      ( "convergence",
        Snapshot.Obj (Snapshot.percentile_fields (convergence_times t)) ) ]
  in
  let fields =
    if recent_events > 0 then
      fields @ [ ("trace", Snapshot.of_trace ~last:recent_events t.trace) ]
    else fields
  in
  Snapshot.Obj fields
