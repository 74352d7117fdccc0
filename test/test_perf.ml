(* Hot-path correctness suite: the properties the allocation work must
   not break.

   - the heap-backed {!Dbgp_netsim.Event_queue} dequeues exactly like a
     Map-based reference model over randomized interleavings, including
     same-time FIFO ties and events scheduled mid-run;
   - the attribute table makes stored copies of one set physical, and a
     set another peer still holds survives
     {!Dbgp_core.Speaker.remove_neighbor};
   - the receive-side decode memo stays bounded under fuzz-grade input
     and never memoizes damaged wires;
   - the encode cache serves byte-identical (and physically shared)
     wires. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Codec = Dbgp_core.Codec
module Ia = Dbgp_core.Ia
module Peer = Dbgp_core.Peer
module Event_queue = Dbgp_netsim.Event_queue
module Policy = Dbgp_bgp.Policy
module E = Dbgp_eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------- event queue vs reference model ------------------- *)

(* Deterministic splitmix-style PRNG so the 10k interleavings are
   reproducible without depending on qcheck state. *)
let prng seed =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  fun bound ->
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod bound

(* Reference model: a Map keyed by (time, seq) — the documented dequeue
   order.  Both sides schedule the same events (roots up front, children
   from inside executing events, by the same deterministic rule), so the
   execution orders match iff the heap pops in (time, seq) order with
   FIFO ties. *)
module Ref_model = struct
  module M = Map.Make (struct
    type t = float * int

    let compare (t1, s1) (t2, s2) =
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
  end)

  type t = { mutable pending : int M.t; mutable seq : int }

  let create () = { pending = M.empty; seq = 0 }

  let schedule m ~time id =
    m.pending <- M.add (time, m.seq) id m.pending;
    m.seq <- m.seq + 1

  (* Runs to exhaustion; [child] is consulted on every pop with the
     popped id and its time, returning children to schedule. *)
  let run m ~child =
    let order = ref [] in
    let rec loop () =
      match M.min_binding_opt m.pending with
      | None -> ()
      | Some ((time, seq), id) ->
        m.pending <- M.remove (time, seq) m.pending;
        order := id :: !order;
        List.iter (fun (dt, cid) -> schedule m ~time:(time +. dt) cid)
          (child ~id ~time);
        loop ()
    in
    loop ();
    List.rev !order
end

(* One randomized interleaving: [n] root events over a coarse time grid
   (collisions are the point — same-time events must pop FIFO), where
   some events schedule children mid-run, possibly at zero delay (a
   same-time tie created while that very timestamp is being drained). *)
let one_interleaving seed =
  let rand = prng seed in
  let n = 3 + rand 10 in
  let child_rule ~id ~time:_ =
    (* Depth is encoded in the id: roots are < 1000, children ≥ 1000.
       One generation of children keeps the model finite. *)
    if id < 1000 && (id + seed) mod 3 = 0 then
      [ (float_of_int ((id + seed) mod 4) /. 2., 1000 + id) ]
    else []
  in
  (* Real queue. *)
  let q = Event_queue.create () in
  let order_real = ref [] in
  let rec fire id () =
    order_real := id :: !order_real;
    List.iter
      (fun (dt, cid) -> Event_queue.schedule q ~delay:dt (fire cid))
      (child_rule ~id ~time:(Event_queue.now q))
  in
  let times = Array.init n (fun _ -> float_of_int (rand 5) /. 2.) in
  Array.iteri (fun i t -> Event_queue.schedule_at q ~time:t (fire i)) times;
  let executed = Event_queue.run q in
  (* Reference model, same roots, same child rule. *)
  let m = Ref_model.create () in
  Array.iteri (fun i t -> Ref_model.schedule m ~time:t i) times;
  let order_model = Ref_model.run m ~child:child_rule in
  let order_real = List.rev !order_real in
  if order_real <> order_model then
    Alcotest.failf "seed %d: heap order %s <> model order %s" seed
      (String.concat "," (List.map string_of_int order_real))
      (String.concat "," (List.map string_of_int order_model));
  check_int "executed count" (List.length order_model) executed

let test_heap_matches_reference_model () =
  for seed = 1 to 10_000 do
    one_interleaving seed
  done

let test_budget_exhaustion_signal () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    Event_queue.schedule q ~delay:(float_of_int i) ignore
  done;
  check_int "bounded run executes the budget" 2
    (Event_queue.run ~max_events:2 q);
  check "budget exhausted reported" true (Event_queue.budget_exhausted q);
  check_int "queue kept the remainder" 3 (Event_queue.pending q);
  check_int "second run drains" 3 (Event_queue.run q);
  check "drained run clears the flag" false (Event_queue.budget_exhausted q);
  (* End to end through Network/Harness: a too-small budget is surfaced,
     the unbounded control is not. *)
  let probe = E.Stress.run_budget_probe ~ases:12 ~budget:5 () in
  check "probe surfaces exhaustion" true probe.E.Stress.budget_exhausted;
  check "probe ran exactly the budget" true (probe.E.Stress.events_run <= 5)

(* --------------- flat route state vs reference models --------------- *)

module Loc_rib = Dbgp_core.Loc_rib
module Adj_rib_in = Dbgp_core.Adj_rib_in

(* A random prefix inside 10.0.0.0/8, lengths 8-32, drawn from a pool
   small enough that keys are often removed and added again, with
   nested lengths so longest-prefix matches have several candidates. *)
let pool_prefix rand pool =
  let i = rand pool in
  let len = 8 + (i * 7 mod 25) in
  Prefix.make (Ipv4.of_int ((10 lsl 24) lor (i * 40503 land 0xFFFFFF))) len

let pp_keys ps = String.concat "," (List.map Prefix.to_string ps)

(* The chunk the old [Prefix.Map] cursor returned: at most [limit]
   bindings strictly above [above], and the last of them as the cursor
   when more remain. *)
let model_chunk model ~above ~limit =
  let rest =
    Prefix.Map.bindings model
    |> List.filter (fun (p, _) ->
           match above with None -> true | Some a -> Prefix.compare p a > 0)
  in
  let rec take n acc = function
    | [] -> (List.rev acc, None)
    | _ :: _ when n = 0 -> (List.rev acc, Some (fst (List.hd acc)))
    | b :: tl -> take (n - 1) (b :: acc) tl
  in
  take limit [] rest

(* Deepest hop-bearing model route containing [a]. *)
let model_lpm model a =
  Prefix.Map.fold
    (fun p ((_, hop) as v) best ->
      if Prefix.mem a p && hop <> None then
        match best with
        | Some (q, _) when Prefix.length q >= Prefix.length p -> best
        | _ -> Some (p, v)
      else best)
    model None

(* One interleaving of writes and chunked cursor walks, with reads
   checked against the model after every step.  Up to three cursors
   are open at once, so keys change between the chunks of a walk;
   bursts of adds push the key set past the sorted view's size. *)
let loc_rib_interleaving seed =
  let rand = prng seed in
  let pool = 8 + rand 120 in
  let loc = Loc_rib.create ~next_hop:snd () in
  let model = ref Prefix.Map.empty in
  let cursors = ref [] in
  let fail what = Alcotest.failf "seed %d: %s" seed what in
  let write () =
    let p = pool_prefix rand pool in
    if rand 3 = 0 then begin
      Loc_rib.remove loc p;
      model := Prefix.Map.remove p !model
    end
    else begin
      let v =
        (rand 1000, if rand 4 = 0 then None else Some (Ipv4.of_int (rand 50)))
      in
      Loc_rib.set loc p v;
      model := Prefix.Map.add p v !model
    end
  in
  let step () =
    match rand 10 with
    | 0 -> for _ = 1 to 1 + rand 40 do write () done
    | 1 | 2 -> (
      match !cursors with
      | above :: rest ->
        let limit = 1 + rand 6 in
        let got, next =
          Loc_rib.fold_range loc ~above ~limit
            ~f:(fun p v acc -> (p, v) :: acc)
            ~init:[]
        in
        let want, want_next = model_chunk !model ~above ~limit in
        if List.rev got <> want || next <> want_next then
          fail
            (Printf.sprintf "chunk above %s: got [%s] want [%s]"
               (match above with Some a -> Prefix.to_string a | None -> "-")
               (pp_keys (List.map fst (List.rev got)))
               (pp_keys (List.map fst want)));
        cursors :=
          (match next with None -> rest | Some _ -> rest @ [ next ])
      | [] -> () )
    | 3 -> if List.length !cursors < 3 then cursors := None :: !cursors
    | 4 ->
      let a = Ipv4.of_int ((10 lsl 24) lor rand 0x1000000) in
      if Loc_rib.next_hop loc a
         <> Option.bind (model_lpm !model a) (fun (_, v) -> snd v)
      then fail "next_hop"
    | _ -> write ()
  in
  for _ = 1 to 60 + rand 60 do
    step ();
    let p = pool_prefix rand pool in
    if Loc_rib.find loc p <> Prefix.Map.find_opt p !model then fail "find";
    if Loc_rib.cardinal loc <> Prefix.Map.cardinal !model then fail "cardinal"
  done;
  if Loc_rib.bindings loc <> Prefix.Map.bindings !model then fail "bindings";
  if Loc_rib.fold (fun p _ acc -> p :: acc) loc []
     <> Prefix.Map.fold (fun p _ acc -> p :: acc) !model []
  then fail "fold"

let test_loc_rib_matches_model () =
  for seed = 1 to 2_000 do
    loc_rib_interleaving seed
  done

(* Stale marks against a [Prefix.Set] per peer, over random route
   writes, marks, clears, takes and peer drops. *)
let stale_interleaving seed =
  let rand = prng seed in
  let pool = 4 + rand 60 in
  let peers = Array.init 3 (fun i -> Peer.make ~asn:(Asn.of_int (65000 + i)) ~addr:(Ipv4.of_int (i + 1))) in
  let db = Adj_rib_in.create () in
  let held = Array.make 3 Prefix.Set.empty in
  let marks = Array.make 3 Prefix.Set.empty in
  let fail what = Alcotest.failf "seed %d: %s" seed what in
  for _ = 1 to 80 + rand 80 do
    let i = rand 3 in
    let peer = peers.(i) and p = pool_prefix rand pool in
    ( match rand 12 with
      | 0 | 1 | 2 | 3 ->
        Adj_rib_in.set db ~peer p ();
        held.(i) <- Prefix.Set.add p held.(i)
      | 4 ->
        Adj_rib_in.remove db ~peer p;
        held.(i) <- Prefix.Set.remove p held.(i)
      | 5 ->
        let want =
          if Prefix.Set.is_empty held.(i) then 0
          else begin
            marks.(i) <- Prefix.Set.union marks.(i) held.(i);
            Prefix.Set.cardinal marks.(i)
          end
        in
        if Adj_rib_in.mark_stale db ~peer <> want then fail "mark_stale"
      | 6 | 7 ->
        Adj_rib_in.clear_stale db ~peer p;
        marks.(i) <- Prefix.Set.remove p marks.(i)
      | 8 ->
        if Adj_rib_in.take_stale db ~peer <> Prefix.Set.elements marks.(i) then
          fail "take_stale";
        marks.(i) <- Prefix.Set.empty
      | 9 ->
        ignore (Adj_rib_in.drop_peer db ~peer);
        held.(i) <- Prefix.Set.empty;
        marks.(i) <- Prefix.Set.empty
      | _ -> () );
    if Adj_rib_in.is_stale db ~peer p <> Prefix.Set.mem p marks.(i) then
      fail "is_stale";
    if Adj_rib_in.has_stale db ~peer <> not (Prefix.Set.is_empty marks.(i))
    then fail "has_stale";
    if Adj_rib_in.stale_count db
       <> Array.fold_left (fun n s -> n + Prefix.Set.cardinal s) 0 marks
    then fail "stale_count"
  done

let test_stale_marks_match_model () =
  for seed = 1 to 2_000 do
    stale_interleaving seed
  done

(* ----------------------------- interning ----------------------------- *)

(* Decoding does not intern path vectors; the attribute table does the
   sharing once a route is stored.  Two peers deliver byte-identical
   copies: the speaker stores one physical set for both. *)
let test_intern_structural_implies_physical () =
  let s =
    Speaker.create
      (Speaker.config ~asn:(Asn.of_int 5) ~addr:(Ipv4.of_octets 10 0 0 5) ())
  in
  let p1 = Peer.make ~asn:(Asn.of_int 1) ~addr:(Ipv4.of_octets 10 0 0 1)
  and p2 = Peer.make ~asn:(Asn.of_int 2) ~addr:(Ipv4.of_octets 10 0 0 2) in
  List.iter
    (fun p -> Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer p))
    [ p1; p2 ];
  let prefix = Prefix.of_string "99.1.0.0/24" in
  let ia =
    Ia.prepend_as (Asn.of_int 3)
      (Ia.originate ~prefix ~origin_asn:(Asn.of_int 4)
         ~next_hop:(Ipv4.of_octets 10 0 0 1) ())
  in
  let wire = Codec.encode ia in
  let d1 = Codec.decode wire and d2 = Codec.decode wire in
  check "decoded copies are fresh" false (d1.Ia.path_vector == d2.Ia.path_vector);
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce d1));
  ignore (Speaker.receive s ~from:p2 (Speaker.Announce d2));
  match Speaker.candidates_for s prefix with
  | [ (_, a); (_, b) ] ->
    check "stored sets share storage" true
      (a.Ia.path_vector == b.Ia.path_vector
      && a.Ia.path_descriptors == b.Ia.path_descriptors)
  | _ -> Alcotest.fail "two candidates"

(* A teardown releases only the removed peer's references: a set another
   peer still holds stays resident, and re-learning it from the removed
   peer shares it again. *)
let test_intern_survives_remove_neighbor () =
  let mk n =
    Speaker.create
      (Speaker.config ~passthrough:true ~asn:(Asn.of_int n)
         ~addr:(Ipv4.of_octets 10 0 0 n) ())
  in
  let s = mk 5 in
  let p1 = Peer.make ~asn:(Asn.of_int 1) ~addr:(Ipv4.of_octets 10 0 0 1)
  and p2 = Peer.make ~asn:(Asn.of_int 2) ~addr:(Ipv4.of_octets 10 0 0 2) in
  let prefix = Prefix.of_string "99.2.0.0/24" in
  let announce () =
    let ia =
      Ia.prepend_as (Asn.of_int 3)
        (Ia.originate ~prefix ~origin_asn:(Asn.of_int 4)
           ~next_hop:(Ipv4.of_octets 10 0 0 1) ())
    in
    Codec.decode (Codec.encode ia)
  in
  let add p =
    Speaker.add_neighbor s (Speaker.neighbor ~relationship:Policy.To_customer p)
  in
  add p1;
  add p2;
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  ignore (Speaker.receive s ~from:p2 (Speaker.Announce (announce ())));
  let path_of_peer p =
    match List.assoc_opt p (Speaker.candidates_for s prefix) with
    | Some ia -> ia.Ia.path_vector
    | None -> Alcotest.fail "candidate missing"
  in
  let before = path_of_peer p2 in
  ignore (Speaker.remove_neighbor s p1);
  check "p2's route kept" true (path_of_peer p2 == before);
  add p1;
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  check "re-learned path physically equal to the resident set" true
    (path_of_peer p1 == before);
  ignore (Speaker.remove_neighbor s p1);
  ignore (Speaker.remove_neighbor s p2);
  check "route gone after removal" true (Speaker.best s prefix = None)

(* --------------------------- decode memo ----------------------------- *)

let test_decode_memo_bounded_under_fuzz () =
  Codec.wire_metrics_reset ();
  let rand = prng 77 in
  let distinct = 4 * Codec.For_tests.decode_memo_capacity in
  for i = 0 to distinct - 1 do
    let ia =
      Ia.originate
        ~prefix:
          (Prefix.of_string
             (Printf.sprintf "10.%d.%d.0/24" (i / 256 mod 256) (i mod 256)))
        ~origin_asn:(Asn.of_int (1 + (i mod 1000)))
        ~next_hop:(Ipv4.of_octets 10 0 0 1) ()
    in
    let wire = Codec.encode ia in
    (* Half the traffic is damaged: flip a byte or truncate. *)
    let wire =
      match rand 4 with
      | 0 ->
        let b = Bytes.of_string wire in
        let at = rand (Bytes.length b) in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 + rand 255)));
        Bytes.to_string b
      | 1 -> String.sub wire 0 (rand (String.length wire))
      | _ -> wire
    in
    ignore (Codec.decode_robust wire)
  done;
  check "memo residency bounded by capacity" true
    (Codec.For_tests.decode_memo_residency () <= Codec.For_tests.decode_memo_capacity)

let test_decode_memo_never_caches_damage () =
  Codec.wire_metrics_reset ();
  let ia =
    Ia.originate ~prefix:(Prefix.of_string "99.3.0.0/24")
      ~origin_asn:(Asn.of_int 3) ~next_hop:(Ipv4.of_octets 10 0 0 3) ()
  in
  let wire = Codec.encode ia in
  let truncated = String.sub wire 0 (String.length wire - 2) in
  let outcome () =
    match Codec.decode_robust truncated with
    | Ok (_, []) -> "clean"
    | Ok (_, _ :: _) -> "salvaged"
    | Error _ -> "error"
  in
  let first = outcome () in
  check "damaged wire is not clean" true (first <> "clean");
  (* A memoized damaged wire would come back [Ok (ia, [])] — "clean" —
     on the second decode and drop the error accounting. *)
  Alcotest.(check string) "replay reports the damage again" first (outcome ())

(* --------------------------- encode cache ---------------------------- *)

let test_encode_cache_correct () =
  let ia =
    Ia.originate ~prefix:(Prefix.of_string "99.4.0.0/24")
      ~origin_asn:(Asn.of_int 4) ~next_hop:(Ipv4.of_octets 10 0 0 4) ()
  in
  let raw = Codec.encode ia in
  let c1 = Codec.encode_cached ia in
  let c2 = Codec.encode_cached ia in
  Alcotest.(check string) "cached bytes identical to raw encode" raw c1;
  check "repeat encode served from cache (physically shared)" true (c1 == c2);
  check "size agrees" true (Codec.size ia = String.length raw)

let () =
  Alcotest.run "perf"
    [ ("event-queue",
       [ Alcotest.test_case "heap = Map reference model" `Quick
           test_heap_matches_reference_model;
         Alcotest.test_case "budget exhaustion surfaced" `Quick
           test_budget_exhaustion_signal ]);
      ("flat-route-state",
       [ Alcotest.test_case "loc-rib = Map reference model" `Quick
           test_loc_rib_matches_model;
         Alcotest.test_case "stale marks = Set reference model" `Quick
           test_stale_marks_match_model ]);
      ("interning",
       [ Alcotest.test_case "structural implies physical" `Quick
           test_intern_structural_implies_physical;
         Alcotest.test_case "survives remove_neighbor" `Quick
           test_intern_survives_remove_neighbor ]);
      ("wire-caches",
       [ Alcotest.test_case "decode memo bounded under fuzz" `Quick
           test_decode_memo_bounded_under_fuzz;
         Alcotest.test_case "decode memo never caches damage" `Quick
           test_decode_memo_never_caches_damage;
         Alcotest.test_case "encode cache correct" `Quick
           test_encode_cache_correct ]) ]
