(* Hot-path correctness suite: the properties the allocation work must
   not break.

   - the heap-backed {!Dbgp_netsim.Event_queue} dequeues exactly like a
     Map-based reference model over randomized interleavings, including
     same-time FIFO ties and events scheduled mid-run;
   - hash-consed interning makes structural equality physical, and the
     tables survive {!Dbgp_core.Speaker.remove_neighbor};
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

(* ----------------------------- interning ----------------------------- *)

let fresh_path n =
  (* Rebuilt from scratch each call: structurally equal, physically new. *)
  List.init n (fun i -> Path_elem.as_ (Asn.of_int (100 + i)))

let test_intern_structural_implies_physical () =
  let a = Intern.path_vector (fresh_path 6) in
  let b = Intern.path_vector (fresh_path 6) in
  check "interned vectors share storage" true (a == b);
  let e1 = Intern.path_elem (Path_elem.as_ (Asn.of_int 7)) in
  let e2 = Intern.path_elem (Path_elem.as_ (Asn.of_int 7)) in
  check "interned elements share storage" true (e1 == e2);
  (* Tail sharing: prepending onto an interned vector interns only the
     new cell. *)
  let longer = Intern.path_vector (Path_elem.as_ (Asn.of_int 1) :: a) in
  check "tail shared physically" true (List.tl longer == a);
  (* Decoding the same wire twice yields physically shared vectors. *)
  let ia =
    Ia.originate ~prefix:(Prefix.of_string "99.1.0.0/24")
      ~origin_asn:(Asn.of_int 1) ~next_hop:(Ipv4.of_octets 10 0 0 1) ()
  in
  let wire = Codec.encode ia in
  let d1 = Codec.decode wire and d2 = Codec.decode wire in
  check "decoded path vectors interned" true
    (d1.Ia.path_vector == d2.Ia.path_vector)

let test_intern_survives_remove_neighbor () =
  let mk n =
    Speaker.create
      (Speaker.config ~passthrough:true ~asn:(Asn.of_int n)
         ~addr:(Ipv4.of_octets 10 0 0 n) ())
  in
  let s = mk 5 in
  let p1 = Peer.make ~asn:(Asn.of_int 1) ~addr:(Ipv4.of_octets 10 0 0 1) in
  let announce () =
    let ia =
      Ia.originate ~prefix:(Prefix.of_string "99.2.0.0/24")
        ~origin_asn:(Asn.of_int 1) ~next_hop:(Ipv4.of_octets 10 0 0 1) ()
    in
    Codec.decode (Codec.encode ia)
  in
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer p1);
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  let before =
    match Speaker.best s (Prefix.of_string "99.2.0.0/24") with
    | Some c -> c.Speaker.candidate.Dbgp_core.Decision_module.ia.Ia.path_vector
    | None -> Alcotest.fail "route installed"
  in
  ignore (Speaker.remove_neighbor s p1);
  check "route gone after removal" true
    (Speaker.best s (Prefix.of_string "99.2.0.0/24") = None);
  (* Re-add and re-learn: the global intern tables were untouched by the
     teardown, so the re-learned route shares the same physical path. *)
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer p1);
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  ( match Speaker.best s (Prefix.of_string "99.2.0.0/24") with
    | Some c ->
      check "re-learned path physically equal to pre-removal path" true
        (c.Speaker.candidate.Dbgp_core.Decision_module.ia.Ia.path_vector
         == before)
    | None -> Alcotest.fail "route re-installed" )

(* --------------------------- decode memo ----------------------------- *)

let test_decode_memo_bounded_under_fuzz () =
  Codec.decode_memo_reset ();
  let rand = prng 77 in
  let distinct = 4 * Codec.decode_memo_capacity in
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
    (Codec.decode_memo_residency () <= Codec.decode_memo_capacity)

let test_decode_memo_never_caches_damage () =
  Codec.decode_memo_reset ();
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
