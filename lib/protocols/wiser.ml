open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Dm = Dbgp_core.Decision_module

let protocol = Protocol_id.wiser
let field_cost = "wiser-cost"
let field_portal = "wiser-portal"
let service = "wiser"

type config = {
  my_island : Island_id.t;
  internal_cost : int;
  portal : Ipv4.t;
  io : Portal_io.t;
}

type t = {
  cfg : config;
  received : (int, int * int) Hashtbl.t;   (* portal -> (sum, count) of raw costs *)
  mutable advertised : int * int;          (* (sum, count) of costs I advertise *)
  factors : (int, float) Hashtbl.t;
  (* Load feedback (the divergence-lab gadget): downstream observers
     post the demand they send through this egress at its portal; the
     egress folds [demand * demand_sensitivity] into the cost it
     advertises.  With a high enough sensitivity the cost signal chases
     the traffic it attracts — a control loop through the out-of-band
     gossip channel rather than through BGP messages. *)
  mutable demand : int;
  mutable demand_sensitivity : int;
}

let create cfg =
  { cfg; received = Hashtbl.create 8; advertised = (0, 0);
    factors = Hashtbl.create 8; demand = 0; demand_sensitivity = 0 }

let cost_of ia =
  Option.bind (Ia.find_path_descriptor ~proto:protocol ~field:field_cost ia)
    Value.as_int

let upstream_portal ~my_island ia =
  (* Walk the path vector front (nearest) to back; the first island that
     advertises a Wiser portal and is not mine is the upstream island we
     must scale against. *)
  let portal_of island =
    Option.bind
      (Ia.find_island_descriptor ~island ~proto:protocol ~field:field_portal ia)
      Value.as_addr
  in
  let island_of_elem = function
    | Path_elem.Island i -> Some i
    | Path_elem.As a -> Ia.island_of_asn ia a
    | Path_elem.As_set _ -> None
  in
  List.find_map
    (fun elem ->
      match island_of_elem elem with
      | Some i when not (Island_id.equal i my_island) -> portal_of i
      | _ -> None)
    ia.Ia.path_vector

let scaling_factor t ~portal =
  Option.value (Hashtbl.find_opt t.factors (Ipv4.to_int portal)) ~default:1.0

let record_received t portal cost =
  let key = Ipv4.to_int portal in
  let sum, count = Option.value (Hashtbl.find_opt t.received key) ~default:(0, 0) in
  Hashtbl.replace t.received key (sum + cost, count + 1)

let clamp lo hi x = Float.max lo (Float.min hi x)

let exchange_costs t =
  let sum, count = t.advertised in
  t.cfg.io.Portal_io.post ~portal:t.cfg.portal ~service ~key:"totals"
    (Value.Pair (Value.Int sum, Value.Int count));
  if count > 0 then begin
    let my_avg = float_of_int sum /. float_of_int count in
    (* The received table tells us which upstream portals to consult; the
       scaling factor compares the averages both sides report. *)
    Hashtbl.iter
      (fun portal_int _observed ->
        match
          t.cfg.io.Portal_io.fetch ~portal:(Ipv4.of_int portal_int) ~service
            ~key:"totals"
        with
        | Some (Value.Pair (Value.Int their_sum, Value.Int their_count))
          when their_count > 0 && their_sum > 0 ->
          let their_avg = float_of_int their_sum /. float_of_int their_count in
          Hashtbl.replace t.factors portal_int
            (clamp 0.01 100. (my_avg /. their_avg))
        | _ -> ())
      t.received
  end

let import_filter t ia =
  match cost_of ia with
  | None -> Some ia
  | Some cost -> (
    match upstream_portal ~my_island:t.cfg.my_island ia with
    | None -> Some ia
    | Some portal ->
      record_received t portal cost;
      let f = scaling_factor t ~portal in
      let scaled = int_of_float (Float.round (float_of_int cost *. f)) in
      Some
        (Ia.set_path_descriptor ~owners:[ protocol ] ~field:field_cost
           (Value.Int scaled) ia) )

let effective_cost c =
  match cost_of c.Dm.ia with None -> max_int | Some v -> v

let select ~prefix:_ cands =
  let better a b =
    match Int.compare (effective_cost b) (effective_cost a) with
    | 0 -> (
      match
        Int.compare (Dm.candidate_path_length b) (Dm.candidate_path_length a)
      with
      | 0 -> Dm.compare_tiebreak a b
      | c -> c )
    | c -> c
  in
  match cands with
  | [] -> None
  | c :: rest ->
    Some
      (List.fold_left (fun acc x -> if better x acc > 0 then x else acc) c rest)

let set_demand_sensitivity t s = t.demand_sensitivity <- s
let demand t = t.demand

let post_demand t ~portal d =
  t.cfg.io.Portal_io.post ~portal ~service ~key:"demand" (Value.Int d)

let poll_demand t =
  let fetched =
    match
      t.cfg.io.Portal_io.fetch ~portal:t.cfg.portal ~service ~key:"demand"
    with
    | Some (Value.Int d) -> d
    | _ -> 0
  in
  let changed = fetched * t.demand_sensitivity <> t.demand * t.demand_sensitivity in
  t.demand <- fetched;
  changed

let contribute t ~me:_ ia =
  let base = Option.value (cost_of ia) ~default:0 in
  let cost = base + t.cfg.internal_cost + (t.demand * t.demand_sensitivity) in
  let sum, count = t.advertised in
  t.advertised <- (sum + cost, count + 1);
  ia
  |> Ia.set_path_descriptor ~owners:[ protocol ] ~field:field_cost
       (Value.Int cost)
  |> Ia.add_island_descriptor ~island:t.cfg.my_island ~proto:protocol
       ~field:field_portal (Value.Addr t.cfg.portal)

let decision_module t =
  { Dm.protocol;
    import_filter = import_filter t;
    export_filter = Dbgp_core.Filters.accept;
    select;
    contribute = contribute t }
