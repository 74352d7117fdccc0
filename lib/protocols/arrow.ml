open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Header = Dbgp_dataplane.Header

let protocol = Protocol_id.arrow
let field_portal = "arrow-portal"
let field_guarantee = "arrow-guarantee"
let service = "arrow"

type segment = { ingress : Ipv4.t; egress : Ipv4.t; bandwidth : int }

type config = {
  my_island : Island_id.t;
  portal : Ipv4.t;
  guarantee : int;
  segment : segment;
}

type t = { cfg : config; mutable sold : int }

let create cfg = { cfg; sold = 0 }

let advertise t ia =
  ia
  |> Ia.add_island_descriptor ~island:t.cfg.my_island ~proto:protocol
       ~field:field_portal (Value.Addr t.cfg.portal)
  |> Ia.add_island_descriptor ~island:t.cfg.my_island ~proto:protocol
       ~field:field_guarantee (Value.Int t.cfg.guarantee)

let serve t = function
  | Value.Int min_bandwidth when t.cfg.guarantee >= min_bandwidth ->
    t.sold <- t.sold + 1;
    Some
      (Value.Pair
         ( Value.Pair (Value.Addr t.cfg.segment.ingress, Value.Addr t.cfg.segment.egress),
           Value.Int t.cfg.segment.bandwidth ))
  | _ -> None

let sold t = t.sold

type discovered = {
  island : Island_id.t;
  portal_addr : Ipv4.t;
  guarantee : int;
}

let discover ia =
  Ia.find_island_descriptors ~proto:protocol ia
  |> List.filter_map (fun (d : Ia.island_descriptor) ->
         if d.Ia.ifield = field_portal then
           Option.map
             (fun portal_addr ->
               let guarantee =
                 match
                   Ia.find_island_descriptor ~island:d.Ia.island ~proto:protocol
                     ~field:field_guarantee ia
                 with
                 | Some (Value.Int g) -> g
                 | _ -> 0
               in
               { island = d.Ia.island; portal_addr; guarantee })
             (Value.as_addr d.Ia.ivalue)
         else None)

let buy ~io ~portal ~min_bandwidth =
  match io.Portal_io.rpc ~portal ~service (Value.Int min_bandwidth) with
  | Some (Value.Pair (Value.Pair (Value.Addr ingress, Value.Addr egress), Value.Int bandwidth)) ->
    Some { ingress; egress; bandwidth }
  | _ -> None
