open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value
module Header = Dbgp_dataplane.Header

let protocol = Protocol_id.ron
let field_node = "ron-node"

type t = {
  members : (int, unit) Hashtbl.t;
  latencies : (int * int, float) Hashtbl.t;
}

let create () = { members = Hashtbl.create 8; latencies = Hashtbl.create 32 }
let add_node t a = Hashtbl.replace t.members (Ipv4.to_int a) ()

let observe t a b ~latency_ms =
  if latency_ms < 0. then invalid_arg "Ron.observe: negative latency";
  add_node t a;
  add_node t b;
  Hashtbl.replace t.latencies (Ipv4.to_int a, Ipv4.to_int b) latency_ms

let nodes t =
  Hashtbl.fold (fun a () acc -> Ipv4.of_int a :: acc) t.members []
  |> List.sort Ipv4.compare

let latency t a b = Hashtbl.find_opt t.latencies (Ipv4.to_int a, Ipv4.to_int b)

type route = Direct of float | Via of Ipv4.t * float

let best_route t ~src ~dst =
  let direct = latency t src dst in
  let detours =
    List.filter_map
      (fun relay ->
        if Ipv4.equal relay src || Ipv4.equal relay dst then None
        else
          match (latency t src relay, latency t relay dst) with
          | Some a, Some b -> Some (Via (relay, a +. b))
          | _ -> None)
      (nodes t)
  in
  let candidates =
    (match direct with Some d -> [ Direct d ] | None -> []) @ detours
  in
  let total = function Direct d -> d | Via (_, d) -> d in
  match candidates with
  | [] -> None
  | c :: rest ->
    Some (List.fold_left (fun acc x -> if total x < total acc then x else acc) c rest)

let advertise ~island ~node ia =
  Ia.add_island_descriptor ~island ~proto:protocol ~field:field_node
    (Value.Addr node) ia

let discover ia =
  Ia.find_island_descriptors ~proto:protocol ia
  |> List.filter_map (fun (d : Ia.island_descriptor) ->
         if d.Ia.ifield = field_node then
           Option.map (fun a -> (d.Ia.island, a)) (Value.as_addr d.Ia.ivalue)
         else None)
