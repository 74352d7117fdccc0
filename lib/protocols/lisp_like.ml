open Dbgp_types
module Ia = Dbgp_core.Ia
module Value = Dbgp_core.Value

let protocol = Protocol_id.lisp
let field_map_server = "lisp-map-server"
let service = "lisp"

type config = { my_island : Island_id.t; map_server : Ipv4.t; io : Portal_io.t }

type t = { cfg : config }

let create cfg = { cfg }

let advertise t ia =
  Ia.add_island_descriptor ~island:t.cfg.my_island ~proto:protocol
    ~field:field_map_server
    (Value.Addr t.cfg.map_server)
    ia

let register t ~eid ~rloc =
  t.cfg.io.Portal_io.post ~portal:t.cfg.map_server ~service
    ~key:(Prefix.to_string eid) (Value.Addr rloc)

let resolve ~io ~map_server ~eid =
  match io.Portal_io.fetch ~portal:map_server ~service ~key:(Prefix.to_string eid) with
  | Some (Value.Addr rloc) -> Some rloc
  | _ -> None
