open Dbgp_types
module Fib = Dbgp_trie.Fib_index

type port = To_as of Asn.t | Local

type t = {
  me : Asn.t;
  fib : port Fib.t;
  locals : (int, unit) Hashtbl.t;
  pathlets : (int, port * bool) Hashtbl.t;
  routers : (string, port) Hashtbl.t;
  owned_routers : (string, unit) Hashtbl.t;
}

let create ~me () =
  { me;
    fib = Fib.create 0;
    locals = Hashtbl.create 4;
    pathlets = Hashtbl.create 8;
    routers = Hashtbl.create 8;
    owned_routers = Hashtbl.create 4 }

let me t = t.me
let set_ip_route t p port = Fib.add t.fib p port
let ip_lookup t addr = Fib.find t.fib addr
let add_local_addr t a = Hashtbl.replace t.locals (Ipv4.to_int a) ()
let is_local_addr t a = Hashtbl.mem t.locals (Ipv4.to_int a)

let set_pathlet_hop t ~fid port ~consume =
  Hashtbl.replace t.pathlets fid (port, consume)

let pathlet_lookup t ~fid = Hashtbl.find_opt t.pathlets fid
let set_router_port t ~router port = Hashtbl.replace t.routers router port
let router_lookup t ~router = Hashtbl.find_opt t.routers router
let owns_router t ~router = Hashtbl.mem t.owned_routers router
let claim_router t ~router = Hashtbl.replace t.owned_routers router ()
