type kind = Baseline | Critical_fix | Custom | Replacement

type t = { id : int; name : string; kind : kind }

let registry : (string, t) Hashtbl.t = Hashtbl.create 32
let by_id : (int, t) Hashtbl.t = Hashtbl.create 32
let next_id = ref 0

(* Registration is rare (module init, topology build) but the registry
   is read from every domain of a sharded run, so writes are serialized
   behind a lock.  Lookups stay lock-free: register before spawning
   simulation domains and the tables are read-only thereafter. *)
let register_lock = Mutex.create ()

let register ?(kind = Custom) name =
  Mutex.protect register_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some t ->
        if t.kind <> kind && kind <> Custom then
          invalid_arg
            (Printf.sprintf "Protocol_id.register: %s already registered" name)
        else t
      | None ->
        let t = { id = !next_id; name; kind } in
        incr next_id;
        Hashtbl.add registry name t;
        Hashtbl.add by_id t.id t;
        t)

let find name = Hashtbl.find_opt registry name
let name t = t.name
let kind t = t.kind
let to_int t = t.id
let of_int i = Hashtbl.find_opt by_id i
(* Identity is the *name*, never the id.  The id is a process-local
   handle (hash-table keys); decoding can lazily register never-seen
   protocol names from any simulation domain, so id allocation order
   depends on domain scheduling — an id-based order would leak that
   schedule into owner-set orderings, encoded bytes and digests. *)
let compare a b = String.compare a.name b.name
let equal a b = String.equal a.name b.name
let hash t = Hashtbl.hash t.name
let pp ppf t = Format.pp_print_string ppf t.name

let all () =
  Hashtbl.fold (fun _ t acc -> t :: acc) registry []
  |> List.sort compare

(* Table 1 of the paper, grouped by scenario. *)
let bgp = register ~kind:Baseline "bgp"
let bgpsec = register ~kind:Critical_fix "bgpsec"
let eq_bgp = register ~kind:Critical_fix "eq-bgp"
let lisp = register ~kind:Critical_fix "lisp"
let r_bgp = register ~kind:Critical_fix "r-bgp"
let wiser = register ~kind:Critical_fix "wiser"
let miro = register ~kind:Custom "miro"
let arrow = register ~kind:Custom "arrow"
let ron = register ~kind:Custom "ron"
let nira = register ~kind:Replacement "nira"
let scion = register ~kind:Replacement "scion"
let pathlet = register ~kind:Replacement "pathlet"
let yamr = register ~kind:Replacement "yamr"
let hlp = register ~kind:Replacement "hlp"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
