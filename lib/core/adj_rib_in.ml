open Dbgp_types

(* The outer per-prefix table is a {!Prefix.Tbl} hashtable so {!set} —
   run once per delivered announcement — replaces its bucket in place
   instead of rebuilding a functional-map spine, and a lookup hashes the
   packed prefix arithmetically instead of through the generic hash.

   A slot is specialized to its population: almost every prefix in a
   full table has exactly one contributing peer (a transit AS learns
   each destination from one upstream), and a [Single] cell is 3 words.
   A contested prefix is a [Multi] of two parallel arrays, always of
   >= 2 peers: the peers sorted by [Peer.compare] (so lookups bisect and
   {!candidates} comes out ascending) and their routes at the same
   index.  Two peers cost 9 words, where a two-node [Peer.Map] costs 14. *)
type 'r slot =
  | Single of Peer.t * 'r
  | Multi of Peer.t array * 'r array

(* A peer's stale marks are a prefix hashtable, present only while it
   holds at least one mark: marking or clearing one prefix of a
   full-table restart window touches one bucket and allocates no tree
   path. *)
type 'r t = {
  routes : 'r slot Prefix.Tbl.t;
  mutable stale : unit Prefix.Tbl.t Peer.Map.t;
}

let create () = { routes = Prefix.Tbl.create 64; stale = Peer.Map.empty }

(* The index of [peer] in the sorted [ps], or [-(i + 1)] when it is
   absent and belongs at index [i]. *)
let search ps peer =
  let rec go lo hi =
    if lo >= hi then -(lo + 1)
    else
      let mid = (lo + hi) / 2 in
      let c = Peer.compare ps.(mid) peer in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ps)

let insert_at a i x =
  Array.concat [ Array.sub a 0 i; [| x |]; Array.sub a i (Array.length a - i) ]

let remove_at a i =
  Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1))

(* The slot of peers [ps] plus [peer], absent from them, with route [r]. *)
let insert ps rs peer r =
  let i = -(search ps peer + 1) in
  Multi (insert_at ps i peer, insert_at rs i r)

let set t ~peer prefix r =
  match Prefix.Tbl.find_opt t.routes prefix with
  | Some (Multi (ps, rs)) when search ps peer >= 0 -> rs.(search ps peer) <- r
  | slot ->
    Prefix.Tbl.replace t.routes prefix
      ( match slot with
        | None -> Single (peer, r)
        | Some (Single (p, _)) when Peer.equal p peer -> Single (peer, r)
        | Some (Single (p, r0)) -> insert [| p |] [| r0 |] peer r
        | Some (Multi (ps, rs)) -> insert ps rs peer r )

(* A slot that drops to one peer becomes [Single] again. *)
let remove t ~peer prefix =
  match Prefix.Tbl.find_opt t.routes prefix with
  | Some (Single (p, _)) when Peer.equal p peer -> Prefix.Tbl.remove t.routes prefix
  | Some (Multi (ps, rs)) ->
    let i = search ps peer in
    if i >= 0 then
      Prefix.Tbl.replace t.routes prefix
        ( if Array.length ps = 2 then Single (ps.(1 - i), rs.(1 - i))
          else Multi (remove_at ps i, remove_at rs i) )
  | _ -> ()

let slot_find peer = function
  | Single (p, r) -> if Peer.equal p peer then Some r else None
  | Multi (ps, rs) ->
    let i = search ps peer in
    if i >= 0 then Some rs.(i) else None

let slot_mem peer = function
  | Single (p, _) -> Peer.equal p peer
  | Multi (ps, _) -> search ps peer >= 0

let find t ~peer prefix =
  Option.bind (Prefix.Tbl.find_opt t.routes prefix) (slot_find peer)

let candidates t prefix =
  match Prefix.Tbl.find_opt t.routes prefix with
  | None -> []
  | Some (Single (p, r)) -> [ (p, r) ]
  | Some (Multi (ps, rs)) -> List.init (Array.length ps) (fun i -> (ps.(i), rs.(i)))

let prefixes_of t ~peer =
  Prefix.Tbl.fold
    (fun p s acc -> if slot_mem peer s then p :: acc else acc)
    t.routes []
  |> List.sort Prefix.compare

let has_routes t ~peer =
  Prefix.Tbl.fold (fun _ s acc -> acc || slot_mem peer s) t.routes false

let iter t f =
  Prefix.Tbl.iter
    (fun p -> function
      | Single (peer, r) -> f p peer r
      | Multi (ps, rs) -> Array.iteri (fun i peer -> f p peer rs.(i)) ps)
    t.routes

let prefixes t =
  Prefix.Tbl.fold (fun p _ acc -> Prefix.Set.add p acc) t.routes Prefix.Set.empty

let size t =
  Prefix.Tbl.fold
    (fun _ s acc ->
      acc + match s with Single _ -> 1 | Multi (ps, _) -> Array.length ps)
    t.routes 0

(* ------------------------- stale marks ------------------------- *)

let is_stale t ~peer prefix =
  match Peer.Map.find_opt peer t.stale with
  | None -> false
  | Some marks -> Prefix.Tbl.mem marks prefix

let stale_count t =
  Peer.Map.fold (fun _ marks acc -> acc + Prefix.Tbl.length marks) t.stale 0

let has_stale t ~peer = Peer.Map.mem peer t.stale

(* Marks are inserted in the routes table's bucket order; nothing reads
   them back in table order ({!take_stale} sorts). *)
let mark_stale t ~peer =
  let marks =
    match Peer.Map.find_opt peer t.stale with
    | Some marks -> marks
    | None -> Prefix.Tbl.create 1
  in
  let held = ref false in
  Prefix.Tbl.iter
    (fun p s ->
      if slot_mem peer s then begin
        held := true;
        Prefix.Tbl.replace marks p ()
      end)
    t.routes;
  if not !held then 0
  else begin
    t.stale <- Peer.Map.add peer marks t.stale;
    Prefix.Tbl.length marks
  end

let clear_stale t ~peer prefix =
  match Peer.Map.find_opt peer t.stale with
  | None -> ()
  | Some marks ->
    Prefix.Tbl.remove marks prefix;
    if Prefix.Tbl.length marks = 0 then t.stale <- Peer.Map.remove peer t.stale

let take_stale t ~peer =
  match Peer.Map.find_opt peer t.stale with
  | None -> []
  | Some marks ->
    t.stale <- Peer.Map.remove peer t.stale;
    Prefix.Tbl.fold (fun p () acc -> p :: acc) marks []
    |> List.sort Prefix.compare

let drop_peer t ~peer =
  let affected = prefixes_of t ~peer in
  List.iter (fun p -> remove t ~peer p) affected;
  t.stale <- Peer.Map.remove peer t.stale;
  affected
