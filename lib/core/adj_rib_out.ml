open Dbgp_types

type group_key = {
  relationship : Dbgp_bgp.Policy.relationship;
  dbgp_capable : bool;
  same_island : bool;
  export : Filters.t;
}

(* [round]/[egress] are the group's evaluation slot: [egress] is the
   result of round [round] and means nothing in any other round, so no
   result is ever served across fan-outs.  [holders] counts the members
   whose [table] is non-empty, kept by every write that empties or
   fills one, so "nothing is recorded toward anyone" costs one read per
   group. *)
type group = {
  id : int;
  key : group_key;
  mutable members : int;
  mutable holders : int;
  mutable round : int;
  mutable egress : Ia.t option;
}

(* [table] binds each prefix to the option box the group's evaluation
   produced: [Some ia] for an announcement, [None] for a withdraw
   tombstone (a withdraw was sent but may not have arrived, so the peer
   possibly retains a route we no longer advertise).  {!record} is
   optimistic (sent ⇒ delivered) and the network layer calls
   {!note_failed} for every message it actually drops, which puts the
   prefix in [lost]; an entry is confirmed iff its prefix is not lost,
   so after a session loss the confirmed entries are exactly what the
   peer holds.  Both tables are mutated in place on the very hot
   {!record} path; the read accessors that need determinism sort on the
   way out.  Each is created by its first write: a neighbor that is
   never sent anything costs no [table], one that never loses a message
   no [lost]. *)
type handle = {
  mutable group : group;
  mutable table : Ia.t option Prefix.Tbl.t option;
  mutable lost : unit Prefix.Tbl.t option;
}

type t = {
  mutable groups : group list; (* newest first; ids never reused *)
  mutable handles : handle Peer.Map.t;
  mutable next_id : int;
  mutable round : int;
}

let create () =
  { groups = [];
    handles = Peer.Map.empty;
    next_id = 0;
    round = 0 }

(* ------------------------- peer groups ------------------------- *)

(* Export filters are closures, so group identity compares them
   physically: two neighbors share a group only when they share the
   *same* filter value. *)
let same_key a b =
  a.relationship = b.relationship
  && a.dbgp_capable = b.dbgp_capable
  && a.same_island = b.same_island
  && a.export == b.export

let depart t g =
  g.members <- g.members - 1;
  if g.members <= 0 then t.groups <- List.filter (fun g' -> g' != g) t.groups

let holds h =
  match h.table with Some m -> Prefix.Tbl.length m > 0 | None -> false

let join t ~peer key =
  let target =
    match List.find_opt (fun g -> same_key g.key key) t.groups with
    | Some g -> g
    | None ->
      let g =
        { id = t.next_id; key; members = 0; holders = 0; round = -1; egress = None }
      in
      t.next_id <- t.next_id + 1;
      t.groups <- g :: t.groups;
      g
  in
  match Peer.Map.find_opt peer t.handles with
  | Some h ->
    if h.group != target then begin
      (* A changed egress identity (new filter, relationship or
         capability) moves the handle; what was advertised stays. *)
      depart t h.group;
      target.members <- target.members + 1;
      if holds h then begin
        h.group.holders <- h.group.holders - 1;
        target.holders <- target.holders + 1
      end;
      h.group <- target
    end;
    h
  | None ->
    let h = { group = target; table = None; lost = None } in
    target.members <- target.members + 1;
    t.handles <- Peer.Map.add peer h t.handles;
    h

let leave t ~peer =
  match Peer.Map.find_opt peer t.handles with
  | None -> ()
  | Some h ->
    t.handles <- Peer.Map.remove peer t.handles;
    if holds h then h.group.holders <- h.group.holders - 1;
    depart t h.group

let group_id h = h.group.id

let group_of t ~peer =
  Option.map group_id (Peer.Map.find_opt peer t.handles)

(* --------------------- group-major evaluation --------------------- *)

let next_round t = t.round <- t.round + 1
let evaluated t h = h.group.round = t.round
let result h = h.group.egress

let set_result t h out =
  h.group.round <- t.round;
  h.group.egress <- out

(* ------------------------- advertised state ------------------------- *)

let writable h =
  match h.table with
  | Some m -> m
  | None ->
    let m = Prefix.Tbl.create 16 in
    h.table <- Some m;
    m

let is_lost h prefix =
  match h.lost with Some l -> Prefix.Tbl.mem l prefix | None -> false

let record h prefix out =
  (match h.lost with Some l -> Prefix.Tbl.remove l prefix | None -> ());
  match out with
  | None -> (
    match h.table with
    | Some m when Prefix.Tbl.length m > 0 ->
      Prefix.Tbl.remove m prefix;
      if Prefix.Tbl.length m = 0 then h.group.holders <- h.group.holders - 1
    | _ -> () )
  | Some _ ->
    (* Store the caller's option value as-is: it is the same box the
       group's evaluation produced, so a recorded advertisement costs no
       per-route [Some] of its own. *)
    let m = writable h in
    if Prefix.Tbl.length m = 0 then h.group.holders <- h.group.holders + 1;
    Prefix.Tbl.replace m prefix out

let find h prefix =
  match h.table with
  | None -> None
  | Some m -> (
    match Prefix.Tbl.find_opt m prefix with
    | None -> None
    | Some out -> Some (out, not (is_lost h prefix)) )

let advertised h prefix =
  match h.table with Some m -> Prefix.Tbl.mem m prefix | None -> false

let unbacked h ~backed =
  match h.table with
  | None -> []
  | Some m ->
    Prefix.Tbl.fold (fun p _ acc -> if backed p then acc else p :: acc) m []
    |> List.sort Prefix.compare

let lost_marks h =
  match h.lost with
  | Some l -> l
  | None ->
    let l = Prefix.Tbl.create 16 in
    h.lost <- Some l;
    l

let note_failed t ~peer prefix =
  match Peer.Map.find_opt peer t.handles with
  | None -> ()
  | Some h ->
    Prefix.Tbl.replace (lost_marks h) prefix ();
    let m = writable h in
    (* A dropped withdraw: the entry was optimistically removed by
       {!record}, but the peer may still hold the route.  Leave a
       tombstone so the next sync re-sends the withdraw. *)
    if not (Prefix.Tbl.mem m prefix) then begin
      if Prefix.Tbl.length m = 0 then h.group.holders <- h.group.holders + 1;
      Prefix.Tbl.replace m prefix None
    end

let unconfirm t ~peer =
  match Peer.Map.find_opt peer t.handles with
  | Some ({ table = Some m; _ } as h) ->
    Prefix.Tbl.iter (fun p _ -> Prefix.Tbl.replace (lost_marks h) p ()) m
  | _ -> ()

let bindings t ~peer =
  match Option.bind (Peer.Map.find_opt peer t.handles) (fun h -> h.table) with
  | None -> []
  | Some m ->
    Prefix.Tbl.fold
      (fun p out acc -> match out with Some ia -> (p, ia) :: acc | None -> acc)
      m []
    |> List.sort (fun (a, _) (b, _) -> Prefix.compare a b)

let peers t =
  Peer.Map.fold
    (fun p h acc ->
      match h.table with
      | Some m when Prefix.Tbl.length m > 0 -> p :: acc
      | _ -> acc)
    t.handles []
  |> List.rev

let holders t = List.fold_left (fun n g -> n + g.holders) 0 t.groups

module For_tests = struct
  let group_count t = List.length t.groups
end
