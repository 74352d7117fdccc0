(* Greedy min-cut partitioning of a peering graph into regions.

   The sharded simulator assigns each region to one OCaml domain, so a
   good partition (a) balances speaker counts, (b) cuts as few peering
   edges as possible (every cut edge turns deliveries into
   cross-domain mailbox traffic), and (c) cuts *slow* edges when it
   must cut — the conservative lookahead is the minimum latency over
   the cut, so a partition that severs only long-haul links lets
   epochs be long and barriers rare.

   The heuristic is island-aware: connected components (the "islands"
   of a partially-deployed protocol topology, or genuinely
   disconnected fragments) are never split unless a single component
   exceeds the balance target — a component that fits is placed whole,
   which makes its cut contribution zero.  Oversized components are
   split by greedy graph growing: grow a region from a seed by
   repeatedly absorbing the frontier node with the strongest pull
   (most edges into the region, then lowest connecting latency), so
   cheap tightly-coupled clusters coalesce and the eventual cut falls
   across the weakest coupling.

   Pinned edges are contracted before anything else runs (union-find):
   both endpoints land in the same region no matter what.  The fault
   injector pins every link it intends to flap so that fault state
   stays region-private. *)

type t = {
  nregions : int;
  region_of_node : (int, int) Hashtbl.t;
  members : int array array;
  cut : (int * int * float) array;
  lookahead : float;
  total_edges : int;
}

let regions t = t.nregions

let region_of t node =
  match Hashtbl.find_opt t.region_of_node node with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Partition.region_of: unknown node %d" node)

let members t r =
  if r < 0 || r >= t.nregions then invalid_arg "Partition.members: bad region"
  else t.members.(r)

let cut_edges t = t.cut
let lookahead t = t.lookahead

(* --- union-find over dense indices, for pinned-edge contraction --- *)

let rec uf_find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let root = uf_find parent p in
    parent.(i) <- root;
    root
  end

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then parent.(max ra rb) <- min ra rb

let build ?(pinned = []) ~nodes ~edges ~regions:want () =
  if want < 1 then invalid_arg "Partition.build: regions must be >= 1";
  let nodes = Array.copy nodes in
  Array.sort Int.compare nodes;
  let n = Array.length nodes in
  if n = 0 then
    { nregions = 1; region_of_node = Hashtbl.create 1; members = [| [||] |];
      cut = [||]; lookahead = infinity; total_edges = 0 }
  else begin
    let idx = Hashtbl.create n in
    Array.iteri (fun i a -> Hashtbl.replace idx a i) nodes;
    let index a =
      match Hashtbl.find_opt idx a with
      | Some i -> i
      | None -> invalid_arg (Printf.sprintf "Partition.build: edge endpoint %d not in nodes" a)
    in
    (* Deduplicate edges into an undirected adjacency; parallel edges
       keep the minimum latency (the conservative one for lookahead). *)
    let edge_tbl : (int * int, float) Hashtbl.t = Hashtbl.create (Array.length edges) in
    Array.iter
      (fun (a, b, lat) ->
        if a <> b then begin
          let i = index a and j = index b in
          let key = (min i j, max i j) in
          match Hashtbl.find_opt edge_tbl key with
          | Some l when l <= lat -> ()
          | _ -> Hashtbl.replace edge_tbl key lat
        end)
      edges;
    let undirected =
      Hashtbl.fold (fun (i, j) lat acc -> (i, j, lat) :: acc) edge_tbl []
      |> List.sort compare |> Array.of_list
    in
    let adj = Array.make n [] in
    Array.iter
      (fun (i, j, lat) ->
        adj.(i) <- (j, lat) :: adj.(i);
        adj.(j) <- (i, lat) :: adj.(j))
      undirected;
    Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
    (* Contract pinned edges. *)
    let parent = Array.init n Fun.id in
    List.iter (fun (a, b) -> uf_union parent (index a) (index b)) pinned;
    (* Group indices into supernodes, then supernodes into connected
       components (an edge connects two supernodes if any member edge
       does). *)
    let group_root i = uf_find parent i in
    let comp = Array.make n (-1) in
    let next_comp = ref 0 in
    for i = 0 to n - 1 do
      if comp.(group_root i) = -1 && group_root i = i then begin
        (* BFS over the supernode-expanded graph from root i. *)
        let c = !next_comp in
        incr next_comp;
        let q = Queue.create () in
        Queue.push i q;
        comp.(i) <- c;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          (* All members of u's pin-group, plus graph neighbours. *)
          for v = 0 to n - 1 do
            if group_root v = u && comp.(v) = -1 then begin
              comp.(v) <- c;
              Queue.push v q
            end
          done;
          List.iter
            (fun (v, _) ->
              let rv = group_root v in
              if comp.(rv) = -1 then begin
                comp.(rv) <- c;
                Queue.push rv q
              end;
              if comp.(v) = -1 then comp.(v) <- comp.(rv))
            adj.(u)
        done
      end
    done;
    (* Sweep up any member whose root was labelled after it was seen. *)
    for v = 0 to n - 1 do
      if comp.(v) = -1 then comp.(v) <- comp.(group_root v)
    done;
    let ncomp = !next_comp in
    let comp_members = Array.make ncomp [] in
    for v = n - 1 downto 0 do
      comp_members.(comp.(v)) <- v :: comp_members.(comp.(v))
    done;
    let want = min want n in
    let target = (n + want - 1) / want in
    let assignment = Array.make n (-1) in
    let region_size = Array.make want 0 in
    (* Smallest region first; ties to the lower index for determinism. *)
    let lightest () =
      let best = ref 0 in
      for r = 1 to want - 1 do
        if region_size.(r) < region_size.(!best) then best := r
      done;
      !best
    in
    (* Components largest-first: whole placement when they fit the
       balance target, greedy growth split when they do not. *)
    let order = Array.init ncomp Fun.id in
    Array.sort
      (fun a b ->
        match compare (List.length comp_members.(b)) (List.length comp_members.(a)) with
        | 0 -> Int.compare a b
        | c -> c)
      order;
    Array.iter
      (fun c ->
        let mem = comp_members.(c) in
        let size = List.length mem in
        if size <= target then begin
          let r = lightest () in
          List.iter (fun v -> assignment.(v) <- r) mem;
          region_size.(r) <- region_size.(r) + size
        end
        else begin
          (* Greedy graph growing inside the component, one pin-group
             at a time: absorb the frontier group with the most edges
             into the region, breaking ties toward the lowest
             connecting latency, then the lowest index. *)
          let in_comp = Array.make n false in
          List.iter (fun v -> in_comp.(v) <- true) mem;
          let group_of = Hashtbl.create 16 in
          List.iter
            (fun v ->
              let r = group_root v in
              Hashtbl.replace group_of r
                (v :: Option.value ~default:[] (Hashtbl.find_opt group_of r)))
            mem;
          let unassigned = ref size in
          let grow_one () =
            let r = lightest () in
            let room = ref (max 1 (target - region_size.(r))) in
            (* Seed: the unassigned group with the fewest external
               edges (a periphery node) — keeps the final cut away
               from dense cores.  Lowest index breaks ties. *)
            let seed = ref (-1) in
            let seed_deg = ref max_int in
            Hashtbl.iter
              (fun root members ->
                if assignment.(root) = -1 then begin
                  let deg =
                    List.fold_left
                      (fun acc v -> acc + List.length adj.(v))
                      0 members
                  in
                  if deg < !seed_deg || (deg = !seed_deg && root < !seed) || !seed = -1
                  then begin
                    seed := root;
                    seed_deg := deg
                  end
                end)
              group_of;
            let take root =
              let members = Hashtbl.find group_of root in
              List.iter
                (fun v ->
                  assignment.(v) <- r;
                  region_size.(r) <- region_size.(r) + 1;
                  decr unassigned;
                  decr room)
                members
            in
            take !seed;
            let continue = ref true in
            while !continue && !room > 0 && !unassigned > 0 do
              (* Frontier group with the strongest pull into r. *)
              let best = ref (-1) in
              let best_pull = ref 0 in
              let best_lat = ref infinity in
              Hashtbl.iter
                (fun root members ->
                  if assignment.(root) = -1 then begin
                    let pull = ref 0 and lat = ref infinity in
                    List.iter
                      (fun v ->
                        List.iter
                          (fun (u, l) ->
                            if in_comp.(u) && assignment.(u) = r then begin
                              incr pull;
                              if l < !lat then lat := l
                            end)
                          adj.(v))
                      members;
                    if
                      !pull > !best_pull
                      || (!pull = !best_pull && !pull > 0
                          && (!lat < !best_lat
                              || (!lat = !best_lat && root < !best)))
                    then begin
                      best := root;
                      best_pull := !pull;
                      best_lat := !lat
                    end
                  end)
                group_of;
              if !best = -1 then continue := false else take !best
            done
          in
          while !unassigned > 0 do
            grow_one ()
          done
        end)
      order;
    (* Compress away empty regions (possible when components < want). *)
    let remap = Array.make want (-1) in
    let nregions = ref 0 in
    for r = 0 to want - 1 do
      if region_size.(r) > 0 then begin
        remap.(r) <- !nregions;
        incr nregions
      end
    done;
    let nregions = !nregions in
    let region_of_node = Hashtbl.create n in
    let members_acc = Array.make nregions [] in
    for v = n - 1 downto 0 do
      let r = remap.(assignment.(v)) in
      Hashtbl.replace region_of_node nodes.(v) r;
      members_acc.(r) <- nodes.(v) :: members_acc.(r)
    done;
    let members = Array.map Array.of_list members_acc in
    let cut = ref [] in
    let lookahead = ref infinity in
    Array.iter
      (fun (i, j, lat) ->
        if remap.(assignment.(i)) <> remap.(assignment.(j)) then begin
          cut := (nodes.(i), nodes.(j), lat) :: !cut;
          if lat < !lookahead then lookahead := lat
        end)
      undirected;
    {
      nregions;
      region_of_node;
      members;
      cut = Array.of_list (List.rev !cut);
      lookahead = !lookahead;
      total_edges = Array.length undirected;
    }
  end
