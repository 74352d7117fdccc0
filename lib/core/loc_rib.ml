open Dbgp_types
module Fib = Dbgp_trie.Fib_index

(* One map and nothing per route but the chosen value itself.  The
   forwarding next hop is not stored — it is a projection of the chosen
   route (the address of the peer it was learned from), supplied once
   at {!create}.

   The FIB is a flat hash index over the hop-bearing routes, used only
   by data-plane queries ({!next_hop}), which run after convergence,
   not inside the update hot path.  Every write drops it; the next
   query rebuilds it from the map in one pass.  Keeping it current per
   decision change would put its maintenance on the hot path, and a
   lookup through a pointer-linked trie costs a dependent load per
   level, where the index answers a /24 table in one probe. *)
type 'c t = {
  nh_of : 'c -> Ipv4.t option;
  mutable best : 'c Prefix.Map.t;
  mutable fib : Fib.t option; (* [None] after a write *)
}

let create ?(next_hop = fun _ -> None) () =
  { nh_of = next_hop; best = Prefix.Map.empty; fib = None }

let set t prefix c =
  t.best <- Prefix.Map.add prefix c t.best;
  t.fib <- None

let remove t prefix =
  t.best <- Prefix.Map.remove prefix t.best;
  t.fib <- None

let find t prefix = Prefix.Map.find_opt prefix t.best
let mem t prefix = Prefix.Map.mem prefix t.best
let bindings t = Prefix.Map.bindings t.best
let fold f t acc = Prefix.Map.fold f t.best acc
let cardinal t = Prefix.Map.cardinal t.best

let fold_range t ~above ~limit ~f ~init =
  if limit <= 0 then invalid_arg "Loc_rib.fold_range: limit must be positive";
  let seq =
    match above with
    | None -> Prefix.Map.to_seq t.best
    | Some p ->
      (* [to_seq_from] is inclusive; the cursor names the last prefix
         already consumed, so skip it. *)
      Seq.filter (fun (q, _) -> Prefix.compare q p > 0)
        (Prefix.Map.to_seq_from p t.best)
  in
  let rec go seq n acc last =
    match seq () with
    | Seq.Nil -> (acc, None)
    | Seq.Cons ((p, c), rest) ->
      if n = 0 then (acc, last) else go rest (n - 1) (f p c acc) (Some p)
  in
  go seq limit init None

(* Only hop-bearing routes enter the index, so a locally originated
   more-specific (no next hop) never shadows a learned, forwardable
   covering route. *)
let fib t =
  match t.fib with
  | Some ix -> ix
  | None ->
    let ix = Fib.create (Prefix.Map.cardinal t.best) in
    Prefix.Map.iter
      (fun p c -> match t.nh_of c with Some nh -> Fib.add ix p nh | None -> ())
      t.best;
    t.fib <- Some ix;
    ix

let next_hop t dest = Fib.find (fib t) dest

let lookup t dest =
  let rec go len =
    if len < 0 then None
    else
      let p = Prefix.make dest len in
      match Prefix.Map.find_opt p t.best with
      | Some c -> Some (p, c)
      | None -> go (len - 1)
  in
  go 32
