open Dbgp_types
module Fib = Dbgp_trie.Fib_index
module Tbl = Prefix.Tbl

(* One hashtable and nothing per route but the chosen value itself.  A
   write replaces its bucket cell in place.  A balanced tree would
   allocate a new path of about sixteen nodes per insert into a
   full table, promoted by the next minor collection and dead at the
   next write.  The forwarding next hop is not stored — it is a
   projection of the chosen route (the address of the peer it was
   learned from), supplied once at {!create}.

   Ascending order is served from [order], a sorted array of the keys,
   rebuilt lazily by the first ordered walk after the key set changed.
   Keys added since [order] was built are kept in [fresh] (a growable
   prefix of the array, [nfresh] long), so the rebuild is a sort of the
   new keys and one linear merge that also drops removed keys.  Once
   more keys are added than [order] holds, [nfresh] becomes -1 and the
   buffer is given up: the whole key set is then sorted afresh, in
   linear time ({!Prefix.sort}) once it is large, and the buffer stays
   no larger than the view.

   The FIB is a flat hash index over the hop-bearing routes, used only
   by data-plane queries ({!next_hop}), which run after convergence,
   not inside the update hot path.  Every write drops it; the next
   query rebuilds it from the table in one unordered pass — the index
   answers the same whatever order its keys went in. *)
type 'c t = {
  nh_of : 'c -> Ipv4.t option;
  best : 'c Tbl.t;
  mutable fib : Ipv4.t Fib.t option; (* [None] after a write *)
  mutable order : Prefix.t array; (* ascending *)
  mutable fresh : Prefix.t array;
  mutable nfresh : int; (* -1: rebuild [order] from the whole table *)
  mutable dropped : bool; (* a key of [order] was removed *)
}

let create ?(next_hop = fun _ -> None) () =
  { nh_of = next_hop;
    best = Tbl.create 1;
    fib = None;
    order = [||];
    fresh = [||];
    nfresh = 0;
    dropped = false }

let note_added t p =
  let n = t.nfresh in
  if n >= Array.length t.order then begin
    t.nfresh <- -1;
    t.fresh <- [||]
  end
  else if n >= 0 then begin
    if n = Array.length t.fresh then begin
      let a = Array.make (min (Array.length t.order) (max 8 (2 * n))) p in
      Array.blit t.fresh 0 a 0 n;
      t.fresh <- a
    end;
    t.fresh.(n) <- p;
    t.nfresh <- n + 1
  end

(* Comparing lengths costs no second hash of the key. *)
let set t prefix c =
  let n = Tbl.length t.best in
  Tbl.replace t.best prefix c;
  if Tbl.length t.best > n then note_added t prefix;
  t.fib <- None

let remove t prefix =
  let n = Tbl.length t.best in
  Tbl.remove t.best prefix;
  if Tbl.length t.best < n then t.dropped <- true;
  t.fib <- None

let find t prefix = Tbl.find_opt t.best prefix
let mem t prefix = Tbl.mem t.best prefix
let cardinal t = Tbl.length t.best

(* [order] merged with the sorted [fresh] keys, keeping each live key
   once: a key removed and added again is in both, or twice in
   [fresh]. *)
let merged t =
  let fresh = Array.sub t.fresh 0 t.nfresh in
  Prefix.sort fresh;
  let old = t.order and out = Array.make (Tbl.length t.best) Prefix.default in
  let k = ref 0 in
  let emit p =
    if (!k = 0 || not (Prefix.equal out.(!k - 1) p)) && Tbl.mem t.best p then begin
      out.(!k) <- p;
      incr k
    end
  in
  let rec go i j =
    if j < Array.length fresh
       && (i >= Array.length old || Prefix.compare fresh.(j) old.(i) < 0)
    then begin
      emit fresh.(j);
      go i (j + 1)
    end
    else if i < Array.length old then begin
      emit old.(i);
      go (i + 1) j
    end
  in
  go 0 0;
  out

let sorted_all t =
  let a = Array.make (Tbl.length t.best) Prefix.default and k = ref 0 in
  Tbl.iter
    (fun p _ ->
      a.(!k) <- p;
      incr k)
    t.best;
  Prefix.sort a;
  a

let keys t =
  if t.nfresh <> 0 || t.dropped then begin
    t.order <- (if t.nfresh < 0 then sorted_all t else merged t);
    t.fresh <- [||];
    t.nfresh <- 0;
    t.dropped <- false
  end;
  t.order

(* The walks read each value as they reach its key, so [f] must not
   write to [t]. *)
let fold f t acc =
  Array.fold_left (fun acc p -> f p (Tbl.find t.best p) acc) acc (keys t)

let bindings t =
  Array.fold_right (fun p acc -> (p, Tbl.find t.best p) :: acc) (keys t) []

(* The index of the first key of [ks] strictly above [p]. *)
let first_above ks p =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Prefix.compare ks.(mid) p <= 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ks)

let fold_range t ~above ~limit ~f ~init =
  if limit <= 0 then invalid_arg "Loc_rib.fold_range: limit must be positive";
  let ks = keys t in
  let n = Array.length ks in
  let start = match above with None -> 0 | Some p -> first_above ks p in
  let stop = if limit >= n - start then n else start + limit in
  let acc = ref init in
  for i = start to stop - 1 do
    acc := f ks.(i) (Tbl.find t.best ks.(i)) !acc
  done;
  (!acc, if stop < n then Some ks.(stop - 1) else None)

(* Only hop-bearing routes enter the index, so a locally originated
   more-specific (no next hop) never shadows a learned, forwardable
   covering route. *)
let fib t =
  match t.fib with
  | Some ix -> ix
  | None ->
    let ix = Fib.create (Tbl.length t.best) in
    Tbl.iter
      (fun p c -> match t.nh_of c with Some nh -> Fib.add ix p nh | None -> ())
      t.best;
    t.fib <- Some ix;
    ix

let next_hop t dest = Fib.find (fib t) dest
