type counter = { mutable n : int }
type gauge = { mutable v : float }

let nbuckets = 64

type histogram = {
  bucket : int array;
  mutable observed : int;
  mutable sum : float;
  mutable max : float;
}

type t = {
  cs : (string, counter) Hashtbl.t;
  gs : (string, gauge) Hashtbl.t;
  hs : (string, histogram) Hashtbl.t;
}

let create () =
  { cs = Hashtbl.create 16; gs = Hashtbl.create 16; hs = Hashtbl.create 8 }

let intern tbl name mk =
  match Hashtbl.find_opt tbl name with
  | Some x -> x
  | None ->
    let x = mk () in
    Hashtbl.replace tbl name x;
    x

let counter t name = intern t.cs name (fun () -> { n = 0 })

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment"
  else c.n <- c.n + by

let count c = c.n

let gauge t name = intern t.gs name (fun () -> { v = 0. })
let set g v = g.v <- v
let value g = g.v

let bucket_of v =
  if Float.is_nan v || v < 1.0 then 0
  else
    let rec go i ub =
      if v < ub || i >= nbuckets - 1 then i else go (i + 1) (ub *. 2.)
    in
    go 1 2.0

let bucket_upper i =
  if i < 0 || i >= nbuckets then invalid_arg "Metrics.bucket_upper: bad index"
  else if i = nbuckets - 1 then Float.infinity
  else 2. ** float_of_int i

let histogram t name =
  intern t.hs name (fun () ->
      { bucket = Array.make nbuckets 0; observed = 0; sum = 0.; max = 0. })

let observe h v =
  let i = bucket_of v in
  h.bucket.(i) <- h.bucket.(i) + 1;
  h.observed <- h.observed + 1;
  h.sum <- h.sum +. v;
  if v > h.max then h.max <- v

let observations h = h.observed
let hist_sum h = h.sum
let hist_max h = h.max
let buckets h = Array.copy h.bucket

let quantile h q =
  if q < 0. || q > 1. then invalid_arg "Metrics.quantile: q outside [0, 1]"
  else if h.observed = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.round (q *. float_of_int h.observed)) in
    let rec go i seen =
      let seen = seen + h.bucket.(i) in
      if float_of_int seen >= rank || i = nbuckets - 1 then bucket_upper i
      else go (i + 1) seen
    in
    go 0 0
  end

(* Zero every instrument in place.  Identity is preserved: handles
   obtained before the reset (the hot-path cached counters all over the
   tree) keep working and observe the zeroed state — which is exactly
   what makes an explicit reset safe to call between test suites. *)
let reset t =
  Hashtbl.iter (fun _ c -> c.n <- 0) t.cs;
  Hashtbl.iter (fun _ g -> g.v <- 0.) t.gs;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.bucket 0 nbuckets 0;
      h.observed <- 0;
      h.sum <- 0.;
      h.max <- 0.)
    t.hs

(* Fold [src] into [dst]: counters add, gauges keep the maximum (the
   only merge that is independent of merge order — last-change-at
   gauges want it anyway), histograms add bucket-wise.  Used to merge
   per-region registries of a sharded run into one snapshot. *)
let merge_into ~into:dst src =
  Hashtbl.iter
    (fun name (c : counter) ->
      let d = counter dst name in
      d.n <- d.n + c.n)
    src.cs;
  Hashtbl.iter
    (fun name (g : gauge) ->
      let d = gauge dst name in
      if g.v > d.v then d.v <- g.v)
    src.gs;
  Hashtbl.iter
    (fun name (h : histogram) ->
      let d = histogram dst name in
      for i = 0 to nbuckets - 1 do
        d.bucket.(i) <- d.bucket.(i) + h.bucket.(i)
      done;
      d.observed <- d.observed + h.observed;
      d.sum <- d.sum +. h.sum;
      if h.max > d.max then d.max <- h.max)
    src.hs

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t = sorted_bindings t.cs (fun c -> c.n)
let gauges t = sorted_bindings t.gs (fun g -> g.v)
let histograms t = sorted_bindings t.hs Fun.id
let find_counter t name = Hashtbl.find_opt t.cs name
let find_gauge t name = Hashtbl.find_opt t.gs name

module For_tests = struct
  let nbuckets = nbuckets
  let bucket_of = bucket_of
  let bucket_upper = bucket_upper
end
