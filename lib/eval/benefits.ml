open Dbgp_types
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite

type baseline = Bgp_baseline | Dbgp_baseline

type config = {
  brite : Brite.params;
  trials : int;
  adoption_levels : int list;
  max_paths : int;
  bw_lo : int;
  bw_hi : int;
  dest_sample : int;
  seed : int;
}

let default =
  { brite = Brite.default;
    trials = 9;
    adoption_levels = [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ];
    max_paths = 10;
    bw_lo = 10;
    bw_hi = 1024;
    dest_sample = 120;
    seed = 42 }

type point = { adoption_pct : int; mean : float; ci95 : float }

type series = {
  archetype : string;
  baseline : baseline;
  status_quo : float;
  best_case : float;
  points : point list;
}

(* Route classes, by preference-free export semantics only:
   0 = origin, 1 = learned from customer, 2 = from peer, 3 = from provider. *)
let k_origin = 0
and k_customer = 1
and k_peer = 2
and k_provider = 3

let exportable k (view_of_receiver : Graph.view) =
  k = k_origin || k = k_customer
  || ( match view_of_receiver with
       | Graph.Customer_of_me -> true
       | Graph.Provider_of_me | Graph.Peer_of_me -> false )

let klass_of_view = function
  | Graph.Customer_of_me -> k_customer
  | Graph.Peer_of_me -> k_peer
  | Graph.Provider_of_me -> k_provider

(* Per-destination propagation state; [info.(v)] is the archetype's
   advertised control information (-1 = absent, i.e. dropped or never
   attached). *)
type state = {
  reach : bool array;
  klass : int array;
  parent : int array;
  plen : int array;
  info : int array;
  upc : int array;  (* upgraded ASes on the chosen path *)
}

let fresh_state n =
  { reach = Array.make n false;
    klass = Array.make n k_origin;
    parent = Array.make n (-1);
    plen = Array.make n 0;
    info = Array.make n (-1);
    upc = Array.make n 0 }

let on_path st ~dest v u =
  (* Is v on u's chosen path?  Walk the parent chain. *)
  let rec go x steps =
    if steps > 64 then true (* defensive: treat runaway chains as loops *)
    else if x = v then true
    else if x = dest || x < 0 then false
    else go st.parent.(x) (steps + 1)
  in
  go u 0

type archetype_hooks = {
  name : string;
  (* Given the selected candidate's advertised info and the list of all
     candidates' (neighbor, effective info) pairs, the info this AS
     advertises (-1 = none) when it IS upgraded... *)
  upgraded_info : selected_info:int -> all_infos:int list -> me:int -> int;
  (* ...and the preference key an upgraded AS maximizes for a candidate
     (higher better; first component of lexicographic order before
     shorter-path and lower-id tie-breaks).  [plen] and [upc] let
     additive objectives estimate the unexposed remainder of the path. *)
  upgraded_pref : info:int -> plen:int -> upc:int -> int;
}

(* One destination's converged routing under the given upgrade set.
   [threshold]: Section 3.5's mitigation — an upgraded AS applies the
   archetype's preference only to candidates whose paths already carry
   at least that many upgraded ASes, falling back to shortest-path
   otherwise. *)
let propagate ?threshold g ~dest ~upgraded ~baseline ~hooks st =
  let n = Graph.size g in
  let nbrs = Array.init n (fun v -> Graph.neighbors g v) in
  Array.fill st.reach 0 n false;
  Array.fill st.info 0 n (-1);
  st.reach.(dest) <- true;
  st.klass.(dest) <- k_origin;
  st.parent.(dest) <- -1;
  st.plen.(dest) <- 0;
  st.info.(dest) <- (if upgraded.(dest) then hooks.upgraded_info ~selected_info:(-1) ~all_infos:[] ~me:dest else -1);
  st.upc.(dest) <- (if upgraded.(dest) then 1 else 0);
  let changed = ref true in
  let rounds = ref 0 in
  (* Buffers for the synchronous round update. *)
  let n_reach = Array.make n false
  and n_klass = Array.make n 0
  and n_parent = Array.make n (-1)
  and n_plen = Array.make n 0
  and n_info = Array.make n (-1)
  and n_upc = Array.make n 0 in
  while !changed && !rounds < 60 do
    incr rounds;
    changed := false;
    Array.blit st.reach 0 n_reach 0 n;
    Array.blit st.klass 0 n_klass 0 n;
    Array.blit st.parent 0 n_parent 0 n;
    Array.blit st.plen 0 n_plen 0 n;
    Array.blit st.info 0 n_info 0 n;
    Array.blit st.upc 0 n_upc 0 n;
    for v = 0 to n - 1 do
      if v <> dest then begin
        (* Collect valley-free, loop-free candidates from the previous
           round's state. *)
        let best_u = ref (-1)
        and best_k = ref 0
        and best_plen = ref max_int
        and best_info = ref (-1)
        and best_pref = ref min_int
        and infos = ref [] in
        List.iter
          (fun (u, view_of_u) ->
            if st.reach.(u) then begin
              let view_of_v_from_u =
                match view_of_u with
                | Graph.Customer_of_me -> Graph.Provider_of_me
                | Graph.Provider_of_me -> Graph.Customer_of_me
                | Graph.Peer_of_me -> Graph.Peer_of_me
              in
              if
                exportable st.klass.(u) view_of_v_from_u
                && not (on_path st ~dest v u)
              then begin
                let cand_info = st.info.(u) in
                infos := cand_info :: !infos;
                let cand_plen = st.plen.(u) + 1 in
                let gated =
                  (* threshold = required percentage of the candidate
                     path's ASes that are upgraded (path = u's chosen
                     nodes plus u itself = plen + 1 ASes). *)
                  match threshold with
                  | Some pct -> st.upc.(u) * 100 >= pct * (st.plen.(u) + 1)
                  | None -> true
                in
                let better =
                  if upgraded.(v) && gated then begin
                    let pref =
                      hooks.upgraded_pref ~info:cand_info ~plen:cand_plen
                        ~upc:st.upc.(u)
                    in
                    (* Archetype-preferred candidates always beat
                       ungated ones (rank 1 vs 0 below). *)
                    !best_pref = min_int
                    || pref > !best_pref
                    || (pref = !best_pref && cand_plen < !best_plen)
                    || (pref = !best_pref && cand_plen = !best_plen && (!best_u < 0 || u < !best_u))
                  end
                  else if upgraded.(v) && !best_pref > min_int then
                    (* an archetype-gated best already exists; an
                       ungated candidate never displaces it *)
                    false
                  else
                    cand_plen < !best_plen
                    || (cand_plen = !best_plen && (!best_u < 0 || u < !best_u))
                in
                if better then begin
                  best_u := u;
                  best_k := klass_of_view view_of_u;
                  best_plen := cand_plen;
                  best_info := cand_info;
                  best_pref :=
                    ( if upgraded.(v) && gated then
                        hooks.upgraded_pref ~info:cand_info ~plen:cand_plen
                          ~upc:st.upc.(u)
                      else min_int )
                end
              end
            end)
          nbrs.(v);
        if !best_u < 0 then begin
          if n_reach.(v) then changed := true;
          n_reach.(v) <- false;
          n_info.(v) <- -1
        end
        else begin
          let info =
            if upgraded.(v) then
              hooks.upgraded_info ~selected_info:!best_info ~all_infos:!infos
                ~me:v
            else
              match baseline with
              | Dbgp_baseline -> !best_info (* pass-through *)
              | Bgp_baseline -> -1 (* stripped before re-advertisement *)
          in
          let upc = st.upc.(!best_u) + (if upgraded.(v) then 1 else 0) in
          if
            (not n_reach.(v))
            || n_parent.(v) <> !best_u
            || n_klass.(v) <> !best_k
            || n_plen.(v) <> !best_plen
            || n_info.(v) <> info
            || n_upc.(v) <> upc
          then changed := true;
          n_reach.(v) <- true;
          n_parent.(v) <- !best_u;
          n_klass.(v) <- !best_k;
          n_plen.(v) <- !best_plen;
          n_info.(v) <- info;
          n_upc.(v) <- upc
        end
      end
    done;
    Array.blit n_reach 0 st.reach 0 n;
    Array.blit n_klass 0 st.klass 0 n;
    Array.blit n_parent 0 st.parent 0 n;
    Array.blit n_plen 0 st.plen 0 n;
    Array.blit n_info 0 st.info 0 n;
    Array.blit n_upc 0 st.upc 0 n
  done

let mean_ci values =
  match values with
  | [] -> (0., 0.)
  | _ ->
    let n = float_of_int (List.length values) in
    let mean = List.fold_left ( +. ) 0. values /. n in
    if List.length values < 2 then (mean, 0.)
    else begin
      let var =
        List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. values
        /. (n -. 1.)
      in
      (mean, 1.96 *. sqrt (var /. n))
    end

type adoption_order = Random_order | Core_first | Edge_first

let pick_upgraded ?(order = Random_order) ~g rng n pct =
  let upgraded = Array.make n false in
  let k = n * pct / 100 in
  (* Always draw the random sample so every order consumes the same PRNG
     stream — keeps destination sampling paired across ablation arms. *)
  let chosen = Prng.sample rng k (Array.init n Fun.id) in
  ( match order with
    | Random_order -> Array.iter (fun v -> upgraded.(v) <- true) chosen
    | Core_first | Edge_first ->
      let by_degree =
        List.init n Fun.id
        |> List.sort (fun a b ->
               let c = Int.compare (Graph.degree g a) (Graph.degree g b) in
               match order with
               | Core_first -> if c <> 0 then -c else Int.compare a b
               | Edge_first | Random_order -> if c <> 0 then c else Int.compare a b)
      in
      List.iteri (fun i v -> if i < k then upgraded.(v) <- true) by_degree );
  upgraded

(* Benefit of one (topology, upgrade set, baseline) configuration:
   [measure] maps converged per-destination state to the per-AS benefit,
   which we sum over sampled destinations (scaled to all destinations)
   and average over the measured population. *)
let run_config ?threshold g ~rng ~upgraded ~baseline ~hooks ~dest_sample ~population
    ~measure st =
  let n = Dbgp_topology.As_graph.size g in
  let sample = min dest_sample n in
  let dests = Prng.sample rng sample (Array.init n Fun.id) in
  let scale = float_of_int (n - 1) /. float_of_int sample in
  let totals = Array.make n 0. in
  Array.iter
    (fun dest ->
      propagate ?threshold g ~dest ~upgraded ~baseline ~hooks st;
      for v = 0 to n - 1 do
        if v <> dest && st.reach.(v) then totals.(v) <- totals.(v) +. measure st ~dest v
      done)
    dests;
  let members = List.filter population (List.init n Fun.id) in
  match members with
  | [] -> None
  | _ ->
    let sum =
      List.fold_left (fun acc v -> acc +. (totals.(v) *. scale)) 0. members
    in
    Some (sum /. float_of_int (List.length members))

let run_archetype ?threshold ?order cfg baseline ~hooks ~measure ~population_of =
  let n = cfg.brite.Brite.n in
  let st = fresh_state n in
  let levels = cfg.adoption_levels in
  let per_level = Hashtbl.create 16 in
  let status_quo_vals = ref [] and best_vals = ref [] in
  for trial = 0 to cfg.trials - 1 do
    let rng = Prng.create (cfg.seed + (trial * 7919)) in
    let g = Brite.generate rng cfg.brite in
    let extra = Prng.split rng in
    (* Status quo: nobody upgraded; population = everyone. *)
    let nobody = Array.make n false in
    ( match
        run_config g ~rng:(Prng.split extra) ~upgraded:nobody ~baseline ~hooks
          ~dest_sample:cfg.dest_sample
          ~population:(fun _ -> true)
          ~measure:(measure ~upgraded:nobody ~g) st
      with
      | Some v -> status_quo_vals := v :: !status_quo_vals
      | None -> () );
    List.iter
      (fun pct ->
        let upgraded = pick_upgraded ?order ~g extra n pct in
        let population = population_of ~g ~upgraded in
        match
          run_config ?threshold g ~rng:(Prng.split extra) ~upgraded ~baseline ~hooks
            ~dest_sample:cfg.dest_sample ~population
            ~measure:(measure ~upgraded ~g) st
        with
        | Some v ->
          Hashtbl.replace per_level pct
            (v :: Option.value (Hashtbl.find_opt per_level pct) ~default:[])
        | None -> ())
      levels;
    if not (List.mem 100 levels) then begin
      let all = Array.make n true in
      match
        run_config g ~rng:(Prng.split extra) ~upgraded:all ~baseline ~hooks
          ~dest_sample:cfg.dest_sample
          ~population:(fun _ -> true)
          ~measure:(measure ~upgraded:all ~g) st
      with
      | Some v -> best_vals := v :: !best_vals
      | None -> ()
    end
  done;
  let points =
    List.map
      (fun pct ->
        let vals = Option.value (Hashtbl.find_opt per_level pct) ~default:[] in
        let mean, ci95 = mean_ci vals in
        { adoption_pct = pct; mean; ci95 })
      levels
  in
  let status_quo, _ = mean_ci !status_quo_vals in
  let best_case =
    if List.mem 100 levels then
      match List.rev points with [] -> 0. | p :: _ -> p.mean
    else fst (mean_ci !best_vals)
  in
  (points, status_quo, best_case)

let extra_paths ?order cfg baseline =
  let cap = cfg.max_paths in
  let hooks =
    { name = "extra-paths";
      upgraded_info =
        (fun ~selected_info ~all_infos ~me:_ ->
          (* Described (protocol-usable) paths: the sum of candidates'
             advertised counts, plus the single default path when the
             selected candidate carries no protocol information. *)
          let described =
            List.fold_left
              (fun acc i -> if i >= 0 then acc + i else acc)
              0 all_infos
          in
          let total = described + (if selected_info < 0 then 1 else 0) in
          min cap (max 1 total));
      upgraded_pref = (fun ~info ~plen:_ ~upc:_ -> if info < 0 then 1 else info) }
  in
  let measure ~upgraded ~g:_ st ~dest:_ v =
    if upgraded.(v) && st.info.(v) >= 0 then float_of_int st.info.(v) else 1.
  in
  let population_of ~g ~upgraded =
    let stub_set = Graph.stubs g in
    fun v -> upgraded.(v) && List.mem v stub_set
  in
  let points, status_quo, best_case =
    run_archetype ?order cfg baseline ~hooks ~measure ~population_of
  in
  let tag =
    match order with
    | Some Core_first -> " (core-first adoption)"
    | Some Edge_first -> " (edge-first adoption)"
    | Some Random_order | None -> ""
  in
  { archetype = "extra-paths" ^ tag; baseline; status_quo; best_case; points }

let bottleneck_bandwidth_hooks cfg bw =
  ignore cfg;
  { name = "bottleneck-bandwidth";
    upgraded_info =
      (fun ~selected_info ~all_infos:_ ~me ->
        if selected_info < 0 then bw.(me) else min selected_info bw.(me));
    upgraded_pref = (fun ~info ~plen:_ ~upc:_ -> info) }

let bottleneck_bandwidth cfg baseline =
  let n = cfg.brite.Brite.n in
  (* Bandwidths are a property of the topology trial, but hooks close over
     one shared array refreshed per trial via the PRNG stream: we derive
     them deterministically from the AS id and the seed instead, which
     keeps them stable across baselines (paired comparison, like the
     paper's shared seeds). *)
  let bw = Array.make n 0 in
  let fill_bw seed =
    let rng = Prng.create (seed * 104729) in
    for v = 0 to n - 1 do
      bw.(v) <- Prng.int_in rng cfg.bw_lo cfg.bw_hi
    done
  in
  fill_bw cfg.seed;
  let hooks = bottleneck_bandwidth_hooks cfg bw in
  let measure ~upgraded:_ ~g:_ st ~dest v =
    (* True bottleneck: minimum ingress bandwidth over every AS the
       chosen path traverses after v. *)
    let rec walk x acc steps =
      if x < 0 || steps > 64 then acc
      else if x = dest then min acc bw.(x)
      else walk st.parent.(x) (min acc bw.(x)) (steps + 1)
    in
    float_of_int (walk st.parent.(v) max_int 0)
  in
  let population_of ~g:_ ~upgraded v = upgraded.(v) in
  let points, status_quo, best_case =
    run_archetype cfg baseline ~hooks ~measure ~population_of
  in
  { archetype = "bottleneck-bandwidth"; baseline; status_quo; best_case; points }

let bottleneck_bandwidth_threshold cfg ~coverage_pct baseline =
  let threshold = coverage_pct in
  let n = cfg.brite.Brite.n in
  let bw = Array.make n 0 in
  let rng = Prng.create (cfg.seed * 104729) in
  for v = 0 to n - 1 do
    bw.(v) <- Prng.int_in rng cfg.bw_lo cfg.bw_hi
  done;
  let hooks = bottleneck_bandwidth_hooks cfg bw in
  let measure ~upgraded:_ ~g:_ st ~dest v =
    let rec walk x acc steps =
      if x < 0 || steps > 64 then acc
      else if x = dest then min acc bw.(x)
      else walk st.parent.(x) (min acc bw.(x)) (steps + 1)
    in
    float_of_int (walk st.parent.(v) max_int 0)
  in
  let population_of ~g:_ ~upgraded v = upgraded.(v) in
  let points, status_quo, best_case =
    run_archetype ~threshold cfg baseline ~hooks ~measure ~population_of
  in
  { archetype =
      Printf.sprintf "bottleneck-bandwidth (>=%d%%%% upgraded coverage)" coverage_pct;
    baseline; status_quo; best_case; points }

let end_to_end_latency cfg baseline =
  (* Section 6.3's aside: protocols optimizing an additive objective like
     end-to-end latency "would see higher rates of incremental benefits"
     than the bottleneck archetype, because every exposed AS improves the
     estimate instead of one bottleneck dominating.  Advertised info is
     the accumulated latency over exposed (upgraded) ASes; selection
     minimizes it; the benefit metric is the TRUE path latency (lower is
     better, so the series stores its negation to keep "higher = better"
     uniform across archetypes). *)
  let n = cfg.brite.Brite.n in
  let lat = Array.make n 0 in
  let rng = Prng.create (cfg.seed * 7717) in
  for v = 0 to n - 1 do
    lat.(v) <- Prng.int_in rng 1 100
  done;
  let hooks =
    { name = "end-to-end-latency";
      upgraded_info =
        (fun ~selected_info ~all_infos:_ ~me ->
          (if selected_info < 0 then 0 else selected_info) + lat.(me));
      upgraded_pref =
        (fun ~info ~plen ~upc ->
          (* Estimated total latency: exposed sum plus the expected
             latency (midpoint ~50) of every unexposed AS on the path. *)
          let exposed = if info < 0 then 0 else info in
          let unexposed = max 0 (plen + 1 - upc) in
          -(exposed + (50 * unexposed))) }
  in
  let measure ~upgraded:_ ~g:_ st ~dest v =
    let rec walk x acc steps =
      if x < 0 || steps > 64 then acc
      else if x = dest then acc + lat.(x)
      else walk st.parent.(x) (acc + lat.(x)) (steps + 1)
    in
    -. float_of_int (walk st.parent.(v) 0 0)
  in
  let population_of ~g:_ ~upgraded v = upgraded.(v) in
  let points, status_quo, best_case =
    run_archetype cfg baseline ~hooks ~measure ~population_of
  in
  { archetype = "end-to-end latency (negated: higher is better)";
    baseline; status_quo; best_case; points }

let crossover s =
  (* The first adoption level from which the benefit stays above the
     status quo — a sustained crossing, robust to noise at low levels. *)
  let rec scan = function
    | [] -> None
    | p :: rest ->
      if p.mean > s.status_quo && List.for_all (fun q -> q.mean > s.status_quo) rest
      then Some p.adoption_pct
      else scan rest
  in
  scan s.points
