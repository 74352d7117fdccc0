type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

(* [indent < 0] means compact. *)
let rec render b indent level = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape s);
    Buffer.add_char b '"'
  | List items ->
    render_seq b indent level '[' ']' (fun b level item ->
        render b indent level item)
      items
  | Obj fields ->
    render_seq b indent level '{' '}' (fun b level (k, v) ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape k);
        Buffer.add_string b (if indent < 0 then "\":" else "\": ");
        render b indent level v)
      fields

and render_seq : 'a. Buffer.t -> int -> int -> char -> char ->
    (Buffer.t -> int -> 'a -> unit) -> 'a list -> unit =
 fun b indent level open_c close_c render_item items ->
  Buffer.add_char b open_c;
  if items <> [] then begin
    let pad level =
      if indent >= 0 then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (indent * level) ' ')
      end
    in
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char b ',';
        pad (level + 1);
        render_item b (level + 1) item)
      items;
    pad level
  end;
  Buffer.add_char b close_c

let to_json v =
  let b = Buffer.create 256 in
  render b (-1) 0 v;
  Buffer.contents b

let to_json_pretty v =
  let b = Buffer.create 256 in
  render b 2 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let of_metrics m =
  let hist (h : Metrics.histogram) =
    Obj
      [ ("count", Int (Metrics.observations h));
        ("sum", Float (Metrics.hist_sum h));
        ("max", Float (Metrics.hist_max h));
        ("p50", Float (Metrics.quantile h 0.5));
        ("p90", Float (Metrics.quantile h 0.9));
        ("p99", Float (Metrics.quantile h 0.99)) ]
  in
  Obj
    [ ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (Metrics.counters m)));
      ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) (Metrics.gauges m)));
      ("histograms", Obj (List.map (fun (k, h) -> (k, hist h)) (Metrics.histograms m))) ]

(* The text [Prefix.to_string] gives for a packed prefix (network
   [lsl 6] [lor] length): the dotted quad, a slash, the length. *)
let prefix_text p =
  let n = p lsr 6 in
  String
    (Printf.sprintf "%d.%d.%d.%d/%d"
       ((n lsr 24) land 0xFF) ((n lsr 16) land 0xFF) ((n lsr 8) land 0xFF)
       (n land 0xFF) (p land 0x3F))

let event_fields : Trace.event -> (string * t) list = function
  | Trace.Session_state { asn; peer; state } ->
    [ ("asn", Int asn); ("peer", Int peer); ("state", String state) ]
  | Trace.Update_sent { src; dst; prefix; bytes; withdraw }
  | Trace.Update_received { src; dst; prefix; bytes; withdraw } ->
    [ ("src", Int src); ("dst", Int dst); ("prefix", prefix_text prefix);
      ("bytes", Int bytes); ("withdraw", Bool withdraw) ]
  | Trace.Decision_run { asn; prefix; changed; best_via } ->
    [ ("asn", Int asn); ("prefix", prefix_text prefix); ("changed", Bool changed);
      ("best_via", match best_via with Some a -> Int a | None -> Null) ]
  | Trace.Mrai_flush { src; dst; batched } ->
    [ ("src", Int src); ("dst", Int dst); ("batched", Int batched) ]
  | Trace.Damping_suppress { asn; peer; prefix; reuse_at } ->
    [ ("asn", Int asn); ("peer", Int peer); ("prefix", prefix_text prefix);
      ("reuse_at", Float reuse_at) ]
  | Trace.Damping_reuse { asn; prefix } ->
    [ ("asn", Int asn); ("prefix", prefix_text prefix) ]
  | Trace.Restart_phase { asn; peer; phase; routes } ->
    [ ("asn", Int asn); ("peer", Int peer); ("phase", String phase);
      ("routes", Int routes) ]
  | Trace.Import_rejected { asn; peer; prefix } ->
    [ ("asn", Int asn); ("peer", Int peer); ("prefix", prefix_text prefix) ]
  | Trace.Rx_error { asn; peer; cls; stage; reason } ->
    [ ("asn", Int asn); ("peer", Int peer); ("cls", String cls);
      ("stage", String stage); ("reason", String reason) ]

let of_trace ?last tr =
  let entries = Trace.entries tr in
  let entries =
    match last with
    | None -> entries
    | Some n ->
      let drop = max 0 (List.length entries - n) in
      List.filteri (fun i _ -> i >= drop) entries
  in
  Obj
    [ ("emitted", Int (Trace.emitted tr));
      ("overwritten", Int (Trace.overwritten tr));
      ("events",
       List
         (List.map
            (fun (e : Trace.entry) ->
              Obj
                (("at", Float e.Trace.at)
                 :: ("type", String (Trace.label e.Trace.event))
                 :: event_fields e.Trace.event))
            entries)) ]

let percentile xs q =
  if q < 0. || q > 1. then invalid_arg "Snapshot.percentile: q outside [0, 1]"
  else
    match xs with
    | [] -> Float.nan
    | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile_fields xs =
  let p q = Float (percentile xs q) in
  [ ("count", Int (List.length xs));
    ("p50", p 0.5);
    ("p90", p 0.9);
    ("p99", p 0.99);
    ("max", p 1.0) ]
