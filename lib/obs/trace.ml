type event =
  | Session_state of { asn : int; peer : int; state : string }
  | Update_sent of { src : int; dst : int; prefix : int; bytes : int; withdraw : bool }
  | Update_received of { src : int; dst : int; prefix : int; bytes : int; withdraw : bool }
  | Decision_run of { asn : int; prefix : int; changed : bool; best_via : int option }
  | Mrai_flush of { src : int; dst : int; batched : int }
  | Damping_suppress of { asn : int; peer : int; prefix : int; reuse_at : float }
  | Damping_reuse of { asn : int; prefix : int }
  | Restart_phase of { asn : int; peer : int; phase : string; routes : int }
  | Import_rejected of { asn : int; peer : int; prefix : int }
  | Rx_error of { asn : int; peer : int; cls : string; stage : string; reason : string }

type entry = { at : float; event : event }

(* Column layout.  Every slot is four unboxed words: [at], [tag], [a]
   and [b].  [tag] holds the kind in bits 0-3, two flags in bits 4-5
   and a payload from bit 6 up: the packed prefix (38 bits) or, for
   [Rx_error], the length of [cls].  [a] and [b] hold the two ASNs of
   the event ([asn]/[peer] or [src]/[dst]), or [asn] and [best_via].

   Kinds with a count or a text field are rare on a speaker, so those
   fields live in a side ring ([count], [text]) written only by rare
   kinds.  The side ring needs no index in the slot: the rare events
   among the retained slots are exactly the most recent rare events
   emitted, so walking the slots newest first pairs each rare slot with
   the side slot of the next-older rare sequence number. *)

let k_session_state = 0
let k_update_sent = 1
let k_update_received = 2
let k_decision_run = 3
let k_mrai_flush = 4
let k_damping_suppress = 5
let k_damping_reuse = 6
let k_restart_phase = 7
let k_import_rejected = 8
let k_rx_error = 9

let flag1 = 0x10
let flag2 = 0x20
let kind_of tag = tag land 0xF
let payload tag = tag asr 6

let is_rare tag =
  let k = kind_of tag in
  not (k = k_decision_run || k = k_damping_reuse || k = k_import_rejected)

type t = {
  cap : int;
  (* Every column is grown geometrically up to [cap] as events arrive,
     so the many mostly-quiet speakers of an Internet-scale run don't
     each pay the full ring up front. *)
  mutable at : Float.Array.t;
  mutable tag : int array;
  mutable a : int array;
  mutable b : int array;
  mutable total : int;  (* events ever emitted; write cursor = total mod cap *)
  mutable count : int array;
  mutable text : string array;
  mutable rare : int;  (* rare events ever emitted; side cursor = rare mod cap *)
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive"
  else
    { cap = capacity; at = Float.Array.create 0; tag = [||]; a = [||];
      b = [||]; total = 0; count = [||]; text = [||]; rare = 0 }

let capacity t = t.cap

(* Doubling keeps a write cursor in bounds: growth fires exactly when
   the sequence number equals the length, and the new length exceeds
   it. *)
let grown cap len = min cap (max 16 (2 * len))

let grow_int a n =
  let a' = Array.make n 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let slot t ~at tag a b =
  let len = Array.length t.tag in
  if len < t.cap && t.total >= len then begin
    let n = grown t.cap len in
    let at' = Float.Array.create n in
    Float.Array.blit t.at 0 at' 0 len;
    t.at <- at';
    t.tag <- grow_int t.tag n;
    t.a <- grow_int t.a n;
    t.b <- grow_int t.b n
  end;
  let i = t.total mod t.cap in
  Float.Array.unsafe_set t.at i at;
  Array.unsafe_set t.tag i tag;
  Array.unsafe_set t.a i a;
  Array.unsafe_set t.b i b;
  t.total <- t.total + 1

let side t count text =
  let len = Array.length t.count in
  if len < t.cap && t.rare >= len then begin
    let n = grown t.cap len in
    t.count <- grow_int t.count n;
    let text' = Array.make n "" in
    Array.blit t.text 0 text' 0 len;
    t.text <- text'
  end;
  let i = t.rare mod t.cap in
  Array.unsafe_set t.count i count;
  Array.unsafe_set t.text i text;
  t.rare <- t.rare + 1

let pfx kind prefix = kind lor (prefix lsl 6)
let flag f bit = if f then bit else 0

let emit t ~at = function
  | Decision_run { asn; prefix; changed; best_via } -> (
    let tag = pfx k_decision_run prefix lor flag changed flag1 in
    match best_via with
    | Some via -> slot t ~at (tag lor flag2) asn via
    | None -> slot t ~at tag asn 0 )
  | Import_rejected { asn; peer; prefix } ->
    slot t ~at (pfx k_import_rejected prefix) asn peer
  | Damping_reuse { asn; prefix } ->
    slot t ~at (pfx k_damping_reuse prefix) asn 0
  | Update_sent { src; dst; prefix; bytes; withdraw } ->
    slot t ~at (pfx k_update_sent prefix lor flag withdraw flag1) src dst;
    side t bytes ""
  | Update_received { src; dst; prefix; bytes; withdraw } ->
    slot t ~at (pfx k_update_received prefix lor flag withdraw flag1) src dst;
    side t bytes ""
  | Damping_suppress { asn; peer; prefix; reuse_at } ->
    (* The count column keeps the low 63 bits of the float; flag1 keeps
       the sign bit. *)
    let bits = Int64.bits_of_float reuse_at in
    slot t ~at
      (pfx k_damping_suppress prefix lor flag (Int64.compare bits 0L < 0) flag1)
      asn peer;
    side t (Int64.to_int bits) ""
  | Mrai_flush { src; dst; batched } ->
    slot t ~at k_mrai_flush src dst;
    side t batched ""
  | Session_state { asn; peer; state } ->
    slot t ~at k_session_state asn peer;
    side t 0 state
  | Restart_phase { asn; peer; phase; routes } ->
    slot t ~at k_restart_phase asn peer;
    side t routes phase
  | Rx_error { asn; peer; cls; stage; reason } ->
    (* One text holds all three fields; the payload and the count
       column hold the lengths of the first two. *)
    slot t ~at (pfx k_rx_error (String.length cls)) asn peer;
    side t (String.length stage) (String.concat "" [ cls; stage; reason ])

let decode ~tag ~a ~b ~count ~text =
  let prefix = payload tag and f1 = tag land flag1 <> 0 in
  let k = kind_of tag in
  if k = k_decision_run then
    Decision_run
      { asn = a; prefix; changed = f1;
        best_via = (if tag land flag2 <> 0 then Some b else None) }
  else if k = k_import_rejected then Import_rejected { asn = a; peer = b; prefix }
  else if k = k_damping_reuse then Damping_reuse { asn = a; prefix }
  else if k = k_update_sent then
    Update_sent { src = a; dst = b; prefix; bytes = count; withdraw = f1 }
  else if k = k_update_received then
    Update_received { src = a; dst = b; prefix; bytes = count; withdraw = f1 }
  else if k = k_damping_suppress then begin
    let low = Int64.logand (Int64.of_int count) Int64.max_int in
    let bits = if f1 then Int64.logor low Int64.min_int else low in
    Damping_suppress
      { asn = a; peer = b; prefix; reuse_at = Int64.float_of_bits bits }
  end
  else if k = k_mrai_flush then Mrai_flush { src = a; dst = b; batched = count }
  else if k = k_session_state then Session_state { asn = a; peer = b; state = text }
  else if k = k_restart_phase then
    Restart_phase { asn = a; peer = b; phase = text; routes = count }
  else begin
    let lc = payload tag and ls = count in
    Rx_error
      { asn = a; peer = b; cls = String.sub text 0 lc;
        stage = String.sub text lc ls;
        reason = String.sub text (lc + ls) (String.length text - lc - ls) }
  end

let entries t =
  let kept = min t.total t.cap in
  (* Newest first, consing, so the list comes out oldest first. *)
  let acc = ref [] and rare = ref t.rare in
  for seq = t.total - 1 downto t.total - kept do
    let i = seq mod t.cap in
    let tag = t.tag.(i) in
    let count, text =
      if is_rare tag then begin
        decr rare;
        let j = !rare mod t.cap in
        (t.count.(j), t.text.(j))
      end
      else (0, "")
    in
    let event = decode ~tag ~a:t.a.(i) ~b:t.b.(i) ~count ~text in
    acc := { at = Float.Array.get t.at i; event } :: !acc
  done;
  !acc

let emitted t = t.total
let overwritten t = max 0 (t.total - t.cap)

let clear t =
  Array.fill t.text 0 (Array.length t.text) "";
  t.total <- 0;
  t.rare <- 0

let label = function
  | Session_state _ -> "session_state"
  | Update_sent _ -> "update_sent"
  | Update_received _ -> "update_received"
  | Decision_run _ -> "decision_run"
  | Mrai_flush _ -> "mrai_flush"
  | Damping_suppress _ -> "damping_suppress"
  | Damping_reuse _ -> "damping_reuse"
  | Restart_phase _ -> "restart_phase"
  | Import_rejected _ -> "import_rejected"
  | Rx_error _ -> "rx_error"
