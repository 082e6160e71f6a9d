module J = Dls_util.Json
module Faults = Dls_flowsim.Faults

let ( let* ) = Result.bind

type mutation =
  | Register_app of { app : string; cluster : int; payoff : float }
  | Retire_app of { app : string }
  | Platform_delta of Faults.kind list

type request =
  | Mutate of mutation
  | Get_schedule of {
      objective : Dls_core.Lp_relax.objective;
      budget_ms : float option;
    }
  | Health
  | Drain
  | Crash

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)
(* ------------------------------------------------------------------ *)

let mutation_to_json = function
  | Register_app { app; cluster; payoff } ->
    J.Obj
      [ ("op", J.Str "register_app"); ("app", J.Str app);
        ("cluster", J.Num (float_of_int cluster)); ("payoff", J.Num payoff) ]
  | Retire_app { app } ->
    J.Obj [ ("op", J.Str "retire_app"); ("app", J.Str app) ]
  | Platform_delta kinds ->
    J.Obj
      [ ("op", J.Str "platform_delta");
        ("events", J.Arr (List.map Faults.kind_to_json kinds)) ]

let mutation_of_json j =
  let* op = J.field "op" J.to_str j in
  match op with
  | "register_app" ->
    let* app = J.field "app" J.to_str j in
    let* cluster = J.field "cluster" J.to_int j in
    let* payoff = J.field "payoff" J.to_num j in
    Ok (Register_app { app; cluster; payoff })
  | "retire_app" ->
    let* app = J.field "app" J.to_str j in
    Ok (Retire_app { app })
  | "platform_delta" ->
    let* kinds = J.field "events" (J.list Faults.kind_of_json) j in
    Ok (Platform_delta kinds)
  | other -> Error (Printf.sprintf "request: unknown mutation op %S" other)

let objective_name = function
  | Dls_core.Lp_relax.Sum -> "sum"
  | Dls_core.Lp_relax.Maxmin -> "maxmin"

let objective_of_name = function
  | "sum" -> Ok Dls_core.Lp_relax.Sum
  | "maxmin" -> Ok Dls_core.Lp_relax.Maxmin
  | other -> Error (Printf.sprintf "request: unknown objective %S" other)

let request_to_json = function
  | Mutate m -> mutation_to_json m
  | Get_schedule { objective; budget_ms } ->
    J.Obj
      (( [ ("op", J.Str "get_schedule");
           ("objective", J.Str (objective_name objective)) ]
       @ match budget_ms with
         | None -> []
         | Some b -> [ ("budget_ms", J.Num b) ] ))
  | Health -> J.Obj [ ("op", J.Str "health") ]
  | Drain -> J.Obj [ ("op", J.Str "drain") ]
  | Crash -> J.Obj [ ("op", J.Str "crash") ]

let request_of_json j =
  let* op = J.field "op" J.to_str j in
  match op with
  | "register_app" | "retire_app" | "platform_delta" ->
    let* m = mutation_of_json j in
    Ok (Mutate m)
  | "get_schedule" ->
    let* objective =
      J.opt_field "objective"
        (fun v -> Result.bind (J.to_str v) objective_of_name)
        j
    in
    let objective = Option.value objective ~default:Dls_core.Lp_relax.Maxmin in
    let* budget_ms = J.opt_field "budget_ms" J.to_num j in
    (match budget_ms with
    | Some b when not (b >= 0.0 && b < infinity) ->
      Error (Printf.sprintf "request: budget_ms %g not in [0, inf)" b)
    | _ -> Ok (Get_schedule { objective; budget_ms }))
  | "health" -> Ok Health
  | "drain" -> Ok Drain
  | "crash" -> Ok Crash
  | other -> Error (Printf.sprintf "request: unknown op %S" other)

(* ------------------------------------------------------------------ *)
(* Schedule replies                                                    *)
(* ------------------------------------------------------------------ *)

type schedule_reply = {
  sr_seq : int;
  sr_objective : float;
  sr_rung : string;
  sr_degraded : bool;
  sr_breaker : string;
  sr_alpha : (int * int * float) list;
  sr_beta : (int * int * int) list;
}

let schedule_reply_to_json r =
  let triple k l v = J.Arr [ J.Num (float_of_int k); J.Num (float_of_int l); v ] in
  J.Obj
    [ ("seq", J.Num (float_of_int r.sr_seq));
      ("objective", J.Num r.sr_objective); ("rung", J.Str r.sr_rung);
      ("degraded", J.Bool r.sr_degraded); ("breaker", J.Str r.sr_breaker);
      ( "alpha",
        J.Arr (List.map (fun (k, l, v) -> triple k l (J.Num v)) r.sr_alpha) );
      ( "beta",
        J.Arr
          (List.map
             (fun (k, l, n) -> triple k l (J.Num (float_of_int n)))
             r.sr_beta) ) ]

let triple_of_json conv j =
  match j with
  | J.Arr [ k; l; v ] ->
    let* k = J.to_int k in
    let* l = J.to_int l in
    let* v = conv v in
    Ok (k, l, v)
  | _ -> Error "schedule: entry is not a [k, l, value] triple"

let schedule_reply_of_json j =
  (* [seq] joined the reply with the batching layer; default 0 keeps
     pre-batching frames decodable. *)
  let* sr_seq = J.opt_field "seq" J.to_int j in
  let sr_seq = Option.value sr_seq ~default:0 in
  let* sr_objective = J.field "objective" J.to_num j in
  let* sr_rung = J.field "rung" J.to_str j in
  let* sr_degraded = J.field "degraded" J.to_bool j in
  let* sr_breaker = J.field "breaker" J.to_str j in
  let* sr_alpha = J.field "alpha" (J.list (triple_of_json J.to_num)) j in
  let* sr_beta = J.field "beta" (J.list (triple_of_json J.to_int)) j in
  Ok { sr_seq; sr_objective; sr_rung; sr_degraded; sr_breaker; sr_alpha;
       sr_beta }

let equal_schedule a b =
  a.sr_seq = b.sr_seq
  && a.sr_objective = b.sr_objective
  && a.sr_rung = b.sr_rung
  && a.sr_degraded = b.sr_degraded
  && a.sr_alpha = b.sr_alpha
  && a.sr_beta = b.sr_beta

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 4 * 1024 * 1024

let frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let split_frame ?(max_frame = max_frame) s =
  match String.index_opt s '\n' with
  | None ->
    (* The longest legal header is the digits of [max_frame]: anything
       longer can never become a valid frame. *)
    if String.length s > String.length (string_of_int max_frame) then
      `Bad "frame header too long"
    else `Incomplete
  | Some nl -> (
    let hdr = String.sub s 0 nl in
    if not (is_digits hdr) then `Bad (Printf.sprintf "bad frame header %S" hdr)
    else
      match int_of_string_opt hdr with
      | None -> `Bad (Printf.sprintf "bad frame header %S" hdr)
      | Some len when len > max_frame ->
        `Bad (Printf.sprintf "frame of %d bytes exceeds cap %d" len max_frame)
      | Some len ->
        if String.length s >= nl + 1 + len then
          `Frame (String.sub s (nl + 1) len, nl + 1 + len)
        else `Incomplete)

(* ------------------------------------------------------------------ *)
(* Blocking client-side IO                                             *)
(* ------------------------------------------------------------------ *)

let write_frame fd payload =
  let msg = frame payload in
  let rec go pos =
    if pos < String.length msg then
      let n = Unix.write_substring fd msg pos (String.length msg - pos) in
      if n > 0 then go (pos + n)
  in
  go 0

let read_frame ?(timeout = 10.0) ~buf fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout
   with Unix.Unix_error _ -> ());
  let chunk = Bytes.create 4096 in
  let rec go () =
    match split_frame (Buffer.contents buf) with
    | `Frame (payload, consumed) ->
      let rest = Buffer.contents buf in
      Buffer.clear buf;
      Buffer.add_substring buf rest consumed (String.length rest - consumed);
      Ok payload
    | `Bad reason -> Error ("bad frame: " ^ reason)
    | `Incomplete -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> Error "connection closed mid-frame"
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error "timeout waiting for reply"
      | exception Unix.Unix_error (e, _, _) ->
        Error ("read: " ^ Unix.error_message e))
  in
  go ()
