module J = Dls_util.Json

(* ------------------------------------------------------------------ *)
(* Global switch                                                       *)
(* ------------------------------------------------------------------ *)

(* A single flag read on every hot-path operation: when off, [incr],
   [add], [set] and [observe] return after one atomic load and a branch
   — no allocation, no lock, no write.  The flag is flipped once at
   startup (CLI --metrics) or inside tests. *)
let on = Atomic.make false

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let enabled () = Atomic.get on

(* ------------------------------------------------------------------ *)
(* Log-bucketed histogram geometry                                     *)
(* ------------------------------------------------------------------ *)

(* Geometric buckets with growth factor 2^(1/4) ≈ 1.19: bucket [i]
   covers [base^i, base^(i+1)), so any quantile read off a bucket edge
   is within a factor [base] of the true order statistic.  Indices are
   clamped to [-160, 159], covering ~1e-12 .. ~1e12 — microseconds to
   megaseconds when observations are in seconds, and unit counts up to
   a trillion.  Non-positive and non-finite observations go to a
   separate underflow cell (they have no logarithm). *)
let base = 2.0 ** 0.25

let lo_bucket = -160

let hi_bucket = 159

let num_buckets = hi_bucket - lo_bucket + 1

let bound i = base ** float_of_int i

(* Invariant (up to the clamp): bound i <= v < bound (i + 1), verified
   against the same [bound] used by quantile readers — the log is only
   a first guess, nudged to agree with [**] at bucket edges. *)
let bucket_of v =
  let i = int_of_float (Float.floor (Float.log v /. Float.log base)) in
  let i = if v < bound i then i - 1 else i in
  let i = if v >= bound (i + 1) then i + 1 else i in
  Stdlib.max lo_bucket (Stdlib.min hi_bucket i)

(* ------------------------------------------------------------------ *)
(* Live metric cells                                                   *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_cell : int Atomic.t }

type gval = { gv : float; gseq : int }

type gauge = { g_name : string; g_cell : gval Atomic.t }

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array;  (* length [num_buckets] *)
  h_under : int Atomic.t;
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_min : float Atomic.t;
  h_max : float Atomic.t;
}

(* One process-wide sequence for gauge writes: merge resolves a name
   collision by keeping the later write, and "later" must mean the same
   thing in every shard snapshot, so the order is explicit state, not
   wall-clock. *)
let gauge_seq = Atomic.make 0

let rec cas_update cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then cas_update cell f

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name wrap make unwrap =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match unwrap m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name m)))
      | None ->
        let v = make () in
        Hashtbl.replace registry name (wrap v);
        v)

let counter name =
  register name
    (fun c -> C c)
    (fun () -> { c_name = name; c_cell = Atomic.make 0 })
    (function C c -> Some c | _ -> None)

let gauge name =
  register name
    (fun g -> G g)
    (fun () -> { g_name = name; g_cell = Atomic.make { gv = 0.0; gseq = -1 } })
    (function G g -> Some g | _ -> None)

let histogram name =
  register name
    (fun h -> H h)
    (fun () ->
      { h_name = name;
        h_buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
        h_under = Atomic.make 0;
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0.0;
        h_min = Atomic.make infinity;
        h_max = Atomic.make neg_infinity })
    (function H h -> Some h | _ -> None)

(* ------------------------------------------------------------------ *)
(* Hot-path operations                                                 *)
(* ------------------------------------------------------------------ *)

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1

let set g v =
  if Atomic.get on then
    Atomic.set g.g_cell { gv = v; gseq = Atomic.fetch_and_add gauge_seq 1 }

let observe h v =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    if Float.is_finite v && v > 0.0 then
      ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v - lo_bucket) 1)
    else ignore (Atomic.fetch_and_add h.h_under 1);
    if Float.is_finite v then begin
      cas_update h.h_sum (fun s -> s +. v);
      cas_update h.h_min (fun m -> Float.min m v);
      cas_update h.h_max (fun m -> Float.max m v)
    end
  end

(* ------------------------------------------------------------------ *)
(* Snapshots: pure, mergeable state                                    *)
(* ------------------------------------------------------------------ *)

type hist_snapshot = {
  hs_buckets : (int * int) list;  (* (bucket index, count), ascending, > 0 *)
  hs_underflow : int;
  hs_count : int;  (* all observations, underflow included *)
  hs_sum : float;  (* finite observations only *)
  hs_min : float;  (* [infinity] when no finite observation *)
  hs_max : float;  (* [neg_infinity] likewise *)
}

type value =
  | Counter of int
  | Gauge of { value : float; seq : int }
  | Histogram of hist_snapshot

type snapshot = (string * value) list  (* sorted by metric name *)

let empty_hist =
  { hs_buckets = []; hs_underflow = 0; hs_count = 0; hs_sum = 0.0;
    hs_min = infinity; hs_max = neg_infinity }

let hist_observe hs v =
  let hs =
    if Float.is_finite v && v > 0.0 then begin
      let b = bucket_of v in
      let rec bump = function
        | [] -> [ (b, 1) ]
        | (i, c) :: rest when i = b -> (i, c + 1) :: rest
        | (i, c) :: rest when i > b -> (b, 1) :: (i, c) :: rest
        | pair :: rest -> pair :: bump rest
      in
      { hs with hs_buckets = bump hs.hs_buckets; hs_count = hs.hs_count + 1 }
    end
    else { hs with hs_underflow = hs.hs_underflow + 1; hs_count = hs.hs_count + 1 }
  in
  if Float.is_finite v then
    { hs with
      hs_sum = hs.hs_sum +. v;
      hs_min = Float.min hs.hs_min v;
      hs_max = Float.max hs.hs_max v }
  else hs

let hist_of_values values = List.fold_left hist_observe empty_hist values

(* Bucket-wise sum of two ascending sparse bucket lists. *)
let rec merge_buckets a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (i, c) :: ra, (j, d) :: rb ->
    if i = j then (i, c + d) :: merge_buckets ra rb
    else if i < j then (i, c) :: merge_buckets ra b
    else (j, d) :: merge_buckets a rb

let merge_hist a b =
  { hs_buckets = merge_buckets a.hs_buckets b.hs_buckets;
    hs_underflow = a.hs_underflow + b.hs_underflow;
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_min = Float.min a.hs_min b.hs_min;
    hs_max = Float.max a.hs_max b.hs_max }

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y ->
    (* Later write wins; ties (same seq, e.g. merging a snapshot with
       itself) resolve to the larger value so merge stays commutative. *)
    if x.seq > y.seq then Gauge x
    else if y.seq > x.seq then Gauge y
    else if Float.compare x.value y.value >= 0 then Gauge x
    else Gauge y
  | Histogram x, Histogram y -> Histogram (merge_hist x y)
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.merge: %S has mismatched metric kinds" name)

(* Union of two sorted association lists, combining name collisions. *)
let rec merge a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (n1, v1) :: ra, (n2, v2) :: rb ->
    let c = String.compare n1 n2 in
    if c = 0 then (n1, merge_value n1 v1 v2) :: merge ra rb
    else if c < 0 then (n1, v1) :: merge ra b
    else (n2, v2) :: merge a rb

(* Bucket-wise subtraction: [a - b] where [b] is an earlier snapshot of
   the same growing histogram, so every count of [b] is <= its count in
   [a].  Zero-count buckets are dropped to keep the sparse invariant. *)
let rec diff_buckets a b =
  match (a, b) with
  | rest, [] -> rest
  | [], _ :: _ ->
    invalid_arg "Metrics.diff: since-snapshot has buckets the current lacks"
  | (i, c) :: ra, (j, d) :: rb ->
    if i = j then
      if c - d > 0 then (i, c - d) :: diff_buckets ra rb else diff_buckets ra rb
    else if i < j then (i, c) :: diff_buckets ra b
    else invalid_arg "Metrics.diff: since-snapshot has buckets the current lacks"

let diff_hist cur prev =
  { hs_buckets = diff_buckets cur.hs_buckets prev.hs_buckets;
    hs_underflow = cur.hs_underflow - prev.hs_underflow;
    hs_count = cur.hs_count - prev.hs_count;
    hs_sum = cur.hs_sum -. prev.hs_sum;
    (* Carry the cumulative edges: min/max are monotone, so merging this
       delta onto the previous cumulative state restores them exactly
       (merge takes min-of-mins / max-of-maxes). *)
    hs_min = cur.hs_min;
    hs_max = cur.hs_max }

let diff_value name cur prev =
  match (cur, prev) with
  | Counter x, Counter y -> Counter (x - y)
  | Gauge _, Gauge _ -> cur  (* last write wins on re-merge *)
  | Histogram x, Histogram y -> Histogram (diff_hist x y)
  | _ ->
    invalid_arg
      (Printf.sprintf "Metrics.diff: %S has mismatched metric kinds" name)

let rec diff cur ~since =
  match (cur, since) with
  | rest, [] -> rest
  | [], (n, _) :: _ ->
    invalid_arg
      (Printf.sprintf "Metrics.diff: %S present in since-snapshot only" n)
  | (n1, v1) :: rc, (n2, v2) :: rs ->
    let c = String.compare n1 n2 in
    if c = 0 then (n1, diff_value n1 v1 v2) :: diff rc ~since:rs
    else if c < 0 then (n1, v1) :: diff rc ~since
    else
      invalid_arg
        (Printf.sprintf "Metrics.diff: %S present in since-snapshot only" n2)

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          let v =
            match m with
            | C c -> Counter (Atomic.get c.c_cell)
            | G g ->
              let { gv; gseq } = Atomic.get g.g_cell in
              Gauge { value = gv; seq = gseq }
            | H h ->
              let buckets = ref [] in
              for i = num_buckets - 1 downto 0 do
                let c = Atomic.get h.h_buckets.(i) in
                if c > 0 then buckets := (i + lo_bucket, c) :: !buckets
              done;
              Histogram
                { hs_buckets = !buckets;
                  hs_underflow = Atomic.get h.h_under;
                  hs_count = Atomic.get h.h_count;
                  hs_sum = Atomic.get h.h_sum;
                  hs_min = Atomic.get h.h_min;
                  hs_max = Atomic.get h.h_max }
          in
          (name, v) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c.c_cell 0
          | G g -> Atomic.set g.g_cell { gv = 0.0; gseq = -1 }
          | H h ->
            Array.iter (fun cell -> Atomic.set cell 0) h.h_buckets;
            Atomic.set h.h_under 0;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0.0;
            Atomic.set h.h_min infinity;
            Atomic.set h.h_max neg_infinity)
        registry)

(* ------------------------------------------------------------------ *)
(* Quantiles                                                           *)
(* ------------------------------------------------------------------ *)

let hist_quantile hs ~q =
  if Float.is_nan q then invalid_arg "Metrics.hist_quantile: q is NaN";
  if hs.hs_count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      Stdlib.max 1
        (Stdlib.min hs.hs_count
           (int_of_float (Float.ceil (q *. float_of_int hs.hs_count))))
    in
    (* Underflow observations sort below every bucketed one; report the
       smallest finite observation for ranks landing there. *)
    if rank <= hs.hs_underflow then
      (if Float.is_finite hs.hs_min then hs.hs_min else Float.nan)
    else begin
      let rec walk cum = function
        | [] -> hs.hs_max  (* rank <= count, so only float dust lands here *)
        | (i, c) :: rest ->
          let cum = cum + c in
          if cum >= rank then
            (* The rank-th observation lies in [bound i, bound (i+1)):
               report the upper edge, clamped into the observed range. *)
            Float.max hs.hs_min (Float.min (bound (i + 1)) hs.hs_max)
          else walk cum rest
      in
      walk hs.hs_underflow hs.hs_buckets
    end
  end

(* ------------------------------------------------------------------ *)
(* JSON codec (JSONL: one metric per line)                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* The Json layer is deliberately strict (non-finite numbers have no
   JSON spelling), so sanitization happens here, at the encoding
   boundary: any non-finite value — a NaN gauge from a 0/0-derived
   rate, an untouched histogram's infinite min/max — encodes as [null]
   rather than crashing the [at_exit] flush after the real work
   succeeded.  The decoder maps [null] back to the matching sentinel
   (NaN for gauges, the empty-histogram edges for min/max). *)
let opt_edge v = if Float.is_finite v then J.Num v else J.Null

let value_to_json (name, v) =
  match v with
  | Counter n ->
    J.Obj
      [ ("metric", J.Str name); ("type", J.Str "counter");
        ("value", J.Num (float_of_int n)) ]
  | Gauge { value; seq } ->
    J.Obj
      [ ("metric", J.Str name); ("type", J.Str "gauge");
        ("value", opt_edge value);
        ("seq", J.Num (float_of_int seq)) ]
  | Histogram hs ->
    J.Obj
      [ ("metric", J.Str name); ("type", J.Str "histogram");
        ("count", J.Num (float_of_int hs.hs_count));
        ("underflow", J.Num (float_of_int hs.hs_underflow));
        ("sum", opt_edge hs.hs_sum);
        ("min", opt_edge hs.hs_min);
        ("max", opt_edge hs.hs_max);
        ("buckets",
         J.Arr
           (List.map
              (fun (i, c) ->
                J.Arr [ J.Num (float_of_int i); J.Num (float_of_int c) ])
              hs.hs_buckets)) ]

let value_of_json json =
  let edge name ~empty =
    J.field name (function J.Null -> Ok empty | v -> J.to_num v) json
  in
  let* name = J.field "metric" J.to_str json in
  let* kind = J.field "type" J.to_str json in
  match kind with
  | "counter" ->
    let* n = J.field "value" J.to_int json in
    Ok (name, Counter n)
  | "gauge" ->
    let* value = edge "value" ~empty:Float.nan in
    let* seq = J.field "seq" J.to_int json in
    Ok (name, Gauge { value; seq })
  | "histogram" ->
    let* hs_count = J.field "count" J.to_int json in
    let* hs_underflow = J.field "underflow" J.to_int json in
    let* hs_sum = edge "sum" ~empty:0.0 in
    let* hs_min = edge "min" ~empty:infinity in
    let* hs_max = edge "max" ~empty:neg_infinity in
    let* hs_buckets =
      J.field "buckets"
        (J.list (function
          | J.Arr [ i; c ] ->
            let* i = J.to_int i in
            let* c = J.to_int c in
            Ok (i, c)
          | _ -> Error "histogram bucket is not an [index, count] pair"))
        json
    in
    Ok
      ( name,
        Histogram
          { hs_buckets; hs_underflow; hs_count; hs_sum; hs_min; hs_max } )
  | other -> Error ("unknown metric type \"" ^ other ^ "\"")

let snapshot_to_jsonl snap =
  String.concat ""
    (List.map (fun entry -> J.to_string (value_to_json entry) ^ "\n") snap)

let snapshot_of_jsonl text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let* entries =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let* json = J.of_string line in
        let* entry = value_of_json json in
        Ok (entry :: acc))
      (Ok []) lines
  in
  Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) (List.rev entries))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format 0.0.4)                           *)
(* ------------------------------------------------------------------ *)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Our dotted names map dots
   (and anything else illegal) to underscores; a leading digit gets an
   underscore prefix. *)
let prom_name name =
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    let c = Bytes.get b i in
    let ok =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
      || (i > 0 && c >= '0' && c <= '9')
    in
    if not ok then Bytes.set b i '_'
  done;
  let s = Bytes.to_string b in
  if s = "" then "_" else s

(* Prometheus floats: integral values print without an exponent (what
   every scraper emits for counts); the rest use %.17g round-trip
   precision.  Non-finite sums have no exposition spelling, so they
   degrade to 0 rather than corrupt the page. *)
let prom_num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_prometheus snap =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let p = prom_name name in
      match v with
      | Counter n ->
        line "# TYPE %s_total counter" p;
        line "%s_total %d" p n
      | Gauge { value; _ } ->
        line "# TYPE %s gauge" p;
        line "%s %s" p (prom_num value)
      | Histogram hs ->
        line "# TYPE %s histogram" p;
        (* Underflow observations are <= 0, hence <= every positive [le]
           edge: they enter the running total before the first bucket. *)
        let cum = ref hs.hs_underflow in
        List.iter
          (fun (i, c) ->
            cum := !cum + c;
            line "%s_bucket{le=\"%s\"} %d" p (prom_num (bound (i + 1))) !cum)
          hs.hs_buckets;
        line "%s_bucket{le=\"+Inf\"} %d" p hs.hs_count;
        line "%s_sum %s" p (prom_num hs.hs_sum);
        line "%s_count %d" p hs.hs_count)
    snap;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human summary table                                                 *)
(* ------------------------------------------------------------------ *)

let cell v = if Float.is_nan v then "nan" else Printf.sprintf "%.4g" v

let summary_rows snap =
  List.map
    (fun (name, v) ->
      match v with
      | Counter n -> [ name; "counter"; string_of_int n; "-"; "-"; "-"; "-"; "-" ]
      | Gauge { value; _ } -> [ name; "gauge"; cell value; "-"; "-"; "-"; "-"; "-" ]
      | Histogram hs ->
        if hs.hs_count = 0 then
          [ name; "histogram"; "0"; "-"; "-"; "-"; "-"; "-" ]
        else
          [ name; "histogram"; string_of_int hs.hs_count;
            cell (hs.hs_sum /. float_of_int hs.hs_count);
            cell (hist_quantile hs ~q:0.5);
            cell (hist_quantile hs ~q:0.95);
            cell (hist_quantile hs ~q:0.99);
            cell (if Float.is_finite hs.hs_max then hs.hs_max else Float.nan) ])
    snap

let pp_summary fmt snap =
  (* "value" holds the counter/gauge value, or a histogram's count. *)
  let header = [ "metric"; "type"; "value"; "mean"; "p50"; "p95"; "p99"; "max" ] in
  let rows = summary_rows snap in
  let all = header :: rows in
  let ncols = List.length header in
  let width = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i c -> width.(i) <- Stdlib.max width.(i) (String.length c)))
    all;
  let pad i c = c ^ String.make (width.(i) - String.length c) ' ' in
  let rule =
    "+"
    ^ String.concat "+"
        (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') width))
    ^ "+"
  in
  let pp_row r =
    Format.fprintf fmt "| %s |@," (String.concat " | " (List.mapi pad r))
  in
  Format.fprintf fmt "@[<v>metrics summary@,%s@," rule;
  pp_row header;
  Format.fprintf fmt "%s@," rule;
  List.iter pp_row rows;
  Format.fprintf fmt "%s@]@." rule
