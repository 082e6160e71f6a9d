(* The benchmark's own arithmetic: how samples become reported numbers.
   Kept pure and apart from the workloads so test_arith.ml can pin it. *)

(* ------------------------------------------------------------------ *)
(* Tails                                                               *)
(* ------------------------------------------------------------------ *)

(* A tail is reported at the highest percentile that still has this
   many samples beyond it, so one stray sample cannot be the tail. *)
let min_beyond = 10

type quantile = {
  value : float;
  q : float;  (* the quantile actually reported: rank / n *)
  n : int;  (* samples behind it *)
  beyond : int;  (* samples strictly above its rank *)
}

(* 1-based nearest rank of quantile [q] among [n] samples, lowered until
   [min_beyond] samples lie beyond it (never below rank 1). *)
let tail_rank ~n q =
  if n < 1 then invalid_arg "Arith.tail_rank: no samples";
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  Stdlib.max 1 (Stdlib.min r (n - min_beyond))

let quantile samples q =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let r = tail_rank ~n q in
  { value = sorted.(r - 1); q = float_of_int r /. float_of_int n; n;
    beyond = n - r }

(* ------------------------------------------------------------------ *)
(* Rates                                                               *)
(* ------------------------------------------------------------------ *)

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Arith.median: empty";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The burst-resistant latency quantile.  Operations are cut, in the
   order they ran, into windows just large enough for [q] to have
   [min_beyond] samples beyond it inside each window (20 for the
   median, 100 for p90, 1000 for p99); the quantile is taken in every
   window and the first decile of those values is reported: the latency
   the program shows outside the host's slow phases, as the rate below
   does for throughput.  With fewer than twenty windows the whole run's
   quantile is reported instead: the first decile of a handful of
   windows is little more than their minimum, which varied more from run
   to run than the whole run's quantile did. *)
let window_quantile = 0.1

let min_windows = 20

type windowed = {
  quantile : quantile;  (* in one window, or over the whole run *)
  windows : int;  (* 1 when the whole run was used *)
}

let windowed samples q =
  let n = Array.length samples in
  let w = int_of_float (Float.ceil ((float_of_int min_beyond /. (1.0 -. q)) -. 1e-6)) in
  let count = n / w in
  if count < min_windows then { quantile = quantile samples q; windows = 1 }
  else begin
    let per = Array.init count (fun i -> quantile (Array.sub samples (i * w) w) q) in
    Array.sort (fun a b -> Float.compare a.value b.value) per;
    let r = int_of_float (Float.ceil (window_quantile *. float_of_int count)) in
    { quantile = per.(Stdlib.max 0 (r - 1)); windows = count }
  end

(* Split a run into rounds of [size] consecutive operations, each
   lasting about a second, shorter than the host's slow phases.
   [start] is when the first operation began and [ends.(i)] when
   operation [i] completed (ascending); a round spans from the previous
   round's last completion to its own.  A trailing partial round is
   dropped unless it is the only one.  Returns (operations, seconds)
   per round. *)
let rounds ~size ~start ends =
  if size < 1 then invalid_arg "Arith.rounds: size < 1";
  let n = Array.length ends in
  let full = n / size in
  let count = if full = 0 && n > 0 then 1 else full in
  Array.init count (fun j ->
      let first = j * size in
      let last = Stdlib.min n (first + size) - 1 in
      let t0 = if first = 0 then start else ends.(first - 1) in
      (float_of_int (last - first + 1), ends.(last) -. t0))

(* The burst-resistant rate: the ninth decile, over rounds, of work /
   seconds.  On a shared 2-core VM the CPU runs about 1.5x slower for
   seconds at a time, at times for most of a run, so a whole-run mean,
   and even the median round, takes on the slow phases; the ninth decile
   moves only when they cover nine tenths of the run. *)
let rate_quantile = 0.9

let sustained_rate rounds =
  let n = Array.length rounds in
  if n = 0 then invalid_arg "Arith.sustained_rate: no rounds";
  let rates = Array.map (fun (work, secs) -> work /. Float.max secs 1e-12) rounds in
  Array.sort Float.compare rates;
  rates.(Stdlib.max 0 (int_of_float (Float.ceil (rate_quantile *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)
(* Quartiles, as Python's statistics.quantiles(values, n=4) gives them *)
(* ------------------------------------------------------------------ *)

let quartiles values =
  let data = Array.copy values in
  Array.sort Float.compare data;
  let ld = Array.length data in
  if ld < 2 then invalid_arg "Arith.quartiles: need at least two values";
  let m = ld + 1 in
  Array.init 3 (fun i ->
      let i = i + 1 in
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta))
      +. (data.(j) *. float_of_int delta))
      /. 4.0)

(* Interquartile distance as a share of the median. *)
let spread values =
  let q = quartiles values in
  (q.(2) -. q.(0)) /. median values

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Length of the part of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match cur with None -> total | Some (a, b) -> total +. (b -. a)

(* A layer's self time: its span minus the part its child spans cover
   (children overlapping each other are counted once). *)
let self_time ~start ~stop children =
  (stop -. start) -. covered ~lo:start ~hi:stop children

(* ------------------------------------------------------------------ *)
(* Daemon reply matching                                               *)
(* ------------------------------------------------------------------ *)

(* Requests still waiting for a reply on one connection, oldest first,
   as (op, tag).  A reply naming an op answers the oldest outstanding
   request of that op: the daemon replies to mutations and health at
   once but to schedules when their batch is solved, so replies of
   different ops may overtake each other, never replies of one op.
   Error and overloaded replies carry no op and answer the oldest
   outstanding request. *)
let match_reply outstanding ~op =
  let rec take acc = function
    | [] -> None
    | (o, tag) :: rest when op = None || op = Some o ->
      Some (tag, List.rev_append acc rest)
    | x :: rest -> take (x :: acc) rest
  in
  match take [] outstanding with
  | Some r -> Ok r
  | None ->
    Error
      (match op with
      | Some o -> Printf.sprintf "reply %S answers no outstanding request" o
      | None -> "reply with no outstanding request")
