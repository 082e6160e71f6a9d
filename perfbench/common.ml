(* Plumbing shared by the workloads: checks, scratch files, memory, the
   metrics registry and trace buffer, provenance and the result line. *)

module J = Dls_util.Json
module M = Dls_obs.Metrics
module Trace = Dls_obs.Trace

let now = Unix.gettimeofday

let ms s = s *. 1e3

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let failures : string list ref = ref []

let check name ok detail =
  if not ok then failures := (name ^ ": " ^ detail ()) :: !failures

(* ------------------------------------------------------------------ *)
(* Scratch files, all under perfbench/.run in the checkout             *)
(* ------------------------------------------------------------------ *)

let run_root = Filename.concat "perfbench" ".run"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A private directory for one run, removed when the process exits. *)
let scratch_dir workload =
  let dir =
    Filename.concat run_root
      (Printf.sprintf "%s-%d" workload (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  at_exit (fun () -> try rm_rf dir with _ -> ());
  dir

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* The program's metrics registry                                      *)
(* ------------------------------------------------------------------ *)

let counter snap name =
  match List.assoc_opt name snap with Some (M.Counter c) -> c | _ -> 0

let hist snap name =
  match List.assoc_opt name snap with
  | Some (M.Histogram h) -> h
  | _ -> M.empty_hist

let hist_quantile_ms h q =
  if h.M.hs_count = 0 then 0.0 else ms (M.hist_quantile h ~q)

(* LP-layer numbers over a registry delta, shared by every workload.
   [ops] is the workload's operation count, for the per-op busy time. *)
let lp_metrics d ~ops =
  let solves = counter d "lp.solves" in
  let pivots = counter d "lp.pivots" in
  let busy = hist d "lp.solve_seconds" in
  let per n = float_of_int n /. float_of_int (max 1 solves) in
  [ ("lp.solves", "count", float_of_int solves);
    ("lp.pivots", "count", float_of_int pivots);
    ("lp.pivots_per_solve", "count", per pivots);
    ( "lp.refactors",
      "count",
      float_of_int
        (counter d "lp.reinversions" + counter d "lp.factor.refactors") );
    ("lp.warm_share", "1", per (counter d "lp.warm_starts"));
    ("lp.busy_ms", "ms", ms busy.M.hs_sum /. float_of_int (max 1 ops));
    ("lp.solve_p50_ms", "ms", hist_quantile_ms busy 0.5);
    ("lp.solve_p99_ms", "ms", hist_quantile_ms busy 0.99) ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own spans go into the program's trace buffer, so
   they share one clock and nesting with the program's spans. *)
let span name f = Trace.with_span ~cat:"bench" name f

let spans_named evs name =
  List.filter
    (fun (e : Trace.event) -> e.Trace.ev_ph = 'X' && e.Trace.ev_name = name)
    evs

(* Total duration (seconds) and count of the spans called [name]. *)
let span_total evs name =
  let sp = spans_named evs name in
  ( List.fold_left (fun acc (e : Trace.event) -> acc +. e.Trace.ev_dur) 0.0 sp
    /. 1e6,
    List.length sp )

(* Total self time (seconds) of the spans called [name]: each span
   minus the part covered by spans called one of [children] recorded
   inside it on the same domain. *)
let self_total evs ~name ~children =
  let kids =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.ev_ph = 'X' && List.mem e.Trace.ev_name children)
      evs
    |> List.map (fun (e : Trace.event) ->
           (e.Trace.ev_tid, e.Trace.ev_ts, e.Trace.ev_ts +. e.Trace.ev_dur))
    |> Array.of_list
  in
  Array.sort compare kids;
  (* First kid of [tid] starting at or after [lo]. *)
  let lower tid lo =
    let rec go a b =
      if a >= b then a
      else
        let m = (a + b) / 2 in
        let t, s, _ = kids.(m) in
        if compare (t, s) (tid, lo) < 0 then go (m + 1) b else go a m
    in
    go 0 (Array.length kids)
  in
  List.fold_left
    (fun acc (e : Trace.event) ->
      let lo = e.Trace.ev_ts and hi = e.Trace.ev_ts +. e.Trace.ev_dur in
      let rec collect i acc =
        if i >= Array.length kids then acc
        else
          let t, s, f = kids.(i) in
          if t <> e.Trace.ev_tid || s >= hi then acc
          else collect (i + 1) ((s, f) :: acc)
      in
      acc
      +. Perfbench.Arith.self_time ~start:lo ~stop:hi
           (collect (lower e.Trace.ev_tid lo) []))
    0.0 (spans_named evs name)
  /. 1e6

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let command_line cmd =
  try
    let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then None else Some line
  with _ -> None

(* A fixed integer loop: its time is recorded next to every result so a
   slow or noisy host shows in the log.  It never scales a metric. *)
let calibration_ms () =
  let t0 = now () in
  let x = ref 0x2545F491 in
  for _ = 1 to 20_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF
  done;
  let t = ms (now () -. t0) in
  if !x = -1 then print_newline ();
  t

(* Digest of the program's sources, for checkouts without git. *)
let source_digest () =
  let files = ref [] in
  let rec walk dir =
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p
        else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
        then files := p :: !files)
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  List.iter walk [ "lib"; "bin" ];
  List.sort compare !files
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

let provenance ~workload ~seed ~seconds ~trace =
  [ ("workload", J.Str workload);
    ("seed", J.Num (float_of_int seed));
    ("seconds", J.Num (float_of_int seconds));
    ("trace", J.Bool trace);
    ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", J.Str Sys.ocaml_version);
    ( "git_rev",
      J.Str
        (Option.value ~default:"none"
           (if Sys.file_exists ".git" then command_line "git rev-parse --short HEAD"
            else None)) );
    ("source_digest", J.Str (source_digest ()));
    ( "lp_backend",
      J.Str (Dls_lp.Backend.to_string (Dls_lp.Backend.default ())) );
    ( "ocamlrunparam",
      J.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) ) ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = string * string * float  (* name, unit, value *)

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  info : (string * J.t) list;
      (* sample counts, deterministic counts, digests: printed in the
         header, never compared against a bound *)
}

(* Latency metrics in ms from per-operation seconds in the order the
   operations ran, by Arith.windowed, with the samples behind each. *)
let latency_metrics samples =
  let open Perfbench.Arith in
  let qs =
    List.map
      (fun (name, q) -> (name, windowed samples q))
      [ ("latency_p50_ms", 0.5); ("latency_p90_ms", 0.9);
        ("latency_p99_ms", 0.99) ]
  in
  ( List.map (fun (name, w) -> (name, "ms", ms w.quantile.value)) qs,
    List.map
      (fun (name, w) ->
        ( name,
          J.Obj
            [ ("q", J.Num w.quantile.q);
              ("samples", J.Num (float_of_int w.quantile.n));
              ("beyond", J.Num (float_of_int w.quantile.beyond));
              ("windows", J.Num (float_of_int w.windows));
              ("operations", J.Num (float_of_int (Array.length samples))) ] ))
      qs )

let print_result ~header (r : result) =
  let line k v = Printf.printf "# %-24s %s\n" k (J.to_string v) in
  List.iter (fun (k, v) -> line k v) header;
  List.iter (fun (k, v) -> line k v) r.info;
  Printf.printf "# %-24s %d\n# %-24s %d\n# %-24s %.6g\n" "attempted"
    r.attempted "failed" r.failed "error_rate"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted));
  List.iter
    (fun (name, unit_, v) -> Printf.printf "%-28s %14.6f %s\n" name v unit_)
    r.metrics;
  List.iter (fun f -> Printf.printf "# CHECK FAILED %s\n" f) (List.rev !failures);
  let json =
    J.Obj
      [ ("correct", J.Bool (!failures = []));
        ("attempted", J.Num (float_of_int r.attempted));
        ("failed", J.Num (float_of_int r.failed));
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, unit_, v) ->
                 (name, J.Obj [ ("value", J.Num v); ("unit", J.Str unit_) ]))
               r.metrics) ) ]
  in
  print_endline (J.to_string json)

(* ------------------------------------------------------------------ *)
(* Deterministic counts                                                *)
(* ------------------------------------------------------------------ *)

(* The deterministic counts every traced result records. *)
let count_names =
  [ "lp.solves"; "lp.pivots"; "greedy.iterations"; "lprr.lp_solves";
    "sim.rounds"; "dyn.events"; "dyn.replans" ]

let counts snap = List.map (fun n -> (n, counter snap n)) count_names

let counts_json counts =
  J.Obj (List.map (fun (k, v) -> (k, J.Num (float_of_int v))) counts)

(* Counts that must repeat exactly for one (workload, seed, size) are
   kept between runs; a later run with other counts is nondeterminism.
   Returns the counts for the result's header. *)
let compare_counts ~key counts =
  let dir = Filename.concat run_root "counts" in
  mkdir_p dir;
  let path = Filename.concat dir (key ^ ".json") in
  let obj = counts_json counts in
  let json = J.to_string obj in
  if Sys.file_exists path then begin
    let before = In_channel.with_open_text path In_channel.input_all in
    check "deterministic counts" (String.trim before = json) (fun () ->
        Printf.sprintf "%s differ from an earlier run: %s vs %s" key
          (String.trim before) json)
  end
  else Out_channel.with_open_text path (fun oc -> output_string oc json);
  ("deterministic_counts", obj)
