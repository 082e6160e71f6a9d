(* Campaign workloads: Campaign.run over Table-1 platforms at one K. *)

open Common
module Arith = Perfbench.Arith
module Campaign = Dls_experiments.Campaign
module Measure = Dls_experiments.Measure
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
open Dls_core

type spec = {
  name : string;
  k : int;  (* one K per workload: cost per platform grows about as K^4 *)
  with_lprr : bool;
  per_second : float;
      (* platforms per second of --seconds: fixes how many distinct
         platforms a run evaluates, whatever the program's speed *)
  round : int;  (* platforms per round of the rate estimator *)
  warmup : int;  (* platforms per set-up repetition *)
}

let large_k =
  { name = "campaign-large-k"; k = 45; with_lprr = false; per_second = 1.8;
    round = 4; warmup = 1 }

let lprr =
  { name = "campaign-lprr"; k = 12; with_lprr = true; per_second = 55.0;
    round = 40; warmup = 30 }

let config spec ~seed ~n =
  { Campaign.seed; ks = [ spec.k ]; per_k = n; with_lprr = spec.with_lprr;
    lprr_max_k = None; measure_time = true }

(* Campaign seeds of the timed run and of the set-up repetitions.  The
   set-up inputs do not depend on --seed, so setup_s times the same work
   on every seed. *)
let timed_seed seed = (seed * 7919) + 17

let setup_seed r = 1_000_003 + r

(* One Campaign.run through the public entry point: one domain, each
   entry durable (logged and flushed) as it completes.  Returns the
   start time, each entry's completion time, the entries and the log. *)
let run_campaign ~dir ~tag ?(on_entry = fun _ _ -> ()) cfg =
  let out = Filename.concat dir (tag ^ ".jsonl") in
  let n = Campaign.total cfg in
  let ends = Array.make n Float.nan and entries = Array.make n None in
  let i = ref 0 in
  let t0 = now () in
  (match
     Campaign.run ~domains:1 ~chunk:1 ~out
       ~on_entry:(fun e ->
         ends.(!i) <- now ();
         entries.(!i) <- Some e;
         on_entry !i e;
         incr i)
       cfg
   with
  | Ok _ -> ()
  | Error msg -> check "Campaign.run" false (fun () -> msg));
  check "campaign entries" (!i = n) (fun () ->
      Printf.sprintf "%d of %d entries logged" !i n);
  (t0, ends, Array.to_list entries |> List.filter_map Fun.id, out)

let records entries =
  List.filter_map
    (function Campaign.Record r -> Some r | Campaign.Skipped _ -> None)
    entries

let bound_checks spec (r : Campaign.record) =
  let v = r.Campaign.values in
  let le name x bound =
    check "heuristic <= LP bound"
      (x <= bound *. (1.0 +. 1e-6))
      (fun () ->
        Printf.sprintf "index %d: %s = %.17g exceeds its bound %.17g"
          r.Campaign.index name x bound)
  in
  let ge name x y =
    (* LPRG starts from LPR's rounding and only adds work. *)
    check "LPRG >= LPR"
      (x >= y *. (1.0 -. 1e-9))
      (fun () ->
        Printf.sprintf "index %d: %s LPRG %.17g < LPR %.17g" r.Campaign.index
          name x y)
  in
  let open Measure in
  le "G sum" v.g_sum v.lp_sum;
  le "G maxmin" v.g_maxmin v.lp_maxmin;
  le "LPR sum" v.lpr_sum v.lp_sum;
  le "LPR maxmin" v.lpr_maxmin v.lp_maxmin;
  le "LPRG sum" v.lprg_sum v.lp_sum;
  le "LPRG maxmin" v.lprg_maxmin v.lp_maxmin;
  ge "sum" v.lprg_sum v.lpr_sum;
  ge "maxmin" v.lprg_maxmin v.lpr_maxmin;
  match (v.lprr_sum, v.lprr_maxmin) with
  | Some s, Some m ->
    le "LPRR sum" s v.lp_sum;
    le "LPRR maxmin" m v.lp_maxmin
  | _ ->
    check "LPRR values" (not spec.with_lprr) (fun () ->
        Printf.sprintf "index %d has no LPRR values" r.Campaign.index)

(* The quality guard: the measured heuristic's MAXMIN value over the LP
   bound, averaged over platforms (a zero bound counts as reached). *)
let quality spec recs =
  let ratio (r : Campaign.record) =
    let v = r.Campaign.values in
    let x =
      if spec.with_lprr then Option.value ~default:0.0 v.Measure.lprr_maxmin
      else v.Measure.lprg_maxmin
    in
    if v.Measure.lp_maxmin > 0.0 then x /. v.Measure.lp_maxmin else 1.0
  in
  List.fold_left (fun acc r -> acc +. ratio r) 0.0 recs
  /. float_of_int (max 1 (List.length recs))

let count_platforms spec seconds =
  max (3 * spec.round)
    (int_of_float (Float.round (spec.per_second *. float_of_int seconds)))

(* One set-up: a complete Campaign.run over [warmup] platforms of a
   fixed seed (log, manifest and first-call costs included). *)
let setup_once spec ~dir r =
  let t0 = now () in
  let cfg = config spec ~seed:(setup_seed r) ~n:spec.warmup in
  ignore (run_campaign ~dir ~tag:(Printf.sprintf "setup%d" r) cfg);
  now () -. t0

(* The timed pass: everything the end-to-end metrics need. *)
let timed spec ~dir ~tag ?on_entry cfg =
  let t0, ends, entries, log = run_campaign ~dir ~tag ?on_entry cfg in
  let recs = records entries in
  let skipped = List.length entries - List.length recs in
  check "no skipped entries" (skipped = 0) (fun () ->
      Printf.sprintf "%d skipped" skipped);
  List.iter (bound_checks spec) recs;
  let lat = Array.mapi (fun i e -> e -. if i = 0 then t0 else ends.(i - 1)) ends in
  let rounds = Arith.rounds ~size:spec.round ~start:t0 ends in
  (rounds, lat, recs, skipped, ends.(Array.length ends - 1) -. t0, log)

let lprr_counts recs =
  List.fold_left
    (fun (s, p) (r : Campaign.record) ->
      match r.Campaign.values.Measure.lprr_counters with
      | Some c ->
        (s + c.Dls_lp.Revised_simplex.solves, p + c.Dls_lp.Revised_simplex.pivots)
      | None -> (s, p))
    (0, 0) recs

let end_to_end spec ~setup_s ~rounds ~lat ~recs ~skipped =
  let lat_metrics, lat_info = latency_metrics lat in
  let n = Array.length lat in
  let solves, pivots = lprr_counts recs in
  { attempted = n;
    failed = skipped;
    metrics =
      [ ("setup_s", "s", setup_s); ("ops_per_s", "1/s", Arith.sustained_rate rounds) ]
      @ lat_metrics
      @ [ ("peak_rss_mb", "MB", peak_rss_mb 0);
          ("result_quality", "1", quality spec recs) ];
    info =
      lat_info
      @ [ ("platforms", J.Num (float_of_int n));
          ("k", J.Num (float_of_int spec.k));
          ("rate_rounds", J.Num (float_of_int (Array.length rounds)));
          ( "counts",
            J.Obj
              [ ("lprr_maxmin_lp_solves", J.Num (float_of_int solves));
                ("lprr_maxmin_pivots", J.Num (float_of_int pivots)) ] ) ] }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

let counts_now () = List.map snd (counts (M.snapshot ()))

(* Measure.evaluate's call sequence for one campaign index, on the same
   Prng.derive streams as Campaign.evaluate_index, with a span around
   each public call.  Returns the values to compare with the record. *)
let replay spec cfg index =
  span "bench.platform" @@ fun () ->
  let k = spec.k in
  let rng = Prng.derive ~seed:cfg.Campaign.seed ~index in
  let params = Measure.sample_params rng ~k in
  let platform = span "bench.platform.generate" (fun () -> Gen.generate rng params) in
  let problem =
    span "bench.platform.problem" (fun () -> Measure.assign_workload rng platform)
  in
  let lrng = Prng.split rng in
  let get what = function
    | Ok x -> x
    | Error msg -> failwith (Printf.sprintf "replay %d: %s: %s" index what msg)
  in
  let checked alloc =
    let v = span "bench.core.check" (fun () -> Allocation.check problem alloc) in
    if v <> [] then failwith (Printf.sprintf "replay %d: infeasible output" index)
  in
  let value obj alloc = Allocation.objective obj problem alloc in
  let lp obj =
    get "LP" (span "bench.core.lp_bound" (fun () -> Heuristics.lp_bound ~objective:obj problem))
  in
  let lp_maxmin = lp Lp_relax.Maxmin in
  let lp_sum = lp Lp_relax.Sum in
  let g = span "bench.core.greedy" (fun () -> Greedy.solve problem) in
  checked g;
  let both name solve =
    let run obj tag =
      let a = get name (span name (fun () -> solve obj)) in
      checked a;
      value tag a
    in
    let mm = run Lp_relax.Maxmin `Maxmin in
    let s = run Lp_relax.Sum `Sum in
    (mm, s)
  in
  let lpr = both "bench.core.lpr" (fun objective -> Lpr.solve ~objective problem) in
  let lprg = both "bench.core.lprg" (fun objective -> Lprg.solve ~objective problem) in
  let lprr =
    if spec.with_lprr then
      Some
        (both "bench.core.lprr" (fun objective ->
             Result.map (fun st -> st.Lprr.allocation) (Lprr.solve ~objective ~rng:lrng problem)))
    else None
  in
  ( [ lp_sum; lp_maxmin; value `Sum g; value `Maxmin g; snd lpr; fst lpr; snd lprg;
      fst lprg ],
    lprr )

let record_values (r : Campaign.record) =
  let v = r.Campaign.values in
  let open Measure in
  ( [ v.lp_sum; v.lp_maxmin; v.g_sum; v.g_maxmin; v.lpr_sum; v.lpr_maxmin;
      v.lprg_sum; v.lprg_maxmin ],
    match (v.lprr_maxmin, v.lprr_sum) with
    | Some m, Some s -> Some (m, s)
    | _ -> None )

(* Platforms the traced run replays with per-layer spans. *)
let replayed n = max 2 (n / 4)

let traced spec ~dir ~cfg ~rate_plain =
  let n = Campaign.total cfg in
  let m = replayed n in
  let per_index = Array.make (m + 1) [] in
  let before = M.snapshot () in
  per_index.(0) <- counts_now ();
  let rounds, _, recs, _, wall, log =
    timed spec ~dir ~tag:"traced" cfg ~on_entry:(fun i _ ->
        if i < m then per_index.(i + 1) <- counts_now ())
  in
  let d = M.diff (M.snapshot ()) ~since:before in
  let evs = Trace.events () in
  (* Replay the first [m] indices and compare with their records. *)
  let by_index = Hashtbl.create n in
  List.iter (fun (r : Campaign.record) -> Hashtbl.replace by_index r.Campaign.index r) recs;
  for index = 0 to m - 1 do
    let c0 = counts_now () in
    let values = replay spec cfg index in
    let c1 = counts_now () in
    let delta a b = List.map2 ( - ) b a in
    check "replayed counts" (delta c0 c1 = delta per_index.(index) per_index.(index + 1))
      (fun () -> Printf.sprintf "index %d: LP/greedy counts differ from the campaign" index);
    match Hashtbl.find_opt by_index index with
    | Some r ->
      check "replayed values" (values = record_values r) (fun () ->
          Printf.sprintf "index %d: replayed values differ from the record" index)
    | None -> check "replayed values" false (fun () -> Printf.sprintf "index %d has no record" index)
  done;
  let all_evs = Trace.events () in
  let per_m name = ms (fst (span_total all_evs name)) /. float_of_int m in
  let lp_based = [ "bench.core.lp_bound"; "bench.core.lpr"; "bench.core.lprg"; "bench.core.lprr" ] in
  let model =
    List.fold_left
      (fun acc name -> acc +. self_total all_evs ~name ~children:[ "lp.solve" ])
      0.0 lp_based
  in
  let tasks, _ = span_total evs "campaign.task" in
  let layer =
    [ ("platform.generate_ms", "ms", per_m "bench.platform.generate");
      ("platform.problem_ms", "ms", per_m "bench.platform.problem");
      ("core.lp_bound_ms", "ms", per_m "bench.core.lp_bound");
      ("core.greedy_ms", "ms", per_m "bench.core.greedy");
      ("core.lpr_ms", "ms", per_m "bench.core.lpr");
      ("core.lprg_ms", "ms", per_m "bench.core.lprg");
      ("core.lprr_ms", "ms", per_m "bench.core.lprr");
      ("core.check_ms", "ms", per_m "bench.core.check");
      ("core.model_ms", "ms", ms model /. float_of_int m);
      ("lprr.lp_solves", "count", float_of_int (counter d "lprr.lp_solves"));
      ("lprr.rounds", "count", float_of_int (counter d "lprr.rounds"));
      ("greedy.iterations", "count", float_of_int (counter d "greedy.iterations"));
      ("experiments.overhead_ms", "ms", ms (wall -. tasks) /. float_of_int n);
      ( "experiments.log_bytes",
        "B",
        float_of_int (file_size log) /. float_of_int (max 1 (List.length recs)) );
      ( "obs.trace_overhead_pct",
        "%",
        100.0 *. (rate_plain -. Arith.sustained_rate rounds) /. rate_plain ) ]
    @ lp_metrics d ~ops:n
  in
  (layer, counts d)

(* ------------------------------------------------------------------ *)

(* Two set-ups before the timed pass and three after it: setup_s is
   their median, so one slow host phase does not set it. *)
let run spec ~seed ~seconds ~trace =
  let dir = scratch_dir spec.name in
  let before = List.init 2 (setup_once spec ~dir) in
  let n = count_platforms spec seconds in
  let cfg = config spec ~seed:(timed_seed seed) ~n in
  let rounds, lat, recs, skipped, _, _ = timed spec ~dir ~tag:"timed" cfg in
  let after = List.init 3 (fun r -> setup_once spec ~dir (r + 2)) in
  let setup_s = Arith.median (Array.of_list (before @ after)) in
  let e2e = end_to_end spec ~setup_s ~rounds ~lat ~recs ~skipped in
  if not trace then e2e
  else begin
    Dls_obs.Obs.configure ~trace:(Filename.concat dir "trace.json")
      ~metrics:(Filename.concat dir "metrics.jsonl") ();
    let layer, counts =
      traced spec ~dir ~cfg ~rate_plain:(Arith.sustained_rate rounds)
    in
    Dls_obs.Obs.finalize ();
    let counts =
      compare_counts ~key:(Printf.sprintf "%s-s%d-n%d" spec.name seed n) counts
    in
    { e2e with
      metrics = layer;
      info =
        e2e.info
        @ [ counts; ("replayed_platforms", J.Num (float_of_int (replayed n))) ] }
  end
