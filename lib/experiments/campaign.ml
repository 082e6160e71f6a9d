module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng
module J = Dls_util.Json
module Parallel = Dls_util.Parallel
open Dls_core

type config = {
  seed : int;
  ks : int list;
  per_k : int;
  with_lprr : bool;
  lprr_max_k : int option;
  measure_time : bool;
}

let default_config =
  { seed = 12;
    ks = [ 5; 15; 25; 35; 45; 55 ];
    per_k = 5;
    with_lprr = false;
    lprr_max_k = None;
    measure_time = true }

let total config = config.per_k * List.length config.ks

let k_of_index config index = List.nth config.ks (index / config.per_k)

type record = {
  index : int;
  params : Gen.params;
  active_apps : int;
  values : Measure.values;
}

type entry =
  | Record of record
  | Skipped of { index : int; reason : string }

let entry_index = function
  | Record r -> r.index
  | Skipped { index; _ } -> index

(* ------------------------------------------------------------------ *)
(* Evaluation of one index                                             *)
(* ------------------------------------------------------------------ *)

let zero_counters (c : Dls_lp.Revised_simplex.counters) =
  { c with Dls_lp.Revised_simplex.wall_clock = 0.0 }

let zero_times (v : Measure.values) =
  { v with
    Measure.time_lp = 0.0;
    time_g = 0.0;
    time_lpr = 0.0;
    time_lprg = 0.0;
    time_lprr = Option.map (fun _ -> 0.0) v.Measure.time_lprr;
    lprr_counters = Option.map zero_counters v.Measure.lprr_counters }

let evaluate_index config index =
  let sp = Dls_obs.Trace.start ~cat:"campaign" "campaign.task" in
  let k = k_of_index config index in
  (* The whole point: this index's draws come from its own O(1)-derived
     stream, so neither evaluation order nor partitioning can change
     them. *)
  let rng = Prng.derive ~seed:config.seed ~index in
  let params = Measure.sample_params rng ~k in
  let platform = Gen.generate rng params in
  let problem = Measure.assign_workload rng platform in
  let with_lprr =
    config.with_lprr
    && (match config.lprr_max_k with None -> true | Some m -> k <= m)
  in
  let entry =
    match Measure.evaluate ~with_lprr ~rng:(Prng.split rng) problem with
    | Error reason -> Skipped { index; reason }
    | Ok values ->
      let values = if config.measure_time then values else zero_times values in
      Record
        { index; params;
          active_apps = List.length (Problem.active problem);
          values }
  in
  if Dls_obs.Trace.live sp then
    Dls_obs.Trace.finish sp
      ~args:
        [ ("index", string_of_int index);
          ("k", string_of_int k);
          ("outcome",
           match entry with Record _ -> "record" | Skipped _ -> "skipped") ];
  entry

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let topology_to_json = function
  | Gen.Erdos_renyi -> J.Str "erdos_renyi"
  | Gen.Waxman { alpha; beta } ->
    J.Obj [ ("waxman", J.Obj [ ("alpha", J.Num alpha); ("beta", J.Num beta) ]) ]
  | Gen.Barabasi_albert { m } ->
    J.Obj [ ("barabasi_albert", J.Obj [ ("m", J.Num (float_of_int m)) ]) ]

let params_to_json (p : Gen.params) =
  J.Obj
    [ ("k", J.Num (float_of_int p.Gen.k));
      ("topology", topology_to_json p.Gen.topology_model);
      ("connectivity", J.Num p.Gen.connectivity);
      ("heterogeneity", J.Num p.Gen.heterogeneity);
      ("mean_g", J.Num p.Gen.mean_g);
      ("mean_bw", J.Num p.Gen.mean_bw);
      ("mean_maxcon", J.Num p.Gen.mean_maxcon);
      ("speed", J.Num p.Gen.speed);
      ("speed_heterogeneity", J.Num p.Gen.speed_heterogeneity) ]

let counters_to_json (c : Dls_lp.Revised_simplex.counters) =
  let open Dls_lp.Revised_simplex in
  J.Obj
    [ ("solves", J.Num (float_of_int c.solves));
      ("warm_starts", J.Num (float_of_int c.warm_starts));
      ("cold_starts", J.Num (float_of_int c.cold_starts));
      ("pivots", J.Num (float_of_int c.pivots));
      ("reinversions", J.Num (float_of_int c.reinversions));
      ("bland_activations", J.Num (float_of_int c.bland_activations));
      ("wall_clock", J.Num c.wall_clock) ]

let opt_num = function Some v -> J.Num v | None -> J.Null

let values_to_json (v : Measure.values) =
  J.Obj
    [ ("lp_sum", J.Num v.Measure.lp_sum);
      ("lp_maxmin", J.Num v.Measure.lp_maxmin);
      ("g_sum", J.Num v.Measure.g_sum);
      ("g_maxmin", J.Num v.Measure.g_maxmin);
      ("lpr_sum", J.Num v.Measure.lpr_sum);
      ("lpr_maxmin", J.Num v.Measure.lpr_maxmin);
      ("lprg_sum", J.Num v.Measure.lprg_sum);
      ("lprg_maxmin", J.Num v.Measure.lprg_maxmin);
      ("lprr_sum", opt_num v.Measure.lprr_sum);
      ("lprr_maxmin", opt_num v.Measure.lprr_maxmin);
      ("lprr_counters",
       (match v.Measure.lprr_counters with
        | Some c -> counters_to_json c
        | None -> J.Null));
      ("time_lp", J.Num v.Measure.time_lp);
      ("time_g", J.Num v.Measure.time_g);
      ("time_lpr", J.Num v.Measure.time_lpr);
      ("time_lprg", J.Num v.Measure.time_lprg);
      ("time_lprr", opt_num v.Measure.time_lprr) ]

let entry_to_line = function
  | Record r ->
    J.to_string
      (J.Obj
         [ ("type", J.Str "record");
           ("index", J.Num (float_of_int r.index));
           ("params", params_to_json r.params);
           ("active_apps", J.Num (float_of_int r.active_apps));
           ("values", values_to_json r.values) ])
  | Skipped { index; reason } ->
    J.to_string
      (J.Obj
         [ ("type", J.Str "skipped");
           ("index", J.Num (float_of_int index));
           ("reason", J.Str reason) ])

let topology_of_json = function
  | J.Str "erdos_renyi" -> Ok Gen.Erdos_renyi
  | J.Obj _ as obj when J.member "waxman" obj <> None ->
    J.field "waxman"
      (fun w ->
        let* alpha = J.field "alpha" J.to_num w in
        let* beta = J.field "beta" J.to_num w in
        Ok (Gen.Waxman { alpha; beta }))
      obj
  | J.Obj _ as obj when J.member "barabasi_albert" obj <> None ->
    let* m = J.field "barabasi_albert" (J.field "m" J.to_int) obj in
    Ok (Gen.Barabasi_albert { m })
  | _ -> Error "unknown topology model"

let params_of_json json =
  let* k = J.field "k" J.to_int json in
  let* topology_model = J.field "topology" topology_of_json json in
  let* connectivity = J.field "connectivity" J.to_num json in
  let* heterogeneity = J.field "heterogeneity" J.to_num json in
  let* mean_g = J.field "mean_g" J.to_num json in
  let* mean_bw = J.field "mean_bw" J.to_num json in
  let* mean_maxcon = J.field "mean_maxcon" J.to_num json in
  let* speed = J.field "speed" J.to_num json in
  let* speed_heterogeneity = J.field "speed_heterogeneity" J.to_num json in
  Ok
    { Gen.k; topology_model; connectivity; heterogeneity; mean_g; mean_bw;
      mean_maxcon; speed; speed_heterogeneity }

let counters_of_json json =
  match json with
  | J.Null -> Ok None
  | _ ->
    let* solves = J.field "solves" J.to_int json in
    let* warm_starts = J.field "warm_starts" J.to_int json in
    let* cold_starts = J.field "cold_starts" J.to_int json in
    let* pivots = J.field "pivots" J.to_int json in
    let* reinversions = J.field "reinversions" J.to_int json in
    (* Absent in logs written before the anti-cycling counter existed. *)
    let* bland_activations = J.opt_field "bland_activations" J.to_int json in
    let bland_activations = Option.value bland_activations ~default:0 in
    let* wall_clock = J.field "wall_clock" J.to_num json in
    Ok
      (Some
         { Dls_lp.Revised_simplex.solves; warm_starts; cold_starts; pivots;
           reinversions; bland_activations; wall_clock })

let values_of_json json =
  let* lp_sum = J.field "lp_sum" J.to_num json in
  let* lp_maxmin = J.field "lp_maxmin" J.to_num json in
  let* g_sum = J.field "g_sum" J.to_num json in
  let* g_maxmin = J.field "g_maxmin" J.to_num json in
  let* lpr_sum = J.field "lpr_sum" J.to_num json in
  let* lpr_maxmin = J.field "lpr_maxmin" J.to_num json in
  let* lprg_sum = J.field "lprg_sum" J.to_num json in
  let* lprg_maxmin = J.field "lprg_maxmin" J.to_num json in
  let* lprr_sum = J.opt_field "lprr_sum" J.to_num json in
  let* lprr_maxmin = J.opt_field "lprr_maxmin" J.to_num json in
  let* lprr_counters = J.field "lprr_counters" counters_of_json json in
  let* time_lp = J.field "time_lp" J.to_num json in
  let* time_g = J.field "time_g" J.to_num json in
  let* time_lpr = J.field "time_lpr" J.to_num json in
  let* time_lprg = J.field "time_lprg" J.to_num json in
  let* time_lprr = J.opt_field "time_lprr" J.to_num json in
  Ok
    { Measure.lp_sum; lp_maxmin; g_sum; g_maxmin; lpr_sum; lpr_maxmin;
      lprg_sum; lprg_maxmin; lprr_sum; lprr_maxmin; lprr_counters; time_lp;
      time_g; time_lpr; time_lprg; time_lprr }

let entry_of_line line =
  let* json = J.of_string line in
  let* kind = J.field "type" J.to_str json in
  let* index = J.field "index" J.to_int json in
  match kind with
  | "record" ->
    let* params = J.field "params" params_of_json json in
    let* active_apps = J.field "active_apps" J.to_int json in
    let* values = J.field "values" values_of_json json in
    Ok (Record { index; params; active_apps; values })
  | "skipped" ->
    let* reason = J.field "reason" J.to_str json in
    Ok (Skipped { index; reason })
  | other -> Error ("unknown entry type \"" ^ other ^ "\"")

(* The manifest's leading fields: a resume must find them unchanged. *)
let identity c =
  [ ("version", J.Num 1.0);
    ("seed", J.Num (float_of_int c.seed));
    ("ks", J.Arr (List.map (fun k -> J.Num (float_of_int k)) c.ks));
    ("per_k", J.Num (float_of_int c.per_k));
    ("with_lprr", J.Bool c.with_lprr);
    ("lprr_max_k",
     (match c.lprr_max_k with
      | Some m -> J.Num (float_of_int m)
      | None -> J.Null));
    ("measure_time", J.Bool c.measure_time) ]

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

type summary = Engine.summary = {
  s_total : int;
  s_completed : int;
  s_skipped : int;
  s_evaluated : int;
  s_replayed : int;
  s_wall : float;
  s_times : (string * float array) list;
}

let heuristic_labels = [ "LP"; "G"; "LPR"; "LPRG"; "LPRR" ]

let times_of_values (v : Measure.values) =
  [ Some v.Measure.time_lp; Some v.Measure.time_g; Some v.Measure.time_lpr;
    Some v.Measure.time_lprg; v.Measure.time_lprr ]

let validate config =
  if config.ks = [] then Error "campaign: ks must be non-empty"
  else if config.per_k < 0 then Error "campaign: per_k must be >= 0"
  else Ok ()

let spec config =
  { Engine.log_label = "campaign";
    total = total config;
    index_of = entry_index;
    to_line = entry_to_line;
    of_line = entry_of_line;
    evaluate = evaluate_index config;
    skip_reason =
      (function Record _ -> None | Skipped { reason; _ } -> Some reason);
    entry_times =
      (function
      | Skipped _ -> []
      | Record r ->
        List.concat
          (List.map2
             (fun label t ->
               match t with Some t -> [ (label, t) ] | None -> [])
             heuristic_labels
             (times_of_values r.values)));
    time_labels = heuristic_labels;
    log_time_stats = config.measure_time;
    identity = identity config }

let run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out ?on_entry
    config =
  let* () = validate config in
  Engine.run ?domains ?chunk ?checkpoint_every ?shards ?shard ?resume ?out
    ?on_entry (spec config)

let summary_table s =
  { Report.title = "Campaign summary";
    header = [ "statistic"; "value" ];
    rows =
      [ [ "total indices"; string_of_int s.s_total ];
        [ "completed records"; string_of_int s.s_completed ];
        [ "skipped"; string_of_int s.s_skipped ];
        [ "evaluated this run"; string_of_int s.s_evaluated ];
        [ "replayed from log"; string_of_int s.s_replayed ];
        [ "wall-clock (s)"; Report.cell_float s.s_wall ];
        [ "records/s";
          Report.cell_float
            (float_of_int s.s_evaluated /. Stdlib.max 1e-9 s.s_wall) ] ] }

let times_table s =
  let module Stats = Dls_util.Stats in
  { Report.title = "Per-heuristic wall-clock (seconds, this run)";
    header = [ "heuristic"; "records"; "mean"; "median"; "p95"; "max" ];
    rows =
      List.filter_map
        (fun (label, samples) ->
          if Array.length samples = 0 then None
          else
            Some
              [ label; string_of_int (Array.length samples);
                Report.cell_float (Stats.mean samples);
                Report.cell_float (Stats.median samples);
                Report.cell_float (Stats.percentile samples ~p:95.0);
                Report.cell_float (snd (Stats.min_max samples)) ])
        s.s_times }

let collect ?domains config =
  let records = ref [] in
  match
    run ?domains
      ~on_entry:(function Record r -> records := r :: !records | Skipped _ -> ())
      config
  with
  | Ok _ ->
    List.sort (fun a b -> Stdlib.compare a.index b.index) !records
  | Error msg -> invalid_arg ("Campaign.collect: " ^ msg)
