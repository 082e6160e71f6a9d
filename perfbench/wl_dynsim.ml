(* dynsim-faults: Dynamic.run with its default policy, heuristic and
   objective, flow-level fidelity and a random fault plan. *)

open Common
module Arith = Perfbench.Arith
module Dynamic = Dls_dynsim.Dynamic
module Workload = Dls_dynsim.Workload
module Faults = Dls_flowsim.Faults
module Gen = Dls_platform.Generator
module Prng = Dls_util.Prng

let name = "dynsim-faults"

let k = 16

let fidelity = Dynamic.Flow 4

(* A run is a fixed number of simulations, [sims_per_second] per second
   of --seconds; each is one Dynamic.run on its own platform, job stream
   and fault plan, so a run averages over dozens of platforms.  The
   rate estimator's rounds are [sims_per_round] consecutive simulations,
   about a second. *)
let sims_per_second = 4

let sims_per_round = 4

let jobs_per_sim = 30

let arrival_rate = 0.75

(* Link faults and cluster throttles strike every simulation, but
   rarely enough that almost every job finishes (cluster crashes strand
   the jobs queued there). *)
let link_rate = 0.02

let cluster_rate = 0.005

type sim = {
  platform : Dls_platform.Platform.t;
  workload : Workload.t;
  faults : Faults.plan;
}

(* The platforms are a fixed test bed, the same on every seed, so that a
   run's numbers do not depend on which platforms a seed drew; --seed
   draws each simulation's job stream and fault plan. *)
let testbed_seed = 2005

let make_sim ~seed index =
  let platform =
    Gen.generate (Prng.derive ~seed:testbed_seed ~index)
      { Gen.default_params with Gen.k }
  in
  let rng = Prng.derive ~seed ~index in
  let s = Prng.int rng ~lo:0 ~hi:1_000_000_000 in
  let workload =
    Workload.synthetic ~seed:s ~jobs:jobs_per_sim ~rate:arrival_rate
      ~clusters:k ()
  in
  let horizon = 2.0 *. Workload.makespan_lower_bound platform workload in
  let faults =
    Faults.random ~seed:(s + 1) ~horizon ~link_rate ~cluster_rate platform
  in
  { platform; workload; faults }

let simulate r =
  Dynamic.run ~fidelity ~faults:r.faults r.platform r.workload

(* One set-up: generate the run's inputs and simulate two warm-up
   inputs.  The warm-up inputs do not depend on --seed, so setup_s times
   the same simulations on every seed. *)
let setup_seed = 1_000_003

let setup_once ~seed ~seconds =
  let t0 = now () in
  let sims =
    Array.init (sims_per_second * seconds) (make_sim ~seed:((seed * 7919) + 17))
  in
  for i = 0 to 1 do
    ignore (simulate (make_sim ~seed:setup_seed i))
  done;
  (sims, now () -. t0)

let failed_replans (res : Dynamic.result) =
  List.length
    (List.filter
       (fun line ->
         String.length line > 0
         && List.mem "failed" (String.split_on_char ' ' line))
       (String.split_on_char '\n' res.Dynamic.event_log))

let sum f xs = Array.fold_left (fun acc x -> acc + f x) 0 xs

let replan_seconds results =
  Array.concat (Array.to_list (Array.map (fun r -> r.Dynamic.replan_seconds) results))

(* Simulate every input; returns the results and the rate rounds. *)
let timed ?(wrap = fun f -> f ()) sims =
  let results = Array.make (Array.length sims) None in
  let rounds =
    Array.init (Array.length sims / sims_per_round) (fun r ->
        let t0 = now () in
        let first = r * sims_per_round in
        let rs =
          Array.init sims_per_round (fun i ->
              let res = wrap (fun () -> simulate sims.(first + i)) in
              results.(first + i) <- Some res;
              res)
        in
        (float_of_int (sum (fun r -> r.Dynamic.events) rs), now () -. t0))
  in
  (Array.map Option.get results, rounds)

let checks sims results =
  Array.iteri
    (fun i (res : Dynamic.result) ->
      let jobs = List.length sims.(i).workload in
      check "completed + unfinished = jobs"
        (List.length res.Dynamic.completed + res.Dynamic.unfinished = jobs)
        (fun () ->
          Printf.sprintf "simulation %d: %d + %d <> %d" i
            (List.length res.Dynamic.completed) res.Dynamic.unfinished jobs);
      check "guard never exhausted" (not res.Dynamic.guard_exhausted) (fun () ->
          Printf.sprintf "simulation %d truncated" i))
    results

(* Two set-ups before the timed pass and three after it: setup_s is
   their median, so one slow host phase does not set it. *)
let run ~seed ~seconds ~trace =
  let setups = List.init 2 (fun _ -> setup_once ~seed ~seconds) in
  let sims = fst (List.hd setups) in
  let results, rounds = timed sims in
  let setup_s =
    Arith.median
      (Array.of_list
         (List.map snd setups
         @ List.init 3 (fun _ -> snd (setup_once ~seed ~seconds))))
  in
  checks sims results;
  let rate = Arith.sustained_rate rounds in
  let lat_metrics, lat_info = latency_metrics (replan_seconds results) in
  let jobs = sum (fun r -> List.length r.workload) sims in
  let unfinished = sum (fun r -> r.Dynamic.unfinished) results in
  let replans = sum (fun r -> r.Dynamic.replans) results in
  let events = sum (fun r -> r.Dynamic.events) results in
  let failed =
    sum failed_replans results
    + sum (fun r -> if r.Dynamic.guard_exhausted then 1 else 0) results
  in
  (* Completed work over what the platforms could have computed in the
     same simulated time. *)
  let work = ref 0.0 and capacity = ref 0.0 in
  Array.iteri
    (fun i (res : Dynamic.result) ->
      work := !work +. res.Dynamic.completed_work;
      capacity :=
        !capacity
        +. (res.Dynamic.makespan *. Dls_platform.Platform.total_speed sims.(i).platform))
    results;
  let e2e =
    { attempted = replans;
      failed;
      metrics =
        [ ("setup_s", "s", setup_s); ("ops_per_s", "1/s", rate) ]
        @ lat_metrics
        @ [ ("peak_rss_mb", "MB", peak_rss_mb 0);
            ("result_quality", "1", !work /. !capacity) ];
      info =
        lat_info
        @ [ ("simulations", J.Num (float_of_int (Array.length sims)));
            ("rate_rounds", J.Num (float_of_int (Array.length rounds)));
            ("jobs", J.Num (float_of_int jobs));
            ("unfinished_share", J.Num (float_of_int unfinished /. float_of_int jobs));
            ( "counts",
              J.Obj
                [ ("dyn.events", J.Num (float_of_int events));
                  ("dyn.replans", J.Num (float_of_int replans)) ] ) ] }
  in
  if not trace then e2e
  else begin
    let dir = scratch_dir name in
    Dls_obs.Obs.configure ~trace:(Filename.concat dir "trace.json")
      ~metrics:(Filename.concat dir "metrics.jsonl") ();
    let before = M.snapshot () in
    let t_results, t_rounds =
      timed ~wrap:(fun f -> span "bench.dynsim.run" f) sims
    in
    let d = M.diff (M.snapshot ()) ~since:before in
    let evs = Trace.events () in
    Dls_obs.Obs.finalize ();
    Array.iteri
      (fun i (res : Dynamic.result) ->
        check "event log identical when traced"
          (String.equal res.Dynamic.event_log results.(i).Dynamic.event_log)
          (fun () -> Printf.sprintf "simulation %d" i))
      t_results;
    let ev = float_of_int events in
    let sim_busy, _ = span_total evs "sim.run" in
    let loop =
      self_total evs ~name:"bench.dynsim.run" ~children:[ "dyn.replan"; "sim.run" ]
    in
    let t_replan = replan_seconds t_results in
    let q p = ms (Arith.quantile t_replan p).Arith.value in
    let runs = counter d "sim.runs" in

    check "dyn.events counter" (counter d "dyn.events" = events) (fun () ->
        Printf.sprintf "%d counted, %d in the results" (counter d "dyn.events") events);
    let counts =
      compare_counts
        ~key:(Printf.sprintf "%s-s%d-n%d" name seed (Array.length sims))
        (counts d)
    in
    let layer =
      [ ("greedy.iterations", "count", float_of_int (counter d "greedy.iterations"));
        ("flowsim.runs", "count", float_of_int runs);
        ( "flowsim.rounds_per_run",
          "count",
          float_of_int (counter d "sim.rounds") /. float_of_int (max 1 runs) );
        ("flowsim.busy_ms", "ms", ms sim_busy /. ev);
        ("dynsim.replans", "count", float_of_int replans);
        ("dynsim.replan_p50_ms", "ms", q 0.5);
        ("dynsim.replan_p99_ms", "ms", q 0.99);
        ("dynsim.loop_ms", "ms", ms loop /. ev);
        ( "obs.trace_overhead_pct",
          "%",
          100.0 *. (rate -. Arith.sustained_rate t_rounds) /. rate ) ]
      @ lp_metrics d ~ops:events
    in
    { e2e with metrics = layer; info = e2e.info @ [ counts ] }
  end
