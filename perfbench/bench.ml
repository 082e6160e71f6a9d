(* The benchmark's command line.

     run.sh --workload W --seed N --seconds S --trace 0|1
       one run: end-to-end metrics with --trace 0, per-layer metrics
       with --trace 1; the last stdout line is the JSON result
     run.sh --all [--seed N] [--seconds S] [--trace 0|1]
       every workload, one after another, each in its own process
     run.sh --steady N [--workload W] [--seconds S]
       N runs per workload on seeds 1..N: median, quartiles and spread
       of each end-to-end metric (the evidence behind the bounds)

   Any failed output check makes the command exit non-zero. *)

module J = Dls_util.Json
module Arith = Perfbench.Arith

(* Workload and metric names, and units, come from BENCHMARK.json at
   the checkout root, the benchmark's contract. *)
type contract = {
  run_seconds : int;
  workloads : string list;
  end_to_end : (string * string) list;  (* name, unit *)
  per_layer : (string * string) list;
}

let contract =
  lazy
    (let field name j =
       match J.member name j with
       | Some (J.Arr xs) -> xs
       | _ -> failwith ("BENCHMARK.json: no list " ^ name)
     in
     let str name j =
       match J.member name j with
       | Some (J.Str s) -> s
       | _ -> failwith ("BENCHMARK.json: entry without " ^ name)
     in
     match
       J.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
     with
     | Error e -> failwith ("BENCHMARK.json: " ^ e)
     | Ok j ->
       let metrics name = List.map (fun m -> (str "name" m, str "unit" m)) (field name j) in
       { run_seconds =
           (match J.member "run_seconds" j with
           | Some (J.Num x) -> int_of_float x
           | _ -> failwith "BENCHMARK.json: no run_seconds");
         workloads = List.map (str "name") (field "workloads" j);
         end_to_end = metrics "end_to_end";
         per_layer = metrics "per_layer" })

let workloads () = (Lazy.force contract).workloads

(* Runnable by name but not listed: too unsteady from seed to seed to
   gate on (README.md gives its measured spread); its traced run still
   gives per-layer numbers at paper-scale K. *)
let unlisted = [ "campaign-large-k" ]

(* Put a workload's metrics in the declared order and units, filling
   unreached layers with 0; a name outside the list is a bench bug. *)
let normalise declared ~fill (metrics : Common.metric list) =
  List.iter
    (fun (name, unit_, _) ->
      match List.assoc_opt name declared with
      | Some u when u = unit_ -> ()
      | _ -> failwith (Printf.sprintf "undeclared metric %s [%s]" name unit_))
    metrics;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (n, _, _) -> n = name) metrics with
      | Some m -> m
      | None ->
        if fill then (name, unit_, 0.0)
        else failwith ("workload did not report " ^ name))
    declared

let run_one ~workload ~seed ~seconds ~trace ~daemon =
  let calibration_before = Common.calibration_ms () in
  let r =
    match workload with
    | "campaign-large-k" -> Wl_campaign.run Wl_campaign.large_k ~seed ~seconds ~trace
    | "campaign-lprr" -> Wl_campaign.run Wl_campaign.lprr ~seed ~seconds ~trace
    | "dynsim-faults" -> Wl_dynsim.run ~seed ~seconds ~trace
    | "daemon-burst" -> Wl_daemon.run ~daemon ~seed ~seconds ~trace
    | w -> failwith ("unknown workload " ^ w)
  in
  let r =
    { r with
      Common.metrics =
        (let c = Lazy.force contract in
         if trace then normalise c.per_layer ~fill:true r.Common.metrics
         else normalise c.end_to_end ~fill:false r.Common.metrics) }
  in
  let header =
    Common.provenance ~workload ~seed ~seconds ~trace
    @ [ ( "calibration_ms",
          J.Arr [ J.Num calibration_before; J.Num (Common.calibration_ms ()) ] ) ]
  in
  Common.print_result ~header r;
  if !Common.failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Several runs, each its own process                                  *)
(* ------------------------------------------------------------------ *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

(* Run one workload in a child process; echo its output when [echo].
   Returns the JSON result and the header line with the calibration
   loop's times. *)
let child ~echo args =
  let cmd =
    String.concat " " (List.map Filename.quote (Sys.executable_name :: args))
  in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  if echo then print_string out;
  let calibration =
    List.find_opt
      (String.starts_with ~prefix:"# calibration_ms")
      (String.split_on_char '\n' out)
  in
  match (status, J.of_string (last_line out)) with
  | Unix.WEXITED 0, Ok j -> Ok (j, Option.value ~default:"" calibration)
  | Unix.WEXITED c, _ -> Error (Printf.sprintf "%s exited %d" cmd c)
  | _, _ -> Error (cmd ^ " was killed")

let metric_values j =
  match J.member "metrics" j with
  | Some (J.Obj ms) ->
    List.filter_map
      (fun (name, v) ->
        match J.member "value" v with
        | Some (J.Num x) -> Some (name, x)
        | _ -> None)
      ms
  | _ -> []

let common_args ~workload ~seed ~seconds ~trace ~daemon =
  [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
    string_of_int seconds; "--trace"; (if trace then "1" else "0");
    "--daemon"; daemon ]

let run_all ~seed ~seconds ~trace ~daemon =
  let bad =
    List.filter
      (fun workload ->
        Printf.printf "=== %s\n%!" workload;
        match child ~echo:true (common_args ~workload ~seed ~seconds ~trace ~daemon) with
        | Ok _ -> false
        | Error msg ->
          Printf.printf "FAILED: %s\n%!" msg;
          true)
      (workloads ())
  in
  if bad <> [] then exit 1

let steady ~runs ~only ~seconds ~daemon =
  let failed = ref false in
  List.iter
    (fun workload ->
      let results =
        List.init runs (fun i ->
            let seed = i + 1 in
            match
              child ~echo:false
                (common_args ~workload ~seed ~seconds ~trace:false ~daemon)
            with
            | Ok (j, calibration) ->
              let vs = metric_values j in
              Printf.printf "%s seed %d:%s  %s\n%!" workload seed
                (String.concat ""
                   (List.map (fun (n, v) -> Printf.sprintf " %s=%.5g" n v) vs))
                calibration;
              vs
            | Error msg ->
              Printf.printf "%s seed %d FAILED: %s\n%!" workload seed msg;
              failed := true;
              [])
      in
      Printf.printf "=== %s: %d runs of %d s\n" workload runs seconds;
      Printf.printf "%-18s %12s %12s %12s %8s\n" "metric" "q1" "median" "q3"
        "spread";
      List.iter
        (fun (name, _) ->
          let xs =
            Array.of_list (List.filter_map (List.assoc_opt name) results)
          in
          if Array.length xs >= 2 then
            let q = Arith.quartiles xs in
            Printf.printf "%-18s %12.5g %12.5g %12.5g %8.4f\n" name q.(0)
              (Arith.median xs) q.(2) (Arith.spread xs))
        (Lazy.force contract).end_to_end;
      print_newline ())
    (match only with Some w -> [ w ] | None -> workloads ());
  if !failed then exit 1

let () =
  (* A run stopped by a signal still stops its daemons and removes its
     scratch files: exit runs the at_exit handlers. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let workload = ref None and seed = ref 1 and seconds = ref 0 in
  let trace = ref 0 and daemon = ref "_build/default/bin/dls_daemond.exe" in
  let all = ref false and runs = ref 0 in
  let spec =
    [ ("--workload", Arg.String (fun w -> workload := Some w), "W one workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length (default: BENCHMARK.json's)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--daemon", Arg.Set_string daemon, "PATH dls_daemond binary");
      ("--all", Arg.Set all, " every workload, each in its own process");
      ("--steady", Arg.Set_int runs, "N runs per workload on seeds 1..N") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench";
  (match !workload with
  | Some w when not (List.mem w (workloads () @ unlisted)) ->
    prerr_endline
      ("unknown workload " ^ w ^ "; one of: "
      ^ String.concat ", " (workloads () @ unlisted));
    exit 2
  | _ -> ());
  if !seconds = 0 then seconds := (Lazy.force contract).run_seconds;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let daemon = !daemon and seconds = !seconds and trace = !trace = 1 in
  if !runs > 0 then steady ~runs:!runs ~only:!workload ~seconds ~daemon
  else if !all then run_all ~seed:!seed ~seconds ~trace ~daemon
  else
    match !workload with
    | Some workload -> run_one ~workload ~seed:!seed ~seconds ~trace ~daemon
    | None ->
      prerr_endline "give --workload W, --all or --steady N";
      exit 2
