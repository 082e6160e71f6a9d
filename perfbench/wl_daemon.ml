(* daemon-burst: the dls_daemond binary as a child process with default
   server flags, driven over its socket protocol by one client process
   holding two connections. *)

open Common
module Arith = Perfbench.Arith
module P = Dls_daemon.Protocol
module State = Dls_daemon.State
module Journal = Dls_daemon.Journal
module Faults = Dls_flowsim.Faults
module Gen = Dls_platform.Generator
module Platform = Dls_platform.Platform
module Prng = Dls_util.Prng

let name = "daemon-burst"

let k = 24

(* Connection A sends get_schedule requests in waves of [window],
   written in one write so the daemon reads a wave in one loop turn
   (its default reads up to 8 requests per turn) and coalesces it into
   one solve per objective.  With the window refilled one reply at a
   time, how many requests shared a solve depended on reply timing, and
   the rate of one input sequence varied 2x between runs. *)
let window = 8

(* Schedule requests per second of --seconds: fixes how many distinct
   requests a run sends, whatever the daemon's speed. *)
let per_second = 300

(* A run is [phases] daemons, one after another, each serving its own
   platform of a fixed test bed: the daemon's cost differs by up to 2x
   between K=24 platforms, so platforms drawn from the seed would make a
   run's numbers depend on the draw.  --seed draws each phase's request
   mix and mutation stream.  Each phase has its own set-up, so setup_s
   is the median of [phases] set-ups. *)
let phases = 5

(* Waves per round of the rate estimator: about a second. *)
let waves_per_round = 30

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Each phase's inputs come from its own streams of the run's seed. *)
let stream ~seed ~phase i = Prng.derive ~seed ~index:((2 * phase) + i)

let testbed_seed = 2005

(* The daemon's own generator defaults (what `serve --gen-k` builds),
   at K=24. *)
let make_platform ~phase =
  Gen.generate (Prng.derive ~seed:testbed_seed ~index:phase)
    { Gen.default_params with Gen.k }

let app_name c = Printf.sprintf "app%d" c

(* Half the clusters host an application. *)
let app_clusters platform =
  List.filter (fun c -> c mod 2 = 0) (List.init (Platform.num_clusters platform) Fun.id)

let registrations platform =
  List.map
    (fun c -> P.Register_app { app = app_name c; cluster = c; payoff = 1.0 })
    (app_clusters platform)

(* The mutator's fixed sequence: mostly warm capacity deltas, every
   fourth a structural one that forces a resident rebuild (a link
   degraded and later restored, or an application retired and
   registered again). *)
let mutations ~seed ~phase platform count =
  let rng = stream ~seed ~phase 0 in
  let links = Platform.num_backbones platform in
  let apps = Array.of_list (app_clusters platform) in
  let degraded = ref None and retired = ref None in
  List.init count (fun i ->
      if i mod 4 <> 3 || links = 0 then
        P.Platform_delta
          [ Faults.Cluster_throttle
              { cluster = Prng.int rng ~lo:0 ~hi:(k - 1);
                factor = Prng.float rng ~lo:0.5 ~hi:1.0 } ]
      else
        match (i / 4 mod 2, !degraded, !retired) with
        | 0, Some l, _ ->
          degraded := None;
          P.Platform_delta [ Faults.Link_up l ]
        | 0, None, _ ->
          let l = Prng.int rng ~lo:0 ~hi:(links - 1) in
          degraded := Some l;
          P.Platform_delta
            [ Faults.Link_degrade { link = l; factor = Prng.float rng ~lo:0.3 ~hi:0.9 } ]
        | _, _, Some c ->
          retired := None;
          P.Register_app { app = app_name c; cluster = c; payoff = 1.0 }
        | _, _, None ->
          let c = Prng.pick rng apps in
          retired := Some c;
          P.Retire_app { app = app_name c })

let objectives ~seed ~phase count =
  let rng = stream ~seed ~phase 1 in
  Array.init count (fun _ ->
      if Prng.bool rng ~p:0.5 then Dls_core.Lp_relax.Maxmin else Dls_core.Lp_relax.Sum)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable outstanding : (string * (int * float)) list;
      (* (op, (request id, send time)), oldest first *)
}

let op_of = function
  | P.Mutate _ -> "mutate"
  | P.Get_schedule _ -> "get_schedule"
  | P.Health -> "health"
  | P.Drain -> "drain"
  | P.Crash -> "crash"

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  { fd; buf = Buffer.create 4096; outstanding = [] }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Send requests tagged with ids in one write. *)
let send_all c reqs =
  let wire =
    String.concat ""
      (List.map (fun (_, req) -> P.frame (J.to_string (P.request_to_json req))) reqs)
  in
  let t = now () in
  write_all c.fd wire 0;
  c.outstanding <- c.outstanding @ List.map (fun (id, req) -> (op_of req, (id, t))) reqs

type reply = {
  id : int;
  sent : float;
  received : float;
  json : J.t;
}

(* Take every complete frame buffered on [c], matching each to the
   request it answers.  A reply counts as received when the read that
   completed it returned, before the client parses it. *)
let drain_frames c ~received =
  let rec go acc =
    match P.split_frame (Buffer.contents c.buf) with
    | `Incomplete -> List.rev acc
    | `Bad reason -> failwith ("daemon sent a bad frame: " ^ reason)
    | `Frame (payload, consumed) ->
      let rest = Buffer.sub c.buf consumed (Buffer.length c.buf - consumed) in
      Buffer.clear c.buf;
      Buffer.add_string c.buf rest;
      let json =
        match J.of_string payload with
        | Ok j -> j
        | Error e -> failwith ("daemon sent bad JSON: " ^ e)
      in
      let op =
        match J.member "op" json with Some (J.Str o) -> Some o | _ -> None
      in
      (match Arith.match_reply c.outstanding ~op with
      | Ok ((id, sent), rest) ->
        c.outstanding <- rest;
        go ({ id; sent; received; json } :: acc)
      | Error e -> failwith e)
  in
  go []

let chunk = Bytes.create 65536

(* Wait until some connection is readable, then read and match what
   arrived.  Returns (connection index, reply) pairs. *)
let poll conns ~timeout =
  let fds = List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] timeout with
  | [], _, _ -> failwith "daemon: no reply within the timeout"
  | ready, _, _ ->
    List.concat
      (List.mapi
         (fun i c ->
           if List.mem c.fd ready then begin
             let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
             let received = now () in
             if n = 0 then failwith "daemon closed the connection";
             Buffer.add_subbytes c.buf chunk 0 n;
             List.map (fun r -> (i, r)) (drain_frames c ~received)
           end
           else [])
         conns)

let call c req =
  send_all c [ (-1, req) ];
  let rec wait () =
    match poll [ c ] ~timeout:30.0 with
    | [] -> wait ()
    | [ (_, r) ] -> r.json
    | _ -> failwith "daemon: several replies to one request"
  in
  wait ()

let status j = match J.member "status" j with Some (J.Str s) -> s | _ -> "?"

let num j field =
  match J.member field j with Some (J.Num x) -> x | _ -> Float.nan

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  sock : string;
  wal : string;
  metrics_file : string option;
}

let spawn ~exe ~dir ~tag ~platform_file ~traced =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let wal = Filename.concat dir (tag ^ ".wal") in
  let obs_file ext = Filename.concat dir (tag ^ ext) in
  let obs_args =
    if traced then
      [ "--metrics"; obs_file ".metrics.jsonl"; "--trace"; obs_file ".trace.json" ]
    else []
  in
  let args =
    Array.of_list
      ([ exe; "serve"; "--addr"; "unix:" ^ sock; "--platform"; platform_file;
         "--wal"; wal ]
      @ obs_args)
  in
  let err = Unix.openfile (obs_file ".out") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process exe args Unix.stdin err err in
  Unix.close err;
  { pid; sock; wal;
    metrics_file = (if traced then Some (obs_file ".metrics.jsonl") else None) }

let live : int list ref = ref []

(* Every daemon started is stopped and waited for, also on failure. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec connect_when_ready d ~deadline =
  match connect d.sock with
  | c -> c
  | exception Unix.Unix_error _ ->
    if now () > deadline then failwith "daemon did not start listening";
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "daemon exited at start-up");
    Unix.sleepf 0.002;
    connect_when_ready d ~deadline

let stop d c =
  let r = call c P.Drain in
  check "drain" (status r = "ok") (fun () -> J.to_string r);
  Unix.close c.fd;
  let _, st = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  check "daemon exit" (st = Unix.WEXITED 0) (fun () -> "daemon did not exit 0")

(* ------------------------------------------------------------------ *)
(* Bursts                                                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable failed : int;
  mutable ok_schedules : int;
  mutable acked : P.mutation list;  (* accepted mutations, newest first *)
  mutable degraded : int;
  mutable latencies : float list;  (* every request's, newest first *)
  mutable waves : (float * float) list;
      (* per wave and its mutation: ok replies, and the wall time from
         sending the wave to the mutation's reply; newest first *)
}

let new_tally () =
  { sent = 0; ok = 0; failed = 0; ok_schedules = 0; acked = []; degraded = 0;
    latencies = []; waves = [] }

(* Connection A sends the schedule requests in waves; after each wave
   is answered, connection B sends the mutator's next mutation and waits
   for its reply, so every wave solves against freshly edited state.
   Returns the start time and the tally. *)
let burst ~a ~b ~objs ~muts =
  let tally = new_tally () in
  let n = Array.length objs in
  let muts = Array.of_list muts in
  let record ~schedule r =
    let ok = status r.json = "ok" in
    tally.latencies <- (r.received -. r.sent) :: tally.latencies;
    if ok then tally.ok <- tally.ok + 1 else tally.failed <- tally.failed + 1;
    if schedule && ok then begin
      tally.ok_schedules <- tally.ok_schedules + 1;
      if J.member "degraded" r.json = Some (J.Bool true) then
        tally.degraded <- tally.degraded + 1
    end;
    ok
  in
  (* Every reply to what [c] has outstanding. *)
  let collect c =
    let replies = ref [] in
    while c.outstanding <> [] do
      replies := List.map snd (poll [ c ] ~timeout:30.0) @ !replies
    done;
    !replies
  in
  let t0 = now () in
  let wave = ref 0 in
  while !wave * window < n do
    let ws = now () and ok0 = tally.ok in
    let first = !wave * window in
    let reqs =
      List.init (min window (n - first)) (fun i ->
          (first + i, P.Get_schedule { objective = objs.(first + i); budget_ms = None }))
    in
    send_all a reqs;
    tally.sent <- tally.sent + List.length reqs;
    List.iter (fun r -> ignore (record ~schedule:true r)) (collect a);
    if !wave < Array.length muts then begin
      send_all b [ (!wave, P.Mutate muts.(!wave)) ];
      tally.sent <- tally.sent + 1;
      List.iter
        (fun r -> if record ~schedule:false r then tally.acked <- muts.(r.id) :: tally.acked)
        (collect b)
    end;
    tally.waves <- (float_of_int (tally.ok - ok0), now () -. ws) :: tally.waves;
    incr wave
  done;
  (t0, tally)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type served = {
  platform : Platform.t;
  d : daemon;
  a : conn;
  b : conn;
  warm : tally;  (* the warm-up burst *)
  setup_time : float;
}

(* The warm-up: a short burst with its own fixed request stream, which
   builds and rebuilds the resident LP handles before timing starts. *)
let warm_requests = 48

let warm_seed = 1_000_003

(* Spawn the daemon, register half the clusters and run the warm-up. *)
let setup_once ~exe ~dir ~phase ~traced =
  let t0 = now () in
  let tag = Printf.sprintf "%s%d" (if traced then "t" else "d") phase in
  let platform = make_platform ~phase in
  let platform_file = Filename.concat dir (tag ^ ".dls") in
  Dls_platform.Platform_io.save ~path:platform_file platform;
  let d = spawn ~exe ~dir ~tag ~platform_file ~traced in
  live := d.pid :: !live;
  let b = connect_when_ready d ~deadline:(now () +. 30.0) in
  List.iter
    (fun m ->
      let j = call b (P.Mutate m) in
      check "registration" (status j = "ok") (fun () -> J.to_string j))
    (registrations platform);
  let a = connect d.sock in
  let _, warm =
    burst ~a ~b
      ~objs:(objectives ~seed:warm_seed ~phase warm_requests)
      ~muts:(mutations ~seed:warm_seed ~phase platform (warm_requests / window))
  in
  check "warm-up replies" (warm.failed = 0) (fun () ->
      Printf.sprintf "%d failed" warm.failed);
  { platform; d; a; b; warm; setup_time = now () -. t0 }

let shut s =
  Unix.close s.a.fd;
  stop s.d s.b

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)
(* ------------------------------------------------------------------ *)

let health_check ~c ~setup ~tally =
  let h = call c P.Health in
  let expect field want =
    let got = int_of_float (num h field) in
    check ("health " ^ field) (got = want) (fun () ->
        Printf.sprintf "daemon counts %d, client %d" got want)
  in
  let regs = List.length (registrations setup.platform) in
  (* registrations, warm-up, the health request before the timed phase,
     the timed phase and this health request *)
  expect "requests" (regs + setup.warm.sent + 1 + tally.sent + 1);
  expect "mutations"
    (regs + List.length setup.warm.acked + List.length tally.acked);
  expect "schedules" (setup.warm.ok_schedules + tally.ok_schedules);
  h

(* After the daemon exits, its WAL must replay to exactly the
   acknowledged mutations. *)
let wal_check ~platform ~wal ~acked =
  match Journal.open_ ~path:wal ~platform with
  | Error e -> check "WAL replay" false (fun () -> e)
  | Ok (state, j) ->
    let expected = State.create platform in
    List.iter
      (fun m ->
        match State.apply expected m with
        | Ok () -> ()
        | Error e -> check "WAL replay" false (fun () -> "acked mutation rejected: " ^ e))
      acked;
    check "WAL holds the acknowledged mutations"
      (Journal.entries j = List.length acked && State.equal state expected)
      (fun () ->
        Printf.sprintf "%d WAL entries for %d acknowledged mutations"
          (Journal.entries j) (List.length acked));
    Journal.close j

(* Consecutive waves grouped into rounds of [waves_per_round]; a
   trailing partial round is dropped unless it is the only one. *)
let group_waves waves =
  let waves = Array.of_list waves in
  let n = Array.length waves in
  let count = max 1 (n / waves_per_round) in
  Array.init count (fun j ->
      let ws = Array.sub waves (j * waves_per_round) (min waves_per_round (n - (j * waves_per_round))) in
      Array.fold_left (fun (w, s) (w', s') -> (w +. w', s +. s')) (0.0, 0.0) ws)

type pass = {
  served : served;
  rounds : (float * float) array;
  tally : tally;
  wall : float;
  health_before : J.t;
  health_after : J.t;
  peak_rss : float;
  requests : P.request list;  (* the timed requests, in send order *)
}

let timed_pass ~seed ~phase ~n s =
  let objs = objectives ~seed ~phase n in
  let muts = mutations ~seed ~phase s.platform (n / window) in
  let health_before = call s.b P.Health in
  let t0, tally = burst ~a:s.a ~b:s.b ~objs ~muts in
  let wall = now () -. t0 in
  let health_after = health_check ~c:s.b ~setup:s ~tally in
  let peak_rss = peak_rss_mb s.d.pid in
  shut s;
  wal_check ~platform:s.platform ~wal:s.d.wal
    ~acked:
      (registrations s.platform @ List.rev s.warm.acked @ List.rev tally.acked);
  let requests =
    List.map (fun o -> P.Get_schedule { objective = o; budget_ms = None }) (Array.to_list objs)
    @ List.map (fun m -> P.Mutate m) muts
  in
  { served = s; rounds = group_waves (List.rev tally.waves); tally; wall;
    health_before; health_after; peak_rss; requests }

(* Every phase of one run, traced or not. *)
let run_phases ~exe ~dir ~seed ~seconds ~traced =
  let n = per_second * seconds / phases in
  List.init phases (fun phase ->
      timed_pass ~seed ~phase ~n (setup_once ~exe ~dir ~phase ~traced))

let total f passes = List.fold_left (fun acc p -> acc + f p) 0 passes

(* Health counters moved during the timed phases. *)
let delta passes field =
  List.fold_left
    (fun acc p -> acc +. num p.health_after field -. num p.health_before field)
    0.0 passes

let per_phase f passes = Arith.median (Array.of_list (List.map f passes))

(* Rounds and latencies of all phases, in run order: the test bed is
   fixed, so whichever platform's rounds the estimators pick, they pick
   it on every seed. *)
let rate passes =
  Arith.sustained_rate (Array.concat (List.map (fun p -> p.rounds) passes))

let latencies passes =
  Array.of_list (List.concat_map (fun p -> List.rev p.tally.latencies) passes)

(* ------------------------------------------------------------------ *)
(* In-process replay of the request stream through the codecs         *)
(* ------------------------------------------------------------------ *)

(* Seconds to run [f] on every item. *)
let time_each f items =
  let t0 = now () in
  List.iter f items;
  now () -. t0

let per_us secs count = secs *. 1e6 /. float_of_int (max 1 count)

let codec_metrics ~dir passes =
  let requests = List.concat_map (fun p -> p.requests) passes in
  let protocol =
    time_each
      (fun req ->
        let wire = P.frame (J.to_string (P.request_to_json req)) in
        match P.split_frame wire with
        | `Frame (payload, _) -> (
          match Result.bind (J.of_string payload) P.request_of_json with
          | Ok _ -> ()
          | Error e -> check "protocol round trip" false (fun () -> e))
        | _ -> check "protocol round trip" false (fun () -> "frame did not split"))
      requests
  in
  let protocol = per_us protocol (List.length requests) in
  (* State.apply and Journal.append replay each phase's mutations on its
     own platform, after its registrations. *)
  let replay f =
    let count = ref 0 and secs = ref 0.0 in
    List.iteri
      (fun i p ->
        let platform = p.served.platform in
        let muts =
          List.filter_map (function P.Mutate m -> Some m | _ -> None) p.requests
        in
        secs := !secs +. f i platform muts;
        count := !count + List.length muts)
      passes;
    per_us !secs !count
  in
  let apply =
    replay (fun _ platform muts ->
        let state = State.create platform in
        List.iter (fun m -> ignore (State.apply state m)) (registrations platform);
        time_each
          (fun m ->
            match State.apply state m with
            | Ok () -> ()
            | Error e -> check "State.apply replay" false (fun () -> e))
          muts)
  in
  let journal =
    replay (fun i platform muts ->
        let path = Filename.concat dir (Printf.sprintf "replay%d.wal" i) in
        match Journal.open_ ~path ~platform with
        | Error e ->
          check "scratch WAL" false (fun () -> e);
          0.0
        | Ok (_, j) ->
          List.iter (Journal.append j) (registrations platform);
          let t = time_each (Journal.append j) muts in
          Journal.close j;
          t)
  in
  [ ("daemon.protocol_us", "us", protocol);
    ("daemon.state_apply_us", "us", apply);
    ("daemon.journal_append_us", "us", journal) ]

(* ------------------------------------------------------------------ *)

let load_metrics path =
  match Dls_obs.Metrics.snapshot_of_jsonl (In_channel.with_open_text path In_channel.input_all) with
  | Ok s -> s
  | Error e ->
    check "daemon metrics dump" false (fun () -> e);
    []

let run ~daemon ~seed ~seconds ~trace =
  let dir = scratch_dir name in
  let plain = run_phases ~exe:daemon ~dir ~seed ~seconds ~traced:false in
  let setup_s = per_phase (fun p -> p.served.setup_time) plain in
  let lat_metrics, lat_info = latency_metrics (latencies plain) in
  let ok_schedules = total (fun p -> p.tally.ok_schedules) plain in
  let e2e =
    { attempted = total (fun p -> p.tally.sent) plain;
      failed = total (fun p -> p.tally.failed) plain;
      metrics =
        [ ("setup_s", "s", setup_s); ("ops_per_s", "1/s", rate plain) ]
        @ lat_metrics
        @ [ ("peak_rss_mb", "MB", per_phase (fun p -> p.peak_rss) plain);
            ( "result_quality",
              "1",
              1.0
              -. float_of_int (total (fun p -> p.tally.degraded) plain)
                 /. float_of_int (max 1 ok_schedules) ) ];
      info =
        lat_info
        @ [ ("phases", J.Num (float_of_int phases));
            ( "mutations",
              J.Num (float_of_int (total (fun p -> List.length p.tally.acked) plain)) );
            ( "rate_rounds",
              J.Num (float_of_int (total (fun p -> Array.length p.rounds) plain)) );
            ( "phase_rates",
              J.Arr (List.map (fun p -> J.Num (Arith.sustained_rate p.rounds)) plain) );
            ( "counts",
              J.Obj
                (List.map
                   (fun f -> ("daemon." ^ f, J.Num (delta plain f)))
                   [ "solves"; "coalesced"; "rebuilds" ]) ) ] }
  in
  if not trace then e2e
  else begin
    let traced = run_phases ~exe:daemon ~dir ~seed ~seconds ~traced:true in
    let solves = delta traced "solves" in
    let snap =
      List.fold_left
        (fun acc p ->
          match p.served.d.metrics_file with
          | Some f -> M.merge acc (load_metrics f)
          | None -> acc)
        [] traced
    in
    let solve = hist snap "daemon.solve.seconds" in
    let request = hist snap "daemon.request.seconds" in
    let lats = List.concat_map (fun p -> p.tally.latencies) traced in
    let client_mean =
      List.fold_left ( +. ) 0.0 lats /. float_of_int (max 1 (List.length lats))
    in
    let server_mean =
      request.M.hs_sum /. float_of_int (max 1 request.M.hs_count)
    in
    let wall = List.fold_left (fun acc p -> acc +. p.wall) 0.0 traced in
    let plain_rate = rate plain in
    let layer =
      [ ("daemon.solves_per_s", "1/s", solves /. wall);
        ("daemon.replies_per_solve", "count", delta traced "schedules" /. Float.max 1.0 solves);
        ("daemon.warm_share", "1", delta traced "warm_hits" /. Float.max 1.0 solves);
        ("daemon.rebuilds", "count", delta traced "rebuilds");
        ("daemon.solve_p50_ms", "ms", hist_quantile_ms solve 0.5);
        ("daemon.solve_p99_ms", "ms", hist_quantile_ms solve 0.99);
        ("daemon.request_p50_ms", "ms", hist_quantile_ms request 0.5);
        ("daemon.wait_ms", "ms", ms (client_mean -. server_mean));
        ("daemon.shed", "count", delta traced "shed");
        ("daemon.errors", "count", delta traced "errors");
        ( "obs.trace_overhead_pct",
          "%",
          100.0 *. (plain_rate -. rate traced) /. plain_rate ) ]
      @ lp_metrics snap ~ops:(total (fun p -> p.tally.ok) traced)
      @ codec_metrics ~dir traced
    in
    (* Recorded, not compared: the daemon's deadline budgets make its
       solve path depend on timing. *)
    { e2e with
      metrics = layer;
      info = e2e.info @ [ ("counts_traced", counts_json (counts snap)) ] }
  end
