(* Tests for Dls_util: PRNG determinism and distribution sanity, plus
   the descriptive-statistics helpers. *)

module Prng = Dls_util.Prng
module Stats = Dls_util.Stats

let feps = 1e-9

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:3 in
  let b = Prng.copy a in
  let va = Prng.bits64 a in
  let vb = Prng.bits64 b in
  Alcotest.(check int64) "copy starts at same point" va vb;
  ignore (Prng.bits64 a);
  ignore (Prng.bits64 a);
  Alcotest.(check bool) "advancing a does not advance b" true
    (Prng.bits64 b <> Prng.bits64 a)

let test_prng_split_diverges () =
  let a = Prng.create ~seed:4 in
  let c = Prng.split a in
  Alcotest.(check bool) "split stream differs" true (Prng.bits64 c <> Prng.bits64 a)

let test_prng_int_range () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng ~lo:(-3) ~hi:7 in
    if v < -3 || v > 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "lo > hi" (Invalid_argument "Prng.int: lo > hi") (fun () ->
      ignore (Prng.int rng ~lo:1 ~hi:0))

let test_prng_int_covers_range () =
  let rng = Prng.create ~seed:6 in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Prng.int rng ~lo:0 ~hi:3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 10_000 do
    let v = Prng.float rng ~lo:2.0 ~hi:5.0 in
    if v < 2.0 || v >= 5.0 then Alcotest.failf "out of range: %f" v
  done

let test_prng_bool_bias () =
  let rng = Prng.create ~seed:9 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Prng.bool rng ~p:0.25 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "frequency ~ 0.25" true (Float.abs (freq -. 0.25) < 0.02)

let test_prng_mean_uniform () =
  let rng = Prng.create ~seed:10 in
  let n = 50_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float rng ~lo:0.0 ~hi:1.0
  done;
  Alcotest.(check bool) "mean ~ 0.5" true
    (Float.abs ((!acc /. float_of_int n) -. 0.5) < 0.01)

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:11 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_prng_pick () =
  let rng = Prng.create ~seed:12 in
  Alcotest.(check int) "singleton" 42 (Prng.pick rng [| 42 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick rng [||]))

let test_prng_derive_deterministic () =
  let a = Prng.derive ~seed:9 ~index:1234 in
  let b = Prng.derive ~seed:9 ~index:1234 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_derive_independent () =
  (* Different indices (and different seeds) give different streams, and
     deriving is order-free: stream 7 is the same whether or not other
     indices were derived first. *)
  let s0 = Prng.bits64 (Prng.derive ~seed:1 ~index:0) in
  let s1 = Prng.bits64 (Prng.derive ~seed:1 ~index:1) in
  let other_seed = Prng.bits64 (Prng.derive ~seed:2 ~index:0) in
  Alcotest.(check bool) "indices differ" true (s0 <> s1);
  Alcotest.(check bool) "seeds differ" true (s0 <> other_seed);
  let direct = Prng.bits64 (Prng.derive ~seed:1 ~index:7) in
  List.iter (fun i -> ignore (Prng.derive ~seed:1 ~index:i)) [ 0; 3; 5 ];
  Alcotest.(check int64) "order-free" direct
    (Prng.bits64 (Prng.derive ~seed:1 ~index:7));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.derive: negative index") (fun () ->
      ignore (Prng.derive ~seed:1 ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean_stddev () =
  Alcotest.(check (float feps)) "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float feps)) "mean empty" 0.0 (Stats.mean [||]);
  (* Sample standard deviation (Bessel's correction): SS = 5, n - 1 = 3. *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (5.0 /. 3.0))
    (Stats.stddev [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.(check (float feps)) "stddev singleton" 0.0 (Stats.stddev [| 5.0 |])

let test_stats_stddev_pinned () =
  (* Hand-computed references: mean 5, SS = 32, sample variance 32/7. *)
  Alcotest.(check (float 1e-12)) "textbook sample"
    (sqrt (32.0 /. 7.0))
    (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]);
  (* Pair {a, b}: sample stddev is |a - b| / sqrt 2. *)
  Alcotest.(check (float 1e-12)) "pair" (3.0 /. sqrt 2.0)
    (Stats.stddev [| 1.0; 4.0 |]);
  Alcotest.(check (float feps)) "constant series" 0.0
    (Stats.stddev [| 6.0; 6.0; 6.0; 6.0 |]);
  (* Translation invariance at an awkward magnitude. *)
  Alcotest.(check (float 1e-6)) "shift invariant"
    (Stats.stddev [| 1.0; 2.0; 3.0; 4.0 |])
    (Stats.stddev [| 1.0e6 +. 1.0; 1.0e6 +. 2.0; 1.0e6 +. 3.0; 1.0e6 +. 4.0 |]);
  Alcotest.(check bool) "NaN element propagates" true
    (Float.is_nan (Stats.stddev [| 1.0; Float.nan; 3.0 |]))

let test_stats_percentile_pinned () =
  (* Linear interpolation between closest ranks on [|1..5|]:
     rank(p) = p/100 * 4. *)
  let a = [| 5.0; 3.0; 1.0; 4.0; 2.0 |] in
  Alcotest.(check (float 1e-12)) "p25 exact rank" 2.0 (Stats.percentile a ~p:25.0);
  Alcotest.(check (float 1e-12)) "p10 interpolates" 1.4 (Stats.percentile a ~p:10.0);
  Alcotest.(check (float 1e-12)) "p90 interpolates" 4.6 (Stats.percentile a ~p:90.0);
  Alcotest.(check (float 1e-12)) "p50 median" 3.0 (Stats.percentile a ~p:50.0);
  (* NaNs sort first (Float.compare), so they occupy the low ranks and
     high percentiles stay finite. *)
  let with_nan = [| 5.0; Float.nan; 1.0; 4.0 |] in
  Alcotest.(check (float 1e-12)) "p100 ignores the NaN rank" 5.0
    (Stats.percentile with_nan ~p:100.0);
  Alcotest.(check bool) "p0 lands on the NaN" true
    (Float.is_nan (Stats.percentile with_nan ~p:0.0))

let test_stats_median_percentile () =
  Alcotest.(check (float feps)) "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float feps)) "even median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float feps)) "p0" 1.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:0.0);
  Alcotest.(check (float feps)) "p100" 3.0 (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:100.0);
  Alcotest.(check (float feps)) "p50 = median" 2.0
    (Stats.percentile [| 3.0; 1.0; 2.0 |] ~p:50.0)

let test_stats_percentile_clamped () =
  (* p outside [0, 100] clamps to the edges instead of indexing out of
     bounds. *)
  let a = [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (float feps)) "p < 0 -> minimum" 1.0
    (Stats.percentile a ~p:(-5.0));
  Alcotest.(check (float feps)) "p > 100 -> maximum" 3.0
    (Stats.percentile a ~p:150.0);
  Alcotest.(check (float feps)) "p = -infinity -> minimum" 1.0
    (Stats.percentile a ~p:Float.neg_infinity);
  Alcotest.check_raises "NaN p rejected"
    (Invalid_argument "Stats.percentile: p is NaN") (fun () ->
      ignore (Stats.percentile a ~p:Float.nan))

let test_stats_nan_ordering () =
  (* Float.compare sorts NaNs first, so order statistics on
     NaN-containing series are deterministic (NaNs take the low ranks). *)
  let a = [| 2.0; Float.nan; 1.0 |] in
  Alcotest.(check (float feps)) "median skips past the NaN" 1.0
    (Stats.median a);
  Alcotest.(check (float feps)) "p100 is the true maximum" 2.0
    (Stats.percentile a ~p:100.0);
  Alcotest.(check bool) "p0 is the NaN" true
    (Float.is_nan (Stats.percentile a ~p:0.0))

let test_stats_geomean_edge_cases () =
  Alcotest.(check (float feps)) "zero element -> 0" 0.0
    (Stats.geometric_mean [| 1.0; 0.0; 4.0 |]);
  Alcotest.(check (float feps)) "empty -> 0" 0.0 (Stats.geometric_mean [||]);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Stats.geometric_mean: negative or NaN input") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; -2.0 |]));
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Stats.geometric_mean: negative or NaN input") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; Float.nan |]))

let test_stats_min_max_geomean () =
  Alcotest.(check (pair (float feps) (float feps))) "min max" (1.0, 9.0)
    (Stats.min_max [| 3.0; 9.0; 1.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.min_max: empty array")
    (fun () -> ignore (Stats.min_max [||]));
  Alcotest.(check (float 1e-9)) "geometric mean" 2.0
    (Stats.geometric_mean [| 1.0; 2.0; 4.0 |])

let prop_median_between_min_max =
  QCheck2.Test.make ~name:"median lies between min and max" ~count:200
    QCheck2.Gen.(array_size (int_range 1 20) (float_range (-100.0) 100.0))
    (fun a ->
      let mn, mx = Stats.min_max a in
      let med = Stats.median a in
      mn -. 1e-9 <= med && med <= mx +. 1e-9)

let prop_stddev_nonneg =
  QCheck2.Test.make ~name:"stddev non-negative" ~count:200
    QCheck2.Gen.(array_size (int_range 0 20) (float_range (-50.0) 50.0))
    (fun a -> Stats.stddev a >= 0.0)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

module Par = Dls_util.Parallel

let test_parallel_preserves_order () =
  let inputs = Array.init 100 Fun.id in
  let doubled = Par.map (fun x -> 2 * x) inputs in
  Alcotest.(check (array int)) "order kept" (Array.init 100 (fun i -> 2 * i)) doubled

let test_parallel_matches_sequential () =
  let inputs = Array.init 50 (fun i -> i * 7) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same as domains:1"
    (Par.map ~domains:1 f inputs)
    (Par.map ~domains:4 f inputs)

let test_parallel_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Par.map (fun x -> x) [||]);
  Alcotest.(check (array int)) "singleton" [| 9 |] (Par.map (fun x -> x + 4) [| 5 |])

let test_parallel_propagates_exception () =
  Alcotest.check_raises "worker exception" (Failure "boom") (fun () ->
      ignore
        (Par.map ~domains:3
           (fun x -> if x = 17 then failwith "boom" else x)
           (Array.init 40 Fun.id)))

let test_parallel_map_list () =
  Alcotest.(check (list int)) "list wrapper" [ 2; 4; 6 ]
    (Par.map_list (fun x -> 2 * x) [ 1; 2; 3 ])

let prop_parallel_equals_map =
  QCheck2.Test.make ~name:"Parallel.map is Array.map" ~count:50
    QCheck2.Gen.(array_size (int_range 0 200) int)
    (fun a -> Par.map (fun x -> x lxor 42) a = Array.map (fun x -> x lxor 42) a)

(* ------------------------------------------------------------------ *)
(* Parallel.map_chunked                                                *)
(* ------------------------------------------------------------------ *)

let chunked_collect ?domains ?chunk f inputs =
  let offsets = ref [] and out = ref [] in
  Par.map_chunked ?domains ?chunk f inputs ~on_chunk:(fun ~offset results ->
      offsets := offset :: !offsets;
      out := results :: !out);
  (List.rev !offsets, Array.concat (List.rev !out))

let test_chunked_matches_map () =
  let inputs = Array.init 53 (fun i -> i * 3) in
  let f x = (x * x) - 1 in
  let expected = Array.map f inputs in
  List.iter
    (fun chunk ->
      let offsets, out = chunked_collect ~domains:3 ~chunk f inputs in
      Alcotest.(check (array int))
        (Printf.sprintf "chunk=%d concatenates to Array.map" chunk)
        expected out;
      (* Offsets are the exact chunk starts, strictly increasing. *)
      let rec starts at acc =
        if at >= Array.length inputs then List.rev acc
        else starts (at + chunk) (at :: acc)
      in
      Alcotest.(check (list int)) "offsets partition the input"
        (starts 0 []) offsets)
    [ 1; 7; 53; 1000 ]

let test_chunked_empty_input () =
  let fired = ref false in
  Par.map_chunked (fun x -> x) [||] ~on_chunk:(fun ~offset:_ _ -> fired := true);
  Alcotest.(check bool) "no callback on empty input" false !fired

let test_chunked_exception_propagates () =
  (* A worker raising mid-stream re-raises the first failure; chunks
     already completed were reported; the pool leaves no orphan domain
     behind, so parallel work afterwards still functions. *)
  let seen = ref 0 in
  Alcotest.check_raises "worker failure surfaces" (Failure "mid-stream") (fun () ->
      Par.map_chunked ~domains:3 ~chunk:10
        (fun x -> if x = 25 then failwith "mid-stream" else x)
        (Array.init 40 Fun.id)
        ~on_chunk:(fun ~offset:_ results -> seen := !seen + Array.length results));
  Alcotest.(check int) "completed chunks were reported" 20 !seen;
  let again = Par.map ~domains:3 (fun x -> x + 1) (Array.init 64 Fun.id) in
  Alcotest.(check (array int)) "pool still usable afterwards"
    (Array.init 64 (fun i -> i + 1)) again

let test_chunked_callback_exception () =
  (* on_chunk itself raising must also surface after the pool joins. *)
  Alcotest.check_raises "callback failure surfaces" (Failure "sink") (fun () ->
      Par.map_chunked ~domains:2 ~chunk:4 Fun.id (Array.init 9 Fun.id)
        ~on_chunk:(fun ~offset _ -> if offset = 4 then failwith "sink"))

let prop_chunked_equals_map =
  QCheck2.Test.make ~name:"Parallel.map_chunked concatenates to Array.map"
    ~count:50
    QCheck2.Gen.(
      pair (array_size (int_range 0 120) int) (int_range 1 17))
    (fun (a, chunk) ->
      let _, out = chunked_collect ~domains:4 ~chunk (fun x -> x * 2 + 1) a in
      out = Array.map (fun x -> (x * 2) + 1) a)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

module Json = Dls_util.Json

let json_testable =
  Alcotest.testable
    (fun fmt j -> Format.pp_print_string fmt (Json.to_string j))
    ( = )

let test_json_basics () =
  let check input expected =
    match Json.of_string input with
    | Ok v -> Alcotest.check json_testable input expected v
    | Error msg -> Alcotest.failf "%s: %s" input msg
  in
  check "null" Json.Null;
  check " true " (Json.Bool true);
  check "-12.5e2" (Json.Num (-1250.0));
  check "\"a\\nb\\u0041\"" (Json.Str "a\nbA");
  check "[1,[],{}]" (Json.Arr [ Json.Num 1.0; Json.Arr []; Json.Obj [] ]);
  check "{\"x\":1,\"y\":[true,null]}"
    (Json.Obj
       [ ("x", Json.Num 1.0); ("y", Json.Arr [ Json.Bool true; Json.Null ]) ])

let test_json_rejects_malformed () =
  let rejected input =
    match Json.of_string input with
    | Ok _ -> Alcotest.failf "accepted malformed %S" input
    | Error _ -> ()
  in
  List.iter rejected
    [ ""; "{"; "{\"a\":1"; "[1,2"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}";
      "{\"a\":1}garbage"; "nan"; "[1,]"; "\"bad\\q\"" ];
  Alcotest.check_raises "non-finite unprintable"
    (Invalid_argument "Json.to_string: non-finite number") (fun () ->
      ignore (Json.to_string (Json.Num Float.nan)))

let test_json_decoders () =
  let obj =
    Json.Obj
      [ ("n", Json.Num 3.0); ("s", Json.Str "x"); ("z", Json.Null);
        ("l", Json.Arr [ Json.Num 1.0; Json.Num 2.0 ]) ]
  in
  let ok_int = Alcotest.(result int string) in
  let ok_opt = Alcotest.(result (option int) string) in
  let ok_list = Alcotest.(result (list int) string) in
  Alcotest.check ok_int "present" (Ok 3) (Json.field "n" Json.to_int obj);
  Alcotest.check ok_int "missing field named" (Error {|missing field "q"|})
    (Json.field "q" Json.to_int obj);
  Alcotest.check ok_int "conversion error passes through"
    (Json.to_int (Json.Str "x"))
    (Json.field "s" Json.to_int obj);
  Alcotest.check ok_int "non-object has no fields" (Error {|missing field "n"|})
    (Json.field "n" Json.to_int (Json.Num 1.0));
  Alcotest.check ok_opt "opt present" (Ok (Some 3))
    (Json.opt_field "n" Json.to_int obj);
  Alcotest.check ok_opt "opt null" (Ok None) (Json.opt_field "z" Json.to_int obj);
  Alcotest.check ok_opt "opt missing" (Ok None)
    (Json.opt_field "q" Json.to_int obj);
  Alcotest.(check bool) "opt wrong type" true
    (Result.is_error (Json.opt_field "s" Json.to_int obj));
  Alcotest.check ok_list "list in order" (Ok [ 1; 2 ])
    (Json.field "l" (Json.list Json.to_int) obj);
  Alcotest.check ok_list "empty list" (Ok []) (Json.list Json.to_int (Json.Arr []));
  let first_bad =
    Json.list
      (function
        | Json.Num v -> Ok (int_of_float v)
        | Json.Str s -> Error ("bad " ^ s)
        | _ -> Error "other")
      (Json.Arr [ Json.Num 1.0; Json.Str "a"; Json.Null; Json.Str "b" ])
  in
  Alcotest.check ok_list "first failing item wins" (Error "bad a") first_bad;
  Alcotest.(check bool) "non-array is an error" true
    (Result.is_error (Json.list Json.to_int obj))

let test_json_number_roundtrip () =
  List.iter
    (fun v ->
      let s = Json.to_string (Json.Num v) in
      match Json.of_string s with
      | Ok (Json.Num v') ->
        Alcotest.(check bool)
          (Printf.sprintf "%s roundtrips" s)
          true
          (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
      | _ -> Alcotest.failf "%s did not parse back to a number" s)
    [ 0.0; -0.0; 1.0; 0.1; 1.0 /. 3.0; 1e-300; -2.5e300; 4503599627370496.0 ]

let gen_json =
  (* Obj-rooted values, like every campaign log line. *)
  QCheck2.Gen.(
    let scalar =
      oneof
        [ return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun v -> Json.Num v) (float_range (-1e9) 1e9);
          map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12)) ]
    in
    let value =
      oneof
        [ scalar;
          map (fun l -> Json.Arr l) (list_size (int_range 0 4) scalar) ]
    in
    map
      (fun fields -> Json.Obj fields)
      (list_size (int_range 0 5)
         (pair (string_size ~gen:printable (int_range 1 8)) value)))

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"Json decode inverts encode" ~count:300 gen_json
    (fun j -> Json.of_string (Json.to_string j) = Ok j)

let prop_json_rejects_prefix =
  (* Strict parsing: no proper prefix of an object line is accepted, so
     a torn log line can never decode as a shorter valid entry. *)
  QCheck2.Test.make ~name:"Json rejects torn prefixes" ~count:300
    QCheck2.Gen.(pair gen_json (float_range 0.0 1.0))
    (fun (j, frac) ->
      let line = Json.to_string j in
      let cut = int_of_float (frac *. float_of_int (String.length line)) in
      let cut = Stdlib.min cut (String.length line - 1) in
      match Json.of_string (String.sub line 0 cut) with
      | Error _ -> true
      | Ok _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* ------------------------------------------------------------------ *)
(* Wal                                                                 *)
(* ------------------------------------------------------------------ *)

let wal_tmp () =
  let path = Filename.temp_file "dls_wal" ".jsonl" in
  Sys.remove path;
  path

let int_line s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> Error "not an int"

let test_wal_append_load_roundtrip () =
  let path = wal_tmp () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let oc = Dls_util.Wal.open_append ~path in
  List.iter (fun n -> Dls_util.Wal.append_line oc (string_of_int n)) [ 1; 2; 3 ];
  close_out oc;
  (* Append mode continues after the valid prefix. *)
  let oc = Dls_util.Wal.open_append ~path in
  Dls_util.Wal.append_line oc "4";
  close_out oc;
  (match Dls_util.Wal.load ~of_line:int_line ~path with
  | Ok (entries, valid_len) ->
    Alcotest.(check (list int)) "entries in order" [ 1; 2; 3; 4 ] entries;
    Alcotest.(check int) "valid prefix is the whole file" valid_len
      (let st = Unix.stat path in
       st.Unix.st_size);
    Alcotest.(check int) "nothing to truncate" 0
      (Dls_util.Wal.truncate_torn ~path ~valid_len)
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "embedded newline rejected"
    (Invalid_argument "Wal.append_line: record contains a newline")
    (fun () ->
      let oc = Dls_util.Wal.open_append ~path in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
      Dls_util.Wal.append_line oc "a\nb")

let test_wal_torn_tail_dropped () =
  let path = wal_tmp () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "1\n2\n99");
  (match Dls_util.Wal.load ~of_line:int_line ~path with
  | Ok (entries, valid_len) ->
    Alcotest.(check (list int)) "torn final line dropped" [ 1; 2 ] entries;
    Alcotest.(check int) "valid prefix excludes the tail" 4 valid_len;
    Alcotest.(check int) "truncation drops the torn bytes" 2
      (Dls_util.Wal.truncate_torn ~path ~valid_len);
    let st = Unix.stat path in
    Alcotest.(check int) "file shrunk" 4 st.Unix.st_size
  | Error e -> Alcotest.fail e);
  (* A newline-terminated but unparseable final line is also torn. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "1\n2\nxx\n");
  match Dls_util.Wal.load ~of_line:int_line ~path with
  | Ok (entries, valid_len) ->
    Alcotest.(check (list int)) "unparseable final line dropped" [ 1; 2 ] entries;
    Alcotest.(check int) "prefix length" 4 valid_len
  | Error e -> Alcotest.fail e

let test_wal_corrupt_middle_is_error () =
  let path = wal_tmp () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "1\nxx\n3\n");
  match Dls_util.Wal.load ~of_line:int_line ~path with
  | Error msg ->
    Alcotest.(check bool) "names the line" true
      (let sub = "line 2" in
       let n = String.length sub in
       let rec go i =
         i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
       in
       go 0)
  | Ok _ -> Alcotest.fail "mid-file corruption accepted"

let test_wal_write_atomic () =
  let path = wal_tmp () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  Dls_util.Wal.write_atomic ~path "first";
  Dls_util.Wal.write_atomic ~path "second";
  Alcotest.(check string) "replaced atomically" "second"
    (In_channel.with_open_bin path In_channel.input_all);
  (* No temp droppings left beside the target. *)
  let dir = Filename.dirname path in
  let base = Filename.basename path in
  let stragglers =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f -> f <> base && String.length f >= String.length base
                             && String.sub f 0 (String.length base) = base)
  in
  Alcotest.(check (list string)) "no temp files left" [] stragglers

module Wal = Dls_util.Wal

let identity =
  [ ("version", Json.Num 1.0); ("seed", Json.Num 12.0);
    ("ks", Json.Arr [ Json.Num 4.0; Json.Num 6.0 ]); ("swf", Json.Null) ]

let with_manifest f =
  let path = wal_tmp () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () -> f path

let test_wal_manifest_identity () =
  with_manifest @@ fun path ->
  let check = Wal.check_manifest ~path ~what:"test config" in
  Alcotest.(check (result unit string)) "absent manifest" (Ok ()) (check identity);
  Wal.write_manifest ~path (identity @ [ ("completed", Json.Num 3.0) ]);
  Alcotest.(check string) "one object line, identity then progress"
    ({|{"version":1,"seed":12,"ks":[4,6],"swf":null,"completed":3}|} ^ "\n")
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check (result unit string)) "same identity" (Ok ()) (check identity);
  List.iter
    (fun (name, _) ->
      let changed =
        List.map
          (fun (n, v) -> if n = name then (n, Json.Str "changed") else (n, v))
          identity
      in
      Alcotest.(check (result unit string))
        (name ^ " differs")
        (Error
           (Printf.sprintf
              "%s: belongs to a different test config (field %S differs); \
               refusing to resume"
              path name))
        (check changed))
    identity;
  Alcotest.(check (result unit string)) "field missing from the manifest"
    (Error
       (Printf.sprintf
          "%s: belongs to a different test config (field \"extra\" differs); \
           refusing to resume"
          path))
    (check (identity @ [ ("extra", Json.Bool true) ]))

let test_wal_manifest_torn () =
  with_manifest @@ fun path ->
  Wal.write_manifest ~path identity;
  let full = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun cut ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      match Wal.check_manifest ~path ~what:"test config" identity with
      | Ok () -> Alcotest.failf "torn manifest of %d bytes accepted" cut
      | Error msg ->
        Alcotest.(check bool) ("names the manifest: " ^ msg) true
          (String.length msg > String.length path
          && String.sub msg 0 (String.length path) = path))
    [ 0; 1; String.length full / 2; String.length full - 2 ]

let () =
  Alcotest.run "dls_util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "split" `Quick test_prng_split_diverges;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int coverage" `Quick test_prng_int_covers_range;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bool bias" `Quick test_prng_bool_bias;
          Alcotest.test_case "uniform mean" `Quick test_prng_mean_uniform;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "derive deterministic" `Quick
            test_prng_derive_deterministic;
          Alcotest.test_case "derive independent" `Quick
            test_prng_derive_independent ] );
      ( "stats",
        [ Alcotest.test_case "mean stddev" `Quick test_stats_mean_stddev;
          Alcotest.test_case "stddev pinned" `Quick test_stats_stddev_pinned;
          Alcotest.test_case "percentile pinned" `Quick test_stats_percentile_pinned;
          Alcotest.test_case "median percentile" `Quick test_stats_median_percentile;
          Alcotest.test_case "min max geomean" `Quick test_stats_min_max_geomean;
          Alcotest.test_case "percentile clamping" `Quick
            test_stats_percentile_clamped;
          Alcotest.test_case "NaN ordering" `Quick test_stats_nan_ordering;
          Alcotest.test_case "geometric mean edge cases" `Quick
            test_stats_geomean_edge_cases ] );
      ( "parallel",
        [ Alcotest.test_case "order preserved" `Quick test_parallel_preserves_order;
          Alcotest.test_case "matches sequential" `Quick test_parallel_matches_sequential;
          Alcotest.test_case "empty and singleton" `Quick test_parallel_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_parallel_propagates_exception;
          Alcotest.test_case "list wrapper" `Quick test_parallel_map_list ] );
      ( "parallel-chunked",
        [ Alcotest.test_case "matches map" `Quick test_chunked_matches_map;
          Alcotest.test_case "empty input" `Quick test_chunked_empty_input;
          Alcotest.test_case "worker exception" `Quick
            test_chunked_exception_propagates;
          Alcotest.test_case "callback exception" `Quick
            test_chunked_callback_exception ] );
      ( "wal",
        [ Alcotest.test_case "append/load roundtrip" `Quick
            test_wal_append_load_roundtrip;
          Alcotest.test_case "torn tail dropped" `Quick test_wal_torn_tail_dropped;
          Alcotest.test_case "corrupt middle is an error" `Quick
            test_wal_corrupt_middle_is_error;
          Alcotest.test_case "write_atomic" `Quick test_wal_write_atomic;
          Alcotest.test_case "manifest identity" `Quick test_wal_manifest_identity;
          Alcotest.test_case "torn manifest is an error" `Quick
            test_wal_manifest_torn ] );
      ( "json",
        [ Alcotest.test_case "basics" `Quick test_json_basics;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects_malformed;
          Alcotest.test_case "number roundtrip" `Quick test_json_number_roundtrip;
          Alcotest.test_case "field, opt_field, list" `Quick test_json_decoders ] );
      qsuite "stats-prop"
        [ prop_median_between_min_max; prop_stddev_nonneg; prop_parallel_equals_map ];
      qsuite "chunked-json-prop"
        [ prop_chunked_equals_map; prop_json_roundtrip; prop_json_rejects_prefix ] ]
