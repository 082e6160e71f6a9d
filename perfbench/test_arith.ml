(* The benchmark's own arithmetic: tail ranks, the burst-resistant
   rate, quartiles as the acceptance check computes them, self time and
   reply matching. *)

open Perfbench.Arith

let feq = Alcotest.float 1e-12

let test_tail_rank () =
  let check n q want =
    Alcotest.(check int) (Printf.sprintf "n=%d q=%g" n q) want (tail_rank ~n q)
  in
  (* enough samples: the plain nearest rank *)
  check 1000 0.99 990;
  check 1000 0.5 500;
  (* too few beyond p99: lowered until ten lie beyond *)
  check 100 0.99 90;
  check 100 0.9 90;
  check 36 0.9 26;
  (* the median itself is lowered on tiny samples, never below rank 1 *)
  check 15 0.5 5;
  check 5 0.99 1

let test_quantile () =
  let xs = Array.init 200 (fun i -> float_of_int (200 - i)) in
  let q = quantile xs 0.99 in
  Alcotest.check feq "value" 190.0 q.value;
  Alcotest.check feq "reported quantile" 0.95 q.q;
  Alcotest.(check int) "samples" 200 q.n;
  Alcotest.(check int) "beyond" 10 q.beyond;
  let m = quantile xs 0.5 in
  Alcotest.check feq "median" 100.0 m.value;
  Alcotest.(check int) "beyond median" 100 m.beyond

(* 2000 latencies in run order: a slow host phase makes most of the
   run 1.5x slower. *)
let test_windowed () =
  let base i = 1.0 +. float_of_int (i mod 20) in
  let xs = Array.init 2000 (fun i -> if i >= 200 && i < 1800 then 1.5 *. base i else base i) in
  let m = windowed xs 0.5 in
  Alcotest.(check int) "median windows" 100 m.windows;
  Alcotest.(check int) "median window size" 20 m.quantile.n;
  Alcotest.check feq "median of a fast window" 10.0 m.quantile.value;
  (* the whole-run median takes the slow phase in *)
  Alcotest.check feq "whole-run median" 14.0 (quantile xs 0.5).value;
  let p90 = windowed xs 0.9 in
  Alcotest.(check int) "p90 windows" 20 p90.windows;
  Alcotest.(check int) "p90 beyond" 10 p90.quantile.beyond;
  Alcotest.check feq "p90 of a fast window" 18.0 p90.quantile.value;
  (* p99 needs 1000 per window: two windows are too few *)
  let p99 = windowed xs 0.99 in
  Alcotest.(check int) "p99 falls back to the run" 1 p99.windows;
  Alcotest.(check int) "p99 run samples" 2000 p99.quantile.n

(* Twelve rounds of 5 operations at 5 ops/s, where slow host phases
   stretch six rounds by 1.5x and a burst triples one more. *)
let test_sustained_rate () =
  let durations = [| 1.; 1.5; 1.5; 1.5; 1.; 1.; 3.; 1.5; 1.; 1.5; 1.5; 1. |] in
  let n = 5 * Array.length durations in
  let ends = Array.make n 0.0 in
  let t = ref 10.0 in
  Array.iteri
    (fun r d ->
      for i = 0 to 4 do
        ends.((r * 5) + i) <- !t +. (d *. float_of_int (i + 1) /. 5.0)
      done;
      t := !t +. d)
    durations;
  let rs = rounds ~size:5 ~start:10.0 ends in
  Alcotest.(check int) "rounds" 12 (Array.length rs);
  Alcotest.check feq "burst round" 3.0 (snd rs.(6));
  Alcotest.check feq "ninth decile ignores the slow phases" 5.0
    (sustained_rate rs);
  (* the median round and the whole-run mean take them in *)
  Alcotest.check feq "median round" (5.0 /. 1.5)
    (median (Array.map (fun (w, s) -> w /. s) rs));
  Alcotest.check feq "mean rate" (60.0 /. 17.0) (60.0 /. (ends.(n - 1) -. 10.0));
  (* a trailing partial round is dropped, a lone partial round kept *)
  Alcotest.(check int) "partial dropped" 12
    (Array.length (rounds ~size:5 ~start:10.0 (Array.append ends [| 40.; 41. |])));
  Alcotest.(check int) "lone round" 1
    (Array.length (rounds ~size:5 ~start:0.0 [| 1.; 2. |]))

let test_quartiles () =
  let q = quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (array feq)) "1..10" [| 2.75; 5.5; 8.25 |] q;
  Alcotest.(check (array feq)) "three values" [| 1.0; 2.0; 3.0 |]
    (quartiles [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (array feq)) "unsorted" [| 2.0; 4.0; 7.0 |]
    (quartiles [| 5.; 1.; 4.; 2.; 3.; 9.; 7. |]);
  Alcotest.check feq "spread" (5.5 /. 5.5) (spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_self_time () =
  Alcotest.check feq "no children" 10.0 (self_time ~start:0.0 ~stop:10.0 []);
  (* overlapping children count once; parts outside the parent not at all *)
  Alcotest.check feq "overlap and clip" 5.0
    (self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (2.0, 4.0); (8.0, 12.0) ]);
  Alcotest.check feq "nested child" 6.0
    (self_time ~start:0.0 ~stop:10.0 [ (2.0, 6.0); (3.0, 4.0) ]);
  Alcotest.check feq "fully covered" 0.0
    (self_time ~start:0.0 ~stop:10.0 [ (-1.0, 11.0) ])

let test_match_reply () =
  let out = [ ("get_schedule", 1); ("mutate", 2); ("get_schedule", 3) ] in
  (match match_reply out ~op:(Some "mutate") with
  | Ok (tag, rest) ->
    Alcotest.(check int) "mutate overtakes schedules" 2 tag;
    Alcotest.(check (list (pair string int))) "rest"
      [ ("get_schedule", 1); ("get_schedule", 3) ] rest
  | Error e -> Alcotest.fail e);
  (match match_reply out ~op:(Some "get_schedule") with
  | Ok (tag, _) -> Alcotest.(check int) "oldest of its op" 1 tag
  | Error e -> Alcotest.fail e);
  (match match_reply out ~op:None with
  | Ok (tag, _) -> Alcotest.(check int) "error reply takes the oldest" 1 tag
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "unknown op" true
    (Result.is_error (match_reply out ~op:(Some "health")));
  Alcotest.(check bool) "nothing outstanding" true
    (Result.is_error (match_reply [] ~op:None))

let () =
  Alcotest.run "perfbench"
    [ ( "arith",
        [ Alcotest.test_case "tail rank" `Quick test_tail_rank;
          Alcotest.test_case "tail quantile" `Quick test_quantile;
          Alcotest.test_case "windowed quantile" `Quick test_windowed;
          Alcotest.test_case "sustained rate" `Quick test_sustained_rate;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "reply matching" `Quick test_match_reply ] ) ]
