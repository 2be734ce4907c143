(* Unit tests of the benchmark's own machinery: the tail-percentile rule,
   span self time, and failure accounting. *)

let feq = Alcotest.float 1e-12

let test_percentile () =
  let a = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 of 1..10" 5.0 (Quant.percentile a 50.0);
  Alcotest.check feq "p90 of 1..10" 9.0 (Quant.percentile a 90.0);
  Alcotest.check feq "p100 of 1..10" 10.0 (Quant.percentile a 100.0);
  Alcotest.check feq "p1 of 1..10" 1.0 (Quant.percentile a 1.0)

(* The tail is the highest candidate percentile with at least ten samples
   beyond it; below 21 samples it collapses to the median. *)
let test_tail_rule () =
  let cases =
    [ (1, 50.0); (20, 50.0); (21, 50.0); (39, 50.0); (40, 75.0); (99, 75.0);
      (100, 90.0); (199, 90.0); (200, 95.0); (1000, 99.0); (9999, 99.0);
      (10000, 99.9) ]
  in
  List.iter
    (fun (n, q) ->
      Alcotest.check feq (Printf.sprintf "tail for n=%d" n) q (Quant.tail_pct n);
      if q > 50.0 then
        Alcotest.(check bool)
          (Printf.sprintf "n=%d keeps 10 beyond" n)
          true
          (Quant.beyond n q >= 10))
    cases

let self_of sp name =
  match List.find_opt (fun (s, _) -> s.Span.name = name) (Span.self_times sp) with
  | Some (_, v) -> v
  | None -> Alcotest.fail ("no span " ^ name)

let test_self_time_nested () =
  let sp = Span.create ~enabled:true in
  let root = Span.add sp "op" ~t0:0.0 ~t1:10.0 in
  let a = Span.add sp ~parent:root "a" ~t0:1.0 ~t1:4.0 in
  ignore (Span.add sp ~parent:a "a.inner" ~t0:2.0 ~t1:3.0);
  ignore (Span.add sp ~parent:root "b" ~t0:5.0 ~t1:9.0);
  (* Grandchildren are not subtracted from the root, only from [a]. *)
  Alcotest.check feq "root self" 3.0 (self_of sp "op");
  Alcotest.check feq "a self" 2.0 (self_of sp "a");
  Alcotest.check feq "leaf self" 1.0 (self_of sp "a.inner");
  Alcotest.check feq "b self" 4.0 (self_of sp "b")

let test_with_nesting () =
  let sp = Span.create ~enabled:true in
  let r =
    Span.with_ sp "op" (fun () ->
        Span.with_ sp "x" (fun () -> Span.with_ sp "y" (fun () -> 42)))
  in
  Alcotest.(check int) "result" 42 r;
  (match Span.spans sp with
  | [ op; x; y ] ->
    Alcotest.(check int) "op is a root" (-1) op.Span.parent;
    Alcotest.(check int) "x under op" op.Span.id x.Span.parent;
    Alcotest.(check int) "y under x" x.Span.id y.Span.parent
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l));
  (* A raising body still closes its span. *)
  (try Span.with_ sp "op" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "4 spans" 4 (List.length (Span.spans sp));
  let off = Span.create ~enabled:false in
  ignore (Span.with_ off "op" (fun () -> ()));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Span.spans off))

let test_aggregate_root () =
  let sp = Span.create ~enabled:true in
  let op = Span.add sp "op" ~t0:0.0 ~t1:4.0 in
  ignore (Span.add sp ~parent:op "lp.solve" ~t0:1.0 ~t1:2.0);
  let wu = Span.add sp "warmup" ~t0:5.0 ~t1:9.0 in
  ignore (Span.add sp ~parent:wu "lp.solve" ~t0:5.0 ~t1:8.0);
  let all = Span.aggregate sp and timed = Span.aggregate ~root:"op" sp in
  let get t n = Hashtbl.find t n in
  Alcotest.(check int) "all solves" 2 (get all "lp.solve").Span.count;
  Alcotest.check feq "all solve time" 4.0 (get all "lp.solve").Span.total_s;
  Alcotest.(check int) "timed solves" 1 (get timed "lp.solve").Span.count;
  Alcotest.check feq "timed op self" 3.0 (get timed "op").Span.self_s;
  Alcotest.(check bool) "warm-up excluded" false (Hashtbl.mem timed "warmup")

let test_tally () =
  let t = Quant.Tally.create () in
  Alcotest.check feq "empty share" 0.0 (Quant.Tally.failed_share t);
  for _ = 1 to 7 do Quant.Tally.ok t done;
  Quant.Tally.fail t "rung";
  Quant.Tally.fail t "rung";
  Quant.Tally.fail t "degraded plan";
  Alcotest.(check int) "attempted counts failures" 10 t.Quant.Tally.attempted;
  Alcotest.(check int) "failed" 3 t.Quant.Tally.failed;
  Alcotest.check feq "share" 0.3 (Quant.Tally.failed_share t);
  Alcotest.(check (option int)) "per-reason count" (Some 2)
    (List.assoc_opt "rung" t.Quant.Tally.reasons);
  Quant.Tally.fail_all t "accounted";
  Alcotest.check feq "whole run failed" 1.0 (Quant.Tally.failed_share t);
  Alcotest.(check int) "attempted unchanged" 10 t.Quant.Tally.attempted

let test_chrome_json () =
  let sp = Span.create ~enabled:true in
  ignore (Span.add sp "op\"q" ~t0:1.0 ~t1:1.5);
  let s = Span.to_chrome_json sp in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped name" true (contains "op\\\"q");
  Alcotest.(check bool) "duration in us" true (contains "\"dur\":500000.000")

let () =
  Alcotest.run "perfbench"
    [
      ( "quant",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail keeps ten beyond" `Quick test_tail_rule;
          Alcotest.test_case "failed_share accounting" `Quick test_tally;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time with nested spans" `Quick test_self_time_nested;
          Alcotest.test_case "with_ nests and closes" `Quick test_with_nesting;
          Alcotest.test_case "aggregate by root" `Quick test_aggregate_root;
          Alcotest.test_case "chrome trace json" `Quick test_chrome_json;
        ] );
    ]
