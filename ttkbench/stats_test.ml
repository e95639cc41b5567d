(* Self-tests of the benchmark's statistics and compare rule.

   - median and quartiles on known samples (reference values from
     Python's statistics.median / statistics.quantiles(n=4));
   - a fabricated 2x ttk_s slowdown is flagged as a regression;
   - a same-code replay passes: two recorded ten-run sets per workload
     (replay/<workload>.a.jsonl and .b.jsonl, one result line per seed)
     agree within the bounds of BENCHMARK.json. *)

open Ttk_stats

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-12

let check_quartiles xs ~median ~q =
  let name = String.concat "," (List.map (Printf.sprintf "%g") xs) in
  check ("median " ^ name) (close (Stats.median xs) median);
  let got = Stats.quartiles xs in
  check ("quartiles " ^ name) (Array.for_all2 close got q)

let read path = In_channel.with_open_bin path In_channel.input_all

let workloads = [ "sarlock-k12-n2"; "lut-c1355-n4"; "xor-c1908-n0" ]

let scale name factor (r : Stats.run) =
  {
    r with
    Stats.metrics =
      List.map (fun (k, v) -> if k = name then (k, v *. factor) else (k, v)) r.metrics;
  }

let () =
  check_quartiles [ 1.; 2.; 3.; 4. ] ~median:2.5 ~q:[| 1.25; 2.5; 3.75 |];
  check_quartiles [ 3.; 1.; 2. ] ~median:2.0 ~q:[| 1.0; 2.0; 3.0 |];
  check_quartiles
    (List.init 10 (fun i -> float_of_int (i + 1)))
    ~median:5.5 ~q:[| 2.75; 5.5; 8.25 |];
  check_quartiles [ 5.0; 1.5; 2.25; 9.0; 4.0 ] ~median:4.0 ~q:[| 1.875; 4.0; 7.0 |];
  check "spread of [1..10]"
    (close (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1)))) 1.0);
  let specs = Stats.specs_of_benchmark (read "../BENCHMARK.json") in
  check "setup_s is gated" (List.exists (fun s -> s.Stats.name = "setup_s") specs);
  check "bounds within (0, 0.25]"
    (List.for_all (fun s -> s.Stats.bound > 0.0 && s.Stats.bound <= 0.25) specs);
  List.iter
    (fun w ->
      let a = Stats.runs_of_text (read (Printf.sprintf "replay/%s.a.jsonl" w)) in
      let b = Stats.runs_of_text (read (Printf.sprintf "replay/%s.b.jsonl" w)) in
      check (w ^ ": ten runs per replay set") (List.length a = 10 && List.length b = 10);
      check (w ^ ": every replayed run is correct") (not (Stats.failed_runs (a @ b)));
      let same = Stats.compare_runs specs ~base:a ~cand:b in
      check (w ^ ": every end-to-end metric compared") (List.length same = List.length specs);
      check (w ^ ": same-code replay passes") (Stats.passes same);
      let slow = Stats.compare_runs specs ~base:a ~cand:(List.map (scale "ttk_s" 2.0) a) in
      check (w ^ ": 2x ttk_s slowdown is flagged")
        (List.exists (fun v -> v.Stats.spec.name = "ttk_s" && v.Stats.regressed) slow);
      check (w ^ ": only ttk_s is flagged")
        (List.for_all (fun v -> v.Stats.regressed = (v.Stats.spec.name = "ttk_s")) slow);
      let fast = Stats.compare_runs specs ~base:a ~cand:(List.map (scale "ttk_s" 0.5) a) in
      check (w ^ ": a 2x speed-up is not a regression") (Stats.passes fast))
    workloads;
  if !failures > 0 then exit 1
