(* Compare two sets of benchmark runs of one workload, metric by metric.

     dune exec --root . -- ./ttkbench/compare.exe BENCHMARK.json BASE CAND

   BASE and CAND hold the standard output of several runs of
   ttk.exe --trace 0 (every line that parses as a result object counts as
   one run).  For each end-to-end metric of BENCHMARK.json it prints both
   medians, the share by which the candidate is worse, and each side's
   quartile spread.  Exit status 1 when a median worsens by more than the
   metric's bound, a spread exceeds it, or a run failed a correctness
   check. *)

open Ttk_stats

let read path = In_channel.with_open_bin path In_channel.input_all

let () =
  match Sys.argv with
  | [| _; spec; base; cand |] ->
      let specs = Stats.specs_of_benchmark (read spec) in
      let base = Stats.runs_of_text (read base) and cand = Stats.runs_of_text (read cand) in
      if base = [] || cand = [] then begin
        prerr_endline "compare: no result lines";
        exit 2
      end;
      let verdicts = Stats.compare_runs specs ~base ~cand in
      Printf.printf "%-16s %14s %14s %9s %8s %8s  %s\n" "metric" "base median" "cand median"
        "worse by" "spread b" "spread c" "verdict";
      List.iter
        (fun (v : Stats.verdict) ->
          Printf.printf "%-16s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s\n" v.spec.name
            v.base_median v.cand_median (100.0 *. v.worse_by) (100.0 *. v.base_spread)
            (100.0 *. v.cand_spread)
            (if v.regressed then Printf.sprintf "REGRESSED (bound %.0f%%)" (100.0 *. v.spec.bound)
             else if v.unsteady then "UNSTEADY"
             else "ok"))
        verdicts;
      let failed = Stats.failed_runs base || Stats.failed_runs cand in
      if failed then print_endline "a run failed its correctness checks";
      exit (if Stats.passes verdicts && not failed then 0 else 1)
  | _ ->
      prerr_endline "usage: compare.exe BENCHMARK.json BASE CAND";
      exit 2
