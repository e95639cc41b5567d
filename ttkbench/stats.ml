(* Sample statistics and the median-to-median regression rule of the
   time-to-verified-key benchmark.

   The quartiles follow Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so spreads computed here agree with
   the ones an external harness computes from the same values. *)

module Json = Logiclock.Telemetry.Trace_check

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0)

let spread xs =
  let q = quartiles xs in
  (q.(2) -. q.(0)) /. Float.abs (median xs)

(* ---- metric specifications (the "end_to_end" list of BENCHMARK.json) ---- *)

type better = Lower | Higher

type spec = { name : string; better : better; bound : float }

let str key j =
  match Json.member key j with
  | Some (Json.Str s) -> s
  | _ -> failwith ("missing string field " ^ key)

let num key j =
  match Json.member key j with
  | Some (Json.Num x) -> x
  | _ -> failwith ("missing numeric field " ^ key)

let spec_of_json j =
  {
    name = str "name" j;
    better =
      (match str "better" j with
      | "lower" -> Lower
      | "higher" -> Higher
      | s -> failwith ("bad direction " ^ s));
    bound = num "bound" j;
  }

let specs_of_benchmark text =
  match Json.member "end_to_end" (Json.parse_json text) with
  | Some (Json.Arr l) -> List.map spec_of_json l
  | _ -> failwith "BENCHMARK.json: no end_to_end list"

(* ---- run results: the last stdout line of one benchmark run ---- *)

type run = { correct : bool; failed : int; metrics : (string * float) list }

let run_of_line line =
  let j = Json.parse_json line in
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj l) -> List.map (fun (k, v) -> (k, num "value" v)) l
    | _ -> failwith "result line without metrics"
  in
  {
    correct = (match Json.member "correct" j with Some (Json.Bool b) -> b | _ -> false);
    failed = int_of_float (num "failed" j);
    metrics;
  }

(* Every line of [text] that parses as a result object; other lines
   (the human-readable record) are skipped. *)
let runs_of_text text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.length line = 0 || line.[0] <> '{' then None
         else
           match run_of_line line with
           | r -> Some r
           | exception (Json.Parse_error _ | Failure _) -> None)

let values name runs = List.filter_map (fun r -> List.assoc_opt name r.metrics) runs

(* ---- comparison ---- *)

type verdict = {
  spec : spec;
  base_median : float;
  cand_median : float;
  worse_by : float;  (** share of the base median by which the candidate is worse *)
  base_spread : float;
  cand_spread : float;
  regressed : bool;  (** candidate median worse than the base by more than the bound *)
  unsteady : bool;  (** a sample's quartile spread exceeds the bound *)
}

(* [setup_s] is exempt from the spread check (set-up is short and noisy);
   its median is still gated. *)
let compare_metric spec ~base ~cand =
  let b = median base and c = median cand in
  let worse_by =
    match spec.better with
    | Lower -> (c -. b) /. Float.abs b
    | Higher -> (b -. c) /. Float.abs b
  in
  let sp xs = if List.length xs < 2 then 0.0 else spread xs in
  let base_spread = sp base and cand_spread = sp cand in
  {
    spec;
    base_median = b;
    cand_median = c;
    worse_by;
    base_spread;
    cand_spread;
    regressed = worse_by > spec.bound;
    unsteady =
      spec.name <> "setup_s" && (base_spread > spec.bound || cand_spread > spec.bound);
  }

let compare_runs specs ~base ~cand =
  List.filter_map
    (fun spec ->
      match (values spec.name base, values spec.name cand) with
      | [], _ | _, [] -> None
      | b, c -> Some (compare_metric spec ~base:b ~cand:c))
    specs

let failed_runs runs = List.exists (fun r -> (not r.correct) || r.failed > 0) runs

let passes verdicts = List.for_all (fun v -> not (v.regressed || v.unsteady)) verdicts
