(* Time-to-verified-key benchmark.

   One trial times what the paper's two claims are about: a verified key
   set.  It runs the attack (the multi-key split attack of Alg. 1, or the
   one-key SAT attack for N = 0), composes the keys (Fig. 1(b)) and proves
   the composed netlist equivalent to the original.

     bash ttkbench/run.sh --workload sarlock-k12-n2 --seed 1 --seconds 35 --trace 0

   [--trace 0] reports the end-to-end metrics (tracing off).  [--trace 1]
   drives Alg. 1 stage by stage through the public API, times each call
   from here, and reports the per-layer ledger.  Human-readable lines start
   with '#'; the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

module LL = Logiclock
module Circuit = LL.Netlist.Circuit
module Bitvec = LL.Util.Bitvec
module Prng = LL.Util.Prng
module Pool = LL.Runtime.Pool
module Oracle = LL.Attack.Oracle
module Sat_attack = LL.Attack.Sat_attack
module Split_attack = LL.Attack.Split_attack
module Compose = LL.Attack.Compose
module Equiv = LL.Attack.Equiv
module Locked = LL.Locking.Locked

let now = LL.Util.Timer.monotonic

let median = Ttk_stats.Stats.median

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  circuit : string;  (** ISCAS'85 stand-in *)
  n : int;  (** split effort N; 0 is the one-key SAT attack *)
  lock : seed:int -> Circuit.t -> Locked.t;
  closed_form : (int * int) option;
      (** Table 1's (2^K - 1, 2^(K-N)): expected DIPs summed over all
          sub-attacks and the largest per-task count *)
}

(* The SARLock secret key is drawn from the workload seed: Table 1's DIP
   counts hold for every key.  The LUT and XOR lock draws are pinned to
   the instance the repo's Table 1/2 harnesses use (Prng seed 655 =
   String.length "c1355" * 131, and Prng seed = key count), because their
   SAT effort swings several-fold between lock draws (README.md). *)
let workloads =
  [
    {
      name = "sarlock-k12-n2";
      circuit = "c7552";
      n = 2;
      lock = (fun ~seed c -> LL.Locking.Sarlock.lock ~prng:(Prng.create seed) ~key_size:12 c);
      closed_form = Some ((1 lsl 12) - 1, 1 lsl (12 - 2));
    };
    {
      name = "lut-c1355-n4";
      circuit = "c1355";
      n = 4;
      lock =
        (fun ~seed:_ c ->
          LL.Locking.Lut_lock.lock ~prng:(Prng.create 655) ~stage1_luts:4 ~stage1_inputs:3 c);
      closed_form = None;
    };
    {
      name = "xor-c1908-n0";
      circuit = "c1908";
      n = 0;
      lock = (fun ~seed:_ c -> LL.Locking.Xor_lock.lock ~prng:(Prng.create 24) ~num_keys:24 c);
      closed_form = None;
    };
  ]

(* Conflict budget of the final equivalence proof, as in the Table 2
   harness; an [Unknown] verdict counts as a failed trial. *)
let equiv_conflict_limit = 300_000

(* The host's speed drifts over seconds, so set-up is sampled
   [setups_at_start] times and again [setups_per_trial] times before every
   trial; [setup_s] is the median over the whole run. *)
let setups_at_start = 5

let setups_per_trial = 3

let min_trials = 3

(* ------------------------------------------------------------------ *)
(* Set-up: circuit generation, locking, oracle compile, pool spawn     *)
(* ------------------------------------------------------------------ *)

type instance = {
  original : Circuit.t;
  locked : Circuit.t;
  oracle : Oracle.t;
  pool : Pool.t option;
  domains : int;  (** pool workers; 0 when the workload runs without a pool *)
}

type setup_times = { iscas : float; lock : float; oracle_t : float; pool_t : float; total : float }

let setup w ~seed =
  let t0 = now () in
  let original, iscas = timed (fun () -> LL.Bench_suite.Iscas.get w.circuit) in
  let locked, lock = timed (fun () -> (w.lock ~seed original).Locked.circuit) in
  let oracle, oracle_t = timed (fun () -> Oracle.of_circuit original) in
  let domains = if w.n = 0 then 0 else min (Domain.recommended_domain_count ()) (1 lsl w.n) in
  let pool, pool_t =
    timed (fun () -> if domains = 0 then None else Some (Pool.create ~num_domains:domains ()))
  in
  ( { original; locked; oracle; pool; domains },
    { iscas; lock; oracle_t; pool_t; total = now () -. t0 } )

let shutdown inst = Option.iter Pool.shutdown inst.pool

let setup_samples = ref []

(* [k] throw-away set-ups, timed. *)
let sample_setups w ~seed k =
  for _ = 1 to k do
    let inst, t = setup w ~seed in
    shutdown inst;
    setup_samples := t :: !setup_samples
  done

let setup_median f = median (List.map f !setup_samples)

(* ------------------------------------------------------------------ *)
(* Trials and their correctness checks                                *)
(* ------------------------------------------------------------------ *)

(* Everything a trial must reproduce exactly. *)
type counts = {
  task_dips : int array;
  task_keys : string array;
  conflicts : int;
  queries : int;
  gates : int;  (** gate count of the composed (or key-bound) netlist *)
}

let dips_total c = Array.fold_left ( + ) 0 c.task_dips
let dips_max c = Array.fold_left max 0 c.task_dips

type trial = { wall : float; cpu : float; counts : counts; failure : string option }

let counts_of (results : Sat_attack.result array) ~queries ~gates =
  {
    task_dips = Array.map (fun r -> r.Sat_attack.num_dips) results;
    task_keys =
      Array.map
        (fun r -> match r.Sat_attack.key with Some k -> Bitvec.to_string k | None -> "-")
        results;
    conflicts = Array.fold_left (fun a r -> a + r.Sat_attack.solver_conflicts) 0 results;
    queries;
    gates;
  }

let verify inst composed =
  match composed with
  | None -> (0, Some "no key set")
  | Some c -> (
      ( Circuit.gate_count c,
        match
          Equiv.check_bounded ~conflict_limit:equiv_conflict_limit inst.original c
        with
        | Equiv.Proved_equivalent -> None
        | Equiv.Refuted _ -> Some "refuted"
        | Equiv.Unknown -> Some "equivalence unknown" ))

(* Deterministic-count checks against the first trial and Table 1's
   closed form. *)
let count_failure w ~first counts =
  let closed =
    match w.closed_form with
    | Some (total, mx) when dips_total counts <> total || dips_max counts <> mx ->
        Some
          (Printf.sprintf "closed form: dips_total %d (want %d), dips_max %d (want %d)"
             (dips_total counts) total (dips_max counts) mx)
    | _ -> None
  in
  match (closed, first) with
  | Some _, _ -> closed
  | None, Some f when f <> counts -> Some "deterministic counts differ from the first trial"
  | None, _ -> None

(* The public-API path: one call per step, tracing off. *)
let plain_trial w inst =
  Gc.full_major ();
  let q0 = Oracle.query_count inst.oracle in
  let c0 = cpu_seconds () and t0 = now () in
  let results, composed =
    match inst.pool with
    | None ->
        let r = Sat_attack.run inst.locked ~oracle:inst.oracle in
        ([| r |], Option.map (LL.Netlist.Instantiate.bind_keys inst.locked) r.Sat_attack.key)
    | Some pool ->
        let s = Split_attack.run_parallel ~pool ~n:w.n inst.locked ~oracle:inst.oracle in
        ( Array.map (fun t -> t.Split_attack.result) s.Split_attack.tasks,
          Compose.of_attack ~optimize:false inst.locked s )
  in
  let gates, failure = verify inst composed in
  let wall = now () -. t0 and cpu = cpu_seconds () -. c0 in
  let counts = counts_of results ~queries:(Oracle.query_count inst.oracle - q0) ~gates in
  { wall; cpu; counts; failure }

(* ---- the traced decomposition of the same trial ---- *)

type task_rec = {
  submitted : float;
  started : float;
  stopped : float;
  result : Sat_attack.result;
  minor_words : float;  (** allocated by the task's own domain *)
}

type ledger = {
  fanout_s : float;
  conditions_s : float;
  prepare_s : float;
  attack_s : float;  (** first submit to last await *)
  compose_s : float;
  equiv_s : float;
  tasks : task_rec array;
  steals : int;
  major_collections : int;
}

let stage_sum l =
  l.fanout_s +. l.conditions_s +. l.prepare_s +. l.attack_s +. l.compose_s +. l.equiv_s

let task_wall t = t.stopped -. t.started

let run_task prep oracle ~submitted condition seed =
  let config = { Sat_attack.default_config with Sat_attack.solver_seed = seed } in
  let started = now () in
  let w0 = Gc.minor_words () in
  let result = Sat_attack.run_prepared ~config prep ~condition ~oracle in
  let stopped = now () in
  { submitted; started; stopped; result; minor_words = Gc.minor_words () -. w0 }

(* Per-task solver seeds exactly as the public entry points derive them:
   [Sat_attack.run] uses the default seed, [Split_attack] splits one
   stream per task. *)
let task_seeds w ntasks =
  if w.n = 0 then [| 0 |] else LL.Attack.Cube_prep.task_seeds ~seed:0 ntasks

let steals inst = Option.fold ~none:0 ~some:(fun p -> (Pool.stats p).Pool.steals) inst.pool

let run_tasks_serial prep oracle conditions seeds =
  Array.mapi (fun i c -> run_task prep oracle ~submitted:(now ()) c seeds.(i)) conditions

let traced_trial w inst =
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let steals0 = steals inst in
  let q0 = Oracle.query_count inst.oracle in
  let c0 = cpu_seconds () and t0 = now () in
  let split_inputs, fanout_s = timed (fun () -> LL.Attack.Fanout.select inst.locked ~n:w.n) in
  let conditions, conditions_s =
    timed (fun () -> LL.Synth.Cofactor.conditions ~split_inputs w.n)
  in
  let prep, prepare_s = timed (fun () -> Sat_attack.prepare inst.locked) in
  let seeds = task_seeds w (Array.length conditions) in
  let tasks, attack_s =
    timed (fun () ->
        match inst.pool with
        | None -> run_tasks_serial prep inst.oracle conditions seeds
        | Some pool ->
            Array.mapi
              (fun i c ->
                let submitted = now () in
                Pool.submit pool (fun _ -> run_task prep inst.oracle ~submitted c seeds.(i)))
              conditions
            |> Array.map (fun h ->
                   match Pool.await h with
                   | Pool.Done t -> t
                   | Pool.Cancelled -> failwith "sub-attack cancelled"
                   | Pool.Failed e -> raise e))
  in
  let results = Array.map (fun t -> t.result) tasks in
  let keys = Array.map (fun r -> r.Sat_attack.key) results in
  let composed, compose_s =
    timed (fun () ->
        if Array.exists Option.is_none keys then None
        else
          let keys = Array.map Option.get keys in
          Some
            (if w.n = 0 then LL.Netlist.Instantiate.bind_keys inst.locked keys.(0)
             else Compose.build ~optimize:false inst.locked ~split_inputs ~keys))
  in
  let (gates, failure), equiv_s = timed (fun () -> verify inst composed) in
  let wall = now () -. t0 and cpu = cpu_seconds () -. c0 in
  let gc1 = Gc.quick_stat () in
  let counts = counts_of results ~queries:(Oracle.query_count inst.oracle - q0) ~gates in
  ( { wall; cpu; counts; failure },
    {
      fanout_s;
      conditions_s;
      prepare_s;
      attack_s;
      compose_s;
      equiv_s;
      tasks;
      steals = steals inst - steals0;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    },
    (prep, conditions, seeds) )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable first : counts option }

let note tally label ~failure =
  tally.attempted <- tally.attempted + 1;
  if failure <> None then tally.failed <- tally.failed + 1;
  Printf.sprintf "# %s %d: " label tally.attempted

let record w tally label (t : trial) =
  let failure =
    match t.failure with Some _ -> t.failure | None -> count_failure w ~first:tally.first t.counts
  in
  if tally.first = None && failure = None then tally.first <- Some t.counts;
  Printf.printf
    "%sttk_s=%.4f cpu_s=%.4f dips_total=%d dips_max=%d conflicts=%d queries=%d gates=%d %s\n%!"
    (note tally label ~failure) t.wall t.cpu (dips_total t.counts) (dips_max t.counts)
    t.counts.conflicts t.counts.queries t.counts.gates
    (match failure with None -> "verified" | Some why -> "FAILED: " ^ why)

(* A trial that raises is counted as failed and contributes no time. *)
let attempt tally label f =
  match f () with
  | x -> Some x
  | exception e ->
      let why = "exception " ^ Printexc.to_string e in
      Printf.printf "%sFAILED: %s\n%!" (note tally label ~failure:(Some why)) why;
      None

let completed tally = function
  | [] ->
      Printf.eprintf "ttk: all %d trials raised\n" tally.attempted;
      exit 1
  | l -> l

let end_to_end w inst tally ~seed ~seconds =
  let deadline = now () +. seconds in
  let trials = ref [] in
  while now () < deadline || tally.attempted < min_trials do
    sample_setups w ~seed setups_per_trial;
    match attempt tally "trial" (fun () -> plain_trial w inst) with
    | Some t ->
        record w tally "trial" t;
        trials := t :: !trials
    | None -> ()
  done;
  let trials = completed tally !trials in
  let first = Option.value tally.first ~default:(List.hd trials).counts in
  [
    ("ttk_s", median (List.map (fun t -> t.wall) trials), "s");
    ("cpu_s", median (List.map (fun t -> t.cpu) trials), "s");
    ("dips_total", float_of_int (dips_total first), "count");
    ("oracle_queries", float_of_int first.queries, "count");
    ("peak_heap_mb", peak_heap_mb (), "MB");
    ("setup_s", setup_median (fun s -> s.total), "s");
  ]

let per_layer w inst tally ~seed ~seconds =
  let deadline = now () +. seconds in
  let plain = ref [] and traced = ref [] in
  let rounds = ref 0 in
  while now () < deadline || !rounds < min_trials - 1 do
    incr rounds;
    sample_setups w ~seed setups_per_trial;
    (match attempt tally "trial" (fun () -> plain_trial w inst) with
    | Some t ->
        record w tally "trial" t;
        plain := t :: !plain
    | None -> ());
    match attempt tally "traced" (fun () -> traced_trial w inst) with
    | Some ((t, _, _) as x) ->
        record w tally "traced" t;
        traced := x :: !traced
    | None -> ()
  done;
  let plain = completed tally !plain and traced = completed tally (List.rev !traced) in
  (* Serial reference: the same sub-attacks, one after another on this
     domain — the serial == parallel contract, and the denominator of
     the pool's task inflation. *)
  let serial =
    let _, l, (prep, conditions, seeds) = List.hd traced in
    let s = run_tasks_serial prep inst.oracle conditions seeds in
    let same =
      Array.for_all2
        (fun a b ->
          a.result.Sat_attack.num_dips = b.result.Sat_attack.num_dips
          && Option.equal Bitvec.equal a.result.Sat_attack.key b.result.Sat_attack.key)
        s l.tasks
    in
    let failure = if same then None else Some "serial and traced runs differ" in
    Printf.printf "%s%s\n%!" (note tally "serial pass" ~failure)
      (if same then "per-task DIPs and keys equal the traced run"
       else "FAILED: serial and traced runs differ");
    s
  in
  let ledgers = List.map (fun (_, l, _) -> l) traced in
  let med f = median (List.map f ledgers) in
  let sum_tasks f l = Array.fold_left (fun a t -> a +. f t) 0.0 l.tasks in
  let results = Array.map (fun t -> t.result) (List.hd ledgers).tasks in
  let count f = float_of_int (Array.fold_left (fun a r -> a + f r) 0 results) in
  let dips = count (fun r -> r.Sat_attack.num_dips) in
  let task_sum = med (sum_tasks task_wall) in
  let solve_sum = med (sum_tasks (fun t -> t.result.Sat_attack.solve_time)) in
  let minor = med (sum_tasks (fun t -> t.minor_words)) in
  let stages = med stage_sum in
  let ttk_plain = median (List.map (fun t -> t.wall) plain) in
  let ttk_traced = median (List.map (fun (t, _, _) -> t.wall) traced) in
  (* Without a pool (N = 0) the single task runs inline on this domain:
     [pool.domains] is 0 and the other pool figures describe that inline
     run, so they stay measured values rather than constants. *)
  if inst.pool = None then
    Printf.printf "# no pool on %s: pool.domains = 0, pool figures describe the inline run\n"
      w.name;
  let capacity = float_of_int (max 1 inst.domains) *. med (fun l -> l.attack_s) in
  let pool_metrics =
    [
      ("pool.domains", float_of_int inst.domains, "count");
      ( "pool.queue_wait_max_s",
        med (fun l ->
            Array.fold_left (fun a t -> Float.max a (t.started -. t.submitted)) 0.0 l.tasks),
        "s" );
      ("pool.idle_s", capacity -. task_sum, "s");
      ("pool.efficiency", task_sum /. capacity, "ratio");
      ("pool.steals", med (fun l -> float_of_int l.steals), "count");
      ( "pool.task_inflation",
        task_sum /. Array.fold_left (fun a t -> a +. task_wall t) 0.0 serial,
        "ratio" );
    ]
  in
  Printf.printf
    "# ledger (medians of %d traced trials): fanout %.4f  conditions %.4f  prepare %.4f  \
     attack %.4f  compose %.4f  equiv %.4f  = %.4f s; untraced ttk_s %.4f, traced %.4f\n"
    (List.length traced)
    (med (fun l -> l.fanout_s))
    (med (fun l -> l.conditions_s))
    (med (fun l -> l.prepare_s))
    (med (fun l -> l.attack_s))
    (med (fun l -> l.compose_s))
    (med (fun l -> l.equiv_s))
    stages ttk_plain ttk_traced;
  [
    ("iscas.get_s", setup_median (fun s -> s.iscas), "s");
    ("locking.lock_s", setup_median (fun s -> s.lock), "s");
    ("oracle.of_circuit_s", setup_median (fun s -> s.oracle_t), "s");
    ("pool.create_s", setup_median (fun s -> s.pool_t), "s");
    ("fanout.select_s", med (fun l -> l.fanout_s), "s");
    ("sat_attack.prepare_s", med (fun l -> l.prepare_s), "s");
    ( "sat_attack.task_max_s",
      med (fun l -> Array.fold_left (fun a t -> Float.max a (task_wall t)) 0.0 l.tasks),
      "s" );
    ("sat_attack.task_sum_s", task_sum, "s");
    ("sat_attack.solve_sum_s", solve_sum, "s");
    ("sat_attack.nonsolve_sum_s", task_sum -. solve_sum, "s");
    ("sat_attack.solve_share", solve_sum /. task_sum, "ratio");
    ( "sat_attack.dips_max",
      float_of_int (Array.fold_left (fun a r -> max a r.Sat_attack.num_dips) 0 results),
      "count" );
    ("sat_attack.rounds", count (fun r -> r.Sat_attack.rounds), "count");
    ("sat_attack.conflicts", count (fun r -> r.Sat_attack.solver_conflicts), "count");
    ("sat_attack.s_per_dip", task_sum /. dips, "s");
  ]
  @ pool_metrics
  @ [
      ("gc.minor_words", minor, "words");
      ("gc.major_collections", med (fun l -> float_of_int l.major_collections), "count");
      ("gc.minor_words_per_dip", minor /. dips, "words/dip");
      ("compose.build_s", med (fun l -> l.compose_s), "s");
      ("compose.gates", float_of_int (let t, _, _ = List.hd traced in t.counts.gates), "count");
      ("equiv.check_s", med (fun l -> l.equiv_s), "s");
      ("ledger.unaccounted_s", ttk_plain -. stages, "s");
      ("trace.overhead_s", ttk_traced -. ttk_plain, "s");
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ttk.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "ttk: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  sample_setups w ~seed:!seed (setups_at_start - 1);
  let inst, t = setup w ~seed:!seed in
  setup_samples := t :: !setup_samples;
  Printf.printf
    "# host {\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"domains\": %d, \"ocaml\": %S, \
     \"trace\": %d, \"seconds\": %g}\n%!"
    w.name !seed (Domain.recommended_domain_count ()) inst.domains Sys.ocaml_version !trace
    !seconds;
  let tally = { attempted = 0; failed = 0; first = None } in
  let metrics =
    if !trace = 0 then
      end_to_end w inst tally ~seed:!seed ~seconds:!seconds
    else per_layer w inst tally ~seed:!seed ~seconds:!seconds
  in
  shutdown inst;
  Printf.printf "# setup_s samples: %s\n"
    (String.concat " "
       (List.rev_map (fun s -> Printf.sprintf "%.4f" s.total) !setup_samples));
  Printf.printf "# failed_frac=%g (%d of %d)\n"
    (float_of_int tally.failed /. float_of_int tally.attempted)
    tally.failed tally.attempted;
  print_result ~correct:(tally.failed = 0) ~attempted:tally.attempted ~failed:tally.failed
    metrics
