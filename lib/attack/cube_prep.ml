module Circuit = Ll_netlist.Circuit
module Prng = Ll_util.Prng
module Timer = Ll_util.Timer
module Tel = Ll_telemetry.Telemetry

let m_subtasks = Tel.Metric.counter "split.tasks"

(* "3=1,5=0": the fixed-input pattern of a cofactor sub-attack, used to
   tag its trace span. *)
let condition_string cond =
  String.concat ","
    (List.map (fun (i, b) -> Printf.sprintf "%d=%c" i (if b then '1' else '0')) cond)

type task = {
  condition : (int * bool) list;
  sub_inputs : int;
  sub_gates : int;
  result : Sat_attack.result;
  task_time : float;
}

(* Per-sub-task solver seeds, split from one root stream in task-index
   order.  Both the serial and the pooled runner derive seeds this way, so
   their results are byte-identical and independent of how tasks are
   scheduled across domains. *)
let task_seeds ~seed num_tasks =
  let root = Prng.create seed in
  Array.init num_tasks (fun _ -> Int64.to_int (Prng.bits64 (Prng.split root)))

let base_config = function Some c -> c | None -> Sat_attack.default_config

(* One cofactor sub-attack over the shared preparation: the miter is
   synthesized, analysed and compiled exactly once per split attack (in
   {!Sat_attack.prepare}); each cube only pins its inputs as root units in
   a fresh solver. *)
let run_task ?(index = -1) ~config ~prep ~oracle condition =
  let t0 = Timer.monotonic () in
  let depth = List.length condition in
  if Tel.enabled () then
    Tel.span_begin ~a0:index ~note:(condition_string condition) "split.task";
  Tel.Metric.incr m_subtasks;
  Progress.cube_started ~depth;
  match
    let result = Sat_attack.run_prepared ~config prep ~condition ~oracle in
    {
      condition;
      sub_inputs = Sat_attack.prep_inputs prep - List.length condition;
      sub_gates = Sat_attack.prep_gates prep;
      result;
      task_time = Timer.monotonic () -. t0;
    }
  with
  | task ->
      (match task.result.Sat_attack.status with
      | Sat_attack.Broken when task.result.Sat_attack.key <> None ->
          Progress.cube_solved ~depth
      | _ -> Progress.cube_stopped ());
      if Tel.enabled () then Tel.span_end ~v:task.result.Sat_attack.num_dips ();
      task
  | exception e ->
      Progress.cube_stopped ();
      if Tel.enabled () then Tel.span_end ~v:(-1) ~note:"exception" ();
      raise e

(* A sub-task cancelled before it started: no cofactoring happened and no
   solver ran, only the shape of the record is filled in. *)
let cancelled_task ~locked condition =
  {
    condition;
    sub_inputs = Circuit.num_inputs locked - List.length condition;
    sub_gates = 0;
    result =
      {
        Sat_attack.status = Sat_attack.Cancelled;
        key = None;
        dips = [];
        num_dips = 0;
        rounds = 0;
        oracle_queries = 0;
        total_time = 0.0;
        solve_time = 0.0;
        solver_conflicts = 0;
      };
    task_time = 0.0;
  }

let fatal (task : task) =
  match task.result.Sat_attack.status with
  | Sat_attack.Iteration_limit | Sat_attack.Time_limit -> true
  | Sat_attack.Broken | Sat_attack.Cancelled -> false

(* --- Merged-result classification ------------------------------------ *)

(* Distinct failure accounting for the merged result of a split attack.
   [Broken] without a key means the solver proved {e no} key can
   reproduce the oracle under the cube (an inconsistent oracle), so it is
   counted apart from the budget limits and from [Cancelled] sub-tasks,
   which never ran. *)
type failure_counts = {
  unsat_no_key : int;  (** [Broken] with no surviving key *)
  cancelled : int;
  iteration_limit : int;
  time_limit : int;
}

let no_failures =
  { unsat_no_key = 0; cancelled = 0; iteration_limit = 0; time_limit = 0 }

let count_failure fc (r : Sat_attack.result) =
  match r.Sat_attack.status with
  | Sat_attack.Broken when r.Sat_attack.key <> None -> fc
  | Sat_attack.Broken -> { fc with unsat_no_key = fc.unsat_no_key + 1 }
  | Sat_attack.Cancelled -> { fc with cancelled = fc.cancelled + 1 }
  | Sat_attack.Iteration_limit ->
      { fc with iteration_limit = fc.iteration_limit + 1 }
  | Sat_attack.Time_limit -> { fc with time_limit = fc.time_limit + 1 }

let classify results =
  List.fold_left count_failure no_failures results

let clean fc = fc = no_failures
