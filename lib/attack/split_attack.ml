module Circuit = Ll_netlist.Circuit
module Bitvec = Ll_util.Bitvec
module Timer = Ll_util.Timer
module Cofactor = Ll_synth.Cofactor
module Pool = Ll_runtime.Pool
module Tel = Ll_telemetry.Telemetry

(* The per-cofactor machinery (spans, seeding, cancellation placeholders,
   failure classification) lives in {!Cube_prep}, so the serial and the
   pooled runner below share one code path per cube. *)
type task = Cube_prep.task = {
  condition : (int * bool) list;
  sub_inputs : int;
  sub_gates : int;
  result : Sat_attack.result;
  task_time : float;
}

type t = {
  split_inputs : int array;
  tasks : task array;
  wall_time : float;
  domains_used : int;
}

let keys t =
  let collected =
    Array.map (fun task -> task.result.Sat_attack.key) t.tasks |> Array.to_list
  in
  if List.for_all Option.is_some collected then
    Some (Array.of_list (List.map Option.get collected))
  else None

type verdict = Keys of Bitvec.t array | Incomplete of Cube_prep.failure_counts

let verdict t =
  match keys t with
  | Some ks -> Keys ks
  | None ->
      Incomplete
        (Cube_prep.classify
           (Array.to_list (Array.map (fun task -> task.result) t.tasks)))

let task_times t = Array.map (fun task -> task.task_time) t.tasks

let max_task_time t = Array.fold_left max 0.0 (task_times t)

let min_task_time t =
  Array.fold_left min infinity (task_times t)

let mean_task_time t =
  let times = task_times t in
  Array.fold_left ( +. ) 0.0 times /. float_of_int (Array.length times)

let recommended_effort ?cores locked =
  let cores =
    match cores with Some c -> max 1 c | None -> Domain.recommended_domain_count ()
  in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  min (log2 cores) (max 0 (Circuit.num_inputs locked - 1))

let prepare ?inputs ~n locked =
  let split_inputs =
    match inputs with
    | Some a ->
        if Array.length a < n then invalid_arg "Split_attack: not enough split inputs";
        Array.sub a 0 n
    | None -> Fanout.select locked ~n
  in
  let conditions = Cofactor.conditions ~split_inputs n in
  Array.iter (fun c -> Progress.cube_created ~depth:(List.length c)) conditions;
  (split_inputs, conditions)

let run ?config ?inputs ?(seed = 0) ~n locked ~oracle =
  let split_inputs, conditions = prepare ?inputs ~n locked in
  let aprep = Sat_attack.prepare locked in
  let base = Cube_prep.base_config config in
  let seeds = Cube_prep.task_seeds ~seed (Array.length conditions) in
  let t0 = Timer.monotonic () in
  Tel.with_span ~a0:n ~note:"serial" "split.run" (fun () ->
      let tasks =
        Array.mapi
          (fun i cond ->
            Cube_prep.run_task ~index:i
              ~config:{ base with Sat_attack.solver_seed = seeds.(i) }
              ~prep:aprep ~oracle cond)
          conditions
      in
      { split_inputs; tasks; wall_time = Timer.monotonic () -. t0; domains_used = 1 })

let run_parallel_core ?config ?inputs ?num_domains ?pool ?(seed = 0)
    ?(cancel_on_failure = false) ~n locked ~oracle =
  let split_inputs, conditions = prepare ?inputs ~n locked in
  let aprep = Sat_attack.prepare locked in
  let num_tasks = Array.length conditions in
  let base = Cube_prep.base_config config in
  let seeds = Cube_prep.task_seeds ~seed num_tasks in
  let t0 = Timer.monotonic () in
  let own_pool, pool =
    match pool with
    | Some p -> (false, p)
    | None ->
        let d =
          match num_domains with
          | Some d -> d
          | None -> Domain.recommended_domain_count ()
        in
        (true, Pool.create ~num_domains:(max 1 (min d num_tasks)) ())
  in
  (* Shared abort flag for [cancel_on_failure]: set by the first fatal
     sub-task, observed both by pending tasks (which then return a
     cancelled placeholder without running the solver) and by running
     attacks through their [interrupt] hook. *)
  let abort = Atomic.make false in
  let handles_ref = ref [||] in
  (* config.log data-race fix: concurrent domains must not interleave
     through the caller's callback.  Each task appends to its own
     {!Tel.Log_buffer} slot (no two tasks share a slot, so no lock is
     needed) and the lines are flushed through the real callback in task
     order after the join. *)
  let log_buffers = Tel.Log_buffer.create num_tasks in
  let submit i cond =
    Pool.submit pool (fun ctx ->
        if Atomic.get abort || Pool.cancel_requested ctx then
          Cube_prep.cancelled_task ~locked cond
        else begin
          let log =
            match base.Sat_attack.log with
            | None -> None
            | Some _ -> Some (Tel.Log_buffer.slot log_buffers i)
          in
          let interrupt () =
            Atomic.get abort
            || Pool.cancel_requested ctx
            || (match base.Sat_attack.interrupt with Some f -> f () | None -> false)
          in
          let config =
            { base with
              Sat_attack.log;
              interrupt = Some interrupt;
              solver_seed = seeds.(i)
            }
          in
          let task = Cube_prep.run_task ~index:i ~config ~prep:aprep ~oracle cond in
          if cancel_on_failure && Cube_prep.fatal task then begin
            Atomic.set abort true;
            Array.iter Pool.cancel !handles_ref
          end;
          task
        end)
  in
  let handles = Array.mapi submit conditions in
  handles_ref := handles;
  let tasks =
    Array.mapi
      (fun i handle ->
        match Pool.await handle with
        | Pool.Done task -> task
        | Pool.Cancelled -> Cube_prep.cancelled_task ~locked conditions.(i)
        | Pool.Failed e -> raise e)
      handles
  in
  (match base.Sat_attack.log with
  | None -> ()
  | Some log -> Tel.Log_buffer.flush log_buffers log);
  let domains_used = Pool.num_domains pool in
  if own_pool then Pool.shutdown pool;
  { split_inputs; tasks; wall_time = Timer.monotonic () -. t0; domains_used }

let run_parallel ?config ?inputs ?num_domains ?pool ?seed ?cancel_on_failure ~n locked
    ~oracle =
  Tel.with_span ~a0:n ~note:"steal" "split.run" (fun () ->
      run_parallel_core ?config ?inputs ?num_domains ?pool ?seed ?cancel_on_failure ~n
        locked ~oracle)
