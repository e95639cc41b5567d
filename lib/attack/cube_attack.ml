module Circuit = Ll_netlist.Circuit
module Bitvec = Ll_util.Bitvec
module Timer = Ll_util.Timer
module Cofactor = Ll_synth.Cofactor
module Pool = Ll_runtime.Pool
module Tel = Ll_telemetry.Telemetry

let m_cubes = Tel.Metric.counter "cube.tasks"

let m_resplits = Tel.Metric.counter "cube.resplits"

let m_imported = Tel.Metric.counter "cube.imported_entries"

type budget = {
  conflicts : int option;
  dips : int option;
  wall_s : float option;
  growth : float;
}

let default_budget =
  { conflicts = Some 2000; dips = Some 64; wall_s = None; growth = 2.0 }

type config = {
  n0 : int;
  budget : budget;
  max_extra_depth : int;
  share : bool;
  base : Sat_attack.config;
}

let default_config =
  {
    n0 = 1;
    budget = default_budget;
    max_extra_depth = 8;
    share = true;
    base = Sat_attack.default_config;
  }

type cube = {
  task : Cube_prep.task;
  depth : int;
  resplit_input : int option;
  priority : int;
}

type t = {
  seed_inputs : int array;
  cubes : cube array;
  wall_time : float;
  domains_used : int;
}

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let leaves t =
  Array.of_list
    (List.filter (fun c -> c.resplit_input = None) (Array.to_list t.cubes))

let resplits t =
  Array.fold_left
    (fun n c -> if c.resplit_input <> None then n + 1 else n)
    0 t.cubes

let imported_entries t =
  Array.fold_left
    (fun n c -> n + c.task.Cube_prep.result.Sat_attack.imported)
    0 t.cubes

let total_dips t =
  Array.fold_left
    (fun n c -> n + c.task.Cube_prep.result.Sat_attack.num_dips)
    0 t.cubes

let max_task_time t =
  Array.fold_left (fun m c -> max m c.task.Cube_prep.task_time) 0.0 t.cubes

let keys t =
  let ls = leaves t in
  let collected =
    Array.map
      (fun c ->
        match c.task.Cube_prep.result.Sat_attack.key with
        | Some k -> Some (c.task.Cube_prep.condition, k)
        | None -> None)
      ls
  in
  if Array.for_all Option.is_some collected then
    Some (Array.map Option.get collected)
  else None

type verdict =
  | Keys of ((int * bool) list * Bitvec.t) array
  | Incomplete of Cube_prep.failure_counts

let verdict t =
  match keys t with
  | Some ks -> Keys ks
  | None ->
      (* Only leaves count: a re-split cube's [Stopped] result was
         superseded by its children, not failed. *)
      Incomplete
        (Cube_prep.classify
           (Array.to_list
              (Array.map (fun c -> c.task.Cube_prep.result) (leaves t))))

(* ------------------------------------------------------------------ *)
(* The adaptive controller                                            *)
(* ------------------------------------------------------------------ *)

let validate cfg n_in =
  if cfg.n0 < 0 || cfg.n0 > 6 then
    invalid_arg "Cube_attack: n0 must be in [0, 6]";
  if cfg.n0 > max 0 (n_in - 1) then
    invalid_arg "Cube_attack: n0 must leave at least one free input";
  if cfg.budget.growth < 1.0 then
    invalid_arg "Cube_attack: budget growth must be >= 1.0";
  if cfg.max_extra_depth < 0 then
    invalid_arg "Cube_attack: max_extra_depth must be >= 0";
  (match cfg.budget.conflicts with
  | Some c when c < 1 -> invalid_arg "Cube_attack: conflict budget must be >= 1"
  | _ -> ());
  match cfg.budget.dips with
  | Some d when d < 1 -> invalid_arg "Cube_attack: dip budget must be >= 1"
  | _ -> ()

(* Difficulty budget of a cube at [depth]: the base budget scaled by
   [growth^(depth - n0)].  Deeper cubes earn more headroom, so the
   re-split recursion always terminates: past some depth the budget
   exceeds the remaining work.  Conflict/DIP budgets are over
   deterministic solver counters, so the cube tree is reproducible;
   a wall-clock budget trades that for responsiveness (off by
   default). *)
let budget_hook cfg ~depth =
  let b = cfg.budget in
  if b.conflicts = None && b.dips = None && b.wall_s = None then None
  else begin
    let scale = b.growth ** float_of_int (max 0 (depth - cfg.n0)) in
    let scaled v = int_of_float (ceil (float_of_int v *. scale)) in
    let conflicts = Option.map scaled b.conflicts in
    let dips = Option.map scaled b.dips in
    let wall = Option.map (fun w -> w *. scale) b.wall_s in
    Some
      (fun (pg : Sat_attack.progress) ->
        (match conflicts with
        | Some c -> pg.Sat_attack.pg_conflicts >= c
        | None -> false)
        || (match dips with Some d -> pg.Sat_attack.pg_dips >= d | None -> false)
        ||
        match wall with Some w -> pg.Sat_attack.pg_elapsed > w | None -> false)
  end

(* Every cube's pinned positions are a prefix of the fan-out rank: the
   seed set pins rank[0..n0) and each re-split pins the next ranked
   input, so the cube tree is a (depth-pruned) binary tree with one
   variable per level — exactly the shape {!Compose.build_cubes}
   recomposes. *)
type shared = {
  sh_cfg : config;
  sh_prep : Sat_attack.prep;
  sh_oracle : Oracle.t;
  sh_rank : int array;
  sh_max_depth : int;
  sh_seed : int;
  sh_buffer_logs : bool;
}

(* One attacked node of the cube tree, plus its buffered log lines (in
   reverse emission order) — flushed through the caller's [log] callback
   in canonical cube order after the run, so serial and parallel runs
   produce identical streams. *)
type node = { n_cube : cube; n_logs : string list }

(* Attack one cube; when its difficulty budget preempts it, return the
   two child cubes (next ranked input pinned both ways) and the clause
   bank every descendant may import. *)
let attack_cube sh ~condition ~banks ~priority =
  let cfg = sh.sh_cfg in
  let depth = List.length condition in
  let can_split = depth < sh.sh_max_depth in
  let own_entries = ref [] in
  let share_out =
    if cfg.share && can_split then
      Some (fun e -> own_entries := e :: !own_entries)
    else None
  in
  let logs = ref [] in
  let log =
    match cfg.base.Sat_attack.log with
    | None -> None
    | Some sink ->
        if sh.sh_buffer_logs then Some (fun line -> logs := line :: !logs)
        else Some sink
  in
  let config =
    { cfg.base with
      Sat_attack.solver_seed = Cube_prep.cube_seed ~seed:sh.sh_seed condition;
      stop = (if can_split then budget_hook cfg ~depth else None);
      share_out;
      share_in = (if cfg.share then banks else []);
      log
    }
  in
  Tel.Metric.incr m_cubes;
  let task =
    Cube_prep.run_task ~index:depth ~config ~prep:sh.sh_prep ~oracle:sh.sh_oracle
      condition
  in
  Tel.Metric.add m_imported task.Cube_prep.result.Sat_attack.imported;
  match task.Cube_prep.result.Sat_attack.status with
  | Sat_attack.Stopped ->
      let input = sh.sh_rank.(depth) in
      Tel.Metric.incr m_resplits;
      if Tel.enabled () then
        Tel.instant ~a0:depth
          ~note:(Cube_prep.condition_string condition)
          "cube.resplit";
      let child_banks = banks @ [ List.rev !own_entries ] in
      (* Hardest-first priority for the children: the preempted cube's
         conflict count is a deterministic difficulty proxy. *)
      let prio = task.Cube_prep.result.Sat_attack.solver_conflicts in
      ( { n_cube = { task; depth; resplit_input = Some input; priority };
          n_logs = !logs
        },
        Some (input, child_banks, prio) )
  | _ ->
      ( { n_cube = { task; depth; resplit_input = None; priority }; n_logs = !logs },
        None )

let seed_cubes cfg rank =
  let n0 = cfg.n0 in
  let seed_inputs = Array.sub rank 0 n0 in
  (seed_inputs, Cofactor.conditions ~split_inputs:seed_inputs n0)

(* Canonical order: conditions compared as pin lists.  Every condition
   pins rank-prefix positions in rank order, so structural comparison
   sorts parents before children and 0-branches before 1-branches —
   independent of creation or completion order. *)
let canonical nodes =
  let arr = Array.of_list nodes in
  Array.sort
    (fun a b -> compare a.n_cube.task.Cube_prep.condition b.n_cube.task.Cube_prep.condition)
    arr;
  arr

let finish cfg ~seed_inputs ~nodes ~t0 ~domains_used =
  let arr = canonical nodes in
  (match cfg.base.Sat_attack.log with
  | None -> ()
  | Some sink ->
      Array.iter (fun n -> List.iter sink (List.rev n.n_logs)) arr);
  {
    seed_inputs;
    cubes = Array.map (fun n -> n.n_cube) arr;
    wall_time = Timer.monotonic () -. t0;
    domains_used;
  }

let make_shared cfg locked ~oracle ~seed ~buffer_logs =
  let n_in = Circuit.num_inputs locked in
  validate cfg n_in;
  let rank = Fanout.rank locked in
  let max_depth = min (cfg.n0 + cfg.max_extra_depth) (max 0 (n_in - 1)) in
  let max_depth = max max_depth cfg.n0 in
  {
    sh_cfg = cfg;
    sh_prep = Sat_attack.prepare locked;
    sh_oracle = oracle;
    sh_rank = rank;
    sh_max_depth = max_depth;
    sh_seed = seed;
    sh_buffer_logs = buffer_logs;
  }

let run ?(config = default_config) ?(seed = 0) locked ~oracle =
  let sh = make_shared config locked ~oracle ~seed ~buffer_logs:true in
  let seed_inputs, conditions = seed_cubes config sh.sh_rank in
  let t0 = Timer.monotonic () in
  Tel.with_span ~a0:config.n0 ~note:"serial" "cube.run" (fun () ->
      let nodes = ref [] in
      (* Depth-first worklist; order is irrelevant to the results (each
         cube's seed, budget and banks depend only on its path). *)
      let rec process (condition, banks, priority) =
        Progress.cube_created ~depth:(List.length condition);
        let node, resplit = attack_cube sh ~condition ~banks ~priority in
        nodes := node :: !nodes;
        match resplit with
        | None -> ()
        | Some (input, child_banks, prio) ->
            process (condition @ [ (input, false) ], child_banks, prio);
            process (condition @ [ (input, true) ], child_banks, prio)
      in
      Array.iter (fun cond -> process (cond, [], 0)) conditions;
      finish config ~seed_inputs ~nodes:!nodes ~t0 ~domains_used:1)

let run_parallel_core ?(config = default_config) ?num_domains ?pool ?(seed = 0)
    locked ~oracle =
  let own_pool, pool =
    match pool with
    | Some p -> (false, p)
    | None ->
        let d =
          match num_domains with
          | Some d -> d
          | None -> Domain.recommended_domain_count ()
        in
        (true, Pool.create ~num_domains:(max 1 d) ())
  in
  let sh = make_shared config locked ~oracle ~seed ~buffer_logs:true in
  let seed_inputs, conditions = seed_cubes config sh.sh_rank in
  let t0 = Timer.monotonic () in
  (* Cubes spawn their children from inside pool workers (submit never
     blocks), so completion is tracked by an outstanding-cube counter
     instead of handles: the caller sleeps on a condition variable until
     the tree drains.  Workers never await anything — no pool
     starvation. *)
  let lock = Mutex.create () in
  let drained = Condition.create () in
  let outstanding = ref 0 in
  let nodes = ref [] in
  let first_exn = ref None in
  let rec submit_cube condition banks priority =
    Progress.cube_created ~depth:(List.length condition);
    Mutex.lock lock;
    incr outstanding;
    Mutex.unlock lock;
    ignore
      (Pool.submit ~priority pool (fun _ctx ->
           (try
              let node, resplit = attack_cube sh ~condition ~banks ~priority in
              (match resplit with
              | None -> ()
              | Some (input, child_banks, prio) ->
                  submit_cube (condition @ [ (input, false) ]) child_banks prio;
                  submit_cube (condition @ [ (input, true) ]) child_banks prio);
              Mutex.lock lock;
              nodes := node :: !nodes;
              Mutex.unlock lock
            with e ->
              Mutex.lock lock;
              if !first_exn = None then first_exn := Some e;
              Mutex.unlock lock);
           Mutex.lock lock;
           decr outstanding;
           if !outstanding = 0 then Condition.broadcast drained;
           Mutex.unlock lock))
  in
  Array.iter (fun cond -> submit_cube cond [] 0) conditions;
  Mutex.lock lock;
  while !outstanding > 0 do
    Condition.wait drained lock
  done;
  Mutex.unlock lock;
  let domains_used = Pool.num_domains pool in
  if own_pool then Pool.shutdown pool;
  (match !first_exn with Some e -> raise e | None -> ());
  finish config ~seed_inputs ~nodes:!nodes ~t0 ~domains_used

let run_parallel ?config ?num_domains ?pool ?seed locked ~oracle =
  let n0 =
    match config with Some c -> c.n0 | None -> default_config.n0
  in
  Tel.with_span ~a0:n0 ~note:"steal" "cube.run" (fun () ->
      run_parallel_core ?config ?num_domains ?pool ?seed locked ~oracle)
