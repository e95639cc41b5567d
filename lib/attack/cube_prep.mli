(** Shared per-cofactor machinery of the multi-cube attacks.

    Both the paper's fixed-N split attack ({!Split_attack}) and the
    adaptive cube-and-conquer engine ({!Cube_attack}) run many
    {!Sat_attack.run_prepared} sessions over one shared preparation, each
    pinned to a cube of the primary-input space.  Everything a single
    cube session needs — span/metric bookkeeping, deterministic seeding,
    cancellation placeholders, failure classification — lives here so
    the two paths cannot drift apart. *)

type task = {
  condition : (int * bool) list;  (** pinned input positions and values *)
  sub_inputs : int;  (** free inputs of the conditional netlist *)
  sub_gates : int;  (** gate count of the shared synthesized miter *)
  result : Sat_attack.result;
  task_time : float;  (** cofactoring + attack, wall clock *)
}

val condition_string : (int * bool) list -> string
(** ["3=1,5=0"] — the trace-span note format for a cube. *)

val task_seeds : seed:int -> int -> int array
(** [task_seeds ~seed n] — one solver seed per task index, split from one
    root PRNG stream in index order (fixed-N determinism contract). *)

val cube_seed : seed:int -> (int * bool) list -> int
(** Solver seed for a dynamically created cube: a pure function of the
    root seed and the cube's pin path, so adaptive runs are reproducible
    under any scheduling. *)

val base_config : Sat_attack.config option -> Sat_attack.config

val run_task :
  ?index:int ->
  config:Sat_attack.config ->
  prep:Sat_attack.prep ->
  oracle:Oracle.t ->
  (int * bool) list ->
  task
(** Run one cube session under a ["split.task"] telemetry span tagged
    with the condition. *)

val cancelled_task : locked:Ll_netlist.Circuit.t -> (int * bool) list -> task
(** Placeholder for a sub-task cancelled before it started. *)

val fatal : task -> bool
(** A status after which the merged attack can no longer produce a key
    set by itself ([Iteration_limit], [Time_limit]).  [Stopped] is not
    fatal: the adaptive controller re-splits such cubes. *)

(** {2 Merged-result classification} *)

type failure_counts = {
  unsat_no_key : int;
      (** [Broken] but no key survives: the oracle contradicts the
          circuit under the cube.  Never worth retrying or
          re-splitting. *)
  cancelled : int;  (** never ran ({!Sat_attack.Cancelled}) *)
  stopped : int;  (** preempted by a difficulty budget; re-splittable *)
  iteration_limit : int;
  time_limit : int;
}

val no_failures : failure_counts

val count_failure : failure_counts -> Sat_attack.result -> failure_counts
(** Fold one sub-result into the counts ([Broken] {e with} a key counts
    as success and changes nothing). *)

val classify : Sat_attack.result list -> failure_counts

val clean : failure_counts -> bool
(** No failures at all — every sub-result carries a key. *)
