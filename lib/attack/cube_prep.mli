(** Per-cofactor machinery of the split attack.

    {!Split_attack} runs one {!Sat_attack.run_prepared} session per cube
    of the primary-input space over one shared preparation.  Everything
    a single cube session needs — span/metric bookkeeping, deterministic
    seeding, cancellation placeholders, failure classification — lives
    here, so the serial and the pooled runner share one code path. *)

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
    set ([Iteration_limit], [Time_limit]). *)

(** {2 Merged-result classification} *)

type failure_counts = {
  unsat_no_key : int;
      (** [Broken] but no key survives: the oracle contradicts the
          circuit under the cube.  Never worth retrying. *)
  cancelled : int;  (** never ran ({!Sat_attack.Cancelled}) *)
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
