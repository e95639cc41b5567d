(** The oracle-guided SAT attack [Subramanyan et al., HOST'15] — the
    baseline ([N = 0]) of the paper's experiments.

    The attack solves a key-duplicated miter of the locked netlist to find
    distinguishing input patterns (DIPs), queries the oracle on each DIP
    and constrains both key copies to reproduce the observed output,
    iterating until the miter is unsatisfiable; any key satisfying the
    accumulated constraints is then functionally correct.

    The miter's "find a difference" clause is guarded by an activation
    literal, so the final key extraction reuses the same incremental solver
    with the guard released.  Each miter solve yields one DIP (Alg. 1 of
    the paper); the DIP's constraint is the key cone cofactored on the
    DIP by a compiled ternary sweep, so only its live key logic is
    encoded. *)

(** {2 Cross-cofactor clause sharing}

    A cube-and-conquer controller re-splits a hard cofactor into two
    child cubes; without sharing, each child would rediscover every DIP
    constraint its parent already paid solves and oracle queries for.
    {!Share} makes those constraints portable: a session exports each
    DIP constraint as a self-contained entry (DIP, response, clause
    stream over a canonical variable space), and a later session over
    the {e same} {!prep} imports every entry whose DIP lies inside its
    own cube.  The canonical space works because variable allocation up
    to the activation guard is a pure function of the prep — identical
    in every session — and auxiliary variables are renumbered in
    first-use order on export, then mapped to fresh variables on import.
    Dropping incompatible entries can only {e weaken} what the receiver
    imports (auxiliary definitions may go missing), never exclude a
    valid key, so filtering is sound. *)

module Share : sig
  type entry
  (** One DIP constraint in portable form.  Immutable; safe to send
      across domains. *)

  val dip : entry -> bool array
  (** The full-width input pattern the entry constrains (a copy). *)

  val num_clauses : entry -> int

  val compatible : entry -> condition:(int * bool) list -> bool
  (** Does the entry's DIP agree with every pinned input of [condition]?
      Import is sound exactly when it does. *)
end

type progress = {
  pg_dips : int;  (** DIPs accumulated so far *)
  pg_imported : int;  (** share entries imported at session start *)
  pg_conflicts : int;  (** solver conflicts so far (deterministic) *)
  pg_propagations : int;  (** solver propagations so far (deterministic) *)
  pg_elapsed : float;  (** wall-clock seconds since the session started *)
}
(** Snapshot handed to {!config.stop} before every solve. *)

type config = {
  max_iterations : int option;  (** DIP budget; [None] = unlimited *)
  time_limit : float option;  (** wall-clock seconds; checked before every solve *)
  log : (string -> unit) option;  (** per-DIP progress callback *)
  interrupt : (unit -> bool) option;
      (** cooperative cancellation hook, polled before every solve; when it
          returns [true] the attack stops with status {!Cancelled}.  Used by
          the parallel split attack to abandon sub-attacks early once a
          sibling has failed. *)
  solver_seed : int;
      (** seed of the CDCL solver's decision PRNG (default 0).  The split
          attack derives one seed per sub-task from a
          {!Ll_util.Prng.split} stream so runs are reproducible under any
          scheduling. *)
  solver_simp : bool;
      (** enable the solver's inprocessing engine (subsumption, bounded
          variable elimination, vivification) on the attack's incremental
          CNF (default [true]; disable for A/B comparison — see the
          [bench-sat-simp-smoke] alias). *)
  stop : (progress -> bool) option;
      (** difficulty-budget hook, polled before every solve like the other
          limits; returning [true] ends the session with status
          {!Stopped}.  The adaptive cube controller uses it to preempt a
          cofactor that exceeded its budget and re-split it.  Budgets
          over [pg_conflicts]/[pg_propagations]/[pg_dips] keep the
          decision deterministic; [pg_elapsed] trades that away. *)
  share_out : (Share.entry -> unit) option;
      (** export sink: called once per DIP constraint (after encoding)
          with its portable form.  Capture is read-only — the session's
          own behaviour is identical with or without a sink. *)
  share_in : Share.entry list list;
      (** banks of entries to import at session start, outermost ancestor
          first.  Each inner list must come from {e one} publishing
          session over the same {!prep} (auxiliary ids are only
          consistent within a session); entries incompatible with this
          session's condition are skipped.  Raises [Invalid_argument] on
          an entry from a different preparation. *)
}

val default_config : config
(** No limits, no sharing, inprocessing on, solver seed 0. *)

type status =
  | Broken  (** miter proved UNSAT; the returned key is functionally correct *)
  | Iteration_limit
  | Time_limit
  | Cancelled  (** the [interrupt] hook fired *)
  | Stopped  (** the [stop] difficulty budget fired (cube re-split) *)

type result = {
  status : status;
  key : Ll_util.Bitvec.t option;  (** present when [status = Broken] *)
  dips : Ll_util.Bitvec.t list;  (** in discovery order *)
  num_dips : int;
  rounds : int;
      (** main solves that found a DIP; always equals [num_dips] (one DIP
          per solve), kept for reporting *)
  oracle_queries : int;
  total_time : float;
  solve_time : float;  (** time inside the SAT solver *)
  solver_conflicts : int;
  imported : int;  (** share entries imported at session start *)
}

val run : ?config:config -> Ll_netlist.Circuit.t -> oracle:Oracle.t -> result
(** [run locked ~oracle] — [locked] must carry key ports and match the
    oracle's input/output counts.  Raises [Invalid_argument] otherwise. *)

(** {2 Shared preparation}

    The cofactor sub-attacks of {!Split_attack} all work on the same
    locked circuit: the synthesized key-duplicated miter, the output
    key-dependence split and the compiled key cone are identical across
    cubes.  {!prepare} computes them once; {!run_prepared} runs one attack
    instance against a prepared circuit, pinning a cube's inputs as root
    units in the (shared, immutable) miter encoding. *)

type prep
(** Immutable per-circuit preparation, safe to share across domains. *)

val prepare : Ll_netlist.Circuit.t -> prep
(** Raises [Invalid_argument] when the circuit has no key ports. *)

val prep_circuit : prep -> Ll_netlist.Circuit.t
(** The locked circuit the prep was built from. *)

val prep_inputs : prep -> int
(** Primary input count of the prepared circuit. *)

val prep_gates : prep -> int
(** Gate count of the shared synthesized miter. *)

val run_prepared :
  ?config:config -> prep -> condition:(int * bool) list -> oracle:Oracle.t -> result
(** [run_prepared prep ~condition ~oracle] attacks the cofactor of the
    prepared circuit under [condition] (primary input positions pinned to
    constants; [[]] is the full attack, identical to {!run}).  The oracle
    is the {e full-width} oracle of the original circuit — queries carry
    the pinned values.  Reported [dips] contain only the free input
    positions, in their original relative order.  Raises
    [Invalid_argument] on oracle port mismatches or out-of-range or
    duplicate condition positions. *)
