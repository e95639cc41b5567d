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
}

val default_config : config
(** No limits, inprocessing on, solver seed 0. *)

type status =
  | Broken  (** miter proved UNSAT; the returned key is functionally correct *)
  | Iteration_limit
  | Time_limit
  | Cancelled  (** the [interrupt] hook fired *)

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
