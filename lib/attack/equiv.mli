(** Combinational equivalence checking: fast random simulation followed by
    a complete SAT decision on the miter.

    Both entry points first run {!Ll_synth.Simplify.run} on each side:
    constants fold (a bound key gate such as [XOR(w, 0)] becomes [w]),
    gates normalise to one vocabulary and structurally equal gates are
    shared.  Simulation and the SAT miter then work on the simplified
    pair, whose Tseitin encoding over shared input literals merges the two
    sides wherever they agree structurally — a correctly keyed XOR lock is
    refuted by propagation alone.  Simplification keeps every input port
    in order, so counterexamples are over the caller's input order and
    distinguish the circuits as passed. *)

type verdict = Equivalent | Counterexample of bool array

val check :
  ?seed:int -> ?samples:int -> Ll_netlist.Circuit.t -> Ll_netlist.Circuit.t -> verdict
(** [check a b] for key-free circuits of equal signature.  [samples]
    controls the number of 64-pattern random-simulation rounds tried before
    falling back to SAT (default 8); [seed] is passed to the SAT solver's
    decision randomisation.  The returned counterexample is an input
    pattern, in [a]'s input-port order, on which [a] and [b] (as passed,
    not their simplified forms) differ. *)

val equal_outputs :
  Ll_netlist.Circuit.t -> Ll_netlist.Circuit.t -> inputs:bool array -> bool
(** One-pattern comparison (shared by tests and verdict checking). *)

type bounded_verdict =
  | Proved_equivalent
  | Refuted of bool array
  | Unknown  (** resource limit hit before a decision *)

val check_bounded :
  ?seed:int ->
  ?samples:int ->
  conflict_limit:int ->
  Ll_netlist.Circuit.t ->
  Ll_netlist.Circuit.t ->
  bounded_verdict
(** Like {!check}, but gives up ([Unknown]) once the SAT search exceeds
    [conflict_limit] conflicts — for verifying huge compositions where a
    complete proof may be impractical (e.g. multiplier equivalence). *)
