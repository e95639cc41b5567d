(** Umbrella API for the logic-locking framework.

    This module re-exports every subsystem under one namespace and offers
    high-level pipelines ({!Pipeline}) covering the common flows: lock a
    design, attack it, verify the recovered key or multi-key composition.

    Layering (bottom up):
    - {!Util}: PRNG, bit vectors, timers, atomic file writes.
    - {!Telemetry}: spans, metrics and multi-domain trace capture
      ({!Ll_telemetry.Telemetry}) with Chrome-trace/JSONL/summary
      exporters and a structural trace validator.
    - {!Runtime}: work-stealing domain pool shared by every parallel
      workload.
    - {!Netlist}: gate-level circuits, building, simulation, [.bench] I/O.
    - {!Sat}: CDCL solver, Tseitin encoding, DIMACS.
    - {!Synth}: constant propagation, structural hashing, sweeping,
      cofactoring.
    - {!Bench_suite}: ISCAS'85 stand-ins and random circuits.
    - {!Locking}: XOR/XNOR, SARLock, Anti-SAT, LUT-insertion schemes.
    - {!Attack}: oracle, miters, the classic SAT attack, the multi-key
      split attack (paper, Algorithm 1), composition (Fig. 1b) and
      equivalence checking. *)

module Util = struct
  module Prng = Ll_util.Prng
  module Bitvec = Ll_util.Bitvec
  module Timer = Ll_util.Timer
  module Fileio = Ll_util.Fileio
end

module Telemetry = struct
  module Telemetry = Ll_telemetry.Telemetry
  module Live = Ll_telemetry.Live
  module Export = Ll_telemetry.Export
  module Trace_check = Ll_telemetry.Trace_check
  module Bench_diff = Ll_telemetry.Bench_diff
end

module Runtime = struct
  module Deque = Ll_runtime.Deque
  module Pool = Ll_runtime.Pool
end

module Netlist = struct
  module Gate = Ll_netlist.Gate
  module Circuit = Ll_netlist.Circuit
  module Builder = Ll_netlist.Builder
  module Eval = Ll_netlist.Eval
  module Compiled = Ll_netlist.Compiled
  module Instantiate = Ll_netlist.Instantiate
  module Cone = Ll_netlist.Cone
  module Bench_io = Ll_netlist.Bench_io
  module Verilog_out = Ll_netlist.Verilog_out
  module Testbench = Ll_netlist.Testbench
end

module Sat = struct
  module Lit = Ll_sat.Lit
  module Solver = Ll_sat.Solver
  module Tseitin = Ll_sat.Tseitin
  module Dimacs = Ll_sat.Dimacs
end

module Bdd = struct
  module Bdd = Ll_bdd.Bdd
  module Exact = Ll_bdd.Exact
end

module Synth = struct
  module Simplify = Ll_synth.Simplify
  module Sweep = Ll_synth.Sweep
  module Optimize = Ll_synth.Optimize
  module Cofactor = Ll_synth.Cofactor
end

module Bench_suite = struct
  module Iscas = Ll_benchsuite.Iscas
  module Generator = Ll_benchsuite.Generator
  module Structured = Ll_benchsuite.Structured
end

module Locking = struct
  module Locked = Ll_locking.Locked
  module Xor_lock = Ll_locking.Xor_lock
  module Sll = Ll_locking.Sll
  module Sarlock = Ll_locking.Sarlock
  module Mixed_sarlock = Ll_locking.Mixed_sarlock
  module Antisat = Ll_locking.Antisat
  module Lut_lock = Ll_locking.Lut_lock
  module Compose_key = Ll_locking.Compose_key
end

module Attack = struct
  module Oracle = Ll_attack.Oracle
  module Miter = Ll_attack.Miter
  module Equiv = Ll_attack.Equiv
  module Fanout = Ll_attack.Fanout
  module Sat_attack = Ll_attack.Sat_attack
  module Cube_prep = Ll_attack.Cube_prep
  module Split_attack = Ll_attack.Split_attack
  module Compose = Ll_attack.Compose
  module Analysis = Ll_attack.Analysis
  module Random_guess = Ll_attack.Random_guess
  module Sensitization = Ll_attack.Sensitization
  module Appsat = Ll_attack.Appsat
  module Progress = Ll_attack.Progress
end

module Pipeline = struct
  (** End-to-end convenience flows used by the examples, CLI and tests. *)

  type attack_outcome = {
    broke : bool;  (** the attack produced a functionally correct result *)
    recovered_key : Ll_util.Bitvec.t option;
    dips : int;
    total_time : float;
  }

  (** Run the classic SAT attack against a locked design whose original is
      known (the oracle is simulated from it) and verify the recovered key
      by SAT equivalence. *)
  let sat_attack_and_verify ?config ~original (locked : Ll_locking.Locked.t) =
    let oracle = Ll_attack.Oracle.of_circuit original in
    let r = Ll_attack.Sat_attack.run ?config locked.Ll_locking.Locked.circuit ~oracle in
    let broke =
      match r.Ll_attack.Sat_attack.key with
      | None -> false
      | Some key -> (
          let unlocked = Ll_netlist.Instantiate.bind_keys locked.circuit key in
          match Ll_attack.Equiv.check original unlocked with
          | Ll_attack.Equiv.Equivalent -> true
          | Ll_attack.Equiv.Counterexample _ -> false)
    in
    {
      broke;
      recovered_key = r.key;
      dips = r.num_dips;
      total_time = r.total_time;
    }

  (** Run the multi-key split attack with effort [n], compose the recovered
      keys per Fig. 1(b) and verify equivalence against the original. *)
  let split_attack_and_verify ?config ?(parallel = false) ~n ~original
      (locked : Ll_locking.Locked.t) =
    let oracle = Ll_attack.Oracle.of_circuit original in
    let attack =
      if parallel then
        Ll_attack.Split_attack.run_parallel ?config ~n locked.Ll_locking.Locked.circuit
          ~oracle
      else Ll_attack.Split_attack.run ?config ~n locked.circuit ~oracle
    in
    let composed = Ll_attack.Compose.of_attack locked.circuit attack in
    let broke =
      match composed with
      | None -> false
      | Some c -> (
          match Ll_attack.Equiv.check original c with
          | Ll_attack.Equiv.Equivalent -> true
          | Ll_attack.Equiv.Counterexample _ -> false)
    in
    (attack, composed, broke)
end
