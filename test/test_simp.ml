(* Differential fuzzing of the inprocessing engine: a solver with
   simplification enabled must agree with a plain CDCL solver on every
   instance, and its Sat models — including the extension over eliminated
   variables — must satisfy the original clauses. *)
open Helpers
module Solver = Ll_sat.Solver
module Drup = Ll_sat.Drup
module Lit = Ll_sat.Lit
module Tseitin = Ll_sat.Tseitin
module Xor_lock = LL.Locking.Xor_lock
module Locked = LL.Locking.Locked

(* Random CNF with a clause-length mix that gives the simplifier real
   work: units and binaries force root strips, overlapping wide clauses
   feed subsumption, low var counts make BVE fire. *)
let random_cnf g ~nvars ~nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Prng.int g 4 in
      List.init len (fun _ -> Ll_sat.Lit.make (Prng.int g nvars) (Prng.bool g)))

let check_model_satisfies s clauses =
  List.iter
    (fun clause ->
      Alcotest.(check bool) "model satisfies original clause" true
        (List.exists (fun l -> Solver.value s l) clause))
    clauses

let solve_both ~seed clauses ~nvars =
  let mk simp =
    let s = Solver.create ~seed ~simp () in
    for _ = 1 to nvars do
      ignore (Solver.new_var s)
    done;
    List.iter (Solver.add_clause s) clauses;
    s
  in
  let plain = mk false and simp = mk true in
  let r_plain = Solver.solve plain and r_simp = Solver.solve simp in
  Alcotest.(check bool) "simp agrees with plain" true (r_plain = r_simp);
  if r_simp = Solver.Sat then check_model_satisfies simp clauses;
  (plain, simp, r_simp)

let prop_random_cnf =
  qcheck_case ~count:300 "random CNF: simp solver agrees with plain"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 5 + Prng.int g 26 in
      let nclauses = nvars + Prng.int g (3 * nvars) in
      let clauses = random_cnf g ~nvars ~nclauses in
      ignore (solve_both ~seed clauses ~nvars);
      true)

(* Incremental interleavings: alternate clause batches and solves, with a
   frozen activation variable assumed on every query.  Eliminated
   variables from earlier rounds get re-mentioned by later batches, which
   exercises restore. *)
let prop_incremental =
  qcheck_case ~count:150 "incremental add/solve interleavings agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Prng.create seed in
      let nvars = 6 + Prng.int g 16 in
      let mk simp =
        let s = Solver.create ~seed ~simp () in
        for _ = 1 to nvars do
          ignore (Solver.new_var s)
        done;
        s
      in
      let plain = mk false and simp = mk true in
      (* Frozen activation variable, used as an assumption each round. *)
      let act_p = Lit.pos (Solver.new_var plain) in
      let act_s = Lit.pos (Solver.new_var simp) in
      Solver.freeze_var simp (Lit.var act_s);
      let rounds = 2 + Prng.int g 4 in
      let all_clauses = ref [] in
      let cg = Prng.create (seed lxor 0x5a5a) in
      let sg = Prng.create (seed lxor 0x3c3c) in
      for _round = 1 to rounds do
        let batch = random_cnf cg ~nvars ~nclauses:(2 + Prng.int g (2 * nvars)) in
        all_clauses := batch @ !all_clauses;
        List.iter (Solver.add_clause plain) batch;
        List.iter (Solver.add_clause simp) batch;
        let r_p = Solver.solve ~assumptions:[ act_p ] plain in
        let r_s = Solver.solve ~assumptions:[ act_s ] simp in
        Alcotest.(check bool) "round result agrees" true (r_p = r_s);
        if r_s = Solver.Sat then begin
          (* Read every variable, eliminated ones included, in a shuffled
             order: the on-demand extension must be total whichever
             variable is read first, and the full model must satisfy
             every clause added so far. *)
          let order = Array.init (Solver.num_vars simp) Fun.id in
          Prng.shuffle sg order;
          let model = Array.make (Array.length order) false in
          Array.iter (fun v -> model.(v) <- Solver.model_var simp v) order;
          List.iter
            (fun clause ->
              Alcotest.(check bool) "full model satisfies clause" true
                (List.exists (fun l -> model.(Lit.var l) = Lit.is_pos l) clause))
            !all_clauses;
          Alcotest.(check bool) "assumption honoured" true (Solver.value simp act_s)
        end
      done;
      true)

(* Locked-circuit miters: encode two key copies of a randomly locked
   random circuit, constrain the outputs to differ, and compare simp
   vs. plain verdicts.  This drives Tseitin freezing, cofactor-free
   encoding, and BVE over real gate structure. *)
let prop_locked_miter =
  qcheck_case ~count:60 "locked-circuit miters agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let base = random_circuit ~seed ~num_inputs:4 ~num_outputs:2 ~gates:18 () in
      let locked = (Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:4 base).Locked.circuit in
      let solve_miter simp =
        let s = Solver.create ~seed ~simp () in
        let env = Tseitin.create s in
        let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
        let input_lits = Tseitin.fresh_lits env n_in in
        let k1 = Tseitin.fresh_lits env n_key in
        let k2 = Tseitin.fresh_lits env n_key in
        let o1 = Tseitin.encode env locked ~input_lits ~key_lits:k1 in
        let o2 = Tseitin.encode env locked ~input_lits ~key_lits:k2 in
        let diffs =
          Array.map2
            (fun a b ->
              let d = (Tseitin.fresh_lits env 1).(0) in
              Solver.add_clause s [ Lit.negate d; a; b ];
              Solver.add_clause s [ Lit.negate d; Lit.negate a; Lit.negate b ];
              Solver.add_clause s [ d; Lit.negate a; b ];
              Solver.add_clause s [ d; a; Lit.negate b ];
              d)
            o1 o2
        in
        Solver.add_clause s (Array.to_list diffs);
        let r = Solver.solve s in
        (* On Sat, the witness must be a genuine differentiating pair:
           re-simulate the circuit on the extracted assignment. *)
        if r = Solver.Sat then begin
          let inputs = Array.map (fun l -> Solver.value s l) input_lits in
          let keys1 = Array.map (fun l -> Solver.value s l) k1 in
          let keys2 = Array.map (fun l -> Solver.value s l) k2 in
          let e1 = Eval.eval locked ~inputs ~keys:keys1 in
          let e2 = Eval.eval locked ~inputs ~keys:keys2 in
          Alcotest.(check bool) "witness differentiates" true (e1 <> e2)
        end;
        r
      in
      let r_plain = solve_miter false and r_simp = solve_miter true in
      Alcotest.(check bool) "miter verdict agrees" true (r_plain = r_simp);
      true)

(* Model-blocking loop over a locked circuit's key space: the incremental
   pattern of the SAT attack (same solver queried repeatedly with growing
   clause sets), checked against a plain solver at every round. *)
let prop_blocking_rounds =
  qcheck_case ~count:40 "model-blocking rounds agree"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let base = random_circuit ~seed ~num_inputs:4 ~num_outputs:2 ~gates:14 () in
      let locked = (Xor_lock.lock ~prng:(Prng.create seed) ~num_keys:3 base).Locked.circuit in
      let mk simp =
        let s = Solver.create ~seed ~simp () in
        let env = Tseitin.create s in
        let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs locked) in
        let key_lits = Tseitin.fresh_lits env (Circuit.num_keys locked) in
        ignore (Tseitin.encode env locked ~input_lits ~key_lits);
        (s, key_lits)
      in
      let plain, kp = mk false and simp, ks = mk true in
      let continue = ref true in
      while !continue do
        let r_p = Solver.solve plain and r_s = Solver.solve simp in
        Alcotest.(check bool) "blocking round agrees" true (r_p = r_s);
        if r_s = Solver.Sat then begin
          (* Block the simp solver's key model in both solvers. *)
          let bits = Array.map (fun l -> Solver.value simp l) ks in
          let block klits =
            Array.to_list (Array.mapi (fun i l -> Lit.make (Lit.var l) (not bits.(i))) klits)
          in
          Solver.add_clause simp (block ks);
          Solver.add_clause plain (block kp)
        end
        else continue := false
      done;
      true)

(* Unit: subsumption statistics move and subsumed instances stay
   equivalent. *)
let test_subsumption_stats () =
  let s = Solver.create () in
  let v = Array.init 6 (fun _ -> Solver.new_var s) in
  (* {v0 v1} subsumes {v0 v1 v2}; {~v3 v4} + {v3 v4 v5} self-subsumes to
     {v4 v5}. *)
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1) ];
  Solver.add_clause s [ Lit.pos v.(0); Lit.pos v.(1); Lit.pos v.(2) ];
  Solver.add_clause s [ Lit.neg v.(3); Lit.pos v.(4) ];
  Solver.add_clause s [ Lit.pos v.(3); Lit.pos v.(4); Lit.pos v.(5) ];
  Array.iter (fun x -> Solver.freeze_var s x) v;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check bool) "subsumption fired" true
    (st.Solver.simp_subsumed + st.Solver.simp_self_subsumed > 0)

(* Unit: BVE eliminates an unfrozen chain variable and the model extends
   over it. *)
let test_bve_eliminates_and_extends () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  (* a -> x, x -> b: x is a pure chain variable. *)
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Solver.add_clause s [ Lit.pos a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "a true" true (Solver.model_var s a);
  Alcotest.(check bool) "b true" true (Solver.model_var s b);
  (* Whatever happened to x, its extended value satisfies both clauses. *)
  Alcotest.(check bool) "a->x holds" true ((not (Solver.model_var s a)) || Solver.model_var s x);
  Alcotest.(check bool) "x->b holds" true ((not (Solver.model_var s x)) || Solver.model_var s b)

(* Unit: a model lives until the next mutation.  Before it, an
   eliminated variable reads its extended value; after a later
   [add_clause] the model is gone, and reading the still-eliminated
   variable raises [Invalid_argument] like any unassigned variable. *)
let test_eliminated_read_after_add_clause () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  let c = Solver.new_var s in
  List.iter (Solver.freeze_var s) [ a; b; c ];
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve ~assumptions:[ Lit.pos a ] s = Solver.Sat);
  Alcotest.(check bool) "x eliminated" true (Solver.is_eliminated s x);
  Alcotest.(check bool) "x extended under a" true (Solver.model_var s x);
  (* A clause over frozen variables only: x stays eliminated. *)
  Solver.add_clause s [ Lit.pos c ];
  Alcotest.(check bool) "x still eliminated" true (Solver.is_eliminated s x);
  Alcotest.(check bool) "root unit still readable" true (Solver.model_var s c);
  Alcotest.check_raises "eliminated read after add_clause"
    (Invalid_argument "Solver.value: literal unassigned in model") (fun () ->
      ignore (Solver.model_var s x))

(* Unit: frozen variables are never eliminated. *)
let test_frozen_not_eliminated () =
  let s = Solver.create () in
  let vs = Array.init 8 (fun _ -> Solver.new_var s) in
  Array.iter (fun v -> Solver.freeze_var s v) vs;
  for i = 0 to 6 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Array.iter
    (fun v -> Alcotest.(check bool) "frozen var survives" false (Solver.is_eliminated s v))
    vs;
  Alcotest.(check int) "no eliminations" 0 (Solver.stats s).Solver.simp_eliminated_vars

(* Unit: re-mentioning an eliminated variable restores it, and the solver
   keeps answering correctly. *)
let test_restore_on_mention () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  (* Whether or not x was eliminated, forcing a and ~x must now conflict
     with a -> x. *)
  Solver.add_clause s [ Lit.pos a ];
  Solver.add_clause s [ Lit.neg x ];
  Alcotest.(check bool) "now unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "x active again" false (Solver.is_eliminated s x)

(* Unit: assumptions on a previously eliminated variable restore it. *)
let test_restore_on_assumption () =
  let s = Solver.create () in
  let a = Solver.new_var s and x = Solver.new_var s and b = Solver.new_var s in
  Solver.freeze_var s a;
  Solver.freeze_var s b;
  Solver.add_clause s [ Lit.neg a; Lit.pos x ];
  Solver.add_clause s [ Lit.neg x; Lit.pos b ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "unsat under a & ~x" true
    (Solver.solve ~assumptions:[ Lit.pos a; Lit.neg x ] s = Solver.Unsat);
  Alcotest.(check bool) "sat again" true (Solver.solve s = Solver.Sat)

(* DRUP: with proof recording on, elimination stays off and the recorded
   refutation — which includes subsumption / strengthening /
   vivification events — verifies with the independent checker. *)
let test_drup_mode_no_elimination () =
  let s = Solver.create () in
  Solver.enable_proof s;
  let v = Array.init 7 (fun _ -> Array.init 6 (fun _ -> Solver.new_var s)) in
  let cnf = ref [] in
  let add clause =
    Solver.add_clause s clause;
    cnf := clause :: !cnf
  in
  for i = 0 to 6 do
    add (List.init 6 (fun j -> Lit.pos v.(i).(j)))
  done;
  for j = 0 to 5 do
    for i1 = 0 to 6 do
      for i2 = i1 + 1 to 6 do
        add [ Lit.neg v.(i1).(j); Lit.neg v.(i2).(j) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check int) "no eliminations under proof" 0
    (Solver.stats s).Solver.simp_eliminated_vars;
  (match Drup.check_refutation ~num_vars:(Solver.num_vars s) ~cnf:!cnf ~proof:(Solver.proof s) with
  | Drup.Verified -> ()
  | Drup.Failed { step; reason } ->
      Alcotest.fail (Printf.sprintf "proof rejected at step %d: %s" step reason))

(* A BVE-heavy incremental stream with learnts present: the c432 /
   SARLock-8 DIP loop, one DIP per solve, with both key copies' per-DIP
   constraints encoded over constant input literals.  Each session
   eliminates the fresh gate variables of the new constraints while the
   learnt clauses of earlier solves are still live, so the learnt purge
   runs on every elimination.  Every counter is pinned: any change to
   which learnts a session purges, or in which order, moves them. *)
let test_bve_learnt_stream () =
  let c = LL.Bench_suite.Iscas.get "c432" in
  let locked =
    (LL.Locking.Sarlock.lock ~prng:(Prng.create 8) ~key_size:8 c).Locked.circuit
  in
  let s = Solver.create () in
  let env = Tseitin.create s in
  let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
  let input_lits = Tseitin.fresh_lits env n_in in
  let k1 = Tseitin.fresh_lits env n_key and k2 = Tseitin.fresh_lits env n_key in
  Array.iter (fun l -> Solver.freeze_var s (Lit.var l)) input_lits;
  Array.iter (fun l -> Solver.freeze_var s (Lit.var l)) k1;
  Array.iter (fun l -> Solver.freeze_var s (Lit.var l)) k2;
  let o1 = Tseitin.encode env locked ~input_lits ~key_lits:k1 in
  let o2 = Tseitin.encode env locked ~input_lits ~key_lits:k2 in
  let diff = Tseitin.mk_or env (Array.map2 (fun a b -> Tseitin.mk_xor env [| a; b |]) o1 o2) in
  let act = (Tseitin.fresh_lits env 1).(0) in
  Solver.freeze_var s (Lit.var act);
  Solver.add_clause s [ Lit.negate act; diff ];
  let t = Tseitin.lit_true env in
  let dips = ref 0 and learnt_peak = ref 0 in
  while Solver.solve ~assumptions:[ act ] s = Solver.Sat do
    incr dips;
    let dip = Array.map (Solver.value s) input_lits in
    let response = Eval.eval c ~inputs:dip ~keys:[||] in
    let fixed = Array.map (fun b -> if b then t else Lit.negate t) dip in
    List.iter
      (fun key_lits ->
        let outs = Tseitin.encode env locked ~input_lits:fixed ~key_lits in
        Array.iteri (fun o l -> Tseitin.force env l response.(o)) outs)
      [ k1; k2 ];
    learnt_peak := max !learnt_peak (Solver.num_learnts s)
  done;
  let st = Solver.stats s in
  let counts =
    [
      ("dips", !dips);
      ("conflicts", st.Solver.conflicts);
      ("decisions", st.Solver.decisions);
      ("propagations", st.Solver.propagations);
      ("eliminated vars", st.Solver.simp_eliminated_vars);
    ]
  in
  Alcotest.(check bool) "learnts present" true (!learnt_peak > 0);
  List.iter2
    (fun (name, v) expect -> Alcotest.(check int) ("bve stream " ^ name) expect v)
    counts [ 255; 419; 10935; 109624; 838 ]

let suite =
  [
    Alcotest.test_case "subsumption stats" `Quick test_subsumption_stats;
    Alcotest.test_case "bve eliminates and extends" `Quick test_bve_eliminates_and_extends;
    Alcotest.test_case "eliminated read after add_clause raises" `Quick
      test_eliminated_read_after_add_clause;
    Alcotest.test_case "frozen not eliminated" `Quick test_frozen_not_eliminated;
    Alcotest.test_case "restore on mention" `Quick test_restore_on_mention;
    Alcotest.test_case "restore on assumption" `Quick test_restore_on_assumption;
    Alcotest.test_case "drup mode: no elimination, proof verifies" `Quick
      test_drup_mode_no_elimination;
    prop_random_cnf;
    prop_incremental;
    prop_locked_miter;
    prop_blocking_rounds;
    Alcotest.test_case "bve learnt purge stream pinned" `Quick test_bve_learnt_stream;
  ]
