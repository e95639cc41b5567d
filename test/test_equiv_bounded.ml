open Helpers
module Equiv = LL.Attack.Equiv

let test_bounded_proves_small () =
  let c = random_circuit ~seed:230 ~gates:40 () in
  match Equiv.check_bounded ~conflict_limit:100000 c (LL.Synth.Optimize.run c) with
  | Equiv.Proved_equivalent -> ()
  | Equiv.Refuted _ -> Alcotest.fail "optimizer broke the function"
  | Equiv.Unknown -> Alcotest.fail "tiny instance should not hit the limit"

let test_bounded_refutes () =
  let a = random_circuit ~seed:231 ~gates:30 () in
  let b = random_circuit ~seed:232 ~gates:30 () in
  match Equiv.check_bounded ~conflict_limit:100000 a b with
  | Equiv.Refuted cex ->
      Alcotest.(check bool) "counterexample is real" false
        (Equiv.equal_outputs a b ~inputs:cex)
  | Equiv.Proved_equivalent -> Alcotest.fail "distinct random circuits equal?"
  | Equiv.Unknown -> Alcotest.fail "should decide easily"

let test_bounded_gives_up () =
  (* Two structurally different multipliers: equivalence is SAT-hard, so a
     tiny conflict budget must yield Unknown rather than hang.  We compare
     an 8x8 multiplier against itself with operands swapped (commutativity
     is semantically true but structurally hard to prove). *)
  let build swap =
    let b = Builder.create ~name:(if swap then "mul_ba" else "mul_ab") () in
    let xs = Array.init 16 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
    let a = Array.sub xs 0 8 and bb = Array.sub xs 8 8 in
    let prod =
      if swap then LL.Bench_suite.Structured.array_multiplier b ~a:bb ~b:a
      else LL.Bench_suite.Structured.array_multiplier b ~a ~b:bb
    in
    Array.iteri (fun i p -> Builder.output b (Printf.sprintf "p%d" i) p) prod;
    Builder.finish b
  in
  match Equiv.check_bounded ~conflict_limit:200 (build false) (build true) with
  | Equiv.Unknown -> ()
  | Equiv.Proved_equivalent -> () (* acceptable if the solver gets lucky *)
  | Equiv.Refuted _ -> Alcotest.fail "commutativity refuted!"

(* The verifier decides on the simplified miter: with the correct key
   bound, constant propagation folds every XOR key gate away and the two
   sides hash onto the same literals, so a 100-conflict budget proves what
   the raw encoding needs ~29k conflicts for. *)
let c1908_xor24 () =
  let original = LL.Bench_suite.Iscas.get "c1908" in
  (original, LL.Locking.Xor_lock.lock ~prng:(Prng.create 24) ~num_keys:24 original)

let test_correct_key_folds_to_original () =
  let original, locked = c1908_xor24 () in
  match
    Equiv.check_bounded ~conflict_limit:100 original
      (LL.Locking.Locked.unlock_correct locked)
  with
  | Equiv.Proved_equivalent -> ()
  | Equiv.Refuted _ -> Alcotest.fail "correct key refuted"
  | Equiv.Unknown -> Alcotest.fail "correct-key miter needed more than 100 conflicts"

let test_wrong_key_cex_on_caller_circuits () =
  let original, locked = c1908_xor24 () in
  let wrong = Bitvec.copy locked.LL.Locking.Locked.correct_key in
  Bitvec.set wrong 0 (not (Bitvec.get wrong 0));
  let unlocked = LL.Locking.Locked.unlock locked wrong in
  match Equiv.check_bounded ~conflict_limit:100 original unlocked with
  | Equiv.Refuted cex ->
      Alcotest.(check bool) "cex distinguishes the unsimplified pair" false
        (Equiv.equal_outputs original unlocked ~inputs:cex)
  | Equiv.Proved_equivalent -> Alcotest.fail "wrong key proved equivalent"
  | Equiv.Unknown -> Alcotest.fail "wrong key left undecided"

(* Cross-engine oracle: the SAT verdict on the simplified miter agrees with
   the canonical BDD decision on the same pair, and every counterexample
   is one for the circuits the caller passed.  [samples] 0 sends every
   pair through the SAT decider, so SAT counterexamples are checked too;
   half the cases bind the correct key so both verdicts occur. *)
let prop_equiv_matches_bdd =
  qcheck_case ~count:60 "Equiv.check agrees with Bdd.Exact.equivalent"
    QCheck2.Gen.(quad (int_bound 100000) (int_bound 2) bool bool)
    (fun (seed, scheme_sel, correct, simulate) ->
      let c = random_circuit ~seed ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
      let prng = Prng.create (seed + 1) in
      let locked =
        match scheme_sel with
        | 0 -> LL.Locking.Xor_lock.lock ~prng ~num_keys:4 c
        | 1 -> LL.Locking.Sarlock.lock ~prng ~key_size:4 c
        | _ -> LL.Locking.Lut_lock.lock ~prng ~stage1_luts:2 ~stage1_inputs:2 c
      in
      let key =
        if correct then locked.LL.Locking.Locked.correct_key
        else Bitvec.random prng (LL.Locking.Locked.key_size locked)
      in
      let unlocked = LL.Locking.Locked.unlock locked key in
      let samples = if simulate then 8 else 0 in
      match Equiv.check ~samples c unlocked with
      | Equiv.Equivalent -> LL.Bdd.Exact.equivalent c unlocked
      | Equiv.Counterexample cex ->
          (not (LL.Bdd.Exact.equivalent c unlocked))
          && not (Equiv.equal_outputs c unlocked ~inputs:cex))

let suite =
  [
    Alcotest.test_case "bounded proves small" `Quick test_bounded_proves_small;
    Alcotest.test_case "bounded refutes" `Quick test_bounded_refutes;
    Alcotest.test_case "bounded gives up" `Quick test_bounded_gives_up;
    Alcotest.test_case "correct key folds to the original" `Quick
      test_correct_key_folds_to_original;
    Alcotest.test_case "wrong key cex on caller circuits" `Quick
      test_wrong_key_cex_on_caller_circuits;
    prop_equiv_matches_bdd;
  ]
