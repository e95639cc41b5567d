(* Oracle, Miter, Equiv, Fanout and Analysis tests. *)
open Helpers
module Oracle = LL.Attack.Oracle
module Miter = LL.Attack.Miter
module Equiv = LL.Attack.Equiv
module Fanout = LL.Attack.Fanout
module Analysis = LL.Attack.Analysis

(* --- Oracle --- *)

let test_oracle_of_circuit () =
  let c = full_adder_circuit () in
  let o = Oracle.of_circuit c in
  Alcotest.(check int) "inputs" 3 (Oracle.num_inputs o);
  Alcotest.(check int) "outputs" 2 (Oracle.num_outputs o);
  let r = Oracle.query o [| true; true; false |] in
  Alcotest.(check (array bool)) "1+1+0" [| false; true |] r;
  Alcotest.(check int) "counted" 1 (Oracle.query_count o)

let test_oracle_rejects_keyed_circuit () =
  let c = random_circuit ~seed:90 () in
  let locked = (LL.Locking.Xor_lock.lock ~num_keys:2 c).circuit in
  Alcotest.check_raises "keyed" (Invalid_argument "Oracle.of_circuit: circuit has key ports")
    (fun () -> ignore (Oracle.of_circuit locked))

let test_oracle_query_length () =
  let o = Oracle.of_circuit (full_adder_circuit ()) in
  Alcotest.check_raises "length" (Invalid_argument "Oracle.query: pattern length") (fun () ->
      ignore (Oracle.query o [| true |]))

let test_oracle_of_function () =
  let o = Oracle.of_function ~num_inputs:2 ~num_outputs:1 (fun i -> [| i.(0) && i.(1) |]) in
  Alcotest.(check (array bool)) "and" [| true |] (Oracle.query o [| true; true |])

(* --- Miter --- *)

let test_miter_of_pair_equal () =
  let c = full_adder_circuit () in
  let m = Miter.of_pair c (full_adder_circuit ()) in
  (* diff must be 0 everywhere. *)
  let any_diff = ref false in
  for v = 0 to 7 do
    let inputs = Array.init 3 (fun i -> (v lsr i) land 1 = 1) in
    if (Eval.eval m ~inputs ~keys:[||]).(0) then any_diff := true
  done;
  Alcotest.(check bool) "no diff" false !any_diff

let test_miter_of_pair_different () =
  let c = full_adder_circuit () in
  (* Build a circuit differing on one pattern: invert sum when all ones. *)
  let b = Builder.create () in
  let inputs = Array.init 3 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let outs = LL.Netlist.Instantiate.append b c ~inputs ~keys:[||] in
  let all_ones = Builder.and_reduce b inputs in
  Builder.output b "sum" (Builder.xor2 b outs.(0) all_ones);
  Builder.output b "cout" outs.(1);
  let c2 = Builder.finish b in
  let m = Miter.of_pair c c2 in
  let diffs = ref [] in
  for v = 0 to 7 do
    let inputs = Array.init 3 (fun i -> (v lsr i) land 1 = 1) in
    if (Eval.eval m ~inputs ~keys:[||]).(0) then diffs := v :: !diffs
  done;
  Alcotest.(check (list int)) "exactly the all-ones pattern" [ 7 ] !diffs

let test_miter_dup_key () =
  let c = random_circuit ~seed:91 () in
  let locked = (LL.Locking.Xor_lock.lock ~num_keys:3 c).circuit in
  let m = Miter.dup_key locked in
  Alcotest.(check int) "keys doubled" 6 (Circuit.num_keys m);
  Alcotest.(check int) "inputs shared" (Circuit.num_inputs locked) (Circuit.num_inputs m);
  (* Same key on both sides -> no difference. *)
  let g = Prng.create 1 in
  let no_diff = ref true in
  for _ = 1 to 50 do
    let inputs = Array.init (Circuit.num_inputs m) (fun _ -> Prng.bool g) in
    let half = Array.init 3 (fun _ -> Prng.bool g) in
    let keys = Array.append half half in
    if (Eval.eval m ~inputs ~keys).(0) then no_diff := false
  done;
  Alcotest.(check bool) "identical keys never differ" true !no_diff

let test_miter_dup_key_requires_keys () =
  Alcotest.check_raises "no keys" (Invalid_argument "Miter.dup_key: circuit has no keys")
    (fun () -> ignore (Miter.dup_key (full_adder_circuit ())))

(* --- Equiv --- *)

let test_equiv_identical () =
  let c = random_circuit ~seed:92 () in
  (match Equiv.check c (random_circuit ~seed:92 ()) with
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample _ -> Alcotest.fail "identical circuits reported different")

let test_equiv_detects_difference () =
  let c = full_adder_circuit () in
  let b = Builder.create () in
  let inputs = Array.init 3 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let outs = LL.Netlist.Instantiate.append b c ~inputs ~keys:[||] in
  let all_ones = Builder.and_reduce b inputs in
  Builder.output b "sum" (Builder.xor2 b outs.(0) all_ones);
  Builder.output b "cout" outs.(1);
  let c2 = Builder.finish b in
  (match Equiv.check c c2 with
  | Equiv.Equivalent -> Alcotest.fail "missed the difference"
  | Equiv.Counterexample cex ->
      Alcotest.(check (array bool)) "cex is the all-ones pattern" [| true; true; true |] cex;
      Alcotest.(check bool) "cex differentiates" false (Equiv.equal_outputs c c2 ~inputs:cex))

let test_equiv_optimized_circuits () =
  let c = random_circuit ~seed:93 ~gates:60 () in
  (match Equiv.check c (LL.Synth.Optimize.run c) with
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample _ -> Alcotest.fail "optimizer changed the function")

let test_equiv_signature_mismatch () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Equiv.check (full_adder_circuit ()) (random_circuit ()));
       false
     with Invalid_argument _ -> true)

(* A difference only SAT can realistically find (one minterm in 2^16). *)
let test_equiv_needle_in_haystack () =
  let mk invert =
    let b = Builder.create () in
    let inputs = Array.init 16 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
    let all = Builder.and_reduce b inputs in
    let base = Builder.xor_reduce b inputs in
    Builder.output b "o" (if invert then Builder.xor2 b base all else base);
    Builder.finish b
  in
  (match Equiv.check ~samples:1 (mk false) (mk true) with
  | Equiv.Counterexample cex ->
      Alcotest.(check (array bool)) "all ones" (Array.make 16 true) cex
  | Equiv.Equivalent -> Alcotest.fail "missed single-minterm difference")

(* --- Fanout --- *)

let test_fanout_scores_and_rank () =
  let b = Builder.create () in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let k = Builder.key_input b "keyinput0" in
  (* y feeds a chain of key-controlled gates; x feeds none. *)
  let g1 = Builder.xor2 b y k in
  let g2 = Builder.and2 b g1 y in
  Builder.output b "o1" g2;
  Builder.output b "o2" (Builder.not_ b x);
  let c = Builder.finish b in
  let s = Fanout.scores c in
  Alcotest.(check int) "x score" 0 s.(0);
  Alcotest.(check int) "y score" 2 s.(1);
  Alcotest.(check (array int)) "rank" [| 1; 0 |] (Fanout.rank c);
  Alcotest.(check (array int)) "select 1" [| 1 |] (Fanout.select c ~n:1)

let test_fanout_sarlock_prefers_compared_inputs () =
  let c = random_circuit ~seed:94 ~num_inputs:8 ~num_outputs:3 ~gates:40 () in
  let locked = (LL.Locking.Sarlock.lock ~compare_inputs:[| 4; 5; 6 |] ~key_size:3 c).circuit in
  let top = Array.to_list (Fanout.select locked ~n:3) in
  List.iter
    (fun pos -> Alcotest.(check bool) "top-3 are compared inputs" true (List.mem pos [ 4; 5; 6 ]))
    top

let test_fanout_select_random () =
  let c = random_circuit ~seed:95 ~num_inputs:10 () in
  let sel = Fanout.select_random (Prng.create 1) c ~n:4 in
  Alcotest.(check int) "count" 4 (Array.length sel);
  Alcotest.(check bool) "distinct" true
    (List.sort_uniq compare (Array.to_list sel) |> List.length = 4)

(* --- Analysis --- *)

let test_analysis_fig1a_shape () =
  let c = random_circuit ~seed:96 ~num_inputs:3 ~num_outputs:2 ~gates:8 () in
  let locked = LL.Locking.Sarlock.lock ~key:(Bitvec.of_string "101") ~key_size:3 c in
  let m = Analysis.error_matrix ~original:c ~locked:locked.circuit () in
  Alcotest.(check (list int)) "only correct key clean" [ 5 ] (Analysis.correct_keys m);
  (* Sub-function msb=0 (input position 2 = 0): keys whose own pattern has
     msb=1 unlock that half: 4,6,7 plus the correct key 5. *)
  Alcotest.(check (list int)) "msb=0 unlocking keys" [ 4; 5; 6; 7 ]
    (Analysis.unlocking_keys m ~condition:[ (2, false) ]);
  Alcotest.(check (list int)) "msb=1 unlocking keys" [ 0; 1; 2; 3; 5 ]
    (Analysis.unlocking_keys m ~condition:[ (2, true) ]);
  (* Every wrong key corrupts exactly 1 of 8 patterns. *)
  Alcotest.(check (float 1e-9)) "error rate" (1.0 /. 8.0) (Analysis.error_rate m ~key:0)

let test_analysis_rejects_large () =
  let c = random_circuit ~seed:97 ~num_inputs:20 () in
  let locked = (LL.Locking.Xor_lock.lock ~num_keys:10 c).circuit in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Analysis.error_matrix ~original:c ~locked ());
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "oracle of_circuit" `Quick test_oracle_of_circuit;
    Alcotest.test_case "oracle rejects keyed" `Quick test_oracle_rejects_keyed_circuit;
    Alcotest.test_case "oracle query length" `Quick test_oracle_query_length;
    Alcotest.test_case "oracle of_function" `Quick test_oracle_of_function;
    Alcotest.test_case "miter of_pair equal" `Quick test_miter_of_pair_equal;
    Alcotest.test_case "miter of_pair different" `Quick test_miter_of_pair_different;
    Alcotest.test_case "miter dup_key" `Quick test_miter_dup_key;
    Alcotest.test_case "miter dup_key requires keys" `Quick test_miter_dup_key_requires_keys;
    Alcotest.test_case "equiv identical" `Quick test_equiv_identical;
    Alcotest.test_case "equiv detects difference" `Quick test_equiv_detects_difference;
    Alcotest.test_case "equiv optimized circuits" `Quick test_equiv_optimized_circuits;
    Alcotest.test_case "equiv signature mismatch" `Quick test_equiv_signature_mismatch;
    Alcotest.test_case "equiv needle in haystack" `Quick test_equiv_needle_in_haystack;
    Alcotest.test_case "fanout scores and rank" `Quick test_fanout_scores_and_rank;
    Alcotest.test_case "fanout prefers compared inputs" `Quick
      test_fanout_sarlock_prefers_compared_inputs;
    Alcotest.test_case "fanout select random" `Quick test_fanout_select_random;
    Alcotest.test_case "analysis fig1a shape" `Quick test_analysis_fig1a_shape;
    Alcotest.test_case "analysis rejects large" `Quick test_analysis_rejects_large;
  ]
