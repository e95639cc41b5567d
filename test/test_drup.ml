(* DRUP proof logging and independent checking. *)
open Helpers
module Solver = Ll_sat.Solver
module Drup = Ll_sat.Drup
module Lit = Ll_sat.Lit
module Tseitin = Ll_sat.Tseitin

let pigeonhole solver n m =
  let v = Array.init n (fun _ -> Array.init m (fun _ -> Solver.new_var solver)) in
  let cnf = ref [] in
  let add clause =
    Solver.add_clause solver clause;
    cnf := clause :: !cnf
  in
  for i = 0 to n - 1 do
    add (List.init m (fun j -> Lit.pos v.(i).(j)))
  done;
  for j = 0 to m - 1 do
    for i1 = 0 to n - 1 do
      for i2 = i1 + 1 to n - 1 do
        add [ Lit.neg v.(i1).(j); Lit.neg v.(i2).(j) ]
      done
    done
  done;
  !cnf

let test_rup_basic () =
  (* From {a}, {~a, b}: clause {b} is RUP; clause {~b} is not. *)
  let a = Lit.pos 0 and b = Lit.pos 1 in
  let clauses = [ [ a ]; [ Lit.negate a; b ] ] in
  Alcotest.(check bool) "b is rup" true (Drup.rup ~num_vars:2 ~clauses [ b ]);
  Alcotest.(check bool) "~b is not rup" false (Drup.rup ~num_vars:2 ~clauses [ Lit.negate b ])

let test_pigeonhole_proof_verifies () =
  let s = Solver.create () in
  Solver.enable_proof s;
  let cnf = pigeonhole s 4 3 in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let proof = Solver.proof s in
  Alcotest.(check bool) "proof non-empty" true (proof <> []);
  match Drup.check_refutation ~num_vars:(Solver.num_vars s) ~cnf ~proof with
  | Drup.Verified -> ()
  | Drup.Failed { step; reason } ->
      Alcotest.fail (Printf.sprintf "proof rejected at step %d: %s" step reason)

let test_corrupted_proof_rejected () =
  let s = Solver.create () in
  Solver.enable_proof s;
  let cnf = pigeonhole s 4 3 in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  (* Inject a non-consequence early in the proof. *)
  let bogus = Solver.P_add [| Lit.pos 0 |] in
  let corrupted = bogus :: Solver.proof s in
  (match Drup.check_refutation ~num_vars:(Solver.num_vars s) ~cnf ~proof:corrupted with
  | Drup.Verified -> Alcotest.fail "corrupted proof accepted"
  | Drup.Failed { step; _ } -> Alcotest.(check int) "fails at the bogus step" 0 step);
  (* A truncated proof (no empty clause) must also fail. *)
  let truncated =
    List.filter (function Solver.P_add [||] -> false | _ -> true) (Solver.proof s)
  in
  match Drup.check_refutation ~num_vars:(Solver.num_vars s) ~cnf ~proof:truncated with
  | Drup.Verified -> Alcotest.fail "truncated proof accepted"
  | Drup.Failed _ -> ()

let test_miter_unsat_proof_verifies () =
  (* The verifier's trust step: a proof-logged UNSAT answer on the miter
     Equiv decides.  The pair is a LUT-locked circuit against a
     composition of two keys that are each correct on one half of the
     input space only, so after simplification the sides still differ
     structurally and the refutation needs learnt clauses. *)
  let original = random_circuit ~seed:41 ~num_inputs:6 ~num_outputs:3 ~gates:30 () in
  let locked =
    LL.Locking.Lut_lock.lock ~prng:(Prng.create 42) ~stage1_luts:2 ~stage1_inputs:2
      original
  in
  let lc = locked.LL.Locking.Locked.circuit in
  let m = LL.Attack.Analysis.error_matrix ~original ~locked:lc () in
  let correct = Bitvec.to_int locked.correct_key in
  let half v =
    let keys = LL.Attack.Analysis.unlocking_keys m ~condition:[ (0, v) ] in
    let k = List.fold_left max correct (List.filter (fun k -> k <> correct) keys) in
    Bitvec.of_int ~width:(Bitvec.length locked.correct_key) k
  in
  let composed =
    LL.Attack.Compose.build ~optimize:false lc ~split_inputs:[| 0 |]
      ~keys:[| half false; half true |]
  in
  let solver = Solver.create () in
  Solver.enable_proof solver;
  (* Mirror of Equiv.check's encoding (simplify each side, then encode
     over shared input literals), with clause capture. *)
  let cnf = ref [] in
  let add clause =
    Solver.add_clause solver clause;
    cnf := clause :: !cnf
  in
  let env = Tseitin.create solver in
  let a = LL.Synth.Simplify.run original and b = LL.Synth.Simplify.run composed in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs a) in
  let o1, o2 =
    Tseitin.with_tap env
      (fun c -> cnf := Array.to_list c :: !cnf)
      (fun () ->
        ( Tseitin.encode env a ~input_lits ~key_lits:[||],
          Tseitin.encode env b ~input_lits ~key_lits:[||] ))
  in
  let diff_clause =
    Array.to_list
      (Array.map2
         (fun a b ->
           let d = (Tseitin.fresh_lits env 1).(0) in
           add [ Lit.negate d; a; b ];
           add [ Lit.negate d; Lit.negate a; Lit.negate b ];
           add [ d; Lit.negate a; b ];
           add [ d; a; Lit.negate b ];
           d)
         o1 o2)
  in
  add diff_clause;
  Alcotest.(check bool) "unsat" true (Solver.solve solver = Solver.Unsat);
  let proof = Solver.proof solver in
  Alcotest.(check bool) "refutation derives learnt clauses" true
    (List.exists (function Solver.P_add c -> Array.length c > 0 | _ -> false) proof);
  match Drup.check_refutation ~num_vars:(Solver.num_vars solver) ~cnf:!cnf ~proof with
  | Drup.Verified -> ()
  | Drup.Failed { step; reason } ->
      Alcotest.fail (Printf.sprintf "proof rejected at step %d: %s" step reason)

let test_proof_disabled_is_empty () =
  let s = Solver.create () in
  ignore (pigeonhole s 3 2);
  ignore (Solver.solve s);
  Alcotest.(check bool) "no events" true (Solver.proof s = [])

let suite =
  [
    Alcotest.test_case "rup basic" `Quick test_rup_basic;
    Alcotest.test_case "pigeonhole proof verifies" `Quick test_pigeonhole_proof_verifies;
    Alcotest.test_case "corrupted proof rejected" `Quick test_corrupted_proof_rejected;
    Alcotest.test_case "miter unsat" `Quick test_miter_unsat_proof_verifies;
    Alcotest.test_case "proof disabled is empty" `Quick test_proof_disabled_is_empty;
  ]
