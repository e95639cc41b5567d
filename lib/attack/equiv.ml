module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit
module Prng = Ll_util.Prng
module Simplify = Ll_synth.Simplify

type verdict = Equivalent | Counterexample of bool array

(* Both simulations below compile their circuits once per call into
   call-local scratch rather than through the per-domain [Compiled.cached]
   memo: the circuits checked here are one-off composed or key-bound
   netlists, and memoising them would keep each one (with its program and
   scratch) alive long after the check. *)
let equal_outputs a b ~inputs =
  let run c =
    let p = Compiled.compile c in
    let s = Compiled.scratch p in
    Compiled.eval_into p s ~inputs ~keys:[||];
    Compiled.read_outputs p s
  in
  run a = run b

let random_counterexample ~samples a b =
  let g = Prng.create 0x5EED in
  let n = Circuit.num_inputs a in
  let pa = Compiled.compile a and pb = Compiled.compile b in
  let sa = Compiled.scratch pa and sb = Compiled.scratch pb in
  let rec round r =
    if r >= samples then None
    else begin
      let lanes = Array.init n (fun _ -> Prng.bits64 g) in
      Compiled.eval_lanes_into pa sa ~inputs:lanes ~keys:[||];
      Compiled.eval_lanes_into pb sb ~inputs:lanes ~keys:[||];
      let diff = ref None in
      for o = 0 to Circuit.num_outputs a - 1 do
        let w1 = Compiled.output_lanes pa sa o and w2 = Compiled.output_lanes pb sb o in
        if !diff = None && w1 <> w2 then begin
          (* Find the offending lane. *)
          let w = Int64.logxor w1 w2 in
          let rec lane i = if Int64.logand (Int64.shift_right_logical w i) 1L = 1L then i else lane (i + 1) in
          let l = lane 0 in
          diff := Some (Array.init n (fun i ->
              Int64.logand (Int64.shift_right_logical lanes.(i) l) 1L = 1L))
        end
      done;
      match !diff with Some cex -> Some cex | None -> round (r + 1)
    end
  in
  round 0

let sat_decide ?seed ?conflict_limit a b =
  let solver = Solver.create ?seed () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env (Circuit.num_inputs a) in
  let outs1 = Tseitin.encode env a ~input_lits ~key_lits:[||] in
  let outs2 = Tseitin.encode env b ~input_lits ~key_lits:[||] in
  let diffs =
    Array.map2
      (fun o1 o2 ->
        let d = (Tseitin.fresh_lits env 1).(0) in
        (* d <-> o1 xor o2 *)
        Solver.add_clause solver [ Lit.negate d; o1; o2 ];
        Solver.add_clause solver [ Lit.negate d; Lit.negate o1; Lit.negate o2 ];
        Solver.add_clause solver [ d; Lit.negate o1; o2 ];
        Solver.add_clause solver [ d; o1; Lit.negate o2 ];
        d)
      outs1 outs2
  in
  Solver.add_clause solver (Array.to_list diffs);
  match Solver.solve ?conflict_limit solver with
  | Solver.Unsat -> `Equivalent
  | Solver.Sat -> `Counterexample (Array.map (fun l -> Solver.value solver l) input_lits)

let validate_pair name a b =
  if Circuit.num_keys a > 0 || Circuit.num_keys b > 0 then
    invalid_arg (name ^ ": circuits must be key-free");
  if
    Circuit.num_inputs a <> Circuit.num_inputs b
    || Circuit.num_outputs a <> Circuit.num_outputs b
  then invalid_arg (name ^ ": signature mismatch")

(* Both deciders run on the simplified pair: constant propagation folds
   bound key constants away ([XOR(w, 0)] becomes [w]), Nand/Nor/Xnor/Buf
   normalise to one gate vocabulary, and structural hashing shares equal
   gates within each side.  The Tseitin gate memo, over shared input
   literals, then merges the two sides wherever they agree structurally —
   a correctly keyed XOR lock maps every output pair onto one literal and
   the miter is refuted by propagation alone.  [Simplify.run] without
   [~bind] keeps every input port in order, so a counterexample found on
   the simplified pair is one for the caller's circuits. *)
let simplified a b =
  let simplify c =
    let s = Simplify.run c in
    assert (Circuit.num_inputs s = Circuit.num_inputs c);
    s
  in
  (simplify a, simplify b)

let check ?seed ?(samples = 8) a b =
  validate_pair "Equiv.check" a b;
  let a, b = simplified a b in
  match random_counterexample ~samples a b with
  | Some cex -> Counterexample cex
  | None -> (
      match sat_decide ?seed a b with
      | `Equivalent -> Equivalent
      | `Counterexample cex -> Counterexample cex)

type bounded_verdict = Proved_equivalent | Refuted of bool array | Unknown

let check_bounded ?seed ?(samples = 8) ~conflict_limit a b =
  validate_pair "Equiv.check_bounded" a b;
  let a, b = simplified a b in
  match random_counterexample ~samples a b with
  | Some cex -> Refuted cex
  | None -> (
      match sat_decide ?seed ~conflict_limit a b with
      | `Equivalent -> Proved_equivalent
      | `Counterexample cex -> Refuted cex
      | exception Solver.Conflict_limit -> Unknown)
