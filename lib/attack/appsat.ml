module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Prng = Ll_util.Prng
module Timer = Ll_util.Timer
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit
module Pool = Ll_runtime.Pool
module Tel = Ll_telemetry.Telemetry

let m_dips = Tel.Metric.counter "appsat.dips"

let m_estimates = Tel.Metric.counter "appsat.error_estimates"

type result = {
  key : Bitvec.t option;
  estimated_error : float;
  exact : bool;
  num_dips : int;
  oracle_queries : int;
  total_time : float;
}

(* The sample budget is always cut into this many batches, each drawing
   from its own [Prng.split] stream (split in batch order).  The batch
   structure is fixed — independent of whether, and how wide, a pool is
   used — so the estimate is one deterministic number for a given [prng]
   state, serial or parallel. *)
let estimate_batches = 8

let estimate_error ?pool ~prng ~samples locked oracle key =
  let n_in = Circuit.num_inputs locked in
  let n_out = Circuit.num_outputs locked in
  let prog = Compiled.cached locked in
  let key_lanes =
    Array.init (Bitvec.length key) (fun i -> if Bitvec.get key i then -1L else 0L)
  in
  let per = (samples + estimate_batches - 1) / estimate_batches in
  let batches =
    Array.init estimate_batches (fun b ->
        (Prng.split prng, max 0 (min per (samples - (b * per)))))
  in
  (* Locked-circuit side runs 64 samples per packed kernel call; the draw
     order (sample-major) and the oracle query order are exactly those of
     the one-sample-at-a-time loop, so the estimate — and the oracle's
     query count — are unchanged. *)
  let count_bad (g, count) =
    let patterns = Array.init count (fun _ -> Array.init n_in (fun _ -> Prng.bool g)) in
    let lanes = Array.make n_in 0L in
    let scratch = Compiled.local_scratch prog in
    let bad = ref 0 in
    let base = ref 0 in
    while !base < count do
      let w = min 64 (count - !base) in
      for p = 0 to n_in - 1 do
        let word = ref 0L in
        for l = 0 to w - 1 do
          if patterns.(!base + l).(p) then
            word := Int64.logor !word (Int64.shift_left 1L l)
        done;
        lanes.(p) <- !word
      done;
      Compiled.eval_lanes_into prog scratch ~inputs:lanes ~keys:key_lanes;
      for l = 0 to w - 1 do
        let response = Oracle.query oracle patterns.(!base + l) in
        let ok = ref true in
        for o = 0 to n_out - 1 do
          let got =
            Int64.logand
              (Int64.shift_right_logical (Compiled.output_lanes prog scratch o) l)
              1L
            = 1L
          in
          if got <> response.(o) then ok := false
        done;
        if not !ok then incr bad
      done;
      base := !base + w
    done;
    !bad
  in
  Tel.Metric.incr m_estimates;
  Tel.with_span ~a0:samples "appsat.estimate" (fun () ->
      let bad =
        match pool with
        | None -> Array.fold_left (fun acc b -> acc + count_bad b) 0 batches
        | Some p ->
            Pool.map_array p (fun _ctx b -> count_bad b) batches
            |> Array.fold_left
                 (fun acc -> function
                   | Pool.Done n -> acc + n
                   | Pool.Cancelled -> acc
                   | Pool.Failed e -> raise e)
                 0
      in
      float_of_int bad /. float_of_int samples)

let run ?(prng = Prng.create 0xA99) ?(target_error = 0.01) ?(check_every = 5)
    ?(samples = 512) ?(max_iterations = 1000) ?pool locked ~oracle =
  if Circuit.num_keys locked = 0 then invalid_arg "Appsat.run: circuit has no keys";
  if Circuit.num_inputs locked <> Oracle.num_inputs oracle then
    invalid_arg "Appsat.run: oracle input count mismatch";
  let started = Timer.now () in
  let queries_before = Oracle.query_count oracle in
  let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
  Progress.set_key_bits n_key;
  let solver = Solver.create () in
  let env = Tseitin.create solver in
  let miter = Ll_synth.Optimize.run (Miter.dup_key locked) in
  let input_lits = Tseitin.fresh_lits env n_in in
  let key_lits = Tseitin.fresh_lits env (2 * n_key) in
  let key1 = Array.sub key_lits 0 n_key in
  let key2 = Array.sub key_lits n_key n_key in
  let diff =
    match Tseitin.encode env miter ~input_lits ~key_lits with
    | [| d |] -> d
    | _ -> assert false
  in
  let act = (Tseitin.fresh_lits env 1).(0) in
  Solver.freeze_var solver (Lit.var act);
  Solver.add_clause solver [ Lit.negate act; diff ];
  let candidate_key () =
    match Solver.solve ~assumptions:[ Lit.negate act ] solver with
    | Solver.Sat -> Some (Bitvec.init n_key (fun k -> Solver.value solver key1.(k)))
    | Solver.Unsat -> None
  in
  let prog = Compiled.compile locked in
  let scratch = Compiled.scratch prog in
  let add_constraint dip response =
    Compiled.cofactor_into prog scratch ~inputs:dip;
    List.iter
      (fun kl ->
        let outs = Tseitin.encode_cofactored env prog scratch ~key_lits:kl in
        Array.iteri (fun o l -> Tseitin.force env l response.(o)) outs)
      [ key1; key2 ]
  in
  let finish ~exact ~dips key err =
    {
      key;
      estimated_error = err;
      exact;
      num_dips = dips;
      oracle_queries = Oracle.query_count oracle - queries_before;
      total_time = Timer.now () -. started;
    }
  in
  let rec loop i =
    if i >= max_iterations then
      let key = candidate_key () in
      let err =
        match key with
        | Some k -> estimate_error ?pool ~prng ~samples locked oracle k
        | None -> 1.0
      in
      finish ~exact:false ~dips:i key err
    else
      match Solver.solve ~assumptions:[ act ] solver with
      | Solver.Unsat ->
          let key = candidate_key () in
          finish ~exact:true ~dips:i key 0.0
      | Solver.Sat ->
          let dip = Array.map (fun l -> Solver.value solver l) input_lits in
          add_constraint dip (Oracle.query oracle dip);
          Tel.Metric.incr m_dips;
          Progress.add_dips 1;
          Progress.add_rounds 1;
          Progress.add_blocking_clauses 1;
          let i' = i + 1 in
          if i' / check_every > i / check_every then begin
            match candidate_key () with
            | None -> loop i'
            | Some key ->
                let err = estimate_error ?pool ~prng ~samples locked oracle key in
                if err <= target_error then finish ~exact:false ~dips:i' (Some key) err
                else loop i'
          end
          else loop i'
  in
  loop 0
