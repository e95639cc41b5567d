module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Timer = Ll_util.Timer
module Solver = Ll_sat.Solver
module Tseitin = Ll_sat.Tseitin
module Lit = Ll_sat.Lit
module Tel = Ll_telemetry.Telemetry

let m_dips = Tel.Metric.counter "attack.dips"

let m_oracle_queries = Tel.Metric.counter "attack.oracle_queries"

let h_dip_solve = Tel.Metric.histogram "attack.dip_solve_s"

type config = {
  max_iterations : int option;
  time_limit : float option;
  log : (string -> unit) option;
  interrupt : (unit -> bool) option;
  solver_seed : int;
  solver_simp : bool;
}

let default_config =
  {
    max_iterations = None;
    time_limit = None;
    log = None;
    interrupt = None;
    solver_seed = 0;
    solver_simp = true;
  }

type status = Broken | Iteration_limit | Time_limit | Cancelled

type result = {
  status : status;
  key : Bitvec.t option;
  dips : Bitvec.t list;
  num_dips : int;
  rounds : int;
  oracle_queries : int;
  total_time : float;
  solve_time : float;
  solver_conflicts : int;
}

(* ------------------------------------------------------------------ *)
(* Shared preparation                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything about the locked circuit that every (sub-)attack instance
   needs and that no instance mutates: the synthesized key-duplicated
   miter, the key-dependence split of the outputs, the compiled key cone
   for per-DIP cofactoring and the compiled key-independent cone for
   oracle consistency checks.  The split attack builds this once and runs
   one instance per cofactor cube; scratch buffers are per-run (and hence
   per-domain), never shared. *)
type prep = {
  p_locked : Circuit.t;
  p_miter : Circuit.t;
  p_n_in : int;
  p_n_key : int;
  p_output_key_dep : bool array;
  p_all_dep : bool;
  p_cone_prog : Compiled.t;
  p_indep : (Compiled.t * int array) option;
}

let prepare locked =
  if Circuit.num_keys locked = 0 then
    invalid_arg "Sat_attack.prepare: circuit has no keys";
  let n_in = Circuit.num_inputs locked and n_key = Circuit.num_keys locked in
  (* The two key-sharing copies are built as one circuit and synthesized
     before encoding: structural hashing merges all key-independent logic
     shared by the copies, which shrinks the miter dramatically (for
     point-function schemes it collapses to the key cones). *)
  let miter = Ll_synth.Optimize.run (Miter.dup_key locked) in
  assert (Circuit.num_keys miter = 2 * n_key);
  (* Per-DIP constraints only bind the key: restrict the circuit, once, to
     the outputs in the transitive fanout of a key input.  Key-independent
     outputs collapse to the oracle response on every DIP anyway (they
     contribute no clauses), so re-simplifying them each iteration is pure
     overhead; they are instead checked against the oracle by one linear
     simulation pass per DIP, which preserves the Broken diagnosis when an
     inconsistent oracle contradicts key-free logic. *)
  let output_key_dep =
    let kc = Ll_netlist.Cone.key_controlled locked in
    Array.map (fun j -> kc.(j)) (Circuit.output_nodes locked)
  in
  let all_dep = Array.for_all (fun b -> b) output_key_dep in
  (* A pathological lock can leave every output key-independent (the key
     drives only logic outside the output cones); the split would then
     build an empty key cone, so fall back to the whole-circuit path: the
     optimized miter has no key-dependent difference, the first solve is
     UNSAT, and the attack closes immediately (any key unlocks). *)
  let all_dep = all_dep || not (Array.exists (fun b -> b) output_key_dep) in
  let key_cone =
    if all_dep then locked
    else
      let outputs =
        Array.to_list locked.Circuit.outputs
        |> List.filteri (fun i _ -> output_key_dep.(i))
        |> Array.of_list
      in
      Ll_synth.Sweep.run
        (Circuit.create ~name:locked.Circuit.name ~nodes:locked.Circuit.nodes
           ~node_names:locked.Circuit.node_names ~outputs)
  in
  (* The key cone is compiled once; every DIP then runs one in-place
     ternary cofactor sweep over the flat program (no intermediate
     circuits) before the emitter adds its constraints. *)
  let cone_prog = Compiled.compile key_cone in
  let indep =
    if all_dep then None
    else begin
      let outputs =
        Array.to_list locked.Circuit.outputs
        |> List.filteri (fun i _ -> not output_key_dep.(i))
        |> Array.of_list
      in
      let indep_cone =
        Ll_synth.Sweep.run
          (Circuit.create ~name:locked.Circuit.name ~nodes:locked.Circuit.nodes
             ~node_names:locked.Circuit.node_names ~outputs)
      in
      let prog = Compiled.compile indep_cone in
      let pos =
        Array.to_list output_key_dep
        |> List.mapi (fun i dep -> (i, dep))
        |> List.filter_map (fun (i, dep) -> if dep then None else Some i)
        |> Array.of_list
      in
      Some (prog, pos)
    end
  in
  {
    p_locked = locked;
    p_miter = miter;
    p_n_in = n_in;
    p_n_key = n_key;
    p_output_key_dep = output_key_dep;
    p_all_dep = all_dep;
    p_cone_prog = cone_prog;
    p_indep = indep;
  }

let prep_circuit prep = prep.p_locked

let prep_inputs prep = prep.p_n_in

let prep_gates prep = Circuit.gate_count prep.p_miter

(* ------------------------------------------------------------------ *)
(* The DIP loop                                                       *)
(* ------------------------------------------------------------------ *)

(* One DIP per miter solve, as in Alg. 1: solve under the activation
   guard; on Sat read the DIP, query the oracle, and encode "both key
   copies reproduce the response on this DIP"; on Unsat no DIP is left
   and any key satisfying the constraints is correct.  The limits and
   hooks of [config] are polled before every solve. *)
let run_prepared_core ~config prep ~condition ~oracle =
  let locked = prep.p_locked in
  if Circuit.num_inputs locked <> Oracle.num_inputs oracle then
    invalid_arg "Sat_attack.run: oracle input count mismatch";
  if Circuit.num_outputs locked <> Oracle.num_outputs oracle then
    invalid_arg "Sat_attack.run: oracle output count mismatch";
  let n_in = prep.p_n_in and n_key = prep.p_n_key in
  let pinned = Array.make n_in None in
  List.iter
    (fun (pos, b) ->
      if pos < 0 || pos >= n_in then invalid_arg "Sat_attack.run: condition position";
      if pinned.(pos) <> None then invalid_arg "Sat_attack.run: duplicate condition";
      pinned.(pos) <- Some b)
    condition;
  let free_pos =
    Array.to_list pinned
    |> List.mapi (fun i v -> (i, v))
    |> List.filter_map (fun (i, v) -> match v with None -> Some i | Some _ -> None)
    |> Array.of_list
  in
  let started = Timer.monotonic () in
  Progress.set_key_bits n_key;
  let solver = Solver.create ~seed:config.solver_seed ~simp:config.solver_simp () in
  let env = Tseitin.create solver in
  let input_lits = Tseitin.fresh_lits env n_in in
  let key_lits = Tseitin.fresh_lits env (2 * n_key) in
  let key1 = Array.sub key_lits 0 n_key in
  let key2 = Array.sub key_lits n_key n_key in
  let diff =
    match Tseitin.encode env prep.p_miter ~input_lits ~key_lits with
    | [| d |] -> d
    | _ -> assert false
  in
  (* The cofactor cube: pinned primary inputs become root units, so the
     shared miter encoding — built once by {!prepare} for all cubes — is
     specialised by the solver instead of by re-synthesizing and
     re-encoding a cofactored circuit per cube. *)
  List.iter (fun (pos, b) -> Tseitin.force env input_lits.(pos) b) condition;
  (* Guarded difference clause: act -> diff.  The activation variable is
     used as an assumption on every solve, so it must survive variable
     elimination. *)
  let act = (Tseitin.fresh_lits env 1).(0) in
  Solver.freeze_var solver (Lit.var act);
  Solver.add_clause solver [ Lit.negate act; diff ];
  (* Scratch for the in-place ternary cofactor sweep of the key cone,
     owned by this run's domain. *)
  let scratch = Compiled.scratch prep.p_cone_prog in
  let indep =
    match prep.p_indep with
    | None -> None
    | Some (prog, pos) -> Some (prog, Compiled.scratch prog, Array.make n_key false, pos)
  in
  let indep_outputs_match dip response =
    match indep with
    | None -> true
    | Some (prog, scratch, zero_keys, pos) ->
        Compiled.eval_into prog scratch ~inputs:dip ~keys:zero_keys;
        let ok = ref true in
        Array.iteri
          (fun j i ->
            if Compiled.output_val prog scratch j <> response.(i) then ok := false)
          pos;
        !ok
  in
  let cone_response_of response =
    if prep.p_all_dep then response
    else
      Array.to_list response
      |> List.filteri (fun i _ -> prep.p_output_key_dep.(i))
      |> Array.of_list
  in
  (* Encode "C_l(dip, K) = y" for both key copies over the DIP's cofactor
     of the key cone (already in [scratch]): the emitter encodes just its
     live key logic. *)
  let encode_dip response =
    let cone_response = cone_response_of response in
    List.iter
      (fun key_lits ->
        let outs = Tseitin.encode_cofactored env prep.p_cone_prog scratch ~key_lits in
        Array.iteri (fun i o -> Tseitin.force env o cone_response.(i)) outs)
      [ key1; key2 ]
  in
  let solve_time = ref 0.0 in
  let timed_solve assumptions =
    let r, dt = Timer.time (fun () -> Solver.solve ~assumptions solver) in
    solve_time := !solve_time +. dt;
    if Tel.enabled () then Tel.Metric.observe h_dip_solve dt;
    r
  in
  let dips_rev = ref [] in
  let num_dips = ref 0 in
  let finish status key =
    {
      status;
      key;
      dips = List.rev !dips_rev;
      num_dips = !num_dips;
      rounds = !num_dips;
      oracle_queries = !num_dips;
      total_time = Timer.monotonic () -. started;
      solve_time = !solve_time;
      solver_conflicts = (Solver.stats solver).Solver.conflicts;
    }
  in
  let over_iterations () =
    match config.max_iterations with Some m -> !num_dips >= m | None -> false
  in
  let over_time () =
    match config.time_limit with
    | Some limit -> Timer.monotonic () -. started > limit
    | None -> false
  in
  let interrupted () = match config.interrupt with Some f -> f () | None -> false in
  let rec loop () =
    if over_iterations () then finish Iteration_limit None
    else if over_time () then finish Time_limit None
    else if interrupted () then finish Cancelled None
    else begin
      (* One span per DIP: a0 = DIP index; closed with v = the cofactored
         cone's symbolic (key-dependent) node count (Sat) or -1 (Unsat,
         i.e. the final solve that proves no DIP remains). *)
      if Tel.enabled () then Tel.span_begin ~a0:!num_dips "attack.dip";
      match timed_solve [ act ] with
      | Solver.Unsat ->
          (* No DIP left: extract any surviving key. *)
          let key =
            match timed_solve [ Lit.negate act ] with
            | Solver.Sat ->
                Some (Bitvec.init n_key (fun k -> Solver.value solver key1.(k)))
            | Solver.Unsat -> None
          in
          if Tel.enabled () then Tel.span_end ~v:(-1) ();
          finish Broken key
      | Solver.Sat ->
          let dip = Array.map (fun l -> Solver.value solver l) input_lits in
          let response = Oracle.query oracle dip in
          Tel.Metric.incr m_oracle_queries;
          Compiled.cofactor_into prep.p_cone_prog scratch ~inputs:dip;
          (* An oracle that contradicts key-independent logic leaves no
             key that can reproduce it: poison the solver so the attack
             reports Broken with no surviving key, as the unrestricted
             encoding would have. *)
          if not (indep_outputs_match dip response) then Solver.add_clause solver [];
          encode_dip response;
          Tel.Metric.incr m_dips;
          incr num_dips;
          if Tel.log_active () then
            Tel.log_line
              (Printf.sprintf "iter %d: dip=%s response=%s" !num_dips
                 (Bitvec.to_string (Bitvec.of_bool_array dip))
                 (Bitvec.to_string (Bitvec.of_bool_array response)));
          (* Sub-attacks report DIPs over their free inputs, in original
             relative order — the cube part is implied by the condition. *)
          let narrow =
            if Array.length free_pos = n_in then dip
            else Array.map (fun p -> dip.(p)) free_pos
          in
          dips_rev := Bitvec.of_bool_array narrow :: !dips_rev;
          Progress.add_dips 1;
          Progress.add_rounds 1;
          Progress.add_blocking_clauses 1;
          if Tel.enabled () then Tel.span_end ~v:(Compiled.unknown_count scratch) ();
          loop ()
    end
  in
  loop ()

(* A caller-supplied [log] callback becomes a telemetry log subscriber for
   the dynamic extent of the attack on this domain: attack iterations emit
   {!Tel.log_line}, which both feeds the callback and (when enabled) lands
   in the event trace. *)
let run_prepared ?(config = default_config) prep ~condition ~oracle =
  match config.log with
  | Some sink ->
      Tel.with_log_subscriber sink (fun () ->
          run_prepared_core ~config prep ~condition ~oracle)
  | None -> run_prepared_core ~config prep ~condition ~oracle

let run ?(config = default_config) locked ~oracle =
  if Circuit.num_keys locked = 0 then invalid_arg "Sat_attack.run: circuit has no keys";
  run_prepared ~config (prepare locked) ~condition:[] ~oracle
