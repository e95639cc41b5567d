(* The compiled flat-netlist kernel: differential fuzz against the
   reference interpreter (scalar, packed, bitvec), SAT-checked
   equivalence of the cofactor emitter against the circuit-rebuild
   (Simplify+Sweep) constraint path, liveness of the backward sweep, and
   scratch ownership rules. *)

open Helpers
module Compiled = LL.Netlist.Compiled
module Solver = LL.Sat.Solver
module Tseitin = LL.Sat.Tseitin
module Lit = LL.Sat.Lit
module Simplify = LL.Synth.Simplify
module Sweep = LL.Synth.Sweep

(* Random circuits over every gate kind — including the n-ary gates,
   [Mux] and [Lut], which the shared [random_circuit] helper never
   emits. *)
let random_all_gates ~seed ~num_inputs ~num_keys ~gates ~num_outputs () =
  let g = Prng.create seed in
  let nodes = ref [] and count = ref 0 in
  let add nd =
    nodes := nd :: !nodes;
    incr count
  in
  for _ = 1 to num_inputs do
    add Circuit.Input
  done;
  for _ = 1 to num_keys do
    add Circuit.Key_input
  done;
  add (Circuit.Const false);
  add (Circuit.Const true);
  for _ = 1 to gates do
    let pick () = Prng.int g !count in
    let nary gate =
      let k = 1 + Prng.int g 4 in
      Circuit.Gate (gate, Array.init k (fun _ -> pick ()))
    in
    let nd =
      match Prng.int g 10 with
      | 0 -> nary Gate.And
      | 1 -> nary Gate.Or
      | 2 -> nary Gate.Nand
      | 3 -> nary Gate.Nor
      | 4 -> nary Gate.Xor
      | 5 -> nary Gate.Xnor
      | 6 -> Circuit.Gate (Gate.Not, [| pick () |])
      | 7 -> Circuit.Gate (Gate.Buf, [| pick () |])
      | 8 -> Circuit.Gate (Gate.Mux, [| pick (); pick (); pick () |])
      | _ ->
          let k = 1 + Prng.int g 4 in
          let table = Bitvec.init (1 lsl k) (fun _ -> Prng.bool g) in
          Circuit.Gate (Gate.Lut table, Array.init k (fun _ -> pick ()))
    in
    add nd
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  let node_names = Array.mapi (fun i _ -> Printf.sprintf "n%d" i) nodes in
  let outputs =
    Array.init num_outputs (fun o ->
        (Printf.sprintf "out%d" o, Prng.int g (Array.length nodes)))
  in
  Circuit.create ~name:"rand_all" ~nodes ~node_names ~outputs

(* Reference output values through the interpreter, which does not go
   through the compiled kernel. *)
let reference_outputs c ~inputs ~keys =
  let values = Eval.eval_all_nodes c ~inputs ~keys in
  Array.map (fun j -> values.(j)) (Circuit.output_nodes c)

let bool_array = Alcotest.(array bool)

(* The differential tests below must reach every kernel arm the word
   kernel special-cases: LUTs of each width 1-4 (mux trees of every
   depth), MUXes and constants. *)
let check_gate_coverage circuits =
  let luts = Array.make 5 false and mux = ref false and const = ref false in
  List.iter
    (fun c ->
      Array.iter
        (function
          | Circuit.Gate (Gate.Lut _, fanins) -> luts.(Array.length fanins) <- true
          | Circuit.Gate (Gate.Mux, _) -> mux := true
          | Circuit.Const _ -> const := true
          | _ -> ())
        c.Circuit.nodes)
    circuits;
  for k = 1 to 4 do
    Alcotest.(check bool) (Printf.sprintf "covers %d-input LUTs" k) true luts.(k)
  done;
  Alcotest.(check bool) "covers MUX" true !mux;
  Alcotest.(check bool) "covers constants" true !const

let test_scalar_vs_reference () =
  let circuits = ref [] in
  for seed = 0 to 19 do
    let c =
      random_all_gates ~seed ~num_inputs:(3 + (seed mod 4)) ~num_keys:(seed mod 3)
        ~gates:(10 + (3 * seed)) ~num_outputs:4 ()
    in
    circuits := c :: !circuits;
    let p = Compiled.compile c in
    let g = Prng.create (1000 + seed) in
    for _ = 1 to 16 do
      let inputs = Array.init (Circuit.num_inputs c) (fun _ -> Prng.bool g) in
      let keys = Array.init (Circuit.num_keys c) (fun _ -> Prng.bool g) in
      Alcotest.check bool_array "scalar kernel = interpreter"
        (reference_outputs c ~inputs ~keys)
        (Compiled.eval p ~inputs ~keys)
    done
  done;
  check_gate_coverage !circuits

let test_lanes_vs_scalar () =
  let circuits = ref [] in
  for seed = 0 to 9 do
    let c =
      random_all_gates ~seed:(100 + seed) ~num_inputs:4 ~num_keys:2
        ~gates:(15 + (4 * seed)) ~num_outputs:3 ()
    in
    circuits := c :: !circuits;
    let p = Compiled.compile c in
    let g = Prng.create (2000 + seed) in
    let n_in = Circuit.num_inputs c and n_key = Circuit.num_keys c in
    (* 64 random patterns, packed one per lane. *)
    let pats =
      Array.init 64 (fun _ ->
          ( Array.init n_in (fun _ -> Prng.bool g),
            Array.init n_key (fun _ -> Prng.bool g) ))
    in
    let pack sel width =
      Array.init width (fun p ->
          let w = ref 0L in
          for l = 0 to 63 do
            if (sel pats.(l)).(p) then w := Int64.logor !w (Int64.shift_left 1L l)
          done;
          !w)
    in
    let out_lanes =
      Compiled.eval_lanes p ~inputs:(pack fst n_in) ~keys:(pack snd n_key)
    in
    for l = 0 to 63 do
      let inputs, keys = pats.(l) in
      let expect = reference_outputs c ~inputs ~keys in
      let got =
        Array.map
          (fun w -> Int64.logand (Int64.shift_right_logical w l) 1L = 1L)
          out_lanes
      in
      Alcotest.check bool_array "packed lane = interpreter" expect got
    done
  done;
  check_gate_coverage !circuits

let test_eval_bv () =
  let c = random_all_gates ~seed:42 ~num_inputs:5 ~num_keys:3 ~gates:40 ~num_outputs:4 () in
  let p = Compiled.compile c in
  let g = Prng.create 77 in
  for _ = 1 to 32 do
    let inputs = Bitvec.random g 5 and keys = Bitvec.random g 3 in
    let expect =
      reference_outputs c ~inputs:(Bitvec.to_bool_array inputs)
        ~keys:(Bitvec.to_bool_array keys)
    in
    Alcotest.check bitvec_testable "eval_bv = interpreter" (Bitvec.of_bool_array expect)
      (Compiled.eval_bv p ~inputs ~keys)
  done

(* The cofactor emitter must define, for every output, the same key
   function as encoding the Simplify+Sweep rebuilt circuit.  Both
   encodings share the same key literals in one solver, so equivalence
   of each output pair is provable by two UNSAT queries. *)
let test_cofactor_emitter_equiv () =
  for seed = 0 to 11 do
    let c =
      random_all_gates ~seed:(300 + seed) ~num_inputs:4 ~num_keys:4
        ~gates:(20 + (5 * seed)) ~num_outputs:3 ()
    in
    let n_in = Circuit.num_inputs c and n_key = Circuit.num_keys c in
    let p = Compiled.compile c in
    let s = Compiled.scratch p in
    let solver = Solver.create () in
    let env = Tseitin.create solver in
    let key_lits = Tseitin.fresh_lits env n_key in
    let g = Prng.create (4000 + seed) in
    for _ = 1 to 4 do
      let dip = Array.init n_in (fun _ -> Prng.bool g) in
      Compiled.cofactor_into p s ~inputs:dip;
      let outs_k = Tseitin.encode_cofactored env p s ~key_lits in
      let small =
        Sweep.run (Simplify.run ~bind:(List.init n_in (fun i -> (i, dip.(i)))) c)
      in
      let outs_r = Tseitin.encode env small ~input_lits:[||] ~key_lits in
      Array.iteri
        (fun o lk ->
          let lr = outs_r.(o) in
          let unsat assumptions =
            Solver.solve ~assumptions solver = Solver.Unsat
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d output %d: kernel&&~rebuild unsat" seed o)
            true
            (unsat [ lk; Lit.negate lr ]);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d output %d: ~kernel&&rebuild unsat" seed o)
            true
            (unsat [ Lit.negate lk; lr ]))
        outs_k
    done
  done

(* Constant outputs of the ternary pass agree with the rebuilt circuit's
   folded constants. *)
let test_cofactor_constants () =
  for seed = 0 to 7 do
    let c =
      random_all_gates ~seed:(500 + seed) ~num_inputs:5 ~num_keys:2 ~gates:30
        ~num_outputs:4 ()
    in
    let n_in = Circuit.num_inputs c in
    let p = Compiled.compile c in
    let s = Compiled.scratch p in
    let g = Prng.create (6000 + seed) in
    let dip = Array.init n_in (fun _ -> Prng.bool g) in
    Compiled.cofactor_into p s ~inputs:dip;
    let small =
      Sweep.run (Simplify.run ~bind:(List.init n_in (fun i -> (i, dip.(i)))) c)
    in
    let small_outs = Circuit.output_nodes small in
    Array.iteri
      (fun o j ->
        match Circuit.node small j with
        | Circuit.Const v ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d output %d const" seed o)
              (if v then 1 else 0)
              (Compiled.output_tern p s o)
        | _ ->
            Alcotest.(check int)
              (Printf.sprintf "seed %d output %d symbolic" seed o)
              2 (Compiled.output_tern p s o))
      small_outs
  done

(* A MUX whose select collapses under the cofactor keeps only the chosen
   branch alive; the dead branch must not be encoded. *)
let test_mux_liveness () =
  let b = Builder.create ~name:"muxlive" () in
  let x = Builder.input b "x" in
  let k0 = Builder.key_input b "k0" in
  let k1 = Builder.key_input b "k1" in
  let m = Builder.mux b ~select:x ~low:k0 ~high:k1 in
  Builder.output b "y" m;
  let c = Builder.finish b in
  let p = Compiled.compile c in
  let s = Compiled.scratch p in
  (* x = false selects the low branch (k0). *)
  Compiled.cofactor_into p s ~inputs:[| false |];
  Alcotest.(check bool) "k0 live" true (Compiled.is_live s 1);
  Alcotest.(check bool) "k1 dead" false (Compiled.is_live s 2);
  Compiled.cofactor_into p s ~inputs:[| true |];
  Alcotest.(check bool) "k0 dead" false (Compiled.is_live s 1);
  Alcotest.(check bool) "k1 live" true (Compiled.is_live s 2)

let test_scratch_rules () =
  let c1 = random_all_gates ~seed:1 ~num_inputs:3 ~num_keys:1 ~gates:10 ~num_outputs:2 () in
  let c2 = random_all_gates ~seed:2 ~num_inputs:3 ~num_keys:1 ~gates:12 ~num_outputs:2 () in
  let p1 = Compiled.compile c1 and p2 = Compiled.compile c2 in
  let s1 = Compiled.scratch p1 in
  (* Wrong-program scratch is rejected. *)
  Alcotest.check_raises "foreign scratch"
    (Invalid_argument "Compiled: scratch belongs to another program") (fun () ->
      Compiled.eval_into p2 s1 ~inputs:[| false; false; false |] ~keys:[| false |]);
  (* Reuse: a second eval through the same scratch is not polluted by the
     first. *)
  let inputs1 = [| true; false; true |] and inputs2 = [| false; true; false |] in
  Compiled.eval_into p1 s1 ~inputs:inputs1 ~keys:[| true |];
  let first = Compiled.read_outputs p1 s1 in
  Compiled.eval_into p1 s1 ~inputs:inputs2 ~keys:[| false |];
  Compiled.eval_into p1 s1 ~inputs:inputs1 ~keys:[| true |];
  Alcotest.check bool_array "scratch reuse deterministic" first
    (Compiled.read_outputs p1 s1)

(* Both simulation entry points run allocation-free on a caller-owned
   scratch: no boxed words, no per-call buffers.  The overhead of reading
   the counter itself is measured and subtracted. *)
let test_kernel_allocates_nothing () =
  let c = random_all_gates ~seed:9 ~num_inputs:6 ~num_keys:3 ~gates:120 ~num_outputs:4 () in
  let p = Compiled.compile c in
  let s = Compiled.scratch p in
  let inputs = Array.init 6 (fun i -> i mod 2 = 0) and keys = [| true; false; true |] in
  let inputs64 = Array.init 6 (fun i -> Int64.of_int (i * 0x9e3779b9))
  and keys64 = [| -1L; 0x5555L; 7L |] in
  let minor_delta f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead = minor_delta ignore in
  let sink = ref false in
  let scalar =
    minor_delta (fun () ->
        for _ = 1 to 10_000 do
          Compiled.eval_into p s ~inputs ~keys;
          sink := !sink <> Compiled.output_val p s 0
        done)
  in
  let packed =
    minor_delta (fun () ->
        for _ = 1 to 10_000 do
          Compiled.eval_lanes_into p s ~inputs:inputs64 ~keys:keys64
        done)
  in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.)) "eval_into: 0 minor words / 10k calls" 0. (scalar -. overhead);
  Alcotest.(check (float 0.)) "eval_lanes_into: 0 minor words / 10k calls" 0.
    (packed -. overhead)

let test_cached_memo () =
  let c = random_all_gates ~seed:3 ~num_inputs:3 ~num_keys:0 ~gates:8 ~num_outputs:1 () in
  let p1 = Compiled.cached c and p2 = Compiled.cached c in
  Alcotest.(check bool) "same compiled program" true (p1 == p2)

(* The per-domain scratch cache is bounded by the program memo: once the
   domain has moved on to more programs than [cached] holds, the scratch
   of a program it no longer uses is unreachable and gets collected. *)
let test_scratch_cache_bounded () =
  let circuit seed = random_all_gates ~seed ~num_inputs:3 ~num_keys:0 ~gates:8 ~num_outputs:1 () in
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Compiled.local_scratch (Compiled.cached (circuit 100))));
  for seed = 101 to 116 do
    ignore (Compiled.eval (Compiled.cached (circuit seed)) ~inputs:[| false; true; false |] ~keys:[||])
  done;
  Gc.full_major ();
  Alcotest.(check bool) "evicted program's scratch collected" false (Weak.check w 0)

let suite =
  [
    Alcotest.test_case "scalar kernel vs interpreter" `Quick test_scalar_vs_reference;
    Alcotest.test_case "packed lanes vs interpreter" `Quick test_lanes_vs_scalar;
    Alcotest.test_case "eval_bv" `Quick test_eval_bv;
    Alcotest.test_case "cofactor emitter equivalence" `Quick test_cofactor_emitter_equiv;
    Alcotest.test_case "cofactor constants" `Quick test_cofactor_constants;
    Alcotest.test_case "mux liveness" `Quick test_mux_liveness;
    Alcotest.test_case "scratch rules" `Quick test_scratch_rules;
    Alcotest.test_case "kernel allocates nothing" `Quick test_kernel_allocates_nothing;
    Alcotest.test_case "cached memo" `Quick test_cached_memo;
    Alcotest.test_case "scratch cache bounded" `Quick test_scratch_cache_bounded;
  ]
