module Circuit = Ll_netlist.Circuit
module Gate = Ll_netlist.Gate
module Compiled = Ll_netlist.Compiled
module Bitvec = Ll_util.Bitvec
module Tel = Ll_telemetry.Telemetry

let m_encodes = Tel.Metric.counter "kernel.encodes"

(* Gate-memoization keys.  [fan] is the canonical fanin-literal array for
   the operator (sorted-uniq for the symmetric AND/OR, as-given
   otherwise); [tbl] is non-empty only for LUTs.  A flat int-array key
   with its own hash replaces the old [(string * int list)] key — no list
   or sort allocation on the lookup path beyond one small array, and no
   polymorphic hashing. *)
module Key = struct
  type t = { tag : int; tbl : string; fan : int array }

  let equal a b =
    a.tag = b.tag
    && Array.length a.fan = Array.length b.fan
    && (let n = Array.length a.fan in
        let rec eq i = i >= n || (a.fan.(i) = b.fan.(i) && eq (i + 1)) in
        eq 0)
    && String.equal a.tbl b.tbl

  let hash k =
    let h = ref ((k.tag + 1) * 0x9e3779b1) in
    Array.iter (fun x -> h := (!h lxor (x + 0x1003f)) * 0x01000193) k.fan;
    if k.tbl <> "" then h := !h lxor Hashtbl.hash k.tbl;
    !h land max_int
end

module Cache = Hashtbl.Make (Key)

let tag_and = 0

let tag_or = 1

let tag_xor = 2

let tag_mux = 3

let tag_lut = 4

(* The env memoizes every encoded gate by (operator, fanin literals): a
   subcircuit appearing in several [encode] calls (e.g. the key cone shared
   by all DIP constraints of a SAT attack) is encoded once and reused. *)
type env = {
  solver : Solver.t;
  mutable true_lit : Lit.t option;
  cache : Lit.t Cache.t;
  (* Observer of every emitted clause (see {!with_tap}).  Never alters
     what reaches the solver. *)
  mutable tap : (Lit.t array -> unit) option;
}

let create solver =
  { solver; true_lit = None; cache = Cache.create 4096; tap = None }

let solver env = env.solver

let emit env lits =
  (match env.tap with None -> () | Some f -> f lits);
  Solver.add_clause_a env.solver lits

let with_tap env f body =
  let saved = env.tap in
  (* Compose with an enclosing tap so nested captures both observe. *)
  let tap =
    match saved with
    | None -> f
    | Some g ->
        fun lits ->
          g lits;
          f lits
  in
  env.tap <- Some tap;
  Fun.protect ~finally:(fun () -> env.tap <- saved) body

let fresh_lits env n = Array.init n (fun _ -> Lit.pos (Solver.new_var env.solver))

let lit_true env =
  match env.true_lit with
  | Some l -> l
  | None ->
      let l = Lit.pos (Solver.new_var env.solver) in
      emit env [| l |];
      env.true_lit <- Some l;
      l

let force env l v = emit env [| (if v then l else Lit.negate l) |]

let force_equal env a b =
  emit env [| Lit.negate a; b |];
  emit env [| a; Lit.negate b |]

let add env ls = emit env (Array.of_list ls)

(* A cached gate output is only reusable while its variable survives
   inprocessing: variable elimination may have resolved the definition
   clauses away.  On an eliminated hit, re-encode the gate onto a fresh
   variable (the fanins are checked bottom-up, so they are valid). *)
let cached env key build =
  match Cache.find_opt env.cache key with
  | Some l when not (Solver.is_eliminated env.solver (Lit.var l)) -> l
  | _ ->
      let out = Lit.pos (Solver.new_var env.solver) in
      build out;
      Cache.replace env.cache key out;
      out

(* Sorted, deduplicated copy — the canonical key form for symmetric
   gates.  Matches the old [List.sort_uniq compare] ordering on ints. *)
let sorted_uniq (xs : int array) =
  let a = Array.copy xs in
  Array.sort (fun (x : int) y -> compare x y) a;
  let n = Array.length a in
  if n <= 1 then a
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!m - 1) then begin
        a.(!m) <- a.(i);
        incr m
      end
    done;
    if !m = n then a else Array.sub a 0 !m
  end

(* out <-> AND(xs) *)
let mk_and env xs =
  let key = { Key.tag = tag_and; tbl = ""; fan = sorted_uniq xs } in
  cached env key (fun out ->
      Array.iter (fun x -> add env [ Lit.negate out; x ]) xs;
      add env (out :: Array.to_list (Array.map Lit.negate xs)))

(* out <-> OR(xs) *)
let mk_or env xs =
  let key = { Key.tag = tag_or; tbl = ""; fan = sorted_uniq xs } in
  cached env key (fun out ->
      Array.iter (fun x -> add env [ out; Lit.negate x ]) xs;
      add env (Lit.negate out :: Array.to_list xs))

(* out <-> a XOR b *)
let encode_xor2 env out a b =
  add env [ Lit.negate out; a; b ];
  add env [ Lit.negate out; Lit.negate a; Lit.negate b ];
  add env [ out; Lit.negate a; b ];
  add env [ out; a; Lit.negate b ]

let mk_xor2 env a b =
  let lo = min a b and hi = max a b in
  cached env { Key.tag = tag_xor; tbl = ""; fan = [| lo; hi |] } (fun out ->
      encode_xor2 env out lo hi)

let mk_xor env xs =
  let n = Array.length xs in
  if n = 1 then xs.(0)
  else begin
    let acc = ref xs.(0) in
    for i = 1 to n - 1 do
      acc := mk_xor2 env !acc xs.(i)
    done;
    !acc
  end

(* out <-> if s then hi else lo *)
let mk_mux env sel lo hi =
  cached env { Key.tag = tag_mux; tbl = ""; fan = [| sel; lo; hi |] } (fun out ->
      add env [ Lit.negate sel; Lit.negate hi; out ];
      add env [ Lit.negate sel; hi; Lit.negate out ];
      add env [ sel; Lit.negate lo; out ];
      add env [ sel; lo; Lit.negate out ];
      (* Redundant but propagation-strengthening clauses. *)
      add env [ Lit.negate lo; Lit.negate hi; out ];
      add env [ lo; hi; Lit.negate out ])

let mk_lut env table fanin_lits =
  let k = Array.length fanin_lits in
  if k > 16 then invalid_arg "Tseitin: LUT wider than 16 inputs";
  let key =
    { Key.tag = tag_lut; tbl = Bitvec.to_string table; fan = Array.copy fanin_lits }
  in
  cached env key (fun out ->
      (* One clause per minterm: (fanins = pattern) -> out = table bit. *)
      for idx = 0 to (1 lsl k) - 1 do
        let guard =
          List.init k (fun i ->
              if (idx lsr i) land 1 = 1 then Lit.negate fanin_lits.(i) else fanin_lits.(i))
        in
        let rhs = if Bitvec.get table idx then out else Lit.negate out in
        add env (rhs :: guard)
      done)

let freeze_all env lits =
  Array.iter (fun l -> Solver.freeze_var env.solver (Lit.var l)) lits

let encode env c ~input_lits ~key_lits =
  if Array.length input_lits <> Circuit.num_inputs c then
    invalid_arg "Tseitin.encode: input literal count mismatch";
  if Array.length key_lits <> Circuit.num_keys c then
    invalid_arg "Tseitin.encode: key literal count mismatch";
  (* Interface variables are re-mentioned by later clauses (miters, DIP
     constraints, model queries): exempt them from variable elimination.
     Internal gate variables stay eliminable. *)
  freeze_all env input_lits;
  freeze_all env key_lits;
  let lit_of_node = Array.make (Circuit.num_nodes c) 0 in
  let next_input = ref 0 and next_key = ref 0 in
  Array.iteri
    (fun i nd ->
      let l =
        match nd with
        | Circuit.Input ->
            let l = input_lits.(!next_input) in
            incr next_input;
            l
        | Circuit.Key_input ->
            let l = key_lits.(!next_key) in
            incr next_key;
            l
        | Circuit.Const v -> if v then lit_true env else Lit.negate (lit_true env)
        | Circuit.Gate (g, fanins) -> (
            let fl = Array.map (fun j -> lit_of_node.(j)) fanins in
            match g with
            | Gate.Buf -> fl.(0)
            | Gate.Not -> Lit.negate fl.(0)
            | Gate.And -> mk_and env fl
            | Gate.Nand -> Lit.negate (mk_and env fl)
            | Gate.Or -> mk_or env fl
            | Gate.Nor -> Lit.negate (mk_or env fl)
            | Gate.Xor -> mk_xor env fl
            | Gate.Xnor -> Lit.negate (mk_xor env fl)
            | Gate.Mux -> mk_mux env fl.(0) fl.(1) fl.(2)
            | Gate.Lut table -> mk_lut env table fl)
      in
      lit_of_node.(i) <- l)
    c.Circuit.nodes;
  let outs = Array.map (fun (_, j) -> lit_of_node.(j)) c.Circuit.outputs in
  freeze_all env outs;
  outs

(* ------------------------------------------------------------------ *)
(* Direct emitter over a cofactored flat program                       *)
(* ------------------------------------------------------------------ *)

let encode_cofactored env (p : Compiled.t) (s : Compiled.scratch) ~key_lits =
  if Array.length key_lits <> p.Compiled.num_keys then
    invalid_arg "Tseitin.encode_cofactored: key literal count mismatch";
  freeze_all env key_lits;
  Tel.span_begin "kernel.encode";
  let op = p.Compiled.op and arg = p.Compiled.arg in
  let off = p.Compiled.fanin_off and idx = p.Compiled.fanin_idx in
  let lits = s.Compiled.lits in
  let n = p.Compiled.num_nodes in
  let fl = Array.make (max 1 p.Compiled.max_fanin) 0 in
  let encoded = ref 0 in
  let tern j = Compiled.tern_val s j in
  for i = 0 to n - 1 do
    (* Only key ports and live X gates get literals; constants fold into
       their readers and dead X nodes are skipped entirely. *)
    if tern i = 2 && Compiled.is_live s i then begin
      let o = op.(i) in
      let l =
        if o = Compiled.op_key then key_lits.(arg.(i))
        else begin
          incr encoded;
          let lo = off.(i) and hi = off.(i + 1) in
          if o = Compiled.op_and || o = Compiled.op_nand then begin
            (* Constant fanins are all 1 (a 0 would make the node const). *)
            let m = ref 0 in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              if tern j = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
            done;
            let base = if !m = 1 then fl.(0) else mk_and env (Array.sub fl 0 !m) in
            if o = Compiled.op_and then base else Lit.negate base
          end
          else if o = Compiled.op_or || o = Compiled.op_nor then begin
            let m = ref 0 in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              if tern j = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
            done;
            let base = if !m = 1 then fl.(0) else mk_or env (Array.sub fl 0 !m) in
            if o = Compiled.op_or then base else Lit.negate base
          end
          else if o = Compiled.op_xor || o = Compiled.op_xnor then begin
            let m = ref 0 and parity = ref false in
            for k = lo to hi - 1 do
              let j = idx.(k) in
              let t = tern j in
              if t = 2 then begin
                fl.(!m) <- lits.(j);
                incr m
              end
              else if t = 1 then parity := not !parity
            done;
            let base = if !m = 1 then fl.(0) else mk_xor env (Array.sub fl 0 !m) in
            let base = if !parity then Lit.negate base else base in
            if o = Compiled.op_xor then base else Lit.negate base
          end
          else if o = Compiled.op_not then Lit.negate lits.(idx.(lo))
          else if o = Compiled.op_buf then lits.(idx.(lo))
          else if o = Compiled.op_mux then begin
            let js = idx.(lo) and ja = idx.(lo + 1) and jb = idx.(lo + 2) in
            let ts = tern js and ta = tern ja and tb = tern jb in
            if ts = 0 then lits.(ja)
            else if ts = 1 then lits.(jb)
            else begin
              let sl = lits.(js) in
              if ta = 2 && tb = 2 then mk_mux env sl lits.(ja) lits.(jb)
              else if ta = 2 then
                if tb = 1 then mk_or env [| sl; lits.(ja) |]
                else mk_and env [| Lit.negate sl; lits.(ja) |]
              else if tb = 2 then
                if ta = 1 then mk_or env [| Lit.negate sl; lits.(jb) |]
                else mk_and env [| sl; lits.(jb) |]
              else if ta = 0 then sl
              else Lit.negate sl
            end
          end
          else begin
            (* op_lut: restrict the table to the X fanins. *)
            let t = p.Compiled.luts.(arg.(i)) in
            let kf = hi - lo in
            let xpos = Array.make kf 0 in
            let m = ref 0 and base = ref 0 in
            for k = 0 to kf - 1 do
              let tv = tern idx.(lo + k) in
              if tv = 1 then base := !base lor (1 lsl k)
              else if tv = 2 then begin
                xpos.(!m) <- k;
                incr m
              end
            done;
            let mm = !m in
            if mm = 1 then begin
              let l = lits.(idx.(lo + xpos.(0))) in
              if Bitvec.get t (!base lor (1 lsl xpos.(0))) then l else Lit.negate l
            end
            else begin
              let sub =
                Bitvec.init (1 lsl mm) (fun j ->
                    let v = ref !base in
                    for b = 0 to mm - 1 do
                      if (j lsr b) land 1 = 1 then v := !v lor (1 lsl xpos.(b))
                    done;
                    Bitvec.get t !v)
              in
              let fls = Array.init mm (fun b -> lits.(idx.(lo + xpos.(b)))) in
              mk_lut env sub fls
            end
          end
        end
      in
      lits.(i) <- l
    end
  done;
  let outs =
    Array.map
      (fun j ->
        match tern j with
        | 2 -> lits.(j)
        | 1 -> lit_true env
        | _ -> Lit.negate (lit_true env))
      p.Compiled.outputs
  in
  freeze_all env outs;
  Tel.Metric.incr m_encodes;
  Tel.span_end ~v:!encoded ();
  outs
