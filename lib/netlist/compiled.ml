module Bitvec = Ll_util.Bitvec
module Tel = Ll_telemetry.Telemetry

let m_compiles = Tel.Metric.counter "kernel.compiles"

let m_cofactors = Tel.Metric.counter "kernel.cofactors"

let m_lanes = Tel.Metric.counter "kernel.lanes"

(* Opcodes.  [run] treats the range [op_and .. op_buf] as the simple
   gates; keep them contiguous. *)
let op_const = 0

let op_input = 1

let op_key = 2

let op_and = 3

let op_or = 4

let op_nand = 5

let op_nor = 6

let op_xor = 7

let op_xnor = 8

let op_not = 9

let op_buf = 10

let op_mux = 11

let op_lut = 12

type t = {
  id : int;
  source : Circuit.t;
  num_nodes : int;
  num_inputs : int;
  num_keys : int;
  num_outputs : int;
  max_fanin : int;
  op : int array;
  arg : int array;
  fanin_off : int array;
  fanin_idx : int array;
  luts : Bitvec.t array;
  lut_words : Bytes.t;
  lut_base : int array;
  outputs : int array;
  input_node : int array;
  key_node : int array;
}

let next_id = Atomic.make 0

let compile c =
  Tel.span_begin "kernel.compile";
  let n = Circuit.num_nodes c in
  let op = Array.make n 0 and arg = Array.make n 0 in
  let fanin_off = Array.make (n + 1) 0 in
  let total_fanins = ref 0 in
  Array.iter
    (fun nd ->
      match nd with
      | Circuit.Gate (_, fanins) -> total_fanins := !total_fanins + Array.length fanins
      | _ -> ())
    c.Circuit.nodes;
  let fanin_idx = Array.make (max 1 !total_fanins) 0 in
  let luts = ref [] and num_luts = ref 0 in
  let next_input = ref 0 and next_key = ref 0 and pos = ref 0 and max_fanin = ref 0 in
  Array.iteri
    (fun i nd ->
      fanin_off.(i) <- !pos;
      (match nd with
      | Circuit.Input ->
          op.(i) <- op_input;
          arg.(i) <- !next_input;
          incr next_input
      | Circuit.Key_input ->
          op.(i) <- op_key;
          arg.(i) <- !next_key;
          incr next_key
      | Circuit.Const v ->
          op.(i) <- op_const;
          arg.(i) <- (if v then 1 else 0)
      | Circuit.Gate (g, fanins) ->
          (op.(i) <-
             (match g with
             | Gate.And -> op_and
             | Gate.Or -> op_or
             | Gate.Nand -> op_nand
             | Gate.Nor -> op_nor
             | Gate.Xor -> op_xor
             | Gate.Xnor -> op_xnor
             | Gate.Not -> op_not
             | Gate.Buf -> op_buf
             | Gate.Mux -> op_mux
             | Gate.Lut table ->
                 arg.(i) <- !num_luts;
                 luts := table :: !luts;
                 incr num_luts;
                 op_lut));
          let k = Array.length fanins in
          if k > !max_fanin then max_fanin := k;
          Array.iter
            (fun j ->
              fanin_idx.(!pos) <- j;
              incr pos)
            fanins))
    c.Circuit.nodes;
  fanin_off.(n) <- !pos;
  let luts = Array.of_list (List.rev !luts) in
  (* Every table entry as a broadcast word, tables back to back, so the
     kernel's LUT arm reads its leaves without a call. *)
  let lut_base = Array.make (Array.length luts + 1) 0 in
  Array.iteri (fun j t -> lut_base.(j + 1) <- lut_base.(j) + Bitvec.length t) luts;
  let lut_words = Bytes.make (8 * lut_base.(Array.length luts)) '\000' in
  Array.iteri
    (fun j t ->
      for e = 0 to Bitvec.length t - 1 do
        if Bitvec.get t e then Bytes.set_int64_ne lut_words (8 * (lut_base.(j) + e)) (-1L)
      done)
    luts;
  let p =
    {
      id = Atomic.fetch_and_add next_id 1;
      source = c;
      num_nodes = n;
      num_inputs = Circuit.num_inputs c;
      num_keys = Circuit.num_keys c;
      num_outputs = Circuit.num_outputs c;
      max_fanin = !max_fanin;
      op;
      arg;
      fanin_off;
      fanin_idx;
      luts;
      lut_words;
      lut_base;
      outputs = Circuit.output_nodes c;
      input_node = c.Circuit.inputs;
      key_node = c.Circuit.keys;
    }
  in
  Tel.Metric.incr m_compiles;
  Tel.span_end ~v:n ();
  p

(* Small per-domain program memo keyed by physical equality: the [Eval]
   entry points and random-simulation loops hit the same circuit value
   over and over; recompiling per call would double their cost. *)
let cache_slots = 8

let prog_cache : (Circuit.t * t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached c =
  let cache = Domain.DLS.get prog_cache in
  let rec find = function
    | [] -> None
    | (c', p) :: _ when c' == c -> Some p
    | _ :: tl -> find tl
  in
  match find !cache with
  | Some p -> p
  | None ->
      let p = compile c in
      let rest = List.filteri (fun i _ -> i < cache_slots - 1) !cache in
      cache := (c, p) :: rest;
      p

type scratch = {
  for_id : int;
  words : Bytes.t;
  lut : Bytes.t;
  tern : Bytes.t;
  live : Bytes.t;
  lits : int array;
  mutable unknown : int;
}

let scratch p =
  let n = max 1 p.num_nodes in
  (* The LUT mux tree's first level holds half a table's entries. *)
  let widest = Array.fold_left (fun m t -> max m (Bitvec.length t)) 2 p.luts in
  {
    for_id = p.id;
    words = Bytes.make (8 * n) '\000';
    lut = Bytes.make (8 * (widest / 2)) '\000';
    tern = Bytes.make n '\000';
    live = Bytes.make n '\000';
    lits = Array.make n 0;
    unknown = 0;
  }

(* The per-domain scratch cache has as many slots as the program memo, so
   the scratches a domain retains stay bounded by the programs it keeps
   using: a program evicted from [prog_cache] (or a one-off compiled
   program) soon loses its scratch to the least recently used slot
   instead of keeping it alive.  Hits allocate nothing. *)
type scratch_slots = { slots : scratch option array; used : int array; mutable clock : int }

let scratch_cache : scratch_slots Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slots = Array.make cache_slots None; used = Array.make cache_slots 0; clock = 0 })

let local_scratch p =
  let c = Domain.DLS.get scratch_cache in
  c.clock <- c.clock + 1;
  let hit = ref (-1) and lru = ref 0 in
  for j = 0 to cache_slots - 1 do
    (match c.slots.(j) with Some s when s.for_id = p.id -> hit := j | _ -> ());
    if c.used.(j) < c.used.(!lru) then lru := j
  done;
  let i =
    if !hit >= 0 then !hit
    else begin
      c.slots.(!lru) <- Some (scratch p);
      !lru
    end
  in
  c.used.(i) <- c.clock;
  Option.get c.slots.(i)

let check_scratch p s =
  if s.for_id <> p.id then invalid_arg "Compiled: scratch belongs to another program"

(* ------------------------------------------------------------------ *)
(* Word kernel                                                         *)
(* ------------------------------------------------------------------ *)

(* Node [i]'s value is the native-endian 64-bit word at byte [8 * i] of
   [scratch.words]; bit [j] is pattern [j].  These primitives read and
   write it unboxed and unchecked. *)
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Fanin [k]'s word, in CSR position. *)
let[@inline] fanin w idx k = get_word w (Array.unsafe_get idx k lsl 3)

(* [high] where [sel] is set, [low] elsewhere, bit by bit. *)
let[@inline] mux sel low high = Int64.logxor low (Int64.logand sel (Int64.logxor low high))

(* 0/1 broadcast to 0L/-1L: a constant node or a scalar port value. *)
let[@inline] broadcast b = Int64.neg (Int64.of_int (Bool.to_int b))

(* A LUT node: a mux tree over its table.  Fanin [lo + k] is bit [k] of
   the table index, so level 0 selects on fanin [lo] between adjacent
   table words, and level [k] selects on fanin [lo + k] between adjacent
   words of level [k - 1], halving the width each time.  Kept out of
   line so its registers do not crowd the main loop's. *)
let[@inline never] run_lut p s i lo hi =
  let w = s.words and idx = p.fanin_idx in
  let tab = p.lut_words
  and base = Array.unsafe_get p.lut_base (Array.unsafe_get p.arg i) lsl 3 in
  let m = hi - lo in
  if m = 0 then set_word w (i lsl 3) (get_word tab base)
  else begin
    let buf = s.lut in
    let sel = fanin w idx lo in
    for j = 0 to (1 lsl (m - 1)) - 1 do
      set_word buf (j lsl 3)
        (mux sel (get_word tab (base + (j lsl 4))) (get_word tab (base + (j lsl 4) + 8)))
    done;
    for k = 1 to m - 1 do
      let sel = fanin w idx (lo + k) in
      for j = 0 to (1 lsl (m - 1 - k)) - 1 do
        set_word buf (j lsl 3) (mux sel (get_word buf (j lsl 4)) (get_word buf ((j lsl 4) + 8)))
      done
    done;
    set_word w (i lsl 3) (get_word buf 0)
  end

(* The AND, OR, XOR and invert masks of every simple gate opcode, four
   words per opcode: a simple gate's word is
   [((and & m_and) | (or & m_or) | (xor & m_xor)) ^ m_inv] over the AND,
   OR and XOR of its fanin words.  NOT is an inverted one-fanin AND, BUF
   a one-fanin AND. *)
let gate_masks =
  let b = Bytes.make (32 * (op_lut + 1)) '\000' in
  let set o m = Bytes.set_int64_ne b ((o lsl 5) + (m lsl 3)) (-1L) in
  List.iter (fun o -> set o 0) [ op_and; op_nand; op_not; op_buf ];
  List.iter (fun o -> set o 1) [ op_or; op_nor ];
  List.iter (fun o -> set o 2) [ op_xor; op_xnor ];
  List.iter (fun o -> set o 3) [ op_nand; op_nor; op_xnor; op_not ];
  b

(* Core loop; assumes port nodes already hold their words.  Simple gates
   (opcodes [op_and] to [op_buf], the bulk of any netlist) share one
   branch-free formula, so the loop branches on node values never and on
   opcodes only to set MUX, LUT, constant and port nodes apart. *)
let run p s =
  let op = p.op and off = p.fanin_off and idx = p.fanin_idx in
  let w = s.words in
  for i = 0 to p.num_nodes - 1 do
    let o = Array.unsafe_get op i in
    let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
    if o > op_key && o < op_mux then begin
      let a = ref (-1L) and r = ref 0L and x = ref 0L in
      for k = lo to hi - 1 do
        let v = fanin w idx k in
        a := Int64.logand !a v;
        r := Int64.logor !r v;
        x := Int64.logxor !x v
      done;
      let m = o lsl 5 in
      set_word w (i lsl 3)
        (Int64.logxor
           (get_word gate_masks (m + 24))
           (Int64.logor
              (Int64.logand !a (get_word gate_masks m))
              (Int64.logor
                 (Int64.logand !r (get_word gate_masks (m + 8)))
                 (Int64.logand !x (get_word gate_masks (m + 16))))))
    end
    else if o = op_mux then
      set_word w (i lsl 3)
        (mux (fanin w idx lo) (fanin w idx (lo + 1)) (fanin w idx (lo + 2)))
    else if o = op_lut then run_lut p s i lo hi
    else if o = op_const then set_word w (i lsl 3) (broadcast (Array.unsafe_get p.arg i = 1))
  done

(* Scalar calls run the kernel on broadcast words and read bit 0 back. *)
let bit0 s j = Int64.logand (get_word s.words (j lsl 3)) 1L <> 0L

let eval_into p s ~inputs ~keys =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_into: input vector length mismatch";
  if Array.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_into: key vector length mismatch";
  for pos = 0 to p.num_inputs - 1 do
    set_word s.words (p.input_node.(pos) lsl 3) (broadcast inputs.(pos))
  done;
  for pos = 0 to p.num_keys - 1 do
    set_word s.words (p.key_node.(pos) lsl 3) (broadcast keys.(pos))
  done;
  run p s;
  Tel.Metric.incr m_lanes

let node_val s i = Int64.logand (Bytes.get_int64_ne s.words (i lsl 3)) 1L <> 0L

let output_val p s j = bit0 s p.outputs.(j)

let read_outputs p s = Array.map (bit0 s) p.outputs

let eval p ~inputs ~keys =
  let s = local_scratch p in
  eval_into p s ~inputs ~keys;
  read_outputs p s

let eval_bv p ~inputs ~keys =
  if Bitvec.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_bv: input vector length mismatch";
  if Bitvec.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_bv: key vector length mismatch";
  let s = local_scratch p in
  for pos = 0 to p.num_inputs - 1 do
    set_word s.words (p.input_node.(pos) lsl 3) (broadcast (Bitvec.get inputs pos))
  done;
  for pos = 0 to p.num_keys - 1 do
    set_word s.words (p.key_node.(pos) lsl 3) (broadcast (Bitvec.get keys pos))
  done;
  run p s;
  Tel.Metric.incr m_lanes;
  Bitvec.init p.num_outputs (fun j -> bit0 s p.outputs.(j))

let eval_lanes_into p s ~inputs ~keys =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.eval_lanes_into: input vector length mismatch";
  if Array.length keys <> p.num_keys then
    invalid_arg "Compiled.eval_lanes_into: key vector length mismatch";
  for pos = 0 to p.num_inputs - 1 do
    set_word s.words (p.input_node.(pos) lsl 3) inputs.(pos)
  done;
  for pos = 0 to p.num_keys - 1 do
    set_word s.words (p.key_node.(pos) lsl 3) keys.(pos)
  done;
  run p s;
  Tel.Metric.add m_lanes 64

let output_lanes p s j = get_word s.words (p.outputs.(j) lsl 3)

let read_output_lanes p s = Array.map (fun j -> get_word s.words (j lsl 3)) p.outputs

let eval_lanes p ~inputs ~keys =
  let s = local_scratch p in
  eval_lanes_into p s ~inputs ~keys;
  read_output_lanes p s

(* ------------------------------------------------------------------ *)
(* Ternary cofactor kernel                                             *)
(* ------------------------------------------------------------------ *)

(* tern codes: 0 = constant false, 1 = constant true, 2 = X (depends on a
   key input under this cofactor). *)
let t0 = '\000'

let t1 = '\001'

let tx = '\002'

let cofactor_into p s ~inputs =
  check_scratch p s;
  if Array.length inputs <> p.num_inputs then
    invalid_arg "Compiled.cofactor_into: input vector length mismatch";
  let op = p.op and arg = p.arg in
  let off = p.fanin_off and idx = p.fanin_idx in
  let tern = s.tern in
  let n = p.num_nodes in
  let unknown = ref 0 in
  (* Forward sweep: constant-ness and value in one pass. *)
  for i = 0 to n - 1 do
    let o = Array.unsafe_get op i in
    let v =
      if o = op_input then if inputs.(Array.unsafe_get arg i) then t1 else t0
      else if o = op_key then tx
      else if o = op_const then if Array.unsafe_get arg i = 1 then t1 else t0
      else begin
        let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
        if o = op_and || o = op_nand then begin
          let any0 = ref false and anyx = ref false in
          for k = lo to hi - 1 do
            let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
            if f = t0 then any0 := true else if f = tx then anyx := true
          done;
          let r = if !any0 then t0 else if !anyx then tx else t1 in
          if o = op_and || r = tx then r else if r = t0 then t1 else t0
        end
        else if o = op_or || o = op_nor then begin
          let any1 = ref false and anyx = ref false in
          for k = lo to hi - 1 do
            let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
            if f = t1 then any1 := true else if f = tx then anyx := true
          done;
          let r = if !any1 then t1 else if !anyx then tx else t0 in
          if o = op_or || r = tx then r else if r = t0 then t1 else t0
        end
        else if o = op_xor || o = op_xnor then begin
          let parity = ref false and anyx = ref false in
          for k = lo to hi - 1 do
            let f = Bytes.unsafe_get tern (Array.unsafe_get idx k) in
            if f = tx then anyx := true else if f = t1 then parity := not !parity
          done;
          if !anyx then tx
          else begin
            let r = if o = op_xor then !parity else not !parity in
            if r then t1 else t0
          end
        end
        else if o = op_not then begin
          let f = Bytes.unsafe_get tern (Array.unsafe_get idx lo) in
          if f = tx then tx else if f = t0 then t1 else t0
        end
        else if o = op_buf then Bytes.unsafe_get tern (Array.unsafe_get idx lo)
        else if o = op_mux then begin
          let sel = Bytes.unsafe_get tern (Array.unsafe_get idx lo) in
          let a = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + 1)) in
          let b = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + 2)) in
          if sel = t0 then a
          else if sel = t1 then b
          else if a = b && a <> tx then a
          else tx
        end
        else begin
          (* op_lut: constant iff every completion of the X fanins agrees. *)
          let t = Array.unsafe_get p.luts (Array.unsafe_get arg i) in
          let k_fan = hi - lo in
          let base = ref 0 and m = ref 0 in
          (* [base]: known bits in place; unknown positions collected. *)
          let unknown_pos = s.lits in
          (* borrow the lits buffer as an int scratch; rewritten by the
             encoder anyway, and never used concurrently with it *)
          for k = 0 to k_fan - 1 do
            let f = Bytes.unsafe_get tern (Array.unsafe_get idx (lo + k)) in
            if f = t1 then base := !base lor (1 lsl k)
            else if f = tx then begin
              unknown_pos.(!m) <- k;
              incr m
            end
          done;
          if !m = 0 then if Bitvec.get t !base then t1 else t0
          else begin
            let first = ref (-1) and agree = ref true in
            let combos = 1 lsl !m in
            let c = ref 0 in
            while !agree && !c < combos do
              let v = ref !base in
              for b = 0 to !m - 1 do
                if (!c lsr b) land 1 = 1 then v := !v lor (1 lsl unknown_pos.(b))
              done;
              let bit = if Bitvec.get t !v then 1 else 0 in
              if !first = -1 then first := bit else if bit <> !first then agree := false;
              incr c
            done;
            if !agree then if !first = 1 then t1 else t0 else tx
          end
        end
      end
    in
    Bytes.unsafe_set tern i v;
    if v = tx then incr unknown
  done;
  s.unknown <- !unknown;
  (* Backward sweep: which X nodes do the non-constant outputs reach?
     Constant fanins are dead (the emitter folds their values), and a MUX
     whose select collapsed keeps only the selected branch. *)
  let live = s.live in
  Bytes.fill live 0 n '\000';
  Array.iter
    (fun j -> if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001')
    p.outputs;
  for i = n - 1 downto 0 do
    if Bytes.unsafe_get live i = '\001' then begin
      let o = Array.unsafe_get op i in
      if o > op_key then begin
        let lo = Array.unsafe_get off i and hi = Array.unsafe_get off (i + 1) in
        if o = op_mux && Bytes.unsafe_get tern (Array.unsafe_get idx lo) <> tx then begin
          let branch =
            if Bytes.unsafe_get tern (Array.unsafe_get idx lo) = t1 then lo + 2
            else lo + 1
          in
          let j = Array.unsafe_get idx branch in
          if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001'
        end
        else
          for k = lo to hi - 1 do
            let j = Array.unsafe_get idx k in
            if Bytes.unsafe_get tern j = tx then Bytes.unsafe_set live j '\001'
          done
      end
    end
  done;
  Tel.Metric.incr m_cofactors

let tern_val s i = Char.code (Bytes.get s.tern i)

let output_tern p s j = Char.code (Bytes.get s.tern p.outputs.(j))

let is_live s i = Bytes.get s.live i = '\001'

let unknown_count s = s.unknown
