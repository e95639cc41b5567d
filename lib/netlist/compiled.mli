(** Compiled flat-netlist kernel.

    A one-shot compiler from {!Circuit.t} into a flat program — an opcode
    array, CSR fanin arrays and port/output index maps — plus kernels that
    run over it with caller-owned scratch buffers and zero per-gate
    allocation:

    - one simulation kernel over unboxed 64-bit words, one word per node
      in a [Bytes] buffer: bit [j] of every word is pattern [j].  Packed
      calls ({!eval_lanes_into}) simulate 64 patterns at once; scalar
      calls ({!eval_into}, {!eval}, {!eval_bv}) run the same kernel on
      broadcast words (false = [0L], true = [-1L]) and read bit 0.  The
      kernel never branches on node values: every AND/OR/XOR-family,
      NOT and BUF node goes through one masked formula, a MUX is a
      bitwise select and a LUT a mux tree over its table words;
    - an in-place ternary (0/1/X) constant-propagation cofactor pass that
      pins every primary input and leaves key inputs symbolic
      ({!cofactor_into}), the substrate of the per-DIP constraint
      generation in the SAT attack (the matching Tseitin emitter lives in
      [Ll_sat.Tseitin.encode_cofactored], above this library in the
      layering).

    {b Scratch ownership.}  A {!scratch} belongs to exactly one domain at
    a time: the kernels write its buffers with no synchronization.  Either
    allocate one per task ({!scratch}) or use the per-domain cache
    ({!local_scratch}), which hands every domain its own buffers keyed by
    program identity — the pattern used by [Attack.Oracle] so one
    precompiled oracle serves any number of pool workers allocation-free.
    Programs themselves are immutable after {!compile} and safe to share
    across domains. *)

(** {1 The flat program} *)

type t = private {
  id : int;  (** process-unique, keys the per-domain scratch cache *)
  source : Circuit.t;
  num_nodes : int;
  num_inputs : int;
  num_keys : int;
  num_outputs : int;
  max_fanin : int;
  op : int array;  (** opcode per node, one of the [op_*] codes below *)
  arg : int array;
      (** per-opcode argument: port position ([op_input]/[op_key]),
          constant value 0/1 ([op_const]), index into [luts] ([op_lut]),
          0 otherwise *)
  fanin_off : int array;  (** CSR offsets, length [num_nodes + 1] *)
  fanin_idx : int array;  (** CSR fanin node indices, in fanin order *)
  luts : Ll_util.Bitvec.t array;  (** LUT truth tables, in [arg] order *)
  lut_words : Bytes.t;
      (** every LUT table entry as a native-endian 64-bit word, [0L] or
          [-1L], tables back to back in [luts] order *)
  lut_base : int array;  (** word offset of each LUT's table in [lut_words] *)
  outputs : int array;  (** driving node of every output, port order *)
  input_node : int array;  (** node index of every primary input port *)
  key_node : int array;  (** node index of every key port *)
}

(** Opcodes ([op] entries), fixed small ints; exposed for the Tseitin
    emitter.  The simple gates [op_and] .. [op_buf] are contiguous. *)

val op_const : int

val op_input : int

val op_key : int

val op_and : int

val op_or : int

val op_nand : int

val op_nor : int

val op_xor : int

val op_xnor : int

val op_not : int

val op_buf : int

val op_mux : int

val op_lut : int

val compile : Circuit.t -> t
(** One linear pass over the circuit.  Emits a [kernel.compile] telemetry
    span (value: node count) and bumps the [kernel.compiles] counter. *)

val cached : Circuit.t -> t
(** [compile] behind a small per-domain memo keyed by physical equality
    of the circuit — repeated simulation of the same circuit value (the
    [Eval] entry points, equivalence filtering loops) compiles once per
    domain. *)

(** {1 Scratch buffers} *)

type scratch = private {
  for_id : int;  (** the program this scratch was sized for *)
  words : Bytes.t;
      (** node values after {!eval_into} / {!eval_lanes_into}: node [i]
          is the native-endian 64-bit word at byte [8 * i] *)
  lut : Bytes.t;  (** word buffer for the LUT mux tree *)
  tern : Bytes.t;  (** ternary node values after {!cofactor_into}: 0/1/2=X *)
  live : Bytes.t;  (** 1 = node needed by a non-constant output *)
  lits : int array;  (** per-node literal slots for the Tseitin emitter *)
  mutable unknown : int;  (** #X nodes after the last {!cofactor_into} *)
}

val scratch : t -> scratch
(** Fresh buffers sized for the program — one allocation up front, none
    per kernel call. *)

val local_scratch : t -> scratch
(** The calling domain's cached scratch for this program (allocated on
    first use per domain).  Each domain keeps scratches for at most as
    many programs as the {!cached} memo holds, evicting the least
    recently used, so a program that is no longer used does not keep its
    scratch alive. *)

(** {1 Simulation kernels} *)

val eval_into : t -> scratch -> inputs:bool array -> keys:bool array -> unit
(** Scalar simulation of every node into [scratch.words]: each port is
    broadcast to a whole word, so every node word comes out [0L] or
    [-1L].  Allocates nothing.  Raises [Invalid_argument] on port-count
    mismatches. *)

val eval_lanes_into : t -> scratch -> inputs:int64 array -> keys:int64 array -> unit
(** 64-lane packed simulation into [scratch.words]: bit [j] of every word
    is pattern [j].  Same kernel as {!eval_into}; allocates nothing. *)

val node_val : scratch -> int -> bool
(** Scalar value (bit 0 of the word) of a node after {!eval_into}. *)

val output_val : t -> scratch -> int -> bool
(** Scalar value of output port [j] after {!eval_into}. *)

val output_lanes : t -> scratch -> int -> int64
(** Packed value of output port [j] after {!eval_lanes_into}. *)

val read_outputs : t -> scratch -> bool array
(** All scalar output values (allocates the result array). *)

val read_output_lanes : t -> scratch -> int64 array
(** All packed output values (allocates the result array). *)

val eval : t -> inputs:bool array -> keys:bool array -> bool array
(** [eval_into] + {!read_outputs} over {!local_scratch}. *)

val eval_lanes : t -> inputs:int64 array -> keys:int64 array -> int64 array
(** [eval_lanes_into] + {!read_output_lanes} over {!local_scratch}. *)

val eval_bv :
  t -> inputs:Ll_util.Bitvec.t -> keys:Ll_util.Bitvec.t -> Ll_util.Bitvec.t
(** Scalar simulation straight from/to bit vectors — no intermediate
    [bool array]. *)

(** {1 Cofactoring} *)

val cofactor_into : t -> scratch -> inputs:bool array -> unit
(** Pin every primary input to [inputs], leave key inputs symbolic, and
    compute per node, in one topological sweep, whether it is constant
    under that cofactor and if so its value: [scratch.tern.(i)] becomes
    0, 1 or 2 (= X, key-dependent).  A second, backward sweep marks in
    [scratch.live] the nodes a non-constant output still depends on
    (constant fanins are not live; a MUX with a constant select keeps
    only its selected branch live) — the node set the Tseitin emitter
    encodes.  No intermediate circuit is built.  [scratch.unknown] is the
    number of X nodes.  Raises [Invalid_argument] on an input-count
    mismatch. *)

val tern_val : scratch -> int -> int
(** Ternary value (0/1/2) of a node after {!cofactor_into}. *)

val output_tern : t -> scratch -> int -> int
(** Ternary value of output port [j] after {!cofactor_into}. *)

val is_live : scratch -> int -> bool
(** Liveness mark of a node after {!cofactor_into}. *)

val unknown_count : scratch -> int
(** [scratch.unknown]. *)
