(** Multi-key netlist composition (paper Fig. 1(b)).

    Given one (possibly incorrect) key per cofactor of a uniform [2^N]
    split ({!Split_attack}), build the key-free netlist in which a MUX
    tree — selected by the [N] split inputs — routes each input pattern
    through the copy carrying the key that unlocks its region.  The
    result is functionally equivalent to the original design when every
    key unlocks its own cofactor. *)

val build :
  ?optimize:bool ->
  Ll_netlist.Circuit.t ->
  split_inputs:int array ->
  keys:Ll_util.Bitvec.t array ->
  Ll_netlist.Circuit.t
(** [build locked ~split_inputs ~keys] requires
    [Array.length keys = 2 ^ Array.length split_inputs]; [keys.(i)] is used
    for the cofactor whose condition assigns bit [j] of [i] to input
    position [split_inputs.(j)] (the {!Ll_synth.Cofactor.conditions}
    order).  [optimize] (default true) runs the synthesis pipeline on the
    result.  Raises [Invalid_argument] on size mismatches. *)

val of_attack : ?optimize:bool -> Ll_netlist.Circuit.t -> Split_attack.t -> Ll_netlist.Circuit.t option
(** Convenience: compose a {!Split_attack} result.  [None] when some task
    produced no key. *)
