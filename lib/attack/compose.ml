module Circuit = Ll_netlist.Circuit
module Builder = Ll_netlist.Builder
module Bitvec = Ll_util.Bitvec
module Instantiate = Ll_netlist.Instantiate

let build ?(optimize = true) locked ~split_inputs ~keys =
  let n = Array.length split_inputs in
  if Array.length keys <> 1 lsl n then invalid_arg "Compose.build: need 2^n keys";
  Array.iter
    (fun k ->
      if Bitvec.length k <> Circuit.num_keys locked then
        invalid_arg "Compose.build: key length mismatch")
    keys;
  let b = Builder.create ~name:(locked.Circuit.name ^ "_multikey") () in
  let inputs =
    Array.map (fun j -> Builder.input b (Circuit.node_name locked j)) locked.Circuit.inputs
  in
  let selects = Array.map (fun pos -> inputs.(pos)) split_inputs in
  (* One copy of the locked netlist per cofactor, keys bound to constants;
     the MUX tree picks the copy matching the split-input value. *)
  let copies =
    Array.map
      (fun key ->
        let key_signals = Array.init (Bitvec.length key) (fun i -> Builder.const b (Bitvec.get key i)) in
        Instantiate.append b locked ~inputs ~keys:key_signals)
      keys
  in
  Array.iteri
    (fun o (name, _) ->
      let data = Array.map (fun outs -> outs.(o)) copies in
      let signal = if n = 0 then data.(0) else Builder.mux_tree b ~selects ~data in
      Builder.output b name signal)
    locked.Circuit.outputs;
  let composed = Builder.finish b in
  if optimize then Ll_synth.Optimize.run composed else composed

let of_attack ?optimize locked (attack : Split_attack.t) =
  match Split_attack.keys attack with
  | None -> None
  | Some keys ->
      Some (build ?optimize locked ~split_inputs:attack.Split_attack.split_inputs ~keys)
