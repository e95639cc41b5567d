module Circuit = Ll_netlist.Circuit
module Compiled = Ll_netlist.Compiled

type t = {
  num_inputs : int;
  num_outputs : int;
  behaviour : bool array -> bool array;
  queries : int Atomic.t;
}

let make ~num_inputs ~num_outputs ~behaviour =
  { num_inputs; num_outputs; behaviour; queries = Atomic.make 0 }

let of_circuit c =
  if Circuit.num_keys c > 0 then invalid_arg "Oracle.of_circuit: circuit has key ports";
  (* Compile once; each querying domain gets its own scratch from the
     per-domain cache, so one oracle value can serve a whole pool without
     locks or per-query allocation in the simulator. *)
  let prog = Compiled.compile c in
  make
    ~num_inputs:(Circuit.num_inputs c)
    ~num_outputs:(Circuit.num_outputs c)
    ~behaviour:(fun inputs -> Compiled.eval prog ~inputs ~keys:[||])

let of_function ~num_inputs ~num_outputs behaviour =
  make ~num_inputs ~num_outputs ~behaviour

let query o inputs =
  if Array.length inputs <> o.num_inputs then invalid_arg "Oracle.query: pattern length";
  Atomic.incr o.queries;
  o.behaviour inputs

let query_count o = Atomic.get o.queries

let num_inputs o = o.num_inputs
let num_outputs o = o.num_outputs
