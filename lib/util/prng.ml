(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable int64]
   record field would box a fresh [int64] on every draw.  With [bits64]
   inlined, the draws that return an [int] ([int], [bits53]) allocate
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finalizer (Steele et al., "Fast splittable pseudorandom number
   generators"). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix s

let split g = of_state (mix (bits64 g))

let bool g = Int64.compare (Int64.logand (bits64 g) 1L) 0L <> 0

let bits53 g = Int64.to_int (Int64.shift_right_logical (bits64 g) 11)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top 63 bits to avoid modulo bias.  As an
     OCaml int that word is negative half the time; a negative draw is
     redrawn, so the result is never negative. *)
  let r = ref (Int64.to_int (Int64.shift_right_logical (bits64 g) 1)) in
  while !r < 0 || !r - (!r mod bound) + (bound - 1) < 0 do
    r := Int64.to_int (Int64.shift_right_logical (bits64 g) 1)
  done;
  !r mod bound

let float g bound = bound *. (float_of_int (bits53 g) /. 9007199254740992.0)

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let sample g ~k ~n =
  if k < 0 || k > n then invalid_arg "Prng.sample: need 0 <= k <= n";
  (* Floyd's algorithm: k iterations, set-based. *)
  let module IS = Set.Make (Int) in
  let rec loop j acc =
    if j > n then acc
    else
      let r = int g j in
      let acc = if IS.mem r acc then IS.add (j - 1) acc else IS.add r acc in
      loop (j + 1) acc
  in
  if k = 0 then [] else IS.elements (loop (n - k + 1) IS.empty)
