(* Monomorphic on purpose: with [int array] storage every access compiles
   to a plain load or store — no float-array tag check, no [caml_modify]
   write barrier — which is what the propagation loop's watch-list
   compaction needs. *)
type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 8 0; len = 0 }

let make capacity = { data = Array.make (max 8 capacity) 0; len = 0 }

let length v = v.len

let is_empty v = v.len = 0

let check v i = if i < 0 || i >= v.len then invalid_arg "Vec: index out of range"

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let unsafe_get v i = Array.unsafe_get v.data i

let unsafe_set v i x = Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  Array.unsafe_get v.data v.len

let last v =
  if v.len = 0 then invalid_arg "Vec.last: empty";
  Array.unsafe_get v.data (v.len - 1)

let clear v = v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let to_array v = Array.sub v.data 0 v.len

let sort_in_place cmp v =
  let live = Array.sub v.data 0 v.len in
  Array.sort cmp live;
  Array.blit live 0 v.data 0 v.len

let filter_in_place p v =
  let j = ref 0 in
  for i = 0 to v.len - 1 do
    let x = v.data.(i) in
    if p x then begin
      v.data.(!j) <- x;
      incr j
    end
  done;
  v.len <- !j
