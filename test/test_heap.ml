module Heap = Ll_sat.Heap
open Helpers

let test_max_order () =
  let scores = [| 5.0; 9.0; 1.0; 7.0; 3.0 |] in
  let h = Heap.create scores in
  for v = 0 to 4 do
    Heap.insert h v
  done;
  let order = List.init 5 (fun _ -> Heap.remove_max h) in
  Alcotest.(check (list int)) "descending by score" [ 1; 3; 0; 4; 2 ] order;
  Alcotest.(check bool) "empty after" true (Heap.is_empty h)

let test_duplicate_insert () =
  let h = Heap.create (Array.init 8 float_of_int) in
  Heap.insert h 3;
  Heap.insert h 3;
  Alcotest.(check int) "size 1" 1 (Heap.size h)

let test_mem () =
  let h = Heap.create (Array.init 8 float_of_int) in
  Heap.insert h 2;
  Alcotest.(check bool) "mem" true (Heap.mem h 2);
  Alcotest.(check bool) "not mem" false (Heap.mem h 5);
  ignore (Heap.remove_max h);
  Alcotest.(check bool) "removed" false (Heap.mem h 2)

let test_update_after_score_change () =
  let scores = Array.make 4 0.0 in
  let h = Heap.create scores in
  for v = 0 to 3 do
    Heap.insert h v
  done;
  scores.(2) <- 100.0;
  Heap.update h 2;
  Alcotest.(check int) "bumped to top" 2 (Heap.remove_max h)

let test_set_scores () =
  (* The owner grows its score array and re-points the heap: the copy
     agrees on every member, and later bumps land in the new array. *)
  let scores = [| 1.0; 2.0 |] in
  let h = Heap.create scores in
  Heap.insert h 0;
  Heap.insert h 1;
  let grown = Array.append scores [| 0.5; 0.0 |] in
  Heap.set_scores h grown;
  Heap.insert h 2;
  grown.(0) <- 10.0;
  Heap.update h 0;
  Alcotest.(check (list int)) "order over the grown array" [ 0; 1; 2 ]
    (List.init 3 (fun _ -> Heap.remove_max h))

let test_remove_max_empty () =
  let h = Heap.create [||] in
  Alcotest.check_raises "empty" Not_found (fun () -> ignore (Heap.remove_max h))

let test_large_random () =
  let n = 1000 in
  let g = Ll_util.Prng.create 3 in
  let scores = Array.init n (fun _ -> Ll_util.Prng.float g 1.0) in
  let h = Heap.create scores in
  for v = 0 to n - 1 do
    Heap.insert h v
  done;
  let prev = ref infinity in
  for _ = 1 to n do
    let v = Heap.remove_max h in
    Alcotest.(check bool) "non-increasing" true (scores.(v) <= !prev);
    prev := scores.(v)
  done

let test_zero_allocation () =
  (* Once the heap's index arrays have reached their size, insert, update
     and remove_max allocate nothing: comparisons read the score array. *)
  let n = 256 in
  let scores = Array.init n (fun v -> float_of_int ((v * 37) mod n)) in
  let h = Heap.create scores in
  for v = 0 to n - 1 do
    Heap.insert h v
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    let v = i * 7 mod n in
    Heap.insert h v;
    scores.(v) <- scores.(v) +. 1.0;
    Heap.update h v;
    if i land 3 = 0 then Heap.insert h (Heap.remove_max h)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 10k operations" 0.0 (w1 -. w0)

(* Random insert / bump+update / remove_max sequences against a reference
   membership array: every remove_max returns a member of maximum score,
   the heap never holds a variable twice, and [mem] agrees throughout. *)
let prop_matches_reference =
  let nv = 24 in
  qcheck_case ~count:200 "matches a reference set"
    QCheck2.Gen.(list_size (int_range 0 300) (pair (int_range 0 2) (int_range 0 (nv - 1))))
    (fun ops ->
      let scores = Array.make nv 0.0 in
      let h = Heap.create scores in
      let member = Array.make nv false in
      let consistent () =
        let count = Array.fold_left (fun n b -> if b then n + 1 else n) 0 member in
        Heap.size h = count
        && Array.for_all Fun.id (Array.init nv (fun v -> Heap.mem h v = member.(v)))
      in
      List.for_all
        (fun (op, v) ->
          (match op with
          | 0 ->
              Heap.insert h v;
              member.(v) <- true;
              true
          | 1 ->
              scores.(v) <- scores.(v) +. float_of_int (1 + (v mod 5));
              Heap.update h v;
              true
          | _ ->
              if Heap.is_empty h then not (Array.exists Fun.id member)
              else begin
                let top = Heap.remove_max h in
                let best = ref neg_infinity in
                Array.iteri (fun u m -> if m && scores.(u) > !best then best := scores.(u)) member;
                let ok = member.(top) && scores.(top) = !best in
                member.(top) <- false;
                ok
              end)
          && consistent ())
        ops)

let suite =
  [
    Alcotest.test_case "max order" `Quick test_max_order;
    Alcotest.test_case "duplicate insert" `Quick test_duplicate_insert;
    Alcotest.test_case "mem" `Quick test_mem;
    Alcotest.test_case "update after score change" `Quick test_update_after_score_change;
    Alcotest.test_case "set_scores" `Quick test_set_scores;
    Alcotest.test_case "remove_max empty" `Quick test_remove_max_empty;
    Alcotest.test_case "large random" `Quick test_large_random;
    Alcotest.test_case "zero allocation" `Quick test_zero_allocation;
    prop_matches_reference;
  ]
