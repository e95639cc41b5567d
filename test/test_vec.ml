module Vec = Ll_sat.Vec

let test_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" i (Vec.get v i)
  done

let test_set () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.set v 0 42;
  Alcotest.(check int) "set" 42 (Vec.get v 0)

let test_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of range") (fun () ->
      ignore (Vec.get v 1))

let test_pop_last () =
  let v = Vec.create () in
  Vec.push v 1;
  Vec.push v 2;
  Alcotest.(check int) "last" 2 (Vec.last v);
  Alcotest.(check int) "pop" 2 (Vec.pop v);
  Alcotest.(check int) "length after pop" 1 (Vec.length v);
  Alcotest.(check int) "pop again" 1 (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_clear_shrink () =
  let v = Vec.create () in
  for i = 0 to 9 do
    Vec.push v i
  done;
  Vec.shrink v 4;
  Alcotest.(check int) "shrunk" 4 (Vec.length v);
  Alcotest.(check int) "kept prefix" 3 (Vec.get v 3);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let test_iter_fold_to_list () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3 ] (Vec.to_list v);
  Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter" 6 !sum

let test_sort_filter () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 3; 1; 2; 5; 4 ];
  Vec.sort_in_place compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v);
  Vec.filter_in_place (fun x -> x mod 2 = 1) v;
  Alcotest.(check (list int)) "filtered" [ 1; 3; 5 ] (Vec.to_list v)

let test_unsafe_accessors () =
  (* Within the live prefix, unsafe accessors agree with the checked ones. *)
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * 3)
  done;
  for i = 0 to 99 do
    Alcotest.(check int) "unsafe_get" (Vec.get v i) (Vec.unsafe_get v i)
  done;
  Vec.unsafe_set v 42 (-7);
  Alcotest.(check int) "unsafe_set visible" (-7) (Vec.get v 42)

let test_growth () =
  let v = Vec.make 2 in
  for i = 0 to 9999 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 10000 (Vec.length v);
  Alcotest.(check int) "spot check" 9999 (Vec.get v 9999)

let test_zero_allocation () =
  (* Pre-sized: push, get, set and shrink are plain int loads and stores. *)
  let v = Vec.make 16 in
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Vec.push v i;
    Vec.set v (Vec.length v - 1) (Vec.get v 0 + i);
    sum := !sum + Vec.unsafe_get v (Vec.length v - 1);
    if Vec.length v = 16 then Vec.shrink v 0
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 10k operations" 0.0 (w1 -. w0);
  Alcotest.(check bool) "loop ran" true (!sum > 0)

let test_to_array () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 4; 5; 6; 7 ];
  Vec.shrink v 3;
  let a = Vec.to_array v in
  Vec.set v 0 0;
  Alcotest.(check (array int)) "live prefix, copied" [| 4; 5; 6 |] a

let suite =
  [
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "set" `Quick test_set;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "pop/last" `Quick test_pop_last;
    Alcotest.test_case "clear/shrink" `Quick test_clear_shrink;
    Alcotest.test_case "iter/fold/to_list" `Quick test_iter_fold_to_list;
    Alcotest.test_case "sort/filter" `Quick test_sort_filter;
    Alcotest.test_case "unsafe accessors" `Quick test_unsafe_accessors;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "to_array" `Quick test_to_array;
    Alcotest.test_case "zero allocation" `Quick test_zero_allocation;
  ]
