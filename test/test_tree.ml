open Hyder_tree
module I = Hyder_codec.Intention

let owner = I.draft_owner

let make_fresh () =
  let c = ref 0 in
  fun () ->
    incr c;
    I.draft_vn ~idx:!c

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_of_sorted_basic () =
  let t = Helpers.genesis 1000 in
  Helpers.check_tree_valid "genesis" t;
  check_int "size" 1000 (Tree.size t);
  check_int "live" 1000 (Tree.live_size t);
  for k = 0 to 999 do
    Alcotest.(check string)
      "lookup" ("v" ^ string_of_int k)
      (Helpers.value_exn (Tree.lookup t k))
  done;
  check "absent" true (Tree.lookup t 1000 = None)

let test_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "unsorted" (Invalid_argument
      "Tree.of_sorted_array: keys must be strictly increasing") (fun () ->
      ignore (Tree.of_sorted_array [| (2, Helpers.payload 2); (1, Helpers.payload 1) |]))

let test_depth_logarithmic () =
  let t = Helpers.genesis 10000 in
  let d = Tree.depth t in
  (* Expected treap depth ~ 2.99 * ln n ≈ 27; allow generous slack. *)
  check "depth sane" true (d < 60)

let test_canonical_shape_any_insertion_order () =
  let keys = Array.init 200 (fun i -> (i * 37) + 11) in
  let build order_seed =
    let rng = Hyder_util.Rng.create (Int64.of_int order_seed) in
    let ks = Array.copy keys in
    Hyder_util.Rng.shuffle rng ks;
    Array.fold_left
      (fun t k ->
        Tree.upsert t ~owner ~fresh:(make_fresh ()) k (Helpers.payload k))
      Tree.empty ks
  in
  let a = build 1 and b = build 2 in
  Alcotest.(check string) "same shape" (Helpers.shape a) (Helpers.shape b);
  let direct =
    Tree.of_sorted_array
      (Array.map (fun k -> (k, Helpers.payload k)) (Array.copy keys |> fun a ->
        Array.sort compare a; a))
  in
  Alcotest.(check string) "matches of_sorted" (Helpers.shape direct) (Helpers.shape a)

let test_upsert_update () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 42 (Payload.value "new") in
  Helpers.check_tree_valid "updated" t1;
  Alcotest.(check string) "new value" "new" (Helpers.value_exn (Tree.lookup t1 42));
  (* The snapshot is untouched (copy-on-write). *)
  Alcotest.(check string) "old value" "v42" (Helpers.value_exn (Tree.lookup t0 42));
  check_int "same size" 100 (Tree.size t1);
  (* The updated node is a draft with source metadata. *)
  let n = Option.get (Tree.find t1 42) in
  check "altered" true (Node.altered n);
  check "owner" true (Node.owner n = owner);
  let src = Option.get (Tree.find t0 42) in
  check "ssv points at source" true (Node.ssv_is_vn n src);
  check "scv is source content" true (Node.scv_is_cv n src)

let test_upsert_insert () =
  let t0 = Helpers.genesis ~gap:10 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 55 (Payload.value "inserted") in
  Helpers.check_tree_valid "inserted" t1;
  check_int "size +1" 1001 (Tree.size t1 + 1000 - Tree.size t0 + 1000 - 1000);
  check_int "size is 101" 101 (Tree.size t1);
  Alcotest.(check string) "insert visible" "inserted"
    (Helpers.value_exn (Tree.lookup t1 55));
  let n = Option.get (Tree.find t1 55) in
  check "insert has no ssv" false (Node.has_ssv n);
  check "insert altered" true (Node.altered n)

let test_delete_is_tombstone () =
  let t0 = Helpers.genesis 50 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 7 Payload.tombstone in
  check "gone" true (Tree.lookup t1 7 = None);
  check "not a member" false (Tree.mem t1 7);
  check_int "node remains" 50 (Tree.size t1);
  check_int "live shrinks" 49 (Tree.live_size t1);
  (* Re-inserting the key is an update of the tombstone node. *)
  let t2 = Tree.upsert t1 ~owner ~fresh 7 (Payload.value "back") in
  Alcotest.(check string) "back" "back" (Helpers.value_exn (Tree.lookup t2 7));
  let n = Option.get (Tree.find t2 7) in
  check "revival keeps source chain" true (Node.has_ssv n)

let test_touch_read_marks () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.touch_read t0 ~owner ~fresh 10 in
  let n = Option.get (Tree.find t1 10) in
  check "dep content" true (Node.depends_on_content n);
  check "not altered" false (Node.altered n);
  check "payload kept" true (Payload.equal n.Node.payload (Helpers.payload 10));
  (* Marking again is a no-op (physically). *)
  let t2 = Tree.touch_read t1 ~owner ~fresh 10 in
  check "idempotent" true (t2 == t1)

let test_touch_read_own_write_noop () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.upsert t0 ~owner ~fresh 10 (Payload.value "mine") in
  let t2 = Tree.touch_read t1 ~owner ~fresh 10 in
  check "no-op" true (t2 == t1)

let test_touch_read_absent_guards_structure () =
  let t0 = Helpers.genesis ~gap:10 100 in
  let fresh = make_fresh () in
  let t1 = Tree.touch_read t0 ~owner ~fresh 55 in
  (* Some node on the search path must carry the structural guard. *)
  let guarded = ref 0 in
  Tree.iter t1 (fun n -> if Node.depends_on_structure n then incr guarded);
  check_int "one guard" 1 !guarded

let test_touch_range_marks_in_range () =
  let t0 = Helpers.genesis 100 in
  let fresh = make_fresh () in
  let t1 = Tree.touch_range t0 ~owner ~fresh ~lo:10 ~hi:20 in
  let marked = ref [] in
  Tree.iter t1 (fun n ->
      if Node.depends_on_structure n then marked := n.Node.key :: !marked);
  List.iter
    (fun k -> check (Printf.sprintf "key %d marked" k) true (List.mem k !marked))
    [ 10; 11; 15; 20 ];
  check "nothing below lo" false (List.exists (fun k -> k < 10) !marked);
  check "nothing above hi" false (List.exists (fun k -> k > 20) !marked)

let test_touch_range_empty_guards_neighbours () =
  let t0 = Helpers.genesis ~gap:100 10 in
  let fresh = make_fresh () in
  (* Range (150, 180) is empty; neighbours 100 and 200 must be guarded. *)
  let t1 = Tree.touch_range t0 ~owner ~fresh ~lo:150 ~hi:180 in
  let marked = ref [] in
  Tree.iter t1 (fun n ->
      if Node.depends_on_structure n then marked := n.Node.key :: !marked);
  check "pred guarded" true (List.mem 100 !marked);
  check "succ guarded" true (List.mem 200 !marked)

let test_pred_succ () =
  let t = Helpers.genesis ~gap:10 10 in
  check_int "pred" 40 (Option.get (Tree.pred t 45)).Node.key;
  check_int "pred exact" 40 (Option.get (Tree.pred t 50)).Node.key;
  check "pred none" true (Tree.pred t 0 = None);
  check_int "succ" 50 (Option.get (Tree.succ t 45)).Node.key;
  check "succ none" true (Tree.succ t 90 = None)

let test_range_items () =
  let t = Helpers.genesis ~gap:10 20 in
  let items = Tree.range_items t ~lo:25 ~hi:62 in
  Alcotest.(check (list int)) "keys" [ 30; 40; 50; 60 ] (List.map fst items);
  (* Tombstoned key drops out of the scan. *)
  let fresh = make_fresh () in
  let t2 = Tree.upsert t ~owner ~fresh 40 Payload.tombstone in
  let items2 = Tree.range_items t2 ~lo:25 ~hi:62 in
  Alcotest.(check (list int)) "keys after delete" [ 30; 50; 60 ]
    (List.map fst items2)

let test_path_length () =
  let t = Helpers.genesis 1024 in
  let total = ref 0 in
  for k = 0 to 1023 do
    total := !total + Tree.path_length t k
  done;
  let avg = float_of_int !total /. 1024.0 in
  check "avg path logarithmic" true (avg < 30.0 && avg > 5.0)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                 *)
(* ------------------------------------------------------------------ *)

module KeyMap = Map.Make (Int)

let apply_op (tree, model, fresh) op =
  match op with
  | `Upsert (k, v) ->
      ( Tree.upsert tree ~owner ~fresh k (Payload.value v),
        KeyMap.add k v model,
        fresh )
  | `Delete k ->
      (Tree.upsert tree ~owner ~fresh k Payload.tombstone,
       KeyMap.remove k model, fresh)

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k v -> `Upsert (k, string_of_int v)) (int_bound 400) nat;
        map (fun k -> `Delete k) (int_bound 400);
      ])

let prop_model_agreement =
  QCheck2.Test.make ~name:"treap agrees with Map model" ~count:300
    QCheck2.Gen.(list_size (int_range 1 120) op_gen)
    (fun ops ->
      let fresh = make_fresh () in
      let tree, model, _ =
        List.fold_left apply_op (Helpers.genesis ~gap:7 30,
          (let m = ref KeyMap.empty in
           for i = 0 to 29 do m := KeyMap.add (i * 7) ("v" ^ string_of_int (i * 7)) !m done;
           !m), fresh) ops
      in
      (match Tree.validate tree with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_reportf "invalid: %s" e);
      KeyMap.for_all
        (fun k v ->
          match Tree.lookup tree k with
          | Some (Payload.Value s) -> String.equal s v
          | Some Payload.Tombstone | None -> false)
        model
      && List.for_all
           (fun (k, _) -> KeyMap.mem k model)
           (Tree.to_alist tree))

let prop_shape_canonical =
  QCheck2.Test.make ~name:"shape independent of insertion order" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 1 60) (int_bound 1000)) (int_bound 10000))
    (fun (keys, seed) ->
      let uniq = List.sort_uniq compare keys in
      let fresh = make_fresh () in
      let a =
        List.fold_left
          (fun t k -> Tree.upsert t ~owner ~fresh k (Helpers.payload k))
          Tree.empty uniq
      in
      let shuffled = Array.of_list uniq in
      Hyder_util.Rng.shuffle (Hyder_util.Rng.create (Int64.of_int seed)) shuffled;
      let b =
        Array.fold_left
          (fun t k -> Tree.upsert t ~owner ~fresh k (Helpers.payload k))
          Tree.empty shuffled
      in
      String.equal (Helpers.shape a) (Helpers.shape b))

let prop_range_matches_model =
  QCheck2.Test.make ~name:"range scan agrees with Map model" ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 80) op_gen)
        (int_bound 400) (int_bound 400))
    (fun (ops, a, b) ->
      let lo = min a b and hi = max a b in
      let fresh = make_fresh () in
      let tree, model, _ =
        List.fold_left apply_op (Tree.empty, KeyMap.empty, fresh) ops
      in
      let expected =
        KeyMap.bindings model
        |> List.filter (fun (k, _) -> k >= lo && k <= hi)
        |> List.map fst
      in
      let got = List.map fst (Tree.range_items tree ~lo ~hi) in
      expected = got)

(* The per-segment max-scan [Tree.of_sorted_array] used before its stack
   construction — kept as the oracle for shape, versions and payloads. *)
let of_sorted_oracle items =
  let rec build lo hi =
    if lo >= hi then Node.empty
    else begin
      let best = ref lo in
      for i = lo + 1 to hi - 1 do
        if Key.priority_greater (fst items.(i)) (fst items.(!best)) then
          best := i
      done;
      let key, payload = items.(!best) in
      let left = build lo !best in
      let right = build (!best + 1) hi in
      let vn = Vn.genesis ~idx:!best in
      Node.make ~key ~payload ~left ~right ~vn ~cv:vn ~ssv:None ~scv:None
        ~altered:false ~depends_on_content:false ~depends_on_structure:false
        ~owner:Node.state_owner
    end
  in
  build 0 (Array.length items)

let rec same_payload_objects (a : Node.tree) (b : Node.tree) =
  Node.is_empty a && Node.is_empty b
  || (not (Node.is_empty a))
     && (not (Node.is_empty b))
     && a.Node.payload == b.Node.payload
     && same_payload_objects a.Node.left b.Node.left
     && same_payload_objects a.Node.right b.Node.right

let prop_of_sorted_matches_oracle =
  QCheck2.Test.make ~name:"of_sorted_array = max-scan oracle" ~count:300
    QCheck2.Gen.(
      oneof
        [
          list_size (int_range 0 2) int;
          list_size (int_range 0 400) (int_range (-1000) 1000);
          list_size (int_range 0 400) int;
        ])
    (fun keys ->
      let keys = List.sort_uniq compare keys in
      let items = Array.of_list (List.map (fun k -> (k, Helpers.payload k)) keys) in
      let got = Tree.of_sorted_array items in
      let want = of_sorted_oracle items in
      Tree.physically_equal got want && same_payload_objects got want)

(* [Key.priority_greater] against its definition: unsigned order of the
   boxed [Int64] priorities, ties (equal keys) broken by key order. *)
let priority_greater_ref a b =
  let c = Int64.unsigned_compare (Key.priority a) (Key.priority b) in
  if c <> 0 then c > 0 else a < b

let prop_priority_greater_matches_int64 =
  QCheck2.Test.make ~name:"priority_greater = Int64 reference" ~count:2000
    QCheck2.Gen.(
      let key =
        oneof [ int; int_range (-50) 50; oneofl [ 0; -1; min_int; max_int ] ]
      in
      oneof [ pair key key; map (fun k -> (k, k)) key ])
    (fun (a, b) ->
      Key.priority_greater a b = priority_greater_ref a b
      && Key.priority_greater b a = priority_greater_ref b a)

(* The treap's hot comparison (every level of [Tree.upsert], meld's
   outrank branches) must not allocate. *)
let test_priority_greater_allocation_free () =
  let keys = Array.init 64 (fun i -> (i * 7919) - 200) in
  let hits = ref 0 in
  let run () =
    for i = 0 to 63 do
      for j = 0 to 63 do
        if Key.priority_greater keys.(i) keys.(j) then incr hits
      done
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  run ();
  let w2 = Gc.minor_words () in
  check_int "minor words over 4096 calls" 0
    (int_of_float (w2 -. w1 -. (w1 -. w0)));
  check "some comparisons hold" true (!hits > 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_model_agreement;
      prop_shape_canonical;
      prop_range_matches_model;
      prop_of_sorted_matches_oracle;
      prop_priority_greater_matches_int64;
    ]

let () =
  Alcotest.run "tree"
    [
      ( "treap",
        [
          Alcotest.test_case "of_sorted basics" `Quick test_of_sorted_basic;
          Alcotest.test_case "of_sorted rejects unsorted" `Quick
            test_of_sorted_rejects_unsorted;
          Alcotest.test_case "depth logarithmic" `Quick test_depth_logarithmic;
          Alcotest.test_case "canonical shape" `Quick
            test_canonical_shape_any_insertion_order;
          Alcotest.test_case "upsert update" `Quick test_upsert_update;
          Alcotest.test_case "upsert insert" `Quick test_upsert_insert;
          Alcotest.test_case "delete tombstone" `Quick test_delete_is_tombstone;
          Alcotest.test_case "touch_read marks" `Quick test_touch_read_marks;
          Alcotest.test_case "touch_read own write" `Quick
            test_touch_read_own_write_noop;
          Alcotest.test_case "touch_read absent" `Quick
            test_touch_read_absent_guards_structure;
          Alcotest.test_case "touch_range marks" `Quick
            test_touch_range_marks_in_range;
          Alcotest.test_case "touch_range empty" `Quick
            test_touch_range_empty_guards_neighbours;
          Alcotest.test_case "pred/succ" `Quick test_pred_succ;
          Alcotest.test_case "range items" `Quick test_range_items;
          Alcotest.test_case "path length" `Quick test_path_length;
          Alcotest.test_case "priority_greater allocates nothing" `Quick
            test_priority_greater_allocation_free;
        ] );
      ("properties", qcheck_cases);
    ]
