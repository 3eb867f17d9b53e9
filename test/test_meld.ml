open Hyder_tree
module Local = Hyder_core.Local
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Meld = Hyder_core.Meld
module I = Hyder_codec.Intention

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let harness ?config ?(n = 200) () =
  Local.create ?config ~genesis:(Helpers.genesis ~gap:10 n) ()

let read_current h k =
  let _, _, t = Local.lcs h in
  Tree.lookup t k

(* --- basic commit paths ------------------------------------------------ *)

let test_single_write_commits () =
  let h = harness () in
  let _, ds = Local.txn h (fun e -> Executor.write e 10 "hello") in
  check_int "one decision" 1 (List.length ds);
  check "committed" true (List.hd ds).Pipeline.committed;
  check_str "visible" "hello" (Helpers.value_exn (read_current h 10))

let test_read_only_not_logged () =
  let h = harness () in
  let v, ds = Local.txn h (fun e -> Executor.read e 10) in
  check_str "value" "v10" (Helpers.value_exn v);
  check_int "no decision" 0 (List.length ds)

let test_sequential_writes_all_commit () =
  let h = harness () in
  for i = 0 to 49 do
    let _, ds = Local.txn h (fun e -> Executor.write e (i * 10) "x") in
    check "committed" true (List.hd ds).Pipeline.committed
  done;
  let c = Local.counters h in
  check_int "50 commits" 50 c.Hyder_core.Counters.committed;
  check_int "0 aborts" 0 c.Hyder_core.Counters.aborted

let test_read_own_write () =
  let h = harness () in
  let v, _ =
    Local.txn h (fun e ->
        Executor.write e 10 "mine";
        Executor.read e 10)
  in
  check_str "own write" "mine" (Helpers.value_exn v)

(* --- conflict semantics ------------------------------------------------ *)

let test_write_write_conflict () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 10 "a";
  Executor.write t2 10 "b";
  check "t1 commits" true (Helpers.commit1 h t1);
  check "t2 aborts" false (Helpers.commit1 h t2);
  check_str "t1 wins" "a" (Helpers.value_exn (read_current h 10))

let test_disjoint_writes_both_commit () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 10 "a";
  Executor.write t2 20 "b";
  check "t1 commits" true (Helpers.commit1 h t1);
  check "t2 commits" true (Helpers.commit1 h t2);
  check_str "a" "a" (Helpers.value_exn (read_current h 10));
  check_str "b" "b" (Helpers.value_exn (read_current h 20))

let test_read_write_conflict_serializable () =
  let h = harness () in
  let reader = Helpers.begin_txn h in
  let writer = Helpers.begin_txn h in
  ignore (Executor.read reader 10);
  Executor.write reader 20 "r";
  Executor.write writer 10 "w";
  check "writer commits" true (Helpers.commit1 h writer);
  check "reader aborts" false (Helpers.commit1 h reader)

let test_read_write_no_conflict_snapshot_isolation () =
  let h = harness () in
  let reader = Helpers.begin_txn ~isolation:I.Snapshot_isolation h in
  let writer = Helpers.begin_txn h in
  ignore (Executor.read reader 10);
  Executor.write reader 20 "r";
  Executor.write writer 10 "w";
  check "writer commits" true (Helpers.commit1 h writer);
  check "reader commits under SI" true (Helpers.commit1 h reader)

let test_si_write_write_still_conflicts () =
  let h = harness () in
  let t1 = Helpers.begin_txn ~isolation:I.Snapshot_isolation h in
  let t2 = Helpers.begin_txn ~isolation:I.Snapshot_isolation h in
  Executor.write t1 10 "a";
  Executor.write t2 10 "b";
  check "t1 commits" true (Helpers.commit1 h t1);
  check "t2 aborts" false (Helpers.commit1 h t2)

let test_insert_insert_conflict () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 15 "a";
  Executor.write t2 15 "b";
  check "t1 commits" true (Helpers.commit1 h t1);
  check "t2 aborts" false (Helpers.commit1 h t2);
  check_str "t1's insert" "a" (Helpers.value_exn (read_current h 15))

let test_disjoint_inserts_both_commit () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 15 "a";
  Executor.write t2 25 "b";
  check "t1 commits" true (Helpers.commit1 h t1);
  check "t2 commits" true (Helpers.commit1 h t2);
  check_str "a" "a" (Helpers.value_exn (read_current h 15));
  check_str "b" "b" (Helpers.value_exn (read_current h 25))

let test_delete_write_conflict () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.delete t1 10;
  Executor.write t2 10 "b";
  check "deleter commits" true (Helpers.commit1 h t1);
  check "writer aborts" false (Helpers.commit1 h t2);
  check "gone" true (read_current h 10 = None)

let test_write_after_commit_no_conflict () =
  (* A transaction whose snapshot already includes the writer does not
     conflict with it. *)
  let h = harness () in
  let _, _ = Local.txn h (fun e -> Executor.write e 10 "first") in
  let t = Helpers.begin_txn h in
  ignore (Executor.read t 10);
  Executor.write t 10 "second";
  check "commits" true (Helpers.commit1 h t);
  check_str "value" "second" (Helpers.value_exn (read_current h 10))

let test_phantom_insert_into_scanned_range () =
  let h = harness () in
  let scanner = Helpers.begin_txn h in
  let inserter = Helpers.begin_txn h in
  let items = Executor.read_range scanner ~lo:10 ~hi:50 in
  check_int "scan sees 5" 5 (List.length items);
  Executor.write scanner 1000 "result";
  Executor.write inserter 15 "phantom";
  check "inserter commits" true (Helpers.commit1 h inserter);
  check "scanner aborts" false (Helpers.commit1 h scanner)

let test_phantom_absent_read () =
  let h = harness () in
  let reader = Helpers.begin_txn h in
  let inserter = Helpers.begin_txn h in
  check "absent" true (Executor.read reader 15 = None);
  Executor.write reader 1000 "acted-on-absence";
  Executor.write inserter 15 "now-present";
  check "inserter commits" true (Helpers.commit1 h inserter);
  check "reader aborts" false (Helpers.commit1 h reader)

let test_deep_conflict_zone () =
  (* A transaction with a long conflict zone still validates correctly. *)
  let h = harness ~n:500 () in
  let t = Helpers.begin_txn h in
  ignore (Executor.read t 10);
  Executor.write t 20 "mine";
  (* 200 unrelated committed writes land in the conflict zone. *)
  for i = 50 to 249 do
    ignore (Local.txn h (fun e -> Executor.write e (i * 10) "z"))
  done;
  check "still commits" true (Helpers.commit1 h t);
  (* Same, but one of them touches the read key. *)
  let t2 = Helpers.begin_txn h in
  ignore (Executor.read t2 10);
  Executor.write t2 20 "mine2";
  for i = 50 to 149 do
    ignore (Local.txn h (fun e -> Executor.write e (i * 10) "w"))
  done;
  ignore (Local.txn h (fun e -> Executor.write e 10 "overwrite"));
  check "aborts" false (Helpers.commit1 h t2)

(* --- abort reasons ------------------------------------------------------ *)

let abort_reason ds =
  match ds with
  | [ d ] -> d.Pipeline.reason
  | _ -> Alcotest.fail "expected one decision"

let test_abort_reasons () =
  let h = harness () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  let t3 = Helpers.begin_txn h in
  Executor.write t1 10 "a";
  Executor.write t2 10 "b";
  ignore (Executor.read t3 10);
  Executor.write t3 30 "c";
  ignore (Helpers.commit h t1);
  (match abort_reason (Helpers.commit h t2) with
  | Some (Meld.Write_conflict 10) -> ()
  | r ->
      Alcotest.failf "expected write conflict on 10, got %s"
        (match r with
        | Some x -> Meld.abort_reason_to_string x
        | None -> "commit"));
  match abort_reason (Helpers.commit h t3) with
  | Some (Meld.Read_conflict 10) -> ()
  | r ->
      Alcotest.failf "expected read conflict on 10, got %s"
        (match r with
        | Some x -> Meld.abort_reason_to_string x
        | None -> "commit")

(* --- ephemeral nodes and counters --------------------------------------- *)

let test_ephemeral_nodes_created () =
  let h = harness ~n:1000 () in
  let t1 = Helpers.begin_txn h in
  let t2 = Helpers.begin_txn h in
  Executor.write t1 10 "a";
  Executor.write t2 5010 "b";
  ignore (Helpers.commit h t1);
  ignore (Helpers.commit h t2);
  let c = Local.counters h in
  (* Melding t2 against the state that already contains t1's update must
     have created ephemeral ancestors. *)
  check "ephemerals created" true
    (c.Hyder_core.Counters.final_meld.Hyder_core.Counters.ephemerals > 0)

let test_graft_fast_path () =
  let h = harness ~n:1000 () in
  (* Sequential non-conflicting transactions: meld should graft, visiting
     far fewer nodes than the tree holds. *)
  for i = 0 to 19 do
    ignore (Local.txn h (fun e -> Executor.write e (i * 10) "x"))
  done;
  let c = Local.counters h in
  let fm = c.Hyder_core.Counters.final_meld in
  check "visits bounded" true
    (fm.Hyder_core.Counters.nodes_visited < 20 * Tree.depth (let _, _, t = Local.lcs h in t) * 2);
  check "grafts happened" true (fm.Hyder_core.Counters.grafts > 0)

(* A final-meld ephemeral node is exactly one 14-word heap block: its
   versions are immediate words, not boxed [Vn.t]s.  Two melds through
   the same code path differ only in how many ephemerals they create, so
   their minor-word difference must be 14 words per ephemeral. *)
let test_fm_ephemeral_is_one_block () =
  let genesis = Helpers.genesis ~gap:10 1000 in
  let write ~pos k =
    let e =
      Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:genesis ~server:0
        ~txn_seq:pos ~isolation:I.Serializable ()
    in
    Executor.write e k "x";
    match Executor.finish e with
    | Some d -> I.assign ~pos d
    | None -> Alcotest.fail "expected a draft"
  in
  let fm (i : I.t) state =
    let alloc = Vn.Alloc.create ~thread:0 in
    let counters = Hyder_core.Counters.make_stage () in
    let w0 = Gc.minor_words () in
    let r =
      Meld.meld ~mode:Meld.Final ~members:[ i.I.pos ] ~alloc ~counters
        ~intention:i.I.root ~state ()
    in
    let w1 = Gc.minor_words () in
    match r with
    | Meld.Merged t ->
        (t, int_of_float (w1 -. w0), counters.Hyder_core.Counters.ephemerals)
    | Meld.Conflict _ -> Alcotest.fail "unexpected conflict"
  in
  (* onto its own snapshot: the graft fast path, no ephemerals *)
  let lcs1, w_graft, e1 = fm (write ~pos:0 10) genesis in
  check_int "graft creates no ephemerals" 0 e1;
  (* onto a state that moved: ephemeral ancestors on the shared path *)
  let lcs2, w, e = fm (write ~pos:1 9990) lcs1 in
  check "ephemerals created" true (e > 0);
  check_int "minor words = overhead + 14 per ephemeral" (w_graft + (14 * e)) w;
  (* the root is one of them: one block of 13 fields, versions immediate *)
  check "root is ephemeral" true
    (Vn.equal (Node.vn lcs2) (Vn.ephemeral ~thread:0 ~seq:(e - 1)));
  let r = Obj.repr lcs2 in
  check_int "13 fields" 13 (Obj.size r);
  for f = 4 to 12 do
    check (Printf.sprintf "field %d immediate" f) true (Obj.is_int (Obj.field r f))
  done

(* --- state integrity ----------------------------------------------------- *)

let test_lcs_matches_committed_history () =
  let h = harness ~n:100 () in
  let reference = Hashtbl.create 64 in
  for i = 0 to 99 do
    Hashtbl.replace reference (i * 10) ("v" ^ string_of_int (i * 10))
  done;
  let rng = Hyder_util.Rng.create 7L in
  for _ = 1 to 200 do
    let t = Helpers.begin_txn h in
    let k = 10 * Hyder_util.Rng.int rng 150 in
    let v = "w" ^ string_of_int (Hyder_util.Rng.int rng 10000) in
    Executor.write t k v;
    let ds = Helpers.commit h t in
    if (List.hd ds).Pipeline.committed then Hashtbl.replace reference k v
  done;
  let _, _, lcs = Local.lcs h in
  Helpers.check_tree_valid "lcs" lcs;
  Hashtbl.iter
    (fun k v ->
      check_str (Printf.sprintf "key %d" k) v
        (Helpers.value_exn (Tree.lookup lcs k)))
    reference;
  check_int "live size" (Hashtbl.length reference) (Tree.live_size lcs)

let () =
  Alcotest.run "meld"
    [
      ( "basics",
        [
          Alcotest.test_case "single write commits" `Quick
            test_single_write_commits;
          Alcotest.test_case "read-only not logged" `Quick
            test_read_only_not_logged;
          Alcotest.test_case "sequential writes" `Quick
            test_sequential_writes_all_commit;
          Alcotest.test_case "read own write" `Quick test_read_own_write;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "write-write" `Quick test_write_write_conflict;
          Alcotest.test_case "disjoint writes" `Quick
            test_disjoint_writes_both_commit;
          Alcotest.test_case "read-write SR" `Quick
            test_read_write_conflict_serializable;
          Alcotest.test_case "read-write SI" `Quick
            test_read_write_no_conflict_snapshot_isolation;
          Alcotest.test_case "write-write SI" `Quick
            test_si_write_write_still_conflicts;
          Alcotest.test_case "insert-insert" `Quick test_insert_insert_conflict;
          Alcotest.test_case "disjoint inserts" `Quick
            test_disjoint_inserts_both_commit;
          Alcotest.test_case "delete-write" `Quick test_delete_write_conflict;
          Alcotest.test_case "write after commit" `Quick
            test_write_after_commit_no_conflict;
          Alcotest.test_case "phantom range" `Quick
            test_phantom_insert_into_scanned_range;
          Alcotest.test_case "phantom absent read" `Quick
            test_phantom_absent_read;
          Alcotest.test_case "deep conflict zone" `Quick test_deep_conflict_zone;
          Alcotest.test_case "abort reasons" `Quick test_abort_reasons;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "ephemerals" `Quick test_ephemeral_nodes_created;
          Alcotest.test_case "graft fast path" `Quick test_graft_fast_path;
          Alcotest.test_case "fm ephemeral is one 14-word block" `Quick
            test_fm_ephemeral_is_one_block;
          Alcotest.test_case "state integrity" `Quick
            test_lcs_matches_committed_history;
        ] );
    ]
