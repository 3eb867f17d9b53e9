open Hyder_tree
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Executor = Hyder_core.Executor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build a draft by running an executor against a genesis snapshot. *)
let make_draft ?(isolation = I.Serializable) ~snapshot ~snapshot_pos body =
  let e =
    Executor.begin_txn ~snapshot_pos ~snapshot ~server:3 ~txn_seq:17
      ~isolation ()
  in
  body e;
  match Executor.finish e with
  | Some d -> d
  | None -> Alcotest.fail "expected a draft"

let resolver_of snapshot ~snapshot_pos : Codec.resolver =
 fun ~snapshot:pos ~key ~vn ->
  ignore vn;
  check_int "resolver asked for the right snapshot" snapshot_pos pos;
  match Tree.find snapshot key with
  | Some n -> n
  | None -> Node.empty

let test_roundtrip_matches_assign () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
        Executor.write e 100 "updated";
        Executor.write e 105 "inserted";
        ignore (Executor.read e 200);
        Executor.delete e 300)
  in
  let bytes = Codec.encode draft in
  let decoded =
    Codec.decode ~pos:7 ~resolve:(resolver_of snapshot ~snapshot_pos:(-1)) bytes
  in
  let assigned = I.assign ~pos:7 draft in
  check "physically identical to assign" true
    (Tree.physically_equal decoded.I.root assigned.I.root);
  check_int "node counts agree" assigned.I.node_count decoded.I.node_count;
  check_int "snapshot" (-1) decoded.I.snapshot;
  check_int "server" 3 decoded.I.server;
  check_int "txn_seq" 17 decoded.I.txn_seq;
  check "isolation" true (decoded.I.isolation = I.Serializable);
  check_int "byte size recorded" (String.length bytes) decoded.I.byte_size

let test_roundtrip_snapshot_isolation_smaller () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let body e =
    for i = 0 to 7 do
      ignore (Executor.read e (i * 50))
    done;
    Executor.write e 100 "x";
    Executor.write e 200 "y"
  in
  let sr = make_draft ~isolation:I.Serializable ~snapshot ~snapshot_pos:(-1) body in
  let si =
    make_draft ~isolation:I.Snapshot_isolation ~snapshot ~snapshot_pos:(-1) body
  in
  let sr_size = Codec.encoded_size sr in
  let si_size = Codec.encoded_size si in
  check
    (Printf.sprintf "SI intention much smaller (%d vs %d)" si_size sr_size)
    true
    (si_size * 2 < sr_size)

let test_decode_rejects_corruption () =
  let snapshot = Helpers.genesis ~gap:10 100 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e -> Executor.write e 10 "v")
  in
  let bytes = Codec.encode draft in
  let resolve = resolver_of snapshot ~snapshot_pos:(-1) in
  (* Truncation *)
  (try
     ignore
       (Codec.decode ~pos:1 ~resolve (String.sub bytes 0 (String.length bytes / 2)));
     Alcotest.fail "expected Corrupt"
   with Codec.Corrupt _ -> ());
  (* Trailing garbage *)
  try
    ignore (Codec.decode ~pos:1 ~resolve (bytes ^ "zz"));
    Alcotest.fail "expected Corrupt"
  with Codec.Corrupt _ -> ()

(* ---- pooled / zero-copy codec paths ---------------------------------- *)

let test_peek_snapshot () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:31 (fun e -> Executor.write e 100 "x")
  in
  let bytes = Codec.encode draft in
  check_int "snapshot peeked without decoding" 31 (Codec.peek_snapshot bytes);
  (* at an offset inside a larger buffer *)
  let padded = "\xff\xff\xff" ^ bytes in
  check_int "peek honours off" 31 (Codec.peek_snapshot ~off:3 padded);
  (* truncated header *)
  match Codec.peek_snapshot "" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt on empty header"

let test_decode_pooled_matches_decode () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let resolve = resolver_of snapshot ~snapshot_pos:(-1) in
  let scratch = Codec.Scratch.create () in
  let drafts =
    List.map
      (fun k ->
        make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
            Executor.write e (k * 10) ("p" ^ string_of_int k);
            ignore (Executor.read e ((k * 10) + 200));
            Executor.delete e ((k * 10) + 400)))
      [ 1; 2; 3; 4 ]
  in
  (* reuse one scratch across decodes, at an offset inside a shared
     buffer, exactly as the pipelined runtime reads wire slices *)
  List.iteri
    (fun n draft ->
      let bytes = Codec.encode draft in
      let shifted = String.make (3 * n) '\xee' ^ bytes ^ "tail" in
      let pooled =
        Codec.decode_pooled ~scratch ~pos:(n + 5) ~off:(3 * n)
          ~len:(String.length bytes) ~resolve shifted
      in
      let plain = Codec.decode ~pos:(n + 5) ~resolve bytes in
      check "pooled decode physically identical to plain decode" true
        (Tree.physically_equal pooled.I.root plain.I.root);
      check_int "node_count agrees" plain.I.node_count pooled.I.node_count;
      check_int "byte_size agrees" plain.I.byte_size pooled.I.byte_size;
      let nodes = Codec.Scratch.export scratch in
      check_int "export is the node table" plain.I.node_count
        (Array.length nodes))
    drafts

let test_encoder_matches_encode () =
  let snapshot = Helpers.genesis ~gap:10 500 in
  let pool = Hyder_util.Buf_pool.create () in
  let enc = Codec.Encoder.create ~pool () in
  (* interleave drafts of very different sizes so the writer grows and is
     reused across encodes *)
  let drafts =
    List.map
      (fun ops ->
        make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
            for i = 0 to ops - 1 do
              Executor.write e (i * 7 mod 5000) ("v" ^ string_of_int i)
            done))
      [ 1; 40; 2; 25; 3 ]
  in
  List.iter
    (fun draft ->
      Alcotest.(check string)
        "pooled encoder byte-identical to Codec.encode" (Codec.encode draft)
        (Codec.Encoder.encode enc draft))
    drafts;
  Codec.Encoder.free enc;
  check "backing buffer returned to the pool" true
    (Hyder_util.Buf_pool.pooled pool > 0)

let test_encoder_steady_state_allocation () =
  (* Regression guard for the encode hot-path copy bug: once the backing
     buffer has grown to steady state, each encode must allocate only the
     returned string — no intermediate buffer copy, no regrowth.  The
     budget is the result string's own words plus slack for Gc counter
     noise; the copy bug doubled the real figure. *)
  let snapshot = Helpers.genesis ~gap:10 500 in
  let pool = Hyder_util.Buf_pool.create () in
  let enc = Codec.Encoder.create ~pool () in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
        for i = 0 to 24 do
          Executor.write e (i * 20) ("v" ^ string_of_int i)
        done)
  in
  let bytes = Codec.Encoder.encode enc draft in
  let reps = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Codec.Encoder.encode enc draft))
  done;
  let per = (Gc.minor_words () -. w0) /. float_of_int reps in
  let result_words = float_of_int ((String.length bytes + 8) / 8 + 1) in
  Codec.Encoder.free enc;
  check
    (Printf.sprintf
       "steady-state encode allocates only the result string (%.1f words \
        for a %.0f-word string)"
       per result_words)
    true
    (per < (result_words *. 1.25) +. 16.)

let test_blocks_roundtrip_single () =
  let payload = "some intention bytes" in
  let blocks = Codec.Blocks.split ~block_size:8192 ~server:1 ~txn_seq:5 payload in
  check_int "one block" 1 (List.length blocks);
  let r = Codec.Blocks.Reassembler.create () in
  match Codec.Blocks.Reassembler.feed r ~pos:42 (List.hd blocks) with
  | Some (pos, bytes) ->
      check_int "position of last block" 42 pos;
      Alcotest.(check string) "payload" payload bytes
  | None -> Alcotest.fail "expected completion"

let test_blocks_roundtrip_multi () =
  let payload = String.init 20_000 (fun i -> Char.chr (i mod 256)) in
  let blocks = Codec.Blocks.split ~block_size:4096 ~server:2 ~txn_seq:9 payload in
  check "multiple blocks" true (List.length blocks > 4);
  List.iter
    (fun b -> check "fits page" true (String.length b <= 4096))
    blocks;
  check_int "count formula agrees"
    (List.length blocks)
    (Codec.Blocks.blocks_needed ~block_size:4096 (String.length payload));
  let r = Codec.Blocks.Reassembler.create () in
  let result = ref None in
  List.iteri
    (fun i b ->
      match Codec.Blocks.Reassembler.feed r ~pos:(100 + i) b with
      | Some (pos, bytes) ->
          check_int "last block position" (100 + List.length blocks - 1) pos;
          result := Some bytes
      | None -> check "only last completes" true (i < List.length blocks - 1))
    blocks;
  Alcotest.(check (option string)) "payload intact" (Some payload) !result;
  check_int "no pending" 0 (Codec.Blocks.Reassembler.pending r)

let test_blocks_interleaved_servers () =
  let pa = String.make 9000 'a' and pb = String.make 9000 'b' in
  let ba = Codec.Blocks.split ~block_size:4096 ~server:0 ~txn_seq:1 pa in
  let bb = Codec.Blocks.split ~block_size:4096 ~server:1 ~txn_seq:1 pb in
  let r = Codec.Blocks.Reassembler.create () in
  let done_ = ref [] in
  let pos = ref 0 in
  let feed b =
    (match Codec.Blocks.Reassembler.feed r ~pos:!pos b with
    | Some (p, bytes) -> done_ := (p, bytes) :: !done_
    | None -> ());
    incr pos
  in
  (* Interleave the two servers' block streams. *)
  List.iter2 (fun a b -> feed a; feed b) ba bb;
  check_int "both completed" 2 (List.length !done_);
  let by_content c = List.find (fun (_, b) -> b.[0] = c) !done_ in
  check "a intact" true (snd (by_content 'a') = pa);
  check "b intact" true (snd (by_content 'b') = pb)

let test_blocks_checksum_detects_flip () =
  let blocks = Codec.Blocks.split ~block_size:8192 ~server:0 ~txn_seq:0 "data" in
  let b = Bytes.of_string (List.hd blocks) in
  Bytes.set b (Bytes.length b - 1) 'X';
  let r = Codec.Blocks.Reassembler.create () in
  try
    ignore (Codec.Blocks.Reassembler.feed r ~pos:0 (Bytes.to_string b));
    Alcotest.fail "expected Corrupt"
  with Codec.Corrupt _ -> ()

(* The two-writer framing [Blocks.split] used before it wrote each block
   into one buffer — kept as the byte-level oracle. *)
let split_oracle ~block_size ~server ~txn_seq s =
  let module W = Hyder_util.Wire.Writer in
  let chunk = block_size - Codec.Blocks.overhead in
  let total = String.length s in
  let nfrags = max 1 ((total + chunk - 1) / chunk) in
  List.init nfrags (fun i ->
      let off = i * chunk in
      let len = min chunk (total - off) in
      let body = W.create () in
      W.varint body server;
      W.varint body txn_seq;
      W.varint body i;
      W.u8 body (if i = nfrags - 1 then 1 else 0);
      W.substring body s ~pos:off ~len;
      let payload = W.contents body in
      let framed = W.create () in
      W.u32 framed (Hyder_util.Crc32.digest_string payload);
      W.raw framed (Bytes.unsafe_of_string payload) ~pos:0
        ~len:(String.length payload);
      W.contents framed)

let test_blocks_match_oracle () =
  let block_size = 300 in
  let chunk = block_size - Codec.Blocks.overhead in
  List.iter
    (fun size ->
      let s = String.init size (fun i -> Char.chr ((i * 31) land 0xFF)) in
      List.iter
        (fun (server, txn_seq) ->
          let got = Codec.Blocks.split ~block_size ~server ~txn_seq s in
          let want = split_oracle ~block_size ~server ~txn_seq s in
          check
            (Printf.sprintf "size %d server %d txn %d: same blocks" size server
               txn_seq)
            true (got = want);
          List.iter
            (fun b -> check "fits the block" true (String.length b <= block_size))
            got)
        [ (0, 0); (1, 127); (200, 128); (70_000, 1 lsl 40) ])
    [ 0; 1; chunk - 1; chunk; chunk + 1; (2 * chunk) - 1; 2 * chunk;
      (2 * chunk) + 1; (5 * chunk) + 7 ]

let expect_corrupt what msg f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Codec.Corrupt m -> Alcotest.(check string) what msg m

(* Reassembly errors keep their messages: a fragment arriving out of
   order, a fresh fragment 0 (single- or multi-block) while a partial of
   the same (server, txn_seq) is open, and a bad checksum. *)
let test_blocks_reassembly_errors () =
  let module R = Codec.Blocks.Reassembler in
  let multi = Codec.Blocks.split ~block_size:100 ~server:4 ~txn_seq:2
      (String.make 300 'm') in
  let single = Codec.Blocks.split ~block_size:100 ~server:4 ~txn_seq:2 "s" in
  let nth l i = List.nth l i in
  let r = R.create () in
  expect_corrupt "skipped fragment"
    "block 7: fragment 1 arrived out of order (expected 0)" (fun () ->
      R.feed r ~pos:7 (nth multi 1));
  let r = R.create () in
  check "fragment 0 opens a partial" true (R.feed r ~pos:1 (nth multi 0) = None);
  expect_corrupt "single-block fragment 0 while open"
    "block 2: fragment 0 arrived out of order (expected 1)" (fun () ->
      R.feed r ~pos:2 (List.hd single));
  expect_corrupt "multi-block fragment 0 while open"
    "block 3: fragment 0 arrived out of order (expected 1)" (fun () ->
      R.feed r ~pos:3 (nth multi 0));
  check_int "partial still open" 1 (R.pending r);
  List.iteri
    (fun i b ->
      if i > 0 then
        let got = R.feed r ~pos:(10 + i) b in
        if i = List.length multi - 1 then
          check "completes" true
            (got = Some (10 + i, String.make 300 'm'))
        else check "not yet" true (got = None))
    multi;
  check_int "drained" 0 (R.pending r);
  check "single block afterwards" true
    (R.feed r ~pos:20 (List.hd single) = Some (20, "s"));
  let b = Bytes.of_string (List.hd single) in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  expect_corrupt "checksum" "block 21 checksum mismatch" (fun () ->
      R.feed r ~pos:21 (Bytes.to_string b));
  expect_corrupt "truncated" "block 22 truncated" (fun () ->
      R.feed r ~pos:22 "abc")

let test_read_only_regions_become_refs () =
  (* A write touches one path; the rest of the tree must serialize as
     references, keeping intentions small. *)
  let snapshot = Helpers.genesis 10_000 in
  let draft =
    make_draft ~snapshot ~snapshot_pos:(-1) (fun e -> Executor.write e 5000 "v")
  in
  let size = Codec.encoded_size draft in
  check (Printf.sprintf "intention is small (%d bytes)" size) true (size < 2000);
  let assigned = I.assign ~pos:3 draft in
  check
    (Printf.sprintf "path-sized node count (%d)" assigned.I.node_count)
    true
    (assigned.I.node_count < 40)

(* Property: encode/decode roundtrip equals assign for random transactions. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"codec roundtrip = assign" ~count:100
    QCheck2.Gen.(
      pair (list_size (int_range 1 10) (int_bound 499))
        (list_size (int_range 0 6) (int_bound 499)))
    (fun (writes, reads) ->
      let snapshot = Helpers.genesis ~gap:3 500 in
      let draft =
        make_draft ~snapshot ~snapshot_pos:(-1) (fun e ->
            List.iter (fun k -> ignore (Executor.read e (k * 3))) reads;
            List.iter (fun k -> Executor.write e (k * 3) "w") writes)
      in
      let bytes = Codec.encode draft in
      let decoded =
        Codec.decode ~pos:11
          ~resolve:(fun ~snapshot:_ ~key ~vn:_ ->
            match Tree.find snapshot key with
            | Some n -> n
            | None -> Node.empty)
          bytes
      in
      Tree.physically_equal decoded.I.root (I.assign ~pos:11 draft).I.root)

let () =
  Alcotest.run "codec"
    [
      ( "intentions",
        [
          Alcotest.test_case "roundtrip = assign" `Quick
            test_roundtrip_matches_assign;
          Alcotest.test_case "SI smaller than SR" `Quick
            test_roundtrip_snapshot_isolation_smaller;
          Alcotest.test_case "rejects corruption" `Quick
            test_decode_rejects_corruption;
          Alcotest.test_case "untouched regions are refs" `Quick
            test_read_only_regions_become_refs;
        ] );
      ( "pooled paths",
        [
          Alcotest.test_case "peek_snapshot" `Quick test_peek_snapshot;
          Alcotest.test_case "decode_pooled = decode" `Quick
            test_decode_pooled_matches_decode;
          Alcotest.test_case "Encoder = encode" `Quick
            test_encoder_matches_encode;
          Alcotest.test_case "Encoder steady state allocates nothing extra"
            `Quick test_encoder_steady_state_allocation;
        ] );
      ( "blocks",
        [
          Alcotest.test_case "single block" `Quick test_blocks_roundtrip_single;
          Alcotest.test_case "multi block" `Quick test_blocks_roundtrip_multi;
          Alcotest.test_case "interleaved servers" `Quick
            test_blocks_interleaved_servers;
          Alcotest.test_case "checksum" `Quick test_blocks_checksum_detects_flip;
          Alcotest.test_case "byte-identical to two-writer framing" `Quick
            test_blocks_match_oracle;
          Alcotest.test_case "reassembly errors" `Quick
            test_blocks_reassembly_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_roundtrip ] );
    ]
