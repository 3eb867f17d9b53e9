(* The flyweight view must be indistinguishable from the eager decoder:
   field by field through the accessors, node by node through
   materialization, decision by decision through the pipeline, and
   outcome by outcome on corrupt input.  DESIGN.md §13. *)

open Hyder_tree
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module View = Hyder_codec.View
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Rng = Hyder_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Reference children reachable from a materialized tree: the bound
   snapshot subtrees hanging off inside nodes. *)
let count_refs root v =
  let pos = View.pos v in
  let rec go (t : Node.tree) =
    if Node.is_empty t then 0
    else if Node.owner t <> pos then Tree.size t
    else go t.Node.left + go t.Node.right
  in
  go root

(* ---- random transactions over a fixed snapshot ----------------------- *)

let genesis_n = 500
let snapshot = Helpers.genesis ~gap:3 genesis_n

let resolve ~snapshot:_ ~key ~vn:_ =
  match Tree.find snapshot key with Some n -> n | None -> Node.empty

type txn = { reads : int list; writes : int list; dels : int list; si : bool }

let txn_gen =
  QCheck2.Gen.(
    let key = int_bound (genesis_n - 1) in
    map
      (fun (reads, writes, dels, si) -> { reads; writes; dels; si })
      (quad
         (list_size (int_range 0 6) key)
         (list_size (int_range 1 10) key)
         (list_size (int_range 0 3) key)
         bool))

(* Wire bytes for a random transaction; [None] when the executor elides
   it (e.g. every write cancelled by a delete of a missing key). *)
let encode_txn t =
  let isolation = if t.si then I.Snapshot_isolation else I.Serializable in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot ~server:3 ~txn_seq:17
      ~isolation ()
  in
  List.iter (fun k -> ignore (Executor.read e (k * 3))) t.reads;
  List.iter (fun k -> Executor.write e (k * 3) "w") t.writes;
  List.iter (fun k -> Executor.delete e (k * 3)) t.dels;
  match Executor.finish e with
  | Some d -> Some (Codec.encode d)
  | None -> None

let vn_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Vn.equal x y
  | _ -> false

(* A state-owned leaf whose vn and cv are both [x]: the comparison
   target for a known source version. *)
let with_version x =
  Node.make ~key:0 ~payload:Payload.tombstone ~left:Node.empty
    ~right:Node.empty ~vn:x ~cv:x ~ssv:None ~scv:None ~altered:false
    ~depends_on_content:false ~depends_on_structure:false
    ~owner:Node.state_owner

(* Every accessor agrees with the corresponding field of the eagerly
   decoded node, and materialization reproduces the eager tree.  Returns
   the first disagreement, if any. *)
let eager_mismatch ~peer ~resolve bytes =
  let exception Mismatch of string in
  let ok idx what b =
    if not b then raise (Mismatch (Printf.sprintf "node %d: %s disagrees" idx what))
  in
  try
    let eager, nodes = Codec.decode_indexed ~pos:11 ~resolve bytes in
    let li = Codec.decode_lazy ~pos:11 ~peer ~resolve bytes in
    let v =
      match li.I.view with
      | Some v -> v
      | None -> raise (Mismatch "decode_lazy carried no view")
    in
    if View.node_count v <> eager.I.node_count then
      raise (Mismatch "node_count disagrees");
    if
      not
        (li.I.snapshot = eager.I.snapshot
        && li.I.server = eager.I.server
        && li.I.txn_seq = eager.I.txn_seq
        && li.I.isolation = eager.I.isolation
        && li.I.byte_size = eager.I.byte_size)
    then raise (Mismatch "header disagrees");
    let kid_agrees idx what c (n : Node.tree) =
      if View.kid_is_empty c then ok idx what (Node.is_empty n)
      else if View.kid_is_inside c then ok idx what (n == nodes.(c))
      else ok idx what (n == View.ref_of v c)
    in
    Array.iteri
      (fun idx (n : Node.node) ->
        ok idx "key" (View.key v idx = n.Node.key);
        ok idx "meta" (View.meta v idx = n.Node.meta);
        ok idx "vn" (Vn.equal (View.vn v idx) (Node.vn n));
        let sa, sb, ca, cb = View.sources v idx in
        ok idx "sources"
          (sa = n.Node.ssv_a && sb = n.Node.ssv_b && ca = n.Node.scv_a
          && cb = n.Node.scv_b);
        ok idx "payload" (Payload.equal (View.payload v idx) n.Node.payload);
        ok idx "ssv" (vn_opt_equal (View.ssv v idx) (Node.ssv n));
        (* the in-place source comparators mirror the packed ones *)
        ok idx "ssv_is_vn self"
          (View.ssv_is_vn v idx n = Node.ssv_is_vn n n);
        (match Node.ssv n with
        | Some s -> ok idx "ssv_is_vn hit" (View.ssv_is_vn v idx (with_version s))
        | None -> ());
        ok idx "scv_is_cv self"
          (View.scv_is_cv v idx n = Node.scv_is_cv n n);
        (match Node.scv n with
        | Some s -> ok idx "scv_is_cv hit" (View.scv_is_cv v idx (with_version s))
        | None -> ());
        kid_agrees idx "left child" (View.kid_l v idx) n.Node.left;
        kid_agrees idx "right child" (View.kid_r v idx) n.Node.right)
      nodes;
    if Tree.physically_equal (View.materialize_root v) eager.I.root then None
    else Some "materialized tree differs"
  with Mismatch m -> Some m

let prop_view_matches_eager =
  QCheck2.Test.make ~name:"view accessors = eager decode, field by field"
    ~count:150 txn_gen (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes -> (
          match eager_mismatch ~peer:snapshot ~resolve bytes with
          | None -> true
          | Some m -> QCheck2.Test.fail_report m))

(* Every strict prefix of a valid encoding must be rejected with Corrupt
   — never accepted, never any other exception (pool/cursor state stays
   intact because parse fails before a view escapes). *)
let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every truncation raises Corrupt" ~count:40 txn_gen
    (fun t ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          for len = 0 to String.length bytes - 1 do
            match
              Codec.decode_lazy ~pos:5 ~peer:snapshot ~resolve
                (String.sub bytes 0 len)
            with
            | _ ->
                QCheck2.Test.fail_reportf "prefix of %d/%d bytes accepted" len
                  (String.length bytes)
            | exception Codec.Corrupt _ -> ()
          done;
          true)

(* Differential fuzz: after a single bit flip, lazy and eager must agree
   on the outcome — both reject with Corrupt, or both accept with
   physically identical trees.  (The two decoders may report different
   Corrupt messages first — the view defers reference binding to a
   second pass — but the accept/reject decision must match.) *)
let prop_bit_flip_differential =
  QCheck2.Test.make ~name:"bit flips: lazy and eager agree" ~count:120
    QCheck2.Gen.(pair txn_gen (pair big_nat (int_bound 7)))
    (fun (t, (posn, bit)) ->
      match encode_txn t with
      | None -> true
      | Some bytes ->
          let i = posn mod String.length bytes in
          let b = Bytes.of_string bytes in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          let s = Bytes.to_string b in
          let eager_r =
            match Codec.decode ~pos:5 ~resolve s with
            | d -> Some d
            | exception Codec.Corrupt _ -> None
          in
          let lazy_r =
            match Codec.decode_lazy ~pos:5 ~peer:snapshot ~resolve s with
            | d -> Some d
            | exception Codec.Corrupt _ -> None
          in
          match (eager_r, lazy_r) with
          | None, None -> true
          | Some e, Some l ->
              let v =
                match l.I.view with
                | Some v -> v
                | None -> QCheck2.Test.fail_report "no view"
              in
              if Tree.physically_equal e.I.root (View.materialize_root v) then
                true
              else
                QCheck2.Test.fail_reportf
                  "flip at byte %d bit %d: both accepted, trees differ" i bit
          | Some _, None ->
              QCheck2.Test.fail_reportf
                "flip at byte %d bit %d: eager accepted, lazy rejected" i bit
          | None, Some _ ->
              QCheck2.Test.fail_reportf
                "flip at byte %d bit %d: lazy accepted, eager rejected" i bit)

(* ---- the parse kernel's scratch ---------------------------------------- *)

let ref_count v =
  let n = ref 0 in
  for idx = 0 to View.node_count v - 1 do
    if View.kid_l v idx <= -2 then incr n;
    if View.kid_r v idx <= -2 then incr n
  done;
  !n

(* Scattered writes over a large snapshot: a wide path-copy whose
   untouched siblings become well over a thousand references — more
   than the per-domain scratch starts with, so parsing it on a fresh
   domain runs the growth path. *)
let test_scratch_growth () =
  let big = Helpers.genesis ~gap:2 40_000 in
  let resolve_big ~snapshot:_ ~key ~vn:_ =
    match Tree.find big key with Some n -> n | None -> Node.empty
  in
  let rng = Rng.create 77L in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:big ~server:1 ~txn_seq:3
      ~isolation:I.Serializable ()
  in
  for i = 1 to 1500 do
    let k = Rng.int rng 40_000 * 2 in
    if i mod 3 = 0 then ignore (Executor.read e k)
    else Executor.write e k "g"
  done;
  let bytes =
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> Alcotest.fail "expected a draft"
  in
  let result =
    Domain.join
      (Domain.spawn (fun () ->
           (* the domain's first parse is the one [eager_mismatch] checks *)
           let mismatch = eager_mismatch ~peer:big ~resolve:resolve_big bytes in
           let v = View.parse ~pos:11 ~peer:big ~resolve:resolve_big bytes in
           (ref_count v, mismatch)))
  in
  let nrefs, mismatch = result in
  check
    (Printf.sprintf "more than 1024 references (%d)" nrefs)
    true (nrefs > 1024);
  match mismatch with
  | None -> ()
  | Some m -> Alcotest.failf "growth path: %s" m

let wires_of_seed seed count =
  let gen = QCheck2.Gen.generate ~rand:(Random.State.make [| seed |]) ~n:count txn_gen in
  List.filter_map encode_txn gen

(* Every accessor of [a] equals [b]'s, and bound references and elided
   payloads are the same physical objects. *)
let same_view a b =
  let n = View.node_count a in
  n = View.node_count b
  && View.snapshot a = View.snapshot b
  && View.server a = View.server b
  && View.txn_seq a = View.txn_seq b
  && View.isolation_code a = View.isolation_code b
  && View.byte_size a = View.byte_size b
  && List.for_all
       (fun idx ->
         let kid c d =
           c = d && (c > -2 || View.ref_of a c == View.ref_of b d)
         in
         View.key a idx = View.key b idx
         && View.meta a idx = View.meta b idx
         && kid (View.kid_l a idx) (View.kid_l b idx)
         && kid (View.kid_r a idx) (View.kid_r b idx)
         && View.sources a idx = View.sources b idx
         && Payload.equal (View.payload a idx) (View.payload b idx))
       (List.init n Fun.id)
  && Tree.physically_equal (View.materialize_root a) (View.materialize_root b)

(* Two domains parse different intention streams at once (each through
   its own scratch); every view equals the sequential parse of the same
   bytes. *)
let test_concurrent_domains () =
  let streams = [| wires_of_seed 1 60; wires_of_seed 2 60 |] in
  let parse_all wires =
    List.map (fun w -> View.parse ~pos:11 ~peer:snapshot ~resolve w) wires
  in
  let parse_rounds wires =
    let last = ref [] in
    for _ = 1 to 20 do
      last := parse_all wires
    done;
    !last
  in
  let ds = Array.map (fun w -> Domain.spawn (fun () -> parse_rounds w)) streams in
  let concurrent = Array.map Domain.join ds in
  Array.iteri
    (fun d wires ->
      check "stream not trivial" true (List.length wires > 30);
      let seq = parse_all wires in
      check
        (Printf.sprintf "domain %d: views equal sequential parses" d)
        true
        (List.for_all2 same_view concurrent.(d) seq))
    streams

(* In steady state a parse allocates the view's own arrays and record and
   nothing else: no per-parse binding scratch, cursor or closures.  The
   intention is small enough that every array lives in the minor heap,
   and it only updates existing keys, so every reference binds against
   the snapshot without a resolver call. *)
let test_steady_state_allocation () =
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot ~server:3 ~txn_seq:17
      ~isolation:I.Serializable ()
  in
  List.iter (fun k -> ignore (Executor.read e (k * 3))) [ 10; 200 ];
  List.iter (fun k -> Executor.write e (k * 3) "w") [ 7; 99; 311; 480 ];
  let bytes =
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> Alcotest.fail "expected a draft"
  in
  let parse () = View.parse ~pos:11 ~peer:snapshot ~resolve bytes in
  let v = parse () in
  let n = View.node_count v and nrefs = ref_count v in
  check (Printf.sprintf "small intention (%d nodes)" n) true (n > 4 && n < 60);
  check "has references" true (nrefs > 0);
  let block words = if words = 0 then 0 else words + 1 in
  let expected =
    block (4 * n) (* hot *)
    + (2 * block (max 1 n)) (* offs, pays *)
    + block nrefs (* refs *)
    + block (Obj.size (Obj.repr v)) (* the view record *)
  in
  let bracket f =
    let w0 = Gc.minor_words () in
    let x = f () in
    let w1 = Gc.minor_words () in
    (x, int_of_float (w1 -. w0))
  in
  let _, overhead = bracket (fun () -> ()) in
  for _ = 1 to 5 do
    let v', words = bracket parse in
    check "parse is repeatable" true (same_view v v');
    Alcotest.(check int) "minor words = view arrays + record" expected
      (words - overhead)
  done

(* Materializing a view allocates the memo array, one 14-word block per
   node and each inline payload (its [Value] box and string) — nothing
   else: no [Vn.t] for a node's vn or cv, no source-word tuple. *)
let test_materialize_allocation () =
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot ~server:3 ~txn_seq:17
      ~isolation:I.Serializable ()
  in
  List.iter (fun k -> ignore (Executor.read e (k * 3))) [ 10; 200; 333 ];
  List.iter (fun k -> Executor.write e (k * 3) "written") [ 7; 99; 311; 480 ];
  Executor.delete e (42 * 3);
  let bytes =
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> Alcotest.fail "expected a draft"
  in
  let v = View.parse ~pos:11 ~peer:snapshot ~resolve bytes in
  let n = View.node_count v in
  check (Printf.sprintf "small intention (%d nodes)" n) true (n > 8 && n < 60);
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let root = View.materialize_root v in
  let w2 = Gc.minor_words () in
  let words = int_of_float (w2 -. w1 -. (w1 -. w0)) in
  check_int "every node materialized" n (Tree.size root - count_refs root v);
  let inline = ref 0 and payload_words = ref 0 in
  for idx = 0 to n - 1 do
    let m = View.meta v idx in
    let p = View.payload v idx in
    if m land Node.Meta.altered <> 0 && not (Payload.is_tombstone p) then begin
      incr inline;
      payload_words := !payload_words + Obj.reachable_words (Obj.repr p)
    end
  done;
  check "some payloads shipped inline" true (!inline > 0);
  check_int "minor words = memo + 14 per node + inline payloads"
    ((n + 1) + (14 * n) + !payload_words)
    words

(* Eager decode builds each node as one 14-word block beside its payload:
   over fresh inserts (no references, no elisions), one more node costs
   exactly 14 words plus its payload's 4 (a [Value] box and a one-word
   string). *)
let test_eager_decode_allocation () =
  let scratch = Codec.Scratch.create () in
  let wire nkeys =
    let e =
      Executor.begin_txn ~snapshot_pos:(-1) ~snapshot:Node.empty ~server:0
        ~txn_seq:nkeys ~isolation:I.Serializable ()
    in
    for k = 0 to nkeys - 1 do
      Executor.write e k "vvvv"
    done;
    match Executor.finish e with
    | Some d -> Codec.encode d
    | None -> Alcotest.fail "expected a draft"
  in
  let words s =
    ignore (Codec.decode_pooled ~scratch ~pos:1 ~resolve s);
    let w0 = Gc.minor_words () in
    let w1 = Gc.minor_words () in
    let i = Codec.decode_pooled ~scratch ~pos:1 ~resolve s in
    let w2 = Gc.minor_words () in
    (i.I.node_count, int_of_float (w2 -. w1 -. (w1 -. w0)))
  in
  let n1, w1 = words (wire 1) and n40, w40 = words (wire 40) in
  check_int "node counts" 39 (n40 - n1);
  check_int "minor words per extra node" (18 * 39) (w40 - w1)

(* ---- pipeline bit-identity: lazy vs eager across backends ------------ *)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

(* Record a deterministic wire stream with a sequential generator, then
   replay it lazily and eagerly on every backend: decisions, final tree
   and premeld visit counters must be bit-identical throughout. *)
let test_pipeline_lazy_eager_identical () =
  let config =
    { Pipeline.premeld = Some { Premeld.threads = 3; distance = 8 };
      group_size = 2 }
  in
  let n = 2000 in
  let genesis = Helpers.genesis n in
  let rng = Rng.create 4242L in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] in
  let hist_len = ref 1 in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to 399 do
    let lag = min (Rng.int rng 40) (!hist_len - 1) in
    let snapshot_pos, snap = List.nth !history lag in
    let isolation =
      if Rng.int rng 4 = 0 then I.Snapshot_isolation else I.Serializable
    in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot:snap ~server:0 ~txn_seq
        ~isolation ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Codec.encode draft in
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  let wires = List.rev !wires in
  check "stream not trivial" true (List.length wires > 150);
  let replay ~lazy_decode ~runtime =
    let p = Pipeline.create ~config ~runtime ~lazy_decode ~genesis () in
    let decisions = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
    let _, _, final = Pipeline.lcs p in
    let counts =
      Array.map
        (fun (s : Counters.stage) ->
          (s.Counters.intentions, s.Counters.nodes_visited))
        (Pipeline.counters p).Counters.premeld_shards
    in
    Pipeline.shutdown p;
    (decisions, final, counts)
  in
  let bd, bfinal, bcounts =
    replay ~lazy_decode:false ~runtime:Runtime.sequential
  in
  check "baseline decided everything" true (List.length bd = List.length wires);
  List.iter
    (fun (name, lazy_decode, runtime) ->
      let d, final, counts = replay ~lazy_decode ~runtime in
      check (name ^ ": decisions identical to eager seq") true
        (List.length d = List.length bd && List.for_all2 same_decision d bd);
      check (name ^ ": final tree physically identical") true
        (Tree.physically_equal final bfinal);
      check (name ^ ": premeld work identical") true (counts = bcounts))
    [
      ("lazy seq", true, Runtime.sequential);
      ("lazy pipe:2", true, Runtime.pipelined ~domains:2);
      ("lazy pipe:3", true, Runtime.pipelined ~domains:3);
      ("eager pipe:2", false, Runtime.pipelined ~domains:2);
    ]

let () =
  Alcotest.run "view"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_view_matches_eager;
            prop_truncation_rejected;
            prop_bit_flip_differential;
          ] );
      ( "kernel",
        [
          Alcotest.test_case "scratch growth binds as eager" `Quick
            test_scratch_growth;
          Alcotest.test_case "two domains = sequential" `Quick
            test_concurrent_domains;
          Alcotest.test_case "materialize allocates only node blocks" `Quick
            test_materialize_allocation;
          Alcotest.test_case "eager decode: one block per node" `Quick
            test_eager_decode_allocation;
          Alcotest.test_case "steady state allocates only the view" `Quick
            test_steady_state_allocation;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "lazy = eager across backends" `Quick
            test_pipeline_lazy_eager_identical;
        ] );
    ]
