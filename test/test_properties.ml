(* Randomized end-to-end properties, complementing the fixed-seed scenarios
   in test_pipeline.ml:

   - arbitrary transaction streams (mixed isolation, stale snapshots,
     inserts, deletes) decided by meld == decided by the OCC oracle, and the
     final state equals the committed-writes replay;
   - the decisions are identical with premeld on;
   - block streams survive arbitrary single-byte corruption (CRC) and
     truncation without undefined behaviour;
   - tree mutators never break the structural invariants. *)

open Hyder_tree
module Executor = Hyder_core.Executor
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Oracle = Hyder_core.Oracle
module Codec = Hyder_codec.Codec
module I = Hyder_codec.Intention

(* ---------------- random stream vs oracle, via qcheck ---------------- *)

type op = R of int | W of int | D of int

type spec = { lag : int; ops : op list; si : bool }

let genesis_n = 150

let spec_gen =
  QCheck2.Gen.(
    let op =
      oneof
        [
          map (fun k -> R k) (int_bound (genesis_n - 1));
          map (fun k -> W k) (int_bound (genesis_n - 1));
          (* deletes target a small key range so delete/write/delete chains
             actually collide *)
          map (fun k -> D k) (int_bound 20);
        ]
    in
    map3
      (fun lag ops si -> { lag; ops; si })
      (int_bound 8)
      (list_size (int_range 1 6) op)
      bool)

let has_write spec =
  List.exists (function W _ | D _ -> true | R _ -> false) spec.ops

let replay ~config specs =
  let genesis = Helpers.genesis genesis_n in
  let p = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, -1, genesis) ] in
  let next_pos = ref 0 in
  let results = ref [] in
  let oracle = Oracle.create () in
  let model = Hashtbl.create 64 in
  for k = 0 to genesis_n - 1 do
    Hashtbl.replace model k (Payload.value ("v" ^ string_of_int k))
  done;
  let decisions = ref [] in
  List.iter
    (fun spec ->
      if has_write spec then begin
        let hist = !history in
        let lag = min spec.lag (List.length hist - 1) in
        let snapshot_seq, snapshot_pos, snapshot = List.nth hist lag in
        let isolation =
          if spec.si then I.Snapshot_isolation else I.Serializable
        in
        let e =
          Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:0
            ~isolation ()
        in
        (* reads of genesis keys that might be deleted: restrict validated
           reads to keys >= 30, which are never deleted, so the oracle
           comparison stays exact (absent-key reads are conservative). *)
        let reads = ref [] and writes = ref [] in
        List.iter
          (function
            | R k ->
                let k = 30 + (k mod (genesis_n - 30)) in
                ignore (Executor.read e k);
                reads := k :: !reads
            | W k ->
                Executor.write e k "w";
                writes := (k, Some "w") :: !writes
            | D k ->
                Executor.delete e k;
                writes := (k, None) :: !writes)
          spec.ops;
        match Executor.finish e with
        | None -> ()
        | Some draft ->
            next_pos := !next_pos + 2;
            let intention = I.assign ~pos:!next_pos draft in
            let expected =
              Oracle.decide oracle ~snapshot_seq ~isolation ~reads:!reads
                ~writes:(List.map fst !writes)
            in
            if expected then
              List.iter
                (fun (k, v) ->
                  match v with
                  | Some s -> Hashtbl.replace model k (Payload.value s)
                  | None -> Hashtbl.remove model k)
                (List.rev !writes);
            results := expected :: !results;
            decisions := Pipeline.submit p intention @ !decisions
      end;
      let seq, pos, tree = Pipeline.lcs p in
      history := (seq, pos, tree) :: !history)
    specs;
  decisions := Pipeline.flush p @ !decisions;
  let got =
    List.map
      (fun (d : Pipeline.decision) -> d.Pipeline.committed)
      (List.sort
         (fun (a : Pipeline.decision) b -> Int.compare a.Pipeline.seq b.Pipeline.seq)
         !decisions)
  in
  let _, _, final = Pipeline.lcs p in
  (List.rev !results, got, final, model)

let prop_stream_matches_oracle config =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "random stream == oracle (%s)"
         (match config.Pipeline.premeld with
         | Some _ -> "premeld"
         | None -> "plain"))
    ~count:60
    QCheck2.Gen.(list_size (int_range 1 60) spec_gen)
    (fun specs ->
      let expected, got, final, model = replay ~config specs in
      if expected <> got then
        QCheck2.Test.fail_reportf "decision mismatch: %s vs %s"
          (String.concat "" (List.map (fun b -> if b then "C" else "a") expected))
          (String.concat "" (List.map (fun b -> if b then "C" else "a") got));
      (* state equals model *)
      Hashtbl.iter
        (fun k v ->
          match Tree.lookup final k with
          | Some p when Payload.equal p v -> ()
          | other ->
              QCheck2.Test.fail_reportf "key %d: model %s, tree %s" k
                (match v with Payload.Value s -> s | _ -> "?")
                (match other with
                | Some (Payload.Value s) -> s
                | Some Payload.Tombstone -> "<dead>"
                | None -> "<absent>"))
        model;
      Tree.live_size final = Hashtbl.length model
      && Result.is_ok (Tree.validate final))

let prop_premeld_equals_plain =
  QCheck2.Test.make ~name:"premeld decisions == plain decisions" ~count:40
    QCheck2.Gen.(list_size (int_range 5 50) spec_gen)
    (fun specs ->
      let _, plain, final_plain, _ = replay ~config:Pipeline.plain specs in
      let _, pre, final_pre, _ =
        replay
          ~config:
            {
              Pipeline.premeld = Some { Premeld.threads = 3; distance = 2 };
              group_size = 1;
            }
          specs
      in
      plain = pre
      && Tree.to_alist final_plain = Tree.to_alist final_pre)

(* ---------------- codec robustness ---------------- *)

let make_blocks seed =
  let rng = Hyder_util.Rng.create (Int64.of_int seed) in
  let snapshot = Helpers.genesis 200 in
  let e =
    Executor.begin_txn ~snapshot_pos:(-1) ~snapshot ~server:1 ~txn_seq:seed
      ~isolation:I.Serializable ()
  in
  for _ = 1 to 5 do
    ignore (Executor.read e (Hyder_util.Rng.int rng 200));
    Executor.write e (Hyder_util.Rng.int rng 200) "x"
  done;
  let draft = Option.get (Executor.finish e) in
  Codec.Blocks.split ~block_size:256 ~server:1 ~txn_seq:seed
    (Codec.encode draft)

let prop_block_corruption_detected =
  QCheck2.Test.make ~name:"flipping any block byte raises Corrupt" ~count:200
    QCheck2.Gen.(triple (int_bound 1000) (int_bound 10_000) (int_range 1 255))
    (fun (seed, byte_pos, delta) ->
      let blocks = make_blocks seed in
      let blocks = Array.of_list blocks in
      let bi = byte_pos mod Array.length blocks in
      let b = Bytes.of_string blocks.(bi) in
      let off = byte_pos mod Bytes.length b in
      Bytes.set b off
        (Char.chr ((Char.code (Bytes.get b off) + delta) land 0xFF));
      blocks.(bi) <- Bytes.to_string b;
      let r = Codec.Blocks.Reassembler.create () in
      try
        Array.iteri
          (fun pos block ->
            ignore (Codec.Blocks.Reassembler.feed r ~pos block))
          blocks;
        false (* corruption must not slip through *)
      with Codec.Corrupt _ -> true)

let prop_block_truncation_detected =
  QCheck2.Test.make ~name:"truncating a block raises Corrupt" ~count:100
    QCheck2.Gen.(pair (int_bound 1000) (int_bound 10_000))
    (fun (seed, cut) ->
      let blocks = Array.of_list (make_blocks seed) in
      let bi = cut mod Array.length blocks in
      let b = blocks.(bi) in
      let keep = cut mod max 1 (String.length b - 1) in
      blocks.(bi) <- String.sub b 0 keep;
      let r = Codec.Blocks.Reassembler.create () in
      try
        Array.iteri
          (fun pos block ->
            ignore (Codec.Blocks.Reassembler.feed r ~pos block))
          blocks;
        false
      with Codec.Corrupt _ -> true)

(* ---------------- tree invariants under mixed mutation ---------------- *)

let prop_mutators_preserve_invariants =
  QCheck2.Test.make ~name:"mutators preserve tree invariants" ~count:150
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (pair (int_bound 5) (pair (int_bound 300) (int_bound 300))))
    (fun script ->
      let c = ref 0 in
      let fresh () =
        incr c;
        I.draft_vn ~idx:!c
      in
      let owner = I.draft_owner in
      let t =
        List.fold_left
          (fun t (kind, (a, b)) ->
            match kind with
            | 0 -> Tree.upsert t ~owner ~fresh a (Payload.value "v")
            | 1 -> Tree.upsert t ~owner ~fresh a Payload.tombstone
            | 2 -> Tree.touch_read t ~owner ~fresh a
            | 3 ->
                Tree.touch_range t ~owner ~fresh ~lo:(min a b) ~hi:(max a b)
            | 4 -> (
                match Tree.pred t a with
                | Some _ | None -> t)
            | _ -> (
                ignore (Tree.range_items t ~lo:(min a b) ~hi:(max a b));
                t))
          (Helpers.genesis ~gap:3 60)
          script
      in
      Result.is_ok (Tree.validate t))

(* ---------------- packed node metadata vs reference record ----------- *)

(* Reference implementation of the pre-packing per-node metadata: options
   and booleans, compared with [Vn.equal] — the semantics the packed
   [Node.Meta] bitfield must reproduce exactly.  Kept here, in the test,
   so the library carries only the packed form. *)
type ref_meta = {
  r_ssv : Vn.t option;
  r_scv : Vn.t option;
  r_altered : bool;
  r_dep_content : bool;
  r_dep_structure : bool;
  r_owner : int;
}

let ref_has_writes ~left ~right r =
  (* old smart-constructor rule: own write, insert (no ssv), or a
     same-owner child subtree with writes *)
  let child_writes c =
    (not (Node.is_empty c)) && Node.owner c = r.r_owner && Node.has_writes c
  in
  r.r_altered
  || (match r.r_ssv with None -> true | Some _ -> false)
  || child_writes left || child_writes right

(* The meld conflict tests the bitfield replaces: presence and equality of
   the packed source versions against a state node's versions. *)
let ref_scv_conflict r ~state_cv =
  match r.r_scv with None -> true | Some v -> not (Vn.equal v state_cv)

let ref_graftable r ~state_vn =
  match r.r_ssv with None -> false | Some v -> Vn.equal v state_vn

let vn_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun pos idx -> Vn.logged ~pos ~idx)
          (int_range (-1) 200) (int_bound 50);
        map2 (fun thread seq -> Vn.ephemeral ~thread ~seq)
          (int_bound 7) (int_bound 200);
      ])

let ref_meta_gen =
  QCheck2.Gen.(
    map3
      (fun (ssv, scv) (a, (dc, ds)) owner ->
        {
          r_ssv = ssv;
          r_scv = scv;
          r_altered = a;
          r_dep_content = dc;
          r_dep_structure = ds;
          r_owner = owner;
        })
      (pair (option vn_gen) (option vn_gen))
      (pair bool (pair bool bool))
      (oneofl [ -1; 0; 3; 77; I.draft_owner ]))

let node_of_ref ?(left = Node.empty) ?(right = Node.empty) ~vn ~cv r =
  Node.make ~key:1 ~payload:(Payload.value "p") ~left ~right ~vn ~cv
    ~ssv:r.r_ssv ~scv:r.r_scv ~altered:r.r_altered
    ~depends_on_content:r.r_dep_content ~depends_on_structure:r.r_dep_structure
    ~owner:r.r_owner

let prop_packed_meta_matches_reference =
  QCheck2.Test.make ~name:"packed Node.Meta == reference record semantics"
    ~count:2000
    QCheck2.Gen.(
      pair
        (pair ref_meta_gen (pair vn_gen vn_gen))
        (pair (pair vn_gen vn_gen) (pair ref_meta_gen ref_meta_gen)))
    (fun ((r, (vn, cv)), ((state_vn, state_cv), (rl, rr))) ->
      let opt_eq = Option.equal Vn.equal in
      (* leaf round-trip: every accessor recovers the reference fields *)
      let n = node_of_ref ~vn ~cv r in
      let roundtrip =
        opt_eq (Node.ssv n) r.r_ssv
        && opt_eq (Node.scv n) r.r_scv
        && Node.altered n = r.r_altered
        && Node.depends_on_content n = r.r_dep_content
        && Node.depends_on_structure n = r.r_dep_structure
        && Node.owner n = r.r_owner
        && Node.has_writes n
           = ref_has_writes ~left:Node.empty ~right:Node.empty r
      in
      (* the word tests meld uses decide exactly like the option compares,
         against a state node holding [state_vn]/[state_cv] *)
      let left = node_of_ref ~vn:state_vn ~cv:state_cv rl in
      let decisions =
        Node.ssv_is_vn n left = ref_graftable r ~state_vn
        && Node.scv_is_cv n left = not (ref_scv_conflict r ~state_cv)
      in
      (* has_writes summary over same/other-owner children *)
      let right = node_of_ref ~vn:state_vn ~cv:state_cv rr in
      let parent = node_of_ref ~left ~right ~vn ~cv r in
      let summary =
        Node.has_writes parent = ref_has_writes ~left ~right r
      in
      (* re-packing an existing node (the meld hot path's [pack] on carried
         meta words) changes nothing *)
      let repacked =
        Node.pack ~key:parent.Node.key ~payload:parent.Node.payload ~left
          ~right ~vn_a:parent.Node.vn_a ~vn_b:parent.Node.vn_b
          ~cv_a:parent.Node.cv_a ~cv_b:parent.Node.cv_b ~meta:parent.Node.meta
          ~ssv_a:parent.Node.ssv_a ~ssv_b:parent.Node.ssv_b
          ~scv_a:parent.Node.scv_a ~scv_b:parent.Node.scv_b
      in
      let stable = repacked.Node.meta = parent.Node.meta in
      roundtrip && decisions && summary && stable)

(* Versions across the whole word range the packed fields must carry:
   genesis (pos -1), small and large logged positions, ephemeral ids. *)
let wide_vn_gen =
  QCheck2.Gen.(
    let word = oneof [ int_bound 100; int_range 0 max_int; oneofl [ 0; max_int ] ] in
    oneof
      [
        map (fun idx -> Vn.genesis ~idx) word;
        map2 (fun pos idx -> Vn.logged ~pos ~idx)
          (oneof [ int_range (-1) 100; int_range 0 max_int ]) word;
        map2 (fun thread seq -> Vn.ephemeral ~thread ~seq) (int_bound 8) word;
        (* the same words in both classes: only the class bit differs *)
        map (fun w -> Vn.ephemeral ~thread:1 ~seq:w) word;
        map (fun w -> Vn.logged ~pos:1 ~idx:w) word;
      ])

let prop_packed_versions_roundtrip =
  QCheck2.Test.make ~name:"packed vn/cv/ssv/scv == boxed Vn.t" ~count:3000
    QCheck2.Gen.(
      pair
        (quad wide_vn_gen wide_vn_gen (option wide_vn_gen) (option wide_vn_gen))
        (pair (pair wide_vn_gen wide_vn_gen) (oneofl [ -1; 0; 5; I.draft_owner ])))
    (fun ((vn, cv, ssv, scv), ((mvn, mcv), owner)) ->
      let node ~vn ~cv ~ssv ~scv =
        Node.make ~key:3 ~payload:Payload.tombstone ~left:Node.empty
          ~right:Node.empty ~vn ~cv ~ssv ~scv ~altered:false
          ~depends_on_content:false ~depends_on_structure:false ~owner
      in
      let n = node ~vn ~cv ~ssv ~scv in
      let m = node ~vn:mvn ~cv:mcv ~ssv:None ~scv:None in
      let opt_eq = Option.equal Vn.equal in
      let is x = function Some y -> Vn.equal x y | None -> false in
      (* accessors rebuild exactly the boxed versions *)
      Vn.equal (Node.vn n) vn
      && Vn.equal (Node.cv n) cv
      && opt_eq (Node.ssv n) ssv
      && opt_eq (Node.scv n) scv
      && Node.owner n = owner
      (* the word comparators agree with Vn.equal *)
      && Node.vn_equals n mvn = Vn.equal vn mvn
      && Node.vn_equals n vn
      && Node.ssv_is_vn n m = is mvn ssv
      && Node.scv_is_cv n m = is mcv scv
      && Node.ssv_is_vn n n = is vn ssv
      && Node.scv_is_cv n n = is cv scv
      (* physical equality and the digest see the versions *)
      && Tree.physically_equal n (node ~vn ~cv ~ssv ~scv)
      && Tree.physically_equal n (node ~vn:mvn ~cv ~ssv ~scv)
         = Vn.equal vn mvn
      && String.equal (Tree.digest n) (Tree.digest (node ~vn ~cv:mcv ~ssv ~scv))
         = Vn.equal cv mcv)

let () =
  Alcotest.run "properties"
    [
      ( "end-to-end",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_stream_matches_oracle Pipeline.plain;
            prop_stream_matches_oracle
              {
                Pipeline.premeld = Some { Premeld.threads = 2; distance = 3 };
                group_size = 1;
              };
            prop_premeld_equals_plain;
          ] );
      ( "codec robustness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_block_corruption_detected; prop_block_truncation_detected ] );
      ( "tree invariants",
        List.map QCheck_alcotest.to_alcotest
          [ prop_mutators_preserve_invariants ] );
      ( "packed metadata",
        List.map QCheck_alcotest.to_alcotest
          [ prop_packed_meta_matches_reference; prop_packed_versions_roundtrip ] );
    ]
