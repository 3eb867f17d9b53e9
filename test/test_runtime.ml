(* The Runtime contract (Section 3.4): staging the pipeline onto domains
   changes wall-clock and nothing else.  Sequential and Pipelined backends
   must produce identical commit/abort decisions, identical ephemeral node
   identities (checked via physical tree equality), and identical premeld
   work counts, over randomized histories including group_size > 1 and
   premeld distance > 1.  Also unit-tests the stage-pool fabric, the
   runtime spec parser and the Clock the Pipelined backend is built
   from. *)

module Tree = Hyder_tree.Tree
module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Executor = Hyder_core.Executor
module I = Hyder_codec.Intention
module Codec = Hyder_codec.Codec
module Clock = Hyder_util.Clock
module Rng = Hyder_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let genesis_n = 2000

(* Record a deterministic intention stream by running a sequential
   pipeline.  Snapshots lag 0..79 states behind the LCS, so the stream
   mixes premeld-skipped (designated state predates snapshot) with
   genuinely premeld-bound intentions; writes land in a small key range
   so real conflicts and aborts occur.

   The generator is wire-fed, like a real replica: each draft is encoded
   and the generator melds the *decoded* intention.  The log is the wire
   — executors take snapshots of wire-built states, so the payload
   elisions and version references the encoder emits resolve on any
   replica that replays the same bytes, and every replay world (decoded
   or re-fed with these same intention objects) evolves isomorphically
   to the generator's. *)
let make_stream ~config ~txns ~seed =
  let genesis = Helpers.genesis genesis_n in
  let rng = Rng.create (Int64.of_int seed) in
  let gen = Pipeline.create ~config ~genesis () in
  let history = ref [ (-1, genesis) ] (* newest first *) in
  let hist_len = ref 1 in
  let intentions = ref [] in
  let wires = ref [] in
  let next_pos = ref 0 in
  for txn_seq = 0 to txns - 1 do
    let lag = min (Rng.int rng 80) (!hist_len - 1) in
    let snapshot_pos, snapshot = List.nth !history lag in
    let isolation =
      if Rng.int rng 4 = 0 then I.Snapshot_isolation else I.Serializable
    in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq ~isolation
        ()
    in
    for _ = 1 to Rng.int rng 3 do
      ignore (Executor.read e (Rng.int rng genesis_n))
    done;
    for _ = 1 to 1 + Rng.int rng 2 do
      Executor.write e (Rng.int rng genesis_n) (Printf.sprintf "w%d" txn_seq)
    done;
    match Executor.finish e with
    | None -> ()
    | Some draft ->
        next_pos := !next_pos + 1 + Rng.int rng 2;
        let src = Codec.encode draft in
        let intention = Pipeline.decode gen ~pos:!next_pos src in
        intentions := intention :: !intentions;
        wires := (!next_pos, src) :: !wires;
        ignore (Pipeline.submit gen intention);
        let _, pos, tree = Pipeline.lcs gen in
        history := (pos, tree) :: !history;
        incr hist_len
  done;
  ignore (Pipeline.flush gen);
  (genesis, List.rev !intentions, List.rev !wires)

(* Replay a recorded stream through a fresh pipeline, feeding
   [submit_batch] in slabs of [slab] intentions. *)
let replay ~config ~runtime ~slab genesis intentions =
  let p = Pipeline.create ~config ~runtime ~genesis () in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> acc
    | l ->
        let batch, rest = take slab [] l in
        go (List.rev_append (Pipeline.submit_batch p batch) acc) rest
  in
  let decisions = List.rev (go [] intentions) @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let pm_counts =
    Array.map
      (fun (s : Counters.stage) -> (s.Counters.intentions, s.Counters.nodes_visited))
      (Pipeline.counters p).Counters.premeld_shards
  in
  Pipeline.shutdown p;
  (decisions, final, pm_counts)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq
  && a.Pipeline.pos = b.Pipeline.pos
  && a.Pipeline.committed = b.Pipeline.committed
  && a.Pipeline.reason = b.Pipeline.reason
  && a.Pipeline.decided_at = b.Pipeline.decided_at

(* Replay a recorded stream from its wire form, feeding
   [submit_wire_batch] in slabs of [slab] encoded intentions. *)
let replay_wire ~config ~runtime ~slab genesis wires =
  let p = Pipeline.create ~config ~runtime ~genesis () in
  let rec take k acc = function
    | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> acc
    | l ->
        let batch, rest = take slab [] l in
        go (List.rev_append (Pipeline.submit_wire_batch p batch) acc) rest
  in
  let decisions = List.rev (go [] wires) @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let pm_counts =
    Array.map
      (fun (s : Counters.stage) -> (s.Counters.intentions, s.Counters.nodes_visited))
      (Pipeline.counters p).Counters.premeld_shards
  in
  let off = Pipeline.offload p in
  Pipeline.shutdown p;
  (decisions, final, pm_counts, off)

let compare_to_baseline ~name ~bd ~bfinal ~bcounts (d, final, counts) =
  check (name ^ ": decision count") true (List.length d = List.length bd);
  check (name ^ ": decisions identical") true
    (List.for_all2 same_decision d bd);
  check (name ^ ": final state physically identical") true
    (Tree.physically_equal final bfinal);
  check (name ^ ": per-thread premeld work identical") true (counts = bcounts)

let check_backends ?(wire_runs = []) ~config ~txns ~seed ~runs () =
  let genesis, intentions, wires = make_stream ~config ~txns ~seed in
  check "stream not trivial" true (List.length intentions > txns / 2);
  let bd, bfinal, bcounts =
    replay ~config ~runtime:Runtime.sequential ~slab:max_int genesis intentions
  in
  check_int "every intention decided" (List.length intentions)
    (List.length bd);
  if config.Pipeline.premeld <> None then
    check "premeld actually ran" true
      (Array.exists (fun (n, _) -> n > 0) bcounts);
  List.iter
    (fun (name, runtime, slab) ->
      compare_to_baseline ~name ~bd ~bfinal ~bcounts
        (replay ~config ~runtime ~slab genesis intentions))
    runs;
  (* Wire-fed runs: decisions must match the in-memory baseline exactly
     (the semantic contract), but trees and visit counters are compared
     against a wire-fed *sequential* baseline.  Meld's pointer-sharing
     shortcuts make the physical output depend on how the intention's
     outside pointers alias the replica's own state nodes, and a decoded
     stream aliases differently from an assign-fed one — what must hold
     is that every backend agrees bit-for-bit on the same feed. *)
  (if wire_runs <> [] then
     let wd, wfinal, wcounts, _ =
       replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis
         wires
     in
     check "wire baseline: decision count" true
       (List.length wd = List.length bd);
     check "wire baseline: decisions identical to in-memory" true
       (List.for_all2 same_decision wd bd);
     List.iter
       (fun (name, runtime, slab) ->
         let d, final, counts, off =
           replay_wire ~config ~runtime ~slab genesis wires
         in
         compare_to_baseline ~name ~bd:wd ~bfinal:wfinal ~bcounts:wcounts
           (d, final, counts);
         match off with
         | None -> ()
         | Some o ->
             check (name ^ ": every decode accounted") true
               (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline
               = List.length intentions);
             check (name ^ ": queue depth bounded") true
               (o.Pipeline.max_queue_depth <= o.Pipeline.queue_capacity))
       wire_runs)

(* The paper's configuration: 5 premeld threads, distance 10, groups of
   2 — windows span group boundaries and the snapshot-visibility
   arithmetic inside a window is fully exercised. *)
let test_paper_config () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
        group_size = 2;
      }
    ~txns:400 ~seed:7
    ~runs:
      [
        ("seq slab 1", Runtime.sequential, 1);
        ("pipe:2 slab 1", Runtime.pipelined ~domains:2, 1);
        ("pipe:1", Runtime.pipelined ~domains:1, max_int);
        ("pipe:2 slab 37", Runtime.pipelined ~domains:2, 37);
        ("pipe:4", Runtime.pipelined ~domains:4, max_int);
      ]
    ~wire_runs:
      [
        ("wire seq slab 19", Runtime.sequential, 19);
        ("wire pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("wire pipe:3 slab 23", Runtime.pipelined ~domains:3, 23);
      ]
    ()

let test_small_distance () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 1 };
        group_size = 1;
      }
    ~txns:300 ~seed:21
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 5", Runtime.pipelined ~domains:2, 5);
      ]
    ~wire_runs:[ ("wire pipe:2", Runtime.pipelined ~domains:2, max_int) ]
    ()

let test_big_groups () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 3; distance = 2 };
        group_size = 4;
      }
    ~txns:300 ~seed:33
    ~runs:
      [
        ("pipe:2 slab 11", Runtime.pipelined ~domains:2, 11);
        ("pipe:3", Runtime.pipelined ~domains:3, max_int);
      ]
    ~wire_runs:[ ("wire pipe:3 slab 11", Runtime.pipelined ~domains:3, 11) ]
    ()

(* group_size = threads*distance + 1, the boundary of the retention
   arithmetic: just before a group completes, every state a premeld
   could designate is still pending, so pipelined windows shrink all the
   way down to a single intention — and must still match the inline
   scheduler bit for bit.  (group_size beyond this bound is unsupported:
   premeld-bound intentions would designate states the group assembly
   has not recorded yet, under either backend.) *)
let test_group_at_window_bound () =
  check_backends
    ~config:
      {
        Pipeline.premeld = Some { Premeld.threads = 2; distance = 2 };
        group_size = 5;
      }
    ~txns:200 ~seed:55
    ~runs:
      [
        ("pipe:2", Runtime.pipelined ~domains:2, max_int);
        ("pipe:2 slab 3", Runtime.pipelined ~domains:2, 3);
      ]
    ()

let test_premeld_off () =
  check_backends
    ~config:{ Pipeline.premeld = None; group_size = 2 }
    ~txns:200 ~seed:77
    ~runs:[ ("pipe:2", Runtime.pipelined ~domains:2, max_int) ]
    ~wire_runs:[ ("wire pipe:2 slab 7", Runtime.pipelined ~domains:2, 7) ]
    ()

(* One giant wire burst through the pipelined backend: the bounded SPSC
   queues must absorb it with backpressure (peak depth within capacity),
   work must actually be offloaded, and the decisions must still match
   the sequential baseline. *)
let test_pipelined_burst () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:500 ~seed:11 in
  let bd, _, _ =
    replay ~config ~runtime:Runtime.sequential ~slab:max_int genesis intentions
  in
  let wd, wfinal, wcounts, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check "burst wire baseline: decisions identical to in-memory" true
    (List.length wd = List.length bd && List.for_all2 same_decision wd bd);
  let d, final, counts, off =
    replay_wire ~config
      ~runtime:(Runtime.pipelined ~domains:2)
      ~slab:max_int genesis wires
  in
  compare_to_baseline ~name:"burst pipe:2" ~bd:wd ~bfinal:wfinal
    ~bcounts:wcounts (d, final, counts);
  match off with
  | None -> Alcotest.fail "pipelined replay reported no offload stats"
  | Some o ->
      check "queues actually used" true (o.Pipeline.max_queue_depth > 0);
      check "queue depth bounded by capacity" true
        (o.Pipeline.max_queue_depth <= o.Pipeline.queue_capacity);
      check "some decodes offloaded" true (o.Pipeline.ds_offloaded > 0);
      check "every decode accounted" true
        (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline
        = List.length intentions);
      check "worker ds time measured" true (o.Pipeline.worker_ds_seconds > 0.0)

(* The batched-handoff slab sweep: batching only delays when jobs are
   published, so a bursty wire replay must be bit-identical to the
   sequential baseline whether slabs trickle in one intention at a time
   (every round flushes a partial batch), arrive in slabs of 17 (a mix of
   full and partial flushes) or as one giant burst (flush-at-threshold
   dominates).  No publication may carry more than the fixed batch. *)
let test_handoff_slab_sweep () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:300 ~seed:99 in
  let wd, wfinal, wcounts, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check_int "sweep baseline decided everything" (List.length intentions)
    (List.length wd);
  List.iter
    (fun slab ->
      let name = Printf.sprintf "pipe:2 slab %d" (min slab 999_999) in
      let d, final, counts, off =
        replay_wire ~config ~runtime:(Runtime.pipelined ~domains:2) ~slab
          genesis wires
      in
      compare_to_baseline ~name ~bd:wd ~bfinal:wfinal ~bcounts:wcounts
        (d, final, counts);
      match off with
      | None -> Alcotest.fail (name ^ ": no offload stats")
      | Some o ->
          check (name ^ ": publications recorded") true
            (o.Pipeline.handoff_batches > 0);
          check (name ^ ": items cover publications") true
            (o.Pipeline.handoff_items >= o.Pipeline.handoff_batches);
          check (name ^ ": no publication exceeds the handoff batch") true
            (o.Pipeline.handoff_items <= 8 * o.Pipeline.handoff_batches))
    [ 1; 17; max_int ]

(* Satellite of the batched-handoff work: one steady-state round of the
   stage-pool fabric — batched submit, worker exec, batched drain — must
   allocate nothing on the driver domain.  Jobs and results are
   immediates here, so every word the bracket sees would come from the
   handoff machinery itself (ring slots are preallocated, publications
   are index stores, the doorbell is an atomic bump).  Gc.minor_words
   is per-domain in OCaml 5: worker-side allocation cannot leak into
   the bracket. *)
let test_stage_pool_handoff_allocates_nothing () =
  let domains = 2 in
  let pool =
    Runtime.Stage_pool.create ~queue:8 ~domains ~dummy_job:(-1)
      ~dummy_result:(-1)
      ~exec:(fun ~worker:_ j -> j + 1)
      ()
  in
  Fun.protect ~finally:(fun () -> Runtime.Stage_pool.shutdown pool)
  @@ fun () ->
  let cap = Runtime.Stage_pool.queue_capacity pool in
  let buf = Array.init cap (fun i -> i) in
  let out = Array.make cap (-1) in
  let total = domains * cap in
  let got = ref 0 in
  let short = ref false in
  (* One round: fill every worker's (empty) job ring in a single batched
     publication each, then spin-drain every result.  All buffers and
     refs are preallocated — the loop body itself must not cons. *)
  let round () =
    for w = 0 to domains - 1 do
      if
        Runtime.Stage_pool.submit_batch pool ~worker:w buf ~len:cap <> cap
      then short := true
    done;
    got := 0;
    while !got < total do
      for w = 0 to domains - 1 do
        got := !got + Runtime.Stage_pool.result_batch pool ~worker:w out ~max:cap
      done;
      if !got < total then Domain.cpu_relax ()
    done
  in
  (* Warm the rings, the workers and the condvar paths out of the
     measurement. *)
  for _ = 1 to 50 do
    round ()
  done;
  let rounds = 200 in
  let mw0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let delta = Gc.minor_words () -. mw0 in
  check "rings never refused a full-capacity batch" false !short;
  check "last round drained" true (!got = total);
  (* Budget covers only the Gc.minor_words probe's own float boxing; a
     single word allocated per handoff round would cost 200+. *)
  check
    (Printf.sprintf
       "steady-state handoff allocated ~nothing on the driver (%.0f words \
        over %d rounds)"
       delta rounds)
    true
    (delta < 64.0)

(* Tracing must stay observational under the pipelined backend too:
   decisions, trees and counters bit-identical with the recorder on or
   off, with offloaded spans landing on worker rings. *)
let test_pipelined_trace_inert () =
  let config =
    {
      Pipeline.premeld = Some { Premeld.threads = 3; distance = 4 };
      group_size = 2;
    }
  in
  let genesis, intentions, wires = make_stream ~config ~txns:200 ~seed:43 in
  let bd, _, _ =
    replay ~config ~runtime:Runtime.sequential ~slab:max_int genesis intentions
  in
  let wd, bfinal, bcounts, _ =
    replay_wire ~config ~runtime:Runtime.sequential ~slab:max_int genesis wires
  in
  check "traced wire baseline: decisions identical to in-memory" true
    (List.length wd = List.length bd && List.for_all2 same_decision wd bd);
  let trace = Hyder_obs.Trace.create ~shards:3 ~workers:2 () in
  let p =
    Pipeline.create ~config ~runtime:(Runtime.pipelined ~domains:2)
      ~trace ~genesis ()
  in
  let d = Pipeline.submit_wire_batch p wires @ Pipeline.flush p in
  let _, _, final = Pipeline.lcs p in
  let counts =
    Array.map
      (fun (s : Counters.stage) -> (s.Counters.intentions, s.Counters.nodes_visited))
      (Pipeline.counters p).Counters.premeld_shards
  in
  Pipeline.shutdown p;
  compare_to_baseline ~name:"traced pipe:2" ~bd:wd ~bfinal ~bcounts
    (d, final, counts);
  let spans = Hyder_obs.Trace.spans trace in
  check "spans recorded" true (spans <> []);
  check "offloaded ds spans land on worker rings" true
    (List.exists
       (fun (s : Hyder_obs.Trace.span) ->
         s.Hyder_obs.Trace.track > 3
         && s.Hyder_obs.Trace.stage = Hyder_obs.Trace.Deserialize)
       spans);
  (* a recorder with too few worker rings must be rejected up front *)
  let small = Hyder_obs.Trace.create ~shards:3 ~workers:1 () in
  match
    Pipeline.create ~config ~runtime:(Runtime.pipelined ~domains:2)
      ~trace:small ~genesis ()
  with
  | exception Invalid_argument _ -> ()
  | p ->
      Pipeline.shutdown p;
      Alcotest.fail "trace with too few worker rings accepted"

(* After [shutdown] the worker domains are joined, so a pipelined batch
   submit must fail fast instead of queueing jobs no worker will ever
   pop.  Each call runs on a helper domain and must raise within a
   bounded time; a hang fails the test rather than the whole suite.  The
   failed calls must not touch pipeline state: sequential [submit] then
   replays the stream to the sequential baseline's decisions. *)
let raises_invalid_within ~seconds f =
  let outcome = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set outcome
          (Some
             (match f () with
             | _ -> "returned"
             | exception Invalid_argument _ -> "Invalid_argument"
             | exception e -> Printexc.to_string e)))
  in
  let deadline = Clock.now () +. seconds in
  while Atomic.get outcome = None && Clock.now () < deadline do
    Unix.sleepf 0.005
  done;
  match Atomic.get outcome with
  | None -> Alcotest.failf "still blocked after %.0f s" seconds
  | Some r ->
      Domain.join d;
      r

let test_batch_after_shutdown_raises () =
  let config = { Pipeline.premeld = None; group_size = 2 } in
  let genesis, intentions, wires = make_stream ~config ~txns:12 ~seed:5 in
  let intentions = List.filteri (fun i _ -> i < 8) intentions in
  let wires = List.filteri (fun i _ -> i < 8) wires in
  check_int "eight intentions" 8 (List.length intentions);
  let bd, _, _ =
    replay ~config ~runtime:Runtime.sequential ~slab:max_int genesis intentions
  in
  let p =
    Pipeline.create ~config ~runtime:(Runtime.pipelined ~domains:2) ~genesis
      ()
  in
  Pipeline.shutdown p;
  Alcotest.(check string)
    "submit_batch after shutdown" "Invalid_argument"
    (raises_invalid_within ~seconds:10.0 (fun () ->
         Pipeline.submit_batch p intentions));
  Alcotest.(check string)
    "submit_wire_batch after shutdown" "Invalid_argument"
    (raises_invalid_within ~seconds:10.0 (fun () ->
         Pipeline.submit_wire_batch p wires));
  let d = List.concat_map (Pipeline.submit p) intentions @ Pipeline.flush p in
  check "sequential submit still works after shutdown" true
    (List.length d = List.length bd && List.for_all2 same_decision d bd);
  Pipeline.shutdown p (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Clock and Runtime descriptors                                        *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let prev = ref (Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Clock.now () in
    check "never goes backwards" true (t >= !prev);
    prev := t
  done;
  check "elapsed is non-negative" true (Clock.elapsed (Clock.now ()) >= 0.0)

let test_runtime_parse () =
  check "seq" true (Runtime.parse "seq" = Ok Runtime.sequential);
  check "sequential" true
    (Runtime.parse "sequential" = Ok Runtime.sequential);
  check "pipe:4" true
    (Runtime.parse "pipe:4" = Ok (Runtime.pipelined ~domains:4));
  check "bare pipe" true
    (Runtime.parse "pipe" = Ok (Runtime.pipelined ~domains:2));
  check "pipelined:3" true
    (Runtime.parse "pipelined:3" = Ok (Runtime.pipelined ~domains:3));
  (match Runtime.parse "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse accepted garbage");
  (match Runtime.parse "pipe:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parse accepted pipe:0");
  (* The removed backend and scheduling knobs are rejected, and the
     error names the two specs that remain. *)
  List.iter
    (fun spec ->
      check (spec ^ " rejected, naming seq | pipe:<n>") true
        (Runtime.parse spec
        = Error
            (Printf.sprintf "unknown runtime %S (want seq | pipe:<n>)" spec)))
    [ "par:2"; "pipe:4:32"; "pipe:2:adaptive" ];
  check "round-trip" true
    (Runtime.to_string (Runtime.pipelined ~domains:4) = "pipe:4"
    && Runtime.to_string Runtime.sequential = "seq");
  check "canonical strings re-parse to themselves" true
    (List.for_all
       (fun s ->
         match Runtime.parse s with
         | Ok b -> Runtime.to_string b = s
         | Error _ -> false)
       [ "seq"; "pipe:1"; "pipe:4" ]);
  match Runtime.pipelined ~domains:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pipelined ~domains:0 accepted"

let () =
  Alcotest.run "runtime"
    [
      ( "cross-backend determinism",
        [
          Alcotest.test_case "paper config (t=5 d=10 g=2)" `Quick
            test_paper_config;
          Alcotest.test_case "small distance" `Quick test_small_distance;
          Alcotest.test_case "big groups" `Quick test_big_groups;
          Alcotest.test_case "group at the window bound" `Quick
            test_group_at_window_bound;
          Alcotest.test_case "premeld off" `Quick test_premeld_off;
        ] );
      ( "pipelined backend",
        [
          Alcotest.test_case "bursty wire batch, bounded queues" `Quick
            test_pipelined_burst;
          Alcotest.test_case "handoff slab {1,17,max} sweep" `Quick
            test_handoff_slab_sweep;
          Alcotest.test_case "stage-pool handoff round allocates nothing"
            `Quick test_stage_pool_handoff_allocates_nothing;
          Alcotest.test_case "tracing stays observational" `Quick
            test_pipelined_trace_inert;
          Alcotest.test_case "batch submits raise after shutdown" `Quick
            test_batch_after_shutdown_raises;
        ] );
      ( "clock and descriptors",
        [
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
          Alcotest.test_case "runtime parse/print" `Quick test_runtime_parse;
        ] );
    ]
