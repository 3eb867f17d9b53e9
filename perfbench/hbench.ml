(* Benchmark program for Hyder's roll-forward, transaction and recovery
   paths.  It calls only the public API (Pipeline, Executor, Codec,
   Mem_log, Pipeline.checkpoint/restore), generates each workload from
   --seed, runs it under [seq] and [pipe:<n>] (n = max 1 (cores - 1)),
   checks every decision and final state, and prints one JSON object
   with the timing metrics.  --trace 1 adds the counter-based per-layer
   metrics and dumps one span per call into a layer to
   <out>/<workload>-<seed>.spans.tsv for analyze.py.

   Usage: hbench.exe --workload replay|oltp|recover --seed N --seconds S
                     --trace 0|1 [--out DIR]

   See README.md beside this file for why each workload exists. *)

module Pipeline = Hyder_core.Pipeline
module Premeld = Hyder_core.Premeld
module Runtime = Hyder_core.Runtime
module Counters = Hyder_core.Counters
module Executor = Hyder_core.Executor
module Checkpoint = Hyder_core.Checkpoint
module Codec = Hyder_codec.Codec
module I = Hyder_codec.Intention
module Mem_log = Hyder_log.Mem_log
module Tree = Hyder_tree.Tree
module Node = Hyder_tree.Node
module Payload = Hyder_tree.Payload
module Rng = Hyder_util.Rng
module Dist = Hyder_util.Dist
module Clock = Hyder_util.Clock
module Summary = Hyder_util.Stats.Summary
module Reassembler = Codec.Blocks.Reassembler

(* The paper's pipeline: premeld t=5, d=10, group meld of 2. *)
let config =
  { Pipeline.premeld = Some { Premeld.threads = 5; distance = 10 };
    group_size = 2 }

let slab = 256
let keep_states = 160 (* > snapshot lag (80) + premeld floor (t*d+2) *)
let clients = 32
let nproc = Domain.recommended_domain_count ()
let pipe_n = max 1 (nproc - 1)

type mode = Seq | Pipe

let mname = function Seq -> "seq" | Pipe -> "pipe"

let backend = function
  | Seq -> Runtime.sequential
  | Pipe -> Runtime.pipelined ~domains:pipe_n

(* The clock a repetition is timed by.  seq does all its work on this
   domain, so it is timed by the process's CPU time: on an idle machine
   that equals wall time, and on a shared host it leaves out the time the
   host ran something else instead of this process.  pipe is timed by the
   wall clock, because its domains run at once. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let clock_of = function Seq -> cpu_now | Pipe -> Clock.now
let timer = ref cpu_now
let now () = !timer ()
let since t0 = now () -. t0

(* ---------------------------------------------------------------------- *)
(* Spans, kept in memory and written out when the run ends                  *)
(* ---------------------------------------------------------------------- *)

module Span = struct
  let on = ref false
  let pass = ref 0
  let pass_names = [| "setup"; "seq"; "pipe"; "recovery.seq"; "recovery.pipe" |]
  let names = ref [||]

  let id s =
    names := Array.append !names [| s |];
    Array.length !names - 1

  let rep = id "bench.rep"
  let setup = id "bench.setup"
  let exec = id "executor.txn"
  let encode = id "codec.encode"
  let split = id "codec.split"
  let reassemble = id "codec.reassemble"
  let append = id "log.append"
  let read = id "log.read"
  let decode = id "pipeline.decode"
  let submit = id "pipeline.submit"
  let flush = id "pipeline.flush"
  let slab = id "pipeline.submit_wire_batch"
  let prune = id "pipeline.prune"
  let capture = id "checkpoint.capture"
  let retry = id "checkpoint.retry"
  let restore = id "checkpoint.restore"

  type buf = {
    mutable len : int;
    mutable name : int array;
    mutable pass : int array;
    mutable parent : int array;
    mutable req : int array;
    mutable t0 : Float.Array.t;
    mutable t1 : Float.Array.t;
    mutable w0 : Float.Array.t;
    mutable w1 : Float.Array.t;
  }

  let b =
    { len = 0; name = [||]; pass = [||]; parent = [||]; req = [||];
      t0 = Float.Array.create 0; t1 = Float.Array.create 0;
      w0 = Float.Array.create 0; w1 = Float.Array.create 0 }

  let current = ref (-1)

  let grow () =
    let cap = max 4096 (2 * b.len) in
    let ext a = Array.append a (Array.make (cap - b.len) 0) in
    let fext a = Float.Array.append a (Float.Array.make (cap - b.len) 0.) in
    b.name <- ext b.name;
    b.pass <- ext b.pass;
    b.parent <- ext b.parent;
    b.req <- ext b.req;
    b.t0 <- fext b.t0;
    b.t1 <- fext b.t1;
    b.w0 <- fext b.w0;
    b.w1 <- fext b.w1

  (* [enter] returns -1 when tracing is off, so an untraced run pays one
     branch per call site and no clock read. *)
  let enter name req =
    if not !on then -1
    else begin
      if b.len = Array.length b.name then grow ();
      let i = b.len in
      b.len <- i + 1;
      b.name.(i) <- name;
      b.pass.(i) <- !pass;
      b.parent.(i) <- !current;
      b.req.(i) <- req;
      current := i;
      Float.Array.unsafe_set b.w0 i (Gc.minor_words ());
      Float.Array.unsafe_set b.t0 i (Clock.now ());
      i
    end

  let leave i =
    if i >= 0 then begin
      Float.Array.unsafe_set b.t1 i (Clock.now ());
      Float.Array.unsafe_set b.w1 i (Gc.minor_words ());
      current := b.parent.(i)
    end

  let rename i name = if i >= 0 then b.name.(i) <- name

  (* Minor words an empty enter/leave pair itself allocates (the boxed
     clock reading), subtracted from every span in the dump. *)
  let bracket_words () =
    let was = !on in
    on := true;
    let i = enter rep 0 in
    leave i;
    let w = Float.Array.get b.w1 i -. Float.Array.get b.w0 i in
    b.len <- i;
    on := was;
    w

  let dump path =
    let oc = open_out path in
    let base = if b.len = 0 then 0. else Float.Array.get b.t0 0 in
    let ns t = Int64.of_float ((t -. base) *. 1e9) in
    let bw = bracket_words () in
    output_string oc "id\tname\tpass\tparent\treq\tstart_ns\tend_ns\tminor_words\n";
    for i = 0 to b.len - 1 do
      Printf.fprintf oc "%d\t%s\t%s\t%d\t%d\t%Ld\t%Ld\t%.0f\n" i
        !names.(b.name.(i)) pass_names.(b.pass.(i)) b.parent.(i) b.req.(i)
        (ns (Float.Array.get b.t0 i)) (ns (Float.Array.get b.t1 i))
        (Float.max 0. (Float.Array.get b.w1 i -. Float.Array.get b.w0 i -. bw))
    done;
    close_out oc
end

(* ---------------------------------------------------------------------- *)
(* Workload data                                                            *)
(* ---------------------------------------------------------------------- *)

(* Genesis payloads come from a pool of 64 distinct strings so a
   1M-key store stays a few hundred MB; key k holds pool.(k land 63). *)
let payload_pool len =
  Array.init 64 (fun i -> String.init len (fun j -> Char.chr (97 + ((i + j) mod 26))))

let make_genesis ~keys pool =
  Tree.of_sorted_array
    (Array.init keys (fun k -> (k, Payload.value pool.(k land 63))))

let value ~txn ~key len =
  let b = Bytes.make len '.' in
  let tag = Printf.sprintf "%d:%d:" txn key in
  Bytes.blit_string tag 0 b 0 (min len (String.length tag));
  Bytes.unsafe_to_string b

(* What the validator needs of one intention, keyed by log position. *)
type info = {
  snapshot : int;
  rkeys : int list;
  wkeys : int array;
  wvals : string array;
}

(* A stream workload (replay, recover): recorded once in setup. *)
type stream_spec = {
  keys : int;
  payload : int;
  zipf : float option;
  reads : int;
  writes : int;
  lag : int;  (* snapshot lag ~ U[0, lag) intentions *)
  length : int;  (* intentions in the recorded log *)
  every : int;  (* > 0: checkpoint every [every] intentions, timed *)
  ckpt_at : int;  (* every = 0: one untimed checkpoint at this index *)
  suffix : int;  (* intentions replayed after a crash *)
}

let replay_spec =
  { keys = 50_000; payload = 100; zipf = None; reads = 2; writes = 2;
    lag = 80; length = 8192; every = 0; ckpt_at = 4096; suffix = 2048 }

let recover_spec =
  { keys = 50_000; payload = 100; zipf = Some 0.6; reads = 4; writes = 4;
    lag = 80; length = (2 * 4096) + 2048 + 256; every = 4096; ckpt_at = 0;
    suffix = 2048 }

type oltp_spec = {
  okeys : int;
  opayload : int;
  txns : int;  (* per repetition; even ones update (8R+2W), odd ones read 10 *)
  ockpt_at : int;
  osuffix : int;
}

let oltp_spec =
  { okeys = 1_000_000; opayload = 128; txns = 4000; ockpt_at = 512;
    osuffix = 1024 }

(* ---------------------------------------------------------------------- *)
(* The log path: encode -> split -> append, and read -> reassemble          *)
(* ---------------------------------------------------------------------- *)

(* Returns the intention's log position (that of its last block) and its
   encoded bytes. *)
let append_intention log enc ~txn draft =
  let s = Span.enter Span.encode txn in
  let src = Codec.Encoder.encode enc draft in
  Span.leave s;
  let s = Span.enter Span.split txn in
  let blocks =
    Codec.Blocks.split ~block_size:(Mem_log.block_size log) ~server:0
      ~txn_seq:txn src
  in
  Span.leave s;
  let pos =
    List.fold_left
      (fun _ blk ->
        let s = Span.enter Span.append txn in
        let pos = Mem_log.append log blk in
        Span.leave s;
        pos)
      (-1) blocks
  in
  (pos, src)

(* [Some (intention position, bytes)] when block [pos] completes one. *)
let read_block log reasm pos =
  let s = Span.enter Span.read pos in
  let blk = Mem_log.read log pos in
  Span.leave s;
  let s = Span.enter Span.reassemble pos in
  let r = Reassembler.feed reasm ~pos blk in
  Span.leave s;
  r

(* ---------------------------------------------------------------------- *)
(* Feeding a pipeline, with checkpoints and the crash reference             *)
(* ---------------------------------------------------------------------- *)

type crash_ref = {
  ckpt : Checkpoint.t;
  crash_pos : int;  (* log position of the last intention before the crash *)
  lcs : int * int * Tree.t;  (* uncrashed state at that point *)
}

type feeder = {
  p : Pipeline.t;
  fmode : mode;
  traced : bool;
  base_seq : int;
  dec : Pipeline.decision option array;  (* by seq - base_seq *)
  mutable fails : int;
  mutable fed : int;
  mutable last_pos : int;
  every : int;
  mutable next_ckpt : int;
  timed : bool;  (* false: checkpoint time is excluded from the rep *)
  mutable paused : float;
  suffix : int;  (* > 0: record the crash reference [suffix] past a checkpoint *)
  mutable open_ref : (Checkpoint.t * int) option;
  mutable last_ref : crash_ref option;
}

let feeder ?(every = 0) ?(next_ckpt = max_int) ?(timed = true) ?(suffix = 0)
    ~base_seq ~size ~traced fmode p =
  { p; fmode; traced; base_seq; dec = Array.make size None; fails = 0;
    fed = 0; last_pos = -1; every; next_ckpt; timed; paused = 0.; suffix;
    open_ref = None; last_ref = None }

let note f (d : Pipeline.decision) =
  let i = d.Pipeline.seq - f.base_seq in
  if i < 0 || i >= Array.length f.dec then f.fails <- f.fails + 1
  else
    match f.dec.(i) with
    | Some _ -> f.fails <- f.fails + 1 (* decided twice *)
    | None -> f.dec.(i) <- Some d

(* Traced seq calls decode and submit per intention, so ds and the meld
   tail are timed apart; that is the work submit_wire_batch does under
   seq.  Everything else hands the slab to submit_wire_batch. *)
let submit_segment f items lo hi =
  if f.traced && f.fmode = Seq then begin
    let acc = ref [] in
    for k = lo to hi - 1 do
      let pos, src = items.(k) in
      let s = Span.enter Span.decode pos in
      let it = Pipeline.decode f.p ~pos src in
      Span.leave s;
      let s = Span.enter Span.submit pos in
      let ds = Pipeline.submit f.p it in
      Span.leave s;
      acc := List.rev_append ds !acc
    done;
    List.rev !acc
  end
  else begin
    let batch = Array.to_list (Array.sub items lo (hi - lo)) in
    let s = Span.enter Span.slab lo in
    let ds = Pipeline.submit_wire_batch f.p batch in
    Span.leave s;
    ds
  end

let try_checkpoint f =
  let t0 = now () in
  let s = Span.enter Span.capture f.fed in
  let r = Pipeline.checkpoint f.p in
  Span.leave s;
  if not f.timed then f.paused <- f.paused +. since t0;
  match r with
  | None ->
      Span.rename s Span.retry;
      f.next_ckpt <- f.fed + 1
  | Some ck ->
      if f.suffix > 0 then f.open_ref <- Some (ck, f.fed);
      f.next_ckpt <-
        (if f.every > 0 then ((f.fed / f.every) + 1) * f.every else max_int)

(* Submit items [lo, hi), cutting the slab where a checkpoint is due or
   where the crash reference must be read.  Cuts change which call
   returns a decision, never the decision itself. *)
let feed f items lo hi =
  let rec go lo acc =
    if lo >= hi then List.rev acc
    else begin
      let stop = ref hi in
      let bound b =
        if b > f.fed && f.fed + (!stop - lo) > b then stop := lo + (b - f.fed)
      in
      bound f.next_ckpt;
      Option.iter (fun (_, at) -> bound (at + f.suffix)) f.open_ref;
      let ds = submit_segment f items lo !stop in
      List.iter (note f) ds;
      f.fed <- f.fed + (!stop - lo);
      f.last_pos <- fst items.(!stop - 1);
      (match f.open_ref with
      | Some (ckpt, at) when f.fed = at + f.suffix ->
          f.last_ref <-
            Some { ckpt; crash_pos = f.last_pos; lcs = Pipeline.lcs f.p };
          f.open_ref <- None
      | _ -> ());
      if f.fed >= f.next_ckpt then try_checkpoint f;
      go !stop (List.rev_append ds acc)
    end
  in
  go lo []

let flush f =
  let s = Span.enter Span.flush f.fed in
  let ds = Pipeline.flush f.p in
  Span.leave s;
  List.iter (note f) ds;
  ds

let prune f =
  let s = Span.enter Span.prune f.fed in
  Pipeline.prune f.p ~keep:keep_states;
  Span.leave s

let missing f =
  Array.fold_left (fun n d -> if Option.is_none d then n + 1 else n) 0 f.dec

(* ---------------------------------------------------------------------- *)
(* Correctness checks                                                       *)
(* ---------------------------------------------------------------------- *)

let same_decision (a : Pipeline.decision) (b : Pipeline.decision) =
  a.Pipeline.seq = b.Pipeline.seq && a.pos = b.pos && a.committed = b.committed
  && a.decided_at = b.decided_at && a.reason = b.reason

(* Decisions of [dec] (offset [base]) that differ from the reference. *)
let diff_decisions ~reference ~base dec =
  let n = ref 0 in
  Array.iteri
    (fun i d ->
      match (d, reference.(base + i)) with
      | Some a, Some b when same_decision a b -> ()
      | None, _ -> () (* counted as missing *)
      | _ -> incr n)
    dec;
  !n

(* The benchmark's own backward validator, fed meld's commit set in log
   order: a committed intention must have no read or written key
   overwritten after its snapshot by a committed intention, and the final
   tree must equal genesis plus the committed writes.  Returns
   (failures, aborts the validator would have committed). *)
let validate ~info ~pool ~keys (dec : Pipeline.decision option array) final =
  let last = Hashtbl.create 4096 and model = Hashtbl.create 4096 in
  let fails = ref 0 and unforced = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some (d : Pipeline.decision) -> (
          match Hashtbl.find_opt info d.Pipeline.pos with
          | None -> incr fails
          | Some i ->
              let stale k =
                match Hashtbl.find_opt last k with
                | Some wp -> wp > i.snapshot
                | None -> false
              in
              let overwritten =
                List.exists stale i.rkeys || Array.exists stale i.wkeys
              in
              if d.committed then begin
                if overwritten then incr fails;
                Array.iteri
                  (fun j k ->
                    Hashtbl.replace last k d.pos;
                    Hashtbl.replace model k i.wvals.(j))
                  i.wkeys
              end
              else if not overwritten then incr unforced))
    dec;
  let seen = ref 0 in
  Tree.iter final (fun nd ->
      incr seen;
      let want =
        match Hashtbl.find_opt model nd.Node.key with
        | Some v -> v
        | None -> pool.(nd.Node.key land 63)
      in
      match nd.Node.payload with
      | Payload.Value s when String.equal s want -> ()
      | _ -> incr fails);
  if !seen <> keys then incr fails;
  (!fails, !unforced)

(* ---------------------------------------------------------------------- *)
(* Results of one repetition                                                *)
(* ---------------------------------------------------------------------- *)

type rep = {
  mode : mode;
  secs : float;  (* by the mode's clock, checkpoint pauses left out *)
  melded : int;
  committed : int;  (* committed transactions, read-only ones included *)
  lat : float array;  (* commit latency of each melded intention, s *)
  dec : Pipeline.decision option array;
  final : Tree.t;
  counters : Counters.t;
  offload : Pipeline.offload_stats option;
  gc : Gc.stat * Gc.stat;
  wire_bytes : int;
  log_bytes : int;
  user_bytes : int;
  fails : int;
  steal : float;  (* share of CPU time the hypervisor took during the rep *)
  crash : crash_ref option;
  ologref : (Mem_log.t * (int, info) Hashtbl.t) option;
}

(* Called by a rep just before it shuts its pipeline down, while the
   pipeline's state is still live. *)
let heap_probe = ref ignore

let commits dec =
  Array.fold_left
    (fun n d ->
      match d with Some { Pipeline.committed = true; _ } -> n + 1 | _ -> n)
    0 dec

(* ---------------------------------------------------------------------- *)
(* replay / recover: setup records the log, reps roll it forward            *)
(* ---------------------------------------------------------------------- *)

type stream = {
  spec : stream_spec;
  pool : string array;
  genesis : Tree.t;
  log : Mem_log.t;
  items : (int * string) array;  (* (intention position, bytes), log order *)
  idx_of_pos : int array;
  info : (int, info) Hashtbl.t;
  gen_dec : Pipeline.decision option array;  (* the recording pipeline's *)
  gen_final : Tree.t;
  user_bytes : int;
  setup_fails : int;
}

let record spec ~seed =
  let pool = payload_pool spec.payload in
  let genesis = make_genesis ~keys:spec.keys pool in
  let rng = Rng.create (Int64.of_int seed) in
  let key =
    match spec.zipf with
    | Some theta ->
        let d = Dist.scrambled_zipfian ~theta ~n:spec.keys () in
        fun () -> Dist.sample d rng
    | None -> fun () -> Rng.int rng spec.keys
  in
  let gen = Pipeline.create ~config ~genesis () in
  let f = feeder ~base_seq:0 ~size:spec.length ~traced:false Seq gen in
  let log = Mem_log.create () in
  let enc = Codec.Encoder.create () in
  let ring = Array.make spec.lag (-1, genesis) in
  let hlen = ref 1 in
  let srcs = Array.make spec.length "" in
  let info = Hashtbl.create spec.length in
  let user_bytes = ref 0 in
  for k = 0 to spec.length - 1 do
    let lag = min (Rng.int rng spec.lag) (!hlen - 1) in
    let snapshot_pos, snapshot = ring.((!hlen - 1 - lag) mod spec.lag) in
    let s = Span.enter Span.exec k in
    let e =
      Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:k
        ~isolation:I.Serializable ()
    in
    for _ = 1 to spec.reads do
      ignore (Executor.read e (key ()))
    done;
    let wkeys = Array.init spec.writes (fun _ -> key ()) in
    let wvals = Array.map (fun key -> value ~txn:k ~key spec.payload) wkeys in
    Array.iteri (fun j key -> Executor.write e key wvals.(j)) wkeys;
    let rkeys = Executor.reads e in
    let draft = Option.get (Executor.finish e) in
    Span.leave s;
    let pos, src = append_intention log enc ~txn:k draft in
    srcs.(k) <- src;
    user_bytes := !user_bytes + (spec.writes * spec.payload);
    Hashtbl.replace info pos { snapshot = snapshot_pos; rkeys; wkeys; wvals };
    List.iter (note f) (Pipeline.submit gen (Pipeline.decode gen ~pos src));
    if k land 255 = 255 then Pipeline.prune gen ~keep:keep_states;
    let _, lpos, ltree = Pipeline.lcs gen in
    ring.(!hlen mod spec.lag) <- (lpos, ltree);
    incr hlen
  done;
  List.iter (note f) (Pipeline.flush gen);
  let _, _, gen_final = Pipeline.lcs gen in
  (* Read the recorded log back: this is the stream every rep replays. *)
  let reasm = Reassembler.create () in
  let items = Array.make spec.length (0, "") in
  let n = ref 0 and fails = ref (f.fails + missing f) in
  for pos = 0 to Mem_log.length log - 1 do
    match read_block log reasm pos with
    | Some (ipos, bytes) ->
        if !n >= spec.length || not (String.equal bytes srcs.(!n)) then
          incr fails
        else items.(!n) <- (ipos, bytes);
        incr n
    | None -> ()
  done;
  if !n <> spec.length then fails := !fails + abs (spec.length - !n);
  let idx_of_pos = Array.make (Mem_log.length log) (-1) in
  Array.iteri (fun i (pos, _) -> idx_of_pos.(pos) <- i) items;
  { spec; pool; genesis; log; items; idx_of_pos; info; gen_dec = f.dec;
    gen_final; user_bytes = !user_bytes; setup_fails = !fails }

let stream_rep st ~mode ~traced ~reference =
  let spec = st.spec in
  let n = Array.length st.items in
  let p = Pipeline.create ~config ~runtime:(backend mode) ~genesis:st.genesis () in
  let f =
    if spec.every > 0 then
      feeder ~every:spec.every ~next_ckpt:spec.every
        ~suffix:(if reference then spec.suffix else 0)
        ~base_seq:0 ~size:n ~traced mode p
    else if reference || traced then
      feeder ~next_ckpt:spec.ckpt_at ~timed:false
        ~suffix:(if reference then spec.suffix else 0)
        ~base_seq:0 ~size:n ~traced mode p
    else feeder ~base_seq:0 ~size:n ~traced mode p
  in
  let t_sub = Array.make n 0. in
  let lat = Array.make n 0. and nlat = ref 0 in
  let sample tr =
    List.iter (fun (d : Pipeline.decision) ->
        if !nlat < n then begin
          lat.(!nlat) <- tr -. t_sub.(st.idx_of_pos.(d.Pipeline.pos));
          incr nlat
        end)
  in
  let g0 = Gc.quick_stat () in
  let root = Span.enter Span.rep 0 in
  let t0 = now () in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + slab) in
    Array.fill t_sub !lo (hi - !lo) (now ());
    let ds = feed f st.items !lo hi in
    sample (now ()) ds;
    prune f;
    lo := hi
  done;
  let ds = flush f in
  sample (now ()) ds;
  let secs = since t0 -. f.paused in
  Span.leave root;
  let g1 = Gc.quick_stat () in
  let _, _, final = Pipeline.lcs p in
  let offload = Pipeline.offload p in
  let counters = Counters.copy (Pipeline.counters p) in
  !heap_probe ();
  Pipeline.shutdown p;
  let fails =
    f.fails + missing f
    + diff_decisions ~reference:st.gen_dec ~base:0 f.dec
    + if Tree.physically_equal final st.gen_final then 0 else 1
  in
  { mode; secs; melded = n - missing f; committed = commits f.dec;
    lat = Array.sub lat 0 !nlat; dec = f.dec; final; counters; offload;
    gc = (g0, g1);
    wire_bytes = Array.fold_left (fun a (_, s) -> a + String.length s) 0 st.items;
    log_bytes = Mem_log.bytes_appended st.log; user_bytes = st.user_bytes;
    fails; steal = 0.; crash = f.last_ref; ologref = None }

(* ---------------------------------------------------------------------- *)
(* oltp: a closed loop of 32 logical clients in one thread                  *)
(* ---------------------------------------------------------------------- *)

type oltp = { o : oltp_spec; opool : string array; ogenesis : Tree.t; oseed : int }

let oltp_setup ~seed =
  let o = oltp_spec in
  let opool = payload_pool o.opayload in
  { o; opool; ogenesis = make_genesis ~keys:o.okeys opool; oseed = seed }

(* Each client executes against the current last committed state; its
   intention travels encode -> split -> append -> read -> reassemble ->
   submit_wire_batch, and the client waits for the decision.  Read-only
   transactions commit at finish.  The stream depends on decisions, so
   seq and pipe generate the same bytes only if they decide alike. *)
let oltp_rep w ~mode ~traced ~reference =
  let o = w.o in
  let p = Pipeline.create ~config ~runtime:(backend mode) ~genesis:w.ogenesis () in
  let log = Mem_log.create () in
  let reasm = Reassembler.create () in
  let enc = Codec.Encoder.create () in
  let rng = Rng.create (Int64.of_int w.oseed) in
  let nint = (o.txns + 1) / 2 in
  let f =
    if reference || traced then
      feeder ~next_ckpt:o.ockpt_at ~timed:false
        ~suffix:(if reference then o.osuffix else 0)
        ~base_seq:0 ~size:nint ~traced mode p
    else feeder ~base_seq:0 ~size:nint ~traced mode p
  in
  let info = Hashtbl.create (if reference then nint else 1) in
  let waiting = Array.make clients false in
  let t_begin = Array.make clients 0. in
  let client_of = Array.make o.txns 0 in
  let lat = Array.make nint 0. and nlat = ref 0 in
  let issued = ref 0 and finished = ref 0 and ro = ref 0 in
  let cursor = ref 0 and wire_bytes = ref 0 and user_bytes = ref 0 in
  let stuck = ref false in
  let g0 = Gc.quick_stat () in
  let root = Span.enter Span.rep 0 in
  let t0 = now () in
  while !finished < o.txns && not !stuck do
    for c = 0 to clients - 1 do
      while (not waiting.(c)) && !issued < o.txns do
        let k = !issued in
        incr issued;
        let _, snapshot_pos, snapshot = Pipeline.lcs p in
        let tb = now () in
        let s = Span.enter Span.exec k in
        let e =
          Executor.begin_txn ~snapshot_pos ~snapshot ~server:0 ~txn_seq:k
            ~isolation:I.Serializable ()
        in
        let update = k land 1 = 0 in
        for _ = 1 to (if update then 8 else 10) do
          ignore (Executor.read e (Rng.int rng o.okeys))
        done;
        let wkeys =
          if update then Array.init 2 (fun _ -> Rng.int rng o.okeys) else [||]
        in
        let wvals = Array.map (fun key -> value ~txn:k ~key o.opayload) wkeys in
        Array.iteri (fun j key -> Executor.write e key wvals.(j)) wkeys;
        let rkeys = if reference then Executor.reads e else [] in
        let draft = Executor.finish e in
        Span.leave s;
        match draft with
        | None ->
            incr finished;
            incr ro
        | Some d ->
            let pos, src = append_intention log enc ~txn:k d in
            if reference then
              Hashtbl.replace info pos { snapshot = snapshot_pos; rkeys; wkeys; wvals };
            wire_bytes := !wire_bytes + String.length src;
            user_bytes := !user_bytes + (2 * o.opayload);
            waiting.(c) <- true;
            t_begin.(c) <- tb;
            client_of.(k) <- c
      done
    done;
    (* The server rolls the log forward. *)
    let items = ref [] in
    let len = Mem_log.length log in
    while !cursor < len do
      Option.iter (fun it -> items := it :: !items) (read_block log reasm !cursor);
      incr cursor
    done;
    let items = Array.of_list (List.rev !items) in
    let ds =
      if Array.length items = 0 then flush f
      else feed f items 0 (Array.length items)
    in
    prune f;
    if ds = [] && Array.length items = 0 then stuck := true;
    let tr = now () in
    List.iter
      (fun (d : Pipeline.decision) ->
        let c = client_of.(d.Pipeline.txn_seq) in
        if !nlat < nint then begin
          lat.(!nlat) <- tr -. t_begin.(c);
          incr nlat
        end;
        waiting.(c) <- false;
        incr finished)
      ds
  done;
  let secs = since t0 -. f.paused in
  Span.leave root;
  let g1 = Gc.quick_stat () in
  let _, _, final = Pipeline.lcs p in
  let offload = Pipeline.offload p in
  let counters = Counters.copy (Pipeline.counters p) in
  !heap_probe ();
  Pipeline.shutdown p;
  { mode; secs; melded = nint - missing f; committed = commits f.dec + !ro;
    lat = Array.sub lat 0 !nlat; dec = f.dec; final; counters; offload;
    gc = (g0, g1); wire_bytes = !wire_bytes;
    log_bytes = Mem_log.bytes_appended log; user_bytes = !user_bytes;
    fails = f.fails + missing f + (if !stuck then 1 else 0);
    steal = 0.;
    crash = f.last_ref;
    ologref = (if reference then Some (log, info) else None) }

(* ---------------------------------------------------------------------- *)
(* Recovery: restore the checkpoint, replay the log suffix                  *)
(* ---------------------------------------------------------------------- *)

let recovery_rep ~mode ~traced ~log ~(crash : crash_ref) ~reference =
  let ck = crash.ckpt in
  let t0 = now () in
  let root = Span.enter Span.rep 0 in
  let s = Span.enter Span.restore ck.Checkpoint.seq in
  let p = Pipeline.restore ~config ~runtime:(backend mode) ck in
  Span.leave s;
  let f =
    feeder ~base_seq:(ck.Checkpoint.seq + 1)
      ~size:(Array.length reference - ck.Checkpoint.seq - 1)
      ~traced mode p
  in
  let reasm = Reassembler.create () in
  let buf = ref [] and nbuf = ref 0 in
  let drain () =
    let items = Array.of_list (List.rev !buf) in
    buf := [];
    nbuf := 0;
    ignore (feed f items 0 (Array.length items));
    prune f
  in
  for pos = ck.Checkpoint.pos + 1 to crash.crash_pos do
    Option.iter
      (fun it ->
        buf := it :: !buf;
        incr nbuf;
        if !nbuf = slab then drain ())
      (read_block log reasm pos)
  done;
  if !nbuf > 0 then drain ();
  let secs = since t0 in
  Span.leave root;
  let rseq, rpos, rtree = Pipeline.lcs p in
  let eseq, epos, etree = crash.lcs in
  Pipeline.shutdown p;
  let fails =
    f.fails
    + diff_decisions ~reference ~base:(ck.Checkpoint.seq + 1) f.dec
    + if rseq = eseq && rpos = epos && Tree.physically_equal rtree etree then 0
      else 1
  in
  (secs, fails)

(* ---------------------------------------------------------------------- *)
(* Orchestration                                                            *)
(* ---------------------------------------------------------------------- *)

let t_start = Clock.now ()

(* (steal, total) CPU ticks summed over all CPUs since boot, from
   /proc/stat: steal is time the hypervisor ran something else while this
   guest had work.  (0, 0) where /proc/stat is not available. *)
let cpu_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = input_line ic in
    close_in ic;
    match
      String.split_on_char ' ' line
      |> List.filter (fun w -> w <> "")
      |> List.tl |> List.map int_of_string
    with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ as f ->
        (steal, List.fold_left ( + ) 0 f)
    | _ -> (0, 0)
  with Sys_error _ | End_of_file | Failure _ -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 > t0 then float (s1 - s0) /. float (t1 - t0) else 0.

(* The reps a mode's timings are taken from.  seq is timed by CPU time,
   which steal does not reach, so all of its reps count.  pipe is timed by
   the wall clock, and when the host is busy it slows by far more than the
   CPU time taken from it, so only the half of its reps that ran with the
   least steal count: one busy stretch would otherwise decide the median. *)
let timed_reps mode steal xs =
  match mode with
  | Seq -> xs
  | Pipe ->
      List.filteri
        (fun i _ -> i < (List.length xs + 1) / 2)
        (List.stable_sort (fun a b -> compare (steal a) (steal b)) xs)

let progress fmt =
  Printf.ksprintf
    (fun m ->
      let mb w = w * (Sys.word_size / 8) / 1048576 in
      let g = Gc.quick_stat () in
      Printf.eprintf "[hbench %7.2fs] %s (major heap %d MB, peak %d MB)\n%!"
        (Clock.elapsed t_start) m (mb g.Gc.heap_words) (mb g.Gc.top_heap_words))
    fmt

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float n)) - 1)))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and out = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "replay|oltp|recover");
      ("--seed", Arg.Set_int seed, "generator seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "span dump directory") ]
    (fun a -> raise (Arg.Bad a))
    "hbench.exe --workload W --seed N --seconds S --trace 0|1";
  let traced_run = !trace = 1 in
  (* Setup three times and report the median CPU time; the copies must
     agree. *)
  let setups = 3 in
  let timed_setup build =
    let times = ref [] and first = ref None in
    for i = 1 to setups do
      Span.on := traced_run && i = 1;
      Span.pass := 0;
      let t0 = cpu_now () in
      let s = Span.enter Span.setup i in
      let x = build () in
      Span.leave s;
      times := (cpu_now () -. t0) :: !times;
      if Option.is_none !first then first := Some x;
      Gc.full_major ()
    done;
    Span.on := false;
    (Option.get !first, median !times)
  in
  let stream, oltp, setup_s, setup_fails =
    match !workload with
    | "replay" | "recover" ->
        let spec = if !workload = "replay" then replay_spec else recover_spec in
        let st, setup_s =
          let copies = ref [] in
          let st, t =
            timed_setup (fun () ->
                let st = record spec ~seed:!seed in
                copies := st.items :: !copies;
                st)
          in
          let same = List.for_all (fun it -> it = st.items) !copies in
          ({ st with setup_fails = st.setup_fails + if same then 0 else 1 }, t)
        in
        (Some st, None, setup_s, st.setup_fails)
    | "oltp" ->
        let w, setup_s = timed_setup (fun () -> oltp_setup ~seed:!seed) in
        (None, Some w, setup_s, 0)
    | w ->
        prerr_endline ("hbench: unknown workload " ^ w);
        exit 2
  in
  (* Settle the heap: setup garbage must not be collected inside a
     measured repetition. *)
  progress "setup %s: median %.3fs of %d" !workload setup_s setups;
  Gc.compact ();
  let run_rep ~mode ~traced ~reference =
    Gc.compact ();
    Span.on := traced;
    Span.pass := (match mode with Seq -> 1 | Pipe -> 2);
    timer := clock_of mode;
    let k0 = cpu_ticks () and w0 = Clock.now () in
    let r =
      match (stream, oltp) with
      | Some st, _ -> stream_rep st ~mode ~traced ~reference
      | None, Some w -> oltp_rep w ~mode ~traced ~reference
      | None, None -> assert false
    in
    Span.on := false;
    let r = { r with steal = steal_share k0 (cpu_ticks ()) } in
    progress "%s%s rep: %d intentions in %.3fs (wall %.3fs), steal %.3f"
      (mname mode) (if traced then " traced" else "") r.melded r.secs
      (Clock.elapsed w0) r.steal;
    r
  in
  let attempted = ref (if stream <> None then 3 else 0) in
  let failed = ref setup_fails in
  let reps = ref [] and traced_reps = ref [] in
  let count r =
    attempted := !attempted + r.melded + (r.committed - commits r.dec);
    failed := !failed + r.fails
  in
  (* The first seq rep is the reference: it records the crash point, and
     under oltp its decisions and final tree are what pipe must match. *)
  let ref_rep = run_rep ~mode:Seq ~traced:false ~reference:true in
  count ref_rep;
  (* Recovery: crash at a fixed offset past the last checkpoint, restore,
     replay the suffix.  It runs first, so the checkpoint (for oltp a
     compacted copy of the whole 1M-key store) is garbage before the
     throughput reps. *)
  let crash = ref_rep.crash and reference = ref_rep.dec in
  let log =
    match (stream, ref_rep.ologref) with
    | Some st, _ -> st.log
    | None, Some (l, _) -> l
    | None, None -> assert false
  in
  let recov = ref [] in
  (match crash with
  | None -> incr failed
  | Some crash ->
      let deadline = Clock.now () +. (0.3 *. !seconds) in
      let rec loop () =
        List.iter
          (fun mode ->
            Gc.compact ();
            Span.on := traced_run;
            Span.pass := (match mode with Seq -> 3 | Pipe -> 4);
            timer := clock_of mode;
            let k0 = cpu_ticks () and w0 = Clock.now () in
            let secs, fails =
              recovery_rep ~mode ~traced:traced_run ~log ~crash ~reference
            in
            let steal = steal_share k0 (cpu_ticks ()) in
            Span.on := false;
            progress "recovery %s: %.3fs (wall %.3fs), steal %.3f" (mname mode)
              secs (Clock.elapsed w0) steal;
            incr attempted;
            failed := !failed + fails;
            recov := (mode, secs, steal) :: !recov)
          [ Seq; Pipe ];
        if Clock.now () < deadline || List.length !recov < 6 then loop ()
      in
      loop ());
  let ref_rep = { ref_rep with crash = None } in
  let oltp_check r =
    if oltp <> None then
      failed :=
        !failed
        + diff_decisions ~reference:ref_rep.dec ~base:0 r.dec
        + (if Array.length r.dec = Array.length ref_rep.dec then 0 else 1)
        + if Tree.physically_equal r.final ref_rep.final then 0 else 1
  in
  reps := [ ref_rep ];
  let deadline = Clock.now () +. (0.7 *. !seconds) in
  (* Live heap: read inside the first pipe rep, after its measured phase
     and a full major collection, while its pipeline is still live. *)
  let live_heap_mb = ref nan in
  heap_probe :=
    (fun () ->
      Gc.full_major ();
      live_heap_mb :=
        float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
        /. 1048576.;
      heap_probe := ignore);
  (* Only the first rep of each kind keeps its decisions and tree, so the
     heap does not grow with the number of reps that fit in the time. *)
  let light r =
    { r with dec = [||]; final = Node.empty; ologref = None; crash = None }
  in
  let cycle =
    if traced_run then [ (Pipe, false); (Seq, true); (Pipe, true); (Seq, false) ]
    else [ (Pipe, false); (Seq, false) ]
  in
  let rec loop () =
    List.iter
      (fun (mode, traced) ->
        let r = run_rep ~mode ~traced ~reference:false in
        count r;
        oltp_check r;
        let seen = List.exists (fun r' -> r'.mode = mode) in
        let keep l = (if seen !l then light r else r) :: !l in
        if traced then traced_reps := keep traced_reps else reps := keep reps)
      cycle;
    let per_mode m = List.length (List.filter (fun r -> r.mode = m) !reps) in
    if Clock.now () < deadline || per_mode Pipe < 2 || per_mode Seq < 2 then
      loop ()
  in
  loop ();
  let reps = List.rev !reps and traced_reps = List.rev !traced_reps in
  (* Validate the first rep of each mode against the benchmark's own
     validator (and, for seq, count aborts it would have committed). *)
  let info, pool, keys =
    match (stream, oltp) with
    | Some st, _ -> (st.info, st.pool, st.spec.keys)
    | None, Some w -> (snd (Option.get ref_rep.ologref), w.opool, w.o.okeys)
    | None, None -> assert false
  in
  let first m = List.find (fun r -> r.mode = m) reps in
  (* reps is in run order, so [first] is a full (not light) record. *)
  let validated m =
    let r = first m in
    let fails, unforced = validate ~info ~pool ~keys r.dec r.final in
    failed := !failed + fails;
    (r, unforced)
  in
  let seq_first, unforced = validated Seq in
  ignore (validated Pipe);
  progress "validated";
  (* Report. *)
  let metrics = ref [] in
  let add name v = metrics := (name, v) :: !metrics in
  let of_mode m = List.filter (fun r -> r.mode = m) reps in
  (* Timings, from the untraced reps.  run.py reports the .seq ones with
     --trace 0 and the .pipe ones and the tails with --trace 1 (see
     BENCHMARK.json and README.md). *)
  add "setup_s" setup_s;
  List.iter
    (fun m ->
      let rs = timed_reps m (fun r -> r.steal) (of_mode m) in
      let rate f = median (List.map (fun r -> float (f r) /. r.secs) rs) in
      add ("melds_per_s." ^ mname m) (rate (fun r -> r.melded));
      add ("txn_per_s." ^ mname m) (rate (fun r -> r.committed));
      (* Median over reps of each rep's percentile, so one stalled rep
         cannot move the tail. *)
      let pct q = 1e3 *. median (List.map (fun r -> percentile r.lat q) rs) in
      add ("commit_p50_ms." ^ mname m) (pct 0.5);
      add ("commit_p99_ms." ^ mname m) (pct 0.99);
      let rec_m = List.filter (fun (m', _, _) -> m' = m) !recov in
      add ("recovery_s." ^ mname m)
        (median
           (List.map (fun (_, w, _) -> w)
              (timed_reps m (fun (_, _, st) -> st) rec_m))))
  [ Seq; Pipe ];
  add "live_heap_mb" !live_heap_mb;
  if traced_run then begin
    let find m = List.find (fun r -> r.mode = m) traced_reps in
    let ts = find Seq and tp = find Pipe in
    let melded = float ts.melded in
    let c = ts.counters in
    let per x = float x /. melded in
    add "meld.fm_nodes_per_int" (per c.Counters.final_meld.Counters.nodes_visited);
    add "premeld.nodes_per_int"
      (per (Counters.premeld_total c).Counters.nodes_visited);
    add "group_meld.nodes_per_int" (per c.Counters.group_meld.Counters.nodes_visited);
    add "meld.ephemerals_per_int" (per c.Counters.final_meld.Counters.ephemerals);
    add "meld.conflict_zone" (Summary.mean c.Counters.conflict_zone);
    let decided at =
      Array.fold_left
        (fun n d ->
          match d with
          | Some (d : Pipeline.decision) when d.Pipeline.decided_at = at -> n + 1
          | _ -> n)
        0 ts.dec
    in
    add "meld.decided_at_premeld_share" (per (decided Pipeline.At_premeld));
    add "meld.decided_at_group_meld_share" (per (decided Pipeline.At_group_meld));
    add "meld.decided_at_final_meld_share" (per (decided Pipeline.At_final_meld));
    add "meld.unforced_abort_share" (float unforced /. float seq_first.melded);
    add "abort_rate" (1. -. (float (commits ts.dec) /. melded));
    (match tp.offload with
    | Some o ->
        let pm = float tp.melded in
        add "runtime.ds_offloaded_share"
          (float o.Pipeline.ds_offloaded
          /. float (max 1 (o.Pipeline.ds_offloaded + o.Pipeline.ds_inline)));
        add "runtime.items_per_publication"
          (float o.Pipeline.handoff_items /. float (max 1 o.Pipeline.handoff_batches));
        add "runtime.doorbells_per_kint" (1e3 *. float o.Pipeline.doorbell_wakeups /. pm);
        add "runtime.steals_per_kint" (1e3 *. float o.Pipeline.driver_steals /. pm)
    | None -> incr failed);
    add "runtime.pipe_workers" (float pipe_n);
    add "runtime.nproc" (float nproc);
    let g0, g1 = ts.gc in
    add "gc.minor_collections_per_kint"
      (1e3 *. per (g1.Gc.minor_collections - g0.Gc.minor_collections));
    add "gc.major_collections_per_kint"
      (1e3 *. per (g1.Gc.major_collections - g0.Gc.major_collections));
    add "gc.promoted_words_per_int" ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. melded);
    add "codec.intention_bytes" (float ts.wire_bytes /. melded);
    add "log.bytes_per_user_byte" (float ts.log_bytes /. float ts.user_bytes);
    List.iter
      (fun m ->
        add ("commit_samples." ^ mname m)
          (float (List.fold_left (fun n r -> n + Array.length r.lat) 0 (of_mode m)));
        let rate rs = median (List.map (fun r -> float r.melded /. r.secs) rs) in
        let untraced = rate (of_mode m) in
        let traced = rate (List.filter (fun r -> r.mode = m) traced_reps) in
        add ("trace.overhead_share." ^ mname m) (1. -. (traced /. untraced)))
      [ Seq; Pipe ];
    (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
    Span.dump (Filename.concat !out (Printf.sprintf "%s-%d.spans.tsv" !workload !seed))
  end;
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failed = 0) !attempted !failed;
  List.iteri
    (fun i (k, v) ->
      Printf.bprintf b "%s\"%s\": %.17g" (if i = 0 then "" else ", ") k v)
    (List.rev !metrics);
  let steal m = median (List.map (fun r -> r.steal) (of_mode m)) in
  Printf.bprintf b
    "}, \"info\": {\"nproc\": %d, \"pipe_n\": %d, \"reps_seq\": %d, \
     \"reps_pipe\": %d, \"recoveries\": %d, \"steal_seq\": %.3f, \
     \"steal_pipe\": %.3f}}"
    nproc pipe_n (List.length (of_mode Seq)) (List.length (of_mode Pipe))
    (List.length !recov) (steal Seq) (steal Pipe);
  let peak_rss =
    try
      let ic = open_in "/proc/self/status" in
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            close_in ic;
            String.trim (String.sub l 6 (String.length l - 6))
        | _ -> go ()
      in
      go ()
    with _ -> "?"
  in
  progress "peak RSS %s" peak_rss;
  print_endline (Buffer.contents b)
