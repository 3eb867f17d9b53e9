(** Sharded span recorder for the meld pipeline.

    {2 Sharding invariant}

    Span records live in per-writer fixed-capacity ring buffers, sharded
    exactly like [Hyder_core.Counters.premeld_shards]: ring 0 belongs to
    the pipeline's sequential tail (deserialize, group meld, final meld —
    always written by the submitting thread), and ring [i] (1-based)
    belongs to paper premeld thread [i], written only by whichever worker
    is currently impersonating that thread.  A recorder created with
    [~workers:n] additionally owns rings [shards+1 .. shards+n], one per
    pipelined worker domain, carrying the ds decode and gm combine spans
    that the [Pipelined] backend moves off the tail; each is again written
    by exactly one domain.  Recording is therefore lock-free and
    atomics-free on the hot path under every runtime backend.

    {2 Inertness}

    A disabled recorder ({!disabled}) makes {!record} a single branch.
    Call sites gate their own timestamp collection on {!enabled} so a
    traced-off run performs no extra clock reads.  Recording never feeds
    back into pipeline decisions: spans only {e read} counters and clocks,
    so decisions, ephemeral node identities and per-shard counter values
    are bit-identical with tracing on or off (asserted by
    [test/test_obs.ml]).

    {2 Overflow}

    When a ring wraps, the oldest spans are overwritten and counted in
    {!dropped}; accounting is exact. *)

type stage =
  | Deserialize
  | Premeld  (** one trial meld; [detail]: 1 = premelded, 2 = dead *)
  | Group_meld
  | Final_meld  (** [detail]: 1 = group committed, 0 = aborted *)

val stage_to_string : stage -> string

type span = {
  track : int;
      (** ring index: 0 = pipeline tail, 1..shards = premeld shards,
          shards+1.. = pipelined worker domains *)
  stage : stage;
  seq : int;  (** intention sequence number (first of the group for fm) *)
  t0 : float;  (** [Hyder_util.Clock] seconds *)
  t1 : float;
  nodes : int;  (** tree nodes visited (stage-specific; see {!stage}) *)
  detail : int;  (** stage-specific decision/annotation code *)
}

type t

val disabled : t
(** The no-op recorder: {!enabled} is [false], {!record} is one branch. *)

val create : ?capacity:int -> ?workers:int -> shards:int -> unit -> t
(** [shards] premeld rings plus the tail ring, plus [workers] (default 0)
    pipelined worker-domain rings.  [capacity] is per ring, rounded up to
    a power of two (default 32768 spans). *)

val enabled : t -> bool

val shards : t -> int
(** Number of premeld shard rings (0 for {!disabled}). *)

val workers : t -> int
(** Number of pipelined worker-domain rings (0 for {!disabled}). *)

val capacity : t -> int

val record :
  t ->
  track:int ->
  stage:stage ->
  seq:int ->
  t0:float ->
  t1:float ->
  nodes:int ->
  detail:int ->
  unit

val recorded : t -> int
(** Spans ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Spans lost to ring wrap. *)

val spans : t -> span list
(** Retained spans, globally sorted by start time. *)

val to_chrome : ?origin:float -> t -> Json.t
(** Chrome trace-event JSON (load in Perfetto / [chrome://tracing]).
    Final meld, group meld, deserialize, each premeld shard and each
    pipelined worker domain get their own named track, so stage overlap
    under [pipe:<n>] is visually auditable.  Timestamps are
    microseconds relative to [origin] (default: the earliest retained
    span).  When any ring overflowed ({!dropped} [> 0]) the export leads
    with a global instant event naming the dropped-span count, so a
    truncated trace is never silently read as complete. *)

val to_chrome_string : ?origin:float -> t -> string
