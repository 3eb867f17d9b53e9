(** Work counters for the meld pipeline.

    Figures 11, 13, 17, 19, 22 and 24 of the paper report exactly these
    quantities, so every stage keeps its own {!stage} record and the
    benchmark harness reads them after a run.

    {2 Premeld shards}

    Premeld work is counted into {e per-thread shards}, one per paper
    premeld thread id (Section 3.4), rather than one shared record.  Two
    reasons:

    - {b thread safety}: the pipelined runtime runs each premeld thread's
      trial melds on one worker domain, so each shard has exactly one
      writer at any time and the hot counters need no locks or atomics;
    - {b determinism checking}: the shard an intention's work lands in is
      [seq mod t], identical under the sequential and pipelined backends,
      so per-shard counts must match exactly across backends (seconds, of
      course, differ — that is the point).

    Readers merge the shards on demand with {!premeld_total}. *)

type stage = {
  mutable intentions : int;  (** intentions processed by this stage *)
  mutable nodes_visited : int;  (** tree nodes inspected by the meld operator *)
  mutable ephemerals : int;  (** ephemeral nodes created *)
  mutable grafts : int;  (** subtree grafts (early terminations) *)
  mutable aborts : int;  (** conflicts detected at this stage *)
  mutable seconds : float;  (** accumulated monotonic time in the stage *)
}

val make_stage : unit -> stage
val reset_stage : stage -> unit
val add_stage : into:stage -> stage -> unit
val copy_stage : stage -> stage

type t = {
  deserialize : stage;
  premeld_shards : stage array;
      (** per premeld-thread work records; shard [i] belongs to paper
          thread [i + 1] and is only ever written by the worker currently
          acting as that thread *)
  group_meld : stage;
  final_meld : stage;
  mutable committed : int;
  mutable aborted : int;
  conflict_zone : Hyder_util.Stats.Summary.t;
      (** intentions between (effective) snapshot and the LCS at final meld —
          the conflict zone length final meld observes (Figure 12) *)
  fm_nodes_per_txn : Hyder_util.Stats.Summary.t;
      (** nodes visited by final meld per intention (Figure 11) *)
  intention_bytes : Hyder_util.Stats.Summary.t;
      (** encoded intention sizes, when known (drives blocks-per-intention
          accounting in Figure 12) *)
}

val create : ?premeld_shards:int -> unit -> t
(** [premeld_shards] defaults to 1; the pipeline passes its premeld
    thread count. *)

val premeld_total : t -> stage
(** Merge the premeld shards into a fresh aggregate record (the
    merged-on-read view; never returns a shard itself). *)

val copy : t -> t
(** Independent copy of the stage records, commit/abort tallies {e and}
    the streaming summaries, for snapshotting counters at a
    measurement-window edge: window statistics are the difference between
    the live counters and the copy. *)

val reset : t -> unit
