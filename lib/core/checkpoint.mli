open Hyder_tree

(** Checkpointing and tombstone compaction.

    Deletes leave tombstone nodes in the tree (DESIGN.md §2).  A checkpoint
    rewrites a database state as a fresh canonical tree without them —
    the moral equivalent of writing the state as one big intention at a
    checkpoint log position, which is how a production Hyder would truncate
    its log.  The output is a valid genesis-style state: every server
    loading the same checkpoint at the same position obtains a physically
    identical tree. *)

type stats = {
  live_nodes : int;
  tombstones_dropped : int;
}

val compact : pos:int -> Tree.t -> Tree.t * stats
(** [compact ~pos state] rebuilds [state] without tombstones, in O(n)
    through {!Tree.build_sorted}.  Nodes get VNs [Logged (pos, idx)] in
    key order and keep their content versions, so later conflict checks
    against pre-checkpoint readers still work: a key's cv is preserved
    verbatim. *)

(** {1 Durable checkpoints (crash recovery)}

    A checkpoint is everything a restarted meld pipeline needs to resume
    {e bit-identically} from sequence [seq + 1]: the retained state window
    (premeld input arithmetic and snapshot-reference resolution both read
    recent states, not just the newest one), the ephemeral-id allocator
    cursors, and a deep copy of the counters.  The exact window is what
    makes the replay {e physically} identical, so capture copies no tree
    and builds none: {!compact} is the offline canonical form (melding the
    log suffix onto it yields identical decisions and a logically equal
    tree, see the compaction tests), not part of a checkpoint. *)

type t = {
  seq : int;  (** newest melded sequence number at capture *)
  pos : int;  (** its log position; replay covers [(pos, tail]] *)
  store : State_store.Snapshot.t;  (** frozen retention window *)
  alloc_issued : int array;
      (** ephemeral-id cursors: final meld, premeld threads 1..t, group
          meld — in {!Pipeline}'s thread-id order *)
  counters : Counters.t;  (** deep copy at capture *)
}

val capture :
  store:State_store.Snapshot.t ->
  alloc_issued:int array ->
  counters:Counters.t ->
  t
(** Freeze a checkpoint.  Must only be called at a group boundary (no
    partially assembled meld group) — {!Pipeline.checkpoint} enforces
    this.  Copies its mutable inputs. *)

val state : t -> Tree.t
(** The exact newest retained state. *)
