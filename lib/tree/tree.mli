(** The multi-versioned, copy-on-write canonical treap.

    The database index of Hyder II.  The paper uses an immutable red-black
    tree; we use a treap whose priorities are a stateless hash of the key,
    so the tree {e shape} is a pure function of the key set (DESIGN.md §2).
    All mutating operations are copy-on-write: they return a new root and
    share all untouched subtrees, and every copied node records how it
    relates to its source version (ssv/scv), which is exactly the metadata
    meld needs.

    Mutators take an [owner] (the intention id under construction, or
    {!Node.state_owner} for bootstrap) and a [fresh] VN supplier.  A node
    whose [owner] equals the mutator's is an in-progress draft of the same
    transaction and keeps its snapshot-relative metadata when copied again;
    any other node is a snapshot node and the copy's ssv/scv are derived
    from it. *)

type t = Node.tree

val empty : t

(** {1 Queries} *)

val find : t -> Key.t -> Node.node option
(** The node currently holding the key, tombstone or not. *)

val lookup : t -> Key.t -> Payload.t option
(** Live payload: [None] for absent keys {e and} tombstones. *)

val mem : t -> Key.t -> bool

val pred : t -> Key.t -> Node.node option
(** Greatest strictly-smaller live-or-tombstone node. *)

val succ : t -> Key.t -> Node.node option

val range_items : t -> lo:Key.t -> hi:Key.t -> (Key.t * Payload.t) list
(** Live pairs with [lo <= key <= hi], ascending. *)

val iter : t -> (Node.node -> unit) -> unit
(** In-order over all nodes, tombstones included. *)

val to_alist : t -> (Key.t * Payload.t) list
(** Live pairs, ascending. *)

(** {1 Copy-on-write mutators (intention building)} *)

val upsert :
  t -> owner:int -> fresh:(unit -> Vn.t) -> Key.t -> Payload.t -> t
(** Insert or update; writing {!Payload.tombstone} is a delete.  Copies the
    root-to-node path (and the split path, for a fresh insert) as draft
    nodes of [owner]. *)

val touch_read : t -> owner:int -> fresh:(unit -> Vn.t) -> Key.t -> t
(** Record a validated point read: materializes the path to the key and
    marks the node [depends_on_content].  A read of an absent key marks the
    node where the search ended [depends_on_structure] (phantom guard).
    Reading the transaction's own write is a no-op. *)

val touch_range :
  t -> owner:int -> fresh:(unit -> Vn.t) -> lo:Key.t -> hi:Key.t -> t
(** Record a validated range read: marks every in-range node visited
    [depends_on_structure]; if the range is empty, marks its neighbours
    instead.  Conservative but sound (see DESIGN.md). *)

(** {1 Bootstrap} *)

val of_sorted_array : (Key.t * Payload.t) array -> t
(** Build the genesis state from a strictly-increasing key array.  Nodes are
    state-owned with genesis VNs; every server calling this with the same
    array obtains a physically identical tree. *)

val build_sorted :
  int -> key:(int -> Key.t) -> node:(int -> left:t -> right:t -> t) -> t
(** [build_sorted n ~key ~node] builds the canonical treap over items
    [0 .. n-1], whose keys [key i] the caller guarantees strictly
    increasing, in O(n): [node i ~left ~right] builds item [i]'s node
    (in-order index [i]) once its subtrees exist.  The shape depends only
    on the keys; {!of_sorted_array} and checkpoint compaction share it. *)

(** {1 Validation and statistics (tests, benches)} *)

val validate : t -> (unit, string) result
(** Checks BST order, canonical heap order, priority/key agreement, and
    has_writes summaries.  Returns [Error reason] on the first violation. *)

val size : t -> int
val live_size : t -> int
val depth : t -> int

val path_length : t -> Key.t -> int
(** Nodes on the search path of the key (whether present or not). *)

val physically_equal : t -> t -> bool
(** Deep structural + metadata equality, requiring identical VNs everywhere:
    the determinism criterion of Section 3.4. *)

val digest : t -> string
(** Hex fingerprint of the full physical tree (shape, payloads, VNs, flags,
    owners): [digest a = digest b] iff [physically_equal a b].  The chaos
    suite compares whole-cluster convergence by this fingerprint. *)
