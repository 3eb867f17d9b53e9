(** Tree nodes and their meld metadata.

    The representation is concrete (and shared with [hyder_core]) because
    meld, premeld and group meld are defined structurally over it.

    Metadata per node (Section 2 / Appendix A of the paper, recast in the
    content-version formulation described in DESIGN.md):

    - vn: this version's identity.
    - cv: the {e content version} — the VN of the version that first
      generated this node's payload.  Appendix A calls the same information
      SCV when talking about the source node; carrying it on every node
      makes the conflict rules uniform:  a dependent access of key [k]
      conflicts iff the LCS's cv for [k] differs from the scv the
      intention recorded.
    - ssv: source structure version — the VN of the same-key node in the
      state this node was derived from (absent for a fresh insert).
    - scv: source content version — the cv of that same-key source node.
    - altered: the producing transaction changed the payload.
    - depends_on_content: the transaction read the payload and runs at an
      isolation level that validates reads (the paper's DependsOn flag).
    - depends_on_structure: the transaction depends on the whole subtree
      under this node being unchanged — used for range scans and reads of
      absent keys (phantom avoidance; the paper defers this metadata
      to [8]).
    - owner: log position of the intention this node belongs to, or
      [state_owner] for nodes of melded states (including genesis and
      ephemeral nodes created by final meld).  Meld uses it to decide
      whether a node is "inside" the intention being melded.
    - has_writes: subtree summary — true iff this node or any descendant
      {e belonging to the same intention} was altered or inserted.  Drives
      the Section 3.3 read-only-subtree rule.

    {2 Packed representation}

    A node is one 14-word heap block of immediates and pointers — no
    boxed [Vn.t], no option — so the meld/premeld/group-meld hot loops
    test metadata with masks and compare versions word by word, and
    constructing a node allocates exactly one block:

    - Each of the four versions is two plain int words: [(pos, idx)] of a
      logged VN or [(thread, seq)] of an ephemeral one — [vn_a]/[vn_b],
      [cv_a]/[cv_b], [ssv_a]/[ssv_b], [scv_a]/[scv_b].
    - [meta] bits 0..7 are flags (see {!Meta}; the low three equal the
      wire codec's flag-byte bits, the high four give ssv/scv presence
      and class), bits 8..9 give the vn/cv class, and bits 10.. hold
      [owner + 1] so state nodes ([owner = -1]) have zero owner bits.
      Absent ssv/scv words are 0.

    The packing is a pure re-encoding of the boxed record — the wire
    format, [Tree.digest] text and all meld decisions are unchanged
    (DESIGN.md §11).  {!vn}, {!cv}, {!ssv} and {!scv} rebuild boxed
    versions for cold paths.

    {2 Sentinel empty}

    The empty tree is the statically-allocated sentinel {!empty} (its
    children point to itself) rather than a variant constructor: child
    links reference node records directly, so there is no [Node of node]
    wrapper, and traversals follow one pointer per child.  Test emptiness
    with {!is_empty} (physical equality); recursions must check it before
    touching children — the sentinel's children are the sentinel itself. *)

type tree = node

and node = {
  key : Key.t;
  payload : Payload.t;
  left : tree;
  right : tree;
  vn_a : int;  (** vn: [pos] if logged, [thread] if ephemeral *)
  vn_b : int;  (** vn: [idx] if logged, [seq] if ephemeral *)
  cv_a : int;
  cv_b : int;
  meta : int;  (** flag, class and biased owner bits; see {!Meta} *)
  ssv_a : int;
  ssv_b : int;
  scv_a : int;
  scv_b : int;
}

val state_owner : int
(** The owner value (-1) marking nodes that belong to a database state
    rather than to a pending intention. *)

val empty : tree
(** The empty tree: a unique sentinel node.  Its [meta] is 0 (so it never
    matches a same-owner has-writes mask test) and its children are
    itself; no other field may be read. *)

val is_empty : tree -> bool
(** Physical equality with {!empty}. *)

(** Bit layout of {!node.meta}. *)
module Meta : sig
  val altered : int  (** 0x01 — also the wire flag bit *)

  val dep_content : int  (** 0x02 — also the wire flag bit *)

  val dep_structure : int  (** 0x04 — also the wire flag bit *)

  val has_writes : int  (** 0x08; recomputed by {!pack}, never carried *)

  val ssv_present : int  (** 0x10 *)

  val ssv_ephemeral : int  (** 0x20 — value class of [ssv_a]/[ssv_b] *)

  val scv_present : int  (** 0x40 *)

  val scv_ephemeral : int  (** 0x80 *)

  val vn_ephemeral : int  (** 0x100 — value class of [vn_a]/[vn_b] *)

  val cv_ephemeral : int  (** 0x200 — value class of [cv_a]/[cv_b] *)

  val flags_mask : int
  (** 0xff: access, summary and ssv/scv bits (not the vn/cv classes). *)

  val dependent_mask : int
  (** [altered lor dep_content lor dep_structure]: non-zero meta
      intersection ⇔ the node is dependent (read or written). *)

  val source_mask : int
  (** The four ssv/scv presence + class bits. *)

  val carry_mask : int
  (** Flag bits that survive an owner rewrite ([flags_mask] minus
      [has_writes]). *)

  val ssv_of_vn : int -> int
  (** [ssv_of_vn m]: the ssv presence + class bits of a copy whose ssv is
      the vn of the node with meta [m]. *)

  val scv_of_cv : int -> int
  (** Likewise, the scv bits for the cv of the node with meta [m]. *)

  val sources_of : int -> int
  (** [ssv_of_vn m lor scv_of_cv m]: the node with meta [m] becomes the
      source of a copy. *)

  val owner_shift : int

  val owner_mask : int
  (** All bits above the flags. *)

  val owner_bits : int -> int
  (** [(owner + 1) lsl owner_shift]. *)

  val owner_of : int -> int

  val hw_mask : int
  (** [owner_mask lor has_writes]: [meta land hw_mask = owner_bits o lor
      has_writes] tests "same owner and has writes" in one compare. *)
end

val pack :
  key:Key.t ->
  payload:Payload.t ->
  left:tree ->
  right:tree ->
  vn_a:int ->
  vn_b:int ->
  cv_a:int ->
  cv_b:int ->
  meta:int ->
  ssv_a:int ->
  ssv_b:int ->
  scv_a:int ->
  scv_b:int ->
  node
(** Low-level constructor over the packed representation: [meta] supplies
    flag, class and owner bits, and the [has_writes] bit is recomputed from
    the other bits and the same-owner children (any [has_writes] bit in the
    given [meta] is ignored).  This is the hot-path constructor — one
    block allocated, no closures. *)

val make :
  key:Key.t ->
  payload:Payload.t ->
  left:tree ->
  right:tree ->
  vn:Vn.t ->
  cv:Vn.t ->
  ssv:Vn.t option ->
  scv:Vn.t option ->
  altered:bool ->
  depends_on_content:bool ->
  depends_on_structure:bool ->
  owner:int ->
  node
(** Smart constructor over the boxed field view; computes [has_writes]
    from the fields and the same-owner children.  Cold paths only. *)

(** {2 Metadata accessors} *)

val owner : node -> int
val altered : node -> bool
val depends_on_content : node -> bool
val depends_on_structure : node -> bool
val has_writes : node -> bool
val has_ssv : node -> bool
val has_scv : node -> bool

(** {2 Version comparisons}

    All allocation-free. *)

val ssv_is_vn : node -> node -> bool
(** [ssv_is_vn n m] ⇔ [ssv n = Some (vn m)]: the graft test. *)

val scv_is_cv : node -> node -> bool
(** [scv_is_cv n m] ⇔ [scv n = Some (cv m)]: the content-conflict test. *)

val vn_equals : node -> Vn.t -> bool
(** [vn n] equals the boxed version (resolver checks). *)

(** {2 Boxed views}

    Each call allocates; cold paths only (printing, corrupt-input
    reports, the resolver API, tests). *)

val vn : node -> Vn.t
val cv : node -> Vn.t
val ssv : node -> Vn.t option
val scv : node -> Vn.t option

val size : tree -> int
(** Total nodes (including tombstones). *)

val live_size : tree -> int
(** Nodes whose payload is not a tombstone. *)

val depth : tree -> int

val pp : Format.formatter -> tree -> unit
(** Multi-line structural dump, for debugging and golden tests. *)
