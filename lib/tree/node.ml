(* A node is ONE heap block: key, payload, children and every per-node
   version and OCC flag, as immediate ints.  Its own [vn]/[cv] and its
   ssv/scv are each two plain int words; which of them are present and
   which are ephemeral lives in [meta] beside the access flags, so the
   meld hot loops test metadata with masks and compare versions word by
   word — no option, no boxed [Vn.t], no [caml_equal].  See node.mli
   and DESIGN.md §11 for the layout.

   The empty tree is a statically-allocated sentinel node ([empty],
   self-referential children) rather than a variant constructor: child
   links point straight at node records, so constructing a node is one
   14-word block — no [Node of node] wrapper, no version boxes — and
   traversal follows one pointer per child. *)

type tree = node

and node = {
  key : Key.t;
  payload : Payload.t;
  left : tree;
  right : tree;
  vn_a : int;
  vn_b : int;
  cv_a : int;
  cv_b : int;
  meta : int;
  ssv_a : int;
  ssv_b : int;
  scv_a : int;
  scv_b : int;
}

let state_owner = -1

module Meta = struct
  (* The low three bits deliberately equal the wire flag byte's low bits
     (Codec), so encode is [meta land 0x7] and decode ORs the wire flags
     straight in. *)
  let altered = 0x01
  let dep_content = 0x02
  let dep_structure = 0x04
  let has_writes = 0x08
  let ssv_present = 0x10
  let ssv_ephemeral = 0x20
  let scv_present = 0x40
  let scv_ephemeral = 0x80
  let vn_ephemeral = 0x100
  let cv_ephemeral = 0x200
  let flags_mask = 0xff

  let dependent_mask = altered lor dep_content lor dep_structure
  let source_mask = ssv_present lor ssv_ephemeral lor scv_present lor scv_ephemeral

  (* Flag bits that survive [Intention.assign]'s owner rewrite: everything
     but [has_writes], which is recomputed against the new owner. *)
  let carry_mask = flags_mask land lnot has_writes

  (* The source bits of a copy whose source is the node with meta [m]:
     ssv := its vn, scv := its cv.  The vn/cv class bits sit exactly
     three and two places above the ssv/scv class bits. *)
  let[@inline] ssv_of_vn m = ssv_present lor ((m lsr 3) land ssv_ephemeral)
  let[@inline] scv_of_cv m = scv_present lor ((m lsr 2) land scv_ephemeral)
  let[@inline] sources_of m = ssv_of_vn m lor scv_of_cv m

  (* Owner (a log position, or [state_owner]) in the bits above the flags,
     biased by one so state nodes have zero owner bits. *)
  let owner_shift = 10
  let owner_mask = -1 lsl owner_shift
  let owner_bits owner = (owner + 1) lsl owner_shift
  let owner_of meta = (meta asr owner_shift) - 1

  (* [meta land hw_mask = owner_bits o lor has_writes] tests "same owner
     and has writes" in one compare. *)
  let hw_mask = owner_mask lor has_writes
end

(* The empty sentinel.  [meta = 0] can never satisfy a same-owner
   has-writes test ([hw_mask] compares always carry the has_writes bit),
   so [pack]'s child summaries need no emptiness branch.  Its fields are
   never otherwise read: every traversal stops on [t == empty]. *)
let rec empty =
  {
    key = 0;
    payload = Payload.tombstone;
    left = empty;
    right = empty;
    vn_a = min_int;
    vn_b = 0;
    cv_a = min_int;
    cv_b = 0;
    meta = 0;
    ssv_a = 0;
    ssv_b = 0;
    scv_a = 0;
    scv_b = 0;
  }

let[@inline] is_empty t = t == empty

(* Low-level constructor over the packed representation.  [meta] supplies
   the flag, class and owner bits; the [has_writes] bit is recomputed here
   from the other bits and the same-owner children, so callers never carry
   it across structural edits. *)
let pack ~key ~payload ~left ~right ~vn_a ~vn_b ~cv_a ~cv_b ~meta ~ssv_a
    ~ssv_b ~scv_a ~scv_b =
  let obh = (meta land Meta.owner_mask) lor Meta.has_writes in
  let hw =
    meta land Meta.altered <> 0
    || meta land Meta.ssv_present = 0
    || left.meta land Meta.hw_mask = obh
    || right.meta land Meta.hw_mask = obh
  in
  let meta =
    if hw then meta lor Meta.has_writes else meta land lnot Meta.has_writes
  in
  {
    key;
    payload;
    left;
    right;
    vn_a;
    vn_b;
    cv_a;
    cv_b;
    meta;
    ssv_a;
    ssv_b;
    scv_a;
    scv_b;
  }

(* Flag accessors. *)
let owner n = Meta.owner_of n.meta
let altered n = n.meta land Meta.altered <> 0
let depends_on_content n = n.meta land Meta.dep_content <> 0
let depends_on_structure n = n.meta land Meta.dep_structure <> 0
let has_writes n = n.meta land Meta.has_writes <> 0
let has_ssv n = n.meta land Meta.ssv_present <> 0
let has_scv n = n.meta land Meta.scv_present <> 0

(* Allocation-free version comparisons between nodes, the meld hot
   path's graft and conflict tests: [ssv_is_vn n m] is [ssv n = Some (vn
   m)], [scv_is_cv n m] is [scv n = Some (cv m)]. *)
let ssv_is_vn n m =
  n.meta land (Meta.ssv_present lor Meta.ssv_ephemeral) = Meta.ssv_of_vn m.meta
  && n.ssv_a = m.vn_a && n.ssv_b = m.vn_b

let scv_is_cv n m =
  n.meta land (Meta.scv_present lor Meta.scv_ephemeral) = Meta.scv_of_cv m.meta
  && n.scv_a = m.cv_a && n.scv_b = m.cv_b

(* Boxed views — allocate; cold paths only (printing, corrupt-input
   reports, the resolver API, tests). *)
let version ~eph a b =
  if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b

let vn n = version ~eph:(n.meta land Meta.vn_ephemeral <> 0) n.vn_a n.vn_b
let cv n = version ~eph:(n.meta land Meta.cv_ephemeral <> 0) n.cv_a n.cv_b

let ssv n =
  if n.meta land Meta.ssv_present = 0 then None
  else Some (version ~eph:(n.meta land Meta.ssv_ephemeral <> 0) n.ssv_a n.ssv_b)

let scv n =
  if n.meta land Meta.scv_present = 0 then None
  else Some (version ~eph:(n.meta land Meta.scv_ephemeral <> 0) n.scv_a n.scv_b)

(* Allocation-free equality of the packed vn against a boxed [Vn.t]. *)
let vn_equals n (x : Vn.t) =
  let eph = n.meta land Meta.vn_ephemeral <> 0 in
  match x with
  | Vn.Logged { pos; idx } -> (not eph) && n.vn_a = pos && n.vn_b = idx
  | Vn.Ephemeral { thread; seq } -> eph && n.vn_a = thread && n.vn_b = seq

(* Packed words and class flag of a boxed VN. *)
let words = function
  | Vn.Logged { pos; idx } -> (false, pos, idx)
  | Vn.Ephemeral { thread; seq } -> (true, thread, seq)

(* Smart constructor over the boxed field view; cold paths (tests). *)
let make ~key ~payload ~left ~right ~vn ~cv ~ssv ~scv ~altered
    ~depends_on_content ~depends_on_structure ~owner =
  let bit b m = if b then m else 0 in
  let vn_eph, vn_a, vn_b = words vn and cv_eph, cv_a, cv_b = words cv in
  let ssv_eph, ssv_a, ssv_b =
    match ssv with None -> (false, 0, 0) | Some v -> words v
  in
  let scv_eph, scv_a, scv_b =
    match scv with None -> (false, 0, 0) | Some v -> words v
  in
  let meta =
    Meta.owner_bits owner
    lor bit altered Meta.altered
    lor bit depends_on_content Meta.dep_content
    lor bit depends_on_structure Meta.dep_structure
    lor bit (Option.is_some ssv) Meta.ssv_present
    lor bit ssv_eph Meta.ssv_ephemeral
    lor bit (Option.is_some scv) Meta.scv_present
    lor bit scv_eph Meta.scv_ephemeral
    lor bit vn_eph Meta.vn_ephemeral
    lor bit cv_eph Meta.cv_ephemeral
  in
  pack ~key ~payload ~left ~right ~vn_a ~vn_b ~cv_a ~cv_b ~meta ~ssv_a ~ssv_b
    ~scv_a ~scv_b

let rec size t = if t == empty then 0 else 1 + size t.left + size t.right

let rec live_size t =
  if t == empty then 0
  else
    (if Payload.is_tombstone t.payload then 0 else 1)
    + live_size t.left + live_size t.right

let rec depth t =
  if t == empty then 0 else 1 + max (depth t.left) (depth t.right)

let pp fmt tree =
  let rec go indent t =
    if t == empty then ()
    else begin
      go (indent ^ "  ") t.right;
      Format.fprintf fmt "%s%a=%a vn=%a cv=%a%s%s%s own=%d@." indent Key.pp
        t.key Payload.pp t.payload Vn.pp (vn t) Vn.pp (cv t)
        (if altered t then " W" else "")
        (if depends_on_content t then " Rc" else "")
        (if depends_on_structure t then " Rs" else "")
        (owner t);
      go (indent ^ "  ") t.left
    end
  in
  go "" tree
