(* Flyweight intention view: the wire encoding read in place.

   [parse] decodes each byte of an intention's encoding once and keeps,
   per node, only small arrays of immediate ints (key, packed meta word,
   child descriptors, byte offset) plus the bound external references —
   no heap [Node] is built.  Meld walks the view through the accessors
   below and calls [materialize] only for the nodes it actually grafts
   into its output; everything else never allocates a node.

   External references (ref children and elided payloads) are bound
   during the parse against the snapshot tree the intention names — an
   O(log n) key descent per reference, falling back to the caller's
   resolver with exactly the eager decoder's integrity checks and error
   messages.  Because every reference is bound up front, [materialize]
   is total: it can run at any later stage, on any domain, and never
   consults a resolver or fails.

   Lifetime: a view pins [bytes] (an immutable OCaml string, possibly a
   shared batch slab) for as long as it lives.  Decode-side buffers are
   therefore never pooled — pools are for encode-side scratch only.

   Thread safety: one walker at a time.  [cur] is a scratch cursor for
   the cold re-reads and the [nodes] memo is unsynchronized; views are
   handed between pipeline stages through queues (which order the
   accesses), never walked concurrently.  [parse] itself may run on
   several domains at once: its scratch is per domain. *)

open Hyder_tree
module Wire = Hyder_util.Wire

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

(* Child descriptor codes in [hot]: [>= 0] inside node index, [-1] empty,
   [<= -2] bound external reference in slot [-c - 2]. *)
let kid_empty = -1
let[@inline] kid_is_inside c = c >= 0
let[@inline] kid_is_empty c = c = -1
let[@inline] kid_slot c = -c - 2

(* Physically-unique sentinel marking an unmaterialized payload slot; the
   block identity is what matters, the contents are never read. *)
let unbound : Payload.t = Payload.Value (String.make 1 '\255')

type t = {
  pos : int;
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : int;  (** wire code 0..2; [Codec] converts *)
  node_count : int;
  byte_size : int;
  bytes : string;  (** backing buffer, read in place (never pooled) *)
  hot : int array;  (** stride 4 per node: key, meta, kid_l, kid_r *)
  offs : int array;  (** absolute offset of each node's flags byte *)
  refs : Node.tree array;  (** bound external references, by slot *)
  pays : Payload.t array;  (** payload memo; [unbound] until forced *)
  mutable nodes : Node.tree array;
      (** materialization memo; empty until first use *)
  mutable cur : int;  (** scratch cursor for cold re-reads (single walker) *)
}

let pos v = v.pos
let snapshot v = v.snapshot
let server v = v.server
let txn_seq v = v.txn_seq
let isolation_code v = v.isolation
let node_count v = v.node_count
let byte_size v = v.byte_size
let root_index v = v.node_count - 1
let[@inline] key v idx = Array.unsafe_get v.hot (idx * 4)
let[@inline] meta v idx = Array.unsafe_get v.hot ((idx * 4) + 1)
let[@inline] kid_l v idx = Array.unsafe_get v.hot ((idx * 4) + 2)
let[@inline] kid_r v idx = Array.unsafe_get v.hot ((idx * 4) + 3)
let[@inline] ref_of v c = Array.unsafe_get v.refs (-c - 2)
let[@inline] vn v idx = Vn.logged ~pos:v.pos ~idx

(* ---- cold re-reads off the wire bytes -------------------------------- *)
(* The parse below validates the whole encoding, so these re-readers can
   use unchecked accesses: they only revisit byte ranges the parse read. *)

let[@inline] u8 v =
  let b = Char.code (String.unsafe_get v.bytes v.cur) in
  v.cur <- v.cur + 1;
  b

let rvarint v =
  let x = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    let b = u8 v in
    x := !x lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !x

let[@inline] rzint v =
  let u = rvarint v in
  u lsr 1 lxor - (u land 1)

let[@inline] flags v idx = Char.code (String.unsafe_get v.bytes v.offs.(idx))

(* Position [cur] at the node's source-version section (after the flags
   byte and any inline payload); returns the wire flags. *)
let seek_sources v idx =
  let f = flags v idx in
  v.cur <- v.offs.(idx) + 1;
  if f land (32 lor 64) = 0 then begin
    let len = rvarint v in
    v.cur <- v.cur + len
  end;
  f

let skip_vn v =
  let eph = u8 v = 1 in
  (if eph then ignore (rvarint v) else ignore (rzint v));
  ignore (rvarint v)

(* Mirror [Node.ssv_is_vn] / [Node.scv_is_cv] with this side's source
   versions re-read off the wire in place: presence and value class come
   from the meta word, the version words from the bytes.  No allocation —
   these run once per meld visit. *)
let[@inline] words_match v ~eph a b =
  let _tag = u8 v in
  let x = if eph then rvarint v else rzint v in
  x = a && rvarint v = b

let ssv_is_vn v idx (m : Node.node) =
  meta v idx land (Node.Meta.ssv_present lor Node.Meta.ssv_ephemeral)
  = Node.Meta.ssv_of_vn m.meta
  &&
  (let _ = seek_sources v idx in
   words_match v
     ~eph:(m.meta land Node.Meta.vn_ephemeral <> 0)
     m.vn_a m.vn_b)

let seek_scv v idx =
  let f = seek_sources v idx in
  if f land 8 <> 0 then skip_vn v

let scv_is_cv v idx (m : Node.node) =
  meta v idx land (Node.Meta.scv_present lor Node.Meta.scv_ephemeral)
  = Node.Meta.scv_of_cv m.meta
  &&
  (seek_scv v idx;
   words_match v
     ~eph:(m.meta land Node.Meta.cv_ephemeral <> 0)
     m.cv_a m.cv_b)

(* First word of the wire VN at the cursor (tag byte, then zigzag [pos]
   or plain [thread]); its second word follows as a plain varint. *)
let[@inline] rword_a v = if u8 v = 1 then rvarint v else rzint v

(* Packed source-version words, exactly as the eager decoder stores them
   ([0, 0] when absent).  One tuple of immediates — callers are
   node-construction paths that allocate anyway; [materialize] reads the
   same words without it. *)
let sources v idx =
  let f = seek_sources v idx in
  let ssv = f land 8 <> 0 and scv = f land 16 <> 0 in
  let ssv_a = if ssv then rword_a v else 0 in
  let ssv_b = if ssv then rvarint v else 0 in
  let scv_a = if scv then rword_a v else 0 in
  let scv_b = if scv then rvarint v else 0 in
  (ssv_a, ssv_b, scv_a, scv_b)

let payload v idx =
  let p = v.pays.(idx) in
  if p != unbound then p
  else begin
    let f = flags v idx in
    let p =
      if f land 32 <> 0 then Payload.Tombstone
      else begin
        (* elided slots (flag bit 64) were bound during the parse, so only
           an inline wire payload can still be unbound here *)
        v.cur <- v.offs.(idx) + 1;
        let len = rvarint v in
        Payload.Value (String.sub v.bytes v.cur len)
      end
    in
    v.pays.(idx) <- p;
    p
  end

(* Option view of the ssv — cold paths only (corrupt-intention reports). *)
let ssv v idx =
  let m = meta v idx in
  if m land Node.Meta.ssv_present = 0 then None
  else begin
    let _ = seek_sources v idx in
    let eph = u8 v = 1 in
    let a = if eph then rvarint v else rzint v in
    let b = rvarint v in
    Some
      (if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b)
  end

(* ---- materialization -------------------------------------------------- *)

let rec materialize v idx =
  if Array.length v.nodes = 0 then
    v.nodes <- Array.make (max 1 v.node_count) Node.empty;
  let n = v.nodes.(idx) in
  if n != Node.empty then n
  else begin
    let h = idx * 4 in
    let key = v.hot.(h) and meta = v.hot.(h + 1) in
    let left = mat_kid v v.hot.(h + 2) in
    let right = mat_kid v v.hot.(h + 3) in
    let payload = payload v idx in
    (* [sources] without the tuple: a materialized node is one block *)
    let f = seek_sources v idx in
    let ssv = f land 8 <> 0 and scv = f land 16 <> 0 in
    let ssv_a = if ssv then rword_a v else 0 in
    let ssv_b = if ssv then rvarint v else 0 in
    let scv_a = if scv then rword_a v else 0 in
    let scv_b = if scv then rvarint v else 0 in
    (* vn is Logged (pos, idx); [meta] already carries the cv's class *)
    let n =
      if meta land Node.Meta.altered <> 0 then
        Node.pack ~key ~payload ~left ~right ~vn_a:v.pos ~vn_b:idx
          ~cv_a:v.pos ~cv_b:idx ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
      else
        Node.pack ~key ~payload ~left ~right ~vn_a:v.pos ~vn_b:idx
          ~cv_a:scv_a ~cv_b:scv_b ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
    in
    v.nodes.(idx) <- n;
    n
  end

and mat_kid v c =
  if c >= 0 then materialize v c
  else if c = kid_empty then Node.empty
  else v.refs.(-c - 2)

let materialize_root v =
  if v.node_count = 0 then Node.empty else materialize v (v.node_count - 1)

(* ---- parse: record, then bind ------------------------------------------ *)

(* BST descent to the unique same-key node of the snapshot tree — the
   same physical object the eager decoder's state-first resolver returns.
   [Key.t] is [int]; comparing directly keeps the descent call-free. *)
let rec find_peer (p : Node.tree) (k : Key.t) =
  if p == Node.empty then p
  else
    let pk = p.key in
    if k = pk then p else if k < pk then find_peer p.left k
    else find_peer p.right k

let[@inline] vn_matches (n : Node.node) ~eph ~a ~b =
  n.vn_a = a && n.vn_b = b && (n.meta land Node.Meta.vn_ephemeral <> 0) = eph

(* Per-domain parse scratch: the structural pass's cursor ([s], [lim],
   [p]) and the binding inputs it records in [sc], so that each wire
   byte is decoded exactly once.  [sc] holds two regions for an
   intention of [n] nodes:
   - [0, 3n): per node, [cls; a; b] — [cls] is 0 unless the node's
     payload is elided, else its ssv's class (1 logged, 2 ephemeral)
     and [a], [b] the ssv's words;
   - from [3n]: per reference slot, [cls; a; b; key] for the referenced
     version and key.
   A view never points into the scratch, and [s] is cleared on exit so
   the scratch never pins a wire buffer.  [busy] guards re-entry: a
   resolver that itself parses gets a fresh scratch. *)
type scratch = {
  mutable s : string;
  mutable lim : int;
  mutable p : int;
  mutable sc : int array;
  mutable nrefs : int;
  mutable busy : bool;
}

(* Initial [sc] words (3 per node plus 4 per reference); [grow] doubles. *)
let scratch_words = 1024

let new_scratch () =
  {
    s = "";
    lim = 0;
    p = 0;
    sc = Array.make scratch_words 0;
    nrefs = 0;
    busy = false;
  }

let scratch_key = Domain.DLS.new_key new_scratch

let grow c need =
  let cap = ref (2 * Array.length c.sc) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let a = Array.make !cap 0 in
  Array.blit c.sc 0 a 0 (Array.length c.sc);
  c.sc <- a

(* Cursor readers.  Top level and [@inline] on purpose: local closures
   over a [ref] cost a real call per byte without flambda, and the same
   reads through [Wire.Reader] add a cross-module call per byte plus a
   boxed [Int64] fold per varint.  Semantics are [Wire.Reader]'s — same
   bounds checks, same [Truncated] before every byte — and the varint
   reader matches [Int64.to_int (Wire.Reader.varint64 r)] exactly,
   including the modulo-2^63 wrap (the shift-63 byte can only contribute
   bit 63, which [Int64.to_int] drops, so its contribution is skipped
   rather than shifted — an [lsl] by 63 is unspecified on 63-bit ints). *)
let[@inline] rd_u8 c =
  let p = c.p in
  if p >= c.lim then raise Wire.Truncated;
  c.p <- p + 1;
  Char.code (String.unsafe_get c.s p)

let rd_uint_rest c b0 =
  let x = ref (b0 land 0x7F) and shift = ref 7 and continue = ref true in
  while !continue do
    if !shift > 63 then raise Wire.Truncated;
    let b = rd_u8 c in
    if !shift < 63 then x := !x lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !x

(* Single-byte fast path: most wire integers (child indexes, version
   counters, payload lengths) fit in seven bits. *)
let[@inline] rd_uint c =
  let b = rd_u8 c in
  if b < 0x80 then b else rd_uint_rest c b

(* Zigzag decode over that 63-bit wrap.  Writer-produced encodings never
   set bit 63 (the zigzag of a 63-bit int fits in 63 bits), so this
   agrees with the eager decoder's Int64 path on every buffer the
   encoder can emit. *)
let[@inline] rd_zint c =
  let u = rd_uint c in
  u lsr 1 lxor - (u land 1)

let rd_skip c n =
  if n < 0 || n > c.lim - c.p then raise Wire.Truncated;
  c.p <- c.p + n

(* One wire VN: stores its words at [sc.(at)], [sc.(at + 1)] and returns
   its class (1 logged, 2 ephemeral).  The caller has sized [sc]. *)
let rd_vn_into c at =
  let tag = rd_u8 c in
  let a =
    match tag with
    | 0 -> rd_zint c
    | 1 -> rd_uint c
    | _ -> corrupt "bad VN tag %d" tag
  in
  let b = rd_uint c in
  Array.unsafe_set c.sc at a;
  Array.unsafe_set c.sc (at + 1) b;
  tag + 1

(* One wire VN whose words the binding pass does not need: class only. *)
let rd_vn_class c =
  let tag = rd_u8 c in
  if tag > 1 then corrupt "bad VN tag %d" tag;
  ignore (rd_uint c);
  ignore (rd_uint c);
  tag + 1

(* A child descriptor of node [self]; a reference gets the next slot and
   its (class, a, b, key) recorded at [base + 4 * slot]. *)
let rd_child c self base =
  match rd_u8 c with
  | 0 -> kid_empty
  | 1 ->
      let i = rd_uint c in
      if i < 0 || i >= self then corrupt "child index %d out of order" i;
      i
  | 2 ->
      let slot = c.nrefs in
      let at = base + (4 * slot) in
      if at + 4 > Array.length c.sc then grow c (at + 4);
      let cls = rd_vn_into c (at + 1) in
      let key = rd_zint c in
      Array.unsafe_set c.sc at cls;
      Array.unsafe_set c.sc (at + 3) key;
      c.nrefs <- slot + 1;
      -slot - 2
  | tag -> corrupt "bad child tag %d" tag

(* Has-writes test of a child descriptor against [obh] (this intention's
   owner bits plus [has_writes]).  Empty kids never carry this
   intention's writes, and neither do refs: a ref resolves to a node
   owned by an earlier log position, so its owner bits can never equal
   this intention's (the eager decoder computes the same test against
   the resolved node and always gets false) — which is why the structural
   pass can compute meta words before any reference is bound. *)
let[@inline] kid_hw hot obh c =
  c >= 0 && Array.unsafe_get hot ((c * 4) + 1) land Node.Meta.hw_mask = obh

let bind_elided v (resolve : resolver) idx key (m : Node.tree) ~eph ~a ~b =
  if m != Node.empty && vn_matches m ~eph ~a ~b then
    v.pays.(idx) <- m.payload
  else begin
    let source_vn =
      if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b
    in
    let m = resolve ~snapshot:v.snapshot ~key ~vn:source_vn in
    if m == Node.empty then
      corrupt "elided payload: key %d missing from snapshot" key
    else if not (Node.vn_equals m source_vn) then
      corrupt "elided payload: source of key %d is version %s" key
        (Vn.to_string (Node.vn m));
    v.pays.(idx) <- m.payload
  end

(* Bind reference child [c] of the node with key [pkey] and snapshot peer
   [m] ([sub] is the subtree [m] was searched in). *)
let bind_ref v sc base (resolve : resolver) c pkey (m : Node.tree) sub =
  let slot = -c - 2 in
  let at = base + (4 * slot) in
  let key = Array.unsafe_get sc (at + 3) in
  let sub =
    if m == Node.empty then sub else if key < pkey then m.left else m.right
  in
  let eph = Array.unsafe_get sc at = 2 in
  let a = Array.unsafe_get sc (at + 1) and b = Array.unsafe_get sc (at + 2) in
  let n0 = find_peer sub key in
  let n =
    if n0 != Node.empty && vn_matches n0 ~eph ~a ~b then n0
    else begin
      let x =
        if eph then Vn.ephemeral ~thread:a ~seq:b else Vn.logged ~pos:a ~idx:b
      in
      let resolved = resolve ~snapshot:v.snapshot ~key ~vn:x in
      if resolved == Node.empty then
        corrupt "unresolvable reference to key %d" key
      else if not (Node.vn_equals resolved x) then
        corrupt "reference to key %d resolved to wrong version" key;
      resolved
    end
  in
  v.refs.(slot) <- n

let[@inline] kid_sub hot c key (m : Node.tree) sub =
  if m == Node.empty then sub
  else if Array.unsafe_get hot (c * 4) < key then m.left
  else m.right

(* Top-down binding, threading each node's snapshot-peer subtree: a
   node's peer is searched inside its parent's peer's matching child —
   depth 0 in the aligned common case — so binding costs O(1) tree
   touches per node.  Reads only [v.hot], the recorded scratch [sc] and
   the snapshot tree.  Visited nodes are marked by flipping [offs]
   negative, so sharing in a hand-crafted buffer cannot blow up the walk. *)
let rec bind_down v sc base resolve idx sub =
  let offs = v.offs in
  let off0 = Array.unsafe_get offs idx in
  if off0 >= 0 then begin
    Array.unsafe_set offs idx (-off0 - 1);
    let hot = v.hot in
    let h = idx * 4 in
    let key = Array.unsafe_get hot h in
    let m = find_peer sub key in
    let r = 3 * idx in
    let cls = Array.unsafe_get sc r in
    if cls <> 0 then
      bind_elided v resolve idx key m ~eph:(cls = 2)
        ~a:(Array.unsafe_get sc (r + 1))
        ~b:(Array.unsafe_get sc (r + 2));
    let kl = Array.unsafe_get hot (h + 2) and kr = Array.unsafe_get hot (h + 3) in
    if kl <= -2 then bind_ref v sc base resolve kl key m sub;
    if kr <= -2 then bind_ref v sc base resolve kr key m sub;
    if kl >= 0 then bind_down v sc base resolve kl (kid_sub hot kl key m sub);
    if kr >= 0 then bind_down v sc base resolve kr (kid_sub hot kr key m sub)
  end

(* Structural pass, then binding pass.  The structural pass validates the
   whole encoding (the eager decoder's checks, in its order, with its
   error messages), fills [hot]/[offs], and records each elided node's
   ssv and each reference's version and key in the scratch.  The binding
   pass then binds every elided payload and reference — first by
   [find_peer] in [peer] (the snapshot tree this intention executed
   against, [Node.empty] when unavailable), then through [resolve] for
   anything the snapshot cannot answer, with the eager decoder's checks
   and messages.  A candidate miss (rotation near an altered node, or a
   dishonestly-shaped buffer) simply falls through to [resolve], which is
   all the eager decoder ever uses.  Nodes unreachable from the root
   (never emitted by the executor) are swept afterwards against the
   snapshot root, and the [offs] marks are restored before returning. *)
let record_and_bind c ~pos ~len ~peer ~resolve s =
  let snapshot = rd_zint c in
  let server = rd_uint c in
  let txn_seq = rd_uint c in
  let isolation = rd_u8 c in
  if isolation > 2 then corrupt "bad isolation %d" isolation;
  let node_count = rd_uint c in
  if node_count < 0 || node_count > len then
    corrupt "implausible node count %d" node_count;
  let hot = Array.make (node_count * 4) 0 in
  let offs = Array.make (max 1 node_count) 0 in
  let pays = Array.make (max 1 node_count) unbound in
  let base = 3 * node_count in
  if base > Array.length c.sc then grow c base;
  let ob = Node.Meta.owner_bits pos in
  let obh = ob lor Node.Meta.has_writes in
  for idx = 0 to node_count - 1 do
    let key = rd_zint c in
    Array.unsafe_set offs idx c.p;
    let flags = rd_u8 c in
    if flags land (32 lor 64) = 0 then rd_skip c (rd_uint c);
    let r = 3 * idx in
    let ssv = if flags land 8 <> 0 then rd_vn_into c (r + 1) else 0 in
    let scv = if flags land 16 <> 0 then rd_vn_class c else 0 in
    let elided = flags land (32 lor 64) = 64 in
    if elided && ssv = 0 then
      corrupt "elided payload on a node without a source";
    Array.unsafe_set c.sc r (if elided then ssv else 0);
    let kl = rd_child c idx base in
    let kr = rd_child c idx base in
    if flags land 1 = 0 && scv = 0 then
      corrupt "unaltered node %d lacks a content version" key;
    let m =
      ob lor (flags land 0x7)
      lor (match ssv with
          | 0 -> 0
          | 1 -> Node.Meta.ssv_present
          | _ -> Node.Meta.ssv_present lor Node.Meta.ssv_ephemeral)
      lor (match scv with
          | 0 -> 0
          | 1 -> Node.Meta.scv_present
          | _ -> Node.Meta.scv_present lor Node.Meta.scv_ephemeral)
      (* the cv of an unaltered node is its scv; vn is always logged *)
      lor (if flags land 1 = 0 && scv = 2 then Node.Meta.cv_ephemeral else 0)
      (* bottom-up [Node.pack] has-writes rule: children precede parents
         in post-order, so their meta words are already final *)
      lor
      if flags land 1 <> 0 || ssv = 0 || kid_hw hot obh kl || kid_hw hot obh kr
      then Node.Meta.has_writes
      else 0
    in
    let h = idx * 4 in
    Array.unsafe_set hot h key;
    Array.unsafe_set hot (h + 1) m;
    Array.unsafe_set hot (h + 2) kl;
    Array.unsafe_set hot (h + 3) kr
  done;
  if c.p <> c.lim then corrupt "trailing bytes";
  let v =
    {
      pos;
      snapshot;
      server;
      txn_seq;
      isolation;
      node_count;
      byte_size = len;
      bytes = s;
      hot;
      offs;
      refs = Array.make c.nrefs Node.empty;
      pays;
      nodes = [||];
      cur = 0;
    }
  in
  let sc = c.sc in
  if node_count > 0 then bind_down v sc base resolve (node_count - 1) peer;
  for idx = node_count - 1 downto 0 do
    if offs.(idx) >= 0 then bind_down v sc base resolve idx peer
  done;
  for idx = 0 to node_count - 1 do
    offs.(idx) <- -offs.(idx) - 1
  done;
  v

let release c =
  c.busy <- false;
  c.s <- ""

let parse ~pos ?(off = 0) ?len ~peer ~(resolve : resolver) s =
  let len = match len with Some l -> l | None -> String.length s - off in
  let limit = off + len in
  if off < 0 || limit > String.length s then
    invalid_arg "Wire.Reader.of_string: range out of bounds";
  let c = Domain.DLS.get scratch_key in
  let c = if c.busy then new_scratch () else c in
  c.busy <- true;
  c.s <- s;
  c.lim <- limit;
  c.p <- off;
  c.nrefs <- 0;
  match record_and_bind c ~pos ~len ~peer ~resolve s with
  | v ->
      release c;
      v
  | exception Wire.Truncated ->
      release c;
      corrupt "truncated intention"
  | exception e ->
      release c;
      raise e
