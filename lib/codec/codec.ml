open Hyder_tree
open Node
module Wire = Hyder_util.Wire
module Crc32 = Hyder_util.Crc32

(* The canonical corruption exception lives in [View] (the lazy parser);
   eager and lazy decoders raise the same constructor so callers can
   catch either path uniformly. *)
exception Corrupt = View.Corrupt

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* Zigzag mapping so small negative values (genesis positions, sentinel
   snapshots) stay one byte. *)
let zigzag v = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag v =
  Int64.logxor
    (Int64.shift_right_logical v 1)
    (Int64.neg (Int64.logand v 1L))

let w_zint w v =
  (* Unboxed fast path: for |v| < 2^60 the native zigzag equals the
     64-bit one, and the non-negative result takes Writer.varint's
     allocation-free loop.  Larger magnitudes (never produced by log
     positions or keys, but the format must stay total) keep the exact
     Int64 semantics. *)
  let s = v asr 60 in
  if s = 0 || s = -1 then Wire.Writer.varint w (v lsl 1 lxor (v asr 62))
  else Wire.Writer.varint64 w (zigzag (Int64.of_int v))
let r_zint r = Int64.to_int (unzigzag (Wire.Reader.varint64 r))

let w_vn w = function
  | Vn.Logged { pos; idx } ->
      Wire.Writer.u8 w 0;
      w_zint w pos;
      Wire.Writer.varint w idx
  | Vn.Ephemeral { thread; seq } ->
      Wire.Writer.u8 w 1;
      Wire.Writer.varint w thread;
      Wire.Writer.varint w seq

let r_vn r =
  match Wire.Reader.u8 r with
  | 0 ->
      let pos = r_zint r in
      let idx = Wire.Reader.varint r in
      Vn.logged ~pos ~idx
  | 1 ->
      let thread = Wire.Reader.varint r in
      let seq = Wire.Reader.varint r in
      Vn.ephemeral ~thread ~seq
  | tag -> corrupt "bad VN tag %d" tag

(* [w_vn] over the packed source-version words — same bytes, no boxed
   [Vn.t] in between. *)
let w_vn_parts w ~eph ~a ~b =
  if eph then begin
    Wire.Writer.u8 w 1;
    Wire.Writer.varint w a;
    Wire.Writer.varint w b
  end
  else begin
    Wire.Writer.u8 w 0;
    w_zint w a;
    Wire.Writer.varint w b
  end

let isolation_to_int = function
  | Intention.Serializable -> 0
  | Intention.Snapshot_isolation -> 1
  | Intention.Read_committed -> 2

let isolation_of_int = function
  | 0 -> Intention.Serializable
  | 1 -> Intention.Snapshot_isolation
  | 2 -> Intention.Read_committed
  | i -> corrupt "bad isolation %d" i

(* Child descriptor tags. *)
let tag_empty = 0
let tag_inside = 1
let tag_ref = 2

(* The snapshot position is deliberately the FIRST field: schedulers can
   tell from one varint whether an intention's references resolve against
   already-recorded state (see [peek_snapshot]) without decoding it. *)
let encode_onto w (d : Intention.draft) =
  w_zint w d.snapshot;
  Wire.Writer.varint w d.server;
  Wire.Writer.varint w d.txn_seq;
  Wire.Writer.u8 w (isolation_to_int d.isolation);
  (* Count inside nodes first so the decoder can size its index table. *)
  let rec count t =
    if t == Node.empty || Node.owner t <> Intention.draft_owner then 0
    else 1 + count t.left + count t.right
  in
  Wire.Writer.varint w (count d.root);
  let next_idx = ref 0 in
  let w_child c =
    if c == Node.empty then Wire.Writer.u8 w tag_empty
    else if Node.owner c = Intention.draft_owner then corrupt "child before parent"
    else begin
      Wire.Writer.u8 w tag_ref;
      w_vn w c.vn;
      w_zint w c.key
    end
  in
  (* Post-order: children first; an inside child's index is the value the
     recursion returns ([-1]: not an inside node, the child is written as
     a ref — kept as a plain int so the walk allocates nothing). *)
  let rec go n =
    if n == Node.empty || Node.owner n <> Intention.draft_owner then -1
    else begin
          let li = go n.left in
          let ri = go n.right in
          w_zint w n.key;
          (* An unaltered node's payload equals its source version's, so it
             is not shipped: the decoder recovers it through ssv.  This is
             what keeps serializable-isolation intentions metadata-sized
             despite carrying the whole readset (Section 6.4.4). *)
          let elide_payload =
            n.meta land Meta.altered = 0 && n.meta land Meta.ssv_present <> 0
          in
          (* The low three meta bits are the low three wire flag bits. *)
          let flags =
            n.meta land 0x7
            lor (if n.meta land Meta.ssv_present <> 0 then 8 else 0)
            lor (if n.meta land Meta.scv_present <> 0 then 16 else 0)
            lor (if Payload.is_tombstone n.payload then 32 else 0)
            lor (if elide_payload then 64 else 0)
          in
          Wire.Writer.u8 w flags;
          (match n.payload with
          | Payload.Tombstone -> ()
          | Payload.Value _ when elide_payload -> ()
          | Payload.Value s -> Wire.Writer.bytes w s);
          if n.meta land Meta.ssv_present <> 0 then
            w_vn_parts w
              ~eph:(n.meta land Meta.ssv_ephemeral <> 0)
              ~a:n.ssv_a ~b:n.ssv_b;
          if n.meta land Meta.scv_present <> 0 then
            w_vn_parts w
              ~eph:(n.meta land Meta.scv_ephemeral <> 0)
              ~a:n.scv_a ~b:n.scv_b;
          (if li >= 0 then begin
             Wire.Writer.u8 w tag_inside;
             Wire.Writer.varint w li
           end
           else w_child n.left);
          (if ri >= 0 then begin
             Wire.Writer.u8 w tag_inside;
             Wire.Writer.varint w ri
           end
           else w_child n.right);
          let idx = !next_idx in
          incr next_idx;
          idx
        end
  in
  if go d.root < 0 then
    (* Empty intention trees (pure read-only txns under SI produce no
       nodes) are legal; nothing more to write. *)
    if d.root != Node.empty then corrupt "intention root is not a draft node"

let encode (d : Intention.draft) =
  let w = Wire.Writer.create ~capacity:8192 () in
  encode_onto w d;
  Wire.Writer.contents w

let encoded_size d = String.length (encode d)

(* A pooled encoder reuses one growable writer (optionally backed by a
   per-domain Buf_pool), so steady-state encoding allocates only the
   result string. *)
module Encoder = struct
  type t = Wire.Writer.t

  let create ?pool () = Wire.Writer.create ?pool ~capacity:8192 ()

  let encode t d =
    Wire.Writer.clear t;
    encode_onto t d;
    Wire.Writer.contents t

  let free t = Wire.Writer.free t
end

type resolver = snapshot:int -> key:Key.t -> vn:Vn.t -> Node.tree

let peek_snapshot ?(off = 0) s =
  let r = Wire.Reader.of_string ~pos:off s in
  try r_zint r with Wire.Truncated -> corrupt "truncated intention header"

(* Shared decode core.  [r] is positioned at the start of an intention
   encoding spanning [len] bytes; [get_nodes count] supplies the swizzle
   table (length >= max 1 count) — a fresh array for [decode_indexed], a
   reused scratch table for [decode_pooled]. *)
let decode_core r ~len ~pos ~resolve ~get_nodes =
  try
    let snapshot = r_zint r in
    let server = Wire.Reader.varint r in
    let txn_seq = Wire.Reader.varint r in
    let isolation = isolation_of_int (Wire.Reader.u8 r) in
    let node_count = Wire.Reader.varint r in
    if node_count < 0 || node_count > len then
      corrupt "implausible node count %d" node_count;
    let nodes : Node.tree array = get_nodes node_count in
    let r_child self =
      match Wire.Reader.u8 r with
      | t when t = tag_empty -> Node.empty
      | t when t = tag_inside ->
          let i = Wire.Reader.varint r in
          if i < 0 || i >= self then corrupt "child index %d out of order" i;
          nodes.(i)
      | t when t = tag_ref ->
          let vn = r_vn r in
          let key = r_zint r in
          let resolved = resolve ~snapshot ~key ~vn in
          if resolved == Node.empty then
            corrupt "unresolvable reference to key %d" key
          else if not (Vn.equal resolved.vn vn) then
            corrupt "reference to key %d resolved to wrong version" key;
          resolved
      | t -> corrupt "bad child tag %d" t
    in
    let ob = Meta.owner_bits pos in
    for idx = 0 to node_count - 1 do
      let key = r_zint r in
      let flags = Wire.Reader.u8 r in
      (* Straight-line part reads into plain ints — no option or boxed VN
         per source version; the same wire bytes in the same order. *)
      let payload_str =
        if flags land (32 lor 64) = 0 then Wire.Reader.bytes r else ""
      in
      let has_ssv = flags land 8 <> 0 in
      let ssv_eph =
        has_ssv
        &&
        match Wire.Reader.u8 r with
        | 0 -> false
        | 1 -> true
        | tag -> corrupt "bad VN tag %d" tag
      in
      let ssv_a =
        if has_ssv then if ssv_eph then Wire.Reader.varint r else r_zint r
        else 0
      in
      let ssv_b = if has_ssv then Wire.Reader.varint r else 0 in
      let has_scv = flags land 16 <> 0 in
      let scv_eph =
        has_scv
        &&
        match Wire.Reader.u8 r with
        | 0 -> false
        | 1 -> true
        | tag -> corrupt "bad VN tag %d" tag
      in
      let scv_a =
        if has_scv then if scv_eph then Wire.Reader.varint r else r_zint r
        else 0
      in
      let scv_b = if has_scv then Wire.Reader.varint r else 0 in
      let payload =
        if flags land 32 <> 0 then Payload.Tombstone
        else if flags land 64 = 0 then Payload.Value payload_str
        else begin
          (* elided: recovered via ssv *)
          if not has_ssv then
            corrupt "elided payload on a node without a source";
          let source_vn =
            if ssv_eph then Vn.ephemeral ~thread:ssv_a ~seq:ssv_b
            else Vn.logged ~pos:ssv_a ~idx:ssv_b
          in
          let m = resolve ~snapshot ~key ~vn:source_vn in
          if m == Node.empty then
            corrupt "elided payload: key %d missing from snapshot" key
          else if not (Vn.equal m.vn source_vn) then
            corrupt "elided payload: source of key %d is version %s" key
              (Vn.to_string m.vn);
          m.payload
        end
      in
      let left = r_child idx in
      let right = r_child idx in
      let altered = flags land 1 <> 0 in
      let vn = Vn.logged ~pos ~idx in
      let cv =
        if altered then vn
        else begin
          if not has_scv then
            corrupt "unaltered node %d lacks a content version" key;
          if scv_eph then Vn.ephemeral ~thread:scv_a ~seq:scv_b
          else Vn.logged ~pos:scv_a ~idx:scv_b
        end
      in
      let meta =
        ob lor (flags land 0x7)
        lor (if has_ssv then
               if ssv_eph then Meta.ssv_present lor Meta.ssv_ephemeral
               else Meta.ssv_present
             else 0)
        lor
        if has_scv then
          if scv_eph then Meta.scv_present lor Meta.scv_ephemeral
          else Meta.scv_present
        else 0
      in
      nodes.(idx) <-
        Node.pack ~key ~payload ~left ~right ~vn ~cv ~meta ~ssv_a ~ssv_b
          ~scv_a ~scv_b
    done;
    if Wire.Reader.remaining r <> 0 then corrupt "trailing bytes";
    let root = if node_count = 0 then Node.empty else nodes.(node_count - 1) in
    {
      Intention.pos;
      snapshot;
      server;
      txn_seq;
      isolation;
      root;
      node_count;
      byte_size = len;
      view = None;
    }
  with Wire.Truncated -> corrupt "truncated intention"

let decode_indexed ~pos ~resolve s =
  let nodes = ref [||] in
  let i =
    decode_core
      (Wire.Reader.of_string s)
      ~len:(String.length s) ~pos ~resolve
      ~get_nodes:(fun count ->
        nodes := Array.make (max 1 count) Node.empty;
        !nodes)
  in
  (i, !nodes)

(* Reusable decode scratch: the swizzle table survives across intentions,
   so steady-state deserialization allocates only the nodes themselves.
   One scratch per domain — the table is single-owner mutable state. *)
module Scratch = struct
  type t = { mutable nodes : Node.tree array; mutable last_count : int }

  let create () = { nodes = Array.make 64 Node.empty; last_count = 0 }

  let table t count =
    let need = max 1 count in
    if Array.length t.nodes < need then begin
      let cap = ref (Array.length t.nodes) in
      while !cap < need do
        cap := 2 * !cap
      done;
      t.nodes <- Array.make !cap Node.empty
    end;
    t.last_count <- count;
    t.nodes

  let export t = Array.sub t.nodes 0 (max 1 t.last_count)

  let clear t =
    Array.fill t.nodes 0 (Array.length t.nodes) Node.empty;
    t.last_count <- 0
end

let decode_pooled ~scratch ~pos ?(off = 0) ?len ~resolve s =
  let len = match len with Some l -> l | None -> String.length s - off in
  decode_core
    (Wire.Reader.of_string ~pos:off ~len s)
    ~len ~pos ~resolve
    ~get_nodes:(Scratch.table scratch)

module Blocks = struct
  (* Framing: crc32 | server | txn_seq | frag_idx | last flag | payload. *)
  let overhead = 4 + 10 + 10 + 10 + 1 + 10

  (* Each block is built in one exact-size buffer: the header varints and
     the payload slice are written once, the checksum is computed over
     the body in place, and the u32 lands in front. *)
  let split ~block_size ~server ~txn_seq s =
    if block_size <= overhead then invalid_arg "Codec.Blocks.split: tiny block";
    let chunk = block_size - overhead in
    let total = String.length s in
    let nfrags = max 1 ((total + chunk - 1) / chunk) in
    List.init nfrags (fun i ->
        let off = i * chunk in
        let len = min chunk (total - off) in
        let size =
          4 + Wire.varint_size server + Wire.varint_size txn_seq
          + Wire.varint_size i + 1 + Wire.varint_size len + len
        in
        let b = Bytes.create size in
        let at = Wire.put_varint b 4 server in
        let at = Wire.put_varint b at txn_seq in
        let at = Wire.put_varint b at i in
        Bytes.unsafe_set b at (if i = nfrags - 1 then '\001' else '\000');
        let at = Wire.put_varint b (at + 1) len in
        Bytes.blit_string s off b at len;
        Bytes.set_int32_le b 0 (Crc32.digest b ~pos:4 ~len:(size - 4));
        Bytes.unsafe_to_string b)

  let blocks_needed ~block_size size =
    let chunk = block_size - overhead in
    max 1 ((size + chunk - 1) / chunk)

  module Reassembler = struct
    type partial = { buf : Buffer.t; mutable next_frag : int }
    type t = { partials : (int * int, partial) Hashtbl.t }

    let create () = { partials = Hashtbl.create 64 }

    (* A single-fragment intention (the common case) is one [String.sub]
       of its block.  While a partial of the same (server, txn_seq) is
       open it takes the general path instead, which rejects it as out of
       order. *)
    let feed t ~pos block =
      let r = Wire.Reader.of_string block in
      try
        let crc = Wire.Reader.u32 r in
        let body_off = Wire.Reader.pos r in
        let body_len = String.length block - body_off in
        let actual =
          Crc32.digest (Bytes.unsafe_of_string block) ~pos:body_off ~len:body_len
        in
        if not (Int32.equal crc actual) then
          corrupt "block %d checksum mismatch" pos;
        let server = Wire.Reader.varint r in
        let txn_seq = Wire.Reader.varint r in
        let frag_idx = Wire.Reader.varint r in
        let last = Wire.Reader.u8 r = 1 in
        let len = Wire.Reader.varint r in
        let off = Wire.Reader.pos r in
        if len < 0 || len > String.length block - off then raise Wire.Truncated;
        if
          frag_idx = 0 && last
          && (Hashtbl.length t.partials = 0
             || not (Hashtbl.mem t.partials (server, txn_seq)))
        then Some (pos, String.sub block off len)
        else begin
          let key = (server, txn_seq) in
          let partial =
            match Hashtbl.find_opt t.partials key with
            | Some p -> p
            | None ->
                let p = { buf = Buffer.create 1024; next_frag = 0 } in
                Hashtbl.add t.partials key p;
                p
          in
          if frag_idx <> partial.next_frag then
            corrupt "block %d: fragment %d arrived out of order (expected %d)"
              pos frag_idx partial.next_frag;
          Buffer.add_substring partial.buf block off len;
          partial.next_frag <- partial.next_frag + 1;
          if last then begin
            Hashtbl.remove t.partials key;
            Some (pos, Buffer.contents partial.buf)
          end
          else None
        end
      with Wire.Truncated -> corrupt "block %d truncated" pos

    let pending t = Hashtbl.length t.partials
  end
end

let decode ~pos ~resolve s = fst (decode_indexed ~pos ~resolve s)

(* Lazy decode: validate + bind in one pass, build no nodes.  [root] is a
   placeholder; the flyweight in [view] carries the tree, and whoever
   needs heap nodes calls [View.materialize_root]. *)
let decode_lazy ~pos ?off ?len ?(peer = Node.empty) ~resolve s =
  let v = View.parse ~pos ?off ?len ~peer ~resolve s in
  {
    Intention.pos;
    snapshot = View.snapshot v;
    server = View.server v;
    txn_seq = View.txn_seq v;
    isolation = isolation_of_int (View.isolation_code v);
    root = Node.empty;
    node_count = View.node_count v;
    byte_size = View.byte_size v;
    view = Some v;
  }
