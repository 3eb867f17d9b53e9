open Node

type t = Node.tree

let empty = Node.empty

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* All recursions test [== empty] before touching children: the sentinel's
   children are the sentinel itself (see node.mli). *)

let rec find t key =
  if t == empty then None
  else
    let c = Key.compare key t.key in
    if c = 0 then Some t else if c < 0 then find t.left key else find t.right key

let lookup t key =
  match find t key with
  | None -> None
  | Some n -> if Payload.is_tombstone n.payload then None else Some n.payload

let mem t key = match lookup t key with None -> false | Some _ -> true

let rec pred t key =
  if t == empty then None
  else if Key.compare t.key key < 0 then
    match pred t.right key with None -> Some t | Some m -> Some m
  else pred t.left key

let rec succ t key =
  if t == empty then None
  else if Key.compare t.key key > 0 then
    match succ t.left key with None -> Some t | Some m -> Some m
  else succ t.right key

let range_items t ~lo ~hi =
  let rec go t acc =
    if t == empty then acc
    else begin
      let acc = if Key.compare t.key hi < 0 then go t.right acc else acc in
      let acc =
        if Key.compare lo t.key <= 0 && Key.compare t.key hi <= 0
           && not (Payload.is_tombstone t.payload)
        then (t.key, t.payload) :: acc
        else acc
      in
      if Key.compare lo t.key < 0 then go t.left acc else acc
    end
  in
  go t []

let rec iter t f =
  if t == empty then ()
  else begin
    iter t.left f;
    f t;
    iter t.right f
  end

let to_alist t =
  let acc = ref [] in
  let rec go t =
    if t == empty then ()
    else begin
      go t.right;
      if not (Payload.is_tombstone t.payload) then
        acc := (t.key, t.payload) :: !acc;
      go t.left
    end
  in
  go t;
  !acc

(* ------------------------------------------------------------------ *)
(* Copy-on-write mutators                                              *)
(* ------------------------------------------------------------------ *)

(* A new draft node derived from [old]: a node already owned by this
   intention keeps its snapshot-relative metadata (flags and packed
   source versions); a snapshot node becomes the source — ssv := its vn,
   scv := its cv, access flags cleared.  Every copy takes the identity
   [fresh ()], unpacked into its words and class bit: [fresh_node] keeps
   the given cv, [fresh_write] makes the copy its own content version
   (cv := vn).  Each is one packed construction, no option or tuple. *)

let fresh_node ~fresh ~key ~payload ~left ~right ~cv_a ~cv_b ~meta ~ssv_a
    ~ssv_b ~scv_a ~scv_b =
  let meta = meta land lnot Meta.vn_ephemeral in
  match (fresh () : Vn.t) with
  | Vn.Logged { pos; idx } ->
      Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a ~cv_b
        ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
  | Vn.Ephemeral { thread; seq } ->
      Node.pack ~key ~payload ~left ~right ~vn_a:thread ~vn_b:seq ~cv_a ~cv_b
        ~meta:(meta lor Meta.vn_ephemeral) ~ssv_a ~ssv_b ~scv_a ~scv_b

let fresh_write ~fresh ~key ~payload ~left ~right ~meta ~ssv_a ~ssv_b ~scv_a
    ~scv_b =
  let meta = meta land lnot (Meta.vn_ephemeral lor Meta.cv_ephemeral) in
  match (fresh () : Vn.t) with
  | Vn.Logged { pos; idx } ->
      Node.pack ~key ~payload ~left ~right ~vn_a:pos ~vn_b:idx ~cv_a:pos
        ~cv_b:idx ~meta ~ssv_a ~ssv_b ~scv_a ~scv_b
  | Vn.Ephemeral { thread; seq } ->
      Node.pack ~key ~payload ~left ~right ~vn_a:thread ~vn_b:seq ~cv_a:thread
        ~cv_b:seq
        ~meta:(meta lor Meta.vn_ephemeral lor Meta.cv_ephemeral)
        ~ssv_a ~ssv_b ~scv_a ~scv_b

(* Copy of [n] with the extra [flags] and new children; same payload and
   content version. *)
let derive ~owner ~fresh (n : node) ~flags ~left ~right =
  if Node.owner n = owner then
    fresh_node ~fresh ~key:n.key ~payload:n.payload ~left ~right ~cv_a:n.cv_a
      ~cv_b:n.cv_b ~meta:(n.meta lor flags) ~ssv_a:n.ssv_a ~ssv_b:n.ssv_b
      ~scv_a:n.scv_a ~scv_b:n.scv_b
  else
    fresh_node ~fresh ~key:n.key ~payload:n.payload ~left ~right ~cv_a:n.cv_a
      ~cv_b:n.cv_b
      ~meta:
        (Meta.owner_bits owner lor flags lor Meta.sources_of n.meta
        lor (n.meta land Meta.cv_ephemeral))
      ~ssv_a:n.vn_a ~ssv_b:n.vn_b ~scv_a:n.cv_a ~scv_b:n.cv_b

(* Structural copy: same payload and access flags, new children. *)
let copy ~owner ~fresh old ~left ~right =
  derive ~owner ~fresh old ~flags:0 ~left ~right

(* Split a subtree around an absent key, copying the split path. *)
let rec split t key ~owner ~fresh =
  if t == empty then (empty, empty)
  else if Key.compare t.key key < 0 then begin
    let l2, r2 = split t.right key ~owner ~fresh in
    (copy ~owner ~fresh t ~left:t.left ~right:l2, r2)
  end
  else begin
    let l2, r2 = split t.left key ~owner ~fresh in
    (l2, copy ~owner ~fresh t ~left:r2 ~right:t.right)
  end

let upsert t ~owner ~fresh key payload =
  let fresh_insert ~left ~right =
    fresh_write ~fresh ~key ~payload ~left ~right
      ~meta:(Meta.owner_bits owner lor Meta.altered)
      ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0
  in
  let rec go t =
    if t == empty then fresh_insert ~left:empty ~right:empty
    else
      let c = Key.compare key t.key in
      if c = 0 then begin
        (* Payload update in place (copy-on-write). *)
        if Node.owner t = owner then
          fresh_write ~fresh ~key ~payload ~left:t.left ~right:t.right
            ~meta:(t.meta lor Meta.altered)
            ~ssv_a:t.ssv_a ~ssv_b:t.ssv_b ~scv_a:t.scv_a ~scv_b:t.scv_b
        else
          fresh_write ~fresh ~key ~payload ~left:t.left ~right:t.right
            ~meta:
              (Meta.owner_bits owner lor Meta.altered
              lor Meta.sources_of t.meta)
            ~ssv_a:t.vn_a ~ssv_b:t.vn_b ~scv_a:t.cv_a ~scv_b:t.cv_b
      end
      else if Key.priority_greater key t.key then begin
        (* The new key outranks this subtree's root: splice it here. *)
        let left, right = split t key ~owner ~fresh in
        fresh_insert ~left ~right
      end
      else if c < 0 then copy ~owner ~fresh t ~left:(go t.left) ~right:t.right
      else copy ~owner ~fresh t ~left:t.left ~right:(go t.right)
  in
  go t

(* Mark the node (copying it) with extra dependency flags; keep payload. *)
let mark ~owner ~fresh (n : node) ~content ~structure =
  let flags =
    (if content then Meta.dep_content else 0)
    lor if structure then Meta.dep_structure else 0
  in
  derive ~owner ~fresh n ~flags ~left:n.left ~right:n.right

let touch_read t ~owner ~fresh key =
  (* Returns the rebuilt subtree, or physically the same subtree when no
     marking was needed (so repeated reads do not churn versions). *)
  let ob = Meta.owner_bits owner in
  let rec go t =
    if t == empty then empty
    else
      let c = Key.compare key t.key in
      if c = 0 then
        if
          t.meta land Meta.owner_mask = ob
          && t.meta land (Meta.altered lor Meta.dep_content) <> 0
        then t
        else mark ~owner ~fresh t ~content:true ~structure:false
      else begin
        let child = if c < 0 then t.left else t.right in
        if child == empty then begin
          (* Absent key: the transaction depends on this gap staying
             empty — guard the node where the search ended. *)
          if
            t.meta land (Meta.owner_mask lor Meta.dep_structure)
            = ob lor Meta.dep_structure
          then t
          else mark ~owner ~fresh t ~content:false ~structure:true
        end
        else begin
          let child' = go child in
          if child' == child then t
          else if c < 0 then copy ~owner ~fresh t ~left:child' ~right:t.right
          else copy ~owner ~fresh t ~left:t.left ~right:child'
        end
      end
  in
  go t

(* Materialize the path to an existing key and set depends_on_structure on
   it; used as the phantom guard for empty-range neighbours. *)
let mark_structure t ~owner ~fresh key =
  let ob = Meta.owner_bits owner in
  let rec go t =
    if t == empty then empty
    else
      let c = Key.compare key t.key in
      if c = 0 then
        if
          t.meta land (Meta.owner_mask lor Meta.dep_structure)
          = ob lor Meta.dep_structure
        then t
        else mark ~owner ~fresh t ~content:false ~structure:true
      else begin
        let child = if c < 0 then t.left else t.right in
        let child' = go child in
        if child' == child then t
        else if c < 0 then copy ~owner ~fresh t ~left:child' ~right:t.right
        else copy ~owner ~fresh t ~left:t.left ~right:child'
      end
  in
  go t

let touch_range t ~owner ~fresh ~lo ~hi =
  let found = ref false in
  let ob = Meta.owner_bits owner in
  let rec go t =
    if t == empty then empty
    else begin
      let below = Key.compare t.key lo < 0 in
      let above = Key.compare t.key hi > 0 in
      if below then begin
        let r = go t.right in
        if r == t.right then t else copy ~owner ~fresh t ~left:t.left ~right:r
      end
      else if above then begin
        let l = go t.left in
        if l == t.left then t else copy ~owner ~fresh t ~left:l ~right:t.right
      end
      else begin
        (* In range: the scan's result depends on this node's subtree. *)
        found := true;
        let l = go t.left in
        let r = go t.right in
        if
          t.meta land (Meta.owner_mask lor Meta.dep_structure)
          = ob lor Meta.dep_structure
          && l == t.left && r == t.right
        then t
        else
          mark ~owner ~fresh
            { t with left = l; right = r }
            ~content:true ~structure:true
      end
    end
  in
  let t' = go t in
  if !found then t'
  else begin
    (* Empty range: guard its neighbours so a concurrent insert into the
       gap is detected. *)
    let t' =
      match pred t' lo with
      | None -> t'
      | Some p -> mark_structure t' ~owner ~fresh p.key
    in
    match succ t' hi with
    | None -> t'
    | Some s -> mark_structure t' ~owner ~fresh s.key
  end

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)
(* ------------------------------------------------------------------ *)

(* Canonical construction over [n] items with strictly increasing keys
   [key i]: the root of a segment is its maximum-priority key.  Each
   priority is hashed once, the treap's shape comes from the O(n) stack
   (Cartesian-tree) method, and [node i ~left ~right] then builds the
   nodes bottom-up in post order. *)
let build_sorted n ~key ~node =
  let prio =
    (* top 63 bits of the unsigned 64-bit priority, sign-flipped so that
       signed int order is unsigned order; equal tops (which the stack
       pass then breaks with [Key.priority_greater]) are astronomically
       rare *)
    Array.init n (fun i ->
        Int64.to_int (Int64.shift_right_logical (Key.priority (key i)) 1)
        lxor min_int)
  in
  let greater i j =
    let pi = prio.(i) and pj = prio.(j) in
    if pi <> pj then pi > pj else Key.priority_greater (key i) (key j)
  in
  let lchild = Array.make n (-1) and rchild = Array.make n (-1) in
  let stack = Array.make n 0 and top = ref 0 in
  for i = 0 to n - 1 do
    let last = ref (-1) in
    while !top > 0 && greater i stack.(!top - 1) do
      decr top;
      last := stack.(!top)
    done;
    lchild.(i) <- !last;
    if !top > 0 then rchild.(stack.(!top - 1)) <- i;
    stack.(!top) <- i;
    incr top
  done;
  let rec build i =
    if i < 0 then empty
    else
      let left = build lchild.(i) in
      let right = build rchild.(i) in
      node i ~left ~right
  in
  if n = 0 then empty else build stack.(0)

(* Genesis: state-owned nodes whose vn and cv are both [Vn.genesis ~idx]
   with [idx] the in-order index. *)
let of_sorted_array items =
  let n = Array.length items in
  for i = 1 to n - 1 do
    if Key.compare (fst items.(i - 1)) (fst items.(i)) >= 0 then
      invalid_arg "Tree.of_sorted_array: keys must be strictly increasing"
  done;
  build_sorted n
    ~key:(fun i -> fst items.(i))
    ~node:(fun i ~left ~right ->
      let key, payload = items.(i) in
      Node.pack ~key ~payload ~left ~right ~vn_a:(-1) ~vn_b:i ~cv_a:(-1)
        ~cv_b:i ~meta:(Meta.owner_bits state_owner) ~ssv_a:0 ~ssv_b:0
        ~scv_a:0 ~scv_b:0)

(* ------------------------------------------------------------------ *)
(* Validation and statistics                                           *)
(* ------------------------------------------------------------------ *)

let validate t =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let rec go t lo hi =
    if t == empty then ()
    else begin
      (match lo with
      | Some l when Key.compare t.key l <= 0 ->
          fail "BST violation at key %s" (Key.to_string t.key)
      | _ -> ());
      (match hi with
      | Some h when Key.compare t.key h >= 0 ->
          fail "BST violation at key %s" (Key.to_string t.key)
      | _ -> ());
      let check_child c =
        if c == empty then ()
        else if not (Key.priority_greater t.key c.key) then
          fail "heap violation: %s under %s" (Key.to_string c.key)
            (Key.to_string t.key)
      in
      check_child t.left;
      check_child t.right;
      let same_owner_writes c =
        c != empty && Node.owner c = Node.owner t && Node.has_writes c
      in
      let expect =
        Node.altered t
        || (not (Node.has_ssv t))
        || same_owner_writes t.left
        || same_owner_writes t.right
      in
      if Node.has_writes t <> expect then
        fail "has_writes summary wrong at key %s" (Key.to_string t.key);
      go t.left lo (Some t.key);
      go t.right (Some t.key) hi
    end
  in
  match go t None None with () -> Ok () | exception Bad s -> Error s

let size = Node.size
let live_size = Node.live_size
let depth = Node.depth

let path_length t key =
  let rec go t acc =
    if t == empty then acc
    else
      let c = Key.compare key t.key in
      if c = 0 then acc + 1
      else if c < 0 then go t.left (acc + 1)
      else go t.right (acc + 1)
  in
  go t 0

(* MD5 over a parenthesized pre-order serialization of every field
   [physically_equal] compares — two trees digest equally iff they are
   physically equal (VNs, flags and owners included), which lets the
   chaos harness compare whole-cluster convergence by fingerprint. *)
let digest t =
  let b = Buffer.create 4096 in
  let version b ~eph x y =
    if eph then Printf.bprintf b "E%d.%d" x y else Printf.bprintf b "L%d.%d" x y
  in
  let source b ~present ~eph x y =
    if present then version b ~eph x y else Buffer.add_char b '-'
  in
  let rec go t =
    if t == empty then Buffer.add_char b '.'
    else begin
      let m = t.meta in
      Buffer.add_char b '(';
      Printf.bprintf b "%d|" t.key;
      (match t.payload with
      | Payload.Tombstone -> Buffer.add_char b 'T'
      | Payload.Value v ->
          Printf.bprintf b "V%d:" (String.length v);
          Buffer.add_string b v);
      Buffer.add_char b '|';
      version b ~eph:(m land Meta.vn_ephemeral <> 0) t.vn_a t.vn_b;
      Buffer.add_char b '|';
      version b ~eph:(m land Meta.cv_ephemeral <> 0) t.cv_a t.cv_b;
      Buffer.add_char b '|';
      source b
        ~present:(m land Meta.ssv_present <> 0)
        ~eph:(m land Meta.ssv_ephemeral <> 0)
        t.ssv_a t.ssv_b;
      Buffer.add_char b '|';
      source b
        ~present:(m land Meta.scv_present <> 0)
        ~eph:(m land Meta.scv_ephemeral <> 0)
        t.scv_a t.scv_b;
      Printf.bprintf b "|%b%b%b|%d" (Node.altered t)
        (Node.depends_on_content t)
        (Node.depends_on_structure t)
        (Node.owner t);
      go t.left;
      go t.right;
      Buffer.add_char b ')'
    end
  in
  go t;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The class bits live in [meta], so equal metas and equal words are
   equal versions. *)
let rec physically_equal a b =
  a == b
  || a != empty && b != empty
     && Key.equal a.key b.key
     && Payload.equal a.payload b.payload
     && a.meta = b.meta
     && a.vn_a = b.vn_a && a.vn_b = b.vn_b
     && a.cv_a = b.cv_a && a.cv_b = b.cv_b
     && a.ssv_a = b.ssv_a && a.ssv_b = b.ssv_b
     && a.scv_a = b.scv_a && a.scv_b = b.scv_b
     && physically_equal a.left b.left
     && physically_equal a.right b.right
