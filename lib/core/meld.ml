open Hyder_tree
open Node
module View = Hyder_codec.View

type mode = Final | Transaction of { out_owner : int }

type abort_reason =
  | Write_conflict of Key.t
  | Read_conflict of Key.t
  | Phantom_conflict of Key.t

let abort_reason_to_string = function
  | Write_conflict k -> Printf.sprintf "write-write conflict on key %d" k
  | Read_conflict k -> Printf.sprintf "read-write conflict on key %d" k
  | Phantom_conflict k -> Printf.sprintf "structure conflict at key %d" k

type result = Merged of Node.tree | Conflict of abort_reason

exception Abort of abort_reason

exception
  Corrupt_intention of string
    (* invariant violation: only raised on malformed inputs *)

(* Group meld subtlety (Section 4): when the state side is itself an earlier
   intention, it is NOT a superset of the later transaction's snapshot — the
   two snapshots can be ordered either way.  Conflict checks against data
   the earlier member did not itself write are therefore deferred to final
   meld (by carrying the dependency metadata into the merged node), and when
   both members depend on a key, the merged metadata refers to the EARLIER
   snapshot ("n12's readset must refer to the maximum of n1's and n2's
   conflict zones").  The adjacency of the two intentions in the log makes
   the single earlier reference sufficient: no third transaction can sit
   between them. *)

(* The hot loop works directly on the packed metadata word (Node.Meta):
   every per-visit test is a mask-and-compare on [meta], every constructed
   node is a single [Node.pack] — no options, tuples or [caml_equal] per
   visit.  The workers below are top-level functions over one [env] record
   so a meld call allocates exactly one block of bookkeeping; the happy
   path then allocates only the ephemeral nodes themselves, one block
   each: a fresh VN is the packed words [(thread, seq)] plus the
   [vn_ephemeral] class bit, never a boxed [Vn.t]. *)

type env = {
  counters : Counters.stage;
  alloc : Vn.Alloc.t;
  thread : int;  (** [Vn.Alloc.thread alloc]: every fresh vn's [vn_a] *)
  (* Owner bits of the melding members: [b0]/[b1] cover the common
     one-intention and group-pair shapes with straight compares ([b1 = b0]
     for a singleton); [more] holds any further members (empty in
     practice).  [no_member] marks an empty member list. *)
  b0 : int;
  b1 : int;
  more : int list;
  transaction_mode : bool;
  state_is_intention : bool;
  out_bits : int;
  intention_snapshot : int;
  state_snapshot : int;
  (* Materialization hook: called with the minor words a lazy-view
     materialization allocated, so the pipeline can attribute that GC
     churn to its own bracket instead of the stage it happens inside. *)
  mz : (float -> unit) option;
}

(* Owner bits are [(owner + 1) lsl owner_shift] with owner >= -1, so any
   real value is >= 0 and a negative sentinel never matches. *)
let no_member = min_int

let[@inline] inside_meta env meta =
  let ob = meta land Meta.owner_mask in
  ob = env.b0 || ob = env.b1
  || (match env.more with [] -> false | ms -> List.mem ob ms)

let[@inline] visit env =
  env.counters.Counters.nodes_visited <-
    env.counters.Counters.nodes_visited + 1

(* The [seq] of a fresh ephemeral VN [(env.thread, seq)]. *)
let[@inline] fresh env =
  env.counters.Counters.ephemerals <- env.counters.Counters.ephemerals + 1;
  Vn.Alloc.next_seq env.alloc

(* Class bits of a node with a fresh (ephemeral) vn whose cv is copied
   from the node with meta [m]. *)
let[@inline] eph_cv m = Meta.vn_ephemeral lor (m land Meta.cv_ephemeral)

(* A node's ssv doubles as the graft precondition: "this subtree equals
   version ssv plus my own changes".  A copy made on a SPLIT PATH holds
   only half of its source's subtree, so it must never be graftable: it
   keeps its content metadata (scv) but takes its own fresh VN as ssv — a
   version no state will ever hold — unless it was an insert (no ssv),
   which stays an insert. *)
(* Under group meld every created node additionally degrafts: the merge
   can mix the newer member's view with the older member's stale snapshot
   subtrees, so no created node may claim its subtree is current.  Nodes
   adopted wholesale from one member keep their honest claims. *)

(* Ephemeral copy of a state-side (or snapshot) node with new children. *)
let eph_of_state env ~restructured (nl : node) ~left ~right =
  let seq = fresh env in
  let cvb = eph_cv nl.meta in
  if not env.transaction_mode then
    Node.pack ~key:nl.key ~payload:nl.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b ~meta:cvb ~ssv_a:0 ~ssv_b:0
      ~scv_a:0 ~scv_b:0
  else if env.state_is_intention && inside_meta env nl.meta then begin
    (* mine: keep snapshot-relative metadata, new owner *)
    let m = env.out_bits lor cvb lor (nl.meta land Meta.flags_mask) in
    if
      nl.meta land Meta.ssv_present <> 0
      && (restructured || env.state_is_intention)
    then
      Node.pack ~key:nl.key ~payload:nl.payload ~left ~right ~vn_a:env.thread
        ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b
        ~meta:(m lor Meta.ssv_ephemeral)
        ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.scv_a ~scv_b:nl.scv_b
    else
      Node.pack ~key:nl.key ~payload:nl.payload ~left ~right ~vn_a:env.thread
        ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b ~meta:m ~ssv_a:nl.ssv_a
        ~ssv_b:nl.ssv_b ~scv_a:nl.scv_a ~scv_b:nl.scv_b
  end
  else if restructured || env.state_is_intention then
    (* snapshot node becomes the source, immediately degrafted *)
    Node.pack ~key:nl.key ~payload:nl.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b
      ~meta:
        (env.out_bits lor cvb lor Meta.ssv_present lor Meta.ssv_ephemeral
        lor Meta.scv_of_cv nl.meta)
      ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.cv_a ~scv_b:nl.cv_b
  else
    Node.pack ~key:nl.key ~payload:nl.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b
      ~meta:(env.out_bits lor cvb lor Meta.sources_of nl.meta)
      ~ssv_a:nl.vn_a ~ssv_b:nl.vn_b ~scv_a:nl.cv_a ~scv_b:nl.cv_b

(* Ephemeral copy of an intention-side node whose conflict checks have not
   happened yet (restructuring around a concurrent insert): metadata and
   ownership must survive so the checks still fire deeper in the merge. *)
let eph_of_intention env ~restructured (ni : node) ~left ~right =
  let seq = fresh env in
  let m = ni.meta lor Meta.vn_ephemeral in
  if
    ni.meta land Meta.ssv_present <> 0
    && (restructured || env.state_is_intention)
  then
    Node.pack ~key:ni.key ~payload:ni.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:ni.cv_a ~cv_b:ni.cv_b
      ~meta:(m lor Meta.ssv_ephemeral)
      ~ssv_a:env.thread ~ssv_b:seq ~scv_a:ni.scv_a ~scv_b:ni.scv_b
  else
    Node.pack ~key:ni.key ~payload:ni.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:ni.cv_a ~cv_b:ni.cv_b ~meta:m ~ssv_a:ni.ssv_a
      ~ssv_b:ni.ssv_b ~scv_a:ni.scv_a ~scv_b:ni.scv_b

(* Does the state side speak for a merged node's source metadata?  [mi]
   is the intention node's meta word.  Shared by [merged_node] and
   [merged_node_v]. *)
let meta_from_state env ~mi (nl : node) ~nl_mine =
  if not env.state_is_intention then true (* premeld: refresh vs LCS *)
  else begin
    let ni_dep = mi land Meta.dependent_mask <> 0 in
    let nl_dep = nl_mine && nl.meta land Meta.dependent_mask <> 0 in
    if ni_dep && nl_dep then env.state_snapshot <= env.intention_snapshot
    else if nl_dep then true
    else if ni_dep then false
    else nl_mine
  end

(* Merged node for a key present on both sides, after conflict checks.
   The source metadata (ssv/scv) — and, for unaltered nodes, the payload
   it must stay consistent with — comes from whichever side speaks for the
   earlier history. *)
let merged_node env (ni : node) (nl : node) ~left ~right =
  let seq = fresh env in
  if not env.transaction_mode then begin
    let src = if ni.meta land Meta.altered <> 0 then ni else nl in
    Node.pack ~key:ni.key ~payload:src.payload ~left ~right ~vn_a:env.thread
      ~vn_b:seq ~cv_a:src.cv_a ~cv_b:src.cv_b ~meta:(eph_cv src.meta)
      ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    let meta_from_state = meta_from_state env ~mi:ni.meta nl ~nl_mine in
    let dep =
      ni.meta land Meta.dependent_mask
      lor if nl_mine then nl.meta land Meta.dependent_mask else 0
    in
    let ni_w = ni.meta land Meta.altered <> 0 in
    let nl_w = nl_mine && nl.meta land Meta.altered <> 0 in
    (* payload and cv come from the same side *)
    let src = if ni_w then ni else if nl_w || meta_from_state then nl else ni in
    let payload = src.payload and cv_a = src.cv_a and cv_b = src.cv_b in
    let out = env.out_bits lor dep lor eph_cv src.meta in
    (* degraft created nodes under group meld *)
    if meta_from_state then
      if nl_mine then begin
        let m = out lor (nl.meta land Meta.source_mask) in
        if env.state_is_intention && nl.meta land Meta.ssv_present <> 0 then
          Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread
            ~vn_b:seq ~cv_a ~cv_b
            ~meta:(m lor Meta.ssv_ephemeral)
            ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.scv_a ~scv_b:nl.scv_b
        else
          Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread
            ~vn_b:seq ~cv_a ~cv_b ~meta:m ~ssv_a:nl.ssv_a ~ssv_b:nl.ssv_b
            ~scv_a:nl.scv_a ~scv_b:nl.scv_b
      end
      else if env.state_is_intention then
        Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
          ~cv_a ~cv_b
          ~meta:
            (out lor Meta.ssv_present lor Meta.ssv_ephemeral
            lor Meta.scv_of_cv nl.meta)
          ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.cv_a ~scv_b:nl.cv_b
      else
        Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
          ~cv_a ~cv_b
          ~meta:(out lor Meta.sources_of nl.meta)
          ~ssv_a:nl.vn_a ~ssv_b:nl.vn_b ~scv_a:nl.cv_a ~scv_b:nl.cv_b
    else begin
      let m = out lor (ni.meta land Meta.source_mask) in
      if env.state_is_intention && ni.meta land Meta.ssv_present <> 0 then
        Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
          ~cv_a ~cv_b
          ~meta:(m lor Meta.ssv_ephemeral)
          ~ssv_a:env.thread ~ssv_b:seq ~scv_a:ni.scv_a ~scv_b:ni.scv_b
      else
        Node.pack ~key:ni.key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
          ~cv_a ~cv_b ~meta:m ~ssv_a:ni.ssv_a ~ssv_b:ni.ssv_b ~scv_a:ni.scv_a
          ~scv_b:ni.scv_b
    end
  end

(* Split the state side around a key it does not contain; the copies along
   the split path are ephemeral. *)
let rec split_state env nl key =
  if nl == empty then (empty, empty)
  else begin
    visit env;
    if Key.compare nl.key key < 0 then begin
      let a, b = split_state env nl.right key in
      (eph_of_state env ~restructured:true nl ~left:nl.left ~right:a, b)
    end
    else begin
      let a, b = split_state env nl.left key in
      (a, eph_of_state env ~restructured:true nl ~left:b ~right:nl.right)
    end
  end

(* Split the intention side around a concurrently inserted key. *)
let rec split_intention env ni key =
  if ni == empty then (empty, empty)
  else begin
    visit env;
    if Key.compare ni.key key < 0 then begin
      let a, b = split_intention env ni.right key in
      let n =
        if inside_meta env ni.meta then
          eph_of_intention env ~restructured:true ni ~left:ni.left ~right:a
        else eph_of_state env ~restructured:true ni ~left:ni.left ~right:a
      in
      (n, b)
    end
    else begin
      let a, b = split_intention env ni.left key in
      let n =
        if inside_meta env ni.meta then
          eph_of_intention env ~restructured:true ni ~left:b ~right:ni.right
        else eph_of_state env ~restructured:true ni ~left:b ~right:ni.right
      in
      (a, n)
    end
  end

(* Conflict checks for a key present on both sides. *)
let check_node env (ni : node) (nl : node) =
  if ni.meta land Meta.ssv_present = 0 then begin
    (* T inserted the key, yet the state has it.  Even in group meld
       this is a genuine conflict: keys never disappear, so the key was
       created inside the later member's conflict zone. *)
    if ni.meta land Meta.altered <> 0 then raise (Abort (Write_conflict ni.key))
    else
      raise
        (Corrupt_intention
           (Printf.sprintf "non-insert node %d without ssv" ni.key))
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    if ni.meta land (Meta.altered lor Meta.dep_content) <> 0 then begin
      let do_check =
        if not env.state_is_intention then true
        else
          (* Against an earlier intention, only its own writes can
             conflict here; anything else is older/newer snapshot skew
             and is re-checked by final meld. *)
          nl_mine && nl.meta land Meta.altered <> 0
      in
      if do_check then begin
        if ni.meta land Meta.scv_present = 0 then
          raise
            (Corrupt_intention
               (Printf.sprintf "node %d has ssv but no scv" ni.key));
        if not (Node.scv_is_cv ni nl) then
          raise
            (Abort
               (if ni.meta land Meta.altered <> 0 then Write_conflict ni.key
                else Read_conflict ni.key))
      end
    end;
    if ni.meta land Meta.dep_structure <> 0 then begin
      (* The graft fast path did not fire, so the subtree version
         differs from what the transaction read. *)
      if not env.state_is_intention then raise (Abort (Phantom_conflict ni.key))
      else if nl_mine && nl.meta land Meta.has_writes <> 0 then
        (* The earlier member restructured this subtree. *)
        raise (Abort (Phantom_conflict ni.key))
      else if env.intention_snapshot < env.state_snapshot then
        (* The state side's view is newer: the structural change is
           committed and inside the conflict zone. *)
        raise (Abort (Phantom_conflict ni.key))
      (* else: our view is newer than the earlier member's; defer. *)
    end
  end

let rec go env i l =
  if i == l then l
  else if i == empty || not (inside_meta env i.meta) then
    (* Empty or untouched by the transaction: the state side wins
       unconditionally.  (The sentinel's meta is 0, which never matches a
       member's owner bits.) *)
    l
  else if l == empty then
    (* Virgin territory on the state side: adopt the intention's
       subtree wholesale.  (Under group meld the region may also be
       merely invisible to the earlier member; the metadata rides
       along and final meld revalidates it.) *)
    i
  else begin
    let ni = i and nl = l in
    visit env;
        if Node.ssv_is_vn ni nl then begin
          (* Graft fast path: the version this subtree was derived from
             is still current — nothing concurrent happened below. *)
          env.counters.Counters.grafts <- env.counters.Counters.grafts + 1;
          if ni.meta land Meta.has_writes <> 0 then i
          else if env.transaction_mode then
            (* Section 3.3: keep the intention's read-only subtree so
               the output retains readset metadata. *)
            i
          else l
        end
        else begin
          let c = Key.compare ni.key nl.key in
          if c = 0 then begin
            check_node env ni nl;
            let left = go env ni.left nl.left in
            let right = go env ni.right nl.right in
            if
              ni.meta land Meta.dependent_mask = 0
              && left == nl.left && right == nl.right
            then l
            else if
              (not env.transaction_mode)
              && ni.meta land Meta.altered <> 0
              && left == ni.left && right == ni.right
            then i
            else if
              (not env.transaction_mode)
              && ni.meta land Meta.altered = 0
              && left == nl.left && right == nl.right
            then l
            else merged_node env ni nl ~left ~right
          end
          else if Key.priority_greater ni.key nl.key then begin
            (* The intention holds a key that outranks this whole state
               region: splice it in, splitting the state around it.  In
               a full state this can only be a fresh insert; under group
               meld it can also be snapshot data the earlier member
               cannot see yet. *)
            if ni.meta land Meta.ssv_present <> 0 && not env.state_is_intention
            then
              raise
                (Corrupt_intention
                   (Printf.sprintf
                      "node %d outranks state root %d but has a source \
                       (ssv=%s owner=%d altered=%b vn=%s mode=%s)"
                      ni.key nl.key
                      (match Node.ssv ni with
                      | Some v -> Vn.to_string v
                      | None -> "-")
                      (Node.owner ni) (Node.altered ni)
                      (Vn.to_string (Node.vn ni))
                      (if env.transaction_mode then "txn" else "final")));
            let ll, lr = split_state env l ni.key in
            let left = go env ni.left ll in
            let right = go env ni.right lr in
            if left == ni.left && right == ni.right then i
            else eph_of_intention env ~restructured:false ni ~left ~right
          end
          else begin
            (* A key unknown to the intention outranks its region: the
               state's node roots the merge and the intention splits. *)
            let il, ir = split_intention env i nl.key in
            let left = go env il nl.left in
            let right = go env ir nl.right in
            if left == nl.left && right == nl.right then l
            else eph_of_state env ~restructured:false nl ~left ~right
          end
        end
  end

(* ---- the same walk over a flyweight view ------------------------------ *)
(* [go_view] mirrors [go] branch for branch when the intention side is a
   [Codec.View] instead of a decoded tree: same visits, same ephemeral
   draws, same conflict checks, same output — but a heap node is built
   (via the view's memo) only when a branch of [go] would have returned
   or copied an intention node.  Aborted walks and state-resolved
   subtrees build nothing.

   Unreachable branches of [go], given that every view node is owned by
   the view's position (a member): [i == l] and the not-inside early
   return.  Child descriptors play those roles instead, in [go_kid]. *)

let matz env v idx =
  match env.mz with
  | None -> View.materialize v idx
  | Some f ->
      let t0 = Gc.minor_words () in
      let n = View.materialize v idx in
      f (Gc.minor_words () -. t0);
      n

(* Intact (non-split, non-melded) child of a view node as a tree. *)
let kid_tree env v c =
  if View.kid_is_inside c then matz env v c
  else if View.kid_is_empty c then empty
  else View.ref_of v c

(* Ephemeral copy of view node [j] with new children ([eph_of_intention]
   over the packed wire words).  A view node's cv is its own logged vn
   when altered, else its scv, whose class [View.meta] carries. *)
let eph_of_intention_v env v j ~restructured ~left ~right =
  let seq = fresh env in
  let mi = View.meta v j in
  let key = View.key v j in
  let payload = View.payload v j in
  let ssv_a, ssv_b, scv_a, scv_b = View.sources v j in
  let altered = mi land Meta.altered <> 0 in
  let cv_a = if altered then View.pos v else scv_a in
  let cv_b = if altered then j else scv_b in
  let m = mi lor Meta.vn_ephemeral in
  if
    mi land Meta.ssv_present <> 0 && (restructured || env.state_is_intention)
  then
    Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
      ~cv_b
      ~meta:(m lor Meta.ssv_ephemeral)
      ~ssv_a:env.thread ~ssv_b:seq ~scv_a ~scv_b
  else
    Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
      ~cv_b ~meta:m ~ssv_a ~ssv_b ~scv_a ~scv_b

(* [merged_node] with the intention side read from the view. *)
let merged_node_v env v j (nl : node) ~left ~right =
  let seq = fresh env in
  let mi = View.meta v j in
  let key = View.key v j in
  let ni_w = mi land Meta.altered <> 0 in
  if not env.transaction_mode then begin
    if ni_w then
      Node.pack ~key ~payload:(View.payload v j) ~left ~right ~vn_a:env.thread
        ~vn_b:seq ~cv_a:(View.pos v) ~cv_b:j ~meta:Meta.vn_ephemeral ~ssv_a:0
        ~ssv_b:0 ~scv_a:0 ~scv_b:0
    else
      Node.pack ~key ~payload:nl.payload ~left ~right ~vn_a:env.thread
        ~vn_b:seq ~cv_a:nl.cv_a ~cv_b:nl.cv_b ~meta:(eph_cv nl.meta)
        ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    let meta_from_state = meta_from_state env ~mi nl ~nl_mine in
    let dep =
      mi land Meta.dependent_mask
      lor if nl_mine then nl.meta land Meta.dependent_mask else 0
    in
    let nl_w = nl_mine && nl.meta land Meta.altered <> 0 in
    let ssv_a, ssv_b, scv_a, scv_b = View.sources v j in
    (* payload and cv come from the same side *)
    let from_nl = (not ni_w) && (nl_w || meta_from_state) in
    let payload = if from_nl then nl.payload else View.payload v j in
    let cv_a =
      if from_nl then nl.cv_a else if ni_w then View.pos v else scv_a
    in
    let cv_b = if from_nl then nl.cv_b else if ni_w then j else scv_b in
    let out =
      env.out_bits lor dep lor eph_cv (if from_nl then nl.meta else mi)
    in
    if meta_from_state then
      if nl_mine then begin
        let m = out lor (nl.meta land Meta.source_mask) in
        if env.state_is_intention && nl.meta land Meta.ssv_present <> 0 then
          Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
            ~cv_a ~cv_b
            ~meta:(m lor Meta.ssv_ephemeral)
            ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.scv_a ~scv_b:nl.scv_b
        else
          Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq
            ~cv_a ~cv_b ~meta:m ~ssv_a:nl.ssv_a ~ssv_b:nl.ssv_b
            ~scv_a:nl.scv_a ~scv_b:nl.scv_b
      end
      else if env.state_is_intention then
        Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
          ~cv_b
          ~meta:
            (out lor Meta.ssv_present lor Meta.ssv_ephemeral
            lor Meta.scv_of_cv nl.meta)
          ~ssv_a:env.thread ~ssv_b:seq ~scv_a:nl.cv_a ~scv_b:nl.cv_b
      else
        Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
          ~cv_b
          ~meta:(out lor Meta.sources_of nl.meta)
          ~ssv_a:nl.vn_a ~ssv_b:nl.vn_b ~scv_a:nl.cv_a ~scv_b:nl.cv_b
    else begin
      let m = out lor (mi land Meta.source_mask) in
      if env.state_is_intention && mi land Meta.ssv_present <> 0 then
        Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
          ~cv_b
          ~meta:(m lor Meta.ssv_ephemeral)
          ~ssv_a:env.thread ~ssv_b:seq ~scv_a ~scv_b
      else
        Node.pack ~key ~payload ~left ~right ~vn_a:env.thread ~vn_b:seq ~cv_a
          ~cv_b ~meta:m ~ssv_a ~ssv_b ~scv_a ~scv_b
    end
  end

(* [check_node] with the intention side read from the view. *)
let check_node_v env v j (nl : node) =
  let mi = View.meta v j in
  let key = View.key v j in
  if mi land Meta.ssv_present = 0 then begin
    if mi land Meta.altered <> 0 then raise (Abort (Write_conflict key))
    else
      raise
        (Corrupt_intention
           (Printf.sprintf "non-insert node %d without ssv" key))
  end
  else begin
    let nl_mine = env.state_is_intention && inside_meta env nl.meta in
    if mi land (Meta.altered lor Meta.dep_content) <> 0 then begin
      let do_check =
        if not env.state_is_intention then true
        else nl_mine && nl.meta land Meta.altered <> 0
      in
      if do_check then begin
        if mi land Meta.scv_present = 0 then
          raise
            (Corrupt_intention
               (Printf.sprintf "node %d has ssv but no scv" key));
        if not (View.scv_is_cv v j nl) then
          raise
            (Abort
               (if mi land Meta.altered <> 0 then Write_conflict key
                else Read_conflict key))
      end
    end;
    if mi land Meta.dep_structure <> 0 then begin
      if not env.state_is_intention then raise (Abort (Phantom_conflict key))
      else if nl_mine && nl.meta land Meta.has_writes <> 0 then
        raise (Abort (Phantom_conflict key))
      else if env.intention_snapshot < env.state_snapshot then
        raise (Abort (Phantom_conflict key))
    end
  end

(* Walk child descriptor [c] against state subtree [l].  The bool is the
   eager walk's [result == ni.child] test — physical adoption of the
   intention child — computed without materializing anything. *)
let rec go_kid env v c l =
  if View.kid_is_inside c then go_v env v c l
  else if View.kid_is_empty c then (l, l == empty)
  else (l, l == View.ref_of v c)

(* [go] with the intention side at view node [j] (always a member's). *)
and go_v env v j l =
  if l == empty then (matz env v j, true)
  else begin
    visit env;
    if View.ssv_is_vn v j l then begin
      env.counters.Counters.grafts <- env.counters.Counters.grafts + 1;
      if View.meta v j land Meta.has_writes <> 0 then (matz env v j, true)
      else if env.transaction_mode then (matz env v j, true)
      else (l, false)
    end
    else begin
      let nl = l in
      let c = Key.compare (View.key v j) nl.key in
      if c = 0 then begin
        check_node_v env v j nl;
        let left, gl = go_kid env v (View.kid_l v j) nl.left in
        let right, gr = go_kid env v (View.kid_r v j) nl.right in
        let mi = View.meta v j in
        if
          mi land Meta.dependent_mask = 0
          && left == nl.left && right == nl.right
        then (l, false)
        else if (not env.transaction_mode) && mi land Meta.altered <> 0 && gl
                && gr
        then (matz env v j, true)
        else if
          (not env.transaction_mode)
          && mi land Meta.altered = 0
          && left == nl.left && right == nl.right
        then (l, false)
        else (merged_node_v env v j nl ~left ~right, false)
      end
      else if Key.priority_greater (View.key v j) nl.key then begin
        let mi = View.meta v j in
        if mi land Meta.ssv_present <> 0 && not env.state_is_intention then
          raise
            (Corrupt_intention
               (Printf.sprintf
                  "node %d outranks state root %d but has a source \
                   (ssv=%s owner=%d altered=%b vn=%s mode=%s)"
                  (View.key v j) nl.key
                  (match View.ssv v j with
                  | Some x -> Vn.to_string x
                  | None -> "-")
                  (View.pos v)
                  (mi land Meta.altered <> 0)
                  (Vn.to_string (View.vn v j))
                  (if env.transaction_mode then "txn" else "final")));
        let ll, lr = split_state env l (View.key v j) in
        let left, gl = go_kid env v (View.kid_l v j) ll in
        let right, gr = go_kid env v (View.kid_r v j) lr in
        if gl && gr then (matz env v j, true)
        else
          (eph_of_intention_v env v j ~restructured:false ~left ~right, false)
      end
      else begin
        let il, ir = split_intention_v env v j nl.key in
        let left = go env il nl.left in
        let right = go env ir nl.right in
        if left == nl.left && right == nl.right then (l, false)
        else (eph_of_state env ~restructured:false nl ~left ~right, false)
      end
    end
  end

(* [split_intention] over a view subtree: the split-path copies come from
   the view; an external reference on the path falls back to the eager
   split (its nodes are real). *)
and split_intention_kid env v c key =
  if View.kid_is_inside c then split_intention_v env v c key
  else if View.kid_is_empty c then (empty, empty)
  else split_intention env (View.ref_of v c) key

and split_intention_v env v j key =
  visit env;
  if Key.compare (View.key v j) key < 0 then begin
    let a, b = split_intention_kid env v (View.kid_r v j) key in
    let left = kid_tree env v (View.kid_l v j) in
    (eph_of_intention_v env v j ~restructured:true ~left ~right:a, b)
  end
  else begin
    let a, b = split_intention_kid env v (View.kid_l v j) key in
    let right = kid_tree env v (View.kid_r v j) in
    (a, eph_of_intention_v env v j ~restructured:true ~left:b ~right)
  end

let go_view env v state =
  if View.node_count v = 0 then go env empty state
  else fst (go_v env v (View.root_index v) state)

let meld ~mode ?(state_is_intention = false) ?(intention_snapshot = 0)
    ?(state_snapshot = -1) ?intention_view ?mz ~members ~alloc
    ~(counters : Counters.stage) ~intention ~state () =
  let transaction_mode, out_owner =
    match mode with
    | Final -> (false, Node.state_owner)
    | Transaction { out_owner } -> (true, out_owner)
  in
  let b0, b1, more =
    match members with
    | [] -> (no_member, no_member, [])
    | [ m0 ] ->
        let b = Meta.owner_bits m0 in
        (b, b, [])
    | [ m0; m1 ] -> (Meta.owner_bits m0, Meta.owner_bits m1, [])
    | m0 :: m1 :: ms ->
        (Meta.owner_bits m0, Meta.owner_bits m1, List.map Meta.owner_bits ms)
  in
  let env =
    {
      counters;
      alloc;
      thread = Vn.Alloc.thread alloc;
      b0;
      b1;
      more;
      transaction_mode;
      state_is_intention;
      out_bits = Meta.owner_bits out_owner;
      intention_snapshot;
      state_snapshot;
      mz;
    }
  in
  match
    match intention_view with
    | Some v -> go_view env v state
    | None -> go env intention state
  with
  | merged -> Merged merged
  | exception Abort reason ->
      counters.aborts <- counters.aborts + 1;
      Conflict reason
