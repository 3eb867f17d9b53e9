open Hyder_tree
open Node

type isolation = Serializable | Snapshot_isolation | Read_committed

let isolation_to_string = function
  | Serializable -> "serializable"
  | Snapshot_isolation -> "snapshot-isolation"
  | Read_committed -> "read-committed"

type draft = {
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : isolation;
  root : Node.tree;
}

type t = {
  pos : int;
  snapshot : int;
  server : int;
  txn_seq : int;
  isolation : isolation;
  root : Node.tree;
  node_count : int;
  byte_size : int;
  view : View.t option;
}

(* The draft owner must outrank every real log position and still leave
   [Meta.owner_bits draft_owner] a positive immediate int (owner + 1
   shifted left by [Meta.owner_shift] has to fit in 62 bits — a larger
   owner would wrap into the sign bit or to the state owner's zero
   bits). *)
let draft_owner = 1 lsl 51
let draft_vn ~idx = Vn.logged ~pos:max_int ~idx
let draft_owner_bits = Meta.owner_bits draft_owner

let assign ~pos ?(byte_size = 0) (d : draft) =
  let count = ref 0 in
  let ob = Meta.owner_bits pos in
  (* Post-order renumbering of draft nodes; shared (snapshot) subtrees are
     left untouched.  Must mirror the decoder exactly. *)
  let rec go t =
    (* The sentinel's meta (0) never carries the draft owner bits, so the
       same-owner test also stops the recursion at empty. *)
    if t.meta land Meta.owner_mask <> draft_owner_bits then t
    else begin
      let left = go t.left in
      let right = go t.right in
      let idx = !count in
      incr count;
      (* vn := Logged (pos, idx); an altered node is its own content
         version, any other keeps its cv and that cv's class bit. *)
      if t.meta land Meta.altered <> 0 then
        Node.pack ~key:t.key ~payload:t.payload ~left ~right ~vn_a:pos
          ~vn_b:idx ~cv_a:pos ~cv_b:idx
          ~meta:(ob lor (t.meta land Meta.carry_mask))
          ~ssv_a:t.ssv_a ~ssv_b:t.ssv_b ~scv_a:t.scv_a ~scv_b:t.scv_b
      else
        Node.pack ~key:t.key ~payload:t.payload ~left ~right ~vn_a:pos
          ~vn_b:idx ~cv_a:t.cv_a ~cv_b:t.cv_b
          ~meta:
            (ob
            lor (t.meta land (Meta.carry_mask lor Meta.cv_ephemeral)))
          ~ssv_a:t.ssv_a ~ssv_b:t.ssv_b ~scv_a:t.scv_a ~scv_b:t.scv_b
    end
  in
  let root = go d.root in
  {
    pos;
    snapshot = d.snapshot;
    server = d.server;
    txn_seq = d.txn_seq;
    isolation = d.isolation;
    root;
    node_count = !count;
    byte_size;
    view = None;
  }

let node_count t = t.node_count
let inside t (n : Node.node) = Node.owner n = t.pos
