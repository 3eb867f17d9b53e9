open Hyder_tree
open Node

type stats = { live_nodes : int; tombstones_dropped : int }

let compact ~pos state =
  (* Collect live nodes in key order; rebuild canonically, preserving
     payload and content version (its words and class bit). *)
  let live = ref [] and dropped = ref 0 in
  Tree.iter state (fun n ->
      if Payload.is_tombstone n.payload then incr dropped
      else live := n :: !live);
  let items = Array.of_list (List.rev !live) in
  let n = Array.length items in
  let tree =
    Tree.build_sorted n
      ~key:(fun i -> items.(i).key)
      ~node:(fun idx ~left ~right ->
        let src = items.(idx) in
        Node.pack ~key:src.key ~payload:src.payload ~left ~right ~vn_a:pos
          ~vn_b:idx ~cv_a:src.cv_a ~cv_b:src.cv_b
          ~meta:
            (Meta.owner_bits state_owner
            lor (src.meta land Meta.cv_ephemeral))
          ~ssv_a:0 ~ssv_b:0 ~scv_a:0 ~scv_b:0)
  in
  (tree, { live_nodes = n; tombstones_dropped = !dropped })

(* --- durable checkpoints ------------------------------------------------ *)

type t = {
  seq : int;
  pos : int;
  store : State_store.Snapshot.t;
  alloc_issued : int array;
  counters : Counters.t;
}

let capture ~store ~alloc_issued ~counters =
  let seq, pos = State_store.Snapshot.latest store in
  {
    seq;
    pos;
    store;
    alloc_issued = Array.copy alloc_issued;
    counters = Counters.copy counters;
  }

let state t =
  match State_store.Snapshot.by_seq t.store t.seq with
  | Some s -> s
  | None -> assert false
