type stage =
  | Deserialize
  | Premeld
  | Group_meld
  | Final_meld

let stage_to_string = function
  | Deserialize -> "deserialize"
  | Premeld -> "premeld"
  | Group_meld -> "group meld"
  | Final_meld -> "final meld"

let stage_code = function
  | Deserialize -> 0
  | Premeld -> 1
  | Group_meld -> 2
  | Final_meld -> 3

let stage_of_code = function
  | 0 -> Deserialize
  | 1 -> Premeld
  | 2 -> Group_meld
  | 3 -> Final_meld
  | c -> invalid_arg (Printf.sprintf "Trace.stage_of_code %d" c)

type span = {
  track : int;
  stage : stage;
  seq : int;
  t0 : float;
  t1 : float;
  nodes : int;
  detail : int;
}

(* One single-writer ring: parallel arrays of unboxed fields, no record
   allocation per span on the hot path. *)
type ring = {
  stages : int array;
  seqs : int array;
  t0s : float array;
  t1s : float array;
  nodes_ : int array;
  details : int array;
  mutable head : int;  (** spans ever written to this ring *)
}

type t = {
  enabled : bool;
  cap : int;  (** power of two *)
  mask : int;
  shards_ : int;  (** premeld shard rings: tracks 1..shards_ *)
  rings : ring array;
      (** track 0 = pipeline tail, 1..shards_ = premeld shards,
          shards_+1.. = pipelined worker domains *)
}

let disabled = { enabled = false; cap = 0; mask = 0; shards_ = 0; rings = [||] }

let make_ring cap =
  {
    stages = Array.make cap 0;
    seqs = Array.make cap 0;
    t0s = Array.make cap 0.0;
    t1s = Array.make cap 0.0;
    nodes_ = Array.make cap 0;
    details = Array.make cap 0;
    head = 0;
  }

let create ?(capacity = 32768) ?(workers = 0) ~shards () =
  if shards < 0 || workers < 0 || capacity < 1 then invalid_arg "Trace.create";
  let cap = ref 1 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  let cap = !cap in
  {
    enabled = true;
    cap;
    mask = cap - 1;
    shards_ = shards;
    rings = Array.init (shards + workers + 1) (fun _ -> make_ring cap);
  }

let enabled t = t.enabled
let shards t = t.shards_
let workers t = max 0 (Array.length t.rings - 1 - t.shards_)
let capacity t = t.cap

let record t ~track ~stage ~seq ~t0 ~t1 ~nodes ~detail =
  if t.enabled then begin
    let r = t.rings.(track) in
    let i = r.head land t.mask in
    r.stages.(i) <- stage_code stage;
    r.seqs.(i) <- seq;
    r.t0s.(i) <- t0;
    r.t1s.(i) <- t1;
    r.nodes_.(i) <- nodes;
    r.details.(i) <- detail;
    r.head <- r.head + 1
  end

let recorded t = Array.fold_left (fun acc r -> acc + r.head) 0 t.rings

let dropped t =
  Array.fold_left (fun acc r -> acc + max 0 (r.head - t.cap)) 0 t.rings

let spans t =
  let out = ref [] in
  Array.iteri
    (fun track r ->
      let kept = min r.head t.cap in
      (* newest first so the consing yields oldest-first per ring *)
      for k = 0 to kept - 1 do
        let i = (r.head - 1 - k) land t.mask in
        out :=
          {
            track;
            stage = stage_of_code r.stages.(i);
            seq = r.seqs.(i);
            t0 = r.t0s.(i);
            t1 = r.t1s.(i);
            nodes = r.nodes_.(i);
            detail = r.details.(i);
          }
          :: !out
      done)
    t.rings;
  List.stable_sort (fun a b -> Float.compare a.t0 b.t0) !out

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                            *)
(* ------------------------------------------------------------------ *)

(* Track (tid) layout: the pipeline-tail ring fans out into one track per
   stage so final meld, group meld and deserialize are separately visible;
   premeld shard i keeps its own track; pipelined worker domains (which
   carry offloaded ds and gm spans) get their own track block at 40+. *)
let tid_of ~shards s =
  if s.track > shards then 40 + (s.track - shards - 1)
  else
    match s.stage with
    | Final_meld -> 0
    | Deserialize -> 1
    | Group_meld -> 2
    | Premeld -> 9 + s.track

let pid = 1

let thread_meta ~tid ~name =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String name) ]);
    ]

let to_chrome ?origin t =
  let sp = spans t in
  let origin =
    match origin with
    | Some o -> o
    | None -> ( match sp with [] -> 0.0 | s :: _ -> s.t0)
  in
  let metas =
    thread_meta ~tid:0 ~name:"final meld"
    :: thread_meta ~tid:1 ~name:"deserialize"
    :: thread_meta ~tid:2 ~name:"group meld"
    :: (List.init (shards t) (fun i ->
            thread_meta ~tid:(10 + i)
              ~name:(Printf.sprintf "premeld shard %d" (i + 1)))
       @ List.init (workers t) (fun i ->
             thread_meta ~tid:(40 + i)
               ~name:(Printf.sprintf "pipe worker %d" i)))
  in
  (* A wrapped ring silently reads as a complete trace otherwise: surface
     the loss inside the artifact itself, as a global instant event at the
     start of the view plus a dropped-span count in its args. *)
  let overflow =
    let d = dropped t in
    if d = 0 then []
    else
      [
        Json.Obj
          [
            ( "name",
              Json.String
                (Printf.sprintf "TRUNCATED: %d spans dropped (ring overflow)" d)
            );
            ("cat", Json.String "meld");
            ("ph", Json.String "i");
            ("s", Json.String "g");
            ("ts", Json.Float 0.0);
            ("pid", Json.Int pid);
            ("tid", Json.Int 0);
            ( "args",
              Json.Obj
                [
                  ("dropped", Json.Int d);
                  ("recorded", Json.Int (recorded t));
                  ("capacity", Json.Int t.cap);
                ] );
          ];
      ]
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String (stage_to_string s.stage));
            ("cat", Json.String "meld");
            ("ph", Json.String "X");
            ("ts", Json.Float ((s.t0 -. origin) *. 1e6));
            ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
            ("pid", Json.Int pid);
            ("tid", Json.Int (tid_of ~shards:t.shards_ s));
            ( "args",
              Json.Obj
                [
                  ("seq", Json.Int s.seq);
                  ("nodes", Json.Int s.nodes);
                  ("detail", Json.Int s.detail);
                ] );
          ])
      sp
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metas @ overflow @ events));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_chrome_string ?origin t = Json.to_string (to_chrome ?origin t)
