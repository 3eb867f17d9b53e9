module Rng = Hyder_util.Rng
module Dist = Hyder_util.Dist
module Stats = Hyder_util.Stats
module Wire = Hyder_util.Wire
module Crc32 = Hyder_util.Crc32

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done;
  let c = Rng.create 43L in
  check "different seed differs" false (Rng.next_int64 a = Rng.next_int64 c)

let test_rng_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    check "in range" true (v >= 0 && v < 17);
    let f = Rng.unit_float r in
    check "unit float" true (f >= 0.0 && f < 1.0);
    let x = Rng.int_in r (-5) 5 in
    check "int_in" true (x >= -5 && x <= 5)
  done

let test_rng_uniformity () =
  let r = Rng.create 11L in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      check "within 10% of uniform" true (abs (c - expected) < expected / 10))
    counts

let test_rng_split_independent () =
  let r = Rng.create 5L in
  let s = Rng.split r in
  check "split streams differ" false (Rng.next_int64 r = Rng.next_int64 s)

let test_exponential_mean () =
  let r = Rng.create 3L in
  let sum = ref 0.0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  check (Printf.sprintf "mean ~2.0 (got %.3f)" mean) true
    (mean > 1.9 && mean < 2.1)

let test_shuffle_permutation () =
  let r = Rng.create 9L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check "still a permutation" true (sorted = Array.init 100 (fun i -> i));
  check "actually shuffled" false (a = Array.init 100 (fun i -> i))

(* --- distributions ------------------------------------------------------ *)

let sample_many dist n =
  let r = Rng.create 123L in
  let counts = Hashtbl.create 64 in
  for _ = 1 to n do
    let k = Dist.sample dist r in
    Hashtbl.replace counts k
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  counts

let test_uniform_covers () =
  let counts = sample_many (Dist.uniform ~n:100) 100_000 in
  check "all keys hit" true (Hashtbl.length counts = 100);
  Hashtbl.iter (fun k _ -> check "in range" true (k >= 0 && k < 100)) counts

let test_zipfian_skew () =
  let d = Dist.zipfian ~n:10_000 () in
  let counts = sample_many d 100_000 in
  let hits k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "key 0 hottest" true (hits 0 > hits 100);
  check "head heavy" true (hits 0 + hits 1 + hits 2 > 100_000 / 10);
  let r = Rng.create 55L in
  for _ = 1 to 10_000 do
    let k = Dist.sample d r in
    check "range" true (k >= 0 && k < 10_000)
  done

let test_scrambled_zipfian_scatters () =
  let d = Dist.scrambled_zipfian ~n:10_000 () in
  let counts = sample_many d 100_000 in
  let hot =
    Hashtbl.fold (fun k c acc -> if c > 1000 then k :: acc else acc) counts []
  in
  check "has hot keys" true (List.length hot > 0);
  check "hot keys scattered" true (List.exists (fun k -> k > 1000) hot)

let test_hotspot () =
  (* x=0.1: 10% of keys get 90% of accesses. *)
  let d = Dist.hotspot ~x:0.1 ~n:1000 in
  let counts = sample_many d 100_000 in
  let hot_hits =
    Hashtbl.fold (fun k c acc -> if k < 100 then acc + c else acc) counts 0
  in
  check
    (Printf.sprintf "hot set gets ~90%% (got %d%%)" (hot_hits / 1000))
    true
    (hot_hits > 85_000 && hot_hits < 95_000)

let test_hotspot_degenerate_uniform () =
  let d = Dist.hotspot ~x:1.0 ~n:100 in
  let counts = sample_many d 50_000 in
  check "covers most keys" true (Hashtbl.length counts > 95)

let test_latest_follows_front () =
  let d = Dist.latest ~n:100 in
  Dist.set_max d 1000;
  let counts = sample_many d 50_000 in
  let hits k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check "front is hottest" true (hits 999 > hits 100)

(* --- stats -------------------------------------------------------------- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Summary.count s);
  check "mean" true (abs_float (Stats.Summary.mean s -. 5.0) < 1e-9);
  check "stddev" true (abs_float (Stats.Summary.stddev s -. 2.138) < 0.01);
  check "min" true (Stats.Summary.min s = 2.0);
  check "max" true (Stats.Summary.max s = 9.0);
  check "total" true (Stats.Summary.total s = 40.0)

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 1000 do
    Stats.Sample.add s (float_of_int i)
  done;
  check "p50" true (Stats.Sample.percentile s 50.0 = 500.0);
  check "p95" true (Stats.Sample.percentile s 95.0 = 950.0);
  check "p99" true (Stats.Sample.percentile s 99.0 = 990.0);
  check "p100" true (Stats.Sample.percentile s 100.0 = 1000.0);
  check "mean" true (abs_float (Stats.Sample.mean s -. 500.5) < 1e-6)

let test_sample_interleaved_sort () =
  let s = Stats.Sample.create () in
  Stats.Sample.add s 5.0;
  Stats.Sample.add s 1.0;
  ignore (Stats.Sample.percentile s 50.0);
  Stats.Sample.add s 0.5;
  check "re-sorts after add" true (Stats.Sample.percentile s 0.0 = 0.5)

let test_histogram () =
  let h = Stats.Histogram.create ~bucket_width:10.0 ~buckets:5 in
  List.iter (Stats.Histogram.add h) [ 0.0; 5.0; 15.0; 100.0 ];
  let c = Stats.Histogram.bucket_counts h in
  check_int "bucket 0" 2 c.(0);
  check_int "bucket 1" 1 c.(1);
  check_int "overflow clamps" 1 c.(4);
  check_int "count" 4 (Stats.Histogram.count h)

(* --- wire --------------------------------------------------------------- *)

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 200;
  Wire.Writer.u32 w 0xDEADBEEFl;
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 300_000_000;
  Wire.Writer.varint64 w Int64.max_int;
  Wire.Writer.varint64 w (-1L);
  Wire.Writer.bytes w "hello";
  Wire.Writer.bytes w "";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "u8" 200 (Wire.Reader.u8 r);
  check "u32" true (Wire.Reader.u32 r = 0xDEADBEEFl);
  check_int "v0" 0 (Wire.Reader.varint r);
  check_int "v127" 127 (Wire.Reader.varint r);
  check_int "v128" 128 (Wire.Reader.varint r);
  check_int "vbig" 300_000_000 (Wire.Reader.varint r);
  check "vmax" true (Wire.Reader.varint64 r = Int64.max_int);
  check "vneg" true (Wire.Reader.varint64 r = -1L);
  Alcotest.(check string) "bytes" "hello" (Wire.Reader.bytes r);
  Alcotest.(check string) "empty" "" (Wire.Reader.bytes r);
  check_int "drained" 0 (Wire.Reader.remaining r)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x80" in
  Alcotest.check_raises "truncated varint" Wire.Truncated (fun () ->
      ignore (Wire.Reader.varint r))

let test_wire_varint_sizes () =
  let size v =
    let w = Wire.Writer.create () in
    Wire.Writer.varint w v;
    Wire.Writer.length w
  in
  check_int "1 byte" 1 (size 127);
  check_int "2 bytes" 2 (size 128);
  check_int "2 bytes max" 2 (size 16383);
  check_int "3 bytes" 3 (size 16384)

let prop_wire_varint_roundtrip =
  QCheck2.Test.make ~name:"varint64 roundtrips" ~count:1000
    QCheck2.Gen.(map Int64.of_int int)
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint64 w v;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.varint64 r = v)

(* Arbitrary byte strings (continuation bits set at random, up to the
   eleven bytes that overrun a 64-bit varint): [Reader.varint] consumes
   the same bytes as [varint64] and returns its [Int64.to_int], or
   raises [Truncated] exactly when it does. *)
let varint_bytes_gen =
  QCheck2.Gen.(
    map
      (fun (bytes, last) ->
        String.of_seq
          (List.to_seq
             (List.map (fun b -> Char.chr (b lor 0x80)) bytes
             @ match last with Some b -> [ Char.chr b ] | None -> [])))
      (pair (list_size (int_range 0 11) (int_bound 0x7f)) (opt (int_bound 0xff))))

let prop_reader_varint_matches_varint64 =
  QCheck2.Test.make ~name:"Reader.varint = to_int varint64" ~count:2000
    varint_bytes_gen (fun s ->
      let read f =
        let r = Wire.Reader.of_string s in
        match f r with
        | v -> Some (v, Wire.Reader.pos r)
        | exception Wire.Truncated -> None
      in
      read Wire.Reader.varint
      = read (fun r -> Int64.to_int (Wire.Reader.varint64 r)))

(* --- crc32 -------------------------------------------------------------- *)

let test_crc32_known_value () =
  (* IEEE CRC-32 of "123456789" is 0xCBF43926. *)
  check "check value" true
    (Int32.equal (Crc32.digest_string "123456789") 0xCBF43926l)

let test_crc32_detects_corruption () =
  let a = Crc32.digest_string "hello world" in
  let b = Crc32.digest_string "hello worle" in
  check "differs" false (Int32.equal a b)

(* Bit-at-a-time CRC-32 straight from the reflected polynomial: the
   reference the table-driven kernel must match. *)
let crc32_bitwise b ~pos ~len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* Arbitrary (pos, len) windows, so the eight-byte main loop meets every
   alignment and every tail length 0..7. *)
let prop_crc32_matches_bitwise =
  QCheck2.Test.make ~name:"crc32 = bitwise reference" ~count:500
    QCheck2.Gen.(triple (string_size (int_range 0 200)) nat nat)
    (fun (s, p, l) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = l mod (n - pos + 1) in
      Int32.equal (Crc32.digest b ~pos ~len) (crc32_bitwise b ~pos ~len))

(* [put_varint]/[varint_size] emit exactly [Writer.varint]'s bytes. *)
let prop_put_varint_matches_writer =
  QCheck2.Test.make ~name:"put_varint = Writer.varint" ~count:1000
    QCheck2.Gen.(map (fun v -> v land max_int) int)
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w v;
      let expect = Wire.Writer.contents w in
      let b = Bytes.make (Wire.varint_size v + 2) '*' in
      let stop = Wire.put_varint b 1 v in
      String.length expect = Wire.varint_size v
      && stop = 1 + Wire.varint_size v
      && Bytes.sub_string b 1 (stop - 1) = expect
      && Bytes.get b 0 = '*'
      && Bytes.get b stop = '*')

(* ---- Spsc_queue ------------------------------------------------------ *)

module Spsc = Hyder_util.Spsc_queue

let test_spsc_fifo_and_capacity () =
  let q = Spsc.create ~capacity:5 ~dummy:(-1) () in
  check_int "capacity rounds up to a power of two" 8 (Spsc.capacity q);
  check "empty pop" true (Spsc.try_pop q = None);
  for i = 0 to 7 do
    check "push accepted" true (Spsc.try_push q i)
  done;
  check "push on full rejected" false (Spsc.try_push q 99);
  check_int "length" 8 (Spsc.length q);
  for i = 0 to 7 do
    check "fifo order" true (Spsc.try_pop q = Some i)
  done;
  check "drained" true (Spsc.try_pop q = None);
  (* wrap around the ring several times *)
  for round = 0 to 30 do
    check "push" true (Spsc.try_push q round);
    check "pop" true (Spsc.try_pop q = Some round)
  done

let test_spsc_cross_domain () =
  let n = 20_000 in
  let q = Spsc.create ~capacity:64 ~dummy:(-1) () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let sum = ref 0 and seen = ref 0 and ordered = ref true and last = ref (-1) in
  while !seen < n do
    match Spsc.try_pop q with
    | Some v ->
        if v <= !last then ordered := false;
        last := v;
        sum := !sum + v;
        incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  check "all elements in order" true !ordered;
  check "no element lost or duplicated" true (!sum = n * (n - 1) / 2);
  check "queue empty at the end" true (Spsc.try_pop q = None)

let test_spsc_pop_blocks_and_cancels () =
  let q = Spsc.create ~capacity:4 ~dummy:"" () in
  (* a parked consumer is woken by a push *)
  let consumer = Domain.spawn (fun () -> Spsc.pop q ~cancel:(fun () -> false)) in
  Unix.sleepf 0.02;
  check "push wakes parked consumer" true (Spsc.try_push q "hello");
  check "blocking pop returns the element" true
    (Domain.join consumer = Some "hello");
  (* a parked consumer is woken by cancellation *)
  let stop = Atomic.make false in
  let consumer =
    Domain.spawn (fun () -> Spsc.pop q ~cancel:(fun () -> Atomic.get stop))
  in
  Unix.sleepf 0.02;
  Atomic.set stop true;
  Spsc.wake q;
  check "cancelled pop returns None" true (Domain.join consumer = None)

(* A third domain — neither producer nor consumer — samples [length] while
   both endpoints run flat out.  The head/tail reads tear under this race;
   the contract is that an observer never sees a negative depth (the
   metrics queue-depth sampler feeds lengths to a histogram, which would
   reject them).  Over-counting past capacity is an allowed tear. *)
let test_spsc_length_never_negative () =
  let n = 50_000 in
  let q = Spsc.create ~capacity:16 ~dummy:(-1) () in
  let stop = Atomic.make false in
  let bad = Atomic.make 0 and samples = Atomic.make 0 in
  let sampler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let l = Spsc.length q in
          Atomic.incr samples;
          if l < 0 then Atomic.incr bad
        done)
  in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push q i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let seen = ref 0 in
  while !seen < n do
    match Spsc.try_pop q with
    | Some _ -> incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Atomic.set stop true;
  Domain.join sampler;
  check "sampler actually raced the endpoints" true (Atomic.get samples > 0);
  check_int "no negative length observed" 0 (Atomic.get bad)

(* The park/unpark handshake's narrowest window: the consumer has just
   decided the ring is empty and is about to park while the producer fills
   it to exactly capacity — if the producer's sleeper check could pass
   before the consumer registered (or the consumer's emptiness re-check
   could miss the published tail), the consumer would sleep through the
   only wakeup it will ever get and the handoff would deadlock.  Drive
   many fill-to-capacity bursts against a parking consumer; a missed
   doorbell shows up as the watchdog timing out. *)
let test_spsc_doorbell_fill_to_capacity () =
  let rounds = 400 in
  let q = Spsc.create ~capacity:4 ~dummy:(-1) () in
  let cap = Spsc.capacity q in
  let total = rounds * cap in
  let cancel = Atomic.make false in
  let consumed = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let ok = ref true in
        for _ = 1 to total do
          match Spsc.pop q ~cancel:(fun () -> Atomic.get cancel) with
          | Some _ -> Atomic.incr consumed
          | None -> ok := false
        done;
        !ok)
  in
  let producer =
    Domain.spawn (fun () ->
        for round = 0 to rounds - 1 do
          (* Wait until the previous burst is fully drained (the consumer
             is heading for the park path), then fill the ring to exactly
             capacity in one burst. *)
          while Atomic.get consumed < round * cap && not (Atomic.get cancel) do
            Domain.cpu_relax ()
          done;
          for i = 0 to cap - 1 do
            while
              (not (Spsc.try_push q ((round * cap) + i)))
              && not (Atomic.get cancel)
            do
              Domain.cpu_relax ()
            done
          done
        done)
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get consumed < total && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  let timed_out = Atomic.get consumed < total in
  Atomic.set cancel true;
  Spsc.wake q;
  Domain.join producer;
  let consumer_ok = Domain.join consumer in
  check "no missed doorbell (every burst drained)" false timed_out;
  check "every blocking pop returned an element" true consumer_ok

(* Batched transfer semantics, single-domain: partial accepts against a
   full ring, FIFO across mixed single/batched pushes and pops, and slot
   scrubbing (popped slots revert to the dummy so the ring retains no
   consumed values). *)
let test_spsc_batch_basics () =
  let q = Spsc.create ~capacity:8 ~dummy:(-1) () in
  let buf = Array.init 16 (fun i -> i) in
  check_int "batch push capped by capacity" 8 (Spsc.push_batch q buf ~len:12);
  check_int "push on full accepts nothing" 0 (Spsc.push_batch q buf ~len:3);
  let out = Array.make 16 (-2) in
  check_int "batch pop returns what is there" 8 (Spsc.pop_batch q out ~max:16);
  for i = 0 to 7 do
    check_int "fifo across the batch" i out.(i)
  done;
  check_int "pop on empty returns nothing" 0 (Spsc.pop_batch q out ~max:4);
  (* mixed: single pushes drain through batched pops and vice versa *)
  check "single push" true (Spsc.try_push q 100);
  check_int "batched tail behind a single push" 2
    (Spsc.push_batch q [| 101; 102 |] ~len:2);
  check_int "batch pop spans both push kinds" 3 (Spsc.pop_batch q out ~max:8);
  check "order preserved" true
    (out.(0) = 100 && out.(1) = 101 && out.(2) = 102);
  check_int "batched push" 2 (Spsc.push_batch q [| 7; 8 |] ~len:2);
  check "single pop sees batched elements in order" true
    (Spsc.try_pop q = Some 7 && Spsc.try_pop q = Some 8);
  check "zero len accepted" true (Spsc.push_batch q [||] ~len:0 = 0);
  (match Spsc.push_batch q [| 1 |] ~len:2 with
  | _ -> Alcotest.fail "len beyond the buffer accepted"
  | exception Invalid_argument _ -> ());
  match Spsc.pop_batch q out ~max:17 with
  | _ -> Alcotest.fail "max beyond the buffer accepted"
  | exception Invalid_argument _ -> ()

(* QCheck2: an arbitrary schedule of batched/single pushes against
   batched/single pops, with a third domain sampling [length], keeps
   FIFO order end to end and never shows the observer a negative
   depth.  This is the wire-level contract the pipelined driver's
   batched handoff rides on. *)
let prop_spsc_batch_interleaving =
  let gen =
    QCheck2.Gen.(
      pair (list_size (int_range 1 40) (int_range 0 8))
        (list_size (int_range 1 40) (int_range 0 8)))
  in
  QCheck2.Test.make ~name:"spsc batched interleaving keeps fifo" ~count:25 gen
    (fun (push_sizes, pop_sizes) ->
      let q = Spsc.create ~capacity:8 ~dummy:(-1) () in
      let total = List.fold_left ( + ) 0 push_sizes in
      let stop = Atomic.make false in
      let negative = Atomic.make false in
      let sampler =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              if Spsc.length q < 0 then Atomic.set negative true
            done)
      in
      let producer =
        Domain.spawn (fun () ->
            let next = ref 0 in
            List.iter
              (fun sz ->
                if sz = 1 then (
                  while not (Spsc.try_push q !next) do
                    Domain.cpu_relax ()
                  done;
                  incr next)
                else
                  let buf = Array.init sz (fun i -> !next + i) in
                  let sent = ref 0 in
                  while !sent < sz do
                    let accepted =
                      Spsc.push_batch q
                        (Array.sub buf !sent (sz - !sent))
                        ~len:(sz - !sent)
                    in
                    if accepted = 0 then Domain.cpu_relax ()
                    else sent := !sent + accepted
                  done;
                  next := !next + sz)
              push_sizes)
      in
      (* consume on this domain with the generated pop schedule, cycling
         through it until every pushed element arrived *)
      let out = Array.make 16 (-2) in
      let expect = ref 0 in
      let ok = ref true in
      let schedule = if pop_sizes = [] then [ 4 ] else pop_sizes in
      let rec consume = function
        | [] -> consume schedule
        | sz :: rest when !expect < total ->
            (if sz <= 1 then (
               match Spsc.try_pop q with
               | Some v ->
                   if v <> !expect then ok := false;
                   incr expect
               | None -> Domain.cpu_relax ())
             else
               let n = Spsc.pop_batch q out ~max:sz in
               for i = 0 to n - 1 do
                 if out.(i) <> !expect + i then ok := false
               done;
               if n = 0 then Domain.cpu_relax () else expect := !expect + n);
            consume rest
        | _ -> ()
      in
      consume schedule;
      Domain.join producer;
      Atomic.set stop true;
      Domain.join sampler;
      !ok && !expect = total && Spsc.try_pop q = None
      && not (Atomic.get negative))

(* The doorbell race of [test_spsc_doorbell_fill_to_capacity], but each
   burst is a single [push_batch] publication: the whole capacity lands
   under one tail store and at most one doorbell.  If the batched
   publication's sleeper check could miss a consumer that is heading to
   park, that one doorbell is the only wakeup the consumer will ever
   get and the handoff deadlocks (watchdog timeout). *)
let test_spsc_batched_doorbell_fill_to_capacity () =
  let rounds = 400 in
  let q = Spsc.create ~capacity:4 ~dummy:(-1) () in
  let cap = Spsc.capacity q in
  let total = rounds * cap in
  let cancel = Atomic.make false in
  let consumed = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let ok = ref true in
        for _ = 1 to total do
          match Spsc.pop q ~cancel:(fun () -> Atomic.get cancel) with
          | Some _ -> Atomic.incr consumed
          | None -> ok := false
        done;
        !ok)
  in
  let producer =
    Domain.spawn (fun () ->
        let buf = Array.make cap 0 in
        for round = 0 to rounds - 1 do
          while Atomic.get consumed < round * cap && not (Atomic.get cancel) do
            Domain.cpu_relax ()
          done;
          for i = 0 to cap - 1 do
            buf.(i) <- (round * cap) + i
          done;
          let sent = ref 0 in
          while !sent < cap && not (Atomic.get cancel) do
            let accepted =
              Spsc.push_batch q (Array.sub buf !sent (cap - !sent))
                ~len:(cap - !sent)
            in
            if accepted = 0 then Domain.cpu_relax ()
            else sent := !sent + accepted
          done
        done)
  in
  let deadline = Unix.gettimeofday () +. 30.0 in
  while Atomic.get consumed < total && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  let timed_out = Atomic.get consumed < total in
  Atomic.set cancel true;
  Spsc.wake q;
  Domain.join producer;
  let consumer_ok = Domain.join consumer in
  check "no missed doorbell (every batched burst drained)" false timed_out;
  check "every blocking pop returned an element" true consumer_ok;
  check "doorbells were actually exercised" true (Spsc.wakeups q > 0)

(* ---- Buf_pool -------------------------------------------------------- *)

module Buf_pool = Hyder_util.Buf_pool

let test_buf_pool_reuse () =
  let p = Buf_pool.create () in
  let b1 = Buf_pool.acquire p 100 in
  check "rounded to a power of two" true (Bytes.length b1 = 128);
  check_int "first acquire misses" 1 (Buf_pool.misses p);
  Buf_pool.release p b1;
  check_int "parked" 1 (Buf_pool.pooled p);
  let b2 = Buf_pool.acquire p 65 in
  check "same bucket reuses the buffer" true (b1 == b2);
  check_int "hit served from freelist" 1 (Buf_pool.hits p);
  check_int "freelist drained" 0 (Buf_pool.pooled p)

let test_buf_pool_size_classes () =
  let p = Buf_pool.create () in
  let small = Buf_pool.acquire p 10 in
  check "16-byte floor" true (Bytes.length small = 16);
  let big = Buf_pool.acquire p 5000 in
  check "large rounds up" true (Bytes.length big = 8192);
  Buf_pool.release p small;
  Buf_pool.release p big;
  let big' = Buf_pool.acquire p 4100 in
  check "buckets are per size class" true (big == big');
  let small' = Buf_pool.acquire p 16 in
  check "small bucket intact" true (small == small');
  (* foreign (non-power-of-two) buffers are not retained *)
  Buf_pool.release p (Bytes.create 100);
  let fresh = Buf_pool.acquire p 100 in
  check "odd-sized release left to the GC" true (Bytes.length fresh = 128)

let test_buf_pool_lifetime_canaries () =
  (* The accounting that caught the cluster encoder leak: in_flight
     balances acquires against pool-eligible releases, and the release
     canaries turn the two classic lifetime bugs — double release and
     releasing a buffer the pool never issued — into immediate
     Invalid_argument instead of silent aliasing. *)
  let p = Buf_pool.create () in
  let b1 = Buf_pool.acquire p 64 in
  let b2 = Buf_pool.acquire p 64 in
  check_int "two in flight" 2 (Buf_pool.in_flight p);
  Buf_pool.release p b1;
  check_int "one released" 1 (Buf_pool.in_flight p);
  (* a caller-made odd-sized buffer is not pool-eligible: ignored by
     both the freelist and the balance *)
  Buf_pool.release p (Bytes.create 100);
  check_int "foreign release not counted" 1 (Buf_pool.in_flight p);
  (match Buf_pool.release p b1 with
  | () -> Alcotest.fail "double release accepted"
  | exception Invalid_argument _ -> ());
  check_int "double release left the balance alone" 1 (Buf_pool.in_flight p);
  Buf_pool.release p b2;
  check_int "drained run balances to zero" 0 (Buf_pool.in_flight p);
  (* releasing a pool-eligible buffer that was never acquired would make
     the balance negative — a leak in the other direction *)
  match Buf_pool.release p (Bytes.create 128) with
  | () -> Alcotest.fail "over-release accepted"
  | exception Invalid_argument _ -> ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_wire_varint_roundtrip;
      prop_reader_varint_matches_varint64;
      prop_put_varint_matches_writer;
      prop_crc32_matches_bitwise;
      prop_spsc_batch_interleaving;
    ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_uniform_covers;
          Alcotest.test_case "zipfian" `Quick test_zipfian_skew;
          Alcotest.test_case "scrambled zipfian" `Quick
            test_scrambled_zipfian_scatters;
          Alcotest.test_case "hotspot" `Quick test_hotspot;
          Alcotest.test_case "hotspot x=1" `Quick
            test_hotspot_degenerate_uniform;
          Alcotest.test_case "latest" `Quick test_latest_follows_front;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "interleaved sort" `Quick
            test_sample_interleaved_sort;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "varint sizes" `Quick test_wire_varint_sizes;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known value" `Quick test_crc32_known_value;
          Alcotest.test_case "corruption" `Quick test_crc32_detects_corruption;
        ] );
      ( "spsc queue",
        [
          Alcotest.test_case "fifo, capacity, wrap" `Quick
            test_spsc_fifo_and_capacity;
          Alcotest.test_case "cross-domain handoff" `Quick
            test_spsc_cross_domain;
          Alcotest.test_case "blocking pop and cancel" `Quick
            test_spsc_pop_blocks_and_cancels;
          Alcotest.test_case "length never negative under race" `Quick
            test_spsc_length_never_negative;
          Alcotest.test_case "doorbell: fill to capacity cannot be slept \
                              through" `Quick
            test_spsc_doorbell_fill_to_capacity;
          Alcotest.test_case "batched push/pop semantics" `Quick
            test_spsc_batch_basics;
          Alcotest.test_case "batched doorbell: one publication per burst \
                              cannot be slept through" `Quick
            test_spsc_batched_doorbell_fill_to_capacity;
        ] );
      ( "buf pool",
        [
          Alcotest.test_case "reuse" `Quick test_buf_pool_reuse;
          Alcotest.test_case "size classes" `Quick test_buf_pool_size_classes;
          Alcotest.test_case "lifetime canaries" `Quick
            test_buf_pool_lifetime_canaries;
        ] );
      ("properties", qcheck_cases);
    ]
