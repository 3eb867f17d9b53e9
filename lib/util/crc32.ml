(* Slicing-by-8 over unboxed int tables: [tables] holds eight 256-entry
   tables back to back, where table [k] gives a byte's contribution after
   [k] further bytes (table 0 is the classic byte-at-a-time table of the
   reflected polynomial 0xEDB88320).  The main loop folds eight input
   bytes per step from one 64-bit load; the tail runs byte at a time. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let digest b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.digest: range out of bounds";
  let t = tables in
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let x = Bytes.get_int64_le b !i in
    let lo = Int64.to_int x land 0xFFFFFFFF lxor !crc in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    crc :=
      Array.unsafe_get t (0x700 + (lo land 0xFF))
      lxor Array.unsafe_get t (0x600 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x500 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get t (0x400 + (lo lsr 24))
      lxor Array.unsafe_get t (0x300 + (hi land 0xFF))
      lxor Array.unsafe_get t (0x200 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get t (0x100 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    let c = !crc in
    crc :=
      Array.unsafe_get t ((c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (c lsr 8)
  done;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let digest_string s =
  digest (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
