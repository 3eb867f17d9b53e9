type t = int

let compare = Int.compare
let equal = Int.equal
let priority k = Hyder_util.Rng.hash64 (Int64.of_int k)

(* [Rng.hash64]'s SplitMix64 finalizer, local and inlined so that
   [priority_greater] keeps both hashes unboxed: a cross-module call
   returns a boxed [Int64] (and is never inlined under [-opaque]). *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Unsigned order of the priorities, as signed order after flipping the
   sign bit; ties (equal keys only — the hash is a bijection) fall back
   to key order.  Allocation-free. *)
let priority_greater a b =
  let pa = Int64.logxor (mix (Int64.of_int a)) Int64.min_int
  and pb = Int64.logxor (mix (Int64.of_int b)) Int64.min_int in
  if (pa : int64) = pb then a < b else pa > pb

let pp fmt k = Format.fprintf fmt "%d" k
let to_string = string_of_int
