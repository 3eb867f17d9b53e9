(** Byte-level encoding primitives shared by the intention codec and the log.

    Writers append to a growable buffer; readers consume from a byte range
    with bounds checks.  Integers use LEB128 varints (intention trees are
    full of small structural integers, so varints materially shrink
    intentions, which the paper identifies as the quantity that drives meld
    cost). *)

exception Truncated
(** Raised by readers on premature end of input. *)

val varint_size : int -> int
(** Bytes {!Writer.varint} emits for a non-negative value. *)

val put_varint : Bytes.t -> int -> int -> int
(** [put_varint b at v] writes {!Writer.varint}'s bytes for [v] at
    [b.[at]] and returns the offset just past them. *)

module Writer : sig
  type t

  val create : ?pool:Buf_pool.t -> ?capacity:int -> unit -> t
  (** With [pool], the backing buffer comes from (and grows through) the
      given per-domain {!Buf_pool}; call {!free} to hand it back. *)

  val length : t -> int
  val clear : t -> unit

  val free : t -> unit
  (** Release the backing buffer to the writer's pool (no-op without
      one) and reset to empty.  The writer stays usable — the next
      append allocates afresh. *)

  val u8 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val varint : t -> int -> unit
  (** Non-negative values only. *)

  val varint64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  (** Length-prefixed byte string. *)

  val substring : t -> string -> pos:int -> len:int -> unit
  (** Length-prefixed slice of [s], blitted straight from the source —
      equivalent to [bytes t (String.sub s pos len)] without the
      intermediate allocation. *)

  val raw : t -> Bytes.t -> pos:int -> len:int -> unit
  val contents : t -> string
  val blit_into : t -> Bytes.t -> dst_pos:int -> unit
end

module Reader : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val u32 : t -> int32
  val varint : t -> int
  val varint64 : t -> int64
  val bytes : t -> string
  val skip : t -> int -> unit
end
