(** Compact canonical encodings of global configurations for the
    explicit-state search's seen set. Statements are interned once (by
    physical identity — agenda statements are always subterms of the
    program), names map to dense integers, and a configuration encodes to a
    short byte string whose MD5 digest is the state key. *)

(** A reusable byte buffer holding one encoding, digested in place. *)
module Buf : sig
  type t

  val create : int -> t
  val clear : t -> unit

  val add_int : t -> int -> unit
  (** Zigzag varint, 7 bits per byte — the encoding's one integer form. *)

  val add_string : t -> string -> unit

  val digest : t -> Digest.t
  (** MD5 of the bytes added since the last {!clear}. *)
end

type t

val create : P_static.Symtab.t -> t
(** Build the interning tables for one program. Encoding a name the
    program never declared raises [Not_found]. Encoders are stateful and
    not thread-safe: use one per domain (interning is deterministic, so
    separate encoders produce identical digests). *)

val digest :
  ?rename:(int -> int) -> t -> P_semantics.Config.t -> int list -> string
(** [digest t config extra]: MD5 of the canonical encoding of [config]
    followed by the integers [extra] (used for the scheduler stack).
    [?rename] digests the π-renamed configuration (ids mapped pointwise,
    machines visited in renamed-id order) without materializing it;
    [extra] is not renamed — the caller owns its meaning. *)

val machine_digest :
  ?rename:(int -> int) ->
  t -> P_semantics.Mid.t -> P_semantics.Machine.t -> string
(** MD5 of the canonical encoding of one machine binding — the unit the
    incremental {!Fingerprint} caches per physical machine value. *)

val machine_shape_digest : t -> P_semantics.Machine.t -> string
(** Identity-blind digest of one machine: the same encoding with every
    machine identifier masked to a constant. Symmetry reduction's order
    key for seeding the canonical traversal at unreferenced machines. *)

val iter_machine_mids : P_semantics.Machine.t -> (int -> unit) -> unit
(** Every machine identifier held by the machine — [self] plus each
    [Value.Machine] reference in continuations, store, argument, agenda,
    and queue — in exactly the order the canonical encoding emits them.
    The reference order the symmetry renaming's traversal follows. *)
