(** Typed, interned names for the identifier namespaces of a P program.

    The paper requires identifiers to be unique (section 3.3); giving each
    namespace its own abstract type keeps the interpreter and checker from
    ever confusing an event name with a state name.

    Every name is hash-consed when it is created: {!ID.of_string} returns
    the one value of its namespace for that text. Equality is physical,
    hashing reads a precomputed field, and comparison settles equal names
    by [==] before it looks at the text. *)

module type ID = sig
  type t

  val of_string : string -> t
  (** The namespace's unique name for this text. Safe from any domain:
      a text the calling domain has seen before costs a lookup in a
      domain-local cache; a new one takes the namespace's lock once. *)

  val to_string : t -> string

  val id : t -> int
  (** Dense per-namespace index, in order of first interning (from 0).
      It depends on the order names were created, so it may index arrays
      but never decide an order or a digest. *)

  val equal : t -> t -> bool
  (** Physical equality. *)

  val compare : t -> t -> int
  (** [String.compare] on the texts; 0 at once on [==]. *)

  val hash : t -> int
  (** [Hashtbl.hash] of the text, computed once at interning. *)

  val pp : t Fmt.t

  module Set : Set.S with type elt = t
  module Map : Map.S with type key = t
  module Tbl : Hashtbl.S with type key = t
end

module String_id () : ID
(** Generative functor: each application creates a fresh, incompatible
    namespace with its own intern table. *)

module Event : ID
module Machine : ID
module State : ID
module Var : ID
module Action : ID
module Foreign : ID
