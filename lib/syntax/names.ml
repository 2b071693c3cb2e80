(** Typed, interned names for the identifier namespaces of a P program.

    The paper requires "identifiers for machines, state names, events, and
    variables are unique" (section 3.3). Giving each namespace its own module
    keeps the interpreter and checker from ever confusing an event name with a
    state name. Each name is hash-consed once, when it is created, so the
    checker's hot paths compare names with [==] and hash them with a field
    load. *)

module type ID = sig
  type t

  val of_string : string -> t
  val to_string : t -> string
  val id : t -> int
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : t Fmt.t

  module Set : Set.S with type elt = t
  module Map : Map.S with type key = t
  module Tbl : Hashtbl.S with type key = t
end

(* [String.hash] is [Hashtbl.hash] on strings, without the generic
   traversal. *)
module String_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

module String_id () : ID = struct
  (* [name] comes first so that polymorphic comparison of values holding
     names orders them by text, as it did when a name was its string. *)
  type t = { name : string; id : int; hash : int }

  (* The namespace's one table of record, written under [lock]. Each
     domain keeps a cache of it, so a name seen before costs no lock. *)
  let interned : t String_tbl.t = String_tbl.create 256
  let lock = Mutex.create ()
  let cache = Domain.DLS.new_key (fun () -> String_tbl.create 256)

  let intern s =
    Mutex.protect lock (fun () ->
        match String_tbl.find_opt interned s with
        | Some n -> n
        | None ->
          let n = { name = s; id = String_tbl.length interned; hash = String.hash s } in
          String_tbl.add interned s n;
          n)

  let of_string s =
    let local = Domain.DLS.get cache in
    match String_tbl.find_opt local s with
    | Some n -> n
    | None ->
      let n = intern s in
      String_tbl.add local s n;
      n

  let to_string n = n.name
  let id n = n.id
  let equal = ( == )

  (* [==] settles equal names; distinct names order by text, so every map,
     set and canonical encoding keeps the order it had on strings. *)
  let compare a b = if a == b then 0 else String.compare a.name b.name

  (* the text's own hash, so tables iterate as they did on strings *)
  let hash n = n.hash
  let pp ppf n = Fmt.string ppf n.name

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)
  module Tbl = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

module Event = String_id ()
module Machine = String_id ()
module State = String_id ()
module Var = String_id ()
module Action = String_id ()
module Foreign = String_id ()
