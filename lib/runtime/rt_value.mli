(** Runtime values: the mutable engine's twin of {!P_semantics.Value}, with
    names resolved to table indices. The runtime shares no execution code
    with the verifier — mirroring the paper's generated-C-plus-runtime vs
    Zing split — which is what makes the d=0 equivalence tests meaningful. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Event of int  (** event id *)
  | Machine of int  (** machine instance handle *)

val equal : t -> t -> bool

val hash : t -> int
(** Agrees with {!equal}: equal values hash alike. *)

val pp : t Fmt.t

exception Type_error of string

val truth : t -> bool
(** @raise Type_error on non-booleans, including [⊥]. *)

val unop : P_compile.Tables.unop -> t -> t
val binop : P_compile.Tables.binop -> t -> t -> t
(** [⊥] propagates; ill-typed applications raise {!Type_error}. *)
