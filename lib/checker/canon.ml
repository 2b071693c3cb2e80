(** Compact canonical encodings of global configurations.

    The explicit-state search needs to ask "was this configuration (together
    with the scheduler stack) seen before?" millions of times. Marshalling
    whole configurations would serialize every statement AST hanging off the
    machines' agendas, so instead we intern every statement of the program
    once and encode a configuration as a byte string of small integers:
    interned names, interned statements, values, queues, frames, agendas.
    The encoding is injective for configurations of a fixed program, so its
    MD5 digest is a sound state key (up to digest collision). *)

open P_syntax
module Symtab = P_static.Symtab
module Machine = P_semantics.Machine
module Config = P_semantics.Config
module Value = P_semantics.Value
module Equeue = P_semantics.Equeue
module Mid = P_semantics.Mid

module Stmt_tbl = Hashtbl.Make (struct
  type t = Ast.stmt

  (* Physical equality: agenda statements are always subterms of the program,
     interned up front. The structural hash is consistent with [==] and
     stable under GC moves. *)
  let equal = ( == )
  let hash (s : t) = Hashtbl.hash s
end)

(* A reusable byte buffer: the encoding is digested in place, with no
   copy of the bytes per digest. *)
module Buf = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create n = { bytes = Bytes.create n; len = 0 }
  let clear b = b.len <- 0

  let reserve b n =
    if b.len + n > Bytes.length b.bytes then begin
      let bytes = Bytes.create (max (2 * Bytes.length b.bytes) (b.len + n)) in
      Bytes.blit b.bytes 0 bytes 0 b.len;
      b.bytes <- bytes
    end

  (* zigzag varint, 7 bits per byte little-endian: at most 10 bytes *)
  let add_int b i =
    reserve b 10;
    let rec go i =
      if i land lnot 0x7f = 0 then begin
        Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr i);
        b.len <- b.len + 1
      end
      else begin
        Bytes.unsafe_set b.bytes b.len (Char.unsafe_chr (0x80 lor (i land 0x7f)));
        b.len <- b.len + 1;
        go (i lsr 7)
      end
    in
    go (if i < 0 then (-2 * i) - 1 else 2 * i)

  let add_string b s =
    let n = String.length s in
    reserve b n;
    Bytes.unsafe_blit_string s 0 b.bytes b.len n;
    b.len <- b.len + n

  let digest b = Digest.subbytes b.bytes 0 b.len
end

type t = {
  stmt_ids : int Stmt_tbl.t;
  mutable next_stmt : int;
  (* name codes, indexed by {!Names.ID.id}; -1 = not declared *)
  event_codes : int array;
  state_codes : int array;
  machine_codes : int array;
  var_codes : int array;
  action_codes : int array;
  buf : Buf.t;
  mutable rn : (int -> int) option;
      (** renaming applied to every machine identifier while encoding:
          symmetry reduction digests the π-renamed configuration without
          materializing it. [None] = identity. *)
}

(* Intern every statement node of the program, physical identity keyed.
   Statements reached at runtime are subterms of these, *except* the
   synthetic Skip nodes the builder may share; interning is therefore lazy
   with a fallback id assigned on first sight. *)
let intern_stmt t (s : Ast.stmt) =
  match Stmt_tbl.find_opt t.stmt_ids s with
  | Some id -> id
  | None ->
    let id = t.next_stmt in
    t.next_stmt <- id + 1;
    Stmt_tbl.add t.stmt_ids s id;
    id

let rec intern_all t (s : Ast.stmt) =
  let _ = intern_stmt t s in
  match s.Ast.s with
  | Ast.Seq (a, b) | Ast.If (_, a, b) ->
    intern_all t a;
    intern_all t b
  | Ast.While (_, body) -> intern_all t body
  | Ast.Skip | Ast.Assign _ | Ast.New _ | Ast.Delete | Ast.Send _ | Ast.Raise _
  | Ast.Leave | Ast.Return | Ast.Assert _ | Ast.Call_state _ | Ast.Foreign_stmt _ -> ()

(* A code table over one namespace from [(name, code)] declarations, the
   first declaration of a name winning. *)
let codes id decls =
  let n = List.fold_left (fun n (x, _) -> max n (id x + 1)) 0 decls in
  let a = Array.make n (-1) in
  List.iter (fun (x, c) -> if a.(id x) < 0 then a.(id x) <- c) decls;
  a

(* Raises [Not_found] on a name the program never declared. *)
let code codes i =
  if i < Array.length codes && Array.unsafe_get codes i >= 0 then
    Array.unsafe_get codes i
  else raise Not_found

let create (tab : Symtab.t) : t =
  let machines = tab.program.machines in
  (* [(i * 1000) + j]: the [j]th declaration of machine [i] *)
  let member f decls =
    List.concat
      (List.mapi (fun i m -> List.mapi (fun j d -> (f d, (i * 1000) + j)) (decls m)) machines)
  in
  let t =
    { stmt_ids = Stmt_tbl.create 1024;
      next_stmt = 0;
      (* a duplicate event or machine's last declaration wins *)
      event_codes =
        codes Names.Event.id
          (List.rev
             (List.mapi (fun i (ev : Ast.event_decl) -> (ev.event_name, i)) tab.program.events));
      state_codes =
        codes Names.State.id
          (member (fun (st : Ast.state) -> st.state_name) (fun (m : Ast.machine) -> m.states));
      machine_codes =
        codes Names.Machine.id
          (List.rev (List.mapi (fun i (m : Ast.machine) -> (m.machine_name, i)) machines));
      var_codes =
        codes Names.Var.id
          (member (fun (vd : Ast.var_decl) -> vd.var_name) (fun (m : Ast.machine) -> m.vars));
      action_codes =
        codes Names.Action.id
          (member
             (fun (ad : Ast.action_decl) -> ad.action_name)
             (fun (m : Ast.machine) -> m.actions));
      buf = Buf.create 512;
      rn = None }
  in
  List.iter (fun m -> List.iter (fun s -> intern_all t s) (Ast.machine_stmts m)) machines;
  t

(* --- primitive encoders --- *)

let add_int t i = Buf.add_int t.buf i

let add_mid t i =
  match t.rn with None -> add_int t i | Some f -> add_int t (f i)

let add_event t e = add_int t (code t.event_codes (Names.Event.id e))
let add_state t n = add_int t (code t.state_codes (Names.State.id n))
let add_machine_name t m = add_int t (code t.machine_codes (Names.Machine.id m))
let add_var t x = add_int t (code t.var_codes (Names.Var.id x))
let add_action t a = add_int t (code t.action_codes (Names.Action.id a))

let add_value t (v : Value.t) =
  match v with
  | Value.Null -> add_int t 0
  | Value.Bool false -> add_int t 1
  | Value.Bool true -> add_int t 2
  | Value.Int i ->
    add_int t 3;
    add_int t i
  | Value.Event e ->
    add_int t 4;
    add_event t e
  | Value.Machine id ->
    add_int t 5;
    add_mid t (Mid.to_int id)

let add_task t (task : Machine.task) =
  match task with
  | Machine.Exec s ->
    add_int t 0;
    add_int t (intern_stmt t s)
  | Machine.Handle (e, v) ->
    add_int t 1;
    add_event t e;
    add_value t v
  | Machine.Pop_return -> add_int t 2
  | Machine.Pop_frame -> add_int t 3
  | Machine.Enter n ->
    add_int t 4;
    add_state t n

let add_machine t (m : Machine.t) =
  add_machine_name t m.name;
  add_mid t (Mid.to_int m.self);
  add_int t (List.length m.frames);
  List.iter
    (fun (fr : Machine.frame) ->
      add_state t fr.fr_state;
      add_int t (Names.Event.Map.cardinal fr.fr_amap);
      Names.Event.Map.iter
        (fun e h ->
          add_event t e;
          match h with
          | Machine.Defer -> add_int t 0
          | Machine.Do a ->
            add_int t 1;
            add_action t a)
        fr.fr_amap;
      add_int t (List.length fr.fr_cont);
      List.iter (add_task t) fr.fr_cont)
    m.frames;
  add_int t (Names.Var.Map.cardinal m.store);
  Names.Var.Map.iter
    (fun x v ->
      add_var t x;
      add_value t v)
    m.store;
  (match m.msg with
  | None -> add_int t 0
  | Some e ->
    add_int t 1;
    add_event t e);
  add_value t m.arg;
  add_int t (List.length m.agenda);
  List.iter (add_task t) m.agenda;
  add_int t (Equeue.length m.queue);
  List.iter
    (fun (entry : Equeue.entry) ->
      add_event t entry.event;
      add_value t entry.payload)
    (Equeue.to_list m.queue)

(** Every machine identifier held by [m] — its own [self] plus every
    [Value.Machine] reference in its continuations, store, argument,
    agenda, and queue — visited in exactly the order {!add_machine} emits
    them. This is the reference order the symmetry renaming's traversal
    follows, so it must be kept in lockstep with the encoding. *)
let iter_machine_mids (m : Machine.t) (f : int -> unit) =
  let value (v : Value.t) =
    match v with Value.Machine id -> f (Mid.to_int id) | _ -> ()
  in
  let task (tk : Machine.task) =
    match tk with Machine.Handle (_, v) -> value v | _ -> ()
  in
  f (Mid.to_int m.self);
  List.iter (fun (fr : Machine.frame) -> List.iter task fr.fr_cont) m.frames;
  Names.Var.Map.iter (fun _ v -> value v) m.store;
  value m.arg;
  List.iter task m.agenda;
  List.iter (fun (entry : Equeue.entry) -> value entry.payload) (Equeue.to_list m.queue)

let with_rename t rename f =
  match rename with
  | None -> f ()
  | Some _ ->
    t.rn <- rename;
    Fun.protect ~finally:(fun () -> t.rn <- None) f

(** [machine_digest t id m]: MD5 of the canonical encoding of the single
    machine [m] bound at [id] — the per-machine unit the incremental
    fingerprint caches. Mirrors exactly the per-machine segment of
    {!digest}'s encoding. With [?rename] every machine identifier in the
    encoding (the binding id included) goes through the renaming first. *)
let machine_digest ?rename t (id : Mid.t) (m : Machine.t) : string =
  with_rename t rename (fun () ->
      Buf.clear t.buf;
      add_mid t (Mid.to_int id);
      add_machine t m;
      Buf.digest t.buf)

(** Identity-blind digest of one machine: the same encoding with every
    machine identifier masked to a constant. Machines of one type that
    differ only in which identities they hold collapse to one shape —
    symmetry reduction sorts same-type machines by this key to pick a
    canonical permutation without re-encoding per candidate order. *)
let machine_shape_digest t (m : Machine.t) : string =
  machine_digest ~rename:(fun _ -> 0) t Mid.first m

(** Machine bindings in ascending order of their (possibly renamed) id —
    the iteration order of the configuration encoding, which must follow
    the *canonical* ids for renamed and identity digests of symmetric
    configurations to collide. *)
let sorted_bindings t (config : Config.t) =
  match t.rn with
  | None -> Config.fold (fun id m acc -> (id, m) :: acc) config [] |> List.rev
  | Some f ->
    Config.fold (fun id m acc -> (id, m) :: acc) config []
    |> List.sort (fun (a, _) (b, _) ->
           Int.compare (f (Mid.to_int a)) (f (Mid.to_int b)))

(** [digest t config extra]: MD5 of the canonical encoding of [config]
    followed by the integers [extra] (used for the scheduler stack).
    [?rename] digests the π-renamed configuration: ids mapped pointwise,
    machines visited in renamed-id order. [extra] is *not* renamed here —
    the caller owns its meaning and renames it if needed. *)
let digest ?rename t (config : Config.t) (extra : int list) : string =
  with_rename t rename (fun () ->
      let bindings = sorted_bindings t config in
      Buf.clear t.buf;
      add_int t (Mid.to_int config.next_id);
      add_int t (Config.live_count config);
      List.iter
        (fun (id, m) ->
          add_mid t (Mid.to_int id);
          add_machine t m)
        bindings;
      add_int t (List.length extra);
      List.iter (add_int t) extra;
      (* Fault-point counter, appended only when a fault plan has consumed
         indices, so fault-free digests are byte-compatible with every
         artifact written before fault injection existed. Injective: [extra]
         is length-prefixed, so a trailing varint cannot be confused with
         extra content. *)
      if config.fseq > 0 then add_int t config.fseq;
      Buf.digest t.buf)
