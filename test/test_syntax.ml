(* Unit tests for P_syntax: names, types, AST lookups and metrics, the
   builder EDSL, and the pretty-printer. *)

open P_syntax

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

(* ---------------- Loc ---------------- *)

let test_loc_pp () =
  check string_t "synthetic" "<builtin>" (Loc.to_string Loc.none);
  check string_t "real" "f.p:3:7" (Loc.to_string (Loc.make ~file:"f.p" ~line:3 ~col:7));
  check bool_t "is_none" true (Loc.is_none Loc.none);
  check bool_t "not none" false (Loc.is_none (Loc.make ~file:"f.p" ~line:1 ~col:0))

let test_loc_compare () =
  let a = Loc.make ~file:"a.p" ~line:2 ~col:1 in
  let b = Loc.make ~file:"a.p" ~line:2 ~col:5 in
  check bool_t "same file line orders by col" true (Loc.compare a b < 0);
  check bool_t "equal" true (Loc.equal a a)

(* ---------------- Names ---------------- *)

let test_names_roundtrip () =
  let e = Names.Event.of_string "Ping" in
  check string_t "to_string" "Ping" (Names.Event.to_string e);
  check bool_t "equal" true (Names.Event.equal e (Names.Event.of_string "Ping"));
  check bool_t "distinct" false (Names.Event.equal e (Names.Event.of_string "Pong"))

let test_names_set_map () =
  let open Names.Event in
  let s = Set.of_list [ of_string "a"; of_string "b"; of_string "a" ] in
  check int_t "set dedups" 2 (Set.cardinal s);
  let m = Map.add (of_string "x") 1 Map.empty in
  check int_t "map" 1 (Map.find (of_string "x") m)

(* ---------------- Interning ---------------- *)

let gen_text = QCheck2.Gen.(string_size ~gen:printable (int_range 0 12))

let prop_intern_unique =
  QCheck2.Test.make ~name:"of_string s == of_string s" ~count:500 gen_text (fun s ->
      (* a fresh copy of the text, so only interning can make them [==] *)
      let copy = String.init (String.length s) (String.get s) in
      Names.Event.of_string s == Names.Event.of_string copy)

let prop_intern_order_and_hash =
  QCheck2.Test.make ~name:"compare and hash agree with the text's" ~count:500
    QCheck2.Gen.(pair gen_text gen_text)
    (fun (a, b) ->
      let na = Names.Var.of_string a and nb = Names.Var.of_string b in
      Int.compare (Names.Var.compare na nb) 0 = Int.compare (String.compare a b) 0
      && Names.Var.hash na = Hashtbl.hash a
      && Names.Var.equal na nb = String.equal a b)

(* Four domains intern the same fresh texts at once, two of them in
   reverse order: every text gets one value, and the ids are exactly
   0..n-1. *)
let test_intern_across_domains () =
  let module N = Names.String_id () in
  let n = 1_000 in
  let texts = Array.init n (Printf.sprintf "name%d") in
  let start = Atomic.make false in
  let worker d () =
    while not (Atomic.get start) do
      Domain.cpu_relax ()
    done;
    Array.init n (fun i ->
        let i = if d land 1 = 0 then i else n - 1 - i in
        N.of_string texts.(i))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  Atomic.set start true;
  let results = List.map Domain.join domains in
  let ids = Hashtbl.create n in
  List.iteri
    (fun d values ->
      Array.iteri
        (fun j v ->
          let i = if d land 1 = 0 then j else n - 1 - j in
          check string_t "text" texts.(i) (N.to_string v);
          check bool_t "one value per text" true (v == N.of_string texts.(i));
          Hashtbl.replace ids (N.id v) ())
        values)
    results;
  check int_t "distinct ids" n (Hashtbl.length ids);
  for i = 0 to n - 1 do
    check bool_t "dense ids" true (Hashtbl.mem ids i)
  done

(* ---------------- Ptype ---------------- *)

let test_ptype_strings () =
  List.iter
    (fun ty ->
      match Ptype.of_string (Ptype.to_string ty) with
      | Some ty' -> check bool_t (Ptype.to_string ty) true (Ptype.equal ty ty')
      | None -> Alcotest.failf "of_string failed for %s" (Ptype.to_string ty))
    [ Ptype.Void; Ptype.Bool; Ptype.Int; Ptype.Byte; Ptype.Event; Ptype.Machine_id ];
  check bool_t "unknown" true (Ptype.of_string "float" = None)

let test_ptype_assignable () =
  check bool_t "int into int" true (Ptype.assignable ~from:Ptype.Int ~into:Ptype.Int);
  check bool_t "void into any" true (Ptype.assignable ~from:Ptype.Void ~into:Ptype.Machine_id);
  check bool_t "byte into int" true (Ptype.assignable ~from:Ptype.Byte ~into:Ptype.Int);
  check bool_t "int into byte" true (Ptype.assignable ~from:Ptype.Int ~into:Ptype.Byte);
  check bool_t "bool not into int" false (Ptype.assignable ~from:Ptype.Bool ~into:Ptype.Int);
  check bool_t "event not into id" false
    (Ptype.assignable ~from:Ptype.Event ~into:Ptype.Machine_id)

(* ---------------- Ast lookups ---------------- *)

let sample_machine =
  let open Builder in
  machine "M"
    ~vars:[ var_decl "x" Ptype.Int ]
    ~actions:[ action "A" skip ]
    [ state "S0" ~defer:[ "e1" ] ~postpone:[ "e2" ] ~entry:(assign "x" (int 1));
      state "S1" ~exit:(assign "x" (int 2)) ]
    ~steps:[ ("S0", "e1", "S1") ]
    ~calls:[ ("S1", "e2", "S0") ]
    ~bindings:[ on ("S0", "e2") ~do_:"A" ]

let test_ast_lookups () =
  let m = sample_machine in
  let st = Names.State.of_string in
  let ev = Names.Event.of_string in
  check string_t "initial" "S0" (Names.State.to_string (Ast.initial_state m).state_name);
  check bool_t "step" true (Ast.step_target m (st "S0") (ev "e1") = Some (st "S1"));
  check bool_t "no step" true (Ast.step_target m (st "S1") (ev "e1") = None);
  check bool_t "call" true (Ast.call_target m (st "S1") (ev "e2") = Some (st "S0"));
  check bool_t "trans union" true (Ast.trans_target m (st "S1") (ev "e2") = Some (st "S0"));
  check bool_t "action" true
    (Ast.bound_action m (st "S0") (ev "e2") = Some (Names.Action.of_string "A"));
  check bool_t "deferred" true (Names.Event.Set.mem (ev "e1") (Ast.deferred_set m (st "S0")));
  check bool_t "postponed" true
    (Names.Event.Set.mem (ev "e2") (Ast.postponed_set m (st "S0")));
  check bool_t "action stmt exists" true
    (Ast.action_stmt m (Names.Action.of_string "A") <> None);
  check bool_t "find_var" true (Ast.find_var m (Names.Var.of_string "x") <> None);
  check bool_t "find_var missing" true (Ast.find_var m (Names.Var.of_string "y") = None)

let test_ast_metrics () =
  let m = sample_machine in
  check int_t "states" 2 (Ast.machine_state_count m);
  (* 1 step + 1 call + 1 binding *)
  check int_t "transitions" 3 (Ast.machine_transition_count m)

let test_ast_folds () =
  let s =
    let open Builder in
    seq [ assign "x" (int 1); if_ tru (assign "y" (v "x" + int 2)) skip ]
  in
  let has_nondet =
    let open Builder in
    if_ nondet skip skip
  in
  let stmt_nodes = Ast.fold_stmt (fun n _ -> n + 1) 0 s in
  check bool_t "fold_stmt counts nested" true (stmt_nodes >= 5);
  let exprs = Ast.fold_stmt_exprs (fun n _ -> n + 1) 0 s in
  check bool_t "fold_stmt_exprs sees subexprs" true (exprs >= 5);
  check bool_t "no nondet" false (Ast.stmt_has_nondet s);
  check bool_t "has nondet" true (Ast.stmt_has_nondet has_nondet)

(* ---------------- Builder ---------------- *)

let test_builder_seq () =
  let open Builder in
  (match (seq []).s with
  | Ast.Skip -> ()
  | _ -> Alcotest.fail "seq [] should be skip");
  match (seq [ skip; skip; skip ]).s with
  | Ast.Seq ({ s = Ast.Seq _; _ }, _) -> ()
  | _ -> Alcotest.fail "seq folds left"

let test_builder_send_default_payload () =
  let open Builder in
  match (send this "E").s with
  | Ast.Send (_, _, { e = Ast.Null; _ }) -> ()
  | _ -> Alcotest.fail "send without payload defaults to null"

(* ---------------- Pretty ---------------- *)

let expr_str e = Pretty.expr_to_string e

let test_pretty_precedence () =
  let open Builder in
  check string_t "mul binds tighter" "1 + 2 * 3" (expr_str (int 1 + (int 2 * int 3)));
  check string_t "parens when needed" "(1 + 2) * 3" (expr_str ((int 1 + int 2) * int 3));
  check string_t "cmp and bool" "a < 2 && b" (expr_str (v "a" < int 2 && v "b"));
  check string_t "or of and" "a && b || c" (expr_str (v "a" && v "b" || v "c"));
  check string_t "and of or parens" "a && (b || c)" (expr_str (v "a" && (v "b" || v "c")));
  check string_t "unary" "!a" (expr_str (not_ (v "a")));
  check string_t "negative literal" "(-3)" (expr_str (int (-3)))

let test_pretty_stmt () =
  let open Builder in
  check string_t "assign" "x := 1 + y;" (Pretty.stmt_to_string (assign "x" (int 1 + v "y")));
  check string_t "send no payload" "send(this, E);" (Pretty.stmt_to_string (send this "E"));
  check string_t "raise payload" "raise(E, 4);"
    (Pretty.stmt_to_string (raise_ "E" ~payload:(int 4)))

let test_pretty_program_contains () =
  let p = P_examples_lib.Elevator.program () in
  let s = Pretty.program_to_string p in
  List.iter
    (fun frag ->
      if not (Astring_contains.contains s frag) then
        Alcotest.failf "missing fragment %S" frag)
    [ "ghost machine User"; "machine Elevator"; "defer CloseDoor;"; "push ("; "main User()" ]

let suite =
  [ Alcotest.test_case "loc pp" `Quick test_loc_pp;
    Alcotest.test_case "loc compare" `Quick test_loc_compare;
    Alcotest.test_case "names roundtrip" `Quick test_names_roundtrip;
    Alcotest.test_case "names set/map" `Quick test_names_set_map;
    QCheck_alcotest.to_alcotest prop_intern_unique;
    QCheck_alcotest.to_alcotest prop_intern_order_and_hash;
    Alcotest.test_case "interning across 4 domains" `Quick test_intern_across_domains;
    Alcotest.test_case "ptype strings" `Quick test_ptype_strings;
    Alcotest.test_case "ptype assignable" `Quick test_ptype_assignable;
    Alcotest.test_case "ast lookups" `Quick test_ast_lookups;
    Alcotest.test_case "ast metrics" `Quick test_ast_metrics;
    Alcotest.test_case "ast folds" `Quick test_ast_folds;
    Alcotest.test_case "builder seq" `Quick test_builder_seq;
    Alcotest.test_case "builder send payload" `Quick test_builder_send_default_payload;
    Alcotest.test_case "pretty precedence" `Quick test_pretty_precedence;
    Alcotest.test_case "pretty stmt" `Quick test_pretty_stmt;
    Alcotest.test_case "pretty program" `Quick test_pretty_program_contains ]
