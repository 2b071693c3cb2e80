(* The cooperative scheduler ({!P_runtime.Sched}) and the sharded serving
   runtime ({!P_runtime.Shard}):

   - the Causal policy is observably trace-identical to the historical
     nested run-to-completion driver (and hence, via test_equiv, to the
     d = 0 slice of the delaying scheduler);
   - the Fifo serving discipline completes the same programs under
     quantum preemption;
   - typed backpressure holds at every layer: Context mailbox bounds,
     the Api Shed/overflow contract, scheduler-level silent shedding,
     and the shard ingress bound;
   - a multi-shard fleet spawns and converses across domains through
     the batched transfer queues. *)

module Rt_value = P_runtime.Rt_value
module Rt_trace = P_runtime.Rt_trace
module Context = P_runtime.Context
module Exec = P_runtime.Exec
module Api = P_runtime.Api
module Sched = P_runtime.Sched
module Shard = P_runtime.Shard

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let state_t = Alcotest.option Alcotest.string

let compile p = (P_compile.Compile.compile p).P_compile.Compile.driver
let item_str it = Fmt.str "%a" Rt_trace.pp_item it

let nested_trace driver main =
  let rt = Api.create driver in
  let items = ref [] in
  Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
  let _ = Api.create_machine rt main in
  Rt_trace.observable (List.rev !items)

let causal_trace driver main =
  let s = Sched.create ~policy:Sched.Causal driver in
  let items = ref [] in
  Api.set_trace_hook (Sched.exec s) (Some (fun it -> items := it :: !items));
  let _ = Sched.create_machine s main in
  Rt_trace.observable (List.rev !items)

(* ------------------------------------------------------------------ *)
(* Causal policy ≡ nested driver                                       *)
(* ------------------------------------------------------------------ *)

let test_causal_matches_nested () =
  List.iter
    (fun (name, program, main) ->
      let driver = compile program in
      let nested = List.map item_str (nested_trace driver main) in
      let causal = List.map item_str (causal_trace driver main) in
      check (Alcotest.list Alcotest.string) name nested causal)
    [ ("pingpong-1", P_examples_lib.Pingpong.program ~rounds:1 (), "Pinger");
      ("pingpong-5", P_examples_lib.Pingpong.program ~rounds:5 (), "Pinger");
      ( "boundedbuffer-4-2",
        P_examples_lib.Bounded_buffer.program ~items:4 ~credits:2 (),
        "Producer" ) ]

(* ------------------------------------------------------------------ *)
(* Fifo serving discipline                                             *)
(* ------------------------------------------------------------------ *)

let test_fifo_completes () =
  let driver = compile (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let s = Sched.create ~policy:Sched.Fifo driver in
  let h = Sched.create_machine s "Pinger" in
  (* serving discipline: creation only schedules; nothing ran yet *)
  check int_t "start entry is parked in the ready queue" 1 (Sched.ready_length s);
  Sched.run s;
  check int_t "quiescent" 0 (Sched.ready_length s);
  check state_t "pinger played all rounds" (Some "Finished")
    (Api.current_state_name (Sched.exec s) h);
  let st = Sched.stats s in
  check bool_t "activations counted" true (st.Sched.st_activations > 0);
  check bool_t "deliveries counted" true (st.Sched.st_sends > 0);
  check bool_t "dequeues counted" true (st.Sched.st_dequeues > 0);
  check int_t "one spawn (the ponger)" 1 st.Sched.st_spawns;
  check int_t "nothing shed" 0 st.Sched.st_shed_mailbox

let test_quantum_preemption () =
  let driver = compile (P_examples_lib.Pingpong.program ~rounds:8 ()) in
  let s = Sched.create ~policy:Sched.Fifo ~quantum:1 driver in
  let h = Sched.create_machine s "Pinger" in
  Sched.run s;
  check state_t "completes under a 1-dequeue quantum" (Some "Finished")
    (Api.current_state_name (Sched.exec s) h);
  let st = Sched.stats s in
  check bool_t "machines were preempted" true (st.Sched.st_yields > 0)

(* A seeded raise-driven generator, the USB stack's ghost OS shape: a
   ghost machine whose entry sends, raises and re-enters its own state,
   resolving [*] from the scheduler's seed, feeding a real driver that
   walks a raise-driven state pair per request and absorbs repeated pings
   with ⊕. Its only dequeue points are the driver's; the generator is
   preempted at raised-event boundaries alone. *)
let generator_program () =
  let open P_syntax.Builder in
  program
    ~events:
      [ event "Req" ~payload:P_syntax.Ptype.Int; event "Ping"; event "unit"; event "Done" ]
    ~machines:
      [ machine "OS" ~ghost:true
          ~vars:
            [ var_decl "drv" P_syntax.Ptype.Machine_id; var_decl "n" P_syntax.Ptype.Int ]
          [ state "Boot"
              ~entry:
                (seq
                   [ assign "n" (int 0);
                     new_ "drv" "Drv" [ ("served", int 0) ];
                     raise_ "unit" ]);
            state "Gen"
              ~entry:
                (when_
                   (v "n" < int 24)
                   (seq
                      [ assign "n" (v "n" + int 1);
                        if_ nondet
                          (send (v "drv") "Req" ~payload:(v "n"))
                          (send (v "drv") "Ping");
                        if_nondet (send (v "drv") "Ping");
                        raise_ "unit" ])) ]
          ~steps:[ ("Boot", "unit", "Gen"); ("Gen", "unit", "Gen") ];
        machine "Drv"
          ~vars:[ var_decl "served" P_syntax.Ptype.Int ]
          ~actions:[ action "Count" (assign "served" (v "served" + int 1)) ]
          [ state "Ready" ~entry:skip;
            state "Work" ~entry:(seq [ assign "served" (v "served" + arg); raise_ "Done" ]) ]
          ~steps:[ ("Ready", "Req", "Work"); ("Work", "Done", "Ready") ]
          ~bindings:[ on ("Ready", "Ping") ~do_:"Count" ] ]
    "OS"

(* The Fifo serving order, pinned: every (mid, event) dequeue in order,
   rendered and digested, plus the yield / activation / dequeue counts.
   The golden values were recorded before the scheduler loop was
   rewritten without fibers; any change to activation order, preemption
   points or quantum accounting moves them. *)
let fifo_order driver mains ~quantum =
  let s = Sched.create ~policy:Sched.Fifo ~quantum ~seed:7 driver in
  let buf = Buffer.create 1024 in
  Api.set_trace_hook (Sched.exec s)
    (Some
       (function
       | Rt_trace.Dequeued { mid; event } -> Printf.bprintf buf "%d:%s;" mid event
       | _ -> ()));
  List.iter (fun main -> ignore (Sched.create_machine s main : int)) mains;
  Sched.run s;
  let st = Sched.stats s in
  ( Buffer.length buf,
    Digest.to_hex (Digest.string (Buffer.contents buf)),
    st.Sched.st_yields,
    st.Sched.st_activations,
    st.Sched.st_dequeues )

let test_fifo_order_pinned () =
  let pingpong = compile (P_examples_lib.Pingpong.program ~rounds:8 ()) in
  let generator = P_compile.Compile.compile_full (generator_program ()) in
  let pinned = Alcotest.(pair (pair int string) (triple int int int)) in
  List.iter
    (fun (name, driver, mains, quantum, (len, digest, yields, acts, deqs)) ->
      let len', digest', yields', acts', deqs' = fifo_order driver mains ~quantum in
      check pinned
        (Printf.sprintf "%s at quantum %d" name quantum)
        ((len, digest), (yields, acts, deqs))
        ((len', digest'), (yields', acts', deqs')))
    [ ( "pingpong", pingpong, [ "Pinger"; "Pinger"; "Pinger" ], 1,
        (357, "2443950365b86006e53c0b0db31ffac7", 105, 162, 51) );
      ( "pingpong", pingpong, [ "Pinger"; "Pinger"; "Pinger" ], 3,
        (357, "2443950365b86006e53c0b0db31ffac7", 3, 57, 51) );
      ( "generator", generator, [ "OS"; "OS" ], 1,
        (236, "80ebbfe98822430a0c7e6268898cd917", 110, 116, 37) );
      ( "generator", generator, [ "OS"; "OS" ], 3,
        (208, "e6653b9480edc5fc09de94939ebdeef1", 33, 39, 33) ) ]

(* ------------------------------------------------------------------ *)
(* Backpressure, layer by layer                                        *)
(* ------------------------------------------------------------------ *)

(* A machine that never consumes [E]: the smallest program whose mailbox
   fills, isolating the capacity path from program behavior. *)
let defer_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Idle" ~defer:[ "E" ] ~entry:skip ] ]
    "M"

let test_context_capacity () =
  let driver = compile (defer_program ()) in
  let table = driver.P_compile.Tables.dr_machines.(0) in
  let ctx = Context.create ~capacity:2 ~self:1 ~ty:0 ~table () in
  let enq payload = Context.enqueue ctx 0 (Rt_value.Int payload) in
  check bool_t "first enqueue" true (enq 1 = Context.Enq_ok);
  check bool_t "⊕ absorbs duplicates below capacity" true (enq 1 = Context.Enq_duplicate);
  check bool_t "second enqueue" true (enq 2 = Context.Enq_ok);
  check bool_t "full mailbox overflows" true (enq 3 = Context.Enq_overflow);
  check int_t "overflow enqueued nothing" 2 (Context.inbox_length ctx);
  (* membership is checked before the bound: a duplicate of a queued entry
     is still absorbed at a full mailbox (it occupies no new slot) *)
  check bool_t "⊕ absorbs duplicates at capacity" true (enq 2 = Context.Enq_duplicate);
  check bool_t "capacity must be positive" true
    (try
       ignore (Context.create ~capacity:0 ~self:2 ~ty:0 ~table () : Context.t);
       false
     with Invalid_argument _ -> true)

let test_api_backpressure () =
  let driver = compile (defer_program ()) in
  let rt = Api.create driver in
  Api.set_mailbox_capacity rt 1;
  let h = Api.create_machine rt "M" in
  check bool_t "first event admitted" true
    (Api.try_add_event rt h "E" (Rt_value.Int 1) <> Context.Shed);
  check bool_t "second event shed" true
    (Api.try_add_event rt h "E" (Rt_value.Int 2) = Context.Shed);
  check bool_t "duplicate absorbed, not shed" true
    (Api.try_add_event rt h "E" (Rt_value.Int 1) <> Context.Shed);
  check int_t "mailbox stayed at its bound" 1 (Api.queue_length rt h);
  check bool_t "add_event raises on the same condition" true
    (try
       Api.add_event rt h "E" (Rt_value.Int 3);
       false
     with Exec.Mailbox_overflow { capacity = 1; _ } -> true)

let test_sched_mailbox_shed () =
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:2 driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  check bool_t "admitted" true (Sched.add_event s h "E" (Rt_value.Int 1) = Context.Queued);
  check bool_t "admitted" true (Sched.add_event s h "E" (Rt_value.Int 2) = Context.Queued);
  check bool_t "shed at the bound" true
    (Sched.add_event s h "E" (Rt_value.Int 3) = Context.Shed);
  Sched.run s;
  let st = Sched.stats s in
  check int_t "sheds counted" 1 st.Sched.st_shed_mailbox;
  check int_t "mailbox bounded" 2 (Api.queue_length (Sched.exec s) h)

(* ------------------------------------------------------------------ *)
(* Sharded fleet                                                       *)
(* ------------------------------------------------------------------ *)

let test_shard_fleet () =
  let driver = compile (P_examples_lib.Pingpong.program ~rounds:3 ()) in
  let t = Shard.create ~shards:4 driver in
  let handles = List.init 64 (fun _ -> Shard.create_machine t "Pinger") in
  Shard.start t;
  check bool_t "fleet quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  List.iter
    (fun h ->
      check state_t "every pinger finished" (Some "Finished")
        (Api.current_state_name (Shard.exec_of t (Shard.home t h)) h))
    handles;
  check int_t "each pinger spawned its ponger" 64 st.Shard.sh_spawns;
  check int_t "pongers deleted themselves" 64 st.Shard.sh_machines;
  check bool_t "conversations crossed shards" true (st.Shard.sh_xfer_msgs > 0);
  check int_t "nothing shed" 0 (st.Shard.sh_shed_mailbox + st.Shard.sh_shed_ingress);
  check int_t "no dead letters" 0 st.Shard.sh_dead_letters

let test_shard_ingress_shed () =
  let driver = compile (defer_program ()) in
  let t = Shard.create ~shards:1 ~ingress_capacity:4 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  let outcomes = List.init 10 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  let shed = List.length (List.filter (fun o -> o = Context.Shed) outcomes) in
  check int_t "posts above the ingress bound shed synchronously" 6 shed;
  Shard.start t;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "ingress sheds counted" 6 st.Shard.sh_shed_ingress;
  check int_t "admitted posts were all delivered" 4
    (Api.queue_length (Shard.exec_of t 0) h)

(* A sink that consumes every [E]: the counting tests need deliveries,
   not mailbox growth. *)
let sink_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Idle" ~entry:skip ] ~steps:[ ("Idle", "E", "Idle") ] ]
    "M"

let test_shard_local_no_xfer () =
  (* host posts ride the ingress queue; with one shard nothing is ever
     cross-shard, so the transfer counters must stay at zero *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:1 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  let outcomes = List.init 50 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "all posts admitted" 50
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "host posts counted as ingress" 50 st.Shard.sh_ingress_msgs;
  check int_t "zero cross-shard batches" 0 st.Shard.sh_xfer_batches;
  check int_t "zero cross-shard messages" 0 st.Shard.sh_xfer_msgs;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "every post served" 50 st.Shard.sh_dequeues

let test_ingress_conservation () =
  (* K producer domains race the ingress bound; every offered post must be
     accounted exactly once: delivered or shed, with its slot released *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:2 ~ingress_capacity:64 driver in
  let machines = Array.init 32 (fun _ -> Shard.create_machine t "M") in
  let e = Shard.event_id t "E" in
  Shard.start t;
  let k = 4 and per = 2000 in
  let queued = Array.make k 0 in
  let producers =
    Array.init k (fun p ->
        Domain.spawn (fun () ->
            let q = ref 0 in
            for i = 0 to per - 1 do
              match
                Shard.post t
                  machines.((p + i) mod Array.length machines)
                  ~event:e
                  (Rt_value.Int ((p * per) + i))
              with
              | Context.Queued -> incr q
              | _ -> ()
            done;
            queued.(p) <- !q))
  in
  Array.iter Domain.join producers;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  let admitted = Array.fold_left ( + ) 0 queued in
  check int_t "each admitted post delivered exactly once" admitted
    st.Shard.sh_ingress_msgs;
  check int_t "shed + delivered = offered" (k * per)
    (st.Shard.sh_shed_ingress + st.Shard.sh_ingress_msgs);
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "no cross-shard traffic from host posts" 0 st.Shard.sh_xfer_msgs

(* A machine that perpetually mails itself: the fleet never goes idle, so
   quiescence must time out (and report it) rather than hang. *)
let spinner_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "Tick" ]
    ~machines:
      [ machine "M"
          [ state "Spin" ~entry:(send this "Tick") ]
          ~steps:[ ("Spin", "Tick", "Spin") ] ]
    "M"

let test_quiesce_timeout () =
  let driver = compile (spinner_program ()) in
  let t = Shard.create ~shards:1 driver in
  let (_ : int) = Shard.create_machine t "M" in
  Shard.start t;
  check bool_t "a busy fleet times out" false (Shard.quiesce ~timeout_s:0.2 t);
  let st = Shard.stop t in
  check bool_t "the spinner was actually running" true (st.Shard.sh_dequeues > 0)

(* Self-deleting machine: posts that arrive after the delete are mail for
   the departed — dead-lettered and dropped, with their slots released. *)
let ephemeral_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int ]
    ~machines:[ machine "M" [ state "Gone" ~entry:delete ] ]
    "M"

let test_dead_letter_counts () =
  let driver = compile (ephemeral_program ()) in
  let t = Shard.create ~shards:1 driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  check bool_t "machine deleted itself" true (Shard.quiesce ~timeout_s:60.0 t);
  let outcomes = List.init 7 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "routing admits posts for deleted handles" 7
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "drained the dead letters" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "dead letters counted" 7 st.Shard.sh_dead_letters;
  check int_t "dead letters release their slots" 0 st.Shard.sh_pending;
  check int_t "no live machines" 0 st.Shard.sh_machines

(* ------------------------------------------------------------------ *)
(* Ghost [*] under the scheduler                                       *)
(* ------------------------------------------------------------------ *)

let test_seeded_nondet () =
  (* full tables: the ghost switch (and its [*] choices) survive *)
  let driver = P_compile.Compile.compile_full (P_examples_lib.Switch_led.program ()) in
  let run seed =
    let s = Sched.create ~policy:Sched.Causal ?seed driver in
    let rt = Sched.exec s in
    Api.register_foreign rt "set_led" (fun _ _ -> Rt_value.Null);
    let items = ref [] in
    Api.set_trace_hook rt (Some (fun it -> items := it :: !items));
    let _ = Sched.create_machine s "GhostSwitch" in
    List.rev_map item_str !items
  in
  let a = run (Some 42) in
  let b = run (Some 42) in
  check bool_t "same seed, same schedule" true (a = b);
  check bool_t "the ghost actually drove the device" true
    (List.length a > 5);
  check bool_t "unseeded * is a runtime error under the scheduler" true
    (try
       ignore (run None : string list);
       false
     with Exec.Runtime_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Adversarial host: fault injection under the serving runtime         *)
(* ------------------------------------------------------------------ *)

let plan ?(drop = 0) ?(dup = 0) ?(reorder = 0) ?(crash = 0) seed =
  P_semantics.Fault.with_seed seed
    { P_semantics.Fault.none with drop; dup; reorder; crash }

let test_fault_drop_accounting () =
  (* a dropped send is invisible to the sender (Queued) and charged to
     the drop counter, never to delivery, shedding, or dead letters *)
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:2 ~faults:(plan ~drop:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  let outcomes = List.init 5 (fun i -> Sched.add_event s h "E" (Rt_value.Int i)) in
  check int_t "drops report Queued (the sender can't tell)" 5
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  Sched.run s;
  let st = Sched.stats s in
  check int_t "every send dropped" 5 st.Sched.st_fault_drops;
  check int_t "dropped events were never delivered" 0 st.Sched.st_sends;
  check int_t "mailbox untouched" 0 (Api.queue_length (Sched.exec s) h);
  (* capacity is 2 and we offered 5: without the drops this would shed *)
  check int_t "drops are not sheds" 0 st.Sched.st_shed_mailbox;
  check int_t "drops are not dead letters" 0 st.Sched.st_dead_letters

let test_fault_dup_bypasses_dedup () =
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~faults:(plan ~dup:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  ignore (Sched.add_event s h "E" (Rt_value.Int 7) : Context.backpressure);
  ignore (Sched.add_event s h "E" (Rt_value.Int 7) : Context.backpressure);
  let st = Sched.stats s in
  check int_t "both sends duplicated" 2 st.Sched.st_fault_dups;
  (* fault-free, the second identical send is absorbed by ⊕ and the
     mailbox holds exactly one entry; each injected duplicate bypasses
     dedup once, so the ⊕-absorbed send still lands its extra copy *)
  check int_t "⊕ bypassed: one deduped entry plus two forced copies" 3
    (Api.queue_length (Sched.exec s) h)

let test_fault_reorder_conserves () =
  let driver = compile (sink_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~faults:(plan ~reorder:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  List.iter
    (fun i -> ignore (Sched.add_event s h "E" (Rt_value.Int i) : Context.backpressure))
    [ 1; 2; 3 ];
  Sched.run s;
  let st = Sched.stats s in
  check int_t "every send reordered" 3 st.Sched.st_fault_reorders;
  check int_t "reordering loses nothing" 3 st.Sched.st_dequeues;
  check int_t "mailbox drained" 0 (Api.queue_length (Sched.exec s) h)

let test_fault_crash_restart_mailbox () =
  (* crash-restart at activation: the machine re-enters its initial
     state and its mailbox is cleared — which must also release the
     bounded-mailbox slots, or the bound wedges the restarted machine *)
  let driver = compile (defer_program ()) in
  let s = Sched.create ~policy:Sched.Fifo ~capacity:1 ~faults:(plan ~crash:1000 0) driver in
  let h = Sched.create_machine s "M" in
  Sched.run s;
  check state_t "restarted into its initial state" (Some "Idle")
    (Api.current_state_name (Sched.exec s) h);
  check bool_t "admitted at capacity 1" true
    (Sched.add_event s h "E" (Rt_value.Int 1) = Context.Queued);
  check int_t "mailbox holds it" 1 (Api.queue_length (Sched.exec s) h);
  Sched.run s;
  check int_t "the crash cleared the mailbox" 0 (Api.queue_length (Sched.exec s) h);
  check bool_t "slot released: the bound admits the next event" true
    (Sched.add_event s h "E" (Rt_value.Int 2) = Context.Queued);
  Sched.run s;
  let st = Sched.stats s in
  check bool_t "crash-restarts counted" true (st.Sched.st_crash_restarts >= 3);
  check int_t "crashed mail is never dequeued" 0 st.Sched.st_dequeues;
  check int_t "nothing shed" 0 st.Sched.st_shed_mailbox;
  check state_t "machine survives every crash" (Some "Idle")
    (Api.current_state_name (Sched.exec s) h)

let test_fault_schedule_deterministic () =
  (* same workload + same plan ⇒ same fault schedule: stats and the full
     observable trace are bit-identical across runs *)
  let run () =
    let driver = compile (sink_program ()) in
    let s =
      Sched.create ~policy:Sched.Fifo
        ~faults:(plan ~drop:300 ~dup:250 ~reorder:250 ~crash:150 11)
        driver
    in
    let items = ref [] in
    Api.set_trace_hook (Sched.exec s) (Some (fun it -> items := it :: !items));
    let h = Sched.create_machine s "M" in
    for i = 0 to 49 do
      ignore (Sched.add_event s h "E" (Rt_value.Int i) : Context.backpressure);
      if i mod 8 = 0 then Sched.run s
    done;
    Sched.run s;
    (Sched.stats s, List.rev_map item_str !items)
  in
  let st1, tr1 = run () in
  let st2, tr2 = run () in
  check bool_t "identical stats under the same plan" true (st1 = st2);
  check bool_t "identical traces under the same plan" true (tr1 = tr2);
  check bool_t "the adversary actually injected" true
    (st1.Sched.st_fault_drops + st1.Sched.st_fault_dups + st1.Sched.st_fault_reorders
     + st1.Sched.st_crash_restarts
    > 0)

let test_shard_fault_conservation () =
  (* exact slot conservation under an adversarial host: every offered
     post is delivered, dropped, or duplicated — dequeues must equal
     offered - drops + forced duplicates, with every ingress slot
     released *)
  let driver = compile (sink_program ()) in
  let t = Shard.create ~shards:2 ~faults:(plan ~drop:400 ~dup:300 ~reorder:200 5) driver in
  let machines = Array.init 8 (fun _ -> Shard.create_machine t "M") in
  let e = Shard.event_id t "E" in
  Shard.start t;
  Array.iteri
    (fun i h ->
      for j = 0 to 24 do
        ignore (Shard.post t h ~event:e (Rt_value.Int ((i * 25) + j)) : Context.backpressure)
      done)
    machines;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check bool_t "drops injected" true (st.Shard.sh_fault_drops > 0);
  check bool_t "dups injected" true (st.Shard.sh_fault_dups > 0);
  check bool_t "reorders injected" true (st.Shard.sh_fault_reorders > 0);
  check int_t "every post reached its home shard" 200 st.Shard.sh_ingress_msgs;
  check int_t "dequeues = offered - drops + duplicates"
    (200 - st.Shard.sh_fault_drops + st.Shard.sh_fault_dups)
    st.Shard.sh_dequeues;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending;
  check int_t "nothing shed" 0 (st.Shard.sh_shed_mailbox + st.Shard.sh_shed_ingress)

let test_shard_dead_letters_exact_under_drops () =
  (* the send fault point sits on *live* targets only: mail for departed
     machines is dead-lettered exactly, never charged as a drop *)
  let driver = compile (ephemeral_program ()) in
  let t = Shard.create ~shards:1 ~faults:(plan ~drop:1000 0) driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  check bool_t "machine deleted itself" true (Shard.quiesce ~timeout_s:60.0 t);
  let outcomes = List.init 7 (fun i -> Shard.post t h ~event:e (Rt_value.Int i)) in
  check int_t "posts admitted" 7
    (List.length (List.filter (( = ) Context.Queued) outcomes));
  check bool_t "drained" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check int_t "dead letters exact" 7 st.Shard.sh_dead_letters;
  check int_t "no drops charged for dead mail" 0 st.Shard.sh_fault_drops;
  check int_t "dead letters release their slots" 0 st.Shard.sh_pending

let test_shard_crash_restart () =
  let driver = compile (defer_program ()) in
  let t = Shard.create ~shards:1 ~capacity:4 ~faults:(plan ~crash:1000 0) driver in
  let h = Shard.create_machine t "M" in
  let e = Shard.event_id t "E" in
  Shard.start t;
  ignore (Shard.quiesce ~timeout_s:60.0 t : bool);
  List.iter
    (fun i -> ignore (Shard.post t h ~event:e (Rt_value.Int i) : Context.backpressure))
    [ 0; 1; 2 ];
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  let st = Shard.stop t in
  check bool_t "crash-restarts counted" true (st.Shard.sh_crash_restarts > 0);
  check state_t "machine survives in its initial state" (Some "Idle")
    (Api.current_state_name (Shard.exec_of t (Shard.home t h)) h);
  check int_t "crashed mail was cleared" 0
    (Api.queue_length (Shard.exec_of t (Shard.home t h)) h);
  check int_t "within the bound: nothing shed" 0 st.Shard.sh_shed_mailbox;
  check int_t "every ingress slot released" 0 st.Shard.sh_pending

(* ------------------------------------------------------------------ *)
(* Observability off costs zero                                        *)
(* ------------------------------------------------------------------ *)

(* Minor words per event of [feed] over [n] events, once with no trace
   hook and once with a counting hook (which allocates nothing itself),
   after a warm-up; also the items the hook saw per event. *)
let hook_costs rt ~n feed =
  let measure () =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      feed i
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  for i = 0 to n - 1 do
    feed i
  done;
  Api.set_trace_hook rt None;
  let off = measure () in
  let items = ref 0 in
  Api.set_trace_hook rt (Some (fun _ -> incr items));
  let on = measure () in
  Api.set_trace_hook rt None;
  (off, on, float_of_int !items /. float_of_int n)

let test_obs_off_api () =
  let rt = Api.create (compile (P_examples_lib.Switch_led.program ())) in
  Api.register_foreign rt "set_led" (fun _ _ -> Rt_value.Null);
  let h = Api.create_machine rt "SwitchLed" in
  let off, on, items =
    hook_costs rt ~n:4000 (fun i ->
        Api.add_event rt h (if i land 1 = 0 then "SwitchOn" else "SwitchOff") Rt_value.Null)
  in
  check bool_t "no hook allocates strictly less per event" true (off < on);
  check (Alcotest.float 0.0) "items per event under the hook" 3.0 items

let test_obs_off_sched () =
  let driver = compile (sink_program ()) in
  let s = Sched.create ~policy:Sched.Fifo driver in
  let sinks = Array.init 20 (fun _ -> Sched.create_machine s "M") in
  Sched.run s;
  let e = Option.get (P_compile.Tables.event_id_of_name driver "E") in
  let off, on, items =
    hook_costs (Sched.exec s) ~n:4000 (fun i ->
        let (_ : Context.backpressure) =
          Sched.post s ~src:(-1) sinks.(i mod Array.length sinks) e (Rt_value.Int i)
        in
        if i mod Array.length sinks = Array.length sinks - 1 then Sched.run s)
  in
  check bool_t "no hook allocates strictly less per event" true (off < on);
  check (Alcotest.float 0.0) "items per event under the hook" 3.0 items

(* ------------------------------------------------------------------ *)
(* Foreign resolution                                                  *)
(* ------------------------------------------------------------------ *)

(* Each [E(i)] stores [f(i)] into [x] through a foreign call. *)
let foreign_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "E" ~payload:P_syntax.Ptype.Int; event "unit" ]
    ~machines:
      [ machine "M"
          ~vars:[ var_decl "x" P_syntax.Ptype.Int ]
          ~foreigns:
            [ foreign ~params:[ P_syntax.Ptype.Int ] ~ret:P_syntax.Ptype.Int "f" ]
          [ state "Idle" ~entry:skip;
            state "Work" ~entry:(seq [ assign "x" (fcall "f" [ arg ]); raise_ "unit" ]) ]
          ~steps:[ ("Idle", "E", "Work"); ("Work", "unit", "Idle") ] ]
    "M"

let x_of rt h =
  match Exec.find_instance rt h with
  | Some ctx -> ctx.Context.vars.(0)
  | None -> Rt_value.Null

let runtime_error f =
  match f () with
  | () -> "no error"
  | exception Exec.Runtime_error m -> m

let test_foreign_unregistered () =
  let driver = compile (foreign_program ()) in
  let nested =
    runtime_error (fun () ->
        let rt = Api.create driver in
        let h = Api.create_machine rt "M" in
        Api.add_event rt h "E" (Rt_value.Int 1))
  in
  let scheduled policy =
    runtime_error (fun () ->
        let s = Sched.create ~policy driver in
        let h = Sched.create_machine s "M" in
        ignore (Sched.add_event s h "E" (Rt_value.Int 1) : Context.backpressure);
        Sched.run s)
  in
  let expected = "foreign function f is not registered" in
  check Alcotest.string "nested" expected nested;
  check Alcotest.string "scheduled, causal" expected (scheduled Sched.Causal);
  check Alcotest.string "scheduled, fifo" expected (scheduled Sched.Fifo)

let test_foreign_reregister () =
  let driver = compile (foreign_program ()) in
  let plus k _ = function [ Rt_value.Int i ] -> Rt_value.Int (i + k) | _ -> Rt_value.Null in
  (* nested: the first registration comes after the instance exists *)
  let rt = Api.create driver in
  let h = Api.create_machine rt "M" in
  Api.register_foreign rt "f" (plus 1);
  Api.add_event rt h "E" (Rt_value.Int 1);
  check bool_t "nested: first registration" true (x_of rt h = Rt_value.Int 2);
  Api.register_foreign rt "f" (plus 100);
  Api.add_event rt h "E" (Rt_value.Int 2);
  check bool_t "nested: re-registration replaces" true (x_of rt h = Rt_value.Int 102);
  let s = Sched.create ~policy:Sched.Fifo driver in
  Api.register_foreign (Sched.exec s) "f" (plus 1);
  let h = Sched.create_machine s "M" in
  ignore (Sched.add_event s h "E" (Rt_value.Int 1) : Context.backpressure);
  Sched.run s;
  check bool_t "scheduled: first registration" true (x_of (Sched.exec s) h = Rt_value.Int 2);
  Api.register_foreign (Sched.exec s) "f" (plus 100);
  ignore (Sched.add_event s h "E" (Rt_value.Int 2) : Context.backpressure);
  Sched.run s;
  check bool_t "scheduled: re-registration replaces" true
    (x_of (Sched.exec s) h = Rt_value.Int 102)

let test_foreign_per_shard () =
  let driver = compile (foreign_program ()) in
  let t = Shard.create ~shards:2 driver in
  let calls = Array.make 2 0 in
  Shard.register_foreign_per_shard t "f" (fun shard _ _ ->
      calls.(shard) <- calls.(shard) + 1;
      Rt_value.Int shard);
  let machines = Array.init 16 (fun _ -> Shard.create_machine t "M") in
  let homes = Array.map (Shard.home t) machines in
  check bool_t "both shards host machines" true
    (Array.mem 0 homes && Array.mem 1 homes);
  let e = Shard.event_id t "E" in
  Shard.start t;
  Array.iter
    (fun h -> ignore (Shard.post t h ~event:e (Rt_value.Int 0) : Context.backpressure))
    machines;
  check bool_t "quiesced" true (Shard.quiesce ~timeout_s:60.0 t);
  ignore (Shard.stop t : Shard.stats);
  Array.iteri
    (fun i h ->
      check bool_t "each machine ran its own shard's closure" true
        (x_of (Shard.exec_of t homes.(i)) h = Rt_value.Int homes.(i)))
    machines;
  for shard = 0 to 1 do
    check int_t "one call per hosted machine"
      (Array.fold_left (fun n s -> if s = shard then n + 1 else n) 0 homes)
      calls.(shard)
  done

let suite =
  [ Alcotest.test_case "causal policy ≡ nested driver" `Quick test_causal_matches_nested;
    Alcotest.test_case "fifo serving completes pingpong" `Quick test_fifo_completes;
    Alcotest.test_case "quantum preemption" `Quick test_quantum_preemption;
    Alcotest.test_case "fifo serving order pinned" `Quick test_fifo_order_pinned;
    Alcotest.test_case "context mailbox capacity" `Quick test_context_capacity;
    Alcotest.test_case "api backpressure contract" `Quick test_api_backpressure;
    Alcotest.test_case "scheduler sheds at bounded mailboxes" `Quick test_sched_mailbox_shed;
    Alcotest.test_case "4-shard pingpong fleet" `Quick test_shard_fleet;
    Alcotest.test_case "shard ingress backpressure" `Quick test_shard_ingress_shed;
    Alcotest.test_case "single shard: zero transfer batches" `Quick test_shard_local_no_xfer;
    Alcotest.test_case "ingress slot conservation" `Quick test_ingress_conservation;
    Alcotest.test_case "quiesce timeout returns false" `Quick test_quiesce_timeout;
    Alcotest.test_case "dead letters after delete" `Quick test_dead_letter_counts;
    Alcotest.test_case "seeded ghost choices" `Quick test_seeded_nondet;
    Alcotest.test_case "fault: drop accounting" `Quick test_fault_drop_accounting;
    Alcotest.test_case "fault: dup bypasses ⊕" `Quick test_fault_dup_bypasses_dedup;
    Alcotest.test_case "fault: reorder conserves" `Quick test_fault_reorder_conserves;
    Alcotest.test_case "fault: crash-restart mailbox" `Quick test_fault_crash_restart_mailbox;
    Alcotest.test_case "fault: deterministic schedule" `Quick test_fault_schedule_deterministic;
    Alcotest.test_case "shard fault conservation" `Quick test_shard_fault_conservation;
    Alcotest.test_case "shard dead letters under drops" `Quick
      test_shard_dead_letters_exact_under_drops;
    Alcotest.test_case "shard crash-restart" `Quick test_shard_crash_restart;
    Alcotest.test_case "observability off: api" `Quick test_obs_off_api;
    Alcotest.test_case "observability off: sched" `Quick test_obs_off_sched;
    Alcotest.test_case "foreign: unregistered" `Quick test_foreign_unregistered;
    Alcotest.test_case "foreign: re-registration" `Quick test_foreign_reregister;
    Alcotest.test_case "foreign: per shard" `Quick test_foreign_per_shard ]
