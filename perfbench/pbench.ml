(* The repository benchmark: three workloads over the checker and runtime
   pipelines, end-to-end metrics with tracing off, and a traced run that
   splits each end-to-end number across the library layers by timing calls
   into their public functions from here. Nothing in lib/ is instrumented
   for this benchmark; see perfbench/README.md for the workload reasons
   and the layer → metric → end-to-end table.

   Usage: pbench.exe --workload NAME --seed N --seconds S --trace 0|1
          pbench.exe --workload NAME --smoke      (correctness only, seconds)

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   The exit code is nonzero when any correctness check fails. *)

module Ast = P_syntax.Ast
module Search = P_checker.Search
module Engine = P_checker.Engine
module Fingerprint = P_checker.Fingerprint
module Store = P_checker.State_store
module Shard = P_runtime.Shard
module Api = P_runtime.Api
module Rt_value = P_runtime.Rt_value
module Mclock = P_obs.Mclock

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: pbench.exe --workload (verify-usb|verify-german|serve-sinks) \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> usage ());
      go rest
    | "--smoke" :: rest -> smoke := true; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0.0 then usage ();
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace;
    smoke = !smoke }

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* The monotonic clock in integer nanoseconds. Once inlined (run.py builds
   the release profile, which inlines across libraries) it does not
   allocate, unlike the float and int64 readings, so spin-waits and
   per-event timestamps cause no minor collections, which in OCaml 5 stop
   every domain. *)
let[@inline] clock_ns () = Int64.to_int (Mclock.now_ns ())
let[@inline] now_us () = float_of_int (clock_ns ()) *. 1e-3
let now_s () = float_of_int (clock_ns ()) *. 1e-9

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Sorted copy without the NaN entries (events with no sample). *)
let sorted_present a =
  let s = sorted a in
  (* Float.compare orders NaN first *)
  let k = ref 0 in
  while !k < Array.length s && Float.is_nan s.(!k) do incr k done;
  Array.sub s !k (Array.length s - !k)

(* Nearest-rank percentile of an already sorted array. *)
let pct s q =
  let n = Array.length s in
  if n = 0 then 0.0 else s.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median a = pct (sorted a) 0.5
let median_l l = median (Array.of_list l)

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Process-wide resident-set high-water mark (Linux /proc), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let loadavg () =
  try
    let ic = open_in "/proc/loadavg" in
    let l = input_line ic in
    close_in ic;
    l
  with _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a two-vCPU virtual machine whose cores are shared with other
   tenants, the speed of allocation-heavy code drifts by up to 40% in
   phases that last from seconds to many minutes, while integer
   arithmetic stays within 5%; a second core can also be taken away for a
   while, which slows work spread over two domains further. A run cannot outlast such
   a phase, so the time metrics are scaled by the host's speed measured
   next to each timed unit of work. The probe is fixed here and uses only
   the Stdlib, so no change to the repository moves it. It allocates
   short-lived lists and fills a small hash table with boxed keys: the mix
   of minor allocation and cache-resident hashing that the checker and the
   runtime spend their time on. For work on two domains, two copies run at
   once, one per domain, and the probe lasts until both end. A time [t]
   taken between probes [pb] and [pa] is reported as
   [t *. probe_ref_s ~domains /. ((pb +. pa) /. 2.)]: the time on a host
   where one probe takes [probe_ref_s ~domains]. *)
let probe_ref_s ~domains = if domains = 1 then 0.010 else 0.015

let probe_once () =
  let t0 = clock_ns () in
  let s = ref 0 in
  for i = 1 to 6_000 do
    s := !s + List.fold_left ( + ) 0 (List.init 50 (fun j -> i + j))
  done;
  let h = Hashtbl.create 64 in
  let st = ref 1 in
  let key () =
    st := (!st * 1103515245 + 12345) land 0x3fffffff;
    Array.init 6 (fun j -> !st lxor j)
  in
  for i = 0 to 15_000 do
    Hashtbl.replace h (key ()) i
  done;
  st := 1;
  for _ = 0 to 15_000 do
    s := !s + Hashtbl.find h (key ())
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (clock_ns () - t0) *. 1e-9

(* Every probe of the run as (domains, seconds), for the machine-context
   lines. *)
let probes = ref []

(* The median of three probes on one domain, or of five on two, where a
   stall of either core lengthens a probe. *)
let host_probe ?(domains = 1) () =
  Gc.full_major ();
  let one () =
    if domains = 1 then probe_once ()
    else begin
      let t0 = clock_ns () in
      let d = Domain.spawn probe_once in
      ignore (probe_once ());
      ignore (Domain.join d);
      float_of_int (clock_ns () - t0) *. 1e-9
    end
  in
  let p = median_l (List.init (if domains = 1 then 3 else 5) (fun _ -> one ())) in
  probes := (domains, p) :: !probes;
  p

let scaled ?(domains = 1) t ~pb ~pa =
  t *. probe_ref_s ~domains /. ((pb +. pa) /. 2.0)

let print_probes () =
  List.iter
    (fun domains ->
      let s = sorted (Array.of_list (List.filter_map
        (fun (d, p) -> if d = domains then Some p else None) !probes)) in
      if Array.length s > 0 then
        Printf.printf
          "# host probe on %d domain(s): %d sets, min %.3f median %.3f max %.3f ms \
           (reference %.3f ms)\n"
          domains (Array.length s) (pct s 0.0 *. 1e3) (pct s 0.5 *. 1e3)
          (pct s 1.0 *. 1e3) (probe_ref_s ~domains *. 1e3))
    [ 1; 2 ]

(* Reported (name, value, unit), in emission order; none in smoke mode. *)
let metrics : (string * float * string) list ref = ref []
let attempted = ref 0
let failed = ref 0
let fail fmt = Printf.ksprintf (fun s -> incr failed; prerr_endline ("FAIL: " ^ s)) fmt

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result () =
  let ms = !metrics in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %.6g %s\n" n v u) ms;
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed body

(* ------------------------------------------------------------------ *)
(* Set-up: source text to ready                                        *)
(* ------------------------------------------------------------------ *)

(* Layer times of every set-up build, for the traced run. *)
let parse_s = ref [] and check_s = ref [] and compile_s = ref []

(* Pretty → Parser.program_of_string → Check.run_exn; the printed source
   is what a user would hand the toolchain. *)
let front_end (prog : Ast.program) =
  let src = P_syntax.Pretty.program_to_string prog in
  let ast, tp = timed (fun () -> P_parser.Parser.program_of_string src) in
  let tab, tc = timed (fun () -> P_static.Check.run_exn ast) in
  parse_s := tp :: !parse_s;
  check_s := tc :: !check_s;
  (ast, tab)

let compile ast =
  let c, t = timed (fun () -> P_compile.Compile.compile ast) in
  compile_s := t :: !compile_s;
  c.P_compile.Compile.driver

(* Set-up is timed in small batches spread over the whole run, each batch
   between two host probes; setup_s is the median of every timed build,
   scaled to the reference host. [sample_setup make k] builds [k]
   instances and returns the last. *)
let setup_times = ref [] and setup_raw = ref []

let sample_setup make k =
  let pb = host_probe () in
  let last = ref None and ts = ref [] in
  for _ = 1 to k do
    Gc.full_major ();
    let v, t = timed make in
    ts := t :: !ts;
    last := Some v
  done;
  let pa = host_probe () in
  setup_raw := !ts @ !setup_raw;
  setup_times := List.map (fun t -> scaled t ~pb ~pa) !ts @ !setup_times;
  Option.get !last

(* The first builds warm the code and the allocator and are not counted. *)
let setup make =
  ignore (sample_setup make 4);
  setup_times := [];
  setup_raw := [];
  sample_setup make 8

let setup_s () =
  Printf.printf "# setup: %d timed builds, median %.3f ms (%.3f ms unscaled)\n"
    (List.length !setup_times) (median_l !setup_times *. 1e3)
    (median_l !setup_raw *. 1e3);
  print_probes ();
  median_l !setup_times

let setup_layers () =
  let m l = if l = [] then 0.0 else median_l l in
  [ ("parser.parse_s", m !parse_s); ("static.check_s", m !check_s);
    ("compile.compile_s", m !compile_s) ]

(* Every per-layer metric, in the order BENCHMARK.json lists them. The
   traced run of each workload reports all of them: a layer the workload
   does not use did no work there and reads 0. *)
let per_layer =
  [ ("parser.parse_s", "s"); ("static.check_s", "s");
    ("compile.compile_s", "s"); ("step.calls", "count");
    ("step.ns_per_block", "ns"); ("step.share", "ratio");
    ("fingerprint.ns_per_digest", "ns"); ("fingerprint.hit_ratio", "ratio");
    ("fingerprint.share", "ratio"); ("store.ns_per_claim", "ns");
    ("store.new_share", "ratio"); ("store.bytes_per_state", "B");
    ("store.cas_retries", "count"); ("store.share", "ratio");
    ("engine.unattributed_share", "ratio"); ("parallel.efficiency", "ratio");
    ("parallel.steal_success_ratio", "ratio");
    ("parallel.barrier_wait_share", "ratio");
    ("gc.minor_words_per_state", "words"); ("gc.major_collections", "count");
    ("gc.minor_words_per_event", "words"); ("shard.post_ns_p50", "ns");
    ("shard.post_ns_p99", "ns"); ("shard.msgs_per_ingress_batch", "count");
    ("shard.activations_per_event", "count"); ("shard.shed", "count");
    ("serve.post_to_served_us_p99", "us"); ("serve.sustainable_eps", "1/s");
    ("serve.window_p99_us", "us");
    ("serve.pooled_p99_us", "us"); ("serve.stalled_window_share", "ratio");
    ("gen.lag_p99_us", "us"); ("dispatch.callback_ns_p50", "ns");
    ("api.add_event_ns_p50", "ns"); ("rt_trace.items_per_event", "count");
    ("host.callback_overhead_ns", "ns"); ("handwritten.dispatch_p50_ns", "ns");
    ("dispatch.overhead_x", "ratio");
    ("dispatch.rt_trace_items_per_event", "count");
    ("dispatch.minor_words_per_event", "words");
    ("dispatch.trace_overhead_share", "ratio");
    ("trace.overhead_share", "ratio") ]

let emit_layers measured =
  metrics :=
    List.map
      (fun (n, u) -> (n, Option.value (List.assoc_opt n measured) ~default:0.0, u))
      per_layer

(* The end-to-end metrics, in the order BENCHMARK.json lists them. *)
let emit_end_to_end ~setup_s ~rss_mb ~throughput ~p50_us ~p95_us =
  metrics :=
    [ ("setup_s", setup_s, "s"); ("peak_rss_mb", rss_mb, "MB");
      ("throughput_per_s", throughput, "1/s"); ("latency_p50_us", p50_us, "us");
      ("latency_p95_us", p95_us, "us") ]

(* ------------------------------------------------------------------ *)
(* Checker workloads                                                   *)
(* ------------------------------------------------------------------ *)

type verify_case = {
  program : unit -> Ast.program;
  delay_bound : int;
  max_states : int option;  (* None = run to closure *)
  domains : int;  (* 1 = Delay_bounded.explore, else Parallel.explore *)
  pinned : int * int;  (* (states, transitions) of the No_error verdict *)
}

let verify_usb ~smoke =
  { program = (fun () -> P_usb.Stack.program ());
    delay_bound = 1;
    max_states = Some (if smoke then 2_000 else 40_000);
    domains = 1;
    pinned = (if smoke then (2_000, 3_952) else (40_002, 68_697)) }

let verify_german ~smoke =
  { program =
      (fun () ->
        if smoke then P_examples_lib.German.program ~n:2 ~requests:2 ()
        else P_examples_lib.German.program ~n:3 ~requests:5 ());
    delay_bound = (if smoke then 2 else 1);
    max_states = None;
    domains = 2;
    pinned = (if smoke then (2_222, 3_299) else (120_696, 172_634)) }

let explore ?instr ?domains case tab =
  let domains = Option.value domains ~default:case.domains in
  if domains = 1 && case.domains = 1 then
    P_checker.Delay_bounded.explore ?max_states:case.max_states ?instr
      ~delay_bound:case.delay_bound tab
  else
    P_checker.Parallel.explore ?max_states:case.max_states ?instr ~domains
      ~delay_bound:case.delay_bound tab

(* The pinned answer: No_error with the exact (states, transitions). *)
let check_verdict case (r : Search.result) =
  incr attempted;
  let st = r.Search.stats in
  match r.Search.verdict with
  | Search.Error_found _ -> fail "verdict: unexpected counterexample"
  | Search.No_error ->
    if (st.Search.states, st.Search.transitions) <> case.pinned then
      fail "verdict: %d states / %d transitions, pinned %d / %d"
        st.Search.states st.Search.transitions (fst case.pinned)
        (snd case.pinned)

let rec run_verify args case =
  let make () = snd (front_end (case.program ())) in
  let tab = setup make in
  if args.smoke then begin
    let r = explore case tab in
    check_verdict case r;
    (* the sequential engine must reach the same verdict and state count
       (stratification may only save transitions) *)
    if case.domains > 1 then begin
      let seq =
        P_checker.Delay_bounded.explore ?max_states:case.max_states
          ~delay_bound:case.delay_bound tab
      in
      check_verdict
        { case with pinned = (fst case.pinned, seq.Search.stats.Search.transitions) }
        seq
    end
  end
  else if not args.trace then begin
    (* The first explores grow the heap and are not timed; then explores
       run while the next one is expected to end within the run's seconds
       (at least ten). Each explore is timed between two host probes and
       scaled to the reference host. *)
    let t_start = now_s () in
    let raw = ref [] in
    let once () =
      ignore (sample_setup make 2);
      Gc.compact ();
      let domains = case.domains in
      let pb = host_probe ~domains () in
      let r, t = timed (fun () -> explore case tab) in
      let pa = host_probe ~domains () in
      check_verdict case r;
      raw := t :: !raw;
      scaled ~domains t ~pb ~pa
    in
    ignore (once ());
    ignore (once ());
    raw := [];
    let times = ref (List.init 10 (fun _ -> once ())) in
    let per_explore = (now_s () -. t_start) /. 12.0 in
    while now_s () -. t_start +. per_explore < args.seconds do
      times := once () :: !times
    done;
    (* the high-water mark over the whole run: on two domains the peak of
       one explore varies with GC timing, and the highest of a few dozen
       settles *)
    let rss_mb = peak_rss_mb () in
    let verdict_s = median_l !times in
    let states = float_of_int (fst case.pinned) in
    Printf.printf "# explores: %d, verdict_s median %.4f scaled, %.4f unscaled (min %.4f max %.4f)\n"
      (List.length !times) verdict_s (median_l !raw)
      (List.fold_left min infinity !raw) (List.fold_left max 0.0 !raw);
    (* a run times a few dozen explores, too few for a p95 to have ten
       samples beyond it: both latency slots carry the median *)
    emit_end_to_end ~setup_s:(setup_s ()) ~rss_mb ~throughput:(states /. verdict_s)
      ~p50_us:(verdict_s *. 1e6) ~p95_us:(verdict_s *. 1e6)
  end
  else trace_verify case tab

(* The traced checker run. Phase 1 times the workload's explore plain and
   instrumented (metrics + profiler) — the difference is the tracing
   overhead, the instrumented run gives the counters. Phase 2 re-runs the
   search sequentially with an [Engine] observer and samples expanded
   moves. Phase 3 times the layer functions the engine calls on those
   samples — [Search.resolutions] (the Step layer with its ghost-choice
   enumeration), [Fingerprint.digest] (the default exact store's key) and
   [State_store.claim] into a store pre-filled to the run's size — and
   scales each per-call cost by the run's own counts. *)
and trace_verify case tab =
  Gc.compact ();
  ignore (explore case tab);  (* warm-up: grows the heap *)
  Gc.compact ();
  let _, t_plain = timed (fun () -> explore case tab) in
  let reg = P_obs.Metrics.create () in
  let profile = P_obs.Profile.create ~workers:case.domains () in
  let instr = Search.instr ~metrics:reg ~profile () in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let r, t_traced = timed (fun () -> explore ~instr case tab) in
  let gc1 = Gc.quick_stat () in
  check_verdict case r;
  let st = r.Search.stats in
  let states = float_of_int st.Search.states in
  let transitions = float_of_int st.Search.transitions in
  let counter n = float_of_int (P_obs.Metrics.counter_total reg n) in
  let fp_req = counter "checker.fp_requests" in
  let fp_hits = counter "checker.fp_cache_hits" in
  let summary = Option.get st.Search.store in
  (* phase 2: sample every k-th expanded move of a sequential run *)
  let spec =
    Engine.spec ~bound:case.delay_bound
      ?max_states:case.max_states (Engine.stack_sched Engine.Causal)
  in
  let stride = max 1 (st.Search.states / 4000) in
  let moves = ref 0 and samples = ref [] in
  let last = ref (-1, P_semantics.Mid.first) in
  let observer =
    { Engine.on_state = (fun _ _ -> ());
      on_edge =
        (fun ~src ~src_config ~by ~resolved:_ ~dst:_ ->
          if (src, by) <> !last then begin
            last := (src, by);
            if !moves mod stride = 0 then samples := (src_config, by) :: !samples;
            incr moves
          end) }
  in
  Gc.compact ();
  let seq_r = Engine.run ~observer ~engine:"delay_bounded" spec tab in
  let seq_transitions = float_of_int seq_r.Search.stats.Search.transitions in
  let samples = Array.of_list !samples in
  (* phase 3: replay the engine's expansion of each sampled move in
     context — Step, then a digest and a claim per successor — timing each
     layer call; duplicate claims are timed in a last pass over the same
     keys, and the store is pre-filled to the run's size *)
  let store =
    Store.create ~kind:Store.Exact ~workers:case.domains
      ~max_states:st.Search.states ()
  in
  let rng = Random.State.make [| 7 |] in
  for i = 1 to st.Search.states do
    ignore
      (Store.claim store ~worker:0
         ~digest:(String.init 16 (fun _ -> Char.chr (Random.State.int rng 256)))
         ~fp:0 ~spent:0 ~new_sidx:i)
  done;
  let fp = Fingerprint.create tab in
  let elapsed t0 = float_of_int (clock_ns () - t0) in
  let blocks = ref 0 and keys = ref [] in
  let t_step = ref 0.0 and t_fp = ref 0.0 and t_new = ref 0.0 in
  Gc.compact ();
  (* The first pass times the claims of new keys and warms the samples and
     the fingerprint cache, as the engine's expansion finds them; the
     second pass times Step and the digests. *)
  let replay ~timed_pass =
    Array.iter
      (fun (cfg, mid) ->
        let t0 = clock_ns () in
        let rs = Search.resolutions tab cfg mid in
        if timed_pass then begin
          t_step := !t_step +. elapsed t0;
          blocks := !blocks + List.length rs
        end;
        List.iter
          (fun (r : Search.resolved) ->
            match P_semantics.Step.outcome_config r.Search.outcome with
            | None -> ()
            | Some c ->
              let extras = List.map P_semantics.Mid.to_int (P_semantics.Config.live_ids c) in
              let t0 = clock_ns () in
              let d = Fingerprint.digest fp c extras in
              if timed_pass then t_fp := !t_fp +. elapsed t0
              else begin
                let t0 = clock_ns () in
                ignore (Store.claim store ~worker:0 ~digest:d ~fp:0 ~spent:0 ~new_sidx:0);
                t_new := !t_new +. elapsed t0;
                keys := d :: !keys
              end)
          rs)
      samples
  in
  replay ~timed_pass:false;
  replay ~timed_pass:true;
  let t0 = clock_ns () in
  List.iter
    (fun d -> ignore (Store.claim store ~worker:0 ~digest:d ~fp:0 ~spent:0 ~new_sidx:0))
    !keys;
  let t_dup = elapsed t0 in
  let n_keys = float_of_int (max 1 (List.length !keys)) in
  let step_ns = !t_step /. float_of_int (max 1 !blocks) in
  let fp_ns = !t_fp /. n_keys in
  let claims = transitions in
  let new_share = states /. claims in
  let claim_ns = (new_share *. !t_new /. n_keys) +. ((1.0 -. new_share) *. t_dup /. n_keys) in
  (* attribution: per-call costs × this run's counts, as a share of the
     domain-time the run had (domains × wall) *)
  let budget_ns = float_of_int case.domains *. t_traced *. 1e9 in
  let step_share = step_ns *. transitions /. budget_ns in
  let fp_share = fp_ns *. claims /. budget_ns in
  let store_share = claim_ns *. claims /. budget_ns in
  let measured =
    [ ("step.calls", float_of_int !moves *. transitions /. seq_transitions);
      ("step.ns_per_block", step_ns);
      ("step.share", step_share);
      ("fingerprint.ns_per_digest", fp_ns);
      ("fingerprint.hit_ratio", (if fp_req > 0.0 then fp_hits /. fp_req else 0.0));
      ("fingerprint.share", fp_share);
      ("store.ns_per_claim", claim_ns);
      ("store.new_share", new_share);
      ("store.bytes_per_state", float_of_int summary.Store.s_bytes /. states);
      ("store.cas_retries", float_of_int summary.Store.s_cas_retries);
      ("store.share", store_share);
      ("engine.unattributed_share",
       1.0 -. step_share -. fp_share -. store_share);
      ("gc.minor_words_per_state",
       (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. states);
      ("gc.major_collections",
       float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("trace.overhead_share", (t_traced -. t_plain) /. t_plain) ]
  in
  let parallel =
    if case.domains = 1 then []
    else begin
      Gc.compact ();
      let _, t1 = timed (fun () -> explore ~domains:1 case tab) in
      let steals = counter "checker.steals" in
      let attempts = counter "checker.steal_attempts" in
      let barrier = P_obs.Profile.total_us profile P_obs.Profile.Barrier_wait in
      [ ("parallel.efficiency", t1 /. (float_of_int case.domains *. t_plain));
        ("parallel.steal_success_ratio",
         (if attempts > 0.0 then steals /. attempts else 0.0));
        ("parallel.barrier_wait_share", barrier *. 1e3 /. budget_ns) ]
    end
  in
  Printf.printf
    "# traced explore %.3f s (plain %.3f s); %d sampled moves, %d blocks, \
     %d digests; split: step %.3f fingerprint %.3f store %.3f rest %.3f\n"
    t_traced t_plain (Array.length samples) !blocks (List.length !keys)
    step_share fp_share store_share
    (1.0 -. step_share -. fp_share -. store_share);
  emit_layers (setup_layers () @ measured @ parallel)

(* ------------------------------------------------------------------ *)
(* The section 4.1 switch-LED driver, for the dispatch layers          *)
(* ------------------------------------------------------------------ *)

module Sl = P_examples_lib.Switch_led

type drive = {
  p : P_host.Os_events.driver;
  p_dev : Sl.device;
  rt : Api.t;
  hand : P_host.Os_events.driver;
  hand_dev : Sl.device;
  toggles : P_host.Os_events.t array;  (* seeded switch sequence *)
}

let register_led rt dev =
  Api.register_foreign rt "set_led" (fun _ctx args ->
      (match args with
      | [ Rt_value.Bool on ] -> Sl.set_led dev on
      | _ -> invalid_arg "set_led: expected one boolean");
      Rt_value.Null)

(* The seeded switch sequence: each interrupt flips the switch with
   probability 3/4 and otherwise repeats its position, as a bouncing
   switch does. A flip runs a transition and the LED write, a repeat only
   the Ignore action. *)
let drive_toggles ~seed =
  let rng = Random.State.make [| seed; 0x5117 |] in
  let on = ref false in
  Array.init 65536 (fun _ ->
      if Random.State.int rng 4 <> 0 then on := not !on;
      P_host.Os_events.Interrupt { line = "switch"; data = Bool.to_int !on })

let drive_setup ~toggles () =
  let ast, _ = front_end (Sl.program ()) in
  let driver = compile ast in
  let rt = Api.create driver in
  let p_dev = Sl.new_device () in
  register_led rt p_dev;
  let sk =
    P_host.Skeleton.attach rt ~main_machine:"SwitchLed" ~translate:(function
      | P_host.Os_events.Interrupt { line = "switch"; data } ->
        Some ((if data <> 0 then "SwitchOn" else "SwitchOff"), Rt_value.Null)
      | _ -> None)
  in
  let p = P_host.Skeleton.driver ~name:"switchled-p" sk in
  p.P_host.Os_events.add_device ();
  let hand_dev = Sl.new_device () in
  let hand = Sl.handwritten_driver hand_dev in
  hand.P_host.Os_events.add_device ();
  { p; p_dev; rt; hand; hand_dev; toggles }

let round_len = 20_000

(* The hand-written driver replays the same callbacks; device writes and
   the LED must agree after every round. *)
let check_round d ~from ~len =
  for i = from to from + len - 1 do
    d.hand.P_host.Os_events.callback d.toggles.(i land 65535)
  done;
  attempted := !attempted + len;
  if d.p_dev.Sl.writes <> d.hand_dev.Sl.writes || d.p_dev.Sl.led_on <> d.hand_dev.Sl.led_on
  then begin
    failed := !failed + len - 1;
    fail "drive: P driver wrote %d (led %b), hand-written %d (led %b)"
      d.p_dev.Sl.writes d.p_dev.Sl.led_on d.hand_dev.Sl.writes d.hand_dev.Sl.led_on
  end

(* One round of [round_len] individually timed callbacks; returns the p50
   in ns. *)
let drive_round d ~cursor lat =
  let cb = d.p.P_host.Os_events.callback in
  let c = !cursor in
  for i = 0 to round_len - 1 do
    let ev = d.toggles.((c + i) land 65535) in
    let t0 = clock_ns () in
    cb ev;
    lat.(i) <- float_of_int (clock_ns () - t0)
  done;
  check_round d ~from:c ~len:round_len;
  cursor := c + round_len;
  median lat

(* Batch-mean cost of [f] over the toggle sequence, ns per call. *)
let per_call_ns d f =
  let n = 10_000 in
  let t0 = now_s () in
  for i = 0 to n - 1 do
    f d.toggles.(i land 65535)
  done;
  (now_s () -. t0) *. 1e9 /. float_of_int n

(* The section 4.1 dispatch layers, measured from outside for the traced
   serving run: the P driver's callback, a bare [Api.add_event] on the same
   machine and toggles, and the hand-written driver. Plain rounds, rounds
   with the runtime trace hook counting items, and bare add_event rounds
   are interleaved, so a drift in host speed hits all three alike. Every
   round also checks the device writes against the hand-written driver. *)
let dispatch_layers ~seed =
  let d = drive_setup ~toggles:(drive_toggles ~seed) () in
  let lat = Array.make round_len 0.0 in
  let cursor = ref 0 in
  ignore (drive_round d ~cursor lat);  (* warm-up, checked but not timed *)
  let bare = Api.create (compile (fst (front_end (Sl.program ())))) in
  register_led bare (Sl.new_device ());
  let h = Api.create_machine bare "SwitchLed" in
  let add = Array.make round_len 0.0 in
  let add_round () =
    for i = 0 to round_len - 1 do
      let name =
        match d.toggles.(i land 65535) with
        | P_host.Os_events.Interrupt { data = 0; _ } -> "SwitchOff"
        | _ -> "SwitchOn"
      in
      let t0 = clock_ns () in
      Api.add_event bare h name Rt_value.Null;
      add.(i) <- float_of_int (clock_ns () - t0)
    done;
    median add
  in
  let items = ref 0 in
  let plain = ref [] and traced = ref [] and adds = ref [] in
  for _ = 1 to 15 do
    plain := drive_round d ~cursor lat :: !plain;
    Api.set_trace_hook d.rt (Some (fun _ -> incr items));
    traced := drive_round d ~cursor lat :: !traced;
    Api.set_trace_hook d.rt None;
    adds := add_round () :: !adds
  done;
  let p50 = median_l !plain and p50_traced = median_l !traced in
  let add_p50 = median_l !adds in
  (* batch means, interleaved: the hand-written call is too short to time
     singly *)
  let hand = Sl.handwritten_driver (Sl.new_device ()) in
  hand.P_host.Os_events.add_device ();
  let batches =
    Array.init 9 (fun _ ->
        let p = per_call_ns d d.p.P_host.Os_events.callback in
        (p, per_call_ns d hand.P_host.Os_events.callback))
  in
  let p_batch = median (Array.map fst batches) in
  let h_batch = median (Array.map snd batches) in
  let gc0 = Gc.quick_stat () in
  ignore (per_call_ns d d.p.P_host.Os_events.callback);
  let gc1 = Gc.quick_stat () in
  [ ("dispatch.callback_ns_p50", p50);
    ("api.add_event_ns_p50", add_p50);
    ("host.callback_overhead_ns", p50 -. add_p50);
    ("handwritten.dispatch_p50_ns", h_batch);
    ("dispatch.overhead_x", p_batch /. h_batch);
    ("dispatch.rt_trace_items_per_event",
     float_of_int !items /. float_of_int (15 * round_len));
    ("dispatch.minor_words_per_event",
     (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 10_000.0);
    ("dispatch.trace_overhead_share", (p50_traced -. p50) /. p50) ]

(* ------------------------------------------------------------------ *)
(* serve-sinks: open loop against one Shard                            *)
(* ------------------------------------------------------------------ *)

(* The served fleet: request sinks, one state pair per request so every
   event walks a real transition (dequeue, entry, foreign call, raise). *)
let sink_program () =
  let open P_syntax.Builder in
  program
    ~events:[ event "Req" ~payload:P_syntax.Ptype.Int; event "unit" ]
    ~machines:
      [ machine "Sink"
          ~foreigns:
            [ foreign ~params:[ P_syntax.Ptype.Int ] ~ret:P_syntax.Ptype.Void
                "served" ]
          [ state "Serve" ~entry:skip;
            state "Work" ~entry:(seq [ fstmt "served" [ arg ]; raise_ "unit" ]) ]
          ~steps:[ ("Serve", "Req", "Work"); ("Work", "unit", "Serve") ] ]
    "Sink"

let sinks = 1000
let budget_us = 1000.0  (* the latency budget of sustainable_eps: p99 ≤ 1 ms *)
let ref_rate = 20_000.0  (* the reference rate, well below saturation *)

(* One trial's arrays, indexed by sequence number minus [base]; the event
   payload carries the global sequence number, so a callback that arrives
   after its trial ended is caught as a duplicate instead of landing in
   the next trial's arrays. *)
type trial = {
  base : int;
  n : int;
  due : float array;  (* µs, the schedule *)
  posted : float array;  (* µs, when post returned *)
  served : float array;  (* µs, first served callback *)
  count : int array;  (* callbacks per sequence number *)
  shed : bool array;  (* post answered Shed *)
  post_ns : float array;  (* traced: duration of each Shard.post *)
  served_n : int Atomic.t;  (* first callbacks so far *)
}

type serve = {
  sh : Shard.t;
  req : int;
  current : trial ref;
  stray : int Atomic.t;  (* callbacks outside the current trial *)
  handles : int array;  (* the sinks *)
  targets : int array;  (* seeded post-target sequence, indices into handles *)
  mutable cursor : int;  (* next global sequence number *)
}

let new_trial ~base ~n ~time_posts =
  { base; n; due = Array.make n 0.0; posted = Array.make n 0.0;
    served = Array.make n 0.0; count = Array.make n 0; shed = Array.make n false;
    post_ns = (if time_posts then Array.make n 0.0 else [||]);
    served_n = Atomic.make 0 }

(* The seeded inputs are drawn once, outside the timed set-up. *)
let serve_targets ~seed =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  Array.init 65536 (fun _ -> Random.State.int rng sinks)

let serve_setup ~targets () =
  let ast, _ = front_end (sink_program ()) in
  let driver = compile ast in
  let sh = Shard.create ~shards:1 driver in
  let current = ref (new_trial ~base:0 ~n:0 ~time_posts:false) in
  let stray = Atomic.make 0 in
  Shard.register_foreign sh "served" (fun _ctx args ->
      (match args with
      | [ Rt_value.Int seq ] ->
        let tr = !current in
        let i = seq - tr.base in
        if i < 0 || i >= tr.n then Atomic.incr stray
        else begin
          let c = tr.count.(i) in
          tr.count.(i) <- c + 1;
          if c = 0 then begin
            tr.served.(i) <- now_us ();
            Atomic.incr tr.served_n
          end
        end
      | _ -> ());
      Rt_value.Null);
  let handles = Array.init sinks (fun _ -> Shard.create_machine sh "Sink") in
  let req = Shard.event_id sh "Req" in
  { sh; req; current; stray; handles; targets; cursor = 0 }

type step = {
  rate : float;
  lat : float array;  (* per posted event: latency from due, µs; NaN unserved *)
  lag : float array;  (* per posted event: generator lateness, µs *)
  p2s : float array;  (* per posted event: post-to-served, µs; NaN unserved *)
  posts : float array;  (* per posted event: Shard.post duration, ns (traced) *)
  aborted : bool;  (* posting stopped early: the backlog ran away *)
  win_p50 : float array;  (* per window, in due order: p50 latency from due *)
  win_p95 : float array;  (* per window: p95 latency from due *)
  win_p99 : float array;  (* per window: p99 latency from due *)
  win_lag : float array;  (* per window: p99 generator lateness *)
  n_shed : int;
  bad : int;  (* served twice, never served, or served though shed *)
}

(* Percentile [q] of each consecutive [w]-event window of a per-event
   series; NaN marks events without a sample (shed). *)
let window_pct ~w q (v : float array) =
  let n = Array.length v in
  Array.init (max 1 (n / w)) (fun k ->
      let lo = k * w and hi = if (k + 2) * w > n then n else (k + 1) * w in
      pct (sorted_present (Array.sub v lo (hi - lo))) q)

(* Offer [rate] events/s for [dur] seconds on the due-time schedule. The
   trial ends when every accepted event has been served once (or after
   30 s, when the rest count as lost) and the shard is quiescent; then
   every sequence number is accounted for. Percentiles are also taken per
   50 ms window of due times. *)
let offer ?(time_posts = false) sv ~rate ~dur =
  let planned = max 1 (int_of_float (rate *. dur)) in
  let tr = new_trial ~base:sv.cursor ~n:planned ~time_posts in
  sv.current := tr;
  (* more than 20 ms of arrivals unserved: the step has failed, stop *)
  let give_up = max 2000 (int_of_float (rate *. 0.02)) in
  let accepted = ref 0 and n = ref 0 in
  let t0 = clock_ns () + 100_000 in
  let period = int_of_float (1e9 /. rate) in
  while
    !n < planned
    && (!n land 255 <> 0 || !accepted - Atomic.get tr.served_n < give_up)
  do
    let i = !n in
    let due = t0 + (i * period) in
    while clock_ns () < due do
      Domain.cpu_relax ()
    done;
    tr.due.(i) <- float_of_int due *. 1e-3;
    let target = sv.handles.(sv.targets.((tr.base + i) land 65535)) in
    let p0 = if time_posts then clock_ns () else 0 in
    (match Shard.post sv.sh target ~event:sv.req (Rt_value.Int (tr.base + i)) with
    | P_runtime.Context.Shed -> tr.shed.(i) <- true
    | P_runtime.Context.Accepted | P_runtime.Context.Queued -> incr accepted);
    if time_posts then
      tr.post_ns.(i) <- float_of_int (clock_ns () - p0);
    tr.posted.(i) <- now_us ();
    n := i + 1
  done;
  let n = !n in
  sv.cursor <- sv.cursor + planned;
  let deadline = now_s () +. 30.0 in
  while Atomic.get tr.served_n < !accepted && now_s () < deadline do
    Domain.cpu_relax ()
  done;
  if not (Shard.quiesce ~timeout_s:30.0 sv.sh) then
    fail "serve: shard did not quiesce at %.0f events/s" rate;
  let lat = Array.make n nan and p2s = Array.make n nan in
  let n_shed = ref 0 and bad = ref 0 in
  for i = 0 to n - 1 do
    match (tr.shed.(i), tr.count.(i)) with
    | true, 0 -> incr n_shed
    | false, 1 ->
      lat.(i) <- tr.served.(i) -. tr.due.(i);
      p2s.(i) <- tr.served.(i) -. tr.posted.(i)
    | _ -> incr bad
  done;
  let lag = Array.init n (fun i -> tr.posted.(i) -. tr.due.(i)) in
  let w = max 1 (int_of_float (rate *. 0.05)) in
  { rate;
    lat;
    lag;
    p2s;
    posts = Array.sub tr.post_ns 0 (min n (Array.length tr.post_ns));
    aborted = n < planned;
    win_p50 = window_pct ~w 0.5 lat;
    win_p95 = window_pct ~w 0.95 lat;
    win_p99 = window_pct ~w 0.99 lat;
    win_lag = window_pct ~w 0.99 lag;
    n_shed = !n_shed;
    bad = !bad }

(* Serving capacity: a closed loop that posts [n] events as fast as it
   may while at most [window] of them are unserved, far below every
   bound, so nothing is shed. Returns served events per second, from the
   first post to the last served callback, and the number of events shed,
   lost or served twice. *)
let saturate sv ~n ~window =
  let tr = new_trial ~base:sv.cursor ~n ~time_posts:false in
  sv.current := tr;
  let shed = ref 0 and i = ref 0 in
  let t0 = clock_ns () in
  while !i < n do
    if !i - !shed - Atomic.get tr.served_n < window then begin
      let k = !i in
      let target = sv.handles.(sv.targets.((tr.base + k) land 65535)) in
      (match Shard.post sv.sh target ~event:sv.req (Rt_value.Int (tr.base + k)) with
      | P_runtime.Context.Shed -> tr.shed.(k) <- true; incr shed
      | P_runtime.Context.Accepted | P_runtime.Context.Queued -> ());
      i := k + 1
    end
    else Domain.cpu_relax ()
  done;
  let deadline = now_s () +. 30.0 in
  while Atomic.get tr.served_n < n - !shed && now_s () < deadline do
    Domain.cpu_relax ()
  done;
  let t = float_of_int (clock_ns () - t0) *. 1e-9 in
  sv.cursor <- sv.cursor + n;
  if not (Shard.quiesce ~timeout_s:30.0 sv.sh) then
    fail "serve: shard did not quiesce after a capacity burst";
  let bad = ref 0 in
  for k = 0 to n - 1 do
    match (tr.shed.(k), tr.count.(k)) with
    | true, 0 | false, 1 -> ()
    | _ -> incr bad
  done;
  (float_of_int (n - !shed) /. t, !shed + !bad)

(* A ladder step passes when nothing was shed and the typical (median)
   50 ms window kept p99 from due within budget — in the step as a whole
   and in its second half, so a backlog growing through the step fails it
   while one host stall does not. The step is invalid when the generator
   itself typically ran more than the budget behind its schedule. *)
let valid s = median s.win_lag <= budget_us

let passes s =
  let k = Array.length s.win_p99 in
  valid s && (not s.aborted) && s.n_shed = 0 && s.bad = 0
  && median s.win_p99 <= budget_us
  && median (Array.sub s.win_p99 (k / 2) (k - (k / 2))) <= budget_us

let account_ladder s =
  if s.bad > 0 then fail "serve: %d events lost or served twice at %.0f/s" s.bad s.rate

(* Share of windows whose p99 broke the budget: the stall rate. *)
let stall_share wins =
  let k = Array.fold_left (fun k x -> if x > budget_us then k + 1 else k) 0 wins in
  float_of_int k /. float_of_int (max 1 (Array.length wins))

(* One ladder: rates rise ×1.5 from 100k events/s until one fails; then
   bisection narrows the bracket between the highest passing and the
   first failing rate to 2%, and the geometric middle of the final bracket
   is the result. A failing rate is tried up to three times: above
   capacity the backlog grows on every attempt, while a host stall rarely
   covers three attempts in a row. *)
let ladder sv ~dur =
  let steps = ref [] in
  let rec try_rate ?(attempt = 1) r =
    let s = offer sv ~rate:r ~dur in
    account_ladder s;
    steps := s :: !steps;
    Printf.printf
      "#   %8.0f ev/s %s: window p99 median %.0f us (stalled windows %.2f), \
       lag %.0f us, shed %d%s\n"
      r (if passes s then "pass" else "fail") (median s.win_p99)
      (stall_share s.win_p99) (median s.win_lag) s.n_shed
      (if s.aborted then " (stopped: backlog ran away)"
       else if valid s then "" else " (invalid: generator behind)");
    passes s || (attempt < 3 && try_rate ~attempt:(attempt + 1) r)
  in
  let lo = ref 0.0 and hi = ref 100_000.0 in
  while try_rate !hi do
    lo := !hi;
    hi := !hi *. 1.5
  done;
  if !lo = 0.0 then (0.0, !steps)
  else begin
    while !hi /. !lo > 1.02 do
      let mid = sqrt (!lo *. !hi) in
      if try_rate mid then lo := mid else hi := mid
    done;
    (sqrt (!lo *. !hi), !steps)
  end

type reference = {
  all_lat : float array;  (* every served event's latency from due, sorted *)
  w_p50 : float array;  (* per 50 ms window *)
  w_p95 : float array;
  w_p99 : float array;
}

(* Stops [sv]'s shard and checks that every slot was released and that
   no callback arrived for an event of an earlier trial. *)
let finish sv =
  let st = Shard.stop sv.sh in
  if st.Shard.sh_pending <> 0 then fail "serve: %d slots never released" st.Shard.sh_pending;
  if Atomic.get sv.stray <> 0 then
    fail "serve: %d callbacks for events of an earlier trial" (Atomic.get sv.stray);
  st

let ref_trial ?time_posts sv dur =
  let s = offer ?time_posts sv ~rate:ref_rate ~dur in
  attempted := !attempted + Array.length s.lag;
  if s.n_shed > 0 || s.bad > 0 then begin
    failed := !failed + s.n_shed + s.bad - 1;
    fail "serve: %d shed, %d lost or served twice at the reference rate"
      s.n_shed s.bad
  end;
  s

(* Percentiles per 50 ms window of 1000 events and over every event of
   the reference trials [refs]. *)
let reference refs =
  let windows f = Array.concat (List.rev_map f refs) in
  let r =
    { all_lat = sorted_present (Array.concat (List.map (fun s -> s.lat) refs));
      w_p50 = windows (fun s -> s.win_p50);
      w_p95 = windows (fun s -> s.win_p95);
      w_p99 = windows (fun s -> s.win_p99) }
  in
  Printf.printf
    "# reference %.0f ev/s: %d events in %d trials, %d windows of %.0f; \
     window medians p50 %.2f p95 %.2f p99 %.1f us, stalled windows %.3f; \
     pooled p50 %.2f p99 %.1f us\n"
    ref_rate (Array.length r.all_lat) (List.length refs) (Array.length r.w_p99)
    (ref_rate *. 0.05) (median r.w_p50) (median r.w_p95) (median r.w_p99)
    (stall_share r.w_p99) (pct r.all_lat 0.5) (pct r.all_lat 0.99);
  r

let run_serve args =
  let make = serve_setup ~targets:(serve_targets ~seed:args.seed) in
  let start sv =
    Shard.start sv.sh;
    ignore (offer sv ~rate:ref_rate ~dur:0.2)  (* warm-up, not counted *)
  in
  if args.smoke then begin
    let sv = setup make in
    start sv;
    ignore (ref_trial sv 0.1);
    let s = offer sv ~rate:200_000.0 ~dur:0.05 in
    account_ladder s;
    ignore (saturate sv ~n:2_000 ~window:256);
    ignore (finish sv);
    (* the section 4.1 driver against the hand-written one *)
    let d = drive_setup ~toggles:(drive_toggles ~seed:args.seed) () in
    ignore (drive_round d ~cursor:(ref 0) (Array.make round_len 0.0))
  end
  else if not args.trace then begin
    (* Cycles until the run's time is spent: the last of a batch of set-up
       builds serves one 1 s reference trial and then five capacity bursts
       of 50,000 events, and is stopped. A runtime's serving speed is
       partly fixed when it is built: the p50 of fresh runtimes on one
       host ranged from 2.1 to 3.8 us, with no link to the host probes, so
       each cycle builds a new one. Each burst is timed between two host
       probes and scaled to the reference host. The latencies are the
       medians over every 50 ms window of the run, and the capacity the
       median burst. *)
    let deadline = now_s () +. args.seconds in
    let refs = ref [] and caps = ref [] and raw = ref [] in
    let burst sv =
      let pb = host_probe () in
      let eps, bad = saturate sv ~n:50_000 ~window:2048 in
      let pa = host_probe () in
      attempted := !attempted + 50_000;
      if bad > 0 then begin
        failed := !failed + bad - 1;
        fail "serve: %d events shed, lost or served twice in a capacity burst" bad
      end;
      raw := eps :: !raw;
      (* a rate is a reciprocal time *)
      caps := eps /. scaled 1.0 ~pb ~pa :: !caps
    in
    ignore (setup make);
    while !caps = [] || now_s () +. 2.0 < deadline do
      let sv = sample_setup make 6 in
      start sv;
      refs := ref_trial sv 1.0 :: !refs;
      for _ = 1 to 5 do burst sv done;
      ignore (finish sv)
    done;
    (* the high-water mark over the whole run: every cycle has the same
       size, so later ones no longer raise it *)
    let rss = peak_rss_mb () in
    let r = reference !refs in
    Printf.printf
      "# capacity: %d runtimes, %d bursts of 50000 events, median %.0f ev/s \
       scaled, %.0f unscaled (min %.0f max %.0f)\n"
      (List.length !refs) (List.length !caps) (median_l !caps) (median_l !raw)
      (List.fold_left min infinity !raw) (List.fold_left max 0.0 !raw);
    emit_end_to_end ~setup_s:(setup_s ()) ~rss_mb:rss ~throughput:(median_l !caps)
      ~p50_us:(median r.w_p50) ~p95_us:(median r.w_p95)
  end
  else begin
    (* traced: post timing on, runtime trace hook counting items *)
    let sv = setup make in
    start sv;
    let refs = ref [] in
    let t_end = now_s () +. (0.2 *. args.seconds) in
    while now_s () < t_end do
      ignore (sample_setup make 6);
      refs := ref_trial sv 1.0 :: !refs
    done;
    let r = reference !refs in
    let items = ref 0 in
    P_runtime.Api.set_trace_hook (Shard.exec_of sv.sh 0) (Some (fun _ -> incr items));
    let gc0 = Gc.quick_stat () in
    let s = ref_trial ~time_posts:true sv 1.0 in
    let gc1 = Gc.quick_stat () in
    P_runtime.Api.set_trace_hook (Shard.exec_of sv.sh 0) None;
    let lat = sorted_present s.lat in
    let events = float_of_int (Array.length lat) in
    let sustainable, steps = ladder sv ~dur:0.3 in
    let st = finish sv in
    let f = float_of_int in
    let setup = setup_layers () in
    emit_layers
      (setup @ dispatch_layers ~seed:args.seed
      @ [ ("shard.post_ns_p50", pct (sorted s.posts) 0.5);
        ("shard.post_ns_p99", pct (sorted s.posts) 0.99);
        ("shard.msgs_per_ingress_batch",
         f st.Shard.sh_ingress_msgs /. f (max 1 st.Shard.sh_ingress_batches));
        ("shard.activations_per_event",
         f st.Shard.sh_activations /. f (max 1 st.Shard.sh_dequeues));
        ("shard.shed", f (List.fold_left (fun a s -> a + s.n_shed) 0 steps));
        ("serve.post_to_served_us_p99", pct (sorted_present s.p2s) 0.99);
        ("serve.sustainable_eps", sustainable);
        ("serve.window_p99_us", median r.w_p99);
        ("serve.pooled_p99_us", pct r.all_lat 0.99);
        ("serve.stalled_window_share", stall_share r.w_p99);
        ("gen.lag_p99_us", pct (sorted s.lag) 0.99);
        ("rt_trace.items_per_event", f !items /. events);
        ("gc.minor_words_per_event",
         (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. events);
        ("gc.major_collections",
         f (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ("trace.overhead_share",
         (pct lat 0.5 -. pct r.all_lat 0.5) /. pct r.all_lat 0.5) ])
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "verify-usb" -> fun () -> run_verify args (verify_usb ~smoke:args.smoke)
    | "verify-german" -> fun () -> run_verify args (verify_german ~smoke:args.smoke)
    | "serve-sinks" -> fun () -> run_serve args
    | _ -> usage ()
  in
  Printf.printf "# workload %s seed %d seconds %g trace %b%s\n" args.workload
    args.seed args.seconds args.trace (if args.smoke then " smoke" else "");
  Printf.printf "# machine %s\n# loadavg %s\n"
    (P_obs.Json.to_string (P_obs.Machine_info.json ()))
    (loadavg ());
  (match run () with
  | () -> ()
  | exception e ->
    Printf.eprintf "pbench: %s\n%!" (Printexc.to_string e);
    exit 2);
  Printf.printf "# loadavg after %s\n" (loadavg ());
  print_result ();
  if !failed > 0 then exit 1
