(** The sampling ticker. Callers (the engines' tick points) already
    count-gate, so [tick] goes straight to the clock: one monotonic read
    decides whether [interval_us] has passed. Sampling itself is guarded
    by a try-lock — concurrent tickers (property tests hammer this) never
    block, one of them just takes the sample. *)

type sample = {
  ts_us : float;
  elapsed_s : float;
  states : int;
  transitions : int;
  states_per_s : float;
  transitions_per_s : float;
  frontier : float;
  steals : int;
  steal_attempts : int;
  steal_success_rate : float;
  alloc_mb : float;
  bytes_per_state : float;
  heap_mb : float;
  store_mb : float;
  store_bytes_per_state : float;
  shed : int;
}

type probe = {
  states : int;
  transitions : int;
  frontier : float;
  steals : int;
  steal_attempts : int;
  store_bytes : int;
  shed : int;
}

type state = {
  interval_us : float;
  sink : Sink.t;
  on_sample : (sample -> unit) option;
  lock : Mutex.t;
  t0_us : float;
  alloc0_w : float;  (* allocated words at create, sampling-domain scope *)
  mutable probe : (unit -> probe) option;
  mutable last_us : float;  (* last sample time *)
  mutable last_states : int;
  mutable last_transitions : int;
  mutable n_samples : int;
  mutable meta_done : bool;
  mutable extra_meta : (string * Json.t) list;
}

type t = Null | On of state

let null = Null
let enabled = function Null -> false | On _ -> true

let bytes_per_word = float_of_int (Sys.word_size / 8)

(* Words allocated so far, the usual minor + major − promoted identity.
   The minor term comes from [Gc.minor_words ()], which reads the live
   allocation pointer — [quick_stat]'s copy only advances at collection
   boundaries, so a run too short to trigger a minor collection would
   read 0 allocated. On OCaml 5 the major count takes in a minor
   collection's promoted words only at a later collection, so across a
   collection the identity can fall by up to a minor heap; collecting
   first brings both counts up to date (one minor collection per
   sample). *)
let allocated_words () =
  Gc.minor ();
  let g = Gc.quick_stat () in
  Gc.minor_words () +. g.Gc.major_words -. g.Gc.promoted_words

let create ?(interval_us = 100_000.0) ?(sink = Sink.null) ?on_sample () =
  let t0 = Mclock.now_us () in
  On
    { interval_us;
      sink;
      on_sample;
      lock = Mutex.create ();
      t0_us = t0;
      alloc0_w = allocated_words ();
      probe = None;
      last_us = t0;
      last_states = 0;
      last_transitions = 0;
      n_samples = 0;
      meta_done = false;
      extra_meta = [] }

let set_probe t f = match t with Null -> () | On s -> s.probe <- Some f
let set_meta t kv = match t with Null -> () | On s -> s.extra_meta <- s.extra_meta @ kv

let emit_meta (s : state) =
  if not s.meta_done then begin
    s.meta_done <- true;
    if Sink.enabled s.sink then
      Sink.raw s.sink
        (Json.Obj
           ([ ("type", Json.String "meta");
              ("schema", Json.String "p-telemetry/1");
              ("interval_us", Json.Float s.interval_us);
              ("alloc_scope", Json.String "sampling-domain");
              ("machine", Machine_info.json ()) ]
           @ s.extra_meta))
  end

let json_of_sample (x : sample) =
  Json.Obj
    [ ("type", Json.String "sample");
      ("ts_us", Json.Float x.ts_us);
      ("elapsed_s", Json.Float x.elapsed_s);
      ("states", Json.Int x.states);
      ("transitions", Json.Int x.transitions);
      ("states_per_s", Json.Float x.states_per_s);
      ("transitions_per_s", Json.Float x.transitions_per_s);
      ("frontier", Json.Float x.frontier);
      ("steals", Json.Int x.steals);
      ("steal_attempts", Json.Int x.steal_attempts);
      ("steal_success_rate", Json.Float x.steal_success_rate);
      ("alloc_mb", Json.Float x.alloc_mb);
      ("bytes_per_state", Json.Float x.bytes_per_state);
      ("heap_mb", Json.Float x.heap_mb);
      ("store_mb", Json.Float x.store_mb);
      ("store_bytes_per_state", Json.Float x.store_bytes_per_state);
      ("shed", Json.Int x.shed) ]

(* Take one sample. Caller holds [s.lock]. *)
let sample_locked (s : state) now =
  match s.probe with
  | None -> ()
  | Some probe ->
    emit_meta s;
    let p = probe () in
    let dt_s = (now -. s.last_us) /. 1e6 in
    let rate cur last = if dt_s > 0.0 then float_of_int (cur - last) /. dt_s else 0.0 in
    let alloc_w = allocated_words () -. s.alloc0_w in
    let g = Gc.quick_stat () in
    let alloc_b = alloc_w *. bytes_per_word in
    let x =
      { ts_us = now;
        elapsed_s = (now -. s.t0_us) /. 1e6;
        states = p.states;
        transitions = p.transitions;
        states_per_s = rate p.states s.last_states;
        transitions_per_s = rate p.transitions s.last_transitions;
        frontier = p.frontier;
        steals = p.steals;
        steal_attempts = p.steal_attempts;
        steal_success_rate =
          (if p.steal_attempts = 0 then 0.0
           else float_of_int p.steals /. float_of_int p.steal_attempts);
        alloc_mb = alloc_b /. 1e6;
        bytes_per_state = (if p.states = 0 then 0.0 else alloc_b /. float_of_int p.states);
        heap_mb = float_of_int g.Gc.heap_words *. bytes_per_word /. 1e6;
        store_mb = float_of_int p.store_bytes /. 1e6;
        store_bytes_per_state =
          (if p.states = 0 then 0.0
           else float_of_int p.store_bytes /. float_of_int p.states);
        shed = p.shed }
    in
    s.last_us <- now;
    s.last_states <- p.states;
    s.last_transitions <- p.transitions;
    s.n_samples <- s.n_samples + 1;
    Sink.raw s.sink (json_of_sample x);
    match s.on_sample with None -> () | Some f -> f x

let tick t =
  match t with
  | Null -> ()
  | On s ->
    if s.probe <> None then begin
      let now = Mclock.now_us () in
      if now -. s.last_us >= s.interval_us && Mutex.try_lock s.lock then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock s.lock)
          (fun () -> if now -. s.last_us >= s.interval_us then sample_locked s now)
    end

let force t =
  match t with
  | Null -> ()
  | On s ->
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () -> sample_locked s (Mclock.now_us ()))

let samples_taken = function Null -> 0 | On s -> s.n_samples
