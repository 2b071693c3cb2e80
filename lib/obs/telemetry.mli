(** Live exploration telemetry: a sampling ticker the engines poke from
    their existing tick points, emitting a time series of throughput and
    memory figures — states/s, transitions/s, frontier occupancy, steal
    success rate, bytes per state — as JSONL records and/or an in-process
    callback (the [--progress] heartbeat).

    The engine installs a {e probe} — a closure over its live counters —
    and calls {!tick} from its (already count-gated) tick points; a tick
    is one monotonic-clock read unless a sample is due. When one is due,
    the probe is read, rates are computed against the previous sample, and
    the record goes to the sink ([{"type":"sample", …}] lines, preceded by
    one [{"type":"meta", …}] header carrying the machine-context block)
    and to [on_sample].

    Allocation figures come from [Gc.quick_stat] on whichever domain takes
    the sample, so under the parallel engine [bytes_per_state] is the
    sampling worker's allocation rate, not the whole process's — an
    approximation, flagged in the meta record as
    ["alloc_scope": "sampling-domain"]. The seen-set figures
    ([store_bytes] via the probe) are exact: the store reports its own
    footprint, so [store_bytes_per_state] no longer has to be derived
    from cumulative allocation alone. *)

type sample = {
  ts_us : float;  (** monotonic clock, µs (same timeline as trace spans) *)
  elapsed_s : float;  (** since {!create} *)
  states : int;
  transitions : int;
  states_per_s : float;  (** over the interval since the previous sample *)
  transitions_per_s : float;
  frontier : float;  (** current frontier / stratum occupancy *)
  steals : int;  (** cumulative successful steals *)
  steal_attempts : int;
  steal_success_rate : float;  (** cumulative; [0.] before any attempt *)
  alloc_mb : float;  (** allocated since {!create}, sampling domain, MB *)
  bytes_per_state : float;  (** cumulative allocation / states *)
  heap_mb : float;  (** major heap size now, MB *)
  store_mb : float;  (** seen-set footprint now, MB ([0.] without one) *)
  store_bytes_per_state : float;  (** seen-set footprint / states *)
  shed : int;  (** cumulative events dropped by backpressure; [0] for engines *)
}

type probe = {
  states : int;
  transitions : int;
  frontier : float;
  steals : int;
  steal_attempts : int;
  store_bytes : int;  (** live seen-set footprint; [0] without a seen set *)
  shed : int;  (** cumulative backpressure drops; [0] without bounds *)
}
(** What the engine reports when asked: its live totals. Sequential
    engines leave the steal fields 0; the serving runtime ({!P_runtime}'s
    shard layer) maps states to events processed, transitions to local
    deliveries, frontier to ready machines, and counts its sheds. *)

type t

val null : t
(** Every operation is a no-op. *)

val enabled : t -> bool

val create :
  ?interval_us:float ->
  ?sink:Sink.t ->
  ?on_sample:(sample -> unit) ->
  unit ->
  t
(** A ticker sampling every [interval_us] (default [100_000.] = 100ms).
    [sink] (normally a {!Sink.jsonl}) receives the meta header and one
    record per sample; [on_sample] fires on the sampling domain. *)

val set_probe : t -> (unit -> probe) -> unit
(** Install the engine's counter closure. Until a probe is installed,
    ticks are no-ops. *)

val set_meta : t -> (string * Json.t) list -> unit
(** Extra fields for the [{"type":"meta", …}] header (the engine's store
    kind and capacity). Must be called before the first sample; later
    calls are recorded but the header is already out. *)

val tick : t -> unit
(** Take a sample if one is due. Cheap when not due; serialized by a
    try-lock, so concurrent callers are safe and never block. *)

val force : t -> unit
(** Take a sample now, ignoring the interval (the final sample of a run,
    so short runs still produce at least one record). *)

val samples_taken : t -> int
