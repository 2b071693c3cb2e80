(** Incremental state fingerprinting.

    The seen-set key of every engine used to be [Canon.digest], which
    re-encodes every machine of the configuration and MD5s the whole buffer
    on each query — O(state size) work per transition, even though one
    atomic block touches at most a couple of machines. This module keys a
    digest cache on *physical* machine identity: {!P_semantics.Step} updates
    configurations through {!P_semantics.Config.update}, whose persistent
    map shares every untouched machine between parent and successor, so a
    cached per-machine digest is hit for every machine the block did not
    touch and the successor fingerprint costs O(machines-changed) encoding
    work plus one short MD5 combine.

    The incremental fingerprint of a configuration is

    {v MD5( varint next_id · varint live_count
            · md5(machine_1) … md5(machine_k)      (in identifier order)
            · varint |extra| · varint extra_i … ) v}

    where [md5(machine_i)] is {!Canon.machine_digest} of that binding. The
    per-machine digests are fixed-width, so the combine is injective in
    them; the whole key is as collision-resistant as [Canon.digest] itself
    (both stand on MD5). Incremental and full digests of the same
    configuration are *different strings* — an engine must use one mode for
    a whole run, which they do.

    The "cache" is the machine value itself: {!P_semantics.Machine.t}
    carries a mutable [digest_memo] slot that [Config.update] — the one
    function through which every (re)built machine enters a configuration
    — resets to [""]. A non-empty memo is therefore only ever observed on
    a machine physically shared, untouched, with an already-digested
    configuration, and reading it is a plain field load. An external table
    keyed on physical identity cannot do this cheaply: OCaml has no
    address-based hash, and a structural hash collapses the thousands of
    near-identical versions of each machine into a handful of buckets.
    (Under the parallel engine two domains can race to fill a memo; both
    write the same canonical digest string, so either outcome is correct.
    Each context — the engines keep one per worker domain — counts its own
    {!requests}, {!hits}, and {!misses}, and every lookup lands in exactly
    one of the latter two, so after the engine sums the per-worker
    counters, [hits + misses = requests] holds exactly for any number of
    domains; only the hit/miss *split* can vary run to run, by which
    domain wins a memo-fill race.)

    [Paranoid] computes both fingerprints for every query, returns the full
    one (so a paranoid run is bit-for-bit a [Full] run), and checks the two
    stay in bijection: a violation means either an MD5 collision or a stale
    cache entry (i.e. a broken sharing guarantee), and is counted in
    {!collisions}. *)

module Config = P_semantics.Config
module Machine = P_semantics.Machine
module Mid = P_semantics.Mid
module Buf = Canon.Buf

type mode = Full | Incremental | Paranoid

let mode_to_string = function
  | Full -> "full"
  | Incremental -> "incremental"
  | Paranoid -> "paranoid"

let mode_of_string = function
  | "full" -> Ok Full
  | "incremental" -> Ok Incremental
  | "paranoid" -> Ok Paranoid
  | s -> Error (Printf.sprintf "unknown fingerprint mode %S" s)

type t = {
  canon : Canon.t;
  mode : mode;
  buf : Buf.t;
  (* paranoid-mode bijection witnesses: incremental <-> full *)
  incr_to_full : (string, string) Hashtbl.t;
  full_to_incr : (string, string) Hashtbl.t;
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable collisions : int;
}

let create ?(mode = Incremental) tab =
  { canon = Canon.create tab;
    mode;
    buf = Buf.create 256;
    incr_to_full = Hashtbl.create 64;
    full_to_incr = Hashtbl.create 64;
    requests = 0;
    hits = 0;
    misses = 0;
    collisions = 0 }

let mode t = t.mode
let requests t = t.requests
let hits t = t.hits
let misses t = t.misses
let collisions t = t.collisions

let machine_digest t id (m : Machine.t) =
  t.requests <- t.requests + 1;
  let memo = m.Machine.digest_memo in
  if String.length memo <> 0 then begin
    t.hits <- t.hits + 1;
    memo
  end
  else begin
    t.misses <- t.misses + 1;
    let d = Canon.machine_digest t.canon id m in
    m.Machine.digest_memo <- d;
    d
  end

(* Identity-blind per-machine shape, memoised like the digest: the order
   key for seeding the canonical traversal at unreferenced machines. *)
let shape_digest t (m : Machine.t) =
  let memo = m.Machine.shape_memo in
  if String.length memo <> 0 then memo
  else begin
    let d = Canon.machine_shape_digest t.canon m in
    m.Machine.shape_memo <- d;
    d
  end

(** [renaming t config]: the canonical permutation π of live machine
    identifiers for symmetry reduction, or [None] when it is the
    identity.

    π is chosen by traversal order: the live identifiers sorted ascending
    are the canonical slots, handed out in first-visit order of a
    breadth-first walk over the machine-reference graph — start at the
    root machine (identifier 0, the machine [Step.initial_config]
    creates), follow each visited machine's references in encoding order
    ({!Canon.iter_machine_mids}), and when the walk exhausts a component,
    reseed at the unvisited machine with the least (shape digest,
    identifier) key. Two configurations that differ only in the ghost
    creation order of otherwise-indistinguishable machines traverse
    isomorphically and land on the same canonical encoding.

    Soundness needs none of that: π permutes the live identifiers among
    themselves and leaves dangling (deleted) identifiers fixed — so
    renamed-live and dangling references can never collide — and the
    canonical digest is the injective encoding of the π-renamed
    configuration. Equal canonical keys therefore witness genuinely
    isomorphic configurations for *any* such π; the traversal choice only
    decides how many isomorphic states actually merge, and a heuristic
    miss (e.g. the shape tie-break falling back to raw identifiers)
    costs a missed merge, never a wrong one. *)
let renaming t (config : Config.t) : (int -> int) option =
  let live = List.rev (Config.fold (fun id _ acc -> Mid.to_int id :: acc) config []) in
  match live with
  | [] | [ _ ] -> None
  | _ ->
    let slots = Array.of_list live in
    let n = Array.length slots in
    let map = Hashtbl.create n in
    let next = ref 0 in
    let queue = Queue.create () in
    let visit id =
      if (not (Hashtbl.mem map id)) && Config.mem config (Mid.of_int id) then begin
        Hashtbl.replace map id slots.(!next);
        incr next;
        Queue.add id queue
      end
    in
    let drain () =
      while not (Queue.is_empty queue) do
        let id = Queue.pop queue in
        match Config.find config (Mid.of_int id) with
        | Some m -> Canon.iter_machine_mids m visit
        | None -> ()
      done
    in
    visit (Mid.to_int Mid.first);
    drain ();
    while !next < n do
      (* reseed at the least-(shape, id) unvisited machine *)
      let best = ref None in
      List.iter
        (fun id ->
          if not (Hashtbl.mem map id) then
            match Config.find config (Mid.of_int id) with
            | None -> ()
            | Some m ->
              let key = (shape_digest t m, id) in
              (match !best with
              | Some (k, _) when compare k key <= 0 -> ()
              | _ -> best := Some (key, id)))
        live;
      match !best with
      | None -> assert false (* !next < n means an unvisited live id exists *)
      | Some (_, id) ->
        visit id;
        drain ()
    done;
    if Hashtbl.fold (fun id slot acc -> acc && id = slot) map true then None
    else Some (fun i -> match Hashtbl.find_opt map i with Some j -> j | None -> i)

let incremental ?rename t (config : Config.t) (extra : int list) : string =
  Buf.clear t.buf;
  Buf.add_int t.buf (Mid.to_int config.next_id);
  Buf.add_int t.buf (Config.live_count config);
  (match rename with
  | None ->
    Config.fold (fun id m () -> Buf.add_string t.buf (machine_digest t id m)) config ()
  | Some rn ->
    (* renamed ids reorder the machines; the memo holds identity-renamed
       digests, so each machine is re-encoded under π *)
    Config.fold (fun id m acc -> (rn (Mid.to_int id), id, m) :: acc) config []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
    |> List.iter (fun (_, id, m) ->
           Buf.add_string t.buf (Canon.machine_digest ~rename:rn t.canon id m)));
  Buf.add_int t.buf (List.length extra);
  List.iter (Buf.add_int t.buf) extra;
  (* mirrors Canon.digest: fault counter appended only when nonzero *)
  if config.fseq > 0 then Buf.add_int t.buf config.fseq;
  Buf.digest t.buf

(* ------------------------------------------------------------------ *)
(* Integer fingerprints (for the arena-backed state stores)            *)
(* ------------------------------------------------------------------ *)

(* Streaming 63-bit FNV-1a over the same byte stream as [incremental],
   finished with a splitmix-style avalanche so low bits are usable as
   table indices. Runs entirely on immediate native ints: no Buffer, no
   Digest string, no allocation per state. *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x3bf29ce484222325 (* the 64-bit FNV basis folded to 62 bits *)

let fnv_byte h b = (h lxor b) * fnv_prime land max_int

let fnv_int h i =
  let h = ref h in
  let i = ref i in
  for _ = 0 to 7 do
    h := fnv_byte !h (!i land 0xff);
    i := !i lsr 8
  done;
  !h

let fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let finalize h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 land max_int in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb land max_int in
  h lxor (h lsr 31)

let digest ?rename t (config : Config.t) (extra : int list) : string =
  match t.mode with
  | Full -> Canon.digest ?rename t.canon config extra
  | Incremental -> incremental ?rename t config extra
  | Paranoid ->
    let inc = incremental ?rename t config extra in
    let full = Canon.digest ?rename t.canon config extra in
    (match Hashtbl.find_opt t.incr_to_full inc with
    | Some full' when not (String.equal full full') ->
      t.collisions <- t.collisions + 1
    | Some _ -> ()
    | None -> Hashtbl.add t.incr_to_full inc full);
    (match Hashtbl.find_opt t.full_to_incr full with
    | Some inc' when not (String.equal inc inc') ->
      t.collisions <- t.collisions + 1
    | Some _ -> ()
    | None -> Hashtbl.add t.full_to_incr full inc);
    full

(** A 63-bit integer fingerprint of [config], for the compact and
    bitstate stores. [Incremental] streams the per-machine digest cache
    straight into the hash with no per-state string; [Full]/[Paranoid]
    hash the canonical digest string (keeping paranoid's bijection
    check), so every mode still keys on the same canonical encoding. *)
let digest_int ?rename t (config : Config.t) (extra : int list) : int =
  match t.mode with
  | Full | Paranoid ->
    finalize (fnv_string fnv_basis (digest ?rename t config extra))
  | Incremental ->
    let h = fnv_int fnv_basis (Mid.to_int config.next_id) in
    let h = fnv_int h (Config.live_count config) in
    let h =
      match rename with
      | None ->
        Config.fold (fun id m h -> fnv_string h (machine_digest t id m)) config h
      | Some rn ->
        Config.fold (fun id m acc -> (rn (Mid.to_int id), id, m) :: acc) config []
        |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
        |> List.fold_left
             (fun h (_, id, m) ->
               fnv_string h (Canon.machine_digest ~rename:rn t.canon id m))
             h
    in
    let h = fnv_int h (List.length extra) in
    let h = List.fold_left fnv_int h extra in
    (* mirrors Canon.digest: fault counter mixed in only when nonzero *)
    let h = if config.fseq > 0 then fnv_int h config.fseq else h in
    finalize h
