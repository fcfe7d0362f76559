module Hstack = Pts_util.Hstack
module Cache = Kernel.Key_tbl

(* Shared base tier: merged summaries of earlier batches (in the serve
   daemon, earlier requests; with [--cache], a saved file), keyed
   structurally ((node, stack symbols, state)) so the table crosses
   domains without hash-cons rebasing. Workers never write the table —
   the main domain grows and evicts between batches, after all workers
   have joined — so
   plain Hashtbl reads from many domains are safe. The two per-entry
   mutables that workers do touch are race-tolerant by design: hit/miss
   tallies are [Atomic.t], and the clock bit is a plain bool whose only
   writes are [true] (a stale read merely demotes an entry one eviction
   lap early). *)
type base_key = int * int list * int

(* The polymorphic hash only samples a prefix of the structure, and deep
   field stacks share prefixes — under it, a large tier degenerates into
   a few long buckets and every probe's cost grows with residency. Fold
   the whole symbol list instead. *)
module Base_tbl = Hashtbl.Make (struct
  type t = base_key

  let equal (a : base_key) b = a = b

  let hash ((node, syms, state) : base_key) =
    let mix h x = (h * 0x01000193) lxor x in
    let h = List.fold_left mix (mix (mix 0x811c9dc5 node) state) syms in
    h land max_int
end)

type base_entry = {
  be_objs : int list;
  be_tuples : (int * int list * int) list;
  be_fp : int list; (* derivation footprint, for targeted invalidation *)
  mutable be_ref : bool; (* second-chance clock bit, set on every hit *)
  (* One-slot memo of the rematerialised summary, tagged with the domain
     that built it. Hstack ids are domain-local, so a consumer only
     reuses a memo its own domain produced; the field is a single
     immutable-tuple write, so concurrent overwrites from other domains
     are benign (last publisher wins, every reader sees a consistent
     pair). Without this, a long-lived daemon re-interns every tuple's
     field stack on every request that re-probes a hot entry. *)
  mutable be_mat : (int * Ppta.summary) option;
}

type base = {
  b_tbl : base_entry Base_tbl.t;
  b_cap : int; (* max entries; 0 = unbounded *)
  b_ring : base_key Queue.t; (* clock hand: insertion order, with second chances *)
  b_hits : int Atomic.t;
  b_misses : int Atomic.t;
  b_evictions : int Atomic.t;
}

type t = {
  env : Kernel.env;
  store : Ppta.store;
  key_stacks : Pts_util.Hstack.t Cache.t; (* key -> its field stack, for persistence *)
  mutable base : base option; (* shared lower tier; overlay = store above it *)
}

let name = "dynsum"

let create ?conf ?trace pag =
  {
    env = Kernel.env ~name ?conf ?trace pag;
    store = Ppta.store ();
    key_stacks = Cache.create 4096;
    base = None;
  }

let summary_count t = Cache.length t.store.summaries

let new_summary_count t = Cache.length t.key_stacks

let summary_points t = Ppta.points t.store

let clear_cache t =
  Cache.reset t.store.summaries;
  Cache.reset t.key_stacks;
  Cache.reset t.store.footprints

let env t = t.env
let budget t = t.env.Kernel.budget
let stats t = t.env.Kernel.stats

(* ------------------------- cache persistence ------------------------ *)

(* Structural image of one cache entry: hash-cons ids are process-local,
   so stacks travel as symbol lists. The trailing list is the derivation
   footprint — the PAG nodes the PPTA run visited — which targeted
   invalidation intersects against the dirty set of an edit burst. *)
type entry_image =
  int * int list * int * int list * (int * int list * int) list * int list

let magic = "ptsto-dynsum-cache-v2"

let fingerprint pag =
  let c = Pag.edge_counts pag in
  ( Pag.node_count pag,
    c.Pag.n_new,
    c.Pag.n_assign,
    c.Pag.n_load,
    c.Pag.n_store,
    c.Pag.n_entry,
    c.Pag.n_exit,
    c.Pag.n_assign_global )

type snapshot = entry_image list

let snapshot t : snapshot =
  (* the cache key holds only the domain-local hash-cons id of the field
     stack; the parallel key_stacks table provides the structural stack.
     Keys absent from key_stacks — memoised hits against the shared base
     tier — are deliberately skipped: a snapshot carries only summaries
     this engine computed itself. Sorted so the marshalled bytes don't
     depend on insertion (and hence scheduling) order. *)
  let images = ref [] in
  Cache.iter
    (fun ((node, _fid, state) as key) summary ->
      match Cache.find_opt t.key_stacks key with
      | None -> ()
      | Some stack ->
        let tuples =
          List.map
            (fun (n, f, s) -> (n, Hstack.to_list f, Ppta.state_to_int s))
            summary.Ppta.tuples
        in
        let fp = Option.value ~default:[] (Cache.find_opt t.store.footprints key) in
        images :=
          ((node, Hstack.to_list stack, state, summary.Ppta.objs, tuples, fp) : entry_image)
          :: !images)
    t.store.summaries;
  List.sort compare !images

let state_of_int = function 1 -> Ppta.S1 | _ -> Ppta.S2

let snapshot_length (s : snapshot) = List.length s

let snapshot_union (snaps : snapshot list) : snapshot =
  (* identical (node, stack, state) keys: last writer wins — summaries
     for the same key are equal sets anyway (PPTA is deterministic), so
     the choice only affects representation order. Sorted for a
     domain-count-independent result. *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (List.iter (fun ((node, syms, state, _, _, _) as img : entry_image) ->
         Hashtbl.replace tbl (node, syms, state) img))
    snaps;
  Hashtbl.fold (fun _ img acc -> img :: acc) tbl [] |> List.sort compare

(* ---------------------------- base tier ----------------------------- *)

let base_create ?(capacity = 0) () : base =
  if capacity < 0 then invalid_arg "Dynsum.base_create: capacity must be >= 0";
  {
    b_tbl = Base_tbl.create 1024;
    b_cap = capacity;
    b_ring = Queue.create ();
    b_hits = Atomic.make 0;
    b_misses = Atomic.make 0;
    b_evictions = Atomic.make 0;
  }

(* Second-chance clock sweep: pop ring slots until one points at a live,
   unreferenced entry and evict it. Slots whose key has already left the
   table (invalidation, or a duplicate slot from re-insertion) are
   discarded for free; a referenced entry loses its bit and goes to the
   back of the ring. Terminates: every iteration removes a slot, clears a
   set bit, or evicts, and all three are finite. *)
let rec base_evict_one (b : base) =
  match Queue.take_opt b.b_ring with
  | None -> ()
  | Some key -> (
    match Base_tbl.find_opt b.b_tbl key with
    | None -> base_evict_one b
    | Some e ->
      if e.be_ref then begin
        e.be_ref <- false;
        Queue.push key b.b_ring;
        base_evict_one b
      end
      else begin
        Base_tbl.remove b.b_tbl key;
        Atomic.incr b.b_evictions
      end)

let base_add (b : base) (s : snapshot) =
  (* first writer wins: summaries for the same key are equal sets (PPTA
     is deterministic), so keeping the incumbent only pins
     representation. Returns how many keys were new. Must only
     run while no worker is reading the base (between batches). *)
  let fresh = ref 0 in
  List.iter
    (fun ((node, syms, state, objs, tuples, fp) : entry_image) ->
      let key = (node, syms, state) in
      if not (Base_tbl.mem b.b_tbl key) then begin
        if b.b_cap > 0 then
          while Base_tbl.length b.b_tbl >= b.b_cap do
            base_evict_one b
          done;
        incr fresh;
        Base_tbl.add b.b_tbl key
          { be_objs = objs; be_tuples = tuples; be_fp = fp; be_ref = false; be_mat = None };
        Queue.push key b.b_ring
      end)
    s;
  !fresh

(* Drop the ring slots of keys no longer in the table once they dominate,
   so a long-lived daemon's ring stays proportional to the live store. *)
let base_compact_ring (b : base) =
  if Queue.length b.b_ring > (2 * Base_tbl.length b.b_tbl) + 16 then begin
    let live = Queue.create () in
    let seen = Hashtbl.create (Base_tbl.length b.b_tbl) in
    Queue.iter
      (fun key ->
        if Base_tbl.mem b.b_tbl key && not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          Queue.push key live
        end)
      b.b_ring;
    Queue.clear b.b_ring;
    Queue.transfer live b.b_ring
  end

let base_invalidate (b : base) dirty =
  (* The per-engine store's footprint discipline ({!Ppta.stale}). Runs on
     the owning thread between requests, never concurrently with
     readers. *)
  let dirtyt = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace dirtyt d ()) dirty;
  let doomed = ref [] in
  Base_tbl.iter
    (fun key e -> if Ppta.stale (Hashtbl.mem dirtyt) e.be_fp then doomed := key :: !doomed)
    b.b_tbl;
  List.iter (Base_tbl.remove b.b_tbl) !doomed;
  base_compact_ring b;
  (List.length !doomed, Base_tbl.length b.b_tbl)

let base_length (b : base) = Base_tbl.length b.b_tbl
let base_capacity (b : base) = b.b_cap
let base_hits (b : base) = Atomic.get b.b_hits
let base_misses (b : base) = Atomic.get b.b_misses
let base_evictions (b : base) = Atomic.get b.b_evictions

let set_base t b = t.base <- Some b

let base_health t =
  match t.base with
  | None -> (0, 0, 0, 0)
  | Some b -> (base_hits b, base_misses b, base_evictions b, base_length b)

let save_snapshot pag (s : snapshot) path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Marshal.to_channel oc (magic, fingerprint pag, Pag.graph_hash pag, Pag.epoch pag, s) [])

let load_snapshot pag path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match (Marshal.from_channel ic : string * 'a * int * int * snapshot) with
        | exception _ -> Error "corrupt cache file"
        | file_magic, fp, ghash, _epoch, images ->
          if file_magic <> magic then Error "not a dynsum cache file"
          else if fp <> fingerprint pag then Error "cache was built for a different PAG"
          else if ghash <> Pag.graph_hash pag then
            (* counts can collide across different edge sets (e.g. one
               assign deleted, another inserted); the order-independent
               edge-multiset hash cannot, so a cache from a drifted build
               of the same program is refused here *)
            Error "cache was built for a different version of this PAG"
          else Ok images)

(* A store miss: probe the shared base tier (structural key, so no
   rebase needed) before paying for a PPTA run. A base hit is memoised in
   the store but {e not} in [key_stacks], so the next [snapshot] won't
   re-export a summary this engine merely borrowed. *)
let miss t key u f s =
  let sink = t.env.Kernel.sink in
  let from_base =
    match t.base with
    | None -> None
    | Some b -> (
      match Base_tbl.find_opt b.b_tbl (u, Hstack.to_list f, Ppta.state_to_int s) with
      | Some e ->
        e.be_ref <- true;
        Atomic.incr b.b_hits;
        Some e
      | None ->
        Atomic.incr b.b_misses;
        Trace.emit sink (Trace.Counter { engine = name; name = "base_misses"; delta = 1 });
        None)
  in
  match from_base with
  | Some ({ be_objs = objs; be_tuples = tuples; be_fp = fp; _ } as e) ->
    Trace.emit sink (Trace.Summary_hit { engine = name; node = u });
    Trace.emit sink (Trace.Counter { engine = name; name = "base_hits"; delta = 1 });
    let did = (Domain.self () :> int) in
    let summary =
      match e.be_mat with
      | Some (d, s) when d = did -> s
      | _ ->
        let s =
          {
            Ppta.objs;
            tuples = List.map (fun (tn, tf, ts) -> (tn, Hstack.of_list tf, state_of_int ts)) tuples;
          }
        in
        e.be_mat <- Some (did, s);
        s
    in
    Ppta.add t.store key summary fp;
    summary
  | None ->
    let summary = Ppta.derive_missing t.store t.env key u f s in
    Cache.replace t.key_stacks key f;
    summary

let invalidate t dirty =
  Ppta.invalidate ~on_drop:(Cache.remove t.key_stacks) t.store t.env.Kernel.pag dirty

let fastpath t () =
  Trace.emit t.env.Kernel.sink
    (Trace.Counter { engine = name; name = "no_local_fastpath"; delta = 1 })

let points_to t ?satisfy v =
  Kernel.run_query t.env v (fun prune ->
      Ppta.solve ?satisfy ?prune ~fastpath:(fastpath t) ~miss:(miss t) t.store t.env v)
