(** Canonicalizing, sharded, bounded, two-tier response cache (see
    qcache.mli for the protocol-level story). *)

module Reservoir = Scaf_trace.Reservoir

type key = {
  cq : Query.t;  (** canonical form; guaranteed closure-free *)
  mirrored : bool;  (** the original query was the mirrored alias form *)
}

type entry = {
  resp : Response.t;
  mutable referenced : bool;  (** second-chance reference bit *)
}

type shard = {
  lock : Mutex.t;
  tbl : (Query.t, entry) Hashtbl.t;
  order : Query.t Queue.t;  (** insertion ring for the clock scan *)
  cap : int;
}

(* The lock-free read tier: a frozen copy of the shared store, published
   with a single [Atomic.set]. The table is never mutated after
   publication, so cross-domain readers need no synchronization beyond the
   atomic load (OCaml atomics are SC: the publishing store happens-before
   any load that observes it). A snapshot is only trusted while its
   generation matches the store's — after invalidate/clear it can only
   miss, and epoch-stamped keys make a stale hit unrepresentable anyway. *)
type ro = {
  rtbl : (Query.t, Response.t) Hashtbl.t;
  rgen : int;
}

type t = {
  shards : shard array;
  gen : int Atomic.t;  (** bumped by invalidate/clear; L1s revalidate *)
  ro : ro Atomic.t;
  ro_building : bool Atomic.t;  (** single-flight guard for publication *)
  ro_published : int Atomic.t;  (** live size at last snapshot publish *)
  live : int Atomic.t;  (** live shared entries (maintained under locks) *)
  wait_clock : (unit -> float) option;
  hits : int Atomic.t;
  l1_hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  canonical_hits : int Atomic.t;
  contended : int Atomic.t;
  waits : int Atomic.t;
  wait_ns_total : float Atomic.t;
  wait_ns_max : float Atomic.t;
  publishes : int Atomic.t;
  steals : int Atomic.t;
  wait_mx : Mutex.t;  (** guards [wait_res]; waits are rare by design *)
  wait_res : Reservoir.t;
}

module Snapshot = struct
  type t = {
    hits : int;
    l1_hits : int;
    misses : int;
    evictions : int;
    canonical_hits : int;
    contended : int;
    waits : int;
    wait_ns_total : float;
    wait_ns_max : float;
    wait_ns_p95 : float;
    publishes : int;
    steals : int;
    entries : int;
    capacity : int;
    shards : int;
  }

  let zero =
    {
      hits = 0;
      l1_hits = 0;
      misses = 0;
      evictions = 0;
      canonical_hits = 0;
      contended = 0;
      waits = 0;
      wait_ns_total = 0.;
      wait_ns_max = 0.;
      wait_ns_p95 = 0.;
      publishes = 0;
      steals = 0;
      entries = 0;
      capacity = 0;
      shards = 0;
    }

  let merge a b =
    {
      hits = a.hits + b.hits;
      l1_hits = a.l1_hits + b.l1_hits;
      misses = a.misses + b.misses;
      evictions = a.evictions + b.evictions;
      canonical_hits = a.canonical_hits + b.canonical_hits;
      contended = a.contended + b.contended;
      waits = a.waits + b.waits;
      wait_ns_total = a.wait_ns_total +. b.wait_ns_total;
      wait_ns_max = Float.max a.wait_ns_max b.wait_ns_max;
      (* percentiles cannot be folded exactly; the max of the two is the
         conservative (never understating) choice *)
      wait_ns_p95 = Float.max a.wait_ns_p95 b.wait_ns_p95;
      publishes = a.publishes + b.publishes;
      steals = a.steals + b.steals;
      entries = a.entries + b.entries;
      capacity = a.capacity + b.capacity;
      shards = max a.shards b.shards;
    }

  let lookups s = s.hits + s.l1_hits + s.misses

  let hit_rate s =
    let l = lookups s in
    if l = 0 then 0. else 100. *. float_of_int (s.hits + s.l1_hits) /. float_of_int l
end

let create ?(shards = 8) ?(capacity = 65536) ?wait_clock () : t =
  let shards = max 1 shards in
  let per_shard = max 1 ((capacity + shards - 1) / shards) in
  {
    shards =
      Array.init shards (fun _ ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create (min per_shard 1024);
            order = Queue.create ();
            cap = per_shard;
          });
    gen = Atomic.make 0;
    ro = Atomic.make { rtbl = Hashtbl.create 0; rgen = -1 };
    ro_building = Atomic.make false;
    ro_published = Atomic.make 0;
    live = Atomic.make 0;
    wait_clock;
    hits = Atomic.make 0;
    l1_hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    canonical_hits = Atomic.make 0;
    contended = Atomic.make 0;
    waits = Atomic.make 0;
    wait_ns_total = Atomic.make 0.;
    wait_ns_max = Atomic.make 0.;
    publishes = Atomic.make 0;
    steals = Atomic.make 0;
    wait_mx = Mutex.create ();
    wait_res = Reservoir.create ~capacity:1024 ();
  }

(* Alias queries are symmetric up to operand order: alias (l1, tr, l2) is
   alias (l2, flip tr, l1); the canonical form ([Query.canonical]) puts the
   structurally smaller location first. The desired-result and
   calling-context parameters describe the pair, not an operand, so they
   survive the swap. Every key is stamped with the program [epoch] it was
   built for — there is no epoch-less key, so an entry computed against a
   stale program version can never be hit after an edit bumps the epoch. *)
let key_of ~(epoch : int) (q : Query.t) : key option =
  match q with
  | Query.Alias _ ->
      let c = Query.canonical q in
      Some { cq = Query.at_epoch epoch c; mirrored = not (c == q) }
  | Query.Modref m ->
      (* a control-flow view holds closures; structural keying would raise
         on a bucket collision — refuse the key altogether *)
      if m.Query.mctrl = None then
        Some { cq = Query.at_epoch epoch q; mirrored = false }
      else None

let mirrored (k : key) : bool = k.mirrored
let key_epoch (k : key) : int = Query.epoch_of k.cq
let key_query (k : key) : Query.t = k.cq

let shard_index (t : t) (cq : Query.t) : int =
  Hashtbl.hash cq mod Array.length t.shards

let shard_of (t : t) (k : key) : shard = t.shards.(shard_index t k.cq)

let with_lock (s : shard) (f : unit -> 'a) : 'a =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* CAS loops for the float accumulators: boxed floats compare physically,
   and the value we read is the value we pass back, so the loop is sound. *)
let atomic_add_float (a : float Atomic.t) (x : float) : unit =
  let rec go () =
    let cur = Atomic.get a in
    if not (Atomic.compare_and_set a cur (cur +. x)) then go ()
  in
  go ()

let atomic_max_float (a : float Atomic.t) (x : float) : unit =
  let rec go () =
    let cur = Atomic.get a in
    if x > cur && not (Atomic.compare_and_set a cur x) then go ()
  in
  go ()

(* Contention accounting. The old implementation bumped [contended] on any
   [try_lock] failure — double-counting the overwhelmingly common case
   where the holder releases within nanoseconds and the blocking [lock]
   acquires instantly. Now a failed try is given a brief bounded spin
   ([cpu_relax] keeps the core polite); only when the spin also fails do we
   count a contention event, and — when a clock was injected — measure how
   long the blocking acquire actually took. *)
let spin_tries = 16

let with_lock_counted (t : t) (s : shard) (f : unit -> 'a) : 'a =
  let rec spin n = if n = 0 then false
    else begin
      Domain.cpu_relax ();
      Mutex.try_lock s.lock || spin (n - 1)
    end
  in
  (if not (Mutex.try_lock s.lock || spin spin_tries) then begin
     Atomic.incr t.contended;
     match t.wait_clock with
     | None -> Mutex.lock s.lock
     | Some clock ->
         let t0 = clock () in
         Mutex.lock s.lock;
         let dt_ns = (clock () -. t0) *. 1e9 in
         Atomic.incr t.waits;
         atomic_add_float t.wait_ns_total dt_ns;
         atomic_max_float t.wait_ns_max dt_ns;
         Mutex.lock t.wait_mx;
         Reservoir.add t.wait_res dt_ns;
         Mutex.unlock t.wait_mx
   end);
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* Second-chance eviction: walk the ring; a referenced entry gets its bit
   cleared and one more lap, the first unreferenced entry is the victim.
   Terminates within two laps (after one lap every bit is clear). *)
let evict_one (t : t) (s : shard) : unit =
  let rec scan () =
    match Queue.take_opt s.order with
    | None -> ()
    | Some q -> (
        match Hashtbl.find_opt s.tbl q with
        | None -> scan () (* stale ring slot for an overwritten key *)
        | Some e ->
            if e.referenced then begin
              e.referenced <- false;
              Queue.add q s.order;
              scan ()
            end
            else begin
              Hashtbl.remove s.tbl q;
              Atomic.decr t.live;
              Atomic.incr t.evictions
            end)
  in
  scan ()

(* Insert under an already-held shard lock (shared by [add], batch
   publication and the invalidation rebuild). *)
let insert_locked (t : t) (s : shard) (cq : Query.t) (resp : Response.t) :
    unit =
  if not (Hashtbl.mem s.tbl cq) then begin
    if Hashtbl.length s.tbl >= s.cap then evict_one t s;
    Queue.add cq s.order;
    Atomic.incr t.live
  end;
  Hashtbl.replace s.tbl cq { resp; referenced = false }

(* Read-only snapshot publication. Single-flight via [ro_building];
   republish only once the store has both reached the floor and doubled
   since the last snapshot, so the copy cost amortizes to O(1) per insert.
   The copy is taken shard by shard under each shard's own lock; if the
   generation moved while we copied, the snapshot describes a dead world
   and is simply dropped. *)
let ro_floor = 256

let maybe_publish_ro (t : t) : unit =
  let live = Atomic.get t.live in
  if
    live >= ro_floor
    && live >= 2 * Atomic.get t.ro_published
    && Atomic.compare_and_set t.ro_building false true
  then
    Fun.protect
      ~finally:(fun () -> Atomic.set t.ro_building false)
      (fun () ->
        let gen0 = Atomic.get t.gen in
        let snap = Hashtbl.create (max 16 (Atomic.get t.live)) in
        Array.iter
          (fun s ->
            with_lock s (fun () ->
                Hashtbl.iter (fun q e -> Hashtbl.replace snap q e.resp) s.tbl))
          t.shards;
        if Atomic.get t.gen = gen0 then begin
          Atomic.set t.ro { rtbl = snap; rgen = gen0 };
          Atomic.set t.ro_published (Hashtbl.length snap)
        end)

let locked_find (t : t) (k : key) : Response.t option =
  let s = shard_of t k in
  with_lock_counted t s (fun () ->
      match Hashtbl.find_opt s.tbl k.cq with
      | Some e ->
          e.referenced <- true;
          Some e.resp
      | None -> None)

let find (t : t) (k : key) : Response.t option =
  let r =
    (* lock-free tier first: a published snapshot valid for the current
       generation answers without touching any mutex (the hit skips the
       reference bit — acceptable clock imprecision for lock freedom) *)
    let ro = Atomic.get t.ro in
    if ro.rgen = Atomic.get t.gen then
      match Hashtbl.find_opt ro.rtbl k.cq with
      | Some resp -> Some resp
      | None -> locked_find t k
    else locked_find t k
  in
  (match r with
  | Some _ ->
      Atomic.incr t.hits;
      if k.mirrored then Atomic.incr t.canonical_hits
  | None -> Atomic.incr t.misses);
  r

let add (t : t) (k : key) (r : Response.t) : unit =
  let s = shard_of t k in
  with_lock s (fun () -> insert_locked t s k.cq r);
  maybe_publish_ro t

let find_q ?epoch (t : t) (q : Query.t) : Response.t option =
  let epoch = match epoch with Some e -> e | None -> Query.epoch_of q in
  match key_of ~epoch q with None -> None | Some k -> find t k

let add_q ?epoch (t : t) (q : Query.t) (r : Response.t) : unit =
  let epoch = match epoch with Some e -> e | None -> Query.epoch_of q in
  match key_of ~epoch q with None -> () | Some k -> add t k r

module Local = struct
  type cache = t

  type t = {
    shared : cache;
    mutable lgen : int;  (** store generation the L1 was filled under *)
    ltbl : (Query.t, Response.t) Hashtbl.t;
    lcap : int;
    flush_every : int;
    mutable pend : (Query.t * Response.t) list;  (** newest first *)
    mutable npend : int;
  }

  let create ?(capacity = 8192) ?(flush_every = 32) (shared : cache) : t =
    {
      shared;
      lgen = Atomic.get shared.gen;
      ltbl = Hashtbl.create 64;
      lcap = max 1 capacity;
      flush_every = max 1 flush_every;
      pend = [];
      npend = 0;
    }

  let shared (l : t) : cache = l.shared

  (* Self-invalidation: the store generation moved (invalidate/clear), so
     every L1 entry — and every pending, still-unpublished entry, which was
     computed against the superseded program state — is dropped. *)
  let validate (l : t) : unit =
    let g = Atomic.get l.shared.gen in
    if g <> l.lgen then begin
      Hashtbl.reset l.ltbl;
      l.pend <- [];
      l.npend <- 0;
      l.lgen <- g
    end

  (* The L1 is a hint, the store holds the truth: on overflow just drop it
     and refill, no eviction bookkeeping on the per-query hot path. *)
  let l1_put (l : t) (cq : Query.t) (r : Response.t) : unit =
    if Hashtbl.length l.ltbl >= l.lcap then Hashtbl.reset l.ltbl;
    Hashtbl.replace l.ltbl cq r

  let flush (l : t) : unit =
    validate l;
    if l.npend > 0 then begin
      let c = l.shared in
      let nsh = Array.length c.shards in
      let buckets = Array.make nsh [] in
      (* [pend] is newest-first; prepending flips each bucket to
         chronological order, so a re-answered query publishes its latest
         response last *)
      List.iter
        (fun ((cq, _) as p) ->
          let i = Hashtbl.hash cq mod nsh in
          buckets.(i) <- p :: buckets.(i))
        l.pend;
      Array.iteri
        (fun i bucket ->
          match bucket with
          | [] -> ()
          | _ ->
              let s = c.shards.(i) in
              with_lock s (fun () ->
                  List.iter (fun (cq, r) -> insert_locked c s cq r) bucket))
        buckets;
      ignore (Atomic.fetch_and_add c.publishes l.npend);
      l.pend <- [];
      l.npend <- 0;
      maybe_publish_ro c
    end

  let find (l : t) (k : key) : Response.t option =
    validate l;
    match Hashtbl.find_opt l.ltbl k.cq with
    | Some r ->
        Atomic.incr l.shared.l1_hits;
        if k.mirrored then Atomic.incr l.shared.canonical_hits;
        Some r
    | None -> (
        match find l.shared k with
        | Some r ->
            (* pull the shared hit into the L1 so the next probe is free;
               not pending — the store already has it *)
            l1_put l k.cq r;
            Some r
        | None -> None)

  let add (l : t) (k : key) (r : Response.t) : unit =
    validate l;
    l1_put l k.cq r;
    l.pend <- (k.cq, r) :: l.pend;
    l.npend <- l.npend + 1;
    if l.npend >= l.flush_every then flush l

  let find_q ?epoch (l : t) (q : Query.t) : Response.t option =
    let epoch = match epoch with Some e -> e | None -> Query.epoch_of q in
    match key_of ~epoch q with None -> None | Some k -> find l k

  let pending (l : t) : int = l.npend
  let size (l : t) : int = Hashtbl.length l.ltbl
end

(* Invalidation after a program edit: evict every entry whose query the
   predicate marks dirty and restamp the survivors to the new epoch, so
   they keep hitting for lookups keyed at [next_epoch]. Restamping changes
   the structural hash, so survivors are drained out of every shard first
   and re-routed through the normal shard function. The generation bump —
   taken before the drain — retires every L1 and read-only snapshot.
   Callers must quiesce concurrent writers around the edit (and flush any
   live locals first — see Local.flush); readers racing the walk can only
   miss, never hit a stale entry. *)
let invalidate (t : t) ~(dirty : Query.t -> bool) ~(next_epoch : int) :
    int * int =
  Atomic.incr t.gen;
  let evicted = ref 0 in
  let survivors = ref [] in
  Array.iter
    (fun s ->
      with_lock s (fun () ->
          Hashtbl.iter
            (fun q e ->
              if dirty q then incr evicted
              else survivors := (Query.at_epoch next_epoch q, e) :: !survivors)
            s.tbl;
          Hashtbl.reset s.tbl;
          Queue.clear s.order))
    t.shards;
  Atomic.set t.live 0;
  Atomic.set t.ro_published 0;
  List.iter
    (fun ((q', e) : Query.t * entry) ->
      let s = t.shards.(shard_index t q') in
      with_lock s (fun () ->
          if not (Hashtbl.mem s.tbl q') then begin
            if Hashtbl.length s.tbl >= s.cap then evict_one t s;
            Queue.add q' s.order;
            Atomic.incr t.live
          end;
          Hashtbl.replace s.tbl q' e))
    !survivors;
  (!evicted, List.length !survivors)

let note_steals (t : t) (n : int) : unit =
  if n > 0 then ignore (Atomic.fetch_and_add t.steals n)

let generation (t : t) : int = Atomic.get t.gen
let length (t : t) : int = Atomic.get t.live

let snapshot (t : t) : Snapshot.t =
  let p95 =
    Mutex.lock t.wait_mx;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.wait_mx)
      (fun () ->
        if Reservoir.count t.wait_res = 0 then 0.
        else Reservoir.percentile t.wait_res 95.)
  in
  {
    Snapshot.hits = Atomic.get t.hits;
    l1_hits = Atomic.get t.l1_hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    canonical_hits = Atomic.get t.canonical_hits;
    contended = Atomic.get t.contended;
    waits = Atomic.get t.waits;
    wait_ns_total = Atomic.get t.wait_ns_total;
    wait_ns_max = Atomic.get t.wait_ns_max;
    wait_ns_p95 = p95;
    publishes = Atomic.get t.publishes;
    steals = Atomic.get t.steals;
    entries = Atomic.get t.live;
    capacity = Array.fold_left (fun acc s -> acc + s.cap) 0 t.shards;
    shards = Array.length t.shards;
  }

let clear (t : t) : unit =
  Atomic.incr t.gen;
  Array.iter
    (fun s ->
      with_lock s (fun () ->
          Hashtbl.reset s.tbl;
          Queue.clear s.order))
    t.shards;
  Atomic.set t.live 0;
  Atomic.set t.ro_published 0
