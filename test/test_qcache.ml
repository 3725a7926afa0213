(** Tests for the canonicalizing sharded cache (Qcache), the latency
    reservoir, and the domain-parallel batch engine: canonicalization and
    mirror-query sharing, second-chance eviction, the closure-key
    regression ([mctrl] views must never become table keys), and the
    qcheck equivalences (parallel batch = sequential; ask q = ask
    (mirror q)). *)

open Scaf
open Scaf_ir
open Scaf_pdg
module Reservoir = Scaf_trace.Reservoir

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let nomodref_free = Response.free (Aresult.RModref Aresult.NoModRef)

let mloc ?(size = 8) ptr : Value.t * int = (ptr, size)

let alias_q ?dr ~tr p1 p2 =
  Query.alias ?dr ~fname:"main" ~tr (mloc p1) (mloc p2)

let mirror (q : Query.t) : Query.t =
  match q with
  | Query.Alias a ->
      Query.Alias
        {
          a with
          Query.a1 = a.Query.a2;
          a2 = a.Query.a1;
          atr = Query.flip_temporal a.Query.atr;
        }
  | Query.Modref _ -> q

(* -- canonicalization ----------------------------------------------- *)

let test_canonical_alias_sharing () =
  let c = Qcache.create () in
  let q = alias_q ~tr:Query.Before (Value.Global "a") (Value.Global "b") in
  Qcache.add_q c q nomodref_free;
  (* the mirrored form must land on the same entry *)
  (match Qcache.find_q c (mirror q) with
  | Some r ->
      checkb "mirrored query shares the entry" true
        (r.Response.result = Aresult.RModref Aresult.NoModRef)
  | None -> Alcotest.fail "mirrored alias query missed");
  let s = Qcache.snapshot c in
  checki "one entry, not two" 1 s.Qcache.Snapshot.entries;
  checki "one hit" 1 s.Qcache.Snapshot.hits;
  checki "counted as canonical hit" 1 s.Qcache.Snapshot.canonical_hits;
  (* the straight form hits without the canonical marker *)
  ignore (Qcache.find_q c q);
  let s = Qcache.snapshot c in
  checki "two hits" 2 s.Qcache.Snapshot.hits;
  checki "still one canonical hit" 1 s.Qcache.Snapshot.canonical_hits

let test_canonical_same_temporal () =
  (* Same is its own flip: both operand orders still share one entry *)
  let c = Qcache.create () in
  let q = alias_q ~tr:Query.Same (Value.Global "x") (Value.Global "y") in
  Qcache.add_q c q nomodref_free;
  checkb "mirror of a Same query hits" true (Qcache.find_q c (mirror q) <> None);
  checki "one entry" 1 (Qcache.snapshot c).Qcache.Snapshot.entries

let test_modref_not_mirrored () =
  (* modref is directional: src/dst swapped is a different question *)
  let c = Qcache.create () in
  Qcache.add_q c (Query.modref_instrs ~tr:Query.Same 1 2) nomodref_free;
  checkb "swapped modref misses" true
    (Qcache.find_q c (Query.modref_instrs ~tr:Query.Same 2 1) = None)

let test_asymmetric_modref_counters () =
  (* a directional modref hit must never be credited to canonicalization *)
  let c = Qcache.create () in
  let q = Query.modref_instrs ~tr:Query.Before 3 9 in
  Qcache.add_q c q nomodref_free;
  checkb "direct hit" true (Qcache.find_q c q <> None);
  checkb "swapped+flipped form misses" true
    (Qcache.find_q c (Query.modref_instrs ~tr:Query.After 9 3) = None);
  let s = Qcache.snapshot c in
  checki "one hit" 1 s.Qcache.Snapshot.hits;
  checki "one miss" 1 s.Qcache.Snapshot.misses;
  checki "no canonical hits on directional modref" 0
    s.Qcache.Snapshot.canonical_hits

(* Canonicalization must never conflate the Mod direction with the Ref
   direction: modref(i1, tr, i2) asks whether i1 touches what i2 accesses;
   the swapped (and temporally flipped) query is a different question. *)
let prop_modref_direction_never_conflated =
  QCheck.Test.make ~name:"canonicalization keeps Mod vs Ref direction"
    ~count:200
    QCheck.(
      triple (int_bound 50) (int_bound 50)
        (oneofl [ Query.Before; Query.Same; Query.After ]))
    (fun (i1, i2, tr) ->
      QCheck.assume (i1 <> i2);
      let q = Query.modref_instrs ~tr i1 i2 in
      let swapped =
        Query.modref_instrs ~tr:(Query.flip_temporal tr) i2 i1
      in
      let c = Qcache.create ~shards:1 () in
      Qcache.add_q c q nomodref_free;
      Qcache.key_of ~epoch:0 q <> Qcache.key_of ~epoch:0 swapped
      && Qcache.find_q c swapped = None
      && (Qcache.snapshot c).Qcache.Snapshot.canonical_hits = 0)

(* -- epoch stamping and the invalidation walk ----------------------- *)

(* Entries from superseded program states must be unreachable by
   construction: the same query at a different epoch is a different
   key, so a lookup after an epoch bump never sees stale answers. *)
let test_epoch_separates_entries () =
  let c = Qcache.create ~shards:1 () in
  let q = Query.modref_instrs ~tr:Query.Same 1 2 in
  Qcache.add_q ~epoch:0 c q nomodref_free;
  checkb "hit at its own epoch" true (Qcache.find_q ~epoch:0 c q <> None);
  checkb "miss at the next epoch" true (Qcache.find_q ~epoch:1 c q = None);
  checkb "keys differ across epochs" true
    (Qcache.key_of ~epoch:0 q <> Qcache.key_of ~epoch:1 q);
  let k = Option.get (Qcache.key_of ~epoch:3 q) in
  checki "key remembers its epoch" 3 (Qcache.key_epoch k)

let test_invalidate_evicts_and_restamps () =
  let c = Qcache.create ~shards:1 () in
  let q1 = Query.modref_instrs ~tr:Query.Same 1 2 in
  let q2 = Query.modref_instrs ~tr:Query.Same 3 4 in
  Qcache.add_q ~epoch:0 c q1 nomodref_free;
  Qcache.add_q ~epoch:0 c q2 nomodref_free;
  let dirty q =
    match q with Query.Modref { minstr = 1; _ } -> true | _ -> false
  in
  let evicted, retained = Qcache.invalidate c ~dirty ~next_epoch:1 in
  checki "one entry evicted" 1 evicted;
  checki "one entry retained" 1 retained;
  checkb "dirty entry gone at the new epoch" true
    (Qcache.find_q ~epoch:1 c q1 = None);
  checkb "survivor restamped to the new epoch" true
    (Qcache.find_q ~epoch:1 c q2 <> None);
  checkb "survivor unreachable at the old epoch" true
    (Qcache.find_q ~epoch:0 c q2 = None)

(* -- key safety: control-flow views hold closures ------------------- *)

let tiny_prog =
  Scaf_cfg.Progctx.build
    (Parser.parse_exn_msg "func @main() {\nentry:\n  ret\n}")

let ctrl_view () = Option.get (Scaf_cfg.Progctx.ctrl_of tiny_prog "main")

let test_ctrl_query_has_no_key () =
  let q = Query.modref_instrs ~ctrl:(ctrl_view ()) ~tr:Query.Same 1 2 in
  checkb "mctrl query refused as key" true (Qcache.key_of ~epoch:0 q = None);
  checkb "plain modref keyed" true
    (Qcache.key_of ~epoch:0 (Query.modref_instrs ~tr:Query.Same 1 2) <> None)

let test_ctrl_query_roundtrip_regression () =
  (* regression: a speculative-view query must round-trip through the
     orchestrator (twice: the second resolution must not consult a memo
     keyed on a closure) without Invalid_argument "compare: functional
     value" *)
  let evals = ref 0 in
  let m =
    Module_api.make ~name:"m" ~kind:Module_api.Memory ~factored:false
      (fun _ q ->
        incr evals;
        match q with Query.Modref _ -> nomodref_free | _ -> Module_api.no_answer q)
  in
  let o = Orchestrator.create tiny_prog (Orchestrator.default_config [ m ]) in
  let q = Query.modref_instrs ~ctrl:(ctrl_view ()) ~tr:Query.Same 1 2 in
  let r1 = Orchestrator.handle o q in
  let r2 = Orchestrator.handle o q in
  checkb "answered" true (r1.Response.result = Aresult.RModref Aresult.NoModRef);
  checkb "same answer" true (Aresult.equal r1.Response.result r2.Response.result);
  (* never memoized: both resolutions evaluated the module *)
  checki "view queries bypass the cache" 2 !evals

(* -- bounded capacity and second-chance eviction -------------------- *)

let mq n = Query.modref_instrs ~tr:Query.Same n (n + 1)

let test_bounded_eviction () =
  let c = Qcache.create ~shards:1 ~capacity:4 () in
  List.iter (fun n -> Qcache.add_q c (mq n) nomodref_free) [ 0; 1; 2; 3; 4; 5 ];
  checki "capacity respected" 4 (Qcache.length c);
  checkb "evictions counted" true
    ((Qcache.snapshot c).Qcache.Snapshot.evictions >= 2)

let test_second_chance_protects_hot_entry () =
  let c = Qcache.create ~shards:1 ~capacity:4 () in
  List.iter (fun n -> Qcache.add_q c (mq n) nomodref_free) [ 0; 1; 2; 3 ];
  (* touch the oldest entry: its reference bit must save it once *)
  checkb "hot entry present" true (Qcache.find_q c (mq 0) <> None);
  Qcache.add_q c (mq 4) nomodref_free;
  checkb "hot entry survived the scan" true (Qcache.find_q c (mq 0) <> None);
  checkb "cold head evicted instead" true (Qcache.find_q c (mq 1) = None)

let test_clear_keeps_counters () =
  let c = Qcache.create () in
  Qcache.add_q c (mq 1) nomodref_free;
  ignore (Qcache.find_q c (mq 1));
  Qcache.clear c;
  checki "empty after clear" 0 (Qcache.length c);
  checki "hit counter kept" 1 (Qcache.snapshot c).Qcache.Snapshot.hits

(* -- shared cache across orchestrators ------------------------------ *)

let test_shared_cache_across_orchestrators () =
  let evals = ref 0 in
  let m =
    Module_api.make ~name:"m" ~kind:Module_api.Memory ~factored:false
      (fun _ q ->
        incr evals;
        match q with Query.Modref _ -> nomodref_free | _ -> Module_api.no_answer q)
  in
  let cache = Qcache.create () in
  let o1 = Orchestrator.create ~cache tiny_prog (Orchestrator.default_config [ m ]) in
  let o2 = Orchestrator.create ~cache tiny_prog (Orchestrator.default_config [ m ]) in
  ignore (Orchestrator.handle o1 (mq 7));
  (* o1's answer sits in its private L1 batch until published *)
  Orchestrator.flush_cache o1;
  ignore (Orchestrator.handle o2 (mq 7));
  checki "second orchestrator reused the first's entry" 1 !evals

(* -- the latency reservoir ------------------------------------------ *)

let test_reservoir_bounded_exact_count () =
  let r = Reservoir.create ~capacity:16 () in
  for i = 1 to 1000 do
    Reservoir.add r (float_of_int i)
  done;
  checki "exact count" 1000 (Reservoir.count r);
  checki "sample bounded" 16 (List.length (Reservoir.samples r));
  let p50 = Reservoir.percentile r 50.0 in
  checkb "percentile inside observed range" true (p50 >= 1.0 && p50 <= 1000.0)

let test_reservoir_small_stream_kept_whole () =
  let r = Reservoir.create ~capacity:16 () in
  List.iter (Reservoir.add r) [ 3.0; 1.0; 2.0 ];
  checki "count" 3 (Reservoir.count r);
  checki "all retained" 3 (List.length (Reservoir.samples r));
  Alcotest.check (Alcotest.float 1e-9) "p0 is the min" 1.0
    (Reservoir.percentile r 0.0);
  Alcotest.check (Alcotest.float 1e-9) "p100 is the max" 3.0
    (Reservoir.percentile r 100.0)

let test_reservoir_merge_counts () =
  let a = Reservoir.create ~capacity:8 () in
  let b = Reservoir.create ~capacity:8 () in
  for i = 1 to 20 do
    Reservoir.add a (float_of_int i)
  done;
  for i = 1 to 5 do
    Reservoir.add b (float_of_int i)
  done;
  Reservoir.merge ~into:a b;
  checki "merged count exact" 25 (Reservoir.count a);
  checki "sample still bounded" 8 (List.length (Reservoir.samples a))

(* -- ask_many and the parallel batch path ---------------------------- *)

let resp_equal (a : Response.t) (b : Response.t) : bool =
  Aresult.equal a.Response.result b.Response.result
  && Response.Sset.equal a.Response.provenance b.Response.provenance
  && a.Response.options = b.Response.options

let test_ask_many_order () =
  let o =
    Orchestrator.create tiny_prog
      (Orchestrator.default_config
         [
           Module_api.make ~name:"echo" ~kind:Module_api.Memory ~factored:false
             (fun _ q ->
               match q with
               | Query.Modref m when m.Query.minstr mod 2 = 0 -> nomodref_free
               | _ -> Module_api.no_answer q);
         ])
  in
  let qs = List.init 10 mq in
  let rs = Orchestrator.ask_many o qs in
  checki "one response per query" 10 (List.length rs);
  List.iteri
    (fun i (r : Response.t) ->
      checkb
        (Printf.sprintf "response %d answers query %d" i i)
        true
        (if i mod 2 = 0 then r.Response.result = Aresult.RModref Aresult.NoModRef
         else Aresult.is_bottom r.Response.result))
    rs

(* Random suite programs: the parallel batch path must return exactly the
   sequential responses, at every job count. *)
let prop_parallel_equals_sequential =
  let bench_names = Scaf_suite.Registry.names in
  QCheck.Test.make ~name:"batch path: jobs in {1,2,4} = sequential" ~count:8
    QCheck.(pair (oneofl bench_names) small_nat)
    (fun (bname, skip) ->
      let b = Option.get (Scaf_suite.Registry.find bname) in
      let profiles = Scaf_suite.Program.profiles b in
      let prog = profiles.Scaf_profile.Profiles.ctx in
      let lids = List.map fst (Nodep.hot_loop_weights profiles) in
      match lids with
      | [] -> true
      | _ ->
          let lid = List.nth lids (skip mod List.length lids) in
          let qs =
            List.map (Pdg.to_query lid) (Pdg.queries_of_loop prog lid)
          in
          let seq =
            let r = (Schemes.scaf_scheme profiles).Schemes.spawn () in
            List.map r.Schemes.resolve qs
          in
          List.for_all
            (fun jobs ->
              let scheme = Schemes.scaf_scheme profiles in
              let par =
                Scheduler.with_pool ~jobs (fun pool ->
                    Scheduler.map pool ~state:scheme.Schemes.spawn
                      ~f:(fun (r : Schemes.resolver) q -> r.Schemes.resolve q)
                      qs)
              in
              List.for_all2 resp_equal seq par)
            [ 1; 2; 4 ])

(* -- the work-stealing scheduler and the two-tier cache -------------- *)

let test_scheduler_order_and_reuse () =
  Scheduler.with_pool ~jobs:4 (fun pool ->
      checki "pool size" 4 (Scheduler.size pool);
      let out =
        Scheduler.map pool
          ~state:(fun () -> ())
          ~f:(fun () i -> i * i)
          (List.init 100 Fun.id)
      in
      checkb "results reassembled in submission order" true
        (out = List.init 100 (fun i -> i * i));
      (* the same pool must serve a second batch (no respawned domains) *)
      let out2 =
        Scheduler.map pool
          ~state:(fun () -> ())
          ~f:(fun () i -> i + 1)
          (List.init 7 Fun.id)
      in
      checkb "pool reusable across batches" true
        (out2 = List.init 7 (fun i -> i + 1));
      checkb "empty batch" true
        (Scheduler.map pool ~state:(fun () -> ()) ~f:(fun () i -> i) [] = []);
      checkb "steal counter monotone" true (Scheduler.steals pool >= 0))

let test_scheduler_exception_propagates () =
  let raised =
    try
      Scheduler.with_pool ~jobs:2 (fun pool ->
          ignore
            (Scheduler.map pool
               ~state:(fun () -> ())
               ~f:(fun () i -> if i = 5 then failwith "boom" else i)
               (List.init 10 Fun.id)));
      false
    with Failure m -> m = "boom"
  in
  checkb "worker exception re-raised at the submitter" true raised

let test_scheduler_shutdown_idempotent () =
  let pool = Scheduler.create ~jobs:2 () in
  Scheduler.shutdown pool;
  Scheduler.shutdown pool;
  checkb "map after shutdown refused" true
    (try
       ignore (Scheduler.map pool ~state:(fun () -> ()) ~f:(fun () i -> i) [ 1 ]);
       false
     with Invalid_argument _ -> true)

(* Resolve [qs] at [epoch] through a per-worker two-tier front: L1 probe,
   shared probe, else compute and record. The determinism contract makes
   any hit byte-equal to a recompute, so the responses must match a
   cache-free sequential pass no matter how L1 publishes, steals and
   generation bumps interleave. *)
let resolve_two_tier ~jobs ~l1_capacity ~flush_every ~epoch
    (profiles : Scaf_profile.Profiles.t) (c : Qcache.t) (qs : Query.t list) :
    Response.t list =
  let scheme = Schemes.scaf_scheme profiles in
  Scheduler.with_pool ~jobs (fun pool ->
      Scheduler.map pool
        ~state:(fun () ->
          ( Qcache.Local.create ~capacity:l1_capacity ~flush_every c,
            scheme.Schemes.spawn () ))
        ~f:(fun ((l1, r) : Qcache.Local.t * Schemes.resolver) q ->
          match Qcache.Local.find_q ~epoch l1 q with
          | Some resp -> resp
          | None ->
              let resp = r.Schemes.resolve q in
              (match Qcache.key_of ~epoch q with
              | Some k -> Qcache.Local.add l1 k resp
              | None -> ());
              resp)
        qs)

let hot_queries (profiles : Scaf_profile.Profiles.t) : Query.t list =
  let prog = profiles.Scaf_profile.Profiles.ctx in
  List.concat_map
    (fun (lid, _) -> List.map (Pdg.to_query lid) (Pdg.queries_of_loop prog lid))
    (Nodep.hot_loop_weights profiles)

(* Every suite program, 4 worker domains, small L1s flushed in tiny
   batches, and a generation bump halfway through: the answers must be
   exactly the sequential ones. *)
let test_all_programs_two_tier_jobs4 () =
  List.iter
    (fun bname ->
      let b = Option.get (Scaf_suite.Registry.find bname) in
      let profiles = Scaf_suite.Program.profiles b in
      let qs = hot_queries profiles in
      if qs <> [] then begin
        let seq =
          let r = (Schemes.scaf_scheme profiles).Schemes.spawn () in
          List.map r.Schemes.resolve qs
        in
        let c = Qcache.create () in
        let n = List.length qs in
        let first = List.filteri (fun i _ -> i < n / 2) qs in
        let second = List.filteri (fun i _ -> i >= n / 2) qs in
        let r1 =
          resolve_two_tier ~jobs:4 ~l1_capacity:64 ~flush_every:2 ~epoch:0
            profiles c first
        in
        ignore (Qcache.invalidate c ~dirty:(fun _ -> false) ~next_epoch:1);
        let r2 =
          resolve_two_tier ~jobs:4 ~l1_capacity:64 ~flush_every:2 ~epoch:1
            profiles c second
        in
        List.iter2
          (fun a b ->
            checkb (bname ^ ": two-tier parallel = sequential") true
              (resp_equal a b))
          seq (r1 @ r2)
      end)
    Scaf_suite.Registry.names

(* Random L1 capacity / publication batch size / job count / program, with
   a mid-stream epoch bump: still byte-equal to sequential. *)
let prop_l1_interleaving_equals_sequential =
  let bench_names = Scaf_suite.Registry.names in
  QCheck.Test.make
    ~name:"two-tier interleavings (publish/steal/epoch bump) = sequential"
    ~count:6
    QCheck.(
      pair (oneofl bench_names)
        (triple
           (oneofl [ 1; 2; 7; 32 ])
           (oneofl [ 2; 4; 8192 ])
           (oneofl [ 2; 3; 4 ])))
    (fun (bname, (flush_every, l1_capacity, jobs)) ->
      let b = Option.get (Scaf_suite.Registry.find bname) in
      let profiles = Scaf_suite.Program.profiles b in
      let qs = hot_queries profiles in
      match qs with
      | [] -> true
      | _ ->
          let seq =
            let r = (Schemes.scaf_scheme profiles).Schemes.spawn () in
            List.map r.Schemes.resolve qs
          in
          let c = Qcache.create () in
          let n = List.length qs in
          let first = List.filteri (fun i _ -> i < n / 2) qs in
          let second = List.filteri (fun i _ -> i >= n / 2) qs in
          let r1 =
            resolve_two_tier ~jobs ~l1_capacity ~flush_every ~epoch:0 profiles
              c first
          in
          ignore (Qcache.invalidate c ~dirty:(fun _ -> false) ~next_epoch:1);
          let r2 =
            resolve_two_tier ~jobs ~l1_capacity ~flush_every ~epoch:1 profiles
              c second
          in
          List.for_all2 resp_equal seq (r1 @ r2))

(* Counter exactness across 4 domains: each work item is self-contained
   (probe-miss, add, probe-hit on a distinct key), so every snapshot
   counter has one provably exact value no matter how the items were
   stolen between deques. *)
let test_four_domain_counter_exactness () =
  let c = Qcache.create () in
  let n = 100 in
  let outs =
    Scheduler.with_pool ~jobs:4 (fun pool ->
        Scheduler.map pool
          ~state:(fun () -> Qcache.Local.create ~capacity:512 ~flush_every:1 c)
          ~f:(fun l1 i ->
            let k = Option.get (Qcache.key_of ~epoch:0 (mq i)) in
            let first = Qcache.Local.find l1 k in
            Qcache.Local.add l1 k nomodref_free;
            let second = Qcache.Local.find l1 k in
            (first = None, second <> None))
          (List.init n Fun.id))
  in
  checkb "every first probe missed" true (List.for_all fst outs);
  checkb "every second probe hit the owner's L1" true (List.for_all snd outs);
  let s = Qcache.snapshot c in
  checki "misses: one per item" n s.Qcache.Snapshot.misses;
  checki "l1 hits: one per item" n s.Qcache.Snapshot.l1_hits;
  checki "no shared-store hits" 0 s.Qcache.Snapshot.hits;
  checki "publishes = adds" n s.Qcache.Snapshot.publishes;
  checki "entries = distinct queries" n s.Qcache.Snapshot.entries;
  checki "lookups sums every tier" (2 * n) (Qcache.Snapshot.lookups s);
  checki "no canonical hits on modref keys" 0 s.Qcache.Snapshot.canonical_hits;
  checki "no measured waits without a wait clock" 0 s.Qcache.Snapshot.waits;
  (* steal attribution is explicit: the engine reports the pool's delta *)
  Qcache.note_steals c 3;
  checki "note_steals surfaces in the snapshot" 3
    (Qcache.snapshot c).Qcache.Snapshot.steals

(* Canonicalized alias queries: ask q = ask (mirror q). *)
let prop_mirror_alias_equal =
  let arb_val =
    QCheck.oneofl
      [
        Value.Global "a";
        Value.Global "b";
        Value.Reg "i";
        Value.Reg "v";
        Value.Int 0L;
        Value.Int 8L;
        Value.Null;
      ]
  in
  let arb_tr = QCheck.oneofl [ Query.Before; Query.Same; Query.After ] in
  let arb_sz = QCheck.oneofl [ 1; 4; 8 ] in
  let bench = Option.get (Scaf_suite.Registry.find "181.mcf") in
  let profiles = lazy (Scaf_suite.Program.profiles bench) in
  QCheck.Test.make ~name:"canonicalized alias: ask q = ask (mirror q)"
    ~count:60
    QCheck.(quad arb_val arb_sz arb_val arb_tr)
    (fun (p1, s1, p2, tr) ->
      let profiles = Lazy.force profiles in
      let r = (Schemes.scaf_scheme profiles).Schemes.spawn () in
      let q = Query.alias ~fname:"main" ~tr (p1, s1) (p2, 8) in
      let rq = r.Schemes.resolve q in
      let rm = r.Schemes.resolve (mirror q) in
      Aresult.equal rq.Response.result rm.Response.result
      && Response.Options.cheapest_cost rq.Response.options
         = Response.Options.cheapest_cost rm.Response.options)

let suite =
  [
    ( "qcache",
      [
        Alcotest.test_case "canonical alias sharing" `Quick
          test_canonical_alias_sharing;
        Alcotest.test_case "Same temporal mirrors" `Quick
          test_canonical_same_temporal;
        Alcotest.test_case "modref not mirrored" `Quick test_modref_not_mirrored;
        Alcotest.test_case "asymmetric modref counters" `Quick
          test_asymmetric_modref_counters;
        QCheck_alcotest.to_alcotest prop_modref_direction_never_conflated;
        Alcotest.test_case "epochs separate entries" `Quick
          test_epoch_separates_entries;
        Alcotest.test_case "invalidate evicts and restamps" `Quick
          test_invalidate_evicts_and_restamps;
        Alcotest.test_case "ctrl query has no key" `Quick
          test_ctrl_query_has_no_key;
        Alcotest.test_case "ctrl query round-trip (regression)" `Quick
          test_ctrl_query_roundtrip_regression;
        Alcotest.test_case "bounded eviction" `Quick test_bounded_eviction;
        Alcotest.test_case "second chance protects hot entry" `Quick
          test_second_chance_protects_hot_entry;
        Alcotest.test_case "clear keeps counters" `Quick test_clear_keeps_counters;
        Alcotest.test_case "shared cache across orchestrators" `Quick
          test_shared_cache_across_orchestrators;
      ] );
    ( "reservoir",
      [
        Alcotest.test_case "bounded sample, exact count" `Quick
          test_reservoir_bounded_exact_count;
        Alcotest.test_case "small stream kept whole" `Quick
          test_reservoir_small_stream_kept_whole;
        Alcotest.test_case "merge keeps exact counts" `Quick
          test_reservoir_merge_counts;
      ] );
    ( "parallel",
      [
        Alcotest.test_case "ask_many preserves order" `Quick test_ask_many_order;
        Alcotest.test_case "scheduler order and pool reuse" `Quick
          test_scheduler_order_and_reuse;
        Alcotest.test_case "scheduler exception propagates" `Quick
          test_scheduler_exception_propagates;
        Alcotest.test_case "scheduler shutdown idempotent" `Quick
          test_scheduler_shutdown_idempotent;
        Alcotest.test_case "all programs: two-tier @ jobs=4 = sequential"
          `Quick test_all_programs_two_tier_jobs4;
        Alcotest.test_case "4-domain counter exactness" `Quick
          test_four_domain_counter_exactness;
        QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
        QCheck_alcotest.to_alcotest prop_l1_interleaving_equals_sequential;
        QCheck_alcotest.to_alcotest prop_mirror_alias_equal;
      ] );
  ]
