(** Properties of the incremental re-analysis engine.

    Two qcheck properties over random benchmarks and random edit scripts:

    - {e differential}: after any edit script, the incremental session's
      workload answers are byte-identical to a from-scratch batch session
      over the same edited program;
    - {e precision}: an edit to loop [L] never recomputes a query whose
      read-set excludes [L] — judged by the recompute counters over the
      queries whose provenance closure (premise-transitive functions,
      widened by their value-flow components) misses the edited function.

    Plus deterministic unit tests of the session lifecycle: epoch
    stamping, counter behavior, invalidation stats sanity, and the
    daemon-facing auto edit. *)

open Scaf_suite
open Scaf_incremental

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* The same phi-prefix rule the scripted edit uses: inserted instructions
   must land after a header block's leading phis. *)
let phi_prefix (p : Program.t) (fname : string) (header : string) : int =
  match
    Option.bind
      (Scaf_ir.Irmod.find_func (Program.program p) fname)
      (fun f -> Scaf_ir.Func.find_block f header)
  with
  | None -> 0
  | Some b ->
      let rec go n = function
        | { Scaf_ir.Instr.kind = Scaf_ir.Instr.Phi _; _ } :: rest ->
            go (n + 1) rest
        | _ -> n
      in
      go 0 b.Scaf_ir.Block.instrs

let split_lid lid =
  match String.index_opt lid ':' with
  | Some i ->
      (String.sub lid 0 i, String.sub lid (i + 1) (String.length lid - i - 1))
  | None -> invalid_arg ("malformed lid " ^ lid)

let hot_lids (s : Session.t) : string list =
  List.map fst
    (Scaf_pdg.Nodep.hot_loop_weights (Program.profiles (Session.program s)))

(* One random single-op edit round: usually an insert into a randomly
   chosen hot loop's header, sometimes a delete of an instruction a
   previous round inserted (its result is never referenced, so deletion
   always re-verifies). *)
let random_op (s : Session.t) ~(round : int) ~(pick : int)
    ~(inserted : int list) : Edit.op =
  let lids = hot_lids s in
  let lid = List.nth lids (pick mod List.length lids) in
  let fname, header = split_lid lid in
  if round land 1 = 1 && inserted <> [] then
    Edit.Delete_instr { id = List.hd inserted }
  else
    Edit.Insert_instr
      {
        fname;
        block = header;
        at = phi_prefix (Session.program s) fname header;
        text =
          Printf.sprintf "  %%__q%d_%d = add 1, 2" (Session.epoch s) round;
      }

(* (a) Incremental answers are byte-identical to a from-scratch batch run
   of the edited program, for every random edit script. *)
let prop_incremental_equals_batch =
  QCheck.Test.make
    ~name:"random edit scripts: incremental = batch, byte-identical"
    ~count:10
    QCheck.(triple (oneofl Registry.names) (int_bound 2) small_nat)
    (fun (bname, extra_rounds, pick0) ->
      let s = Session.create (Option.get (Registry.find bname)) in
      List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s);
      let inserted = ref [] in
      for round = 0 to extra_rounds do
        let op = random_op s ~round ~pick:(pick0 + round) ~inserted:!inserted in
        match Session.edit s [ op ] with
        | Error e ->
            QCheck.Test.fail_reportf "%s: edit failed: %s" bname
              (Scaf_lint.Diagnostic.to_summary e)
        | Ok (diff, _) -> (
            match op with
            | Edit.Insert_instr _ ->
                inserted := diff.Edit.touched_instrs @ !inserted
            | Edit.Delete_instr _ -> inserted := List.tl !inserted
            | Edit.Replace_loop_body _ -> ())
      done;
      let inc = Session.render_answers s (Session.workload s) in
      let b = Session.baseline s in
      let batch = Session.render_answers b (Session.workload b) in
      if not (String.equal inc batch) then
        QCheck.Test.fail_reportf "%s: incremental/batch answers diverge"
          bname;
      true)

(* The provenance read-set of a cached query: every function reachable
   through its premise closure in the collector graph, widened by the
   value-flow components the invalidation pass itself uses. *)
let closure_funcs (g : Collector.graph) (q : Scaf.Query.t) : string list =
  let seen = Hashtbl.create 16 in
  let funcs = Hashtbl.create 16 in
  let rec go key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      match Collector.node_of g key with
      | None -> ()
      | Some n ->
          List.iter (fun f -> Hashtbl.replace funcs f ()) n.Collector.nfuncs;
          List.iter go n.Collector.npremises
    end
  in
  go (Collector.key_of_query q);
  Hashtbl.fold (fun f () acc -> f :: acc) funcs []

(* (b) An edit to loop L never recomputes a query whose read-set excludes
   L: after the scripted single-loop edit, every workload query whose
   pre-edit provenance closure misses the edited function (and its
   value-flow component) must still hit the cache. *)
let prop_no_foreign_recompute =
  QCheck.Test.make
    ~name:"edit to L recomputes no query whose read-set excludes L" ~count:8
    QCheck.(oneofl Registry.names)
    (fun bname ->
      let p = Option.get (Registry.find bname) in
      let s = Session.create p in
      let qs = Session.workload s in
      List.iter (fun q -> ignore (Session.ask s q)) qs;
      let op = Session.auto_edit s in
      let edited_fn =
        match op with
        | Edit.Insert_instr { fname; _ } -> fname
        | _ -> QCheck.Test.fail_report "auto_edit is an insert"
      in
      let comps = Components.build [ Program.program p ] in
      let near = Components.reach comps ~funcs:[ edited_fn ] ~globals:[] in
      let foreign =
        List.filter
          (fun q ->
            let fs = closure_funcs s.Session.graph q in
            fs <> [] && not (List.exists near fs))
          qs
      in
      (match Session.edit s [ op ] with
      | Error e ->
            QCheck.Test.fail_reportf "%s: edit failed: %s" bname
              (Scaf_lint.Diagnostic.to_summary e)
      | Ok _ -> ());
      Session.reset_counters s;
      List.iter (fun q -> ignore (Session.ask s q)) foreign;
      let c = Session.counters s in
      if c.Session.recomputed > 0 then
        QCheck.Test.fail_reportf
          "%s: %d/%d read-set-disjoint queries recomputed after edit to %s"
          bname c.Session.recomputed c.Session.asked edited_fn;
      (* the property must not hold vacuously on a multi-kernel suite *)
      List.length foreign > 0 || List.length (hot_lids s) <= 1)

let test_epoch_lifecycle () =
  let s = Session.create (Option.get (Registry.find "181.mcf")) in
  checki "fresh session at epoch 0" 0 (Session.epoch s);
  (match Session.edit s [ Session.auto_edit s ] with
  | Error e -> Alcotest.fail (Scaf_lint.Diagnostic.to_summary e)
  | Ok (diff, _) -> checki "diff carries the new epoch" 1 diff.Edit.epoch);
  checki "session advanced" 1 (Session.epoch s);
  (* a failing script must leave the epoch untouched *)
  (match
     Session.edit s [ Edit.Delete_instr { id = max_int } ]
   with
  | Ok _ -> Alcotest.fail "deleting a bogus id must fail"
  | Error _ -> ());
  checki "failed edit leaves epoch" 1 (Session.epoch s)

let test_warm_cache_counters () =
  let s = Session.create (Option.get (Registry.find "429.mcf")) in
  let qs = Session.workload s in
  List.iter (fun q -> ignore (Session.ask s q)) qs;
  Session.reset_counters s;
  List.iter (fun q -> ignore (Session.ask s q)) qs;
  let c = Session.counters s in
  checki "warm re-run asks all" (List.length qs) c.Session.asked;
  checki "warm re-run recomputes none" 0 c.Session.recomputed

let test_invalidation_stats_sane () =
  let s = Session.create (Option.get (Registry.find "164.gzip")) in
  List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s);
  match Session.edit s [ Session.auto_edit s ] with
  | Error e -> Alcotest.fail (Scaf_lint.Diagnostic.to_summary e)
  | Ok (_, st) ->
      checkb "graph has nodes" true (st.Invalidate.nodes > 0);
      checkb "some nodes survive" true
        (st.Invalidate.dirty < st.Invalidate.nodes);
      checkb "some cache entries retained" true (st.Invalidate.retained > 0);
      checkb "evicted bounded by dirty" true
        (st.Invalidate.evicted <= st.Invalidate.dirty)

(* Each edit fingerprints the profiles it creates and nothing else: the
   pre-edit fingerprint is the one the previous edit left in the memo. *)
let test_one_fingerprint_per_edit () =
  let s = Session.create (Option.get (Registry.find "181.mcf")) in
  let memo = s.Session.fingerprint in
  let holds_current () =
    match memo.Fingerprint.last with
    | Some (p, _) -> p == Program.profiles s.Session.program
    | None -> false
  in
  let fp = Fingerprint.current memo (Program.profiles s.Session.program) in
  checkb "same epoch, same fingerprint" true
    (Fingerprint.current memo (Program.profiles s.Session.program) == fp);
  for _ = 1 to 2 do
    (match Session.edit s [ Session.auto_edit s ] with
    | Error e -> Alcotest.fail (Scaf_lint.Diagnostic.to_summary e)
    | Ok _ -> ());
    checkb "the edit left its new epoch's fingerprint" true (holds_current ())
  done

let suite =
  [
    ( "incremental",
      [
        Alcotest.test_case "epoch lifecycle" `Quick test_epoch_lifecycle;
        Alcotest.test_case "warm cache recomputes nothing" `Quick
          test_warm_cache_counters;
        Alcotest.test_case "invalidation stats sane" `Quick
          test_invalidation_stats_sane;
        Alcotest.test_case "an edit fingerprints only its new epoch" `Quick
          test_one_fingerprint_per_edit;
        QCheck_alcotest.to_alcotest ~long:false prop_incremental_equals_batch;
        QCheck_alcotest.to_alcotest ~long:false prop_no_foreign_recompute;
      ] );
  ]
