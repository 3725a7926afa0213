(** scaf-eval: regenerate the paper's evaluation artifacts.

    Subcommands: [table1], [fig8], [fig9], [table2], [fig10], [all] (the
    whole evaluation), [bench NAME] (per-benchmark detail), [explain NAME
    [QUERY]] (pretty-print the full derivation tree of one PDG query),
    [speculate NAME] (plan + instrument + run with recovery for one
    benchmark), [audit] (the framework self-audit: contradiction detection,
    dynamic oracle, query-plan lint — non-zero exit on soundness findings),
    and [resilience] (the seeded fault-injection matrix: recovery scenarios
    plus orchestrator chaos).

    The evaluation subcommands share one flag set ({!common}): benchmark
    selection, worker-domain count, and the observability switches
    [--cache-stats], [--trace FILE] (Chrome trace_event JSON of the SCAF
    scheme's derivations) and [--metrics] (counter/histogram registry dump).
    Observability output goes to stderr or a file — stdout stays
    byte-identical whatever the flags, preserving the [--jobs] determinism
    contract. *)

open Cmdliner
open Scaf_report

(* fig10 latencies and --trace timestamps: the monotonic clock [lib/] uses *)
let clock = Scaf_trace.Clock.now

let select_benchmarks (names : string list) : Scaf_suite.Program.t list =
  match names with
  | [] -> Scaf_suite.Registry.all ()
  | names ->
      List.map
        (fun n ->
          match Scaf_suite.Registry.find n with
          | Some b -> b
          | None -> Fmt.failwith "unknown benchmark %S" n)
        names

(* ------------------------------------------------------------------ *)
(* The shared flag set of the evaluation subcommands                   *)
(* ------------------------------------------------------------------ *)

type common = {
  benchmarks : string list;
  jobs : int;
  cache_stats : bool;
  trace_out : string option;
  metrics : bool;
}

let bench_arg =
  Arg.(value & opt_all string [] & info [ "b"; "benchmark" ] ~docv:"NAME"
       ~doc:"Restrict to benchmark $(docv) (repeatable).")

let jobs_arg =
  Arg.(
    value
    & opt int (Scaf_pdg.Schemes.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the evaluation: each scheme's hot loops fan \
           out across $(docv) domains, one orchestrator per worker over a \
           shared canonicalizing cache. Tables are byte-identical for every \
           $(docv); 1 disables spawning. Defaults to the recommended domain \
           count.")

let cache_stats_arg =
  Arg.(
    value & flag
    & info [ "cache-stats" ]
        ~doc:
          "Print per-scheme shared-cache counters (hits, canonical hits, \
           evictions, lock contention) to stderr after the evaluation.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a provenance tree for every SCAF client query and write \
           all of them as Chrome trace_event JSON to $(docv) (load in \
           chrome://tracing or Perfetto). Strictly observational: tables \
           are unchanged.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Maintain the metrics registry (query classes, cache behaviour, \
           bail-outs, premise depths, latencies) during the SCAF scheme \
           and dump it as JSON to stderr after the evaluation.")

let common_term : common Term.t =
  let mk benchmarks jobs cache_stats trace_out metrics =
    { benchmarks; jobs; cache_stats; trace_out; metrics }
  in
  Term.(
    const mk $ bench_arg $ jobs_arg $ cache_stats_arg $ trace_arg
    $ metrics_arg)

let run_table1 () = print_endline Report.table1

let report_cache_stats evals =
  List.iter
    (fun (name, (s : Scaf.Qcache.Snapshot.t)) ->
      Printf.eprintf
        "cache %-12s lookups %8d  hit%% %5.1f  l1-hits %8d  \
         canonical-hits %6d  evictions %6d  publishes %6d  steals %4d  \
         contended %4d  entries %6d\n"
        name
        (Scaf.Qcache.Snapshot.lookups s)
        (Scaf.Qcache.Snapshot.hit_rate s)
        s.Scaf.Qcache.Snapshot.l1_hits s.Scaf.Qcache.Snapshot.canonical_hits
        s.Scaf.Qcache.Snapshot.evictions s.Scaf.Qcache.Snapshot.publishes
        s.Scaf.Qcache.Snapshot.steals s.Scaf.Qcache.Snapshot.contended
        s.Scaf.Qcache.Snapshot.entries)
    (Experiments.cache_stats_summary evals)

let sink_of (c : common) : Scaf_trace.Sink.t option =
  Option.map (fun _ -> Scaf_trace.Sink.create ~clock ()) c.trace_out

let metrics_of (c : common) : Scaf_trace.Metrics.t option =
  if c.metrics then Some Scaf_trace.Metrics.global else None

(* Flush the observability flags' output once the run is over: the Chrome
   trace file and the metrics JSON dump (stderr). *)
let emit_observability (c : common) (trace : Scaf_trace.Sink.t option) =
  (match (c.trace_out, trace) with
  | Some path, Some sink ->
      let oc = open_out path in
      output_string oc (Scaf_trace.Sink.to_chrome_json sink);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "trace: wrote %d derivation tree(s)%s to %s\n"
        (Scaf_trace.Sink.root_count sink)
        (match Scaf_trace.Sink.dropped sink with
        | 0 -> ""
        | d -> Printf.sprintf " (%d dropped)" d)
        path
  | _ -> ());
  if c.metrics then
    prerr_endline (Scaf_trace.Metrics.to_json Scaf_trace.Metrics.global)

(* Run the evaluation under [c]'s flags and hand the reports to [f]. All
   observability output lands on stderr or in files, never stdout. One
   work-stealing pool is scoped around the whole evaluation — every figure
   of a run shares it instead of respawning domains per figure; reports
   are byte-identical at any [--jobs N] (pool size 1 spawns nothing). *)
let with_evals ?(sequential = false) (c : common) f =
  let trace = sink_of c in
  let metrics = metrics_of c in
  let jobs = if sequential then 1 else c.jobs in
  let evals =
    Scaf_pdg.Scheduler.with_pool ~jobs (fun pool ->
        Experiments.evaluate_all ~pool ?trace ?metrics
          ~benchmarks:(select_benchmarks c.benchmarks) ())
  in
  f evals;
  if c.cache_stats then report_cache_stats evals;
  emit_observability c trace

let run_fig8 c =
  with_evals c (fun evals ->
      print_endline "Figure 8 — dependence coverage (%NoDep, time-weighted):";
      print_endline (Experiments.fig8 evals);
      print_endline (Experiments.fig8_deltas evals))

let run_fig9 c =
  with_evals c (fun evals ->
      print_endline "Figure 9 — per-hot-loop Confluence vs SCAF:";
      print_endline (Experiments.fig9 evals))

let run_table2 c =
  with_evals c (fun evals ->
      print_endline "Table 2 — collaboration coverage:";
      print_endline (Experiments.table2 evals))

let run_fig10 c =
  (* latency CDFs need one resolver per scheme timing every query — the
     measurement itself must stay sequential *)
  with_evals ~sequential:true c (fun evals ->
      print_endline "Figure 10 — query latency CDF:";
      print_endline (Experiments.fig10 ~clock evals))

let run_all c =
  with_evals c (fun evals ->
      print_endline "Table 1 — integration approaches:";
      print_endline Report.table1;
      print_endline "";
      print_endline "Figure 8 — dependence coverage (%NoDep, time-weighted):";
      print_endline (Experiments.fig8 evals);
      print_endline (Experiments.fig8_deltas evals);
      print_endline "";
      print_endline "Figure 9 — per-hot-loop Confluence vs SCAF:";
      print_endline (Experiments.fig9 evals);
      print_endline "Table 2 — collaboration coverage:";
      print_endline (Experiments.table2 evals);
      print_endline "Figure 10 — query latency CDF:";
      print_endline (Experiments.fig10 ~clock evals))

(* ------------------------------------------------------------------ *)
(* explain: one query's full derivation tree                           *)
(* ------------------------------------------------------------------ *)

(* Replay the PDG workload of [name] through a traced SCAF ensemble,
   sequentially, with sampling off — the i-th collected tree then IS the
   derivation of the i-th query issued, so query ids are stable
   ("<loop>#<index>", or a global index). *)
let run_explain name query_sel =
  let b =
    match Scaf_suite.Registry.find name with
    | Some b -> b
    | None -> Fmt.failwith "unknown benchmark %S" name
  in
  ignore (Scaf_suite.Program.program b);
  let profiles = Scaf_suite.Program.profiles b in
  let prog = profiles.Scaf_profile.Profiles.ctx in
  let sink = Scaf_trace.Sink.create ~max_roots:max_int ~clock () in
  let resolver =
    (Scaf_pdg.Schemes.scaf_scheme ~trace:sink profiles).Scaf_pdg.Schemes.spawn
      ()
  in
  let loops = Scaf_pdg.Nodep.hot_loop_weights profiles in
  if loops = [] then Fmt.failwith "benchmark %S has no hot loops" name;
  let entries =
    List.concat_map
      (fun (lid, _) ->
        let before = Scaf_trace.Sink.root_count sink in
        let r =
          Scaf_pdg.Pdg.run_loop prog
            ~resolver:resolver.Scaf_pdg.Schemes.resolve lid
        in
        let roots =
          List.filteri
            (fun i _ -> i >= before)
            (Scaf_trace.Sink.roots sink)
        in
        List.mapi
          (fun i (qr : Scaf_pdg.Pdg.qresult) ->
            (Printf.sprintf "%s#%d" lid i, qr, List.nth_opt roots i))
          r.Scaf_pdg.Pdg.queries)
      loops
  in
  let print_entry (qid, (qr : Scaf_pdg.Pdg.qresult), root) =
    Fmt.pr "query %s%s@." qid (if qr.Scaf_pdg.Pdg.nodep then "  [nodep]" else "");
    match root with
    | Some n -> Fmt.pr "%s@." (Scaf_trace.Sink.tree_to_string n)
    | None -> Fmt.pr "  (no derivation tree collected)@."
  in
  match query_sel with
  | Some sel -> (
      let found =
        match int_of_string_opt sel with
        | Some i -> List.nth_opt entries i
        | None ->
            List.find_opt (fun (qid, _, _) -> String.equal qid sel) entries
      in
      match found with
      | Some e -> print_entry e
      | None ->
          Fmt.failwith
            "unknown query %S (use \"<loop>#<index>\" or a global index; \
             %s has %d queries — run without QUERY for the list)"
            sel name (List.length entries))
  | None ->
      Fmt.pr "%s: %d hot loops, %d PDG queries@." name (List.length loops)
        (List.length entries);
      List.iter
        (fun (qid, (qr : Scaf_pdg.Pdg.qresult), _) ->
          Fmt.pr "  %-24s %a%s@." qid Scaf.Aresult.pp
            qr.Scaf_pdg.Pdg.resp.Scaf.Response.result
            (if qr.Scaf_pdg.Pdg.nodep then "  [nodep]" else ""))
        entries;
      (* the full tree of the first disproven dependence — the interesting
         kind — or of the first query when nothing was disproven *)
      let pick =
        match
          List.find_opt (fun (_, qr, _) -> qr.Scaf_pdg.Pdg.nodep) entries
        with
        | Some e -> Some e
        | None -> (match entries with e :: _ -> Some e | [] -> None)
      in
      (match pick with
      | Some e ->
          Fmt.pr "@.";
          print_entry e
      | None -> ())

let run_bench name =
  let b =
    match Scaf_suite.Registry.find name with
    | Some b -> b
    | None -> Fmt.failwith "unknown benchmark %S" name
  in
  let e = Experiments.evaluate_bench b in
  Fmt.pr "%s — %s@.@." (Scaf_suite.Program.id b) (Scaf_suite.Program.descr b);
  Fmt.pr "hot loops:@.";
  List.iter
    (fun (lid, w) ->
      let pct r =
        match List.assoc_opt lid r.Scaf_pdg.Nodep.per_loop with
        | Some lr -> Scaf_pdg.Pdg.nodep_pct lr
        | None -> 0.0
      in
      Fmt.pr
        "  %-28s weight %.2f  CAF %5.1f  Confl %5.1f  SCAF %5.1f  MemSpec \
         %5.1f@."
        lid w (pct e.Experiments.caf)
        (pct e.Experiments.confluence)
        (pct e.Experiments.scaf)
        (pct e.Experiments.memspec))
    e.Experiments.scaf.Scaf_pdg.Nodep.loops

let run_speculate name =
  let b =
    match Scaf_suite.Registry.find name with
    | Some b -> b
    | None -> Fmt.failwith "unknown benchmark %S" name
  in
  let m = Scaf_suite.Program.program b in
  let profiles = Scaf_suite.Program.profiles b in
  let plan, instrumented = Scaf_transform.Apply.speculate profiles in
  Fmt.pr "%a@." Scaf_transform.Plan.pp plan;
  let outcome_train =
    Scaf_transform.Apply.run_with_recovery ~original:m ~instrumented
      ~input:(List.hd (Scaf_suite.Program.train_inputs b))
      ()
  in
  (match outcome_train.Scaf_transform.Apply.misspec_tag with
  | Some tag -> (
      Fmt.pr "train misspec tag %Ld@." tag;
      match List.nth_opt plan.Scaf_transform.Plan.selected (Int64.to_int tag - 1) with
      | Some a -> Fmt.pr "  -> %a@." Scaf.Assertion.pp a
      | None -> ())
  | None -> ());
  Fmt.pr "train input: misspeculated=%b, output matches original=%b@."
    outcome_train.Scaf_transform.Apply.misspeculated
    (outcome_train.Scaf_transform.Apply.result.Scaf_interp.Eval.output
    = (Scaf_interp.Eval.run
         ~input:(List.hd (Scaf_suite.Program.train_inputs b))
         m)
        .Scaf_interp.Eval.output);
  let outcome_ref =
    Scaf_transform.Apply.run_with_recovery ~original:m ~instrumented
      ~input:(Scaf_suite.Program.ref_input b) ()
  in
  Fmt.pr "ref input:   misspeculated=%b, output matches original=%b@."
    outcome_ref.Scaf_transform.Apply.misspeculated
    (outcome_ref.Scaf_transform.Apply.result.Scaf_interp.Eval.output
    = (Scaf_interp.Eval.run ~input:(Scaf_suite.Program.ref_input b) m)
        .Scaf_interp.Eval.output)

(* ------------------------------------------------------------------ *)
(* watch: edit / invalidate / re-answer loop                           *)
(* ------------------------------------------------------------------ *)

(* Drive the incremental re-analysis engine on one benchmark: answer the
   full PDG workload cold, then [edits] times apply the scripted
   single-loop edit, run the invalidation pass, re-answer, and check the
   surviving answers differentially against a from-scratch batch session
   over the same (edited) program. Exits non-zero on any differential
   mismatch or failed edit. *)
let run_watch name edits =
  let b =
    match Scaf_suite.Registry.find name with
    | Some b -> b
    | None -> Fmt.failwith "unknown benchmark %S" name
  in
  let module Session = Scaf_incremental.Session in
  let s = Session.create b in
  let qs = Session.workload s in
  Fmt.pr "%s @@ epoch %d: %d hot-loop queries@." name (Session.epoch s)
    (List.length qs);
  List.iter (fun q -> ignore (Session.ask s q)) qs;
  let c = Session.counters s in
  Fmt.pr "cold run: computed %d/%d@." c.Session.recomputed c.Session.asked;
  let ok = ref true in
  for i = 1 to edits do
    let op = Session.auto_edit s in
    Fmt.pr "@.edit %d: %a@." i Scaf_suite.Edit.pp_op op;
    match Session.edit s [ op ] with
    | Error e ->
        List.iter (fun d -> Fmt.epr "%a@." Scaf_lint.Diagnostic.pp d) e;
        ok := false
    | Ok (diff, stats) ->
        Fmt.pr "  %a@." Scaf_suite.Edit.pp_diff diff;
        Fmt.pr "  invalidation: %a@." Scaf_incremental.Invalidate.pp_stats
          stats;
        Session.reset_counters s;
        let qs = Session.workload s in
        let answers = Session.render_answers s qs in
        let c = Session.counters s in
        Fmt.pr "  re-answered %d/%d (%.1f%%)@." c.Session.recomputed
          c.Session.asked
          (100.0
          *. float_of_int c.Session.recomputed
          /. float_of_int (max 1 c.Session.asked));
        let base = Session.baseline s in
        let batch = Session.render_answers base (Session.workload base) in
        let same = String.equal answers batch in
        Fmt.pr "  differential vs batch: %s@."
          (if same then "byte-identical" else "MISMATCH");
        if not same then ok := false
  done;
  if not !ok then exit 1

let run_audit c json_out =
  (* the audit is sequential by construction; [c.jobs]/[c.cache_stats] do
     not apply, the observability flags do *)
  let benchmarks = select_benchmarks c.benchmarks in
  let trace = sink_of c in
  let metrics = metrics_of c in
  let r = Scaf_audit.Audit.run ?trace ?metrics ~benchmarks () in
  print_string (Scaf_audit.Audit.render r);
  (match json_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Scaf_audit.Audit.to_json r);
      output_char oc '\n';
      close_out oc
  | None -> ());
  emit_observability c trace;
  if Scaf_audit.Audit.exit_code r <> 0 then exit 1

(* ------------------------------------------------------------------ *)
(* lint: the static-analysis gate, offline                             *)
(* ------------------------------------------------------------------ *)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Lint one target — a suite benchmark name or a path to an MIR file —
   into a diagnostic list (a parse failure is itself a diagnostic, so the
   output shape is uniform). *)
let lint_target (target : string) : Scaf_lint.Diagnostic.t list =
  match Scaf_suite.Registry.find target with
  | Some b -> (Scaf_suite.Program.lint b).Scaf_lint.Pass.diagnostics
  | None ->
      if not (Sys.file_exists target) then
        Fmt.failwith "unknown benchmark or file %S" target
      else (
        match Scaf_ir.Parser.parse_exn_msg (read_file target) with
        | exception Failure msg ->
            [
              Scaf_lint.Diagnostic.error ~code:"parse.error" ~pass:"parse"
                "%s" msg;
            ]
        | m -> (Scaf_lint.Pass.run m).Scaf_lint.Pass.diagnostics)

let run_lint targets all json =
  let targets =
    if all then
      List.map Scaf_suite.Program.id (Scaf_suite.Registry.all ()) @ targets
    else targets
  in
  if targets = [] then
    Fmt.failwith "nothing to lint: name benchmarks or files, or pass --all";
  let results = List.map (fun t -> (t, lint_target t)) targets in
  (if json then
     let open Scaf_server in
     print_endline
       (Json.to_string
          (Json.List
             (List.map
                (fun (t, ds) ->
                  Json.Obj
                    [
                      ("target", Json.String t);
                      ( "errors",
                        Json.Int (List.length (Scaf_lint.Diagnostic.errors ds))
                      );
                      ( "diagnostics",
                        Json.List (List.map Protocol.diagnostic_to_json ds) );
                    ])
                results)))
   else
     List.iter
       (fun (t, ds) ->
         let errs = List.length (Scaf_lint.Diagnostic.errors ds) in
         Fmt.pr "%s: %d diagnostic(s), %d error(s)@." t (List.length ds) errs;
         List.iter (fun d -> Fmt.pr "  %a@." Scaf_lint.Diagnostic.pp d) ds)
       results);
  if List.exists (fun (_, ds) -> Scaf_lint.Diagnostic.errors ds <> []) results
  then exit 1

(* ------------------------------------------------------------------ *)
(* eval-file: canonical answers for a user program, in-process         *)
(* ------------------------------------------------------------------ *)

let default_max_submit = 200_000

(* One canonical line per PDG query of every hot loop, rendered with
   [Protocol.render_answer] — the same function `ask replay` uses, so a
   daemon replay of the same submitted program is byte-identical to this
   local evaluation. The program goes through [Engine.submit], i.e.
   exactly the daemon's lint gate. *)
let run_eval_file file ident =
  let open Scaf_server in
  let id =
    match ident with
    | Some i -> i
    | None -> Filename.remove_extension (Filename.basename file)
  in
  let eng = Engine.create ~benchmarks:[] () in
  match
    Engine.submit eng ~max_est_queries:default_max_submit
      {
        Protocol.wp_id = id;
        wp_source = read_file file;
        wp_train = None;
        wp_ref = None;
      }
  with
  | Error e ->
      Fmt.epr "rejected [%s]: %s@." e.Protocol.code e.Protocol.msg;
      List.iter
        (fun d -> Fmt.epr "  %a@." Scaf_lint.Diagnostic.pp d)
        e.Protocol.diags;
      exit 1
  | Ok (_report, b) ->
      let w = Engine.worker eng in
      let prog = Scaf_suite.Program.ctx b.Engine.program in
      List.iter
        (fun (lid, _weight) ->
          List.iteri
            (fun i (dq : Scaf_pdg.Pdg.dep_query) ->
              let wq =
                {
                  Protocol.wloop = lid;
                  wsrc = dq.Scaf_pdg.Pdg.src;
                  wdst = dq.Scaf_pdg.Pdg.dst;
                  wcross = dq.Scaf_pdg.Pdg.cross;
                }
              in
              let a =
                Engine.answer w ~degrade:Admission.Full ~deadline:None b wq
              in
              Fmt.pr "%s#%d %s@." lid i (Protocol.render_answer a))
            (Scaf_pdg.Pdg.queries_of_loop prog lid))
        (Engine.bench_loops b)

(* ------------------------------------------------------------------ *)
(* serve / ask: the query daemon and its client                        *)
(* ------------------------------------------------------------------ *)

let default_socket =
  Filename.concat (Filename.get_temp_dir_name ()) "scaf-eval.sock"

let run_serve benchmarks socket tcp state_dir workers jobs capacity
    idle_timeout deadline_ms static_nodep max_submit =
  let open Scaf_server in
  let base = Daemon.default_config ~socket_path:socket () in
  let cfg =
    {
      base with
      Daemon.benchmarks = select_benchmarks benchmarks;
      tcp;
      state_dir;
      workers;
      jobs;
      admission = { base.Daemon.admission with Admission.capacity };
      idle_timeout;
      default_deadline_ms = deadline_ms;
      static_nodep;
      max_submit_queries = max_submit;
    }
  in
  let t = Daemon.start cfg in
  Printf.eprintf "scaf-eval: serving %d benchmark(s) on %s%s\n%!"
    (List.length cfg.Daemon.benchmarks)
    (String.concat " and " (Daemon.endpoints t))
    (match state_dir with
    | Some d -> Printf.sprintf " (journal in %s)" d
    | None -> "");
  Daemon.wait t

(* Uncaught client failures become actionable messages instead of
   backtraces — in particular a protocol [version_mismatch] from a daemon
   built at a different revision tells the user exactly what to do. *)
let with_client socket (f : Scaf_server.Client.t -> string list -> unit) =
  let open Scaf_server in
  match
    let c, benches = Client.connect ~name:"scaf-eval" socket in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c benches)
  with
  | () -> ()
  | exception Client.Server_error e ->
      Fmt.epr "daemon rejected the request [%s]: %s@." e.Protocol.code
        e.Protocol.msg;
      exit 1
  | exception Client.Transport_error msg ->
      Fmt.epr "cannot talk to a daemon at %s: %s@." socket msg;
      exit 1

(* [ask fig8] renders the daemon's per-benchmark rows with exactly the
   batch code path, so a full-suite daemon replay is byte-identical to
   [scaf_eval fig8]. *)
let run_ask what socket bench loop src dst cross deadline_ms file ident
    stream =
  let open Scaf_server in
  match what with
  | "fig8" ->
      with_client socket (fun c benches ->
          let rows = List.map (fun b -> Client.report c ~bench:b) benches in
          print_endline
            "Figure 8 — dependence coverage (%NoDep, time-weighted):";
          print_endline (Experiments.fig8_of_rows rows);
          print_endline (Experiments.fig8_deltas_of_rows rows))
  | "ping" ->
      with_client socket (fun c _ ->
          Client.ping c;
          print_endline "pong")
  | "stats" ->
      with_client socket (fun c _ ->
          print_endline (Json.to_string (Client.stats c)))
  | "shutdown" -> with_client socket (fun c _ -> Client.shutdown c)
  | "query" ->
      let bench =
        match bench with
        | Some b -> b
        | None -> Fmt.failwith "ask query needs --bench"
      in
      let loop =
        match loop with
        | Some l -> l
        | None -> Fmt.failwith "ask query needs --loop"
      in
      with_client socket (fun c _ ->
          let a =
            Client.ask ?deadline_ms c ~bench
              { Protocol.wloop = loop; wsrc = src; wdst = dst; wcross = cross }
          in
          Fmt.pr "%s%s  cost %.2f  options %d  provenance %s%s@."
            a.Protocol.a_result
            (if a.Protocol.a_nodep then "  [nodep]" else "")
            a.Protocol.a_cost a.Protocol.a_options
            (String.concat "," a.Protocol.a_provenance)
            (match a.Protocol.a_degraded with
            | Some tag -> "  [degraded: " ^ tag ^ "]"
            | None -> ""))
  | "submit" -> (
      let file =
        match file with
        | Some f -> f
        | None -> Fmt.failwith "ask submit needs --file"
      in
      let id =
        match ident with
        | Some i -> i
        | None -> Filename.remove_extension (Filename.basename file)
      in
      with_client socket (fun c _ ->
          match
            Client.submit c
              {
                Protocol.wp_id = id;
                wp_source = read_file file;
                wp_train = None;
                wp_ref = None;
              }
          with
          | r ->
              Fmt.pr
                "submitted %s: ~%d dependence queries over %d hot loop(s), \
                 %d warning(s)@."
                r.Protocol.s_id r.Protocol.s_est_queries
                (List.length r.Protocol.s_loops)
                r.Protocol.s_warnings
          | exception Client.Server_error e ->
              Fmt.epr "rejected [%s]: %s@." e.Protocol.code e.Protocol.msg;
              List.iter
                (fun d -> Fmt.epr "  %a@." Scaf_lint.Diagnostic.pp d)
                e.Protocol.diags;
              exit 1))
  | "replay" ->
      (* the canonical-line twin of [eval-file]: fetch the benchmark's
         workload and ask it query by query over the wire *)
      let bench =
        match bench with
        | Some b -> b
        | None -> Fmt.failwith "ask replay needs --bench"
      in
      with_client socket (fun c _ ->
          let workload = Client.queries c ~bench in
          if stream then begin
            (* one streamed ask_many over the whole workload; the
               reassembled answers render byte-identically to the
               query-by-query replay below *)
            let labeled =
              List.concat_map
                (fun (lid, _w, qs) -> List.mapi (fun i q -> (lid, i, q)) qs)
                workload
            in
            let answers =
              Client.ask_many ~stream:true ?deadline_ms c ~bench
                (List.map (fun (_, _, q) -> q) labeled)
            in
            List.iter2
              (fun (lid, i, _) a ->
                Fmt.pr "%s#%d %s@." lid i (Protocol.render_answer a))
              labeled answers
          end
          else
            List.iter
              (fun (lid, _weight, qs) ->
                List.iteri
                  (fun i q ->
                    let a = Client.ask ?deadline_ms c ~bench q in
                    Fmt.pr "%s#%d %s@." lid i (Protocol.render_answer a))
                  qs)
              workload)
  | other -> Fmt.failwith "unknown ask request %S" other

(* The network chaos matrix, standalone: the CI net-gate's teeth. *)
let run_netchaos seed =
  let open Scaf_faultinject in
  print_endline
    "Network chaos — every scenario answered, rejected, or expired:";
  let outcomes = Net_chaos.run_net_chaos ~seed () in
  print_endline
    (Report.table
       ~header:[ "scenario"; "ok"; "detail" ]
       ~rows:
         (List.map
            (fun (s : Server_chaos.server_outcome) ->
              [
                s.Server_chaos.s_scenario;
                (if s.Server_chaos.s_ok then "yes" else "NO");
                s.Server_chaos.s_detail;
              ])
            outcomes));
  let bad =
    List.filter
      (fun (s : Server_chaos.server_outcome) -> not s.Server_chaos.s_ok)
      outcomes
  in
  Fmt.pr "%d network scenarios, %d ok, %d FAILED@."
    (List.length outcomes)
    (List.length outcomes - List.length bad)
    (List.length bad);
  if bad <> [] then exit 1

let run_resilience seed =
  let open Scaf_faultinject in
  print_endline "Recovery scenarios — every run must commit or recover:";
  let outcomes = Harness.run_all ~seed () in
  print_endline
    (Report.table
       ~header:
         [ "scenario"; "ok"; "misspec"; "rollbacks"; "replans"; "degraded"; "detail" ]
       ~rows:
         (List.map
            (fun (r : Harness.outcome) ->
              [
                r.Harness.scenario;
                (if r.Harness.ok then "yes" else "NO");
                (if r.Harness.misspeculated then "yes" else "-");
                string_of_int r.Harness.rollbacks;
                string_of_int r.Harness.replans;
                (if r.Harness.degraded then "yes" else "-");
                r.Harness.detail;
              ])
            outcomes));
  let bad = List.filter (fun (r : Harness.outcome) -> not r.Harness.ok) outcomes in
  Fmt.pr "%d scenarios, %d recovered/committed, %d WRONG@.@."
    (List.length outcomes)
    (List.length outcomes - List.length bad)
    (List.length bad);
  print_endline "Orchestrator chaos — no module failure may abort a query:";
  let chaos =
    [
      Harness.run_chaos ~seed ~p_raise:0.3 "052.alvinn";
      Harness.run_chaos ~seed ~p_delay:0.3 ~module_budget:10.0 "052.alvinn";
      Harness.run_chaos ~seed ~p_raise:0.2 ~p_delay:0.2 ~p_corrupt:0.2
        ~module_budget:10.0 "164.gzip";
    ]
  in
  print_endline
    (Report.table
       ~header:
         [ "scenario"; "queries"; "answered"; "faults"; "overruns"; "quarantined" ]
       ~rows:
         (List.map
            (fun (c : Harness.chaos_outcome) ->
              [
                c.Harness.c_scenario;
                string_of_int c.Harness.c_queries;
                string_of_int c.Harness.c_answered;
                string_of_int c.Harness.c_faults;
                string_of_int c.Harness.c_overruns;
                String.concat "," c.Harness.c_quarantined;
              ])
            chaos));
  print_endline
    "Server chaos — every request answered, rejected, or expired:";
  let server = Server_chaos.run_server_chaos ~seed () in
  print_endline
    (Report.table
       ~header:[ "scenario"; "ok"; "detail" ]
       ~rows:
         (List.map
            (fun (s : Server_chaos.server_outcome) ->
              [
                s.Server_chaos.s_scenario;
                (if s.Server_chaos.s_ok then "yes" else "NO");
                s.Server_chaos.s_detail;
              ])
            server));
  let server_bad =
    List.filter
      (fun (s : Server_chaos.server_outcome) -> not s.Server_chaos.s_ok)
      server
  in
  Fmt.pr "%d server scenarios, %d ok, %d FAILED@."
    (List.length server)
    (List.length server - List.length server_bad)
    (List.length server_bad);
  if bad <> [] || server_bad <> [] then exit 1

(* every evaluation subcommand shares the [common] flag set *)
let cmd_common name doc f = Cmd.v (Cmd.info name ~doc) Term.(const f $ common_term)

let name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")

let query_arg =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"QUERY"
        ~doc:
          "Query to explain: \"<loop>#<index>\" or a global index. Omit to \
           list every query and explain the first disproven dependence.")

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "scaf-eval" ~version:"1.0.0"
      ~doc:"Reproduce the SCAF (PLDI 2020) evaluation"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            Cmd.v (Cmd.info "table1" ~doc:"Print Table 1") Term.(const run_table1 $ const ());
            cmd_common "fig8" "Figure 8: %NoDep per benchmark per scheme" run_fig8;
            cmd_common "fig9" "Figure 9: per-loop Confluence vs SCAF" run_fig9;
            cmd_common "table2" "Table 2: collaboration coverage" run_table2;
            cmd_common "fig10" "Figure 10: query latency CDF (sequential)" run_fig10;
            cmd_common "all" "Run the whole evaluation" run_all;
            Cmd.v
              (Cmd.info "bench" ~doc:"Per-benchmark detail")
              Term.(const run_bench $ name_arg);
            Cmd.v
              (Cmd.info "explain"
                 ~doc:
                   "Pretty-print the SCAF ensemble's full derivation tree \
                    for one PDG query of a benchmark: modules consulted, \
                    premise sub-queries at each depth, per-module answers, \
                    the join decision and the chosen assertion set.")
              Term.(const run_explain $ name_arg $ query_arg);
            Cmd.v
              (Cmd.info "speculate"
                 ~doc:"Plan, instrument and run one benchmark with recovery")
              Term.(const run_speculate $ name_arg);
            Cmd.v
              (Cmd.info "watch"
                 ~doc:
                   "Incremental re-analysis loop for one benchmark: answer \
                    the PDG workload, apply a scripted single-loop edit, \
                    invalidate only the transitively affected cache \
                    entries, re-answer, and verify the result \
                    byte-identical to a from-scratch batch run of the \
                    edited program.")
              Term.(
                const run_watch $ name_arg
                $ Arg.(
                    value & opt int 1
                    & info [ "edits" ] ~docv:"N"
                        ~doc:"Edit/invalidate/re-answer rounds to run."));
            Cmd.v
              (Cmd.info "audit"
                 ~doc:
                   "Audit the framework itself: cross-module contradictions, \
                    the dynamic-dependence oracle, and the query-plan lint. \
                    Exits non-zero on any soundness-class finding.")
              Term.(
                const run_audit $ common_term
                $ Arg.(
                    value
                    & opt (some string) None
                    & info [ "json" ] ~docv:"FILE"
                        ~doc:"Also write the machine-readable report to $(docv)."));
            (let socket_arg =
               Arg.(
                 value & opt string default_socket
                 & info [ "socket" ] ~docv:"PATH"
                     ~doc:"Unix-domain socket path for the query daemon.")
             in
             Cmd.v
               (Cmd.info "serve"
                  ~doc:
                    "Run the analysis-as-a-service daemon: load the \
                     benchmarks once, then answer PDG dependence queries \
                     over a Unix socket — and optionally TCP — with \
                     admission control, per-request deadlines, and graceful \
                     degradation under load. With $(b,--state-dir), accepted \
                     submissions are journaled to disk and replayed on \
                     restart, so a crash loses nothing.")
               Term.(
                 const run_serve $ bench_arg $ socket_arg
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "tcp" ] ~docv:"HOST:PORT"
                         ~doc:
                           "Also listen on this TCP endpoint (port 0 picks \
                            an ephemeral port, printed at startup). Both \
                            listeners share the same wire protocol, \
                            admission control, and sessions.")
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "state-dir" ] ~docv:"DIR"
                         ~doc:
                           "Durable state directory: accepted $(b,submit) \
                            and $(b,edit) operations are fsync'd to an \
                            append-only journal here and replayed through \
                            the admission pipeline on startup.")
                 $ Arg.(
                     value & opt int 2
                     & info [ "workers" ] ~docv:"N"
                         ~doc:"Worker threads answering admitted queries.")
                 $ Arg.(
                     value & opt int 1
                     & info [ "jobs" ] ~docv:"N"
                         ~doc:
                           "Domains in the engine's shared work-stealing \
                            pool, used for batched query resolution \
                            ($(b,ask_many), replays). Answers are \
                            byte-identical at any $(docv).")
                 $ Arg.(
                     value & opt int 64
                     & info [ "capacity" ] ~docv:"N"
                         ~doc:
                           "Admission-queue capacity; submissions beyond it \
                            are rejected with a retry-after hint.")
                 $ Arg.(
                     value & opt float 30.0
                     & info [ "idle-timeout" ] ~docv:"SECONDS"
                         ~doc:"Reap client sessions idle longer than this.")
                 $ Arg.(
                     value
                     & opt (some float) None
                     & info [ "deadline-ms" ] ~docv:"MS"
                         ~doc:
                           "Default per-query deadline applied when a \
                            request carries none.")
                 $ Arg.(
                     value & flag
                     & info [ "static-nodep" ]
                         ~doc:
                           "Answer provably-disjoint queries from the lint \
                            layer's static pass before consulting the \
                            orchestrator (answers are then not guaranteed \
                            byte-identical to batch).")
                 $ Arg.(
                     value & opt int 200_000
                     & info [ "max-submit-queries" ] ~docv:"N"
                         ~doc:
                           "Admission ceiling for $(b,submit): reject a \
                            program whose statically estimated dependence \
                            query count exceeds $(docv).")));
            (let socket_arg =
               Arg.(
                 value & opt string default_socket
                 & info [ "socket" ] ~docv:"ENDPOINT"
                     ~doc:
                       "Endpoint of a running daemon: a Unix-domain socket \
                        path, or $(b,tcp:HOST:PORT) for a TCP listener.")
             in
             Cmd.v
               (Cmd.info "ask"
                  ~doc:
                    "Query a running daemon: $(b,fig8) replays the whole \
                     Figure 8 evaluation through the wire (byte-identical \
                     to the batch command), $(b,query) asks one dependence \
                     query, $(b,submit) lint-gates and registers a user \
                     program from $(b,--file), $(b,replay) re-asks a \
                     benchmark's whole PDG workload (one canonical line \
                     per query, byte-comparable to $(b,eval-file)), \
                     $(b,stats) dumps daemon health, $(b,shutdown) stops \
                     the daemon.")
               Term.(
                 const run_ask
                 $ Arg.(
                     required
                     & pos 0 (some string) None
                     & info [] ~docv:"WHAT"
                         ~doc:
                           "One of: fig8, query, submit, replay, ping, \
                            stats, shutdown.")
                 $ socket_arg
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "b"; "bench" ] ~docv:"NAME"
                         ~doc:"Benchmark for $(b,query).")
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "loop" ] ~docv:"LOOP"
                         ~doc:"Hot loop for $(b,query).")
                 $ Arg.(
                     value & opt int 0
                     & info [ "src" ] ~docv:"N"
                         ~doc:"Source instruction index for $(b,query).")
                 $ Arg.(
                     value & opt int 0
                     & info [ "dst" ] ~docv:"N"
                         ~doc:"Destination instruction index for $(b,query).")
                 $ Arg.(
                     value & flag
                     & info [ "cross" ]
                         ~doc:"Ask the cross-iteration dependence.")
                 $ Arg.(
                     value
                     & opt (some float) None
                     & info [ "deadline-ms" ] ~docv:"MS"
                         ~doc:"Per-request deadline in milliseconds.")
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "file" ] ~docv:"FILE"
                         ~doc:"MIR source file for $(b,submit).")
                 $ Arg.(
                     value
                     & opt (some string) None
                     & info [ "id" ] ~docv:"NAME"
                         ~doc:
                           "Program id for $(b,submit) (default: the file \
                            name without extension).")
                 $ Arg.(
                     value & flag
                     & info [ "stream" ]
                         ~doc:
                           "For $(b,replay): stream the whole workload \
                            through one $(b,ask_many) request (incremental \
                            frames, reassembled client-side) instead of one \
                            request per query. Output is byte-identical.")));
            Cmd.v
              (Cmd.info "lint"
                 ~doc:
                   "Run the static-analysis framework over suite benchmarks \
                    and/or MIR files: well-formedness, SSA and loop checks, \
                    dead-code and memory-sanity lints, per-loop query-cost \
                    estimates. Exits non-zero if any target has errors.")
              Term.(
                const run_lint
                $ Arg.(
                    value & pos_all string []
                    & info [] ~docv:"TARGET"
                        ~doc:"Benchmark name or MIR file path (repeatable).")
                $ Arg.(
                    value & flag
                    & info [ "all" ] ~doc:"Lint every suite benchmark.")
                $ Arg.(
                    value & flag
                    & info [ "json" ]
                        ~doc:
                          "Machine-readable output: one JSON object per \
                           target with its diagnostics."));
            Cmd.v
              (Cmd.info "eval-file"
                 ~doc:
                   "Lint-gate a user MIR program (the daemon's submission \
                    gate, in-process) and answer its full PDG workload, one \
                    canonical line per query — byte-comparable to \
                    $(b,ask replay) of the same program submitted to a \
                    daemon.")
              Term.(
                const run_eval_file
                $ Arg.(
                    required
                    & pos 0 (some string) None
                    & info [] ~docv:"FILE" ~doc:"MIR source file.")
                $ Arg.(
                    value
                    & opt (some string) None
                    & info [ "id" ] ~docv:"NAME"
                        ~doc:
                          "Program id (default: the file name without \
                           extension)."));
            Cmd.v
              (Cmd.info "resilience"
                 ~doc:"Seeded fault-injection matrix: recovery + chaos")
              Term.(
                const run_resilience
                $ Arg.(
                    value & opt int 2026
                    & info [ "seed" ] ~docv:"SEED"
                        ~doc:"PRNG seed for the fault injector."));
            Cmd.v
              (Cmd.info "netchaos"
                 ~doc:
                   "Network chaos matrix: drive both daemon transports \
                    (Unix socket and TCP) through a byte-level fault proxy \
                    — latency, bandwidth caps, partial and duplicated \
                    writes, mid-frame truncation, RST, slow-loris — plus \
                    streaming cancellation and version-skew probes. Every \
                    scenario must end answered, rejected, or expired; exits \
                    non-zero on any hang or wrong answer.")
              Term.(
                const run_netchaos
                $ Arg.(
                    value & opt int 2026
                    & info [ "seed" ] ~docv:"SEED"
                        ~doc:"PRNG seed for the chaos matrix."));
          ]))
