(* The batch side: cold full-suite Figure 8 passes composed exactly as
   `scaf_eval fig8` composes them, and the traced passes that split one
   pass's resolver time by layer and by module. *)

open Scaf
open Scaf_pdg
module Program = Scaf_suite.Program
module Registry = Scaf_suite.Registry
module Experiments = Scaf_report.Experiments
module Profiles = Scaf_profile.Profiles

let header = "Figure 8 — dependence coverage (%NoDep, time-weighted):"

(* The bytes `scaf_eval fig8` prints for these evaluations. *)
let render (evals : Experiments.bench_eval list) : string =
  String.concat "\n" [ header; Experiments.fig8 evals; Experiments.fig8_deltas evals ]
  ^ "\n"

(* One cold pass: fresh handles (parse + lint), profiling and every
   scheme's PDG queries over a pool of [jobs] domains, then rendering. *)
let pass ~(jobs : int) : string =
  let benchmarks = Registry.all () in
  let evals =
    Scheduler.with_pool ~jobs (fun pool ->
        Experiments.evaluate_all ~pool ~benchmarks ())
  in
  render evals

(* The same pass over a caller-held pool, keeping the evaluations, so the
   pool's steal counter and the caches' snapshots can be read after it. *)
let pass_on (pool : Scheduler.pool) : Experiments.bench_eval list * string =
  let evals = Experiments.evaluate_all ~pool ~benchmarks:(Registry.all ()) () in
  (evals, render evals)

(* ------------------------------------------------------------------ *)
(* Span accounting for the traced passes                               *)
(* ------------------------------------------------------------------ *)

(* Self time of a span = its duration minus the part its direct child
   spans cover. Traced passes run in one domain, so one stack suffices. *)
type acc = { mutable self : float; mutable n : int }

let acc () = { self = 0.0; n = 0 }

type frame = { mutable covered : float }

let stack : frame list ref = ref []

(* [top] collects the whole duration of outermost spans. *)
let span ?(top : float ref option) (a : acc) (f : unit -> 'r) : 'r =
  let fr = { covered = 0.0 } in
  stack := fr :: !stack;
  let t0 = Mclock.now () in
  let finish () =
    let d = Mclock.now () -. t0 in
    (match !stack with _ :: rest -> stack := rest | [] -> ());
    (match !stack with p :: _ -> p.covered <- p.covered +. d | [] -> ());
    (match top with Some t -> t := !t +. d | None -> ());
    a.self <- a.self +. (d -. fr.covered);
    a.n <- a.n + 1
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* A context seen by a wrapped module, kept for [span_cost]. *)
let seen_ctx : Module_api.Ctx.t option ref = ref None

(* The cost one span adds to what it measures: the mean of many empty
   spans nested the way the module split nests them, a module's span with
   its premise oracle wrapped around a routed premise's span. *)
let span_cost () : float =
  let ctx = Option.get !seen_ctx in
  let n = 100_000 in
  let outer = acc () and m = acc () and o = acc () in
  let (), dt =
    Mclock.time (fun () ->
        span outer (fun () ->
            for _ = 1 to n do
              span m (fun () ->
                  let c = Module_api.Ctx.with_ask (fun pq -> span o (fun () -> Module_api.Ctx.ask ctx pq)) ctx in
                  span o (fun () -> ignore (Sys.opaque_identity c)))
            done))
  in
  dt /. float_of_int (2 * n)

(* One orchestrated scheme under the module split: the orchestrator's own
   work (client queries and the premise queries it routes), every
   module's self time, and the whole time of its client queries, which
   the self times add up to; plus the orchestrators for their stats. *)
type split = {
  orch : acc;
  modules : (string, acc) Hashtbl.t;
  total : float ref;
  mutable orchs : Orchestrator.t list;
}

let split () =
  { orch = acc (); modules = Hashtbl.create 32; total = ref 0.0; orchs = [] }

let spans (s : split) : int =
  Hashtbl.fold (fun _ a n -> n + a.n) s.modules s.orch.n

let self_sum (s : split) : float =
  Hashtbl.fold (fun _ a t -> t +. a.self) s.modules s.orch.self

let module_acc (s : split) (name : string) : acc =
  match Hashtbl.find_opt s.modules name with
  | Some a -> a
  | None ->
      let a = acc () in
      Hashtbl.add s.modules name a;
      a

(* A module's span covers its [answer]; the premise queries it raises are
   child spans charged to the orchestrator that routes them. *)
let wrap_module (s : split) (m : Module_api.t) : Module_api.t =
  let a = module_acc s m.Module_api.name in
  {
    m with
    Module_api.answer =
      (fun ctx q ->
        if Option.is_none !seen_ctx then seen_ctx := Some ctx;
        span a (fun () ->
            m.Module_api.answer
              (Module_api.Ctx.with_ask
                 (fun pq -> span s.orch (fun () -> Module_api.Ctx.ask ctx pq))
                 ctx)
              q));
  }

(* The split schemes rebuild [Schemes.caf_scheme], [scaf_scheme] and
   [confluence_scheme] with every module wrapped. They are copies: the
   traced run checks that their time, less the probes' cost, still matches
   the real schemes' resolver time (see [Bench.fig10_breakdown]). *)
let client_span (s : split) (resolve : Query.t -> Response.t) (q : Query.t) =
  span ~top:s.total s.orch (fun () -> resolve q)

let orchestrate (s : split) ~cache (profiles : Profiles.t)
    (modules : Module_api.t list) : Orchestrator.t =
  let o =
    Schemes.orchestrate ~cache profiles.Profiles.ctx (List.map (wrap_module s) modules)
  in
  s.orchs <- o :: s.orchs;
  o

let split_scheme (s : split) ~(name : string)
    (modules : Profiles.t -> Module_api.t list) (profiles : Profiles.t) :
    Schemes.scheme =
  let cache = Qcache.create () in
  {
    Schemes.sname = name;
    scache = Some cache;
    spawn =
      (fun () ->
        let o = orchestrate s ~cache profiles (modules profiles) in
        let r = Schemes.resolver_of_orchestrator name o in
        { r with Schemes.resolve = client_span s r.Schemes.resolve });
  }

(* Confluence: a CAF orchestrator and one per speculation unit, joined. *)
let split_confluence (s : split) (profiles : Profiles.t) : Schemes.scheme =
  let units = Scaf_speculation.Registry.confluence_units profiles in
  let caf_cache = Qcache.create () in
  let unit_caches = List.map (fun _ -> Qcache.create ()) units in
  {
    Schemes.sname = "Confluence";
    scache = Some caf_cache;
    spawn =
      (fun () ->
        let caf_o =
          orchestrate s ~cache:caf_cache profiles
            (Scaf_analysis.Registry.create profiles.Profiles.ctx)
        in
        let unit_os =
          List.map2
            (fun cache units -> orchestrate s ~cache profiles units)
            unit_caches
            (Scaf_speculation.Registry.confluence_units profiles)
        in
        let resolve q =
          List.fold_left
            (fun acc o -> Join.join Join.Cheapest acc (Orchestrator.handle o q))
            (Orchestrator.handle caf_o q)
            unit_os
        in
        { Schemes.rname = "Confluence"; resolve = client_span s resolve;
          latencies = (fun () -> []) });
  }

let caf_modules (p : Profiles.t) = Scaf_analysis.Registry.create p.Profiles.ctx

let scaf_modules (p : Profiles.t) =
  Scaf_analysis.Registry.create p.Profiles.ctx @ Scaf_speculation.Registry.create p

(* Resolver-only timing: one span per client query, nothing inside. *)
type light = { mutable busy : float; mutable lats : float list }

let light () = { busy = 0.0; lats = [] }

let light_scheme (l : light) (s : Schemes.scheme) : Schemes.scheme =
  {
    s with
    Schemes.spawn =
      (fun () ->
        let r = s.Schemes.spawn () in
        {
          r with
          Schemes.resolve =
            (fun q ->
              let t0 = Mclock.now () in
              let x = r.Schemes.resolve q in
              let d = Mclock.now () -. t0 in
              l.busy <- l.busy +. d;
              l.lats <- d :: l.lats;
              x);
        });
  }

(* [Experiments.evaluate_bench] with caller-built schemes, sequential. *)
let eval_bench mk (b : Program.t) : Experiments.bench_eval =
  let profiles = Program.profiles b in
  let caf_s, conf_s, scaf_s, ms_s, obs_s = mk profiles in
  let eval s = Nodep.evaluate_scheme ~bname:(Program.id b) profiles s in
  let caf = eval caf_s in
  let confluence = eval conf_s in
  let scaf = eval scaf_s in
  let memspec = eval ms_s in
  let observed = eval obs_s in
  { Experiments.bench = b; profiles; caf; confluence; scaf; memspec; observed;
    cache_stats = [] }

let scheme_names = [ "caf"; "confluence"; "scaf"; "memspec"; "observed" ]

(* A jobs-1 pass with every scheme's resolver timed. *)
let light_pass () : string * (string * light) list =
  let ls = List.map (fun n -> (n, light ())) scheme_names in
  let l n = List.assoc n ls in
  let mk p =
    ( light_scheme (l "caf") (Schemes.caf_scheme p),
      light_scheme (l "confluence") (Schemes.confluence_scheme p),
      light_scheme (l "scaf") (Schemes.scaf_scheme p),
      light_scheme (l "memspec") (Schemes.memory_speculation_scheme p),
      light_scheme (l "observed") (Schemes.observed_scheme p) )
  in
  let text = render (List.map (eval_bench mk) (Registry.all ())) in
  (text, ls)

(* The orchestrated schemes a module split covers, by light-pass name. *)
let split_names = [ "caf"; "confluence"; "scaf" ]

(* A jobs-1 pass with CAF, Confluence and SCAF under the module split. *)
let split_pass () : string * (string * split) list =
  let caf = split () and conf = split () and scaf = split () in
  let mk p =
    ( split_scheme caf ~name:"CAF" caf_modules p,
      split_confluence conf p,
      split_scheme scaf ~name:"SCAF" scaf_modules p,
      Schemes.memory_speculation_scheme p,
      Schemes.observed_scheme p )
  in
  let text = render (List.map (eval_bench mk) (Registry.all ())) in
  (text, [ ("caf", caf); ("confluence", conf); ("scaf", scaf) ])

let orch_stats (s : split) : int * int * int =
  List.fold_left
    (fun (c, p, m) o ->
      let st = Orchestrator.stats o in
      ( c + st.Orchestrator.client_queries,
        p + st.Orchestrator.premise_queries,
        m + st.Orchestrator.module_evals ))
    (0, 0, 0) s.orchs
