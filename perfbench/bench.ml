(* The repository benchmark. See WORKLOADS.md for why each workload exists
   and which layers it loads.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --daemon SCAF_EVAL_EXE --golden FIG8_TXT --workdir DIR
   bench.exe --selftest --golden FIG8_TXT
   bench.exe --batch-worker --golden FIG8_TXT   (driven by the above)

   The last line of stdout is the result object; earlier lines are a
   human-readable account (sample counts, the Fig. 10 breakdown). *)

open Scaf_server
module Program = Scaf_suite.Program
module Registry = Scaf_suite.Registry
module Experiments = Scaf_report.Experiments

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  daemon : string;
  golden : string;
  workdir : string;
  selftest : bool;
  batch_worker : bool;
}

let parse_args () : args =
  let a =
    ref
      {
        workload = "";
        seed = 0;
        seconds = 10.0;
        trace = false;
        daemon = "";
        golden = "";
        workdir = ".";
        selftest = false;
        batch_worker = false;
      }
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = int_of_string v <> 0 };
        go rest
    | "--daemon" :: v :: rest ->
        a := { !a with daemon = v };
        go rest
    | "--golden" :: v :: rest ->
        a := { !a with golden = v };
        go rest
    | "--workdir" :: v :: rest ->
        a := { !a with workdir = v };
        go rest
    | "--selftest" :: rest ->
        a := { !a with selftest = true };
        go rest
    | "--batch-worker" :: rest ->
        a := { !a with batch_worker = true };
        go rest
    | [] -> ()
    | x :: _ -> failwith ("unknown argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* Every run must report every end-to-end metric, so every workload runs
   the three phases; its own phase gets half of the measured time and the
   other two a quarter each, the least that kept their metrics within
   bounds (see WORKLOADS.md). *)
type mix = { batch : float; ask : float; edit : float }

let own = 0.5
let other = 0.25

let mix_of = function
  | "fig8-cold" -> { batch = own; ask = other; edit = other }
  | "ask-warm" -> { batch = other; ask = own; edit = other }
  | "edit-reask" -> { batch = other; ask = other; edit = own }
  | w -> failwith ("unknown workload " ^ w)

let nproc = Domain.recommended_domain_count ()
let jobs_n = max 1 (min nproc 4)
let clients = max 1 nproc

let read_file (path : string) : string =
  In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Result                                                              *)
(* ------------------------------------------------------------------ *)

let metrics : (string * float * string) list ref = ref []
let bad_metrics = ref 0

let emit (name : string) (v : float) (unit : string) : unit =
  if not (Float.is_finite v) then begin
    Printf.printf "metric %s has no samples\n" name;
    incr bad_metrics
  end;
  metrics := (name, v, unit) :: !metrics

let note fmt = Printf.printf (fmt ^^ "\n%!")

let print_result ~(attempted : int) ~(failed : int) : unit =
  let failed = failed + !bad_metrics in
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let ms =
    List.rev_map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (value v) u)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0)
    attempted failed (String.concat ", " ms)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Start a daemon and make it warm: until it answers, then fetch every
   benchmark's workload and ask it once from [clients] connections. *)
let setup (a : args) ~(sock : string) :
    Proc.daemon * string array * Protocol.wire_query array array * float =
  let t0 = Mclock.now () in
  let d =
    Proc.spawn ~exe:a.daemon ~sock
      ~log:(Filename.concat a.workdir "daemon.log")
  in
  let c, names = Proc.connect_ready d in
  let names = Array.of_list names in
  let workloads =
    Array.map
      (fun b ->
        Array.of_list
          (List.concat_map (fun (_, _, qs) -> qs) (Client.queries c ~bench:b)))
      names
  in
  Client.close c;
  Load.warm ~sock ~clients names workloads;
  (d, names, workloads, Mclock.now () -. t0)

(* Mirrors of the pristine benchmarks; the daemon must have served exactly
   their workloads. *)
let suite_of names workloads : Load.suite * int =
  let s = Load.suite names workloads in
  let drift = ref 0 in
  Array.iteri
    (fun i (m : Check.mirror) ->
      if Array.to_list s.Load.workloads.(i) <> m.Check.cur.Check.workload then
        incr drift)
    s.Load.mirrors;
  (s, !drift)

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

(* The batch phase runs in a worker process of its own — the process under
   test of fig8-cold — so that its heap and GC never touch the client
   connections' latencies. Protocol on its stdin/stdout, one line each: the
   worker says "ready" after a warm-up pass; "<seconds>" runs cold passes
   at jobs 1 and jobs N, alternately, while the slice lasts, answering
   "<jobs> <seconds> <equals golden>" per pass, then "done"; "rss" answers
   its peak RSS in MB. *)
let batch_worker ~(golden : string) : unit =
  ignore (Batch.pass ~jobs:jobs_n : string);
  print_endline "ready";
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | "rss" ->
        Printf.printf "%.17g\n%!" (Proc.peak_rss_mb (Unix.getpid ()));
        loop ()
    | budget ->
        let until = Mclock.now () +. float_of_string budget in
        while Mclock.now () < until do
          List.iter
            (fun jobs ->
              let text, dt = Mclock.time (fun () -> Batch.pass ~jobs) in
              Printf.printf "%d %.17g %b\n%!" jobs dt (String.equal text golden))
            [ 1; jobs_n ]
        done;
        print_endline "done";
        loop ()
  in
  loop ()

type worker = { w_pid : int; w_in : in_channel; w_out : out_channel }

let start_worker (a : args) : worker =
  let child_in, to_w = Unix.pipe ~cloexec:true () in
  let from_w, child_out = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--batch-worker"; "--golden"; a.golden |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  Proc.live := pid :: !Proc.live;
  let w =
    { w_pid = pid; w_in = Unix.in_channel_of_descr from_w;
      w_out = Unix.out_channel_of_descr to_w }
  in
  if input_line w.w_in <> "ready" then failwith "batch worker did not start";
  w

let ask_worker (w : worker) (line : string) : unit =
  output_string w.w_out (line ^ "\n");
  flush w.w_out

let stop_worker (w : worker) : unit =
  close_out w.w_out;
  Proc.reap w.w_pid;
  close_in w.w_in

type batch_acc = {
  b_tally : Load.tally;
  worker : worker;
  mutable j1 : float list;
  mutable jn : float list;
}

let batch_slice (acc : batch_acc) ~(seconds : float) : float =
  let t0 = Mclock.now () in
  ask_worker acc.worker (Printf.sprintf "%.17g" seconds);
  let rec read () =
    match input_line acc.worker.w_in with
    | "done" -> ()
    | line ->
        Scanf.sscanf line "%d %f %B" (fun jobs dt ok ->
            Load.op acc.b_tally (fun () ->
                if jobs = 1 then acc.j1 <- dt :: acc.j1 else acc.jn <- dt :: acc.jn;
                ok));
        read ()
  in
  read ();
  Mclock.now () -. t0

type phases = {
  b : batch_acc;
  ask : Load.ask_acc;
  ed : Load.edit_acc;
  mutable host : float list;
}

(* A fixed piece of work that runs no code of the system under test, timed
   once a round: it tracks the host's speed, so that a run whose every
   timing is slow can be told from a slower program. Reported as a note,
   not a metric. *)
let host_reference () : float =
  snd
    (Mclock.time (fun () ->
         let h = Hashtbl.create 1024 in
         for i = 0 to 100_000 do
           Hashtbl.replace h ((i * 7919) land 65535) (string_of_int i)
         done;
         ignore
           (Sys.opaque_identity
              (List.sort compare (List.init 50_000 (fun i -> (i * 104729) land 1048575))))))

(* The measured time is cut into rounds of about [round_s] seconds, each
   running the three phases for their share of it, so that every metric
   samples the whole run rather than one stretch of it: on a shared host
   the machine's speed drifts over seconds. Phase budgets are cumulative,
   so one slice's overrun shortens the next. Each slice returns the time
   it measured: the edit checks and the re-warming of caches after edits
   run between measurements. *)
let round_s = 2.0

let run_phases (a : args) (s : Load.suite) (worker : worker)
    ~(ask_sock : string) ~(edit_sock : string) : phases =
  let mix = mix_of a.workload in
  let p =
    {
      b = { b_tally = Load.tally (); worker; j1 = []; jn = [] };
      ask = Load.ask_acc s ~clients ~seed:a.seed;
      ed = Load.edit_acc s ~seed:a.seed;
      host = [];
    }
  in
  let rounds = max 1 (int_of_float (Float.round (a.seconds /. round_s))) in
  let spent = Array.make 5 0.0 in
  for r = 1 to rounds do
    let slice i share f =
      let due = a.seconds *. share *. float_of_int r /. float_of_int rounds in
      if due > spent.(i) then spent.(i) <- spent.(i) +. f (due -. spent.(i))
    in
    Gc.full_major ();
    p.host <- host_reference () :: p.host;
    slice 0 mix.batch (fun seconds -> batch_slice p.b ~seconds);
    (* the client process starts each slice from a clean heap; the ask
       phase's time is split evenly between the request shapes *)
    List.iteri
      (fun i shape ->
        slice (1 + i) (mix.ask /. 3.0) (fun seconds ->
            Gc.full_major ();
            Load.ask_slice s p.ask shape ~sock:ask_sock ~seconds))
      Load.shapes;
    slice 4 mix.edit (fun seconds ->
        Gc.full_major ();
        Load.edit_slice s p.ed ~sock:edit_sock ~seconds)
  done;
  p

let totals (p : phases) ~(extra_failed : int) : int * int =
  let ts = [ p.b.b_tally; p.ask.Load.a_tally; p.ed.Load.e_tally ] in
  ( List.fold_left (fun n t -> n + t.Load.attempted) 0 ts,
    List.fold_left (fun n t -> n + t.Load.failed) extra_failed ts )

let ms xs = Mclock.median xs *. 1e3

(* A cold fig8 pass is reported as the run's fastest pass, not the median
   one. A pass is 11,525 queries long, so one pass is itself a mean; but a
   jobs-1 pass runs on one core, and the host moves it between ~210 ms and
   ~310 ms for stretches of seconds. The median pass therefore says mostly
   how much of the run fell in slow stretches (it spread 23% run to run);
   the fastest pass, which a slower program slows as much as any other,
   spread 7% (see WORKLOADS.md). *)
let fastest (xs : float list) : float = List.fold_left Float.min Float.infinity xs

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics                                *)
(* ------------------------------------------------------------------ *)

(* [setups] timed set-ups, one daemon at a time. All but the last two are
   stopped at once; the second to last serves the edit phase and the last
   the ask phase, so that edits never reach the warm daemon's caches or
   heap. *)
let setups = 7

let boot (a : args) =
  let sock i =
    Filename.concat a.workdir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) i)
  in
  let times =
    List.init (setups - 2) (fun i ->
        let d, _, _, t = setup a ~sock:(sock i) in
        Proc.stop d;
        t)
  in
  let edit_d, _, _, t_edit = setup a ~sock:(sock (setups - 2)) in
  let ask_d, names, workloads, t_ask = setup a ~sock:(sock (setups - 1)) in
  (ask_d, edit_d, names, workloads, times @ [ t_edit; t_ask ])

let end_to_end (a : args) : unit =
  let worker = start_worker a in
  let ask_d, edit_d, names, workloads, setup_times = boot a in
  let s, drift = suite_of names workloads in
  let p =
    run_phases a s worker ~ask_sock:ask_d.Proc.sock ~edit_sock:edit_d.Proc.sock
  in
  (* the process under test: the batch worker, or the phase's daemon *)
  let rss =
    match a.workload with
    | "fig8-cold" ->
        ask_worker worker "rss";
        float_of_string (input_line worker.w_in)
    | "ask-warm" -> Proc.peak_rss_mb ask_d.Proc.pid
    | _ -> Proc.peak_rss_mb edit_d.Proc.pid
  in
  stop_worker worker;
  Proc.stop ask_d;
  Proc.stop edit_d;
  let attempted, failed = totals p ~extra_failed:drift in
  note "setup: %d daemon start-ups" (List.length setup_times);
  note "fig8: %d passes at jobs 1, %d at jobs %d" (List.length p.b.j1)
    (List.length p.b.jn) jobs_n;
  note "ask: %d single asks in %d sub-slices, %d ask_many, %d streams of %d queries"
    (List.length p.ask.Load.single_s) (List.length p.ask.Load.single_rates)
    (List.length p.ask.Load.many_s) (List.length p.ask.Load.stream_s)
    p.ask.Load.stream_len;
  note "edit: %d edits, %d reader asks" (List.length p.ed.Load.edit_s)
    (List.length p.ed.Load.read_s);
  note "operations: %d attempted, %d failed" attempted failed;
  note "host: reference loop %.3f ms, median of %d rounds"
    (ms p.host) (List.length p.host);
  note "fig8: median pass %.1f ms at jobs 1, %.1f ms at jobs %d (not metrics)"
    (ms p.b.j1) (ms p.b.jn) jobs_n;
  emit "setup_s" (Mclock.median setup_times) "s";
  emit "peak_rss_mb" rss "MB";
  emit "fig8_j1_s" (fastest p.b.j1) "s";
  emit "fig8_jN_s" (fastest p.b.jn) "s";
  emit "ask_p50_us" (Mclock.median p.ask.Load.single_s *. 1e6) "us";
  emit "ask_many_p50_ms" (ms p.ask.Load.many_s) "ms";
  emit "stream_p50_ms" (ms p.ask.Load.stream_s) "ms";
  emit "answers_per_s" (Mclock.median p.ask.Load.single_rates) "1/s";
  emit "edit_p50_ms" (ms p.ed.Load.edit_s) "ms";
  emit "edit_to_warm_p50_ms" (ms p.ed.Load.warm_s) "ms";
  print_result ~attempted ~failed

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics                                   *)
(* ------------------------------------------------------------------ *)

let repeats = 5

let median_of (f : unit -> float) : float =
  Mclock.median (List.init repeats (fun _ -> f ()))

(* The module split's attribution must match the real schemes: for each
   scheme, its resolver time (the resolver-timed pass, real schemes) is
   split into orchestrator self time, module self times, minus the cost
   of the split's extra probes (calibrated per span), plus what is left.
   A remainder beyond this share of the resolver time means the split, or
   the copied schemes it runs, no longer measure what the real schemes do:
   the run counts it as a failed operation. *)
let fig10_tolerance = 0.2

let fig10_breakdown ~(light : (string * Batch.light) list list)
    ~(splits : (string * Batch.split) list list) ~(probe : float) : int =
  let rounds = List.combine light splits in
  (* means over the rounds, so that the parts add up *)
  let mean n f =
    Mclock.sum
      (List.map (fun (ls, ss) -> f (List.assoc n ls) (List.assoc n ss)) rounds)
    /. float_of_int (List.length rounds) *. 1e3
  in
  let failed = ref 0 in
  let side n =
    (* each round's self times add up to its client-query spans exactly *)
    List.iter
      (fun (_, ss) ->
        let s = List.assoc n ss in
        if Float.abs (Batch.self_sum s -. !(s.Batch.total)) > 1e-6 *. !(s.Batch.total)
        then begin
          note "fig10: %s span accounting does not add up" n;
          incr failed
        end)
      rounds;
    let resolver = mean n (fun l _ -> l.Batch.busy) in
    let orch = mean n (fun _ s -> s.Batch.orch.Batch.self) in
    let probes =
      mean n (fun l s ->
          float_of_int (Batch.spans s - List.length l.Batch.lats) *. probe)
    in
    let names =
      List.sort_uniq compare
        (List.concat_map
           (fun (_, ss) ->
             Hashtbl.fold (fun m _ ms -> m :: ms) (List.assoc n ss).Batch.modules [])
           rounds)
    in
    let mods =
      List.map
        (fun m ->
          ( m,
            mean n (fun _ s ->
                match Hashtbl.find_opt s.Batch.modules m with
                | Some a -> a.Batch.self
                | None -> 0.0) ))
        names
    in
    let rest = resolver -. (orch +. Mclock.sum (List.map snd mods) -. probes) in
    (* checked per round, so that one slow pass cannot fail the run *)
    let share =
      Float.abs
        (Mclock.median
           (List.map
              (fun (ls, ss) ->
                let l = List.assoc n ls and s = List.assoc n ss in
                let probes =
                  float_of_int (Batch.spans s - List.length l.Batch.lats) *. probe
                in
                (l.Batch.busy -. (!(s.Batch.total) -. probes)) /. l.Batch.busy)
              rounds))
    in
    if share > fig10_tolerance then begin
      note "fig10: %s unattributed is %.0f%% of its resolver time (median of %d rounds, limit %.0f%%)"
        n (100.0 *. share) (List.length rounds) (100.0 *. fig10_tolerance);
      incr failed
    end;
    (resolver, orch, mods, probes, rest, share)
  in
  let sides = List.map (fun n -> (n, side n)) Batch.split_names in
  note "Fig. 10 breakdown (jobs 1, resolver time summed over %d PDG queries per scheme,"
    (List.length (List.assoc "scaf" (List.hd light)).Batch.lats);
  note "  mean of %d rounds; probe cost %.0f ns per span):" (List.length rounds)
    (probe *. 1e9);
  List.iter
    (fun (n, (t, o, m, p, u, _)) ->
      note "  %-10s resolver %6.2f ms = orchestrator %6.2f + modules %6.2f - probes %5.2f + unattributed %+5.2f"
        n t o (Mclock.sum (List.map snd m)) p u)
    sides;
  let caf_t, caf_o, caf_m, caf_p, caf_u, _ = List.assoc "caf" sides in
  let scaf_t, scaf_o, scaf_m, scaf_p, scaf_u, _ = List.assoc "scaf" sides in
  let delta = scaf_t -. caf_t in
  note "  SCAF - CAF = %+.2f ms (%+.1f%% of CAF), attributed:" delta
    (100.0 *. delta /. caf_t);
  let mod_delta =
    List.map
      (fun (m, v) -> (m, v -. Option.value (List.assoc_opt m caf_m) ~default:0.0))
      scaf_m
  in
  List.iter
    (fun (m, d) -> note "    module %-22s %+8.2f ms" m d)
    (List.sort (fun (_, x) (_, y) -> Float.compare (Float.abs y) (Float.abs x)) mod_delta);
  note "    orchestrator/cache          %+8.2f ms" (scaf_o -. caf_o);
  note "    probes (subtracted)         %+8.2f ms" (scaf_p -. caf_p);
  note "    unattributed                %+8.2f ms" (scaf_u -. caf_u);
  emit "fig10.scaf_minus_caf_ms" delta "ms";
  emit "fig10.module_delta_ms" (Mclock.sum (List.map snd mod_delta)) "ms";
  emit "fig10.orch_delta_ms" (scaf_o -. caf_o) "ms";
  emit "fig10.probe_delta_ms" (scaf_p -. caf_p) "ms";
  emit "fig10.unattributed_delta_ms" (scaf_u -. caf_u) "ms";
  emit "fig10.unattributed_max_share"
    (List.fold_left (fun x (_, (_, _, _, _, _, sh)) -> Float.max x sh) 0.0 sides)
    "ratio";
  !failed

(* In-process probes of the batch pipeline, one layer at a time. *)
let batch_layers ~(golden : string) : int =
  let failed = ref 0 in
  let check text = if not (String.equal text golden) then incr failed in
  (* untraced, resolver-timed and module-split jobs-1 passes, interleaved
     so that drift over the run affects all three alike; each starts from a
     collected heap, so none pays for another's garbage *)
  let timed f =
    Gc.full_major ();
    Mclock.time f
  in
  let rounds =
    List.init repeats (fun _ ->
        let text, j1 = timed (fun () -> Batch.pass ~jobs:1) in
        check text;
        let (text, light), _ = timed Batch.light_pass in
        check text;
        let (text, split), traced = timed Batch.split_pass in
        check text;
        (j1, light, split, traced))
  in
  let j1 = Mclock.median (List.map (fun (t, _, _, _) -> t) rounds) in
  let light = List.map (fun (_, l, _, _) -> l) rounds in
  let splits = List.map (fun (_, _, s, _) -> s) rounds in
  let traced = Mclock.median (List.map (fun (_, _, _, t) -> t) rounds) in
  (* jobs N over a held pool: steals, cache snapshots and GC deltas *)
  let jn_runs =
    List.init repeats (fun _ ->
        let pool = Scaf_pdg.Scheduler.create ~jobs:jobs_n () in
        Fun.protect
          ~finally:(fun () -> Scaf_pdg.Scheduler.shutdown pool)
          (fun () ->
            let g0 = Gc.quick_stat () in
            let (evals, text), dt = Mclock.time (fun () -> Batch.pass_on pool) in
            let g1 = Gc.quick_stat () in
            check text;
            (dt, evals, Scaf_pdg.Scheduler.steals pool, g0, g1)))
  in
  let jn = Mclock.median (List.map (fun (dt, _, _, _, _) -> dt) jn_runs) in
  let materialize = median_of (fun () -> snd (Mclock.time Registry.all)) in
  let progctx =
    let ps = Registry.all () in
    median_of (fun () ->
        snd
          (Mclock.time (fun () ->
               List.iter
                 (fun p -> ignore (Scaf_cfg.Progctx.build (Program.program p)))
                 ps)))
  in
  let profile =
    median_of (fun () ->
        let ps = Registry.all () in
        List.iter (fun p -> ignore (Program.ctx p)) ps;
        snd (Mclock.time (fun () -> List.iter (fun p -> ignore (Program.profiles p)) ps)))
  in
  let render =
    let _, evals, _, _, _ = List.hd jn_runs in
    median_of (fun () -> snd (Mclock.time (fun () -> Batch.render evals)))
  in
  emit "suite.materialize_ms" (materialize *. 1e3) "ms";
  emit "cfg.progctx_ms" (progctx *. 1e3) "ms";
  emit "profile.ms" (profile *. 1e3) "ms";
  emit "profile.share" (profile /. j1) "ratio";
  let queries n = float_of_int (List.length (List.assoc n (List.hd light)).Batch.lats) in
  List.iter
    (fun n -> emit ("pdg.queries." ^ n) (queries n) "count")
    Batch.scheme_names;
  emit "sched.steals"
    (Mclock.median (List.map (fun (_, _, st, _, _) -> float_of_int st) jn_runs))
    "count";
  emit "sched.speedup" (j1 /. jn) "ratio";
  note "sched.speedup: fig8 jobs 1 %.1f ms / jobs %d %.1f ms = %.2fx on %d cores"
    (j1 *. 1e3) jobs_n (jn *. 1e3) (j1 /. jn) nproc;
  List.iter
    (fun n ->
      emit
        (Printf.sprintf "orch.%s.busy_ms" n)
        (Mclock.median (List.map (fun ls -> (List.assoc n ls).Batch.busy *. 1e3) light))
        "ms";
      emit
        (Printf.sprintf "orch.%s.query_us_p50" n)
        (Mclock.median
           (List.map (fun ls -> Mclock.median (List.assoc n ls).Batch.lats *. 1e6) light))
        "us")
    Batch.scheme_names;
  let cq, pq, me = Batch.orch_stats (List.assoc "scaf" (List.hd splits)) in
  emit "orch.client_queries" (float_of_int cq) "count";
  emit "orch.premise_queries" (float_of_int pq) "count";
  emit "orch.module_evals" (float_of_int me) "count";
  let module_names =
    List.map
      (fun (m : Scaf.Module_api.t) -> m.Scaf.Module_api.name)
      (Batch.scaf_modules (Program.profiles (List.hd (Registry.all ()))))
  in
  List.iter
    (fun m ->
      let per f =
        Mclock.median
          (List.map
             (fun ss ->
               match Hashtbl.find_opt (List.assoc "scaf" ss).Batch.modules m with
               | Some a -> f a
               | None -> 0.0)
             splits)
      in
      emit ("module." ^ m ^ ".self_ms") (per (fun a -> a.Batch.self *. 1e3)) "ms";
      emit ("module." ^ m ^ ".evals") (per (fun a -> float_of_int a.Batch.n)) "count")
    module_names;
  let snap =
    let _, evals, _, _, _ = List.hd jn_runs in
    List.fold_left
      (fun acc (_, s) -> Scaf.Qcache.Snapshot.merge acc s)
      Scaf.Qcache.Snapshot.zero
      (Experiments.cache_stats_summary evals)
  in
  emit "qcache.hit_rate" (Scaf.Qcache.Snapshot.hit_rate snap) "%";
  emit "qcache.l1_hits" (float_of_int snap.Scaf.Qcache.Snapshot.l1_hits) "count";
  emit "qcache.misses" (float_of_int snap.Scaf.Qcache.Snapshot.misses) "count";
  emit "qcache.contended" (float_of_int snap.Scaf.Qcache.Snapshot.contended) "count";
  let gc f =
    Mclock.median
      (List.map (fun (_, _, _, (g0 : Gc.stat), (g1 : Gc.stat)) -> f g0 g1) jn_runs)
  in
  let total_queries =
    Mclock.sum (List.map queries Batch.scheme_names)
  in
  emit "gc.minor_words_per_query"
    (gc (fun g0 g1 -> (g1.Gc.minor_words -. g0.Gc.minor_words) /. total_queries))
    "words";
  emit "gc.minor_collections"
    (gc (fun g0 g1 -> float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)))
    "count";
  emit "gc.major_collections"
    (gc (fun g0 g1 -> float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)))
    "count";
  emit "report.render_ms" (render *. 1e3) "ms";
  emit "trace.overhead_frac" ((traced /. j1) -. 1.0) "ratio";
  !failed + fig10_breakdown ~light ~splits ~probe:(Batch.span_cost ())

let per_layer (a : args) ~(golden : string) : unit =
  let worker = start_worker a in
  let ask_d, edit_d, names, workloads, _ = boot a in
  let s, drift = suite_of names workloads in
  let batch_failed = batch_layers ~golden in
  let p =
    run_phases a s worker ~ask_sock:ask_d.Proc.sock ~edit_sock:edit_d.Proc.sock
  in
  stop_worker worker;
  let stats =
    Load.with_client ask_d.Proc.sock "perfbench-stats" Client.stats
  in
  Proc.stop ask_d;
  Proc.stop edit_d;

  let sample =
    let rng = Random.State.make [| a.seed; 0x7a |] in
    let all = Array.of_list p.ask.Load.sample in
    List.init (min 2000 (Array.length all)) (fun _ ->
        all.(Random.State.int rng (Array.length all)))
  in
  let tr = Layers.transport sample in
  emit "json.encode_us" tr.Layers.encode_us "us";
  emit "json.decode_us" tr.Layers.decode_us "us";
  emit "protocol.codec_us" tr.Layers.codec_us "us";
  emit "wire.frame_rt_us" tr.Layers.frame_us "us";
  emit "engine.answer_us" tr.Layers.engine_us "us";
  emit "daemon.handoff_us"
    ((Mclock.median p.ask.Load.single_s *. 1e6)
    -. tr.Layers.encode_us -. tr.Layers.decode_us -. tr.Layers.codec_us
    -. tr.Layers.frame_us -. tr.Layers.engine_us)
    "us";
  List.iter (fun (n, v, u) -> emit n v u) (Layers.daemon_counters stats);
  (* tails and the reader beside edits: informative, too noisy to bound *)
  emit "ask.p99_us" (Mclock.quantile 0.99 p.ask.Load.single_s *. 1e6) "us";
  emit "edit.reader_p50_us" (Mclock.median p.ed.Load.read_s *. 1e6) "us";
  emit "edit.reader_p90_us" (Mclock.quantile 0.9 p.ed.Load.read_s *. 1e6) "us";
  (* the mean, not the median: items arrive in outbox-sized bursts, and the
     gaps between bursts are what a stream's total time is made of *)
  (* a stream's first item comes either at once or after the daemon's
     20 ms consumer poll, a race inside the daemon: too bimodal for an
     end-to-end median over a run's few streams *)
  emit "stream.ttfa_ms" (ms p.ask.Load.ttfa_s) "ms";
  emit "stream.fast_first_share"
    (float_of_int (List.length (List.filter (fun t -> t < 0.005) p.ask.Load.ttfa_s))
    /. float_of_int (List.length p.ask.Load.ttfa_s))
    "ratio";
  emit "stream.inter_item_ms"
    (Mclock.sum p.ask.Load.gap_s /. float_of_int (List.length p.ask.Load.gap_s) *. 1e3)
    "ms";
  let es =
    let rng = Random.State.make [| a.seed; 0xe5 |] in
    let perm = Load.permutation rng (Array.length s.Load.names) in
    Layers.edit_split
      ~benches:(List.init 4 (fun i -> s.Load.names.(perm.(i))))
      ~edits:3
  in
  emit "edit.commit_ms" es.Layers.commit_ms "ms";
  emit "edit.reprofile_ms" es.Layers.reprofile_ms "ms";
  emit "edit.invalidate_ms" es.Layers.invalidate_ms "ms";
  emit "edit.rebuild_ms" es.Layers.rebuild_ms "ms";
  emit "edit.session_ms" es.Layers.session_ms "ms";
  note "edit split: steps %.2f + %.2f + %.2f + %.2f ms vs Session.edit %.2f ms; %d mismatch(es)"
    es.Layers.commit_ms es.Layers.reprofile_ms es.Layers.invalidate_ms
    es.Layers.rebuild_ms es.Layers.session_ms es.Layers.mismatched;
  let report f =
    Mclock.median (List.map (fun r -> float_of_int (f r)) p.ed.Load.reports)
  in
  emit "invalidate.evicted" (report (fun r -> r.Protocol.e_evicted)) "count";
  emit "invalidate.retained" (report (fun r -> r.Protocol.e_retained)) "count";
  emit "invalidate.dirty" (report (fun r -> r.Protocol.e_dirty)) "count";
  emit "edit.reanswered" es.Layers.reanswered "count";
  let attempted, failed =
    totals p ~extra_failed:(drift + batch_failed + es.Layers.mismatched)
  in
  print_result ~attempted ~failed

(* ------------------------------------------------------------------ *)
(* Self-test: each output check must fire on one wrong answer          *)
(* ------------------------------------------------------------------ *)

let selftest ~(golden : string) : bool =
  let bench = "181.mcf" in
  let eng = Engine.create ~benchmarks:[ Option.get (Registry.find bench) ] () in
  let w = Engine.worker eng in
  let b = Option.get (Engine.find_bench eng bench) in
  let answer wq = Engine.answer w ~degrade:Admission.Full ~deadline:None b wq in
  let flip_one = function
    | a :: rest -> { a with Protocol.a_nodep = not a.Protocol.a_nodep } :: rest
    | [] -> []
  in
  let text = Batch.pass ~jobs:jobs_n in
  let wrong_text =
    String.mapi (fun i c -> if i = String.length Batch.header + 40 then '#' else c) text
  in
  let r0 = (Check.mirror bench).Check.cur in
  let answers = List.map answer r0.Check.workload in
  let degraded =
    match answers with
    | a :: rest -> { a with Protocol.a_degraded = Some "deadline" } :: rest
    | [] -> []
  in
  let edit k =
    ignore (Engine.apply_edit eng b [ Protocol.WAuto ]);
    let wl = Check.workload_of b.Engine.program in
    { Check.e_bench = bench; e_k = k; e_workload = wl; e_answers = List.map answer wl }
  in
  let e1 = edit 1 in
  let e2 = edit 2 in
  let read a =
    { Check.r_bench = bench; r_query = List.hd e2.Check.e_workload; r_answer = a;
      r_lo = 2; r_hi = 2 }
  in
  let good_read = read (List.hd e2.Check.e_answers) in
  let bad_read = read (List.hd (flip_one e2.Check.e_answers)) in
  let bad_e2 = { e2 with Check.e_answers = flip_one e2.Check.e_answers } in
  let edits es rs = Check.check_edits (Check.mirror bench) ~upto:2 es rs in
  let checks =
    [
      ("fig8 pass equals the golden", fun () -> String.equal text golden);
      ("one changed fig8 byte is caught", fun () -> not (String.equal wrong_text golden));
      ("daemon-path answers equal batch SCAF",
       fun () -> Check.answers_ok r0 r0.Check.workload answers);
      ("one wrong answer is caught",
       fun () -> not (Check.answers_ok r0 r0.Check.workload (flip_one answers)));
      ("one degraded answer is caught",
       fun () -> not (Check.answers_ok r0 r0.Check.workload degraded));
      ("post-edit answers equal from-scratch runs",
       fun () -> edits [ e1; e2 ] [ good_read ] = 0);
      ("one wrong post-edit answer is caught",
       fun () -> edits [ e1; bad_e2 ] [ good_read ] = 1);
      ("one wrong racing read is caught", fun () -> edits [ e1; e2 ] [ bad_read ] = 1);
    ]
  in
  List.fold_left
    (fun all (what, check) ->
      let ok = check () in
      note "selftest: %-44s %s" what (if ok then "ok" else "WRONG");
      all && ok)
    true checks

let () =
  let a = parse_args () in
  let golden = read_file a.golden in
  if a.selftest then exit (if selftest ~golden then 0 else 1);
  if a.batch_worker then exit (batch_worker ~golden; 0);
  ignore (mix_of a.workload : mix);
  if a.daemon = "" then failwith "--daemon is required";
  if a.trace then per_layer a ~golden else end_to_end a
