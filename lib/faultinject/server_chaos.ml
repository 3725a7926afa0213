(** Server chaos: fault scenarios against a live SCAF query daemon.

    Each scenario starts (or shares) a real daemon on a scratch Unix
    socket and attacks it the way production clients do: connections
    killed mid-frame, slow-loris dribbles, oversized and malformed frames,
    deadline storms, saturated admission queues, injected module faults,
    idle sessions, stale socket files, shutdown races. The contract under
    test is the service-level resilience invariant: {e every request is
    answered, cleanly rejected (retryably, with a hint), or
    deadline-expired — never hung, never half-written}; degraded answers
    are explicitly flagged; and non-degraded answers are the batch
    evaluation's answers. *)

open Scaf_server

type server_outcome = {
  s_scenario : string;
  s_ok : bool;
  s_detail : string;
}

let bench_name = "052.alvinn"

let scratch_sock : unit -> string =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "scaf-chaos-%d-%d.sock" (Unix.getpid ()) !n)

let benchmarks () =
  match Scaf_suite.Registry.find bench_name with
  | Some b -> [ b ]
  | None -> invalid_arg ("Server_chaos: unknown benchmark " ^ bench_name)

(* A scenario body gets [timeout] seconds on a watchdog thread: a hung
   scenario becomes a failing outcome instead of a hung harness — the
   no-hangs contract is checked by construction. *)
(* opt-in progress tracing for debugging the matrices *)
let trace =
  match Sys.getenv_opt "SCAF_CHAOS_TRACE" with Some _ -> true | None -> false

let guarded ~(timeout : float) (scenario : string) (body : unit -> string) :
    server_outcome =
  if trace then Printf.eprintf "[chaos] %s ...\n%!" scenario;
  let result = ref None in
  let m = Mutex.create () in
  let c = Condition.create () in
  let worker =
    Thread.create
      (fun () ->
        let r =
          match body () with
          | detail -> (true, detail)
          | exception e -> (false, Printexc.to_string e)
        in
        Mutex.lock m;
        result := Some r;
        Condition.signal c;
        Mutex.unlock m)
      ()
  in
  let deadline = Scaf_trace.Clock.now () +. timeout in
  Mutex.lock m;
  let rec wait () =
    match !result with
    | Some r -> Some r
    | None ->
        if Scaf_trace.Clock.now () > deadline then None
        else begin
          Mutex.unlock m;
          Thread.delay 0.05;
          Mutex.lock m;
          wait ()
        end
  in
  let r = wait () in
  Mutex.unlock m;
  match r with
  | Some (ok, detail) ->
      Thread.join worker;
      if trace then
        Printf.eprintf "[chaos] %s: %s (%s)\n%!" scenario
          (if ok then "ok" else "FAIL")
          detail;
      { s_scenario = scenario; s_ok = ok; s_detail = detail }
  | None ->
      (* the worker is abandoned, not joined: it is hung, which is exactly
         the finding *)
      if trace then Printf.eprintf "[chaos] %s: HUNG\n%!" scenario;
      {
        s_scenario = scenario;
        s_ok = false;
        s_detail = Printf.sprintf "HUNG (no outcome after %.1fs)" timeout;
      }

(* ---- raw-socket helpers (attacks below the Client abstraction) ---- *)

let raw_connect (path : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_bytes (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.of_string s in
  let n = ref 0 in
  while !n < Bytes.length b do
    n := !n + Unix.write fd b !n (Bytes.length b - !n)
  done

let prefix_of (n : int) : string =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.to_string b

let expect_err_code (j : Json.t) : string =
  match Protocol.open_envelope j with
  | Error e -> e.Protocol.code
  | Ok _ -> "ok"

(* The daemon must still answer a fresh, well-formed client after an
   attack — the cross-check every connection-level scenario ends with. *)
let still_serving (path : string) : bool =
  let c, _ = Client.connect ~name:"probe" path in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Client.ping c;
      true)

let first_query (c : Client.t) ~bench : Protocol.wire_query =
  match Client.queries c ~bench with
  | (_, _, q :: _) :: _ -> q
  | _ -> failwith "benchmark has no queries"

let all_queries (c : Client.t) ~bench : Protocol.wire_query list =
  List.concat_map (fun (_, _, qs) -> qs) (Client.queries c ~bench)

let take (n : int) (l : 'a list) : 'a list =
  List.filteri (fun i _ -> i < n) l

(* ---- scenario groups ---- *)

(** Scenarios against one normally-configured shared daemon. *)
let normal_daemon_scenarios ~(seed : int) (path : string) :
    server_outcome list =
  ignore seed;
  let s name body = guarded ~timeout:60.0 name body in
  [
    s "serve/well-formed-ask" (fun () ->
        let c, benches = Client.connect path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            if not (List.mem bench_name benches) then
              failwith "hello did not list the benchmark";
            let a = Client.ask c ~bench:bench_name (first_query c ~bench:bench_name) in
            if a.Protocol.a_degraded <> None then
              failwith "undegraded request came back degraded";
            Printf.sprintf "result=%s" a.Protocol.a_result));
    s "serve/batch-identical" (fun () ->
        (* every non-degraded daemon answer must agree with a local batch
           (SCAF scheme) evaluation of the same workload *)
        let c, _ = Client.connect path in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            let qs = all_queries c ~bench:bench_name in
            let answers = Client.ask_many c ~bench:bench_name qs in
            let b = List.hd (benchmarks ()) in
            let p = Scaf_suite.Program.profiles b in
            let r = (Scaf_pdg.Schemes.scaf_scheme p).Scaf_pdg.Schemes.spawn () in
            let mismatches = ref 0 in
            List.iter2
              (fun (wq : Protocol.wire_query) (a : Protocol.answer) ->
                if a.Protocol.a_degraded = None then begin
                  let local =
                    r.Scaf_pdg.Schemes.resolve (Protocol.to_core_query wq)
                  in
                  let local_a = Protocol.answer_of_response local in
                  if
                    local_a.Protocol.a_result <> a.Protocol.a_result
                    || local_a.Protocol.a_nodep <> a.Protocol.a_nodep
                    || local_a.Protocol.a_cost <> a.Protocol.a_cost
                  then incr mismatches
                end)
              qs answers;
            if !mismatches > 0 then
              failwith (Printf.sprintf "%d answers differ from batch" !mismatches);
            Printf.sprintf "%d answers identical to batch" (List.length qs)));
    s "conn/killed-mid-frame" (fun () ->
        (* declare 100 bytes, send 10, vanish *)
        let fd = raw_connect path in
        send_bytes fd (prefix_of 100);
        send_bytes fd "0123456789";
        Unix.close fd;
        Thread.delay 0.1;
        if still_serving path then "server unaffected" else failwith "down");
  ]
  @ [
      guarded ~timeout:30.0 "conn/killed-mid-prefix" (fun () ->
          let fd = raw_connect path in
          send_bytes fd "\x00\x00";
          Unix.close fd;
          Thread.delay 0.1;
          if still_serving path then "server unaffected" else failwith "down");
      guarded ~timeout:30.0 "conn/killed-before-reply" (fun () ->
          (* a full valid request, then vanish without reading the reply:
             the server's write must hit EPIPE, not hang or crash *)
          let fd = raw_connect path in
          let payload =
            Json.to_string
              (Protocol.request_to_json
                 (Protocol.Report { bench = bench_name }))
          in
          send_bytes fd (prefix_of (String.length payload) ^ payload);
          Unix.close fd;
          Thread.delay 0.2;
          if still_serving path then "server unaffected" else failwith "down");
      guarded ~timeout:30.0 "frame/oversized" (fun () ->
          let fd = raw_connect path in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              send_bytes fd (prefix_of (100 * 1024 * 1024));
              match Wire.read_frame ~frame_budget:10.0 fd with
              | Ok j ->
                  let code = expect_err_code j in
                  if code <> "bad_request" then
                    failwith ("expected bad_request, got " ^ code);
                  if still_serving path then "rejected, then hung up"
                  else failwith "down"
              | Error e -> failwith (Wire.error_to_string e)));
      guarded ~timeout:30.0 "frame/malformed-json" (fun () ->
          let fd = raw_connect path in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              send_bytes fd (prefix_of 5 ^ "{nope");
              match Wire.read_frame ~frame_budget:10.0 fd with
              | Ok j ->
                  let code = expect_err_code j in
                  if code <> "bad_request" then
                    failwith ("expected bad_request, got " ^ code);
                  (* the frame was well-delimited: the connection must
                     still be usable *)
                  let ping =
                    Json.to_string (Protocol.request_to_json Protocol.Ping)
                  in
                  send_bytes fd (prefix_of (String.length ping) ^ ping);
                  (match Wire.read_frame ~frame_budget:10.0 fd with
                  | Ok j2 when expect_err_code j2 = "ok" ->
                      "rejected, connection survived"
                  | Ok _ -> failwith "ping after bad json failed"
                  | Error e -> failwith (Wire.error_to_string e))
              | Error e -> failwith (Wire.error_to_string e)));
      guarded ~timeout:30.0 "frame/unknown-op" (fun () ->
          let fd = raw_connect path in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              (* versioned correctly, so the gate passes and the op
                 parser is what rejects it *)
              let payload = {|{"op":"frobnicate","v":2}|} in
              send_bytes fd (prefix_of (String.length payload) ^ payload);
              match Wire.read_frame ~frame_budget:10.0 fd with
              | Ok j when expect_err_code j = "bad_request" -> "rejected"
              | Ok j -> failwith ("unexpected " ^ Json.to_string j)
              | Error e -> failwith (Wire.error_to_string e)));
      guarded ~timeout:30.0 "req/unknown-bench" (fun () ->
          let c, _ = Client.connect ~retry:Client.no_retry path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match
                Client.ask c ~bench:"no-such-bench"
                  { Protocol.wloop = "l"; wsrc = 0; wdst = 0; wcross = false }
              with
              | _ -> failwith "expected unknown_bench"
              | exception Client.Server_error e ->
                  if e.Protocol.retryable then
                    failwith "unknown_bench must not be retryable";
                  e.Protocol.code));
      guarded ~timeout:60.0 "deadline/instant-expiry" (fun () ->
          let c, _ = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let q = first_query c ~bench:bench_name in
              let a = Client.ask ~deadline_ms:0.001 c ~bench:bench_name q in
              match a.Protocol.a_degraded with
              | Some "deadline" -> "answered, flagged deadline"
              | Some other -> failwith ("unexpected tag " ^ other)
              | None -> failwith "0.001ms deadline not flagged"));
      guarded ~timeout:120.0 "deadline/storm" (fun () ->
          let c, _ = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let qs = all_queries c ~bench:bench_name in
              let n = min 40 (List.length qs) in
              let qs = List.filteri (fun i _ -> i < n) qs in
              let answered = ref 0 and missed = ref 0 in
              List.iteri
                (fun i q ->
                  let deadline_ms = if i mod 2 = 0 then 0.001 else 10_000.0 in
                  let a = Client.ask ~deadline_ms c ~bench:bench_name q in
                  incr answered;
                  if a.Protocol.a_degraded = Some "deadline" then incr missed)
                qs;
              if !answered <> n then failwith "a request hung or was dropped";
              if !missed = 0 then failwith "no deadline ever expired";
              Printf.sprintf "%d answered, %d flagged expired" !answered !missed));
      guarded ~timeout:120.0 "conc/hammer-one-query" (fun () ->
          (* several clients, one hot query: all answered, all agree *)
          let q =
            let c, _ = Client.connect path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> first_query c ~bench:bench_name)
          in
          let results = Array.make 4 None in
          let threads =
            List.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    let c, _ = Client.connect ~name:(Printf.sprintf "h%d" i) path in
                    Fun.protect
                      ~finally:(fun () -> Client.close c)
                      (fun () ->
                        let answers =
                          List.init 5 (fun _ -> Client.ask c ~bench:bench_name q)
                        in
                        results.(i) <- Some answers))
                  ())
          in
          List.iter Thread.join threads;
          let all =
            Array.to_list results
            |> List.concat_map (function Some l -> l | None -> failwith "a client died")
          in
          let r0 = (List.hd all).Protocol.a_result in
          if List.exists (fun (a : Protocol.answer) -> a.Protocol.a_result <> r0) all
          then failwith "clients disagree on one query";
          Printf.sprintf "%d concurrent answers agree (%s)" (List.length all) r0);
      guarded ~timeout:120.0 "conc/distinct-clients" (fun () ->
          let qs =
            let c, _ = Client.connect path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> all_queries c ~bench:bench_name)
          in
          let n = List.length qs in
          let failures = Atomic.make 0 in
          let threads =
            List.init 4 (fun i ->
                Thread.create
                  (fun () ->
                    let c, _ = Client.connect ~name:(Printf.sprintf "w%d" i) path in
                    Fun.protect
                      ~finally:(fun () -> Client.close c)
                      (fun () ->
                        List.iteri
                          (fun j q ->
                            if j mod 4 = i then
                              match Client.ask c ~bench:bench_name q with
                              | _ -> ()
                              | exception _ -> Atomic.incr failures)
                          qs))
                  ())
          in
          List.iter Thread.join threads;
          if Atomic.get failures > 0 then
            failwith (Printf.sprintf "%d asks failed" (Atomic.get failures));
          Printf.sprintf "%d queries split over 4 clients" n);
      guarded ~timeout:30.0 "ops/stats" (fun () ->
          let c, _ = Client.connect path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let j = Client.stats c in
              let adm = Json.mem_or "admission" ~default:(Json.Obj []) j in
              let state = Json.string_member "state" adm in
              let served =
                match
                  Json.member "metrics" j
                  |> Option.map (Json.mem_or "counters" ~default:(Json.Obj []))
                with
                | Some counters -> (
                    match Json.member "server.requests" counters with
                    | Some (Json.Int n) -> n
                    | _ -> 0)
                | None -> 0
              in
              if served = 0 then failwith "stats shows no requests served";
              Printf.sprintf "state=%s requests=%d" state served));
    ]

(** Slow-loris against a daemon with a tight frame budget. *)
let slow_loris_scenario (path : string) : server_outcome =
  guarded ~timeout:30.0 "conn/slow-loris" (fun () ->
      let fd = raw_connect path in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          let t0 = Scaf_trace.Clock.now () in
          (* declare a 1000-byte frame, then dribble one payload byte per
             100ms: the 0.5s frame budget must cut us off *)
          let cut = ref false in
          (try
             send_bytes fd (prefix_of 1000);
             for i = 0 to 39 do
               ignore i;
               send_bytes fd "x";
               Thread.delay 0.1
             done
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             cut := true);
          let elapsed = Scaf_trace.Clock.now () -. t0 in
          if not !cut then failwith "server tolerated a 4s dribble";
          if elapsed > 5.0 then
            failwith (Printf.sprintf "cut only after %.1fs" elapsed);
          if still_serving path then
            Printf.sprintf "cut off after %.1fs" elapsed
          else failwith "down"))

(** Load shedding: watermark-zero daemons degrade every answer, tagged. *)
let shed_scenarios ~(seed : int) () : server_outcome list =
  ignore seed;
  let run name ~(admission : Admission.config) ~(expect : string -> bool) =
    guarded ~timeout:120.0 name (fun () ->
        let cfg =
          { (Daemon.default_config ~socket_path:(scratch_sock ())
               ~benchmarks:(benchmarks ()) ())
            with Daemon.admission }
        in
        let d = Daemon.start cfg in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            let c, _ = Client.connect cfg.Daemon.socket_path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                let q = first_query c ~bench:bench_name in
                let a = Client.ask c ~bench:bench_name q in
                match a.Protocol.a_degraded with
                | Some tag when expect tag -> "degraded as " ^ tag
                | Some tag -> failwith ("unexpected tag " ^ tag)
                | None -> failwith "shed answer not flagged")))
  in
  [
    run "shed/cheap-modules"
      ~admission:
        { Admission.default_config with
          Admission.cheap_watermark = 0;
          cache_watermark = 1000;
          capacity = 1000;
        }
      ~expect:(fun t -> t = "load_shed:cheap-modules");
    run "shed/cached-only"
      ~admission:
        { Admission.default_config with
          Admission.cheap_watermark = 0;
          cache_watermark = 0;
          capacity = 1000;
        }
      ~expect:(fun t ->
        t = "load_shed:cached" || t = "load_shed:cached-miss");
  ]

(** Saturation: slow modules + a 2-deep queue force explicit rejections
    with a retry hint; a backoff-retrying client eventually lands. *)
let saturation_scenarios ~(seed : int) () : server_outcome list =
  ignore seed;
  let mk_cfg () =
    let slow (ms : Scaf.Module_api.t list) =
      List.map
        (fun (m : Scaf.Module_api.t) ->
          {
            m with
            Scaf.Module_api.answer =
              (fun ctx q ->
                Thread.delay 0.005;
                m.Scaf.Module_api.answer ctx q);
          })
        ms
    in
    {
      (Daemon.default_config ~socket_path:(scratch_sock ())
         ~benchmarks:(benchmarks ()) ())
      with
      Daemon.workers = 1;
      admission =
        {
          Admission.capacity = 2;
          cheap_watermark = 1000;
          cache_watermark = 1000;
          retry_after_ms = 30.0;
        };
      wrap = slow;
    }
  in
  [
    guarded ~timeout:180.0 "load/reject-with-retry-after" (fun () ->
        let cfg = mk_cfg () in
        let d = Daemon.start cfg in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            let path = cfg.Daemon.socket_path in
            let c0, _ = Client.connect path in
            let qs = take 5 (all_queries c0 ~bench:bench_name) in
            Client.close c0;
            (* 6 clients, one worker, queue of 2: someone must be refused *)
            let rejections = Atomic.make 0 and answered = Atomic.make 0 in
            let hint_seen = Atomic.make 0 in
            let threads =
              List.init 6 (fun i ->
                  Thread.create
                    (fun () ->
                      let c, _ =
                        Client.connect ~retry:Client.no_retry
                          ~name:(Printf.sprintf "s%d" i) path
                      in
                      Fun.protect
                        ~finally:(fun () -> Client.close c)
                        (fun () ->
                          match Client.ask_many c ~bench:bench_name qs with
                          | _ -> Atomic.incr answered
                          | exception Client.Server_error e
                            when e.Protocol.code = "overloaded" ->
                              if not e.Protocol.retryable then
                                failwith "overloaded must be retryable";
                              if e.Protocol.retry_after_ms <> None then
                                Atomic.incr hint_seen;
                              Atomic.incr rejections))
                    ())
            in
            List.iter Thread.join threads;
            if Atomic.get rejections = 0 then
              failwith "queue never rejected under 6x saturation";
            if Atomic.get hint_seen <> Atomic.get rejections then
              failwith "rejection without retry_after hint";
            if Atomic.get answered = 0 then failwith "nobody was served";
            Printf.sprintf "%d served, %d rejected with hint"
              (Atomic.get answered) (Atomic.get rejections)));
    guarded ~timeout:180.0 "load/backoff-retry-succeeds" (fun () ->
        let cfg = mk_cfg () in
        let d = Daemon.start cfg in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            let path = cfg.Daemon.socket_path in
            let c0, _ = Client.connect path in
            let qs = take 5 (all_queries c0 ~bench:bench_name) in
            Client.close c0;
            (* saturating background clients... *)
            let stop = Atomic.make false in
            let noise =
              List.init 4 (fun i ->
                  Thread.create
                    (fun () ->
                      let c, _ =
                        Client.connect ~name:(Printf.sprintf "n%d" i) path
                      in
                      Fun.protect
                        ~finally:(fun () -> Client.close c)
                        (fun () ->
                          while not (Atomic.get stop) do
                            (try
                               ignore (Client.ask_many c ~bench:bench_name qs)
                             with _ -> ());
                            Thread.delay 0.005
                          done))
                    ())
            in
            (* ...while a patient client retries with backoff + jitter *)
            let c, _ =
              Client.connect
                ~retry:{ Client.attempts = 50; base_ms = 10.0; cap_ms = 200.0 }
                ~name:"patient" path
            in
            let a =
              Fun.protect
                ~finally:(fun () -> Client.close c)
                (fun () -> Client.ask c ~bench:bench_name (List.hd qs))
            in
            Atomic.set stop true;
            List.iter Thread.join noise;
            Printf.sprintf "served after backoff (result=%s)"
              a.Protocol.a_result));
  ]

(** Module faults while serving: the chaos injector wraps the daemon's
    ensembles; the orchestrator's fault isolation must keep every wire
    answer flowing. *)
let module_fault_scenario ~(seed : int) () : server_outcome =
  guarded ~timeout:180.0 "fault/modules-raising" (fun () ->
      let cfg =
        {
          (Daemon.default_config ~socket_path:(scratch_sock ())
             ~benchmarks:(benchmarks ()) ())
          with
          Daemon.wrap =
            (fun ms ->
              fst (Chaos.wrap_all (Chaos.config ~seed ~p_raise:0.3 ()) ms));
        }
      in
      let d = Daemon.start cfg in
      Fun.protect
        ~finally:(fun () -> Daemon.stop d)
        (fun () ->
          let c, _ = Client.connect cfg.Daemon.socket_path in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let qs = all_queries c ~bench:bench_name in
              let answers = Client.ask_many c ~bench:bench_name qs in
              if List.length answers <> List.length qs then
                failwith "an answer went missing";
              Printf.sprintf "%d queries answered under p_raise=0.3"
                (List.length answers))))

(** Session lifecycle: idle reap (with transparent client reconnect) and
    stale-socket recovery after an unclean death. *)
let lifecycle_scenarios ~(seed : int) () : server_outcome list =
  ignore seed;
  [
    guarded ~timeout:120.0 "session/idle-reap-reconnect" (fun () ->
        let cfg =
          {
            (Daemon.default_config ~socket_path:(scratch_sock ())
               ~benchmarks:(benchmarks ()) ())
            with
            Daemon.idle_timeout = 0.3;
          }
        in
        let d = Daemon.start cfg in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            let c, _ = Client.connect cfg.Daemon.socket_path in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () ->
                Client.ping c;
                Thread.delay 1.2;
                (* reaped by now; rpc reconnects transparently *)
                Client.ping c;
                let j = Client.stats c in
                let reaped =
                  match
                    Json.member "metrics" j
                    |> Option.map
                         (Json.mem_or "counters" ~default:(Json.Obj []))
                    |> Option.map (Json.member "server.sessions.reaped")
                  with
                  | Some (Some (Json.Int n)) -> n
                  | _ -> 0
                in
                if reaped < 1 then failwith "idle session never reaped";
                Printf.sprintf "reaped=%d, client reconnected" reaped)));
    guarded ~timeout:120.0 "session/stale-socket-recovery" (fun () ->
        (* fake an unclean death: a bound-then-closed socket leaves its
           file behind, like kill -9 on a live daemon *)
        let path = scratch_sock () in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 1;
        Unix.close fd;
        if not (Sys.file_exists path) then failwith "no stale socket to test";
        let cfg =
          Daemon.default_config ~socket_path:path ~benchmarks:(benchmarks ())
            ()
        in
        let d = Daemon.start cfg in
        Fun.protect
          ~finally:(fun () -> Daemon.stop d)
          (fun () ->
            if still_serving path then "stale socket replaced, serving"
            else failwith "not serving"));
    guarded ~timeout:120.0 "session/shutdown-op" (fun () ->
        let cfg =
          Daemon.default_config ~socket_path:(scratch_sock ())
            ~benchmarks:(benchmarks ()) ()
        in
        let d = Daemon.start cfg in
        let c, _ = Client.connect cfg.Daemon.socket_path in
        Client.shutdown c;
        Client.close c;
        Daemon.wait d;
        if Sys.file_exists cfg.Daemon.socket_path then
          failwith "socket file left behind";
        (match Client.connect ~retry:Client.no_retry cfg.Daemon.socket_path with
        | _ -> failwith "daemon still accepting after shutdown"
        | exception Client.Transport_error _ -> ());
        "acknowledged, stopped, socket unlinked");
  ]

(** The full server fault matrix (>= 20 scenarios). *)
let run_server_chaos ?(seed = 2026) () : server_outcome list =
  let cfg =
    Daemon.default_config ~socket_path:(scratch_sock ())
      ~benchmarks:(benchmarks ()) ()
  in
  let d = Daemon.start cfg in
  let shared =
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () -> normal_daemon_scenarios ~seed cfg.Daemon.socket_path)
  in
  let loris =
    let cfg =
      {
        (Daemon.default_config ~socket_path:(scratch_sock ())
           ~benchmarks:(benchmarks ()) ())
        with
        Daemon.frame_budget = 0.5;
      }
    in
    let d = Daemon.start cfg in
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () -> [ slow_loris_scenario cfg.Daemon.socket_path ])
  in
  shared @ loris @ shed_scenarios ~seed ()
  @ saturation_scenarios ~seed ()
  @ [ module_fault_scenario ~seed () ]
  @ lifecycle_scenarios ~seed ()
