(* Per-layer probes for the traced run: the ask path replayed through each
   public function of the transport stack, edits replayed step by step
   through the incremental engine, and the daemon's own counters. *)

open Scaf
open Scaf_server
module Program = Scaf_suite.Program
module Registry = Scaf_suite.Registry
module Session = Scaf_incremental.Session

let us_median (xs : float list) = Mclock.median xs *. 1e6

(* ------------------------------------------------------------------ *)
(* Transport split                                                     *)
(* ------------------------------------------------------------------ *)

type transport = {
  encode_us : float;
  decode_us : float;
  codec_us : float;
  frame_us : float;  (** framing and socket only: JSON text excluded *)
  engine_us : float;
}

(* Replay sampled single asks (bench, query, daemon answer) through: the
   request/reply codecs ([Protocol] <-> [Json.t]), the JSON text layer,
   [Wire] frames over a socketpair, and an in-process [Engine] warmed over
   the same benchmarks, the way the daemon's workers answer. *)
let transport (sample : (string * Protocol.wire_query * Protocol.answer) list) :
    transport =
  let encode = ref [] and decode = ref [] and codec = ref [] and frame = ref [] in
  let a_fd, b_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a_fd;
      Unix.close b_fd)
    (fun () ->
      List.iter
        (fun (bench, wq, a) ->
          let req = Protocol.Ask { bench; q = wq; deadline_ms = None } in
          let (reqj, replyj), dt =
            Mclock.time (fun () ->
                let reqj = Protocol.request_to_json req in
                ignore (Protocol.request_of_json reqj : Protocol.request);
                let replyj = Protocol.ok [ ("answer", Protocol.answer_to_json a) ] in
                (match Json.member "answer" replyj with
                | Some aj -> ignore (Protocol.answer_of_json aj : Protocol.answer)
                | None -> ());
                (reqj, replyj))
          in
          codec := dt :: !codec;
          let (reqs, replys), dt =
            Mclock.time (fun () -> (Json.to_string reqj, Json.to_string replyj))
          in
          encode := dt :: !encode;
          let (), dt =
            Mclock.time (fun () ->
                ignore (Json.of_string reqs : Json.t);
                ignore (Json.of_string replys : Json.t))
          in
          decode := dt :: !decode;
          let (), dt =
            Mclock.time (fun () ->
                ignore (Wire.write_frame a_fd reqj);
                ignore (Wire.read_frame b_fd);
                ignore (Wire.write_frame b_fd replyj);
                ignore (Wire.read_frame a_fd))
          in
          frame := dt :: !frame)
        sample);
  let eng = Engine.create ~benchmarks:(Registry.all ()) () in
  let w = Engine.worker eng in
  let bench name = Option.get (Engine.find_bench eng name) in
  let answer name wq =
    Engine.answer w ~degrade:Admission.Full ~deadline:None (bench name) wq
  in
  List.iter (fun (name, wq, _) -> ignore (answer name wq)) sample;
  let engine =
    List.map (fun (name, wq, _) -> snd (Mclock.time (fun () -> answer name wq))) sample
  in
  let encode_us = us_median !encode and decode_us = us_median !decode in
  {
    encode_us;
    decode_us;
    codec_us = us_median !codec;
    frame_us = us_median !frame -. encode_us -. decode_us;
    engine_us = us_median engine;
  }

(* ------------------------------------------------------------------ *)
(* Edit split                                                          *)
(* ------------------------------------------------------------------ *)

type edit_split = {
  commit_ms : float;
  reprofile_ms : float;
  invalidate_ms : float;
  rebuild_ms : float;
  session_ms : float;  (** [Session.edit] as a whole *)
  reanswered : float;
  mismatched : int;
      (** edits whose copy and [Session.edit] re-derived different counts *)
}

(* The steps must add up to [Session.edit] within this share of its time,
   or the copy below has drifted from it. *)
let edit_tolerance = 0.25

(* [Session.edit]'s steps, copied and timed one by one on a warmed session:
   commit (AST surgery + lint + epoch bump), re-profiling and both
   fingerprints,
   the invalidation pass, then rebuilding the module list and the
   orchestrator. A twin session of the same benchmark takes the same edit
   through [Session.edit] itself, so the copy is checked against the real
   thing: the steps must add up to its time, and after each edit both
   sessions must re-derive the same number of answers when the workload is
   re-asked. *)
let edit_split ~(benches : string list) ~(edits : int) : edit_split =
  let commit = ref [] and reprofile = ref [] and invalidate = ref [] in
  let rebuild = ref [] and steps = ref [] and whole = ref [] in
  let reanswered = ref [] and mismatched = ref 0 in
  let reask s =
    Session.reset_counters s;
    List.iter (fun q -> ignore (Session.ask s q)) (Session.workload s);
    (Session.counters s).Session.recomputed
  in
  List.iter
    (fun name ->
      let s = Session.create (Option.get (Registry.find name)) in
      let twin = Session.create (Option.get (Registry.find name)) in
      ignore (reask s : int);
      ignore (reask twin : int);
      for _ = 1 to edits do
        let op = Session.auto_edit (Session.create (Program.fork s.Session.program)) in
        Gc.full_major ();
        let p = s.Session.program in
        let old_m = Program.program p in
        let old_fp, t_fingerprint =
          Mclock.time (fun () ->
              Scaf_incremental.Fingerprint.of_profiles (Program.profiles p))
        in
        let diff, t_commit =
          Mclock.time (fun () ->
              match Scaf_suite.Edit.apply_all p [ op ] with
              | Ok d -> d
              | Error _ -> failwith "edit split: the scripted edit was rejected")
        in
        let new_fp, t_reprofile =
          Mclock.time (fun () ->
              Scaf_incremental.Fingerprint.of_profiles (Program.profiles p))
        in
        let t_reprofile = t_fingerprint +. t_reprofile in
        let caps_of n =
          Option.map
            (fun (m : Module_api.t) -> m.Module_api.caps)
            (List.find_opt
               (fun (m : Module_api.t) -> String.equal m.Module_api.name n)
               s.Session.modules)
        in
        let _, t_invalidate =
          Mclock.time (fun () ->
              Orchestrator.flush_cache s.Session.orch;
              Scaf_incremental.Invalidate.run ~graph:s.Session.graph ~caps_of
                ~components:
                  (Scaf_incremental.Components.build [ old_m; Program.program p ])
                ~touched_funcs:diff.Scaf_suite.Edit.touched_funcs
                ~touched_globals:diff.Scaf_suite.Edit.touched_globals
                ~profile_dirty:
                  (Scaf_incremental.Fingerprint.changed ~before:old_fp ~after:new_fp)
                ~next_epoch:diff.Scaf_suite.Edit.epoch s.Session.cache)
        in
        let (), t_rebuild =
          Mclock.time (fun () ->
              Scaf_incremental.Collector.set_funcs_of s.Session.graph
                (Scaf_incremental.Collector.funcs_of_ctx (Program.ctx p));
              s.Session.modules <- Session.modules_of p;
              s.Session.orch <-
                Session.make_orch p s.Session.cache s.Session.frontend
                  s.Session.modules)
        in
        Gc.full_major ();
        ignore (Program.profiles twin.Session.program);
        let r, t_whole = Mclock.time (fun () -> Session.edit twin [ op ]) in
        if Result.is_error r then failwith "edit split: Session.edit rejected the edit";
        commit := t_commit :: !commit;
        reprofile := t_reprofile :: !reprofile;
        invalidate := t_invalidate :: !invalidate;
        rebuild := t_rebuild :: !rebuild;
        steps := (t_commit +. t_reprofile +. t_invalidate +. t_rebuild) :: !steps;
        whole := t_whole :: !whole;
        let n = reask s in
        if reask twin <> n then incr mismatched;
        reanswered := float_of_int n :: !reanswered
      done)
    benches;
  let ms xs = Mclock.median xs *. 1e3 in
  let session_ms = ms !whole in
  if Float.abs (ms !steps -. session_ms) > edit_tolerance *. session_ms then
    incr mismatched;
  {
    commit_ms = ms !commit;
    reprofile_ms = ms !reprofile;
    invalidate_ms = ms !invalidate;
    rebuild_ms = ms !rebuild;
    session_ms;
    reanswered = Mclock.median !reanswered;
    mismatched = !mismatched;
  }

(* ------------------------------------------------------------------ *)
(* Daemon counters                                                     *)
(* ------------------------------------------------------------------ *)

let rec path (j : Json.t) (keys : string list) : Json.t option =
  match keys with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let num (j : Json.t) (keys : string list) : float =
  match path j keys with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Float.nan

(* [ask stats] fields, by name. *)
let daemon_counters (stats : Json.t) : (string * float * string) list =
  let wait_us =
    match path stats [ "engine"; "caches" ] with
    | Some (Json.Obj benches) ->
        List.fold_left
          (fun t (_, b) -> t +. num b [ "full"; "wait_us_total" ])
          0.0 benches
    | _ -> Float.nan
  in
  [
    ("admission.shed_cheap", num stats [ "admission"; "shed_cheap" ], "count");
    ("admission.shed_cached", num stats [ "admission"; "shed_cached" ], "count");
    ("admission.rejected", num stats [ "admission"; "rejected" ], "count");
    ("engine.coalesced", num stats [ "engine"; "coalesced" ], "count");
    ( "server.request_latency_p50_us",
      num stats [ "metrics"; "histograms"; "server.request_latency_s"; "p50" ] *. 1e6,
      "us" );
    ( "stream.backpressure_sheds",
      num stats [ "transport"; "backpressure_sheds" ],
      "count" );
    ("qcache.wait_ms", wait_us /. 1e3, "ms");
  ]
