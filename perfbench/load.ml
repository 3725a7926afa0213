(* The daemon-side load: closed-loop client connections from this one
   process, each a thread that sends its next request only after the
   previous reply arrived. A run measures in slices (see bench.ml); the
   accumulators below collect every slice's samples. *)

open Scaf_server

(* What the client knows about the daemons: per benchmark, the workload
   served at set-up, the pristine reference the never-edited ask daemon
   must match, a mirror of the edit daemon's current program state, and
   how many edits were started and committed there. *)
type suite = {
  names : string array;
  workloads : Protocol.wire_query array array;
  pristine : Check.reference array;
  mirrors : Check.mirror array;
  started : int Atomic.t array;
  committed : int Atomic.t array;
}

let suite (names : string array) (workloads : Protocol.wire_query array array)
    : suite =
  let n = Array.length names in
  let mirrors = Array.map Check.mirror names in
  {
    names;
    workloads;
    pristine = Array.map (fun (m : Check.mirror) -> m.Check.cur) mirrors;
    mirrors;
    started = Array.init n (fun _ -> Atomic.make 0);
    committed = Array.init n (fun _ -> Atomic.make 0);
  }

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* Run [f] as one operation: false results and client exceptions are
   failures. *)
let op (t : tally) (f : unit -> bool) : unit =
  t.attempted <- t.attempted + 1;
  match f () with
  | true -> ()
  | false -> t.failed <- t.failed + 1
  | exception (Client.Server_error _ | Client.Transport_error _) ->
      t.failed <- t.failed + 1

let permutation (rng : Random.State.t) (n : int) : int array =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Seeded permutations of the benchmarks, back to back, so that every seed
   weighs every benchmark equally. *)
type walk = { rng : Random.State.t; mutable perm : int array; mutable pi : int }

let walk (rng : Random.State.t) (n : int) : walk =
  { rng; perm = permutation rng n; pi = 0 }

let next (w : walk) : int =
  if w.pi = Array.length w.perm then begin
    w.perm <- permutation w.rng (Array.length w.perm);
    w.pi <- 0
  end;
  w.pi <- w.pi + 1;
  w.perm.(w.pi - 1)

let run_threads (fs : (unit -> unit) list) : unit =
  List.iter Thread.join (List.map (fun f -> Thread.create f ()) fs)

let with_client (sock : string) (name : string) (f : Client.t -> 'a) : 'a =
  let c, _ = Client.connect ~name sock in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* ask-warm: single asks, batched and streamed ask_many                *)
(* ------------------------------------------------------------------ *)

(* The three request shapes a daemon client sends, each the request of one
   `scaf_eval ask` surface: a single [ask] (`ask query`, and `ask replay`
   query by query), a batched [ask_many] of one benchmark's whole workload
   (the per-benchmark requests of the whole-suite replay), and a streamed
   [ask_many] (`ask replay --stream`). The ask phase gives each shape a
   sub-slice of its own in which every connection sends only that shape,
   so no shape's latency depends on how often another one is sent. *)
type shape = Single | Batched | Streamed

let shapes = [ Single; Batched; Streamed ]
let warm_s = 0.1

type asker = { a_rng : Random.State.t; a_walk : walk }

type ask_acc = {
  a_tally : tally;
  stream_len : int;
      (** queries per stream: the median benchmark's workload size *)
  mutable single_s : float list;
  mutable many_s : float list;
  mutable stream_s : float list;
  mutable ttfa_s : float list;
  mutable gap_s : float list;
  mutable single_rates : float list;
      (** answers per second of each single sub-slice *)
  mutable sample : (string * Protocol.wire_query * Protocol.answer) list;
      (** single asks and their answers, for the transport replay *)
  askers : asker array;
}

let median_size (workloads : Protocol.wire_query array array) : int =
  let sizes = Array.map Array.length workloads in
  Array.sort compare sizes;
  sizes.(Array.length sizes / 2)

let ask_acc (s : suite) ~(clients : int) ~(seed : int) : ask_acc =
  {
    a_tally = tally ();
    stream_len = median_size s.workloads;
    single_s = [];
    many_s = [];
    stream_s = [];
    ttfa_s = [];
    gap_s = [];
    single_rates = [];
    sample = [];
    askers =
      Array.init clients (fun i ->
          let rng = Random.State.make [| seed; 0xa5; i |] in
          { a_rng = rng; a_walk = walk rng (Array.length s.names) });
  }

(* Ask every benchmark's whole workload once from [clients] connections, so
   that every daemon worker holds a warm orchestrator and cache for it. *)
let warm ~(sock : string) ~(clients : int) (names : string array)
    (workloads : Protocol.wire_query array array) : unit =
  run_threads
    (List.init clients (fun _ () ->
         with_client sock "perfbench-warm" (fun c ->
             Array.iteri
               (fun i b ->
                 ignore (Client.ask_many c ~bench:b (Array.to_list workloads.(i))))
               names)))

(* One timed operation of a client thread: [request] runs unlocked, then
   [record] files its result and duration under [lock] (the client threads
   share the accumulators) and says whether the output checked out. *)
let timed_op (t : tally) (lock : Mutex.t) (request : unit -> 'r)
    (record : 'r -> float -> bool) : unit =
  let result = match Mclock.time request with r -> Ok r | exception e -> Error e in
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      op t (fun () ->
          match result with Ok (r, dt) -> record r dt | Error e -> raise e))

let ask_request (s : suite) (acc : ask_acc) (lock : Mutex.t) (c : Client.t)
    (k : asker) (shape : shape) : unit =
  let cur b = s.pristine.(b) in
  match shape with
  | Streamed ->
      (* a window of [stream_len] consecutive queries of one benchmark's
         workload, wrapping around *)
      let b = next k.a_walk in
      let w = s.workloads.(b) in
      let start = Random.State.int k.a_rng (Array.length w) in
      let qs =
        List.init acc.stream_len (fun i -> w.((start + i) mod Array.length w))
      in
      let t0 = Mclock.now () in
      let arrivals = ref [] in
      timed_op acc.a_tally lock
        (fun () ->
          Client.ask_stream
            ~on_item:(fun _ _ ->
              arrivals := Mclock.now () :: !arrivals;
              `Continue)
            c ~bench:s.names.(b) qs)
        (fun (r, summary) dt ->
          acc.stream_s <- dt :: acc.stream_s;
          (match List.rev !arrivals with
          | first :: rest ->
              acc.ttfa_s <- (first -. t0) :: acc.ttfa_s;
              ignore
                (List.fold_left
                   (fun prev x ->
                     acc.gap_s <- (x -. prev) :: acc.gap_s;
                     x)
                   first rest)
          | [] -> ());
          summary.Protocol.st_shed = 0
          && (not summary.Protocol.st_cancelled)
          && Check.answers_ok (cur b) qs r)
  | Batched ->
      let b = next k.a_walk in
      let qs = Array.to_list s.workloads.(b) in
      timed_op acc.a_tally lock
        (fun () -> Client.ask_many c ~bench:s.names.(b) qs)
        (fun r dt ->
          acc.many_s <- dt :: acc.many_s;
          Check.answers_ok (cur b) qs r)
  | Single ->
      let b = Random.State.int k.a_rng (Array.length s.names) in
      let w = s.workloads.(b) in
      let wq = w.(Random.State.int k.a_rng (Array.length w)) in
      timed_op acc.a_tally lock
        (fun () -> Client.ask c ~bench:s.names.(b) wq)
        (fun a dt ->
          acc.single_s <- dt :: acc.single_s;
          acc.sample <- (s.names.(b), wq, a) :: acc.sample;
          Check.answer_ok (cur b) wq a)

(* Every connection sends [shape] only, closed loop, for [seconds]. *)
let ask_slice (s : suite) (acc : ask_acc) (shape : shape) ~(sock : string)
    ~(seconds : float) : float =
  let lock = Mutex.create () in
  (* a fresh connection's first requests wake an idle daemon: unrecorded *)
  let connect () =
    let c, _ = Client.connect ~name:"perfbench-ask" sock in
    let w = s.workloads.(0) in
    let t = Mclock.now () +. warm_s in
    while Mclock.now () < t do
      ignore (Client.ask c ~bench:s.names.(0) w.(0))
    done;
    c
  in
  let conns = List.map (fun _ -> connect ()) (Array.to_list acc.askers) in
  let n0 = List.length acc.single_s in
  let t0 = Mclock.now () in
  let until = t0 +. seconds in
  run_threads
    (List.map2
       (fun k c () ->
         while Mclock.now () < until do
           ask_request s acc lock c k shape
         done)
       (Array.to_list acc.askers) conns);
  let wall = Mclock.now () -. t0 in
  List.iter Client.close conns;
  if shape = Single then
    acc.single_rates <-
      (float_of_int (List.length acc.single_s - n0) /. wall) :: acc.single_rates;
  wall

(* ------------------------------------------------------------------ *)
(* edit-reask: one editor connection beside one reader connection      *)
(* ------------------------------------------------------------------ *)

type edit_acc = {
  e_tally : tally;
  mutable edit_s : float list;
  mutable warm_s : float list;
  mutable read_s : float list;
  mutable reports : Protocol.edit_report list;
  editor : walk;
  reader : Random.State.t;
}

let edit_acc (s : suite) ~(seed : int) : edit_acc =
  {
    e_tally = tally ();
    edit_s = [];
    warm_s = [];
    read_s = [];
    reports = [];
    editor = walk (Random.State.make [| seed; 0xed |]) (Array.length s.names);
    reader = Random.State.make [| seed; 0x4ead |];
  }

(* The editor walks the benchmarks: wire [edit] (auto), then re-fetch and
   re-ask that benchmark's whole workload. The reader keeps asking single
   queries on the benchmarks not being edited right now; [started] and
   [committed] bracket the program states each read may have seen. The
   slice ends by checking every answer against the mirrors. *)
let edit_slice (s : suite) (acc : edit_acc) ~(sock : string)
    ~(seconds : float) : float =
  let n = Array.length s.names in
  let t0 = Mclock.now () in
  let until = t0 +. seconds in
  let target = Atomic.make (-1) in
  let lock = Mutex.create () in
  let edits = ref [] and reads = ref [] in
  let editor () =
    with_client sock "perfbench-editor" (fun c ->
        while Mclock.now () < until do
          let b = next acc.editor in
          let name = s.names.(b) in
          Atomic.set target b;
          Atomic.incr s.started.(b);
          let edit_s = ref 0.0 in
          timed_op acc.e_tally lock
            (fun () ->
              let report, dt =
                Mclock.time (fun () -> Client.edit c ~bench:name [ Protocol.WAuto ])
              in
              Atomic.incr s.committed.(b);
              edit_s := dt;
              let workload =
                List.concat_map (fun (_, _, qs) -> qs) (Client.queries c ~bench:name)
              in
              (report, workload, Client.ask_many c ~bench:name workload))
            (fun (report, workload, answers) dt ->
              acc.edit_s <- !edit_s :: acc.edit_s;
              acc.warm_s <- dt :: acc.warm_s;
              acc.reports <- report :: acc.reports;
              edits :=
                { Check.e_bench = name; e_k = Atomic.get s.committed.(b);
                  e_workload = workload; e_answers = answers }
                :: !edits;
              true)
        done;
        Atomic.set target (-1))
  in
  let reader () =
    with_client sock "perfbench-reader" (fun c ->
        while Mclock.now () < until do
          let rec pick () =
            let b = Random.State.int acc.reader n in
            if b = Atomic.get target then pick () else b
          in
          let b = pick () in
          let w = s.workloads.(b) in
          let wq = w.(Random.State.int acc.reader (Array.length w)) in
          let lo = Atomic.get s.committed.(b) in
          timed_op acc.e_tally lock
            (fun () -> Client.ask c ~bench:s.names.(b) wq)
            (fun a dt ->
              acc.read_s <- dt :: acc.read_s;
              reads :=
                { Check.r_bench = s.names.(b); r_query = wq; r_answer = a; r_lo = lo;
                  r_hi = Atomic.get s.started.(b) }
                :: !reads;
              true)
        done)
  in
  run_threads [ editor; reader ];
  let measured = Mclock.now () -. t0 in
  Array.iteri
    (fun b (m : Check.mirror) ->
      let name = s.names.(b) in
      acc.e_tally.failed <-
        acc.e_tally.failed
        + Check.check_edits m ~upto:(Atomic.get s.committed.(b))
            (List.filter (fun e -> e.Check.e_bench = name) !edits)
            (List.filter (fun r -> r.Check.r_bench = name) !reads))
    s.mirrors;
  measured
