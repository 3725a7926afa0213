(* The daemon under test runs as its own `scaf_eval serve` process, exactly
   as in production. Every process spawned here is registered so that no
   exit path of the benchmark leaves one behind. *)

open Scaf_server

type daemon = { pid : int; sock : string }

let live : int list ref = ref []

let reap (pid : int) : unit =
  live := List.filter (( <> ) pid) !live;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () : unit =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let exited (pid : int) : bool =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true
  | exception Unix.Unix_error _ -> true

(* Spawn [exe serve] on a Unix socket; its stderr goes to [log]. *)
let spawn ~(exe : string) ~(sock : string) ~(log : string) : daemon =
  (try Sys.remove sock with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close logfd)
      (fun () ->
        Unix.create_process exe
          [| exe; "serve"; "--socket"; sock |]
          devnull logfd logfd)
  in
  live := pid :: !live;
  { pid; sock }

(* Poll until the daemon completes a handshake; fails if it died first or
   stays silent for [timeout] seconds. Returns the served benchmarks. *)
let connect_ready ?(timeout = 60.0) (d : daemon) : Client.t * string list =
  let t0 = Mclock.now () in
  let rec go () =
    match Client.connect ~name:"perfbench" ~retry:Client.no_retry d.sock with
    | r -> r
    | exception Client.Transport_error msg ->
        if exited d.pid then failwith ("daemon exited during start-up: " ^ msg)
        else if Mclock.now () -. t0 > timeout then
          failwith ("daemon not ready: " ^ msg)
        else begin
          Thread.delay 0.002;
          go ()
        end
  in
  go ()

(* Ask the daemon to stop and wait for it; kill it if it lingers. *)
let stop (d : daemon) : unit =
  (match Client.connect ~name:"perfbench" ~retry:Client.no_retry d.sock with
  | c, _ ->
      (try Client.shutdown c with Client.Transport_error _ | Client.Server_error _ -> ());
      Client.close c
  | exception Client.Transport_error _ -> ());
  let t0 = Mclock.now () in
  while (not (exited d.pid)) && Mclock.now () -. t0 < 10.0 do
    Thread.delay 0.01
  done;
  if List.mem d.pid !live then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d.pid
  end;
  try Sys.remove d.sock with Sys_error _ -> ()

(* Peak resident set size (VmHWM) of a process, in MB. *)
let peak_rss_mb (pid : int) : float =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())
