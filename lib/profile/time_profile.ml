(** Loop-time profiler: attributes executed instructions to the loops
    active at the time (callee work counts toward the caller's loops) and
    counts iterations and invocations. Drives hot-loop selection (§5):
    loops with >= 10% of total execution time and >= 50 iterations per
    invocation on average. *)

type t = {
  per_loop : (string, int) Hashtbl.t;
  iterations : (string, int) Hashtbl.t;
  invocations : (string, int) Hashtbl.t;
  mutable total : int;
}

let create () : t =
  {
    per_loop = Hashtbl.create 32;
    iterations = Hashtbl.create 32;
    invocations = Hashtbl.create 32;
    total = 0;
  }

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Executed instructions are counted in batches, one per stretch of
   execution under an unchanged loop stack ({!Tracker.actives} is
   physically the same list until a loop is entered or left). A batch is
   attributed when the stack changes and when the run ends. *)
type run = {
  time : t;
  mutable batch : Tracker.active list;  (** the loop stack of the batch *)
  mutable pending : int;  (** instructions counted in the batch *)
}

let start_run (time : t) : run = { time; batch = []; pending = 0 }

let flush (r : run) =
  let t = r.time and n = r.pending in
  if n > 0 then begin
    t.total <- t.total + n;
    (* A loop can appear once per frame; attribute once per distinct lid. *)
    let rec go seen = function
      | [] -> ()
      | (a : Tracker.active) :: tl ->
          if List.mem a.Tracker.lid seen then go seen tl
          else begin
            bump t.per_loop a.Tracker.lid n;
            go (a.Tracker.lid :: seen) tl
          end
    in
    go [] r.batch;
    r.pending <- 0
  end

(** Count one executed instruction under the loop stack [actives]. *)
let record_instr (r : run) (actives : Tracker.active list) =
  if actives != r.batch then begin
    flush r;
    r.batch <- actives
  end;
  r.pending <- r.pending + 1

(** Attribute the last batch; call once the run has ended. *)
let finish_run (r : run) = flush r

let record_iteration (t : t) ~(lid : string) = bump t.iterations lid 1
let record_invocation (t : t) ~(lid : string) = bump t.invocations lid 1

let time_fraction (t : t) ~(lid : string) : float =
  if t.total = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.per_loop lid))
    /. float_of_int t.total

let avg_iterations (t : t) ~(lid : string) : float =
  let iters = Option.value ~default:0 (Hashtbl.find_opt t.iterations lid) in
  let invs = Option.value ~default:0 (Hashtbl.find_opt t.invocations lid) in
  if invs = 0 then 0.0 else float_of_int iters /. float_of_int invs

(** Hot loops per the paper's selection rule. *)
let hot_loops ?(min_fraction = 0.10) ?(min_avg_iters = 50.0) (t : t) :
    string list =
  Hashtbl.fold
    (fun lid _ acc ->
      if
        time_fraction t ~lid >= min_fraction
        && avg_iterations t ~lid >= min_avg_iters
      then lid :: acc
      else acc)
    t.per_loop []
  |> List.sort String.compare
