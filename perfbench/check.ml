(* Output checks. Every measured operation is compared with a reference
   computed independently of the daemon; a mismatch, an error or a
   degraded answer counts as a failed operation. *)

open Scaf_server
module Program = Scaf_suite.Program

(* The reference of one program state: its PDG workload in daemon order
   and the batch SCAF scheme's answer to a query, rendered the way the
   daemon's answers are compared. Queries outside the workload are
   answered on demand: edits shift which loops are hot, so a reader may
   ask about a loop the current workload no longer holds. *)
type reference = {
  workload : Protocol.wire_query list;
  answer : Protocol.wire_query -> string;
}

let workload_of (p : Program.t) : Protocol.wire_query list =
  let ctx = Program.ctx p in
  List.concat_map
    (fun (lid, _) ->
      List.map
        (fun (dq : Scaf_pdg.Pdg.dep_query) ->
          {
            Protocol.wloop = lid;
            wsrc = dq.Scaf_pdg.Pdg.src;
            wdst = dq.Scaf_pdg.Pdg.dst;
            wcross = dq.Scaf_pdg.Pdg.cross;
          })
        (Scaf_pdg.Pdg.queries_of_loop ctx lid))
    (Scaf_pdg.Nodep.hot_loop_weights (Program.profiles p))

(* A from-scratch batch run: a fresh SCAF resolver over [p]'s profiles. *)
let reference (p : Program.t) : reference =
  let r = Scaf_pdg.Schemes.scaf (Program.profiles p) in
  let answers = Hashtbl.create 256 in
  let answer wq =
    match Hashtbl.find_opt answers wq with
    | Some s -> s
    | None ->
        let s =
          Protocol.render_answer
            (Protocol.answer_of_response
               (r.Scaf_pdg.Schemes.resolve (Protocol.to_core_query wq)))
        in
        Hashtbl.add answers wq s;
        s
  in
  let workload = workload_of p in
  List.iter (fun wq -> ignore (answer wq)) workload;
  { workload; answer }

let answer_ok (r : reference) (wq : Protocol.wire_query) (a : Protocol.answer)
    : bool =
  a.Protocol.a_degraded = None
  && String.equal (r.answer wq) (Protocol.render_answer a)

let answers_ok (r : reference) (wqs : Protocol.wire_query list)
    (answers : Protocol.answer list) : bool =
  List.length wqs = List.length answers
  && List.for_all2 (answer_ok r) wqs answers

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)
(* ------------------------------------------------------------------ *)

(* One benchmark as the daemon holds it, replayed client-side: the same
   scripted auto edit the daemon resolves [WAuto] to is applied to a local
   handle of the same program, so after k edits both hold identical
   instruction ids, and [cur] is a from-scratch batch run of that state. *)
type mirror = {
  name : string;
  mutable prog : Program.t option;  (** created at the first edit *)
  mutable k : int;  (** edits applied *)
  mutable cur : reference;
}

let mirror (name : string) : mirror =
  { name; prog = None; k = 0;
    cur = reference (Option.get (Scaf_suite.Registry.find name)) }

let step (m : mirror) : unit =
  let p =
    match m.prog with
    | Some p -> p
    | None ->
        let p = Option.get (Scaf_suite.Registry.find m.name) in
        m.prog <- Some p;
        p
  in
  let op =
    Scaf_incremental.Session.auto_edit
      (Scaf_incremental.Session.create (Program.fork p))
  in
  (match Scaf_suite.Edit.apply p op with
  | Ok _ -> ()
  | Error _ -> failwith "mirror: the scripted edit was rejected");
  m.k <- m.k + 1;
  m.cur <- reference (Program.fork p)

(* The editor's view of edit k on a benchmark: the workload it re-fetched
   and the answers it re-asked. *)
type edit_rec = {
  e_bench : string;
  e_k : int;  (** program state after this edit, 1-based per benchmark *)
  e_workload : Protocol.wire_query list;
  e_answers : Protocol.answer list;
}

(* A single ask that may have raced edits of its benchmark: its answer must
   match some program state in [r_lo, r_hi]. *)
type read_rec = {
  r_bench : string;
  r_query : Protocol.wire_query;
  r_answer : Protocol.answer;
  r_lo : int;
  r_hi : int;
}

(* Advance [m] to the daemon's state after [upto] committed edits,
   comparing each post-edit re-ask with the from-scratch run of that state
   and each read with the states it may have seen. Returns the number of
   failed records. *)
let check_edits (m : mirror) ~(upto : int) (edits : edit_rec list)
    (reads : read_rec list) : int =
  let reads = Array.of_list reads in
  let read_ok = Array.make (Array.length reads) false in
  let check_reads () =
    Array.iteri
      (fun i rr ->
        if (not read_ok.(i)) && rr.r_lo <= m.k && m.k <= rr.r_hi then
          read_ok.(i) <- answer_ok m.cur rr.r_query rr.r_answer)
      reads
  in
  check_reads ();
  let failed = ref 0 in
  while m.k < upto do
    step m;
    check_reads ();
    List.iter
      (fun e ->
        if
          e.e_k = m.k
          && not
               (e.e_workload = m.cur.workload
               && answers_ok m.cur e.e_workload e.e_answers)
        then incr failed)
      edits
  done;
  Array.fold_left (fun n ok -> if ok then n else n + 1) !failed read_ok
