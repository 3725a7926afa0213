(** Object-lifetime profiler (after Johnson et al.'s speculative
    separation):

    - per (loop, allocation site): read/write behaviour inside the loop,
      giving *read-only* candidates;
    - per (loop, heap allocation site): whether every object allocated in an
      iteration was freed before that iteration ended, giving *short-lived*
      candidates.

    Read-only and short-lived sets are made disjoint here (short-lived wins)
    so their heap-separation validations can never conflict (§4.2.4). *)

type rw = { mutable reads : int; mutable writes : int }

type t = {
  rw : (string * Site.t, rw) Hashtbl.t;  (** (lid, site) -> counts *)
  alloc_sites : (string * Site.t, unit) Hashtbl.t;
      (** heap sites observed allocating inside the loop *)
  violated : (string * Site.t, unit) Hashtbl.t;
      (** short-lived candidates that leaked past an iteration *)
}

let create () : t =
  {
    rw = Hashtbl.create 128;
    alloc_sites = Hashtbl.create 64;
    violated = Hashtbl.create 64;
  }

(* Per-run collection state: per active invocation (lid, inv), the objects
   allocated in its current iteration and still live. *)
type run = {
  t : t;
  pending : (string * int, (int, Site.t) Hashtbl.t) Hashtbl.t;
  live_oids : (int, Site.t * (string * int) list) Hashtbl.t;
      (** live heap object -> (site, invocations it is pending in) *)
}

let start_run (t : t) : run =
  { t; pending = Hashtbl.create 16; live_oids = Hashtbl.create 64 }

let rw_entry (t : t) key =
  match Hashtbl.find_opt t.rw key with
  | Some e -> e
  | None ->
      let e = { reads = 0; writes = 0 } in
      Hashtbl.replace t.rw key e;
      e

(** The counters an access to [site] bumps under the loop stack [actives],
    one per active loop, in stack order. *)
let rw_entries (t : t) ~(site : Site.t) (actives : Tracker.active list) :
    rw list =
  List.map (fun (a : Tracker.active) -> rw_entry t (a.Tracker.lid, site)) actives

let record_access (entries : rw list) ~(write : bool) =
  List.iter
    (fun e -> if write then e.writes <- e.writes + 1 else e.reads <- e.reads + 1)
    entries

let record_alloc (r : run) ~(oid : int) ~(site : Site.t)
    ~(snap : (string * int * int) list) =
  match site.Site.skind with
  | Site.SHeap _ ->
      let invs =
        List.map
          (fun (lid, inv, _) ->
            Hashtbl.replace r.t.alloc_sites (lid, site) ();
            let key = (lid, inv) in
            let tbl =
              match Hashtbl.find_opt r.pending key with
              | Some tbl -> tbl
              | None ->
                  let tbl = Hashtbl.create 8 in
                  Hashtbl.replace r.pending key tbl;
                  tbl
            in
            Hashtbl.replace tbl oid site;
            key)
          snap
      in
      Hashtbl.replace r.live_oids oid (site, invs)
  | _ -> ()

let record_free (r : run) ~(oid : int) =
  match Hashtbl.find_opt r.live_oids oid with
  | Some (_, invs) ->
      List.iter
        (fun key ->
          match Hashtbl.find_opt r.pending key with
          | Some tbl -> Hashtbl.remove tbl oid
          | None -> ())
        invs;
      Hashtbl.remove r.live_oids oid
  | None -> ()

(* At an iteration boundary (next iteration or loop exit), any object still
   pending leaked out of its allocation iteration: its site is not
   short-lived for that loop. *)
let iteration_boundary (r : run) ~(lid : string) ~(invocation : int) =
  let key = (lid, invocation) in
  match Hashtbl.find_opt r.pending key with
  | Some tbl ->
      Hashtbl.iter
        (fun _oid site -> Hashtbl.replace r.t.violated (lid, site) ())
        tbl;
      Hashtbl.reset tbl
  | None -> ()

(** [short_lived t ~lid site] - was every profiled object of [site]
    allocated inside [lid] freed before its allocation iteration ended? *)
let short_lived (t : t) ~(lid : string) (site : Site.t) : bool =
  Hashtbl.mem t.alloc_sites (lid, site)
  && not (Hashtbl.mem t.violated (lid, site))

(** [read_only t ~lid site] - was [site] accessed in [lid] and never
    written there? Short-lived sites are excluded to keep the two
    speculative heaps disjoint. *)
let read_only (t : t) ~(lid : string) (site : Site.t) : bool =
  (match Hashtbl.find_opt t.rw (lid, site) with
  | Some e -> e.reads > 0 && e.writes = 0
  | None -> false)
  && not (short_lived t ~lid site)

(** All sites touched by the loop during profiling. *)
let sites_of_loop (t : t) ~(lid : string) : Site.t list =
  Hashtbl.fold
    (fun (l, s) _ acc -> if String.equal l lid then s :: acc else acc)
    t.rw []
  |> List.sort_uniq Site.compare
