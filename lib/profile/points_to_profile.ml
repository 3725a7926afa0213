(** Points-to profiler: for every memory access (and pointer-producing
    instruction), the set of underlying objects (allocation sites) it was
    observed referring to, together with the within-object offset range.

    This is the profile behind the points-to speculation module, which in
    turn is what the read-only and short-lived modules premise-query. *)

type entry = {
  mutable sites : Site.Set.t;
  mutable min_off : int;
  mutable max_off : int;  (** inclusive of last byte touched *)
  mutable const_off : int option;
      (** [Some o] while every observation had offset [o] into a single
          static site *)
  mutable count : int;
}

type t = {
  by_instr : (int, entry) Hashtbl.t;
  by_instr_ctx : (int * int list, entry) Hashtbl.t;
      (** context-sensitive view, keyed by trimmed access context *)
}

let create () : t =
  { by_instr = Hashtbl.create 256; by_instr_ctx = Hashtbl.create 256 }

let fresh_entry site off size =
  {
    sites = Site.Set.singleton site;
    min_off = off;
    max_off = off + size - 1;
    const_off = Some off;
    count = 1;
  }

let update_entry (e : entry) (site : Site.t) (off : int) (size : int) =
  (* const_off survives only while every observation had offset [off] into
     one static site *)
  (match e.const_off with
  | Some o
    when o = off && Site.Set.for_all (fun s -> Site.same_static s site) e.sites
    ->
      ()
  | _ -> e.const_off <- None);
  e.sites <- Site.Set.add site e.sites;
  e.min_off <- min e.min_off off;
  e.max_off <- max e.max_off (off + size - 1);
  e.count <- e.count + 1

(** [observe tbl key site ~off ~size] records one observation under [key]
    (an instruction, or an instruction and its trimmed context) and returns
    its entry; later observations may go to {!update_entry} directly. *)
let observe (tbl : ('k, entry) Hashtbl.t) (key : 'k) (site : Site.t) ~(off : int)
    ~(size : int) : entry =
  match Hashtbl.find_opt tbl key with
  | None ->
      let e = fresh_entry site off size in
      Hashtbl.replace tbl key e;
      e
  | Some e ->
      update_entry e site off size;
      e

(** [observed t ?ctx instr] is the profile entry for [instr]; when [ctx] is
    given, the context-sensitive entry is preferred. [None] means the
    instruction never executed while profiling. *)
let observed (t : t) ?(ctx : int list option) (instr : int) : entry option =
  match ctx with
  | Some c -> (
      match Hashtbl.find_opt t.by_instr_ctx (instr, Site.trim_ctx c) with
      | Some e -> Some e
      | None -> Hashtbl.find_opt t.by_instr instr)
  | None -> Hashtbl.find_opt t.by_instr instr

(** Underlying-object sets are speculatively disjoint when the profiled
    site sets do not intersect. Without [ctx_sensitive], two dynamic
    instances of one static site are conservatively treated as the same
    object; with it (the query supplied a calling context, §3.2.2), the
    full (site, context) identity is compared. *)
let disjoint_sites ?(ctx_sensitive = false) (a : entry) (b : entry) : bool =
  Site.Set.is_empty (Site.Set.inter a.sites b.sites)
  && (ctx_sensitive
     || Site.Set.for_all
          (fun sa ->
            Site.Set.for_all (fun sb -> not (Site.same_static sa sb)) b.sites)
          a.sites)
