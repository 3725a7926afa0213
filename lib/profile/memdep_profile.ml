(** Loop-aware memory-dependence profiler (after Chen et al.):

    tracks, through a byte-granular shadow memory, which (store -> load),
    (load -> store) and (store -> store) pairs actually manifested during
    profiling, attributed per loop and split into intra-iteration and
    cross-iteration (loop-carried) dependences.

    Memory speculation — the expensive baseline SCAF competes with —
    asserts the absence of every dependence *not* in this profile. *)

type access = { ainstr : int; asnap : (string * int * int) list }

type t = {
  deps : (string, (int * int * bool, int) Hashtbl.t) Hashtbl.t;
      (** lid -> (src instr, dst instr, cross-iteration?) -> count; one
          count per byte the two accesses share *)
}

let create () : t = { deps = Hashtbl.create 16 }

(* ---- per-run collection state ---- *)

(* The shadow memory is keyed by address, as interpreter addresses are: an
   address rewound by a checkpoint rollback keeps its shadow state whatever
   object comes back there. Bytes are grouped into aligned chunks so an
   access costs one table lookup, not one per byte. *)
let chunk_bits = 6
let chunk_size = 1 lsl chunk_bits

(* [no_access] is the writer of a byte never written. *)
let no_access = { ainstr = -1; asnap = [] }

type chunk = {
  writers : access array;  (** last writer per byte *)
  readers : access list array;
      (** per byte, the most recent access of each instruction that read it
          since the last write, most recent first *)
}

(* One loop's dependence counts during a run. A key's count accumulates in
   a cell, found by the key packed into one int; the key enters [deps] when
   the run first records it (so the table's insertion order is that of one
   update per dependence) and takes its final count when the run ends. *)
type cell = { key : int * int * bool; mutable count : int }

type loop_deps = {
  lid : string;
  tbl : (int * int * bool, int) Hashtbl.t;
  cells : cell Itbl.t;
}

type run = {
  t : t;
  shadow : chunk Itbl.t;  (** address lsr chunk_bits -> chunk *)
  mutable src : access array;
  mutable src_n : int array;
  mutable nsrc : int;
      (** the current access's source accesses, in order of first
          appearance, with the number of bytes each was found on *)
  mutable loops : loop_deps list;
}

let start_run (t : t) : run =
  {
    t;
    shadow = Itbl.create 256;
    src = Array.make 16 no_access;
    src_n = Array.make 16 0;
    nsrc = 0;
    loops = [];
  }

(** Write the run's counts into [deps]; call once the run has ended. *)
let finish_run (r : run) =
  List.iter
    (fun ld -> Itbl.iter (fun _ c -> Hashtbl.replace ld.tbl c.key c.count) ld.cells)
    r.loops

let chunk (r : run) (key : int) : chunk =
  match Itbl.find r.shadow key with
  | c -> c
  | exception Not_found ->
      let c =
        {
          writers = Array.make chunk_size no_access;
          readers = Array.make chunk_size [];
        }
      in
      Itbl.replace r.shadow key c;
      c

let rec find_loop lid = function
  | [] -> raise Not_found
  | ld :: tl -> if String.equal ld.lid lid then ld else find_loop lid tl

let loop_deps (r : run) (lid : string) : loop_deps =
  match find_loop lid r.loops with
  | ld -> ld
  | exception Not_found ->
      let tbl =
        match Hashtbl.find_opt r.t.deps lid with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 256 in
            Hashtbl.replace r.t.deps lid tbl;
            tbl
      in
      let ld = { lid; tbl; cells = Itbl.create 64 } in
      r.loops <- ld :: r.loops;
      ld

(* Instruction ids below 2^30 pack with the cross bit into one int. *)
let id_limit = 1 lsl 30

let bump (ld : loop_deps) ~(src : int) ~(dst : int) ~(cross : bool) (n : int) =
  if src >= id_limit || dst >= id_limit then
    invalid_arg "Memdep_profile: instruction id out of range";
  let packed = (src lsl 31) lor (dst lsl 1) lor Bool.to_int cross in
  let c =
    match Itbl.find ld.cells packed with
    | c -> c
    | exception Not_found ->
        let key = (src, dst, cross) in
        let count =
          match Hashtbl.find_opt ld.tbl key with
          | Some k -> k
          | None ->
              Hashtbl.replace ld.tbl key 0;
              0
        in
        let c = { key; count } in
        Itbl.replace ld.cells packed c;
        c
  in
  c.count <- c.count + n

(* Note that [n] bytes of the current access depend on [a]. *)
let add_src (r : run) (a : access) (n : int) =
  let rec find i =
    if i = r.nsrc then begin
      if i = Array.length r.src then begin
        r.src <- Array.append r.src (Array.make i no_access);
        r.src_n <- Array.append r.src_n (Array.make i 0)
      end;
      r.src.(i) <- a;
      r.src_n.(i) <- n;
      r.nsrc <- i + 1
    end
    else if r.src.(i) == a then r.src_n.(i) <- r.src_n.(i) + n
    else find (i + 1)
  in
  find 0

let rec find_lid lid = function
  | [] -> raise Not_found
  | ((l, _, _) as e) :: tl -> if String.equal l lid then e else find_lid lid tl

(* Record [n] dependences from [src] to [dst] for every loop invocation
   both accesses executed in. *)
let add_dep (r : run) (src : access) (dst : access) (n : int) =
  let rec each = function
    | [] -> ()
    | (lid, inv_d, iter_d) :: rest ->
        (match find_lid lid src.asnap with
        | _, inv_s, iter_s when inv_s = inv_d ->
            bump (loop_deps r lid) ~src:src.ainstr ~dst:dst.ainstr
              ~cross:(iter_d <> iter_s) n
        | _ | (exception Not_found) -> ());
        each rest
  in
  each dst.asnap

(* Record the dependences of [dst] on the sources collected for it. Each
   distinct source is added once with its byte count, in order of first
   appearance: the same counts, and the same table insertion order, as one
   dependence per byte. *)
let flush_srcs (r : run) (dst : access) =
  for i = 0 to r.nsrc - 1 do
    add_dep r r.src.(i) dst r.src_n.(i);
    r.src.(i) <- no_access
  done;
  r.nsrc <- 0

(* Apply [f c i len] to each run of bytes of [addr, addr+size) that share a
   chunk [c] and (physically) the same writer and readers, starting at
   index [i] of [c]. *)
let iter_runs (r : run) (addr : int64) (size : int) f =
  let a = Int64.to_int addr in
  let k = ref 0 in
  while !k < size do
    let c = chunk r ((a + !k) lsr chunk_bits) in
    let i = (a + !k) land (chunk_size - 1) in
    let w = c.writers.(i) and rd = c.readers.(i) in
    let stop = min chunk_size (i + size - !k) in
    let j = ref (i + 1) in
    while !j < stop && c.writers.(!j) == w && c.readers.(!j) == rd do
      incr j
    done;
    f c i (!j - i);
    k := !k + (!j - i)
  done

let record_store (r : run) ~(instr : int) ~(addr : int64) ~(size : int)
    ~(snap : (string * int * int) list) =
  let acc = { ainstr = instr; asnap = snap } in
  iter_runs r addr size (fun c i len ->
      (* anti dependences: every reader since the last write *)
      List.iter (fun rd -> add_src r rd len) c.readers.(i);
      (* output dependence: the previous writer *)
      let w = c.writers.(i) in
      if w != no_access then add_src r w len;
      Array.fill c.writers i len acc;
      Array.fill c.readers i len []);
  flush_srcs r acc

(* [readers] without [instr]'s entry (each instruction has at most one). *)
let rec drop_instr instr = function
  | [] -> []
  | a :: tl as l ->
      if a.ainstr = instr then tl
      else
        let tl' = drop_instr instr tl in
        if tl' == tl then l else a :: tl'

let record_load (r : run) ~(instr : int) ~(addr : int64) ~(size : int)
    ~(snap : (string * int * int) list) =
  let acc = { ainstr = instr; asnap = snap } in
  iter_runs r addr size (fun c i len ->
      (* flow dependence from the last writer *)
      let w = c.writers.(i) in
      if w != no_access then add_src r w len;
      (* keep the most recent access per reading instruction (standard
         last-reader practice in dependence profilers) *)
      Array.fill c.readers i len (acc :: drop_instr instr c.readers.(i)));
  flush_srcs r acc

(** [observed t ~lid ~src ~dst ~cross] - did a dependence from [src] to
    [dst] (cross- or intra-iteration) manifest during profiling of loop
    [lid]? *)
let observed (t : t) ~(lid : string) ~(src : int) ~(dst : int) ~(cross : bool)
    : bool =
  match Hashtbl.find_opt t.deps lid with
  | Some tbl -> Hashtbl.mem tbl (src, dst, cross)
  | None -> false

(** All observed dependences of a loop. *)
let all (t : t) ~(lid : string) : (int * int * bool) list =
  match Hashtbl.find_opt t.deps lid with
  | Some tbl -> Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
  | None -> []
