(** One-pass profiling driver: runs a module under the interpreter with all
    profilers attached, once per training input, and returns the filled
    {!Profiles.t}. *)

open Scaf_ir
open Scaf_cfg
open Scaf_interp

(* What the hooks remember about one memory object during a run: its
   allocation site, built once, and the lifetime counters its accesses
   bump under the loop stack they were last made under. *)
type obj_memo = {
  obj : Memory.obj;
  site : Site.t;
  mutable rw_stack : Tracker.active list;
  mutable rw : Lifetime_profile.rw list;
}

(* What the hooks remember about one instruction during a run: its profile
   entries, each created at the first event that records into it (so every
   table's insertion order is that of one lookup per event), and its
   context-sensitive points-to entry for the calling context (physically)
   it last ran under. *)
type instr_memo = {
  residue : Residue_profile.entry;
  mutable value : Value_profile.entry option;
  mutable pt : Points_to_profile.entry option;
  mutable pt_ctx : int list;
  mutable pt_ctx_entry : Points_to_profile.entry option;
}

(* Interpreter addresses and object ids are reused between runs (and by
   checkpoint rollback within one), so everything here lives for one run
   and object memos are matched on the object record itself. *)
let hooks_for (p : Profiles.t) (tracker : Tracker.t) :
    Hooks.t * (unit -> unit) =
  let memdep = Memdep_profile.start_run p.Profiles.memdep in
  let lifetime = Lifetime_profile.start_run p.Profiles.lifetime in
  let time = Time_profile.start_run p.Profiles.time in
  let objs : obj_memo Itbl.t = Itbl.create 64 in
  let obj_memo (o : Memory.obj) : obj_memo =
    match Itbl.find objs o.Memory.oid with
    | m when m.obj == o -> m
    | _ | (exception Not_found) ->
        let m = { obj = o; site = Site.of_obj o; rw_stack = []; rw = [] } in
        Itbl.replace objs o.Memory.oid m;
        m
  in
  let instrs : instr_memo option array ref = ref (Array.make 256 None) in
  let instr_memo (i : Instr.t) : instr_memo =
    let id = i.Instr.id in
    if id >= Array.length !instrs then begin
      let grown = Array.make (2 * id) None in
      Array.blit !instrs 0 grown 0 (Array.length !instrs);
      instrs := grown
    end;
    match !instrs.(id) with
    | Some m -> m
    | None ->
        let m =
          {
            residue = Residue_profile.entry p.Profiles.residues id;
            value = None;
            pt = None;
            pt_ctx = [];
            pt_ctx_entry = None;
          }
        in
        !instrs.(id) <- Some m;
        m
  in
  (* loop lifecycle listeners *)
  Tracker.add_enter_listener tracker (fun a ->
      Time_profile.record_invocation p.Profiles.time ~lid:a.Tracker.lid);
  Tracker.add_iter_listener tracker (fun a ->
      Time_profile.record_iteration p.Profiles.time ~lid:a.Tracker.lid;
      (* close the previous iteration of this invocation *)
      if a.Tracker.iteration > 1 then
        Lifetime_profile.iteration_boundary lifetime ~lid:a.Tracker.lid
          ~invocation:a.Tracker.invocation);
  Tracker.add_exit_listener tracker (fun a ->
      Lifetime_profile.iteration_boundary lifetime ~lid:a.Tracker.lid
        ~invocation:a.Tracker.invocation);
  let points_to (im : instr_memo) ~id ~site ~off ~size ~ctx =
    let pt = p.Profiles.points_to in
    (match im.pt with
    | Some e -> Points_to_profile.update_entry e site off size
    | None ->
        im.pt <-
          Some (Points_to_profile.observe pt.Points_to_profile.by_instr id site ~off ~size));
    match im.pt_ctx_entry with
    | Some e when im.pt_ctx == ctx -> Points_to_profile.update_entry e site off size
    | _ ->
        im.pt_ctx <- ctx;
        im.pt_ctx_entry <-
          Some
            (Points_to_profile.observe pt.Points_to_profile.by_instr_ctx
               (id, Site.trim_ctx ctx) site ~off ~size)
  in
  let access im ~instr ~addr ~size ~(obj : Memory.obj) ~ctx ~write =
    Memdep_profile.(if write then record_store else record_load)
      memdep ~instr:instr.Instr.id ~addr ~size ~snap:(Tracker.snapshot tracker);
    let om = obj_memo obj in
    let off = Int64.to_int (Int64.sub addr obj.Memory.base) in
    points_to im ~id:instr.Instr.id ~site:om.site ~off ~size ~ctx;
    let stack = Tracker.actives tracker in
    if om.rw_stack != stack then begin
      om.rw <- Lifetime_profile.rw_entries p.Profiles.lifetime ~site:om.site stack;
      om.rw_stack <- stack
    end;
    Lifetime_profile.record_access om.rw ~write
  in
  ( {
      Hooks.on_block =
        (fun f b ->
          Edge_profile.record_block p.Profiles.edges ~func:f.Func.name
            ~label:b.Block.label);
      on_edge =
        (fun ~src_term ~src:_ ~dst ~func ->
          Edge_profile.record_edge p.Profiles.edges ~src_term ~dst;
          Tracker.edge tracker ~func:func.Func.name ~dst);
      on_call_enter =
        (fun f ~ctx:_ ->
          Edge_profile.record_call p.Profiles.edges ~func:f.Func.name;
          Tracker.call_enter tracker f.Func.name);
      on_call_exit = (fun _ -> Tracker.call_exit tracker);
      on_instr = (fun _ -> Time_profile.record_instr time (Tracker.actives tracker));
      on_load =
        (fun ~instr ~addr ~size ~value ~obj ~ctx ->
          let im = instr_memo instr in
          let ve =
            match im.value with
            | Some e -> e
            | None ->
                let e =
                  Value_profile.entry p.Profiles.values ~load:instr.Instr.id ~value
                in
                im.value <- Some e;
                e
          in
          Value_profile.record ve ~value;
          Residue_profile.record im.residue ~addr;
          access im ~instr ~addr ~size ~obj ~ctx ~write:false);
      on_store =
        (fun ~instr ~addr ~size ~value:_ ~obj ~ctx ->
          let im = instr_memo instr in
          Residue_profile.record im.residue ~addr;
          access im ~instr ~addr ~size ~obj ~ctx ~write:true);
      on_ptr =
        (fun ~instr ~addr ~obj ~ctx ->
          let im = instr_memo instr in
          Residue_profile.record im.residue ~addr;
          match obj with
          | Some o ->
              let off = Int64.to_int (Int64.sub addr o.Memory.base) in
              points_to im ~id:instr.Instr.id ~site:(obj_memo o).site ~off
                ~size:1 ~ctx
          | None -> ());
      on_alloc =
        (fun ~obj ->
          Lifetime_profile.record_alloc lifetime ~oid:obj.Memory.oid
            ~site:(obj_memo obj).site ~snap:(Tracker.snapshot tracker));
      on_free =
        (fun ~obj -> Lifetime_profile.record_free lifetime ~oid:obj.Memory.oid);
    },
    fun () ->
      Tracker.finish tracker;
      Time_profile.finish_run time;
      Memdep_profile.finish_run memdep )

(** [profile ?inputs ?fuel ctx] profiles the module of [ctx] once per
    training input (default: one run with no input). *)
let profile ?(inputs : int64 array list = [ [||] ]) ?(fuel = 50_000_000)
    (ctx : Progctx.t) : Profiles.t =
  let p = Profiles.create ctx in
  List.iter
    (fun input ->
      let tracker =
        Tracker.create ~loops_of:(fun fname -> Progctx.loops_of ctx fname)
      in
      let hooks, finish = hooks_for p tracker in
      let (_ : Eval.result) = Eval.run ~hooks ~fuel ~input ctx.Progctx.m in
      finish ())
    inputs;
  p

(** Convenience: build the context and profile in one step. *)
let profile_module ?inputs ?fuel (m : Irmod.t) : Profiles.t =
  profile ?inputs ?fuel (Progctx.build m)
