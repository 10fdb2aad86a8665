(* Inter-procedural conditional value propagation through memory
   (paper Section IV-B). Four co-designed sub-analyses, independently
   toggleable for the ablation study (Fig. 13):

   - b1  field-sensitive access analysis (IV-B1): accesses to analyzable
         objects are binned by (object, constant offset, size); the
         zero-initialization rule folds loads at *unknown* offsets (the
         thread-state array indexed by thread id) to NULL when every store
         writes zero. Master switch: without it all rules below are off.
   - b2  lifetime-aware reachability & dominance (IV-B2): facts and
         forwarded stores are filtered against interfering accesses using
         dominance plus path reachability; without it, reasoning degrades
         to single-basic-block windows.
   - b3  assumed memory content (IV-B3): `assume(load(obj+off) == V)`
         placed by the runtime after broadcast barriers establishes the
         content of conditionally written state.
   - b4  invariant value propagation (IV-B4): facts and forwarded values
         may be non-constant SSA values (kernel arguments, grid-geometry
         intrinsics), not just literals.

   Plus the IV-C gate [c] (exclusive execution): store-to-load forwarding
   on provably thread-private (stack) objects.

   Soundness notes: cross-thread visibility of shared state is delegated
   to the runtime's assumes, which are placed only after team-wide
   broadcast barriers and are *verified* in debug builds; racy programs
   are UB, as in OpenMP. Global-space objects are never value-propagated
   (other teams may write them); only the zero/const rules, which are
   team-agnostic, apply. Cross-function reasoning is obtained by
   internalization + inlining + dead-function stripping rather than a
   full inter-procedural attributor; a fact is only used when every store
   to its object lives in the same (post-inlining) function. *)

open Ozo_ir.Types
module Cfg = Ozo_ir.Cfg
module SSet = Cfg.SSet
module SMap = Cfg.SMap
module Dominance = Ozo_ir.Dominance
open Ptrres

let pass = "openmp-opt:memfold"

type opts = { b1 : bool; b2 : bool; b3 : bool; b4 : bool; c : bool }

let all_on = { b1 = true; b2 = true; b3 = true; b4 = true; c = true }

(* ---------- module-wide aggregates per global ------------------------- *)

type gagg = {
  mutable ga_escaped : bool;
  mutable ga_loads : int;
  mutable ga_atomics : int;
  mutable ga_stores : int;
  mutable ga_stores_nonzero : int;
  mutable ga_store_funcs : SSet.t;
}

let fresh_gagg () =
  { ga_escaped = false; ga_loads = 0; ga_atomics = 0; ga_stores = 0;
    ga_stores_nonzero = 0; ga_store_funcs = SSet.empty }

let is_zero_const = function Imm_int (0L, _) -> true | Imm_float 0.0 -> true | _ -> false

(* Scan the module: escapes and access counts for every global. *)
let aggregate (m : modul) : (string, gagg) Hashtbl.t =
  let tbl = Hashtbl.create 32 in
  let agg g =
    match Hashtbl.find_opt tbl g with
    | Some a -> a
    | None ->
      let a = fresh_gagg () in
      Hashtbl.replace tbl g a;
      a
  in
  let mark_escape defs o =
    match resolve defs o with
    | Known ts ->
      List.iter
        (fun t -> match t.t_obj with Glob g -> (agg g).ga_escaped <- true | Alc _ -> ())
        ts
    | Unknown -> ()
  in
  List.iter
    (fun f ->
      let defs = Ptrres.build_defs f in
      let access kind res =
        match res with
        | Unknown -> ()
        | Known ts ->
          List.iter
            (fun t ->
              match t.t_obj with
              | Glob g -> (
                let a = agg g in
                match kind with
                | `Load -> a.ga_loads <- a.ga_loads + 1
                | `Atomic -> a.ga_atomics <- a.ga_atomics + 1
                | `Store nz ->
                  a.ga_stores <- a.ga_stores + 1;
                  if nz then a.ga_stores_nonzero <- a.ga_stores_nonzero + 1;
                  a.ga_store_funcs <- SSet.add f.f_name a.ga_store_funcs)
              | Alc _ -> ())
            ts
      in
      List.iter
        (fun b ->
          List.iter
            (fun p -> List.iter (fun (_, o) -> mark_escape defs o) p.phi_incoming)
            b.b_phis;
          List.iter
            (fun i ->
              match i with
              | Load (_, _, addr) -> access `Load (resolve defs addr)
              | Store (_, v, addr) ->
                access (`Store (not (is_zero_const v))) (resolve defs addr);
                mark_escape defs v
              | Atomic (_, _, _, addr, ops) ->
                access `Atomic (resolve defs addr);
                List.iter (mark_escape defs) ops
              | Call (_, _, args) -> List.iter (mark_escape defs) args
              | Call_indirect (_, _, callee, args) ->
                mark_escape defs callee;
                List.iter (mark_escape defs) args
              | Select (d, _, _, x, y) ->
                (* a select that mixes an analyzable pointer with an
                   unanalyzable one produces an Unknown resolution: the
                   analyzable arm is then reachable through a pointer the
                   analysis cannot see, i.e. it escapes *)
                if resolve defs (Reg d) = Unknown then begin
                  mark_escape defs x;
                  mark_escape defs y
                end
              | Malloc _ | Free _ | Alloca _ | Barrier _ | Trap _ | Assume _
              | Debug_print _ | Binop _ | Unop _ | Icmp _ | Fcmp _
              | Ptradd _ | Intrinsic _ -> ())
            b.b_insts;
          match b.b_term with
          | Ret (Some o) -> mark_escape defs o
          | Ret None | Br _ | Cond_br _ | Switch _ | Unreachable -> ())
        f.f_blocks)
    m.m_funcs;
  tbl

(* ---------- per-function reasoning ------------------------------------ *)

type loc = { l_blk : label; l_idx : int }

type access = {
  a_loc : loc;
  a_kind : [ `Load | `Store | `Atomic ];
  a_res : tgt list;
  a_size : int;
  a_value : operand option; (* for stores *)
}

type fact = {
  fa_obj : obj;
  fa_off : int;
  fa_size : int;
  fa_value : operand;
  fa_loc : loc;
}

type fctx = {
  fc_func : func;
  fc_defs : Ptrres.defs;
  fc_dom : Dominance.t;
  fc_block_reach : SSet.t SMap.t; (* labels reachable from a label (via succs) *)
  fc_accesses : access list;
  fc_facts : fact list;
  fc_alloca_escaped : (reg, unit) Hashtbl.t;
}

(* does execution at [a] possibly reach [b] later? *)
let reaches ctx a b =
  let block_reaches x y =
    match SMap.find_opt x ctx.fc_block_reach with
    | Some s -> SSet.mem y s
    | None -> false
  in
  if a.l_blk = b.l_blk then
    if block_reaches a.l_blk a.l_blk then true (* block inside a cycle *)
    else a.l_idx < b.l_idx
  else block_reaches a.l_blk b.l_blk

let dominates_loc ctx a b =
  if a.l_blk = b.l_blk then a.l_idx < b.l_idx
  else Dominance.strictly_dominates ctx.fc_dom a.l_blk b.l_blk

let overlap off1 size1 = function
  | None -> true
  | Some off2 -> off1 < off2 + 8 && off2 < off1 + size1
(* store sizes are 1/4/8; treating them as ≤8 keeps this simple and
   conservative *)

let analyze_function (am : Analysis.t) (f : func) : fctx =
  let defs = Ptrres.build_defs f in
  let dom = Analysis.dominators am f in
  let breach = Analysis.reachability am f in
  let accesses = ref [] in
  let alloca_escaped = Hashtbl.create 8 in
  let mark_alloca_escape o =
    match resolve defs o with
    | Known ts ->
      List.iter
        (fun t ->
          match t.t_obj with Alc r -> Hashtbl.replace alloca_escaped r () | Glob _ -> ())
        ts
    | Unknown -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun p -> List.iter (fun (_, o) -> mark_alloca_escape o) p.phi_incoming)
        b.b_phis;
      List.iteri
        (fun idx i ->
          let loc = { l_blk = b.b_label; l_idx = idx } in
          let add kind res size value =
            match res with
            | Known ts ->
              accesses :=
                { a_loc = loc; a_kind = kind; a_res = ts; a_size = size;
                  a_value = value }
                :: !accesses
            | Unknown -> ()
          in
          match i with
          | Load (_, t, addr) -> add `Load (resolve defs addr) (size_of_typ t) None
          | Store (t, v, addr) ->
            add `Store (resolve defs addr) (size_of_typ t) (Some v);
            mark_alloca_escape v
          | Atomic (_, _, t, addr, ops) ->
            add `Atomic (resolve defs addr) (size_of_typ t) None;
            List.iter mark_alloca_escape ops
          | Call (_, _, args) -> List.iter mark_alloca_escape args
          | Call_indirect (_, _, callee, args) ->
            mark_alloca_escape callee;
            List.iter mark_alloca_escape args
          | Select (d, _, _, x, y) ->
            if resolve defs (Reg d) = Unknown then begin
              mark_alloca_escape x;
              mark_alloca_escape y
            end
          | _ -> ())
        b.b_insts;
      match b.b_term with
      | Ret (Some o) -> mark_alloca_escape o
      | _ -> ())
    f.f_blocks;
  (* extract assumed-content facts: assume(icmp eq (load obj+off), V) *)
  let facts = ref [] in
  List.iter
    (fun b ->
      List.iteri
        (fun idx i ->
          match i with
          | Assume (Reg c) -> (
            match Hashtbl.find_opt defs c with
            | Some (Icmp (_, Eq, x, y)) ->
              let try_load l v =
                match l with
                | Reg lr -> (
                  match Hashtbl.find_opt defs lr with
                  | Some (Load (_, t, addr)) -> (
                    match resolve defs addr with
                    | Known [ { t_obj; t_off = Some off } ] ->
                      facts :=
                        { fa_obj = t_obj; fa_off = off; fa_size = size_of_typ t;
                          fa_value = v; fa_loc = { l_blk = b.b_label; l_idx = idx } }
                        :: !facts
                    | _ -> ())
                  | _ -> ())
                | _ -> ()
              in
              try_load x y;
              try_load y x
            | _ -> ())
          | _ -> ())
        b.b_insts)
    f.f_blocks;
  { fc_func = f; fc_defs = defs; fc_dom = dom; fc_block_reach = breach;
    fc_accesses = !accesses; fc_facts = !facts; fc_alloca_escaped = alloca_escaped }

(* interfering write accesses on (obj, off, size) strictly "between" locs
   [p] and [l]: on some path after p and before l *)
let has_interfering_store ctx ~obj ~off ~size ~from_ ~to_ =
  List.exists
    (fun a ->
      match a.a_kind with
      | `Load -> false
      | `Store | `Atomic ->
        List.exists (fun t -> t.t_obj = obj && overlap off size t.t_off) a.a_res
        && reaches ctx from_ a.a_loc && reaches ctx a.a_loc to_)
    ctx.fc_accesses

let value_is_const = function
  | Imm_int _ | Imm_float _ | Func_addr _ | Global_addr _ -> true
  | Reg _ | Undef _ -> false

(* ---------- the transform ---------------------------------------------- *)

let run ?am ?(sink = Remarks.drop) ?(opts = all_on) (m : modul) : modul * bool =
  if not opts.b1 then (m, false)
  else begin
    let am = match am with Some a -> a | None -> Analysis.create () in
    let gagg = aggregate m in
    let ga g = Hashtbl.find_opt gagg g in
    let find_global g = Ozo_ir.Types.find_global m g in
    let changed = ref false in
    let rewrite_function (f : func) : func =
      let ctx = analyze_function am f in
      let fchanged = ref false in
      let subst : (reg, operand) Hashtbl.t = Hashtbl.create 16 in
      (* ---- load folding ---- *)
      let try_fold_load ~loc ~dst ~typ ~addr =
        ignore dst;
        let size = size_of_typ typ in
        match resolve ctx.fc_defs addr with
        | Unknown -> None
        | Known [ { t_obj = Glob g; t_off } ] -> (
          let global = find_global g in
          let agg = ga g in
          match (global, agg) with
          | Some gl, _
            when gl.g_const && gl.g_space = Constant
                 && (match t_off with
                    | Some o -> o >= 0 && o + size <= gl.g_size
                    | None -> false) -> (
            (* R0: constant-memory configuration global *)
            let off = Option.get t_off in
            match gl.g_init with
            | Zero_init -> Some (Imm_int (0L, typ))
            | Words_init ws ->
              let w = try List.nth ws (off / 8) with _ -> 0L in
              Some (Imm_int (w, typ))
            | No_init -> None)
          | Some gl, Some agg
            when gl.g_init = Zero_init && (not agg.ga_escaped) && agg.ga_atomics = 0
                 && agg.ga_stores_nonzero = 0 && gl.g_linkage = Internal
                 && not gl.g_const ->
            (* R1: zero-initialized object where every store writes zero —
               folds even at unknown offsets (the thread-states array) *)
            if typ = F64 then Some (Imm_float 0.0) else Some (Imm_int (0L, typ))
          | Some gl, Some agg -> (
            (* R2: assumed memory content *)
            match t_off with
            | None -> None
            | Some off ->
              if
                opts.b3 && gl.g_space = Shared && (not agg.ga_escaped)
                && agg.ga_atomics = 0
                && SSet.subset agg.ga_store_funcs (SSet.singleton f.f_name)
              then
                List.find_map
                  (fun fact ->
                    if
                      fact.fa_obj = Glob g && fact.fa_off = off
                      && fact.fa_size = size
                      && (value_is_const fact.fa_value || opts.b4)
                      && (if opts.b2 then dominates_loc ctx fact.fa_loc loc
                          else
                            fact.fa_loc.l_blk = loc.l_blk
                            && fact.fa_loc.l_idx < loc.l_idx
                            && not
                                 (SSet.mem loc.l_blk
                                    (Option.value ~default:SSet.empty
                                       (SMap.find_opt loc.l_blk ctx.fc_block_reach))))
                      && not
                           (has_interfering_store ctx ~obj:(Glob g) ~off ~size
                              ~from_:fact.fa_loc ~to_:loc)
                    then Some fact.fa_value
                    else None)
                  ctx.fc_facts
              else None)
          | _ -> None)
        | Known [ { t_obj = Alc r; t_off = Some off } ]
          when opts.c && not (Hashtbl.mem ctx.fc_alloca_escaped r) ->
          (* R3: store-to-load forwarding on thread-private stack objects
             (exclusive execution, IV-C) *)
          let size = size in
          List.find_map
            (fun a ->
              match (a.a_kind, a.a_value, a.a_res) with
              | `Store, Some v, [ { t_obj = Alc r'; t_off = Some off' } ]
                when r' = r && off' = off && a.a_size = size
                     && (value_is_const v || opts.b4)
                     && (if opts.b2 then dominates_loc ctx a.a_loc loc
                         else
                           a.a_loc.l_blk = loc.l_blk && a.a_loc.l_idx < loc.l_idx
                           && not
                                (SSet.mem loc.l_blk
                                   (Option.value ~default:SSet.empty
                                      (SMap.find_opt loc.l_blk ctx.fc_block_reach)))) ->
                (* no other overlapping store between *)
                let interfering =
                  List.exists
                    (fun a' ->
                      a' != a
                      && (match a'.a_kind with `Load -> false | _ -> true)
                      && List.exists
                           (fun t -> t.t_obj = Alc r && overlap off size t.t_off)
                           a'.a_res
                      && reaches ctx a.a_loc a'.a_loc && reaches ctx a'.a_loc loc)
                    ctx.fc_accesses
                in
                if interfering then None else Some v
              | _ -> None)
            ctx.fc_accesses
        | Known _ -> None
      in
      (* ---- dead store elimination (D1: write-only objects) ---- *)
      let store_is_dead ~res =
        match res with
        | Known ts ->
          ts <> []
          && List.for_all
               (fun t ->
                 match t.t_obj with
                 | Glob g -> (
                   match (find_global g, ga g) with
                   | Some gl, Some agg ->
                     gl.g_linkage = Internal && (not gl.g_const)
                     && (not agg.ga_escaped) && agg.ga_loads = 0 && agg.ga_atomics = 0
                   | Some gl, None ->
                     gl.g_linkage = Internal && not gl.g_const
                   | None, _ -> false)
                 | Alc r ->
                   (not (Hashtbl.mem ctx.fc_alloca_escaped r))
                   && not
                        (List.exists
                           (fun a ->
                             (match a.a_kind with `Load | `Atomic -> true | `Store -> false)
                             && List.exists (fun t' -> t'.t_obj = Alc r) a.a_res)
                           ctx.fc_accesses))
               ts
        | Unknown -> false
      in
      let blocks =
        List.map
          (fun b ->
            let insts =
              List.filteri
                (fun idx i ->
                  let loc = { l_blk = b.b_label; l_idx = idx } in
                  match i with
                  | Load (dst, typ, addr) -> (
                    match try_fold_load ~loc ~dst ~typ ~addr with
                    | Some v ->
                      Hashtbl.replace subst dst v;
                      fchanged := true;
                      Remarks.applied sink ~pass ~func:f.f_name
                        "folded load %%%d (%s) to %s" dst
                        (match resolve ctx.fc_defs addr with
                        | Known [ { t_obj = Glob g; t_off = Some o } ] ->
                          Printf.sprintf "@%s+%d" g o
                        | Known [ { t_obj = Glob g; t_off = None } ] -> "@" ^ g
                        | Known [ { t_obj = Alc r; _ } ] -> Printf.sprintf "alloca %%%d" r
                        | Known _ -> "<multi>"
                        | Unknown -> "<unknown>")
                        (Fmt.str "%a" Ozo_ir.Printer.pp_operand v);
                      false
                    | None -> true)
                  | Store (_, _, addr) ->
                    ignore loc;
                    if store_is_dead ~res:(resolve ctx.fc_defs addr) then begin
                      fchanged := true;
                      false
                    end
                    else true
                  | _ -> true)
                b.b_insts
            in
            { b with b_insts = insts })
          f.f_blocks
      in
      if not !fchanged then f (* physical identity for the analysis cache *)
      else begin
        changed := true;
        (* apply substitutions *)
        let chase o = match o with Reg r -> Option.value ~default:o (Hashtbl.find_opt subst r) | _ -> o in
        let blocks =
          List.map
            (fun b ->
              { b with
                b_phis = List.map (map_phi_operands chase) b.b_phis;
                b_insts = List.map (map_inst_operands chase) b.b_insts;
                b_term = map_term_operands chase b.b_term })
            blocks
        in
        { f with f_blocks = blocks }
      end
    in
    let funcs = List.map rewrite_function m.m_funcs in
    if !changed then ({ m with m_funcs = funcs }, true) else (m, false)
  end

(* Remove all assume instructions: run once facts have been consumed, so
   the feeding loads become dead and write-only state can be stripped. *)
let drop_assumes (m : modul) : modul * bool =
  let changed = ref false in
  let funcs =
    List.map
      (fun f ->
        let fchanged = ref false in
        let blocks =
          List.map
            (fun b ->
              let insts =
                List.filter
                  (function
                    | Assume _ ->
                      fchanged := true;
                      false
                    | _ -> true)
                  b.b_insts
              in
              if !fchanged then { b with b_insts = insts } else b)
            f.f_blocks
        in
        if !fchanged then begin
          changed := true;
          { f with f_blocks = blocks }
        end
        else f)
      m.m_funcs
  in
  if !changed then ({ m with m_funcs = funcs }, true) else (m, false)
