(* The virtual machine form: what an ozo_ir function looks like after the
   late lowering stage has run.

   This is the reproduction's stand-in for SASS/PTX-after-ptxas: SSA is
   destructed (phis become per-edge parallel copies, sequentialized with
   a scratch register when the copy graph has cycles), every virtual
   register is replaced by its allocated location (physical register or
   spill slot), spill code is explicit ([V_reload]/[V_spill]), and
   shared-memory symbols are resolved to their byte offsets in the
   static SMem layout. Blocks are laid out in reverse post-order — the
   backend's block schedule.

   The VM form is where register counts, frame sizes and static spill
   instructions are read off — the quantities ptxas/Nsight report and the
   paper's resource tables use. The engine does not decode these records:
   it executes the IR (spill-rewritten when the register budget forces
   spills, see [Lower]), and its threaded-code executor runs that IR
   renamed onto the same allocation this form is built from
   ([Threaded.plan_of_alloc]), so executed registers and reported
   registers come from one assignment. *)

open Ozo_ir.Types

type vopd =
  | Vloc of Regalloc.loc
  | Vint of int64
  | Vfloat of float
  | Vglobal of string          (* global/constant-space symbol *)
  | Vshared of string * int    (* shared symbol, resolved SMem offset *)
  | Vfunc of string
  | Vundef

type vinst =
  | V_op of { vd : Regalloc.loc option; vop : string; vsrcs : vopd list }
  | V_copy of Regalloc.loc * vopd            (* phi-lowered move *)
  | V_reload of { vto : int; vslot : int }   (* frame slot -> scratch reg *)
  | V_spill of { vslot : int; vfrom : int }  (* scratch reg -> frame slot *)

type vterm = {
  vt_op : string;
  vt_srcs : vopd list;
  (* per-edge parallel copies, already sequentialized *)
  vt_edges : (label * vinst list) list;
}

type vblock = {
  vb_label : label;
  vb_insts : vinst list;
  vb_term : vterm;
}

type vfunc = {
  vf_name : string;
  vf_blocks : vblock list; (* RPO layout order *)
  vf_regs_used : int;      (* physical registers, scratches included *)
  vf_frame_bytes : int;    (* per-thread local spill frame *)
  vf_spill_loads : int;    (* static reload count *)
  vf_spill_stores : int;   (* static spill-store count *)
}

type program = {
  pr_name : string;
  pr_funcs : vfunc list;
  pr_layout : Smem.layout;
}

(* ---------- mnemonics -------------------------------------------------- *)

let low = String.lowercase_ascii

let typ_suffix = function
  | I1 -> "i1"
  | I32 -> "i32"
  | I64 -> "i64"
  | F64 -> "f64"
  | Ptr _ -> "ptr"

let inst_mnemonic = function
  | Binop (_, op, _, _) -> low (show_binop op)
  | Unop (_, op, _) -> low (show_unop op)
  | Icmp (_, op, _, _) -> "setp." ^ low (show_icmp op)
  | Fcmp (_, op, _, _) -> "setp." ^ low (show_fcmp op)
  | Select (_, ty, _, _, _) -> "sel." ^ typ_suffix ty
  | Load (_, ty, _) -> "ld." ^ typ_suffix ty
  | Store (ty, _, _) -> "st." ^ typ_suffix ty
  | Ptradd _ -> "ptradd"
  | Alloca (_, n) -> Fmt.str "frame.alloc.%d" n
  | Call (_, callee, _) -> "call " ^ callee
  | Call_indirect _ -> "call.ind"
  | Intrinsic (_, i) -> "mov." ^ low (show_intrinsic i)
  | Barrier { aligned } -> if aligned then "bar.sync.aligned" else "bar.sync"
  | Atomic (_, op, ty, _, _) -> low (show_atomic_op op) ^ "." ^ typ_suffix ty
  | Assume _ -> "assume"
  | Trap _ -> "trap"
  | Malloc _ -> "malloc"
  | Free _ -> "free"
  | Debug_print _ -> "printf"

let term_mnemonic = function
  | Ret _ -> "ret"
  | Br _ -> "bra"
  | Cond_br _ -> "bra.cond"
  | Switch _ -> "brx"
  | Unreachable -> "trap.unreachable"

(* ---------- lowering --------------------------------------------------- *)

(* Scratch registers above the allocated file: up to three reload
   scratches (an instruction reads at most three register operands; the
   define-then-spill scratch shares slot 0) and one parallel-copy
   cycle-breaking temporary. A real backend reserves these before
   scheduling spill code the same way. *)
let reload_scratches = 3

type emitter = {
  em_ra : Regalloc.result;
  em_layout : Smem.layout;
  mutable em_scratch_hi : int; (* scratches actually used *)
  mutable em_loads : int;
  mutable em_stores : int;
}

let scratch em k =
  em.em_scratch_hi <- max em.em_scratch_hi (k + 1);
  em.em_ra.Regalloc.ra_regs_used + k

(* Map an operand to its VM form without touching spill state — used for
   phi sources, where slot-resident values are read by the copy itself. *)
let resolve_operand em (o : operand) : vopd =
  match o with
  | Reg r -> Vloc (Regalloc.loc r em.em_ra)
  | Imm_int (v, _) -> Vint v
  | Imm_float v -> Vfloat v
  | Global_addr g -> (
    match
      List.find_opt (fun s -> s.Smem.sl_name = g) em.em_layout.Smem.ly_slots
    with
    | Some s -> Vshared (g, s.Smem.sl_offset)
    | None -> Vglobal g)
  | Func_addr fn -> Vfunc fn
  | Undef _ -> Vundef

(* Map operands for an instruction: slot-resident registers are reloaded
   into scratch registers first (one scratch per source position). *)
let lower_operands em (ops : operand list) : vopd list * vinst list =
  let reloads = ref [] in
  let outs =
    List.mapi
      (fun k o ->
        match resolve_operand em o with
        | Vloc (Regalloc.Slot s) ->
          let r = scratch em (min k (reload_scratches - 1)) in
          em.em_loads <- em.em_loads + 1;
          reloads := V_reload { vto = r; vslot = s } :: !reloads;
          Vloc (Regalloc.Phys r)
        | v -> v)
      ops
  in
  (outs, List.rev !reloads)

let lower_inst em (i : inst) : vinst list =
  let srcs, reloads = lower_operands em (inst_uses i) in
  let vd, stores =
    match inst_def i with
    | None -> (None, [])
    | Some r -> (
      match Regalloc.loc r em.em_ra with
      | Regalloc.Phys _ as l -> (Some l, [])
      | Regalloc.Slot s ->
        (* define into scratch 0, then store to the frame *)
        let sc = scratch em 0 in
        em.em_stores <- em.em_stores + 1;
        (Some (Regalloc.Phys sc), [ V_spill { vslot = s; vfrom = sc } ]))
  in
  reloads @ (V_op { vd; vop = inst_mnemonic i; vsrcs = srcs } :: stores)

let loc_is_slot = function Regalloc.Slot _ -> true | Regalloc.Phys _ -> false

let reads_loc l = function Vloc l' -> l' = l | _ -> false

(* Sequentialize one edge's parallel copy. Hazard: a pending copy reads
   a location another pending copy writes. Emit hazard-free copies
   first; on a cycle, save the blocking destination into the
   cycle-breaking temporary ([temp], called once per cycle broken) and
   redirect its readers there.

   This is the pure core — no emitter state — so the property suite can
   drive it directly: for any copy set, executing the returned sequence
   one move at a time must leave every destination holding the value its
   source held *before* the copy (parallel semantics). *)
let sequentialize_copies ~(temp : unit -> Regalloc.loc)
    (copies : (Regalloc.loc * vopd) list) : (Regalloc.loc * vopd) list =
  let rec go acc pending =
    match pending with
    | [] -> List.rev acc
    | _ -> (
      let free, blocked =
        List.partition
          (fun (d, _) ->
            not (List.exists (fun (_, s) -> reads_loc d s) pending))
          pending
      in
      match free with
      | _ :: _ -> go (List.rev_append free acc) blocked
      | [] ->
        (* pure cycle: every pending destination is read by someone *)
        let d0, s0 = List.hd blocked in
        let t = temp () in
        let rest =
          List.map
            (fun (d, s) -> (d, if reads_loc d0 s then Vloc t else s))
            (List.tl blocked)
        in
        go ((t, Vloc d0) :: acc) ((d0, s0) :: rest))
  in
  go []
    (List.filter
       (fun (d, s) -> match s with Vloc l -> l <> d | _ -> true)
       copies)

(* Emitter wrapper: copies into spill slots count as spill stores,
   copies out of slots as reloads; cycles break through the reserved
   scratch above the reload scratches. *)
let sequentialize em (copies : (Regalloc.loc * vopd) list) : vinst list =
  List.map
    (fun (d, s) ->
      if loc_is_slot d then em.em_stores <- em.em_stores + 1;
      (match s with
      | Vloc l when loc_is_slot l -> em.em_loads <- em.em_loads + 1
      | _ -> ());
      V_copy (d, s))
    (sequentialize_copies
       ~temp:(fun () -> Regalloc.Phys (scratch em reload_scratches))
       copies)

let lower_block em (by_label : (label, block) Hashtbl.t) (b : block) : vblock =
  let insts = List.concat_map (lower_inst em) b.b_insts in
  let srcs, term_reloads = lower_operands em (term_uses b.b_term) in
  let edges =
    List.map
      (fun succ ->
        let copies =
          match Hashtbl.find_opt by_label succ with
          | None -> []
          | Some sb ->
            List.filter_map
              (fun p ->
                match List.assoc_opt b.b_label p.phi_incoming with
                | None -> None
                | Some o ->
                  Some (Regalloc.loc p.phi_reg em.em_ra, resolve_operand em o))
              sb.b_phis
        in
        (succ, sequentialize em copies))
      (term_succs b.b_term)
  in
  { vb_label = b.b_label;
    vb_insts = insts @ term_reloads;
    vb_term =
      { vt_op = term_mnemonic b.b_term; vt_srcs = srcs; vt_edges = edges } }

let lower_func ~(ra : Regalloc.result) ~(layout : Smem.layout) (f : func) :
    vfunc =
  let em =
    { em_ra = ra; em_layout = layout; em_scratch_hi = 0; em_loads = 0;
      em_stores = 0 }
  in
  let by_label = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace by_label b.b_label b) f.f_blocks;
  (* the CFG's rpo lists reachable blocks first, then unreachable ones
     in source order — a total layout over the function *)
  let cfg = Ozo_ir.Cfg.of_func f in
  let ordered = List.filter_map (Hashtbl.find_opt by_label) cfg.Ozo_ir.Cfg.rpo in
  let blocks = List.map (lower_block em by_label) ordered in
  { vf_name = f.f_name;
    vf_blocks = blocks;
    vf_regs_used = ra.Regalloc.ra_regs_used + em.em_scratch_hi;
    vf_frame_bytes = ra.Regalloc.ra_frame_bytes;
    vf_spill_loads = em.em_loads;
    vf_spill_stores = em.em_stores }

(* ---------- stream statistics ------------------------------------------ *)

(* Coarse instruction mix of a lowered function — what `ozo vm` tabulates
   alongside the resource numbers. *)
type vstats = {
  vs_ops : int;     (* real operations (V_op) *)
  vs_moves : int;   (* phi-lowered parallel-copy moves *)
  vs_reloads : int; (* frame reloads *)
  vs_spills : int;  (* frame spill stores *)
  vs_blocks : int;
  vs_edges : int;   (* CFG edges carrying a nonempty copy sequence *)
}

let func_stats (vf : vfunc) : vstats =
  let ops = ref 0 and moves = ref 0 and reloads = ref 0 and spills = ref 0 in
  let edges = ref 0 in
  let count = function
    | V_op _ -> incr ops
    | V_copy _ -> incr moves
    | V_reload _ -> incr reloads
    | V_spill _ -> incr spills
  in
  List.iter
    (fun vb ->
      List.iter count vb.vb_insts;
      List.iter
        (fun (_, copies) ->
          if copies <> [] then incr edges;
          List.iter count copies)
        vb.vb_term.vt_edges)
    vf.vf_blocks;
  { vs_ops = !ops; vs_moves = !moves; vs_reloads = !reloads;
    vs_spills = !spills; vs_blocks = List.length vf.vf_blocks;
    vs_edges = !edges }

(* ---------- printing --------------------------------------------------- *)

let pp_loc ppf = function
  | Regalloc.Phys r -> Fmt.pf ppf "r%d" r
  | Regalloc.Slot s -> Fmt.pf ppf "[frame+%d]" (s * Regalloc.slot_bytes)

let pp_opd ppf = function
  | Vloc l -> pp_loc ppf l
  | Vint v -> Fmt.pf ppf "%Ld" v
  | Vfloat v -> Fmt.pf ppf "%g" v
  | Vglobal g -> Fmt.pf ppf "@%s" g
  | Vshared (g, off) -> Fmt.pf ppf "smem+%d(@%s)" off g
  | Vfunc fn -> Fmt.pf ppf "&%s" fn
  | Vundef -> Fmt.pf ppf "undef"

let pp_vinst ppf = function
  | V_op { vd; vop; vsrcs } -> (
    match vd with
    | Some d ->
      Fmt.pf ppf "%a = %s %a" pp_loc d vop
        (Fmt.list ~sep:Fmt.comma pp_opd) vsrcs
    | None -> Fmt.pf ppf "%s %a" vop (Fmt.list ~sep:Fmt.comma pp_opd) vsrcs)
  | V_copy (d, s) -> Fmt.pf ppf "%a = mov %a" pp_loc d pp_opd s
  | V_reload { vto; vslot } ->
    Fmt.pf ppf "r%d = ld.frame [frame+%d]" vto (vslot * Regalloc.slot_bytes)
  | V_spill { vslot; vfrom } ->
    Fmt.pf ppf "st.frame [frame+%d], r%d" (vslot * Regalloc.slot_bytes) vfrom

let pp_vfunc ppf vf =
  Fmt.pf ppf "@[<v>%s: regs=%d frame=%dB spill(ld/st)=%d/%d@," vf.vf_name
    vf.vf_regs_used vf.vf_frame_bytes vf.vf_spill_loads vf.vf_spill_stores;
  List.iter
    (fun vb ->
      Fmt.pf ppf "%s:@," vb.vb_label;
      List.iter (fun i -> Fmt.pf ppf "  %a@," pp_vinst i) vb.vb_insts;
      Fmt.pf ppf "  %s %a@," vb.vb_term.vt_op
        (Fmt.list ~sep:Fmt.comma pp_opd) vb.vb_term.vt_srcs;
      List.iter
        (fun (succ, copies) ->
          if copies <> [] then begin
            Fmt.pf ppf "  -> %s:@," succ;
            List.iter (fun c -> Fmt.pf ppf "     %a@," pp_vinst c) copies
          end)
        vb.vb_term.vt_edges)
    vf.vf_blocks;
  Fmt.pf ppf "@]"
