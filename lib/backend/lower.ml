(* The late lowering driver: optimized ozo_ir module -> virtual machine
   code plus a resource summary.

   Per function, the driver runs linear-scan register allocation against
   the machine's per-thread register budget (reusing the pipeline's
   cached liveness via the analysis manager), then destructs SSA into
   the VM form ([Vm]). When the budget forces spills it also rewrites
   the *IR*: every spilled virtual register gets an 8-byte local-memory
   slot ([Alloca] in the entry block), a store after its definition and
   a reload before every use. The virtual GPU executes this rewritten
   module, so spill traffic flows through the engine's local-memory
   cost path and the run stays bit-identical to the unlimited-register
   run — the differential property the backend test suite pins. With no
   spills the module is returned physically unchanged, so the default
   builds (budget 255) execute exactly the bytes they executed before
   this stage existed.

   The module-level summary mirrors what ptxas -v prints per kernel:
   registers (own pressure plus the worst surviving callee chain, the
   same ABI model as [Liveness.kernel_register_estimate]), static SMem
   footprint, spill loads/stores and the local frame size. *)

open Ozo_ir.Types
module Liveness = Ozo_ir.Liveness
module RSet = Liveness.RSet
module Analysis = Ozo_opt.Analysis
module Trace = Ozo_obs.Trace

type func_lowering = {
  fl_func : string;
  fl_ra : Regalloc.result;
  fl_vm : Vm.vfunc;
}

type summary = {
  lw_machine : Machine.t;
  lw_kernel : string;
  lw_module : modul;        (* the module the vGPU should execute *)
  lw_layout : Smem.layout;
  lw_program : Vm.program;
  lw_funcs : func_lowering list;
  lw_kernel_regs : int;     (* per-thread registers incl. callee chain *)
  lw_spilled_regs : int;    (* virtual registers demoted to the frame *)
  lw_spill_loads : int;     (* static reload instructions *)
  lw_spill_stores : int;    (* static spill-store instructions *)
  lw_frame_bytes : int;     (* largest per-function spill frame *)
  (* virtual→physical rename plans over the *executed* module
     ([lw_module]), one per spill-free function — what the engine's
     threaded-code path compiles against (see [Threaded]) *)
  lw_plan : (string * Ozo_vgpu.Engine.reg_plan) list;
}

(* ---------- spill-type inference --------------------------------------- *)

(* The IR carries no per-register type table, and for spill code only one
   bit matters: does the value live in the float or the integer register
   file? (The engine dispatches loads/stores on [is_float_typ]; integers,
   booleans and pointers all round-trip losslessly through an I64 slot.) *)
let is_float_binop = function
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> true
  | Add | Sub | Mul | Sdiv | Srem | Udiv | Urem | And | Or | Xor | Shl
  | Ashr | Lshr | Smin | Smax -> false

let is_float_unop = function
  | Fneg | Fsqrt | Fexp | Flog | Fsin | Fcos | Fabs | Sitofp -> true
  | Not | Fptosi | Zext32to64 | Trunc64to32 -> false

let slot_typ_of_typ t = if t = F64 then F64 else I64

let spill_types (m : modul) (f : func) (spilled : RSet.t) : (reg, typ) Hashtbl.t
    =
  let tys = Hashtbl.create 16 in
  let note r t = if RSet.mem r spilled then Hashtbl.replace tys r t in
  List.iter (fun (r, t) -> note r (slot_typ_of_typ t)) f.f_params;
  List.iter
    (fun b ->
      List.iter (fun p -> note p.phi_reg (slot_typ_of_typ p.phi_typ)) b.b_phis;
      List.iter
        (fun i ->
          match i with
          | Binop (r, op, _, _) -> note r (if is_float_binop op then F64 else I64)
          | Unop (r, op, _) -> note r (if is_float_unop op then F64 else I64)
          | Icmp (r, _, _, _) | Fcmp (r, _, _, _) -> note r I64
          | Select (r, t, _, _, _) | Load (r, t, _) -> note r (slot_typ_of_typ t)
          | Ptradd (r, _, _) | Alloca (r, _) | Intrinsic (r, _) | Malloc (r, _) ->
            note r I64
          | Call (Some r, callee, _) ->
            let t =
              match find_func m callee with
              | Some cf -> Option.value ~default:I64 cf.f_ret
              | None -> I64
            in
            note r (slot_typ_of_typ t)
          | Call_indirect (Some r, rt, _, _) ->
            note r (slot_typ_of_typ (Option.value ~default:I64 rt))
          | Atomic (Some r, _, t, _, _) -> note r (slot_typ_of_typ t)
          | Call (None, _, _) | Call_indirect (None, _, _, _)
          | Atomic (None, _, _, _, _)
          | Store _ | Barrier _ | Assume _ | Trap _ | Free _ | Debug_print _ ->
            ())
        b.b_insts)
    f.f_blocks;
  tys

(* ---------- IR spill materialization ----------------------------------- *)

(* Rewrite [f] so every spilled register lives in an 8-byte local-memory
   slot: slot allocas in the entry block, a store right after each def
   (params: after the allocas; phi defs: at the head of their block), a
   fresh-register reload before each use. The result is verifier-clean
   SSA the engine executes directly — uses of a spilled value go through
   new registers whose live ranges span a single instruction, which is
   what keeps the allocator's budget honest at runtime. *)
let rewrite_func (m : modul) (ra : Regalloc.result) (f : func) : func =
  let spilled = List.fold_left (fun s r -> RSet.add r s) RSet.empty ra.ra_spilled in
  let tys = spill_types m f spilled in
  let typ_of r = Option.value ~default:I64 (Hashtbl.find_opt tys r) in
  let next = ref f.f_next_reg in
  let fresh () =
    let r = !next in
    incr next;
    r
  in
  (* one slot pointer per spilled register, in sorted (deterministic) order *)
  let slot_reg : (reg, reg) Hashtbl.t = Hashtbl.create 16 in
  let prologue_allocas =
    List.map
      (fun r ->
        let sr = fresh () in
        Hashtbl.replace slot_reg r sr;
        Alloca (sr, Regalloc.slot_bytes))
      ra.ra_spilled
  in
  let slot_of r = Reg (Hashtbl.find slot_reg r) in
  let store_of r = Store (typ_of r, Reg r, slot_of r) in
  let spilled_uses ops =
    RSet.elements
      (RSet.inter
         (List.fold_left
            (fun acc o ->
              List.fold_left (fun acc r -> RSet.add r acc) acc (operand_regs o))
            RSet.empty ops)
         spilled)
  in
  (* reload each spilled register [ops] reads into a fresh register;
     returns the loads plus the substitution *)
  let reloads ops =
    let subst = Hashtbl.create 4 in
    let loads =
      List.map
        (fun r ->
          let r' = fresh () in
          Hashtbl.replace subst r r';
          Load (r', typ_of r, slot_of r))
        (spilled_uses ops)
    in
    let map_op = function
      | Reg r as o -> (
        match Hashtbl.find_opt subst r with Some r' -> Reg r' | None -> o)
      | o -> o
    in
    (loads, map_op)
  in
  (* phi-edge reloads live in the predecessor block; collect the
     substitution per (pred, reg) while rewriting blocks, then rewrite
     every phi's incoming list in a second pass *)
  let edge_reload : (label * reg, reg) Hashtbl.t = Hashtbl.create 16 in
  let entry_label = (entry_block f).b_label in
  let param_stores =
    List.filter_map
      (fun (r, _) -> if RSet.mem r spilled then Some (store_of r) else None)
      f.f_params
  in
  let blocks =
    List.map
      (fun b ->
        let phi_def_stores =
          List.filter_map
            (fun p ->
              if RSet.mem p.phi_reg spilled then Some (store_of p.phi_reg)
              else None)
            b.b_phis
        in
        let insts =
          List.concat_map
            (fun i ->
              let loads, map_op = reloads (inst_uses i) in
              let i = map_inst_operands map_op i in
              let stores =
                match inst_def i with
                | Some r when RSet.mem r spilled -> [ store_of r ]
                | _ -> []
              in
              loads @ (i :: stores))
            b.b_insts
        in
        let term_loads, term_map = reloads (term_uses b.b_term) in
        let term = map_term_operands term_map b.b_term in
        (* reloads for spilled phi sources of the successors *)
        let succ_phi_loads =
          List.concat_map
            (fun succ ->
              match find_block f succ with
              | None -> []
              | Some sb ->
                List.filter_map
                  (fun p ->
                    match List.assoc_opt b.b_label p.phi_incoming with
                    | Some (Reg r)
                      when RSet.mem r spilled
                           && not (Hashtbl.mem edge_reload (b.b_label, r)) ->
                      let r' = fresh () in
                      Hashtbl.replace edge_reload (b.b_label, r) r';
                      Some (Load (r', typ_of r, slot_of r))
                    | _ -> None)
                  sb.b_phis)
            (term_succs b.b_term)
        in
        let prologue =
          if b.b_label = entry_label then prologue_allocas @ param_stores else []
        in
        { b with
          b_insts =
            prologue @ phi_def_stores @ insts @ term_loads @ succ_phi_loads;
          b_term = term })
      f.f_blocks
  in
  let blocks =
    List.map
      (fun b ->
        { b with
          b_phis =
            List.map
              (fun p ->
                { p with
                  phi_incoming =
                    List.map
                      (fun (pred, o) ->
                        match o with
                        | Reg r when RSet.mem r spilled -> (
                          match Hashtbl.find_opt edge_reload (pred, r) with
                          | Some r' -> (pred, Reg r')
                          | None -> (pred, o))
                        | _ -> (pred, o))
                      p.phi_incoming })
              b.b_phis })
      blocks
  in
  { f with f_blocks = blocks; f_next_reg = !next }

(* ---------- the driver -------------------------------------------------- *)

let run ?(machine = Machine.vgpu) ?am ?(trace = Trace.null) (m : modul)
    ~(kernel : string) : summary =
  let am = match am with Some a -> a | None -> Analysis.create () in
  Trace.with_span trace ~cat:"backend"
    ~args:
      [ ("machine", Trace.Str machine.Machine.mc_name);
        ("kernel", Trace.Str kernel) ]
    "backend:lower"
    (fun () ->
      let layout = Smem.of_module m in
      let budget = machine.Machine.mc_max_regs_per_thread in
      let allocated =
        List.map
          (fun f ->
            let lv = Analysis.liveness am f in
            (f, Regalloc.run ~budget lv f))
          m.m_funcs
      in
      (* spill-rewrite only the functions that need it; with no spills
         the module is returned physically unchanged *)
      let m' =
        List.fold_left
          (fun acc (f, ra) ->
            if ra.Regalloc.ra_spilled = [] then acc
            else update_func acc (rewrite_func m ra f))
          m allocated
      in
      if m' != m then
        Analysis.invalidate am ~preserved:Analysis.preserve_none ~before:m
          ~after:m';
      let funcs =
        List.map
          (fun (f, ra) ->
            { fl_func = f.f_name; fl_ra = ra; fl_vm = Vm.lower_func ~ra ~layout f })
          allocated
      in
      let regs_of = Hashtbl.create 16 in
      List.iter
        (fun fl -> Hashtbl.replace regs_of fl.fl_func fl.fl_vm.Vm.vf_regs_used)
        funcs;
      (* same call-chain ABI model as the liveness estimate, but over the
         allocator's actual register counts *)
      let kernel_regs =
        match find_func m kernel with
        | None -> 0
        | Some kf ->
          Liveness.kernel_register_estimate
            ~pressure_of:(fun f ->
              Option.value ~default:0 (Hashtbl.find_opt regs_of f.f_name))
            m kf
      in
      let sum get = List.fold_left (fun a fl -> a + get fl) 0 funcs in
      (* rename plans must describe the module the engine *executes*
         ([m']): spill-free functions are physically unchanged there, so
         their allocation is reused; spill-rewritten functions get a
         fresh allocation over the rewritten body (whose single-
         instruction reload ranges fit the budget by construction — if
         one still spills, it is simply left off the plan and runs on
         its virtual registers) *)
      let ra_by_name = Hashtbl.create 16 in
      List.iter
        (fun (f, ra) -> Hashtbl.replace ra_by_name f.f_name ra)
        allocated;
      let plan =
        List.filter_map
          (fun f' ->
            let ra =
              match Hashtbl.find_opt ra_by_name f'.f_name with
              | Some ra when ra.Regalloc.ra_spilled = [] -> ra
              | _ -> Regalloc.run ~budget (Analysis.liveness am f') f'
            in
            Option.map
              (fun p -> (f'.f_name, p))
              (Threaded.plan_of_alloc f' ra))
          m'.m_funcs
      in
      let summary =
        { lw_machine = machine;
          lw_kernel = kernel;
          lw_module = m';
          lw_layout = layout;
          lw_program =
            { Vm.pr_name = m.m_name; pr_funcs = List.map (fun fl -> fl.fl_vm) funcs;
              pr_layout = layout };
          lw_funcs = funcs;
          lw_kernel_regs = kernel_regs;
          lw_spilled_regs =
            sum (fun fl -> List.length fl.fl_ra.Regalloc.ra_spilled);
          lw_spill_loads = sum (fun fl -> fl.fl_vm.Vm.vf_spill_loads);
          lw_spill_stores = sum (fun fl -> fl.fl_vm.Vm.vf_spill_stores);
          lw_frame_bytes =
            List.fold_left
              (fun a fl -> max a fl.fl_ra.Regalloc.ra_frame_bytes)
              0 funcs;
          lw_plan = plan }
      in
      Trace.instant trace ~cat:"backend"
        ~args:
          [ ("kernel_regs", Trace.Int summary.lw_kernel_regs);
            ("smem_bytes", Trace.Int layout.Smem.ly_total);
            ("spilled", Trace.Int summary.lw_spilled_regs);
            ("spill_loads", Trace.Int summary.lw_spill_loads);
            ("spill_stores", Trace.Int summary.lw_spill_stores) ]
        "backend:resources";
      summary)
