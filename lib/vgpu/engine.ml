(* SIMT execution engine.

   Execution model: each warp starts as a single *strand* — an active-lane
   mask plus a call stack. A divergent branch splits the strand into
   children and (when an immediate post-dominator exists) registers a join
   at the reconvergence point; children that reach the join die and, once
   all have arrived, a merged strand resumes. This is a deterministic
   version of post-Volta "independent thread scheduling": sibling strands
   can make progress while one waits at a barrier, which the OpenMP
   generic-mode state machine (main thread vs. worker threads in the same
   warp) requires.

   Teams are independent by construction (team-wide barriers only,
   per-team shared memory) and execute deterministically. With
   [~domains:1] they run sequentially on the calling domain; with
   [~domains:n] team ids are statically chunked over n OCaml domains
   (contiguous balanced ranges, [Pool.chunk]), each domain owning a
   complete engine instance — its own decode caches, scratch, memory
   view and fault context — and executing its teams in ascending order.
   Per-team counters, faults and profile data are merged in team order
   at readback, so results are bit-identical to the sequential engine at
   every domain count. Within a team, runnable strands are scheduled in
   creation order, each running until it blocks at a barrier, dies, or
   splits. Costs are charged per strand instruction issue (so divergence
   costs extra issues) plus per-access memory costs with global-memory
   coalescing.

   Interpretation strategy: functions are decoded once per engine into a
   flat pre-resolved form ([dinst]/[dterm]) — operands become direct
   register indices or constants, binops become closures, globals and
   function addresses are resolved up front. Operands that cannot be
   resolved statically (unknown global, float immediate in an integer
   slot) decode to [IBad]/[FBad] carrying the exact fault message, raised
   only if the instruction actually executes, so malformed-but-dead code
   behaves as before. On top of that the interpreter scalarizes
   uniform-strand work: a load/store whose address is identical across
   all active lanes becomes one memory operation, and a transcendental
   whose operand is uniform is evaluated once and broadcast. Scalarization
   changes *how* a result is computed, never the result, the charged
   cycles, or the counters — the golden-counters tests pin this. *)

open Ozo_ir.Types
module Dominance = Ozo_ir.Dominance
module Cfg = Ozo_ir.Cfg

(* faults carry structured [Fault.t] reports; the exception aliases keep
   the engine's historical names working for external catchers *)
exception Kernel_trap = Fault.Kernel_trap
exception Kernel_fault = Fault.Kernel_fault

let fault fmt = Fault.fail Fault.Invalid fmt

type arg = Ai of int | Af of float

type launch = {
  l_teams : int;
  l_threads : int;
  l_args : arg list;
  l_check_assumes : bool;
  l_debug : bool; (* print Debug_print instructions as they execute *)
}

(* --- execution paths --------------------------------------------------- *)

(* Which executor drives the per-strand inner loop. [Exec_ir] interprets
   the pre-decoded [dinst] stream through one big dispatch match.
   [Exec_vm] runs the threaded-code form: per-block arrays of
   pre-specialized closures compiled from the same decoded stream.
   Both paths share decoding (register renaming included), counters,
   faults, sanitizer hooks, watchdog polling, scheduling and per-domain
   state; results are bit-identical (the differential suite pins this). *)
type exec = Exec_ir | Exec_vm

let exec_name = function Exec_ir -> "ir" | Exec_vm -> "vm"
let exec_of_name = function "ir" -> Some Exec_ir | "vm" -> Some Exec_vm | _ -> None

(* Per-function register-rename plan derived from the backend's
   linear-scan allocation: [rp_map.(vreg)] is the physical index the
   engine's flat register file uses under either executor, and [rp_nregs]
   sizes the frame (typically far below [f_next_reg], so frames shrink).
   Only spill-free functions carry a plan; a function the register budget
   forced to spill executes its (already spill-rewritten) stream with
   virtual indices and [f_next_reg]-row frames. *)
type reg_plan = { rp_map : int array; rp_nregs : int }

(* --- growable strand vector ------------------------------------------- *)

(* Strand bookkeeping used to be a [strand list] with quadratic
   [xs @ [x]] appends and a full list rebuild per scheduler step; this is
   the minimal growable array the scheduler actually needs. *)
module Svec = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let length t = t.len
  let get t i = t.arr.(i)

  let push t x =
    if t.len = Array.length t.arr then begin
      let a = Array.make (max 8 (2 * t.len)) x in
      Array.blit t.arr 0 a 0 t.len;
      t.arr <- a
    end;
    t.arr.(t.len) <- x;
    t.len <- t.len + 1

  let clear t = t.len <- 0

  let iter f t =
    for i = 0 to t.len - 1 do
      f t.arr.(i)
    done

  let exists f t =
    let rec go i = i < t.len && (f t.arr.(i) || go (i + 1)) in
    go 0

  let find_opt f t =
    let rec go i =
      if i >= t.len then None
      else if f t.arr.(i) then Some t.arr.(i)
      else go (i + 1)
    in
    go 0

  (* stable in-place filter, preserving creation order *)
  let compact t keep =
    let j = ref 0 in
    for i = 0 to t.len - 1 do
      let x = t.arr.(i) in
      if keep x then begin
        t.arr.(!j) <- x;
        incr j
      end
    done;
    t.len <- !j
end

(* --- pre-decoded instruction form ------------------------------------- *)

(* A decoded operand: a register index into the frame's flat register
   file, a pre-resolved constant (immediates, global/function addresses,
   undef), or a deferred decode failure carrying the exact message the
   AST interpreter would have raised at execution time. *)
type iop = IReg of reg | IConst of int | IBad of string
type fop = FReg of reg | FConst of float | FBad of string

(* one phi of a parallel-copy edge *)
type dphi = PE_i of reg * iop | PE_f of reg * fop | PE_bad of string

(* a call argument bound to the callee's parameter register *)
type darg = DA_i of reg * iop | DA_f of reg * fop

type dcall =
  | DC_ok of {
      dc_callee : string;
      dc_entry : label;
      dc_ret : (reg * bool) option; (* destination in the caller, is_float *)
      dc_args : darg array;
    }
  (* statically malformed call (unknown callee, arity or void/value
     mismatch): charged like a call, then the thunk raises the fault the
     dynamic path would have raised *)
  | DC_fail of (unit -> unit)

(* Float operations dispatch on small tags matched *inside* the per-lane
   loops rather than through closures: a call through a
   [float -> float -> float] closure boxes both arguments and the result
   on every lane, while a monomorphic match compiles to straight unboxed
   float code. Integer ops keep closures — ints never box. *)
type fbink = KFadd | KFsub | KFmul | KFdiv | KFmin | KFmax
type funk = KFneg | KFabs | KFsqrt | KFexp | KFlog | KFsin | KFcos

type dinst =
  | D_ibin of reg * (int -> int -> int) * iop * iop
  | D_fbin of reg * fbink * fop * fop
  | D_icmp of reg * (int -> int -> bool) * iop * iop
  | D_fcmp of reg * fcmp * fop * fop
  | D_un_i of reg * (int -> int) * iop
  (* float unop: is-SFU flag (scalarizable when uniform), issue cost *)
  | D_un_f of reg * bool * int * funk * fop
  | D_i2f of reg * iop
  | D_f2i of reg * fop
  | D_sel_i of reg * iop * iop * iop
  | D_sel_f of reg * iop * fop * fop
  | D_load_i of reg * typ * iop
  | D_load_f of reg * iop
  | D_store_i of typ * iop * iop (* type, value, address *)
  | D_store_f of fop * iop
  | D_alloca of reg * int
  | D_intr of reg * intrinsic
  | D_malloc of reg * iop
  | D_free
  | D_assume of iop
  | D_trap of string
  | D_debug of string * iop list
  | D_atomic_i of reg option * atomic_op * typ * iop * iop array
  | D_atomic_f of reg option * atomic_op * iop * fop array
  | D_barrier of bool
  | D_call of dcall
  (* indirect call: target must be resolved per execution, so arguments
     stay as AST operands and bind through the dynamic path *)
  | D_icall of reg option * iop * operand list

type dterm =
  | T_ret_none
  | T_ret_i of iop
  | T_ret_f of fop
  | T_br of label
  | T_cond of iop * label * label
  | T_switch of iop * (int * label) array * label
  | T_unreach

(* --- per-function static caches & dynamic structures ------------------- *)

(* [cblock] carries the threaded code ([cb_code], an [engine]-consuming
   closure per instruction), so the whole static/dynamic structure chain
   down to [engine] is one mutually recursive group. *)

type barrier_site = { bs_fn : string; bs_blk : label; bs_idx : int; bs_aligned : bool }

type status = Run | At_barrier of barrier_site | Dead

(* pseudo-label for joins that reconverge at function return: divergent
   paths that all return from the current function merge at the call's
   continuation, as real SIMT hardware does *)
let ret_marker = "<ret>"

type cblock = {
  cb_insts : dinst array;
  (* threaded code: one pre-specialized closure per instruction of
     [cb_insts], built only under [Exec_vm] ([[||]] otherwise). The VM
     inner loop indexes this array directly instead of dispatching on the
     [dinst] constructor. *)
  cb_code : code array;
  cb_term : dterm;
  cb_nphis : int;
  cb_first_phi : reg; (* first phi's *original* register, for fault messages *)
  cb_edges : (label, dphi array) Hashtbl.t; (* from-label -> parallel copy *)
  cb_ti : int array; (* phi parallel-copy staging, one slot per phi *)
  cb_tf : float array;
  (* opt-in hot-spot profile, accumulated only when the engine runs with
     [profile]: entries into this block across all strands (a strand that
     suspends at a barrier and resumes counts again), and the
     warp-instruction / cost-model-cycle deltas attributed to it *)
  mutable cb_hits : int;
  mutable cb_wi : int;
  mutable cb_cyc : int;
}

and code = engine -> team_ctx -> strand -> slot -> [ `Continue | `Suspend ]

and fn_info = {
  fi_func : func; (* with a plan: the *renamed* function *)
  fi_nregs : int; (* register-file height: plan's [rp_nregs] or [f_next_reg] *)
  fi_blocks : (label, cblock) Hashtbl.t;
  fi_reconv : (label, label option) Hashtbl.t; (* immediate post-dominator *)
  (* kernel-entry frames released at the end of an earlier team of this
     engine's launch, reused (zero-filled) by [entry_frame]; empty for
     every other function, whose call frames are left to the GC *)
  mutable fi_pool : frame list;
}

(* Per-frame registers live in two flat register-major arrays indexed
   [(reg * warp_size) + lane]: one bounds-checked load instead of two
   dereferences per access, and a broadcast write is a contiguous run. *)
and frame = {
  fr_info : fn_info;
  fr_ws : int; (* warp width = lane stride *)
  fr_ints : int array;
  fr_floats : float array;
  fr_sp_save : int array; (* per-lane local stack pointer at entry *)
  mutable fr_id : int; (* team-unique; re-stamped when a pooled frame is reused *)
}

and slot = {
  sl_frame : frame;
  mutable sl_blk : label;
  mutable sl_idx : int;
  sl_ret_dst : (reg * bool) option; (* destination in the caller, is_float *)
}

and join = {
  j_id : int;
  j_frame : int;
  j_rpc : label;
  mutable j_expected : int;
  mutable j_arrived : int;
  j_mask : bool array;
  j_cont : slot list;
  j_outer : join list;
}

and strand = {
  st_seq : int;
  st_warp : int;
  st_active : int; (* popcount of st_mask; masks are fixed at creation *)
  mutable st_mask : bool array;
  mutable st_stack : slot list;
  mutable st_joins : join list; (* innermost first *)
  mutable st_status : status;
}

and team_ctx = {
  tc_team : int;
  tc_threads : int;
  tc_warp_size : int;
  tc_done : bool array; (* per thread in team *)
  tc_strands : strand Svec.t; (* in creation order *)
  mutable tc_next_seq : int;
  mutable tc_next_frame : int;
  mutable tc_next_join : int;
  tc_counters : Counters.t;
}

and engine = {
  e_module : modul;
  e_params : Cost.params;
  e_mem : Memory.t;
  e_launch : launch;
  e_exec : exec; (* which inner-loop executor drives strands *)
  (* per-function register-rename plans (built once at [run], shared
     read-only across domain engines), applied under both executors *)
  e_plan : (string, reg_plan) Hashtbl.t;
  e_fn_infos : (string, fn_info) Hashtbl.t;
  (* every kernel-entry frame handed out to the current team; returned
     to the kernel's pool when the team ends *)
  e_frames : frame Svec.t;
  e_gaddr : (string, int) Hashtbl.t;      (* global name -> encoded address *)
  e_ftable : func array;                  (* function pointer table *)
  e_fidx : (string, int) Hashtbl.t;       (* function name -> index+1 (0 = null) *)
  e_shared_globals : (global * int) list; (* shared-space globals and offsets *)
  e_san : Sanitizer.t option;             (* opt-in SIMT sanitizer *)
  e_spec : Faultinject.spec option;       (* opt-in fault injection *)
  (* per-team injection stream, re-derived from [e_spec] at every team
     start; None for non-target teams *)
  mutable e_inject : Faultinject.t option;
  e_fastmem : bool; (* no memory watcher: direct-access fast path is legal *)
  e_trace : Ozo_obs.Trace.ctx; (* phase spans + hot-spot instants *)
  e_prof : bool; (* accumulate per-block hot-spot counters *)
  (* warp-sized scratch, reused across every memory instruction so the
     hot path allocates nothing: per-lane addresses and their cached
     [Memory.decode] results, the coalescing segment set, and per-lane
     branch conditions.
     DOMAIN-SAFETY: this scratch — like every mutable field below, the
     decode caches above and the fault context — is per-engine, and the
     parallel path builds one engine per domain, so no execution state
     is ever shared across domains. *)
  e_addr : int array;
  e_space : addrspace array;
  e_off : int array;
  e_segs : int array;
  e_cond : bool array;
  e_fscr : float array; (* single-slot staging for constant float stores *)
  e_budget0 : int; (* per-team instruction-issue budget *)
  mutable e_budget : int; (* remaining issues for the current team *)
  (* per-team kernel-malloc arena: (base offset, bytes per team) in global
     memory, reserved before execution so allocation addresses are a pure
     function of (team, allocation order) — independent of the domain
     schedule. [e_arena_cur] is the current team's bump cursor. *)
  e_arena : (int * int) option;
  mutable e_arena_cur : int;
  (* fault context stamped at every issue; escaping faults are annotated
     with it at the launch boundary *)
  e_fctx : Fault.ctx;
  (* wall-clock watchdog: polled every [wd_poll_interval] block visits;
     the closure returns true once the launch deadline has passed *)
  e_watchdog : (unit -> bool) option;
  mutable e_wd_fuel : int;
  (* parallel-run abort channel: the lowest faulting team id across all
     domains (max_int = none). A domain stops early only for teams the
     sequential engine would never have reached. *)
  e_abort : int Atomic.t option;
  mutable e_cur_team : int;
}

let copy_slot s =
  { sl_frame = s.sl_frame; sl_blk = s.sl_blk; sl_idx = s.sl_idx;
    sl_ret_dst = s.sl_ret_dst }

let is_float_typ = function F64 -> true | I1 | I32 | I64 | Ptr _ -> false

(* --- decoding ---------------------------------------------------------- *)

let decode_iop e = function
  | Reg r -> IReg r
  | Imm_int (v, _) -> IConst (Int64.to_int v)
  | Imm_float _ -> IBad "float immediate in integer context"
  | Global_addr g -> (
    match Hashtbl.find_opt e.e_gaddr g with
    | Some a -> IConst a
    | None -> IBad (Printf.sprintf "unknown global @%s" g))
  | Func_addr f -> (
    match Hashtbl.find_opt e.e_fidx f with
    | Some i -> IConst i
    | None -> IBad (Printf.sprintf "unknown function &%s" f))
  | Undef _ -> IConst 0

let decode_fop _e = function
  | Reg r -> FReg r
  | Imm_float x -> FConst x
  | Imm_int (v, _) -> FConst (Int64.to_float v)
  | Undef _ -> FConst 0.0
  | Global_addr _ | Func_addr _ -> FBad "address in float context"

let ibinop_fn : binop -> int -> int -> int = function
  | Add -> ( + )
  | Sub -> ( - )
  | Mul -> ( * )
  | Sdiv -> fun a b -> if b = 0 then fault "division by zero" else a / b
  | Srem -> fun a b -> if b = 0 then fault "remainder by zero" else a mod b
  | Udiv -> fun a b -> if b = 0 then fault "division by zero" else abs a / abs b
  | Urem -> fun a b -> if b = 0 then fault "remainder by zero" else abs a mod abs b
  | And -> ( land )
  | Or -> ( lor )
  | Xor -> ( lxor )
  | Shl -> fun a b -> a lsl (b land 62)
  | Ashr -> fun a b -> a asr (b land 62)
  | Lshr -> fun a b -> (a lsr (b land 62)) land max_int
  | Smin -> min
  | Smax -> max
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> fun _ _ -> fault "float binop in int context"

let fbink_of : binop -> fbink = function
  | Fadd -> KFadd
  | Fsub -> KFsub
  | Fmul -> KFmul
  | Fdiv -> KFdiv
  | Fmin -> KFmin
  | Fmax -> KFmax
  | _ -> assert false

let is_float_binop = function
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> true
  | _ -> false

(* out-of-loop applications (constant folding, scalarized broadcast);
   Fmin/Fmax spell out stdlib [min]/[max] so NaN and signed-zero handling
   is bit-identical to the polymorphic compare they replace *)
let fbin_apply k x y =
  match k with
  | KFadd -> x +. y
  | KFsub -> x -. y
  | KFmul -> x *. y
  | KFdiv -> x /. y
  | KFmin -> if x <= y then x else y
  | KFmax -> if x >= y then x else y

let fun_apply k x =
  match k with
  | KFneg -> -.x
  | KFabs -> Float.abs x
  | KFsqrt -> sqrt x
  | KFexp -> exp x
  | KFlog -> log x
  | KFsin -> sin x
  | KFcos -> cos x

(* 63-bit unsigned comparisons: negative = huge *)
let icmp_ult a b =
  (a >= 0 && b >= 0 && a < b) || (a >= 0 && b < 0) || (a < 0 && b < 0 && a < b)

let icmp_to_fn : icmp -> int -> int -> bool = function
  | Eq -> ( = )
  | Ne -> ( <> )
  | Slt -> ( < )
  | Sle -> ( <= )
  | Sgt -> ( > )
  | Sge -> ( >= )
  | Ult -> icmp_ult
  | Ule -> fun a b -> a = b || icmp_ult a b
  | Ugt -> fun a b -> icmp_ult b a
  | Uge -> fun a b -> a = b || icmp_ult b a

let funk_of : unop -> funk = function
  | Fneg -> KFneg
  | Fabs -> KFabs
  | Fsqrt -> KFsqrt
  | Fexp -> KFexp
  | Flog -> KFlog
  | Fsin -> KFsin
  | Fcos -> KFcos
  | Not | Sitofp | Fptosi | Zext32to64 | Trunc64to32 -> assert false

(* The frame of a planned function is indexed by renamed physical
   registers, so anything that binds values into such a frame from the
   *original* IR (call-argument binding) must rename the target register
   the same way. *)
let plan_reg e fname r =
  match Hashtbl.find_opt e.e_plan fname with
  | Some p -> p.rp_map.(r)
  | None -> r

(* Statically validate a direct call. A failure must surface exactly when
   (and only when) the call executes, with the message the dynamic lookup
   would have produced — hence the deferred [DC_fail] thunks. *)
let decode_call e dst callee args =
  match find_func e.e_module callee with
  | None -> DC_fail (fun () -> ignore (find_func_exn e.e_module callee))
  | Some cf ->
    let nparams = List.length cf.f_params and nargs = List.length args in
    if nparams <> nargs then
      DC_fail
        (fun () ->
          fault "call to %s with %d args (expects %d)" callee nargs nparams)
    else if dst <> None && cf.f_ret = None then
      DC_fail (fun () -> fault "call to void function %s expects a value" callee)
    else if cf.f_blocks = [] then
      DC_fail (fun () -> ignore (entry_block cf))
    else
      let dc_ret =
        match (dst, cf.f_ret) with
        | Some r, Some t -> Some (r, is_float_typ t)
        | _ -> None
      in
      let dc_args =
        List.map2
          (fun (preg, pty) op ->
            let preg = plan_reg e callee preg in
            if is_float_typ pty then DA_f (preg, decode_fop e op)
            else DA_i (preg, decode_iop e op))
          cf.f_params args
        |> Array.of_list
      in
      DC_ok { dc_callee = callee; dc_entry = (entry_block cf).b_label; dc_ret; dc_args }

let decode_inst e (i : inst) : dinst =
  let p = e.e_params in
  match i with
  | Binop (r, op, a, b) ->
    if is_float_binop op then D_fbin (r, fbink_of op, decode_fop e a, decode_fop e b)
    else D_ibin (r, ibinop_fn op, decode_iop e a, decode_iop e b)
  | Unop (r, op, a) -> (
    match op with
    | Not -> D_un_i (r, lnot, decode_iop e a)
    | Sitofp -> D_i2f (r, decode_iop e a)
    | Fptosi -> D_f2i (r, decode_fop e a)
    | Zext32to64 | Trunc64to32 ->
      D_un_i (r, (fun x -> x land 0xFFFFFFFF), decode_iop e a)
    | Fneg | Fabs | Fsqrt | Fexp | Flog | Fsin | Fcos ->
      D_un_f
        (r, Cost.is_special_unop op, Cost.unop_cost p op, funk_of op, decode_fop e a))
  | Icmp (r, op, a, b) -> D_icmp (r, icmp_to_fn op, decode_iop e a, decode_iop e b)
  | Fcmp (r, op, a, b) -> D_fcmp (r, op, decode_fop e a, decode_fop e b)
  | Select (r, ty, c, x, y) ->
    if is_float_typ ty then D_sel_f (r, decode_iop e c, decode_fop e x, decode_fop e y)
    else D_sel_i (r, decode_iop e c, decode_iop e x, decode_iop e y)
  | Ptradd (r, base, off) -> D_ibin (r, ( + ), decode_iop e base, decode_iop e off)
  | Load (r, ty, addr) ->
    if is_float_typ ty then D_load_f (r, decode_iop e addr)
    else D_load_i (r, ty, decode_iop e addr)
  | Store (ty, v, addr) ->
    if is_float_typ ty then D_store_f (decode_fop e v, decode_iop e addr)
    else D_store_i (ty, decode_iop e v, decode_iop e addr)
  | Alloca (r, size) -> D_alloca (r, size)
  | Intrinsic (r, i) -> D_intr (r, i)
  | Malloc (r, size) -> D_malloc (r, decode_iop e size)
  | Free _ -> D_free
  | Assume o -> D_assume (decode_iop e o)
  | Trap msg -> D_trap msg
  | Debug_print (msg, ops) -> D_debug (msg, List.map (decode_iop e) ops)
  | Atomic (dst, op, ty, addr, ops) ->
    if is_float_typ ty then
      D_atomic_f (dst, op, decode_iop e addr, Array.of_list (List.map (decode_fop e) ops))
    else
      D_atomic_i
        (dst, op, ty, decode_iop e addr, Array.of_list (List.map (decode_iop e) ops))
  | Barrier { aligned } -> D_barrier aligned
  | Call (dst, callee, args) -> D_call (decode_call e dst callee args)
  | Call_indirect (dst, _, callee_op, args) ->
    D_icall (dst, decode_iop e callee_op, args)

let decode_term e f : terminator -> dterm = function
  | Ret o -> (
    match f.f_ret with
    | None -> T_ret_none
    | Some t -> (
      match o with
      | None -> T_ret_none (* faults at execution if the caller expects a value *)
      | Some op -> if is_float_typ t then T_ret_f (decode_fop e op) else T_ret_i (decode_iop e op)))
  | Br l -> T_br l
  | Cond_br (c, lt, lf) -> T_cond (decode_iop e c, lt, lf)
  | Switch (o, cases, default) ->
    T_switch
      ( decode_iop e o,
        Array.of_list (List.map (fun (cv, l) -> (Int64.to_int cv, l)) cases),
        default )
  | Unreachable -> T_unreach

(* [orig_regs] are the block's phi destination registers *before* any
   register renaming (positionally aligned with [b.b_phis]): fault
   messages must name the registers the programmer's IR uses, so the VM
   path reports byte-identically to the IR path. *)
let decode_phis e ~orig_regs b =
  let phis = b.b_phis in
  let edges = Hashtbl.create (max 4 (List.length phis)) in
  (* union of incoming labels across all phis of the block *)
  List.iter
    (fun p ->
      List.iter
        (fun (lbl, _) ->
          if not (Hashtbl.mem edges lbl) then Hashtbl.replace edges lbl [||])
        p.phi_incoming)
    phis;
  Hashtbl.iter
    (fun lbl _ ->
      let copy =
        Array.of_list
          (List.mapi
             (fun i p ->
               match List.assoc_opt lbl p.phi_incoming with
               | None ->
                 PE_bad
                   (Printf.sprintf "phi %%%d in %s lacks incoming for %s" orig_regs.(i)
                      b.b_label lbl)
               | Some op ->
                 if is_float_typ p.phi_typ then PE_f (p.phi_reg, decode_fop e op)
                 else PE_i (p.phi_reg, decode_iop e op))
             phis)
      in
      Hashtbl.replace edges lbl copy)
    (Hashtbl.copy edges);
  edges

(* --- register renaming --------------------------------------------------- *)

(* Rewrite every register of [f] through [map] (total over
   [0, f_next_reg)). The renamed function is what gets decoded, under
   either executor, so every downstream consumer — operand evaluation, phi
   staging, call-argument binding, return deposit — works on dense
   physical indices with no per-access indirection and no further
   changes. Renaming is sound against the engine's evaluation order
   because the allocator only merges registers whose live ranges are
   disjoint, and every per-lane loop reads its operands before writing
   its destination. *)
let remap_inst_def m i =
  match i with
  | Binop (r, op, a, b) -> Binop (m r, op, a, b)
  | Unop (r, op, a) -> Unop (m r, op, a)
  | Icmp (r, op, a, b) -> Icmp (m r, op, a, b)
  | Fcmp (r, op, a, b) -> Fcmp (m r, op, a, b)
  | Select (r, ty, c, t, f) -> Select (m r, ty, c, t, f)
  | Load (r, t, addr) -> Load (m r, t, addr)
  | Ptradd (r, a, b) -> Ptradd (m r, a, b)
  | Alloca (r, sz) -> Alloca (m r, sz)
  | Intrinsic (r, intr) -> Intrinsic (m r, intr)
  | Malloc (r, sz) -> Malloc (m r, sz)
  | Call (d, callee, args) -> Call (Option.map m d, callee, args)
  | Call_indirect (d, rt, callee, args) ->
    Call_indirect (Option.map m d, rt, callee, args)
  | Atomic (d, op, t, addr, ops) -> Atomic (Option.map m d, op, t, addr, ops)
  | Store _ | Barrier _ | Assume _ | Trap _ | Free _ | Debug_print _ -> i

let remap_func (map : int array) (f : func) : func =
  let m r = map.(r) in
  let mop = function Reg r -> Reg (m r) | op -> op in
  let blocks =
    List.map
      (fun b ->
        { b with
          b_phis =
            List.map
              (fun p -> map_phi_operands mop { p with phi_reg = m p.phi_reg })
              b.b_phis;
          b_insts =
            List.map (fun i -> remap_inst_def m (map_inst_operands mop i)) b.b_insts;
          b_term = map_term_operands mop b.b_term })
      f.f_blocks
  in
  { f with
    f_params = List.map (fun (r, t) -> (m r, t)) f.f_params;
    f_blocks = blocks }

(* --- operand evaluation ------------------------------------------------ *)

let gaddr e g =
  match Hashtbl.find_opt e.e_gaddr g with
  | Some a -> a
  | None -> fault "unknown global @%s" g

let fidx e f =
  match Hashtbl.find_opt e.e_fidx f with
  | Some i -> i
  | None -> fault "unknown function &%s" f

(* AST-operand evaluation, kept for the dynamic (indirect-call) path *)
let eval_i e (fr : frame) lane = function
  | Reg r -> fr.fr_ints.((r * fr.fr_ws) + lane)
  | Imm_int (v, _) -> Int64.to_int v
  | Imm_float _ -> fault "float immediate in integer context"
  | Global_addr g -> gaddr e g
  | Func_addr f -> fidx e f
  | Undef _ -> 0

let eval_f _e (fr : frame) lane = function
  | Reg r -> fr.fr_floats.((r * fr.fr_ws) + lane)
  | Imm_float x -> x
  | Imm_int (v, _) -> Int64.to_float v
  | Undef _ -> 0.0
  | Global_addr _ | Func_addr _ -> fault "address in float context"

(* decoded-operand evaluation: the hot path *)
let[@inline] ieval (fr : frame) lane = function
  | IReg r -> fr.fr_ints.((r * fr.fr_ws) + lane)
  | IConst v -> v
  | IBad msg -> fault "%s" msg

let[@inline] feval (fr : frame) lane = function
  | FReg r -> fr.fr_floats.((r * fr.fr_ws) + lane)
  | FConst v -> v
  | FBad msg -> fault "%s" msg

(* NOTE: this compiler is non-flambda, so [feval] is a real call whose
   float result is boxed on every lane. The per-lane loops below therefore
   spell the operand match out inline — keep them in sync with [feval]. *)

let[@inline] um (m : bool array) i = Array.unsafe_get m i

let rec first_active (mask : bool array) n i =
  if i >= n then -1 else if um mask i then i else first_active mask n (i + 1)

let rec last_active (mask : bool array) i =
  if i < 0 then -1 else if um mask i then i else last_active mask (i - 1)

(* Bit-identical float equality without boxing: IEEE equality plus a
   signed-zero check (sqrt(-0.) is -0., not 0., so a -0./+0. mix must not
   scalarize). NaN compares unequal to itself and therefore falls back to
   the always-correct per-lane path. *)
let[@inline] fsame a b = a = b && (a <> 0.0 || 1.0 /. a = 1.0 /. b)

(* write [v] into row [base] for every active lane *)
let broadcast_i (regs : int array) (mask : bool array) base v =
  for lane = 0 to Array.length mask - 1 do
    if um mask lane then regs.(base + lane) <- v
  done

(* --- cost helpers ------------------------------------------------------ *)

let charge tc n = tc.tc_counters.cycles <- tc.tc_counters.cycles + n

let rec seg_seen (segs : int array) nsegs seg i =
  i < nsegs && (Array.unsafe_get segs i = seg || seg_seen segs nsegs seg (i + 1))

(* Global-memory coalescing over the per-lane addresses staged in
   [e.e_addr], decoding each pointer once into [e.e_space]/[e.e_off] for
   the access loop to reuse. Lanes are visited in DESCENDING order: the
   list-based implementation this replaces consed addresses up in lane
   order and then charged over the reversed list, so the fault order for
   multiple bad pointers (and the counter updates) ran high-lane-first
   and must stay that way. *)
let charge_mem_lanes e tc (mask : bool array) n =
  let p = e.e_params in
  let sa0 = tc.tc_counters.shared_accesses in
  let nsegs = ref 0 in
  for lane = n - 1 downto 0 do
    if um mask lane then begin
      let a = e.e_addr.(lane) in
      let space = Memory.decode_space a in
      e.e_space.(lane) <- space;
      e.e_off.(lane) <- Memory.decode_off a;
      match space with
      | Global | Constant ->
        let seg = e.e_off.(lane) / p.segment_bytes in
        if not (seg_seen e.e_segs !nsegs seg 0) then begin
          e.e_segs.(!nsegs) <- seg;
          incr nsegs
        end
      | Shared ->
        tc.tc_counters.shared_accesses <- tc.tc_counters.shared_accesses + 1
      | Local ->
        tc.tc_counters.local_accesses <- tc.tc_counters.local_accesses + 1
    end
  done;
  let nsegs = !nsegs in
  tc.tc_counters.global_transactions <- tc.tc_counters.global_transactions + nsegs;
  charge tc (nsegs * p.c_global_segment);
  let shared = tc.tc_counters.shared_accesses > sa0 in
  if shared then charge tc p.c_shared_access;
  if nsegs = 0 && not shared then charge tc p.c_local_access (* stack / L1 *)

(* Charge a scalarized uniform-address access exactly as [charge_mem_lanes]
   would have charged [active] identical per-lane accesses: one global
   segment, or [active] shared accesses. (Local space never scalarizes.) *)
let charge_mem_uniform e tc ~space ~active =
  let p = e.e_params in
  match space with
  | Global | Constant ->
    tc.tc_counters.global_transactions <- tc.tc_counters.global_transactions + 1;
    charge tc p.c_global_segment
  | Shared ->
    tc.tc_counters.shared_accesses <- tc.tc_counters.shared_accesses + active;
    charge tc p.c_shared_access
  | Local -> assert false

(* Evaluate [addr] for every active lane into [e.e_addr]; returns true
   when all active lanes agree. Precondition: [l0] is the first active
   lane. *)
let fill_addrs e fr (mask : bool array) n addr l0 =
  let a0 = ieval fr l0 addr in
  e.e_addr.(l0) <- a0;
  let uni = ref true in
  for lane = l0 + 1 to n - 1 do
    if um mask lane then begin
      let a = ieval fr lane addr in
      e.e_addr.(lane) <- a;
      if a <> a0 then uni := false
    end
  done;
  !uni

(* --- threaded-code compilation (Exec_vm) -------------------------------- *)

(* Shared issue prologue: instruction counters, fault-site stamp, issue
   budget. This must stay byte-identical between the interpreter
   ([exec_dinst]) and every compiled closure — factoring it here is what
   lets the two executors share one observable cost/fault model. *)
let[@inline] issue e tc (st : strand) (slot : slot) =
  tc.tc_counters.warp_instructions <- tc.tc_counters.warp_instructions + 1;
  tc.tc_counters.lane_instructions <- tc.tc_counters.lane_instructions + st.st_active;
  Fault.set_site e.e_fctx ~fn:slot.sl_frame.fr_info.fi_func.f_name ~blk:slot.sl_blk
    ~idx:slot.sl_idx;
  Fault.set_strand e.e_fctx ~team:tc.tc_team ~warp:st.st_warp ~mask:st.st_mask;
  e.e_budget <- e.e_budget - 1;
  if e.e_budget <= 0 then
    Fault.fail Fault.Budget_exhausted "instruction budget exceeded (runaway kernel?)"

(* The compiled stream falls back to the interpreter for every operation
   with nontrivial semantics (memory, control, calls, barriers, atomics,
   faulting arithmetic, malformed operands): same code path, same
   charges, same faults. [exec_dinst] is defined further down — forward-
   reference it through a ref tied right after its definition. *)
let exec_fallback :
    (engine -> team_ctx -> strand -> slot -> dinst -> [ `Continue | `Suspend ]) ref =
  ref (fun _ _ _ _ _ -> assert false)

(* Non-faulting integer binops specialize to a small tag applied by a
   direct call inside the per-lane loop; the interpreter pays a generic
   closure application (caml_apply2 on this non-flambda compiler) per
   lane. Faulting ops (division by zero) keep the interpreter's closures
   so fault sites and messages cannot drift. *)
type ibk =
  | KAdd | KSub | KMul | KAnd | KOr | KXor | KShl | KAshr | KLshr | KSmin | KSmax

let ibk_of : binop -> ibk option = function
  | Add -> Some KAdd
  | Sub -> Some KSub
  | Mul -> Some KMul
  | And -> Some KAnd
  | Or -> Some KOr
  | Xor -> Some KXor
  | Shl -> Some KShl
  | Ashr -> Some KAshr
  | Lshr -> Some KLshr
  | Smin -> Some KSmin
  | Smax -> Some KSmax
  | Sdiv | Srem | Udiv | Urem | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax -> None

(* results bit-identical to [ibinop_fn]'s closures; min/max are spelled
   out so the specialized path never calls the polymorphic compare *)
let[@inline] ibk_apply k a b =
  match k with
  | KAdd -> a + b
  | KSub -> a - b
  | KMul -> a * b
  | KAnd -> a land b
  | KOr -> a lor b
  | KXor -> a lxor b
  | KShl -> a lsl (b land 62)
  | KAshr -> a asr (b land 62)
  | KLshr -> (a lsr (b land 62)) land max_int
  | KSmin -> if a <= b then a else b
  | KSmax -> if a >= b then a else b

type ick = KEq | KNe | KSlt | KSle | KSgt | KSge | KUlt | KUle | KUgt | KUge

let ick_of : icmp -> ick = function
  | Eq -> KEq
  | Ne -> KNe
  | Slt -> KSlt
  | Sle -> KSle
  | Sgt -> KSgt
  | Sge -> KSge
  | Ult -> KUlt
  | Ule -> KUle
  | Ugt -> KUgt
  | Uge -> KUge

let[@inline] ick_apply k a b =
  match k with
  | KEq -> a = b
  | KNe -> a <> b
  | KSlt -> a < b
  | KSle -> a <= b
  | KSgt -> a > b
  | KSge -> a >= b
  | KUlt -> icmp_ult a b
  | KUle -> a = b || icmp_ult a b
  | KUgt -> icmp_ult b a
  | KUge -> a = b || icmp_ult b a

(* Compile one decoded instruction into a closure. [ir] is the (renamed)
   IR instruction the [dinst] was decoded from — needed to recover the
   binop/icmp kind hidden inside the interpreter's opaque closures.
   Specialized: non-faulting int ALU, int compares, int unops,
   int-to-float, each with register/constant operand shapes hoisted out
   of the lane loop. Everything else runs through the interpreter. *)
let compile_dinst (ir : inst) (di : dinst) : code =
  let fallback e tc st slot = !exec_fallback e tc st slot di in
  let prologue e tc st slot =
    issue e tc st slot;
    tc.tc_counters.cycles <- tc.tc_counters.cycles + e.e_params.c_alu
  in
  match di with
  | D_ibin (r, _, a, b) -> (
    let k =
      match ir with
      | Binop (_, op, _, _) -> ibk_of op
      | Ptradd _ -> Some KAdd (* decodes to [( + )] *)
      | _ -> None
    in
    match (k, a, b) with
    | None, _, _ | _, IBad _, _ | _, _, IBad _ -> fallback
    | Some k, IReg ra, IReg rb ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and abase = ra * ws and bbase = rb * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <- ibk_apply k regs.(abase + lane) regs.(bbase + lane)
        done;
        `Continue
    | Some k, IReg ra, IConst y ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and abase = ra * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <- ibk_apply k regs.(abase + lane) y
        done;
        `Continue
    | Some k, IConst x, IReg rb ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and bbase = rb * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <- ibk_apply k x regs.(bbase + lane)
        done;
        `Continue
    | Some k, IConst x, IConst y ->
      (* non-faulting, so folding at compile time matches the
         interpreter's broadcast (and its empty-mask no-op) exactly *)
      let v = ibk_apply k x y in
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let regs = fr.fr_ints in
        let dbase = r * fr.fr_ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then regs.(dbase + lane) <- v
        done;
        `Continue)
  | D_icmp (r, _, a, b) -> (
    let k = match ir with Icmp (_, op, _, _) -> Some (ick_of op) | _ -> None in
    match (k, a, b) with
    | None, _, _ | _, IBad _, _ | _, _, IBad _ -> fallback
    | Some k, IReg ra, IReg rb ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and abase = ra * ws and bbase = rb * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <-
              (if ick_apply k regs.(abase + lane) regs.(bbase + lane) then 1 else 0)
        done;
        `Continue
    | Some k, IReg ra, IConst y ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and abase = ra * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <-
              (if ick_apply k regs.(abase + lane) y then 1 else 0)
        done;
        `Continue
    | Some k, IConst x, IReg rb ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and bbase = rb * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            regs.(dbase + lane) <-
              (if ick_apply k x regs.(bbase + lane) then 1 else 0)
        done;
        `Continue
    | Some k, IConst x, IConst y ->
      let v = if ick_apply k x y then 1 else 0 in
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let regs = fr.fr_ints in
        let dbase = r * fr.fr_ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then regs.(dbase + lane) <- v
        done;
        `Continue)
  | D_un_i (r, _, a) -> (
    (* the two int unop kinds the decoder emits: Not and the 32-bit mask *)
    let k =
      match ir with
      | Unop (_, Not, _) -> Some `Not
      | Unop (_, (Zext32to64 | Trunc64to32), _) -> Some `Mask32
      | _ -> None
    in
    match (k, a) with
    | None, _ | _, IBad _ -> fallback
    | Some k, IReg ra ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let regs = fr.fr_ints in
        let dbase = r * ws and abase = ra * ws in
        (match k with
        | `Not ->
          for lane = 0 to Array.length mask - 1 do
            if um mask lane then regs.(dbase + lane) <- lnot regs.(abase + lane)
          done
        | `Mask32 ->
          for lane = 0 to Array.length mask - 1 do
            if um mask lane then
              regs.(dbase + lane) <- regs.(abase + lane) land 0xFFFFFFFF
          done);
        `Continue
    | Some k, IConst x ->
      let v = match k with `Not -> lnot x | `Mask32 -> x land 0xFFFFFFFF in
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let regs = fr.fr_ints in
        let dbase = r * fr.fr_ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then regs.(dbase + lane) <- v
        done;
        `Continue)
  | D_i2f (r, a) -> (
    match a with
    | IBad _ -> fallback
    | IReg ra ->
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let ws = fr.fr_ws in
        let dbase = r * ws and abase = ra * ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then
            fr.fr_floats.(dbase + lane) <- float_of_int fr.fr_ints.(abase + lane)
        done;
        `Continue
    | IConst x ->
      let v = float_of_int x in
      fun e tc st slot ->
        prologue e tc st slot;
        let fr = slot.sl_frame in
        let mask = st.st_mask in
        let dbase = r * fr.fr_ws in
        for lane = 0 to Array.length mask - 1 do
          if um mask lane then fr.fr_floats.(dbase + lane) <- v
        done;
        `Continue)
  | _ -> fallback

let compile_insts irs (dis : dinst array) : code array =
  let irs = Array.of_list irs in
  Array.init (Array.length dis) (fun i -> compile_dinst irs.(i) dis.(i))

(* --- per-function decode ------------------------------------------------ *)

let make_fn_info e f =
  (* A backend register plan renames the function's virtual registers to
     dense physical indices *before* decoding: the decoded stream carries
     physical indices everywhere, the frame shrinks to [rp_nregs] rows,
     and both executors run over it. Fault messages keep the original
     register numbers (the [~orig_regs]/[cb_first_phi] plumbing), so they
     read the same with or without a plan. *)
  let plan = Hashtbl.find_opt e.e_plan f.f_name in
  let df = match plan with Some p -> remap_func p.rp_map f | None -> f in
  let nregs =
    match plan with Some p -> max p.rp_nregs 1 | None -> max f.f_next_reg 1
  in
  let blocks = Hashtbl.create 16 in
  List.iter2
    (fun (ob : block) (b : block) ->
      let nphis = List.length b.b_phis in
      let insts = Array.of_list (List.map (decode_inst e) b.b_insts) in
      Hashtbl.replace blocks b.b_label
        { cb_insts = insts;
          cb_code =
            (match e.e_exec with
            | Exec_vm -> compile_insts b.b_insts insts
            | Exec_ir -> [||]);
          cb_term = decode_term e df b.b_term;
          cb_nphis = nphis;
          cb_first_phi = (match ob.b_phis with p :: _ -> p.phi_reg | [] -> 0);
          cb_edges =
            decode_phis e
              ~orig_regs:(Array.of_list (List.map (fun p -> p.phi_reg) ob.b_phis))
              b;
          cb_ti = Array.make nphis 0;
          cb_tf = Array.make nphis 0.0;
          cb_hits = 0; cb_wi = 0; cb_cyc = 0 })
    f.f_blocks df.f_blocks;
  let cfg = Cfg.of_func df in
  let pdom = Dominance.post_dominators cfg in
  let reconv = Hashtbl.create 16 in
  List.iter
    (fun b ->
      Hashtbl.replace reconv b.b_label (Dominance.reconvergence_point pdom b.b_label))
    df.f_blocks;
  { fi_func = df; fi_nregs = nregs; fi_blocks = blocks; fi_reconv = reconv;
    fi_pool = [] }

let fn_info e name =
  match Hashtbl.find e.e_fn_infos name with
  | fi -> fi
  | exception Not_found ->
    let f = find_func_exn e.e_module name in
    let fi = make_fn_info e f in
    Hashtbl.replace e.e_fn_infos name fi;
    fi

(* --- strand management ------------------------------------------------- *)

let popcount mask = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 mask

(* Create a strand. If the strand materializes exactly at the
   reconvergence point of its innermost pending join (a merged strand can
   resume at a block that is simultaneously the rpc of an *outer* join —
   chains of loop-exit joins produce this), it arrives there immediately
   instead of executing past the join. *)
let rec new_strand tc ~warp ~mask ~stack ~joins =
  let s =
    { st_seq = tc.tc_next_seq; st_warp = warp; st_active = popcount mask;
      st_mask = mask; st_stack = stack; st_joins = joins; st_status = Run }
  in
  tc.tc_next_seq <- tc.tc_next_seq + 1;
  Svec.push tc.tc_strands s;
  (match (stack, joins) with
  | slot :: _, j :: _
    when j.j_frame = slot.sl_frame.fr_id && j.j_rpc = slot.sl_blk && slot.sl_idx = 0 ->
    arrive_join tc s j
  | _ -> ());
  s

(* Arrival of a strand at the join [j]; kills the strand and spawns the
   merged continuation when everyone has arrived. *)
and arrive_join tc st (j : join) =
  let n = Array.length st.st_mask in
  for lane = 0 to n - 1 do
    if st.st_mask.(lane) then j.j_mask.(lane) <- true
  done;
  j.j_arrived <- j.j_arrived + 1;
  st.st_status <- Dead;
  if j.j_arrived = j.j_expected then
    ignore
      (new_strand tc ~warp:st.st_warp ~mask:(Array.copy j.j_mask)
         ~stack:(List.map copy_slot j.j_cont) ~joins:j.j_outer)

(* A fresh zero-filled frame; call frames are made this way and die with
   the call, as the GC sees them. *)
let fresh_frame tc fi ~warp_size =
  let n = fi.fi_nregs in
  let fr =
    { fr_info = fi; fr_ws = warp_size;
      fr_ints = Array.make (n * warp_size) 0;
      fr_floats = Array.make (n * warp_size) 0.0;
      fr_sp_save = Array.make warp_size 0;
      fr_id = tc.tc_next_frame }
  in
  tc.tc_next_frame <- tc.tc_next_frame + 1;
  fr

(* A kernel-entry frame (one per warp of a team): from the kernel's pool
   when one is free, zero-filled so it reads exactly like a fresh one.
   Each one handed out is recorded in [e_frames] for [release_frames], so
   the pool never holds more than one team's warps. *)
let entry_frame tc e fname ~warp_size =
  let fi = fn_info e fname in
  let fr =
    match fi.fi_pool with
    | fr :: rest when fr.fr_ws = warp_size ->
      fi.fi_pool <- rest;
      Array.fill fr.fr_ints 0 (Array.length fr.fr_ints) 0;
      Array.fill fr.fr_floats 0 (Array.length fr.fr_floats) 0.0;
      Array.fill fr.fr_sp_save 0 warp_size 0;
      fr.fr_id <- tc.tc_next_frame;
      tc.tc_next_frame <- tc.tc_next_frame + 1;
      fr
    | _ -> fresh_frame tc fi ~warp_size
  in
  Svec.push e.e_frames fr;
  fr

(* End of a team: no strand, slot or join of it survives, so every entry
   frame it was handed goes back to the kernel's pool. *)
let release_frames e =
  Svec.iter (fun fr -> fr.fr_info.fi_pool <- fr :: fr.fr_info.fi_pool) e.e_frames;
  Svec.clear e.e_frames

(* global thread id of a lane in this warp within the team *)
let lane_tid tc st lane = (st.st_warp * tc.tc_warp_size) + lane

(* Evaluate the phi nodes of [to_blk] for the lanes in [mask], coming from
   [from_blk]; parallel-copy semantics via the per-block staging scratch
   (all reads of a lane happen before any write of that lane; decoded
   operands only read registers, so per-lane staging is equivalent to the
   per-phi staging it replaces, without the per-edge array allocations). *)
let eval_phis (fr : frame) ~mask ~from_blk ~to_blk =
  match Hashtbl.find fr.fr_info.fi_blocks to_blk with
  | exception Not_found -> fault "edge to unknown block %s" to_blk
  | cb ->
    if cb.cb_nphis > 0 then begin
      let copy =
        match Hashtbl.find cb.cb_edges from_blk with
        | c -> c
        | exception Not_found ->
          fault "phi %%%d in %s lacks incoming for %s" cb.cb_first_phi to_blk from_blk
      in
      let np = Array.length copy in
      let n = Array.length mask in
      let ws = fr.fr_ws in
      for lane = 0 to n - 1 do
        if um mask lane then begin
          for i = 0 to np - 1 do
            match Array.unsafe_get copy i with
            | PE_i (_, op) -> cb.cb_ti.(i) <- ieval fr lane op
            | PE_f (_, op) ->
              cb.cb_tf.(i) <-
                (match op with
                | FReg r -> fr.fr_floats.((r * ws) + lane)
                | FConst v -> v
                | FBad msg -> fault "%s" msg)
            | PE_bad msg -> fault "%s" msg
          done;
          for i = 0 to np - 1 do
            match Array.unsafe_get copy i with
            | PE_i (r, _) -> fr.fr_ints.((r * ws) + lane) <- cb.cb_ti.(i)
            | PE_f (r, _) -> fr.fr_floats.((r * ws) + lane) <- cb.cb_tf.(i)
            | PE_bad _ -> ()
          done
        end
      done
    end

(* Transfer the strand's top slot to [to_blk] (uniform within the strand),
   handling phis and join arrival. *)
let transfer tc st slot ~to_blk =
  eval_phis slot.sl_frame ~mask:st.st_mask ~from_blk:slot.sl_blk ~to_blk;
  match st.st_joins with
  | j :: _ when j.j_frame = slot.sl_frame.fr_id && j.j_rpc = to_blk ->
    arrive_join tc st j
  | _ ->
    slot.sl_blk <- to_blk;
    slot.sl_idx <- 0

(* Split a strand into groups (label, mask) diverging at [slot.sl_blk]. *)
let diverge tc st slot groups =
  tc.tc_counters.divergent_branches <- tc.tc_counters.divergent_branches + 1;
  let from_blk = slot.sl_blk in
  let reconv =
    match Hashtbl.find_opt slot.sl_frame.fr_info.fi_reconv from_blk with
    | Some r -> r
    | None -> None
  in
  (* evaluate the phis of every target for that edge's lanes first *)
  List.iter
    (fun (lbl, mask) -> eval_phis slot.sl_frame ~mask ~from_blk ~to_blk:lbl)
    groups;
  (match reconv with
  | Some rpc ->
    let cont =
      List.map copy_slot st.st_stack
      |> function
      | top :: rest ->
        top.sl_blk <- rpc;
        top.sl_idx <- 0;
        top :: rest
      | [] -> assert false
    in
    let j =
      { j_id = tc.tc_next_join; j_frame = slot.sl_frame.fr_id; j_rpc = rpc;
        j_expected = List.length groups; j_arrived = 0;
        j_mask = Array.make (Array.length st.st_mask) false; j_cont = cont;
        j_outer = st.st_joins }
    in
    tc.tc_next_join <- tc.tc_next_join + 1;
    List.iter
      (fun (lbl, mask) ->
        (* a child whose target is the rpc itself arrives instantly —
           new_strand detects and handles that *)
        let child_slot = copy_slot slot in
        child_slot.sl_blk <- lbl;
        child_slot.sl_idx <- 0;
        ignore
          (new_strand tc ~warp:st.st_warp ~mask ~stack:[ child_slot ]
             ~joins:(j :: st.st_joins)))
      groups
  | None -> (
    match st.st_stack with
    | _ :: (_ :: _ as caller_stack) ->
      (* every path returns from this function: reconverge at the call's
         continuation in the caller, like hardware does *)
      let j =
        { j_id = tc.tc_next_join; j_frame = slot.sl_frame.fr_id; j_rpc = ret_marker;
          j_expected = List.length groups; j_arrived = 0;
          j_mask = Array.make (Array.length st.st_mask) false;
          j_cont = List.map copy_slot caller_stack; j_outer = st.st_joins }
      in
      tc.tc_next_join <- tc.tc_next_join + 1;
      List.iter
        (fun (lbl, mask) ->
          let child_slot = copy_slot slot in
          child_slot.sl_blk <- lbl;
          child_slot.sl_idx <- 0;
          ignore
            (new_strand tc ~warp:st.st_warp ~mask ~stack:[ child_slot ]
               ~joins:(j :: st.st_joins)))
        groups
    | _ ->
      (* kernel frame: no reconvergence before kernel exit — children run
         independently; every outer join now expects one extra arrival per
         additional child *)
      let extra = List.length groups - 1 in
      List.iter (fun j -> j.j_expected <- j.j_expected + extra) st.st_joins;
      List.iter
        (fun (lbl, mask) ->
          let stack = List.map copy_slot st.st_stack in
          (match stack with
          | top :: _ ->
            top.sl_blk <- lbl;
            top.sl_idx <- 0
          | [] -> assert false);
          ignore (new_strand tc ~warp:st.st_warp ~mask ~stack ~joins:st.st_joins))
        groups));
  st.st_status <- Dead

(* --- ret handling ------------------------------------------------------- *)

type rval = R_none | R_i of iop | R_f of fop

let do_ret e tc st slot rv =
  charge tc e.e_params.c_ret;
  let fr = slot.sl_frame in
  let mask = st.st_mask in
  let n = Array.length mask in
  (* a pending return-reconvergence join for this frame? *)
  let ret_join =
    match st.st_joins with
    | j :: _ when j.j_frame = fr.fr_id && j.j_rpc = ret_marker -> Some j
    | _ -> None
  in
  (match st.st_joins with
  | j :: _ when j.j_frame = fr.fr_id && j.j_rpc <> ret_marker ->
    fault "ret in %s before reconvergence at %s" fr.fr_info.fi_func.f_name j.j_rpc
  | _ -> ());
  (* restore the per-lane local stack pointers *)
  for lane = 0 to n - 1 do
    if um mask lane then
      Memory.set_local_sp e.e_mem ~thread:(lane_tid tc st lane) fr.fr_sp_save.(lane)
  done;
  (* deposit the return value into the caller's frame *)
  let deposit (caller : slot) =
    match (slot.sl_ret_dst, rv) with
    | Some (dst, false), R_i op ->
      let cfr = caller.sl_frame in
      let base = dst * cfr.fr_ws in
      for lane = 0 to n - 1 do
        if um mask lane then cfr.fr_ints.(base + lane) <- ieval fr lane op
      done
    | Some (dst, true), R_f op ->
      let cfr = caller.sl_frame in
      let base = dst * cfr.fr_ws in
      let ws = fr.fr_ws in
      for lane = 0 to n - 1 do
        if um mask lane then
          cfr.fr_floats.(base + lane) <-
            (match op with
            | FReg r -> fr.fr_floats.((r * ws) + lane)
            | FConst v -> v
            | FBad msg -> fault "%s" msg)
      done
    | Some _, R_none ->
      fault "function %s returns no value but caller expects one"
        fr.fr_info.fi_func.f_name
    | None, _ -> ()
    | Some _, _ ->
      (* decode derives both sides from the callee's f_ret; they can't
         disagree *)
      assert false
  in
  match ret_join with
  | Some j ->
    (match j.j_cont with caller :: _ -> deposit caller | [] -> ());
    arrive_join tc st j
  | None -> (
    match st.st_stack with
    | [] -> assert false
    | [ _ ] ->
      (* kernel-level return: these lanes are done *)
      for lane = 0 to n - 1 do
        if um mask lane then tc.tc_done.(lane_tid tc st lane) <- true
      done;
      st.st_status <- Dead
    | _ :: (caller :: _ as rest) ->
      deposit caller;
      st.st_stack <- rest)

(* --- instruction execution --------------------------------------------- *)

(* Execute one instruction for a strand. Returns [`Continue] to proceed to
   the next instruction, [`Suspend] when the strand suspended (barrier) or
   changed shape (call/death). *)
let rec exec_dinst e tc (st : strand) (slot : slot) (di : dinst) :
    [ `Continue | `Suspend ] =
  let p = e.e_params in
  let fr = slot.sl_frame in
  let mask = st.st_mask in
  let n = Array.length mask in
  let ws = fr.fr_ws in
  issue e tc st slot;
  match di with
  | D_ibin (r, f, a, b) ->
    charge tc p.c_alu;
    let base = r * ws in
    (match (a, b) with
    | IConst x, IConst y when st.st_active > 0 ->
      (* constant-constant: evaluate once, broadcast (division by zero
         still faults here, exactly as the first active lane would) *)
      let v = f x y in
      for lane = 0 to n - 1 do
        if um mask lane then fr.fr_ints.(base + lane) <- v
      done
    | _ ->
      for lane = 0 to n - 1 do
        if um mask lane then
          fr.fr_ints.(base + lane) <- f (ieval fr lane a) (ieval fr lane b)
      done);
    `Continue
  | D_fbin (r, k, a, b) ->
    charge tc p.c_falu;
    let base = r * ws in
    (match (a, b) with
    | FConst x, FConst y when st.st_active > 0 ->
      let v = fbin_apply k x y in
      for lane = 0 to n - 1 do
        if um mask lane then fr.fr_floats.(base + lane) <- v
      done
    | _ ->
      for lane = 0 to n - 1 do
        if um mask lane then begin
          let x =
            match a with
            | FReg r -> fr.fr_floats.((r * ws) + lane)
            | FConst v -> v
            | FBad msg -> fault "%s" msg
          and y =
            match b with
            | FReg r -> fr.fr_floats.((r * ws) + lane)
            | FConst v -> v
            | FBad msg -> fault "%s" msg
          in
          fr.fr_floats.(base + lane) <-
            (match k with
            | KFadd -> x +. y
            | KFsub -> x -. y
            | KFmul -> x *. y
            | KFdiv -> x /. y
            | KFmin -> if x <= y then x else y
            | KFmax -> if x >= y then x else y)
        end
      done);
    `Continue
  | D_icmp (r, f, a, b) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then
        fr.fr_ints.(base + lane) <- (if f (ieval fr lane a) (ieval fr lane b) then 1 else 0)
    done;
    `Continue
  | D_fcmp (r, k, a, b) ->
    charge tc p.c_falu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let x =
          match a with
          | FReg r -> fr.fr_floats.((r * ws) + lane)
          | FConst v -> v
          | FBad msg -> fault "%s" msg
        and y =
          match b with
          | FReg r -> fr.fr_floats.((r * ws) + lane)
          | FConst v -> v
          | FBad msg -> fault "%s" msg
        in
        fr.fr_ints.(base + lane) <-
          (if
             match k with
             | Feq -> x = y
             | Fne -> x <> y
             | Flt -> x < y
             | Fle -> x <= y
             | Fgt -> x > y
             | Fge -> x >= y
           then 1
           else 0)
      end
    done;
    `Continue
  | D_un_i (r, f, a) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then fr.fr_ints.(base + lane) <- f (ieval fr lane a)
    done;
    `Continue
  | D_un_f (r, special, cost, k, a) ->
    charge tc cost;
    let base = r * ws in
    (* uniform-strand scalarization of SFU ops: one evaluation instead of
       [active] when the operand is bit-identical across active lanes *)
    let uniform =
      special && st.st_active > 0
      &&
      match a with
      | FConst _ -> true
      | FReg reg ->
        let sbase = reg * ws in
        let l0 = first_active mask n 0 in
        let v0 = fr.fr_floats.(sbase + l0) in
        let uni = ref true in
        for lane = l0 + 1 to n - 1 do
          if um mask lane && not (fsame fr.fr_floats.(sbase + lane) v0) then uni := false
        done;
        !uni
      | FBad msg -> fault "%s" msg
    in
    if uniform then begin
      let v =
        match a with
        | FReg reg -> fun_apply k fr.fr_floats.((reg * ws) + first_active mask n 0)
        | FConst v -> fun_apply k v
        | FBad _ -> assert false
      in
      for lane = 0 to n - 1 do
        if um mask lane then fr.fr_floats.(base + lane) <- v
      done
    end
    else
      for lane = 0 to n - 1 do
        if um mask lane then begin
          let x =
            match a with
            | FReg r -> fr.fr_floats.((r * ws) + lane)
            | FConst v -> v
            | FBad msg -> fault "%s" msg
          in
          fr.fr_floats.(base + lane) <-
            (match k with
            | KFneg -> -.x
            | KFabs -> Float.abs x
            | KFsqrt -> sqrt x
            | KFexp -> exp x
            | KFlog -> log x
            | KFsin -> sin x
            | KFcos -> cos x)
        end
      done;
    `Continue
  | D_i2f (r, a) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then fr.fr_floats.(base + lane) <- float_of_int (ieval fr lane a)
    done;
    `Continue
  | D_f2i (r, a) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then
        fr.fr_ints.(base + lane) <-
          int_of_float
            (match a with
            | FReg r -> fr.fr_floats.((r * ws) + lane)
            | FConst v -> v
            | FBad msg -> fault "%s" msg)
    done;
    `Continue
  | D_sel_i (r, c, x, y) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then
        fr.fr_ints.(base + lane) <-
          (if ieval fr lane c <> 0 then ieval fr lane x else ieval fr lane y)
    done;
    `Continue
  | D_sel_f (r, c, x, y) ->
    charge tc p.c_alu;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let sel = if ieval fr lane c <> 0 then x else y in
        fr.fr_floats.(base + lane) <-
          (match sel with
          | FReg r -> fr.fr_floats.((r * ws) + lane)
          | FConst v -> v
          | FBad msg -> fault "%s" msg)
      end
    done;
    `Continue
  | D_load_i (r, ty, addr) ->
    let base = r * ws in
    let l0 = first_active mask n 0 in
    if l0 < 0 then charge tc p.c_local_access (* empty access set *)
    else begin
      let uni = fill_addrs e fr mask n addr l0 in
      let a0 = e.e_addr.(l0) in
      let space0 = Memory.decode_space a0 in
      if uni && e.e_fastmem && space0 <> Local then begin
        (* scalarized: one memory operation feeds every active lane *)
        charge_mem_uniform e tc ~space:space0 ~active:st.st_active;
        let v =
          Memory.fast_load_int e.e_mem ~thread:(lane_tid tc st l0) ~space:space0
            ~off:(Memory.decode_off a0) ~ptr:a0 ty
        in
        for lane = 0 to n - 1 do
          if um mask lane then fr.fr_ints.(base + lane) <- v
        done
      end
      else begin
        charge_mem_lanes e tc mask n;
        if e.e_fastmem then
          for lane = 0 to n - 1 do
            if um mask lane then
              fr.fr_ints.(base + lane) <-
                Memory.fast_load_int e.e_mem ~thread:(lane_tid tc st lane)
                  ~space:e.e_space.(lane) ~off:e.e_off.(lane) ~ptr:e.e_addr.(lane) ty
          done
        else
          for lane = 0 to n - 1 do
            if um mask lane then
              fr.fr_ints.(base + lane) <-
                Memory.load_int e.e_mem ~thread:(lane_tid tc st lane) e.e_addr.(lane) ty
          done
      end
    end;
    (match e.e_inject with
    | Some inj
      when Faultinject.fire inj Faultinject.Corrupt_load ~fn:fr.fr_info.fi_func.f_name
      ->
      (* perturb the value the first active lane just loaded *)
      if l0 >= 0 then
        fr.fr_ints.(base + l0) <- Faultinject.corrupt_int inj fr.fr_ints.(base + l0)
    | _ -> ());
    `Continue
  | D_load_f (r, addr) ->
    let base = r * ws in
    let l0 = first_active mask n 0 in
    if l0 < 0 then charge tc p.c_local_access
    else begin
      let uni = fill_addrs e fr mask n addr l0 in
      let a0 = e.e_addr.(l0) in
      let space0 = Memory.decode_space a0 in
      if uni && e.e_fastmem && space0 <> Local then begin
        charge_mem_uniform e tc ~space:space0 ~active:st.st_active;
        Memory.fast_load_float_at e.e_mem ~thread:(lane_tid tc st l0) ~space:space0
          ~off:(Memory.decode_off a0) ~ptr:a0 fr.fr_floats (base + l0);
        let v = fr.fr_floats.(base + l0) in
        for lane = 0 to n - 1 do
          if um mask lane then fr.fr_floats.(base + lane) <- v
        done
      end
      else begin
        charge_mem_lanes e tc mask n;
        if e.e_fastmem then
          for lane = 0 to n - 1 do
            if um mask lane then
              Memory.fast_load_float_at e.e_mem ~thread:(lane_tid tc st lane)
                ~space:e.e_space.(lane) ~off:e.e_off.(lane) ~ptr:e.e_addr.(lane)
                fr.fr_floats (base + lane)
          done
        else
          for lane = 0 to n - 1 do
            if um mask lane then
              fr.fr_floats.(base + lane) <-
                Memory.load_float e.e_mem ~thread:(lane_tid tc st lane) e.e_addr.(lane)
          done
      end
    end;
    (match e.e_inject with
    | Some inj
      when Faultinject.fire inj Faultinject.Corrupt_load ~fn:fr.fr_info.fi_func.f_name
      ->
      if l0 >= 0 then
        fr.fr_floats.(base + l0) <-
          Faultinject.corrupt_float inj fr.fr_floats.(base + l0)
    | _ -> ());
    `Continue
  | D_store_i (ty, v, addr) -> (
    match e.e_inject with
    | Some inj
      when Faultinject.fire inj Faultinject.Drop_store ~fn:fr.fr_info.fi_func.f_name ->
      `Continue (* the store silently never happens *)
    | _ ->
      let l0 = first_active mask n 0 in
      if l0 < 0 then charge tc p.c_local_access
      else begin
        let uni = fill_addrs e fr mask n addr l0 in
        let a0 = e.e_addr.(l0) in
        let space0 = Memory.decode_space a0 in
        if uni && e.e_fastmem && space0 <> Local then begin
          (* all lanes write the same cell in lane order; only the last
             active lane's value survives, so store exactly that once *)
          charge_mem_uniform e tc ~space:space0 ~active:st.st_active;
          let ll = last_active mask (n - 1) in
          Memory.fast_store_int e.e_mem ~thread:(lane_tid tc st ll) ~space:space0
            ~off:(Memory.decode_off a0) ~ptr:a0 ty (ieval fr ll v)
        end
        else begin
          charge_mem_lanes e tc mask n;
          if e.e_fastmem then
            for lane = 0 to n - 1 do
              if um mask lane then
                Memory.fast_store_int e.e_mem ~thread:(lane_tid tc st lane)
                  ~space:e.e_space.(lane) ~off:e.e_off.(lane) ~ptr:e.e_addr.(lane) ty
                  (ieval fr lane v)
            done
          else
            for lane = 0 to n - 1 do
              if um mask lane then
                Memory.store_int e.e_mem ~thread:(lane_tid tc st lane) e.e_addr.(lane)
                  ty (ieval fr lane v)
            done
        end
      end;
      `Continue)
  | D_store_f (v, addr) -> (
    match e.e_inject with
    | Some inj
      when Faultinject.fire inj Faultinject.Drop_store ~fn:fr.fr_info.fi_func.f_name ->
      `Continue
    | _ ->
      let l0 = first_active mask n 0 in
      if l0 < 0 then charge tc p.c_local_access
      else begin
        let uni = fill_addrs e fr mask n addr l0 in
        let a0 = e.e_addr.(l0) in
        let space0 = Memory.decode_space a0 in
        (if uni && e.e_fastmem && space0 <> Local then begin
           charge_mem_uniform e tc ~space:space0 ~active:st.st_active;
           let ll = last_active mask (n - 1) in
           let off0 = Memory.decode_off a0 in
           match v with
           | FReg rv ->
             Memory.fast_store_float_from e.e_mem ~thread:(lane_tid tc st ll)
               ~space:space0 ~off:off0 ~ptr:a0 fr.fr_floats ((rv * ws) + ll)
           | FConst c ->
             e.e_fscr.(0) <- c;
             Memory.fast_store_float_from e.e_mem ~thread:(lane_tid tc st ll)
               ~space:space0 ~off:off0 ~ptr:a0 e.e_fscr 0
           | FBad msg -> fault "%s" msg
         end
         else begin
           charge_mem_lanes e tc mask n;
           if e.e_fastmem then (
             match v with
             | FReg rv ->
               for lane = 0 to n - 1 do
                 if um mask lane then
                   Memory.fast_store_float_from e.e_mem ~thread:(lane_tid tc st lane)
                     ~space:e.e_space.(lane) ~off:e.e_off.(lane) ~ptr:e.e_addr.(lane)
                     fr.fr_floats ((rv * ws) + lane)
               done
             | FConst c ->
               e.e_fscr.(0) <- c;
               for lane = 0 to n - 1 do
                 if um mask lane then
                   Memory.fast_store_float_from e.e_mem ~thread:(lane_tid tc st lane)
                     ~space:e.e_space.(lane) ~off:e.e_off.(lane) ~ptr:e.e_addr.(lane)
                     e.e_fscr 0
               done
             | FBad msg -> fault "%s" msg)
           else
             for lane = 0 to n - 1 do
               if um mask lane then
                 Memory.store_float e.e_mem ~thread:(lane_tid tc st lane)
                   e.e_addr.(lane) (feval fr lane v)
             done
         end)
      end;
      `Continue)
  | D_alloca (r, size) ->
    charge tc p.c_alloca;
    let base = r * ws in
    for lane = 0 to n - 1 do
      if um mask lane then
        fr.fr_ints.(base + lane) <-
          Memory.alloca e.e_mem ~thread:(lane_tid tc st lane) size
    done;
    `Continue
  | D_intr (r, i) ->
    charge tc p.c_alu;
    let base = r * ws in
    (match i with
    | Thread_id ->
      for lane = 0 to n - 1 do
        if um mask lane then fr.fr_ints.(base + lane) <- lane_tid tc st lane
      done
    | Lane_id ->
      for lane = 0 to n - 1 do
        if um mask lane then
          fr.fr_ints.(base + lane) <- lane_tid tc st lane mod p.warp_size
      done
    (* launch-geometry intrinsics are lane-invariant: broadcast *)
    | Block_id -> broadcast_i fr.fr_ints mask base tc.tc_team
    | Block_dim -> broadcast_i fr.fr_ints mask base tc.tc_threads
    | Grid_dim -> broadcast_i fr.fr_ints mask base e.e_launch.l_teams
    | Warp_size -> broadcast_i fr.fr_ints mask base p.warp_size);
    `Continue
  | D_malloc (r, size) ->
    charge tc p.c_malloc;
    tc.tc_counters.mallocs <- tc.tc_counters.mallocs + 1;
    let base = r * ws in
    (match e.e_arena with
    | Some (abase, cap) ->
      (* bump within the team's pre-reserved arena window: addresses
         depend only on (team, allocation order), never on which other
         teams have run — required for domain-count bit-identity *)
      let limit = abase + ((tc.tc_team + 1) * cap) in
      for lane = 0 to n - 1 do
        if um mask lane then begin
          let sz = ieval fr lane size in
          let off = (e.e_arena_cur + 7) land lnot 7 in
          if sz < 0 || off + sz > limit then
            Fault.fail Fault.Oob
              "kernel malloc of %dB exhausts the team's %dB arena" sz cap;
          e.e_arena_cur <- off + sz;
          fr.fr_ints.(base + lane) <-
            Memory.mark_alloc e.e_mem Global ~offset:off ~size:sz
        end
      done
    | None -> Fault.fail Fault.Internal "kernel malloc without a reserved arena");
    `Continue
  | D_free ->
    charge tc p.c_alu;
    `Continue
  | D_assume o ->
    let forced =
      match e.e_inject with
      | Some inj ->
        Faultinject.fire inj Faultinject.Violate_assume ~fn:fr.fr_info.fi_func.f_name
      | None -> false
    in
    if e.e_launch.l_check_assumes then
      for lane = 0 to n - 1 do
        if um mask lane && (forced || ieval fr lane o = 0) then
          Fault.trap Fault.Assume_violation
            "assumption violated in %s at %s:%d (thread %d)%s"
            fr.fr_info.fi_func.f_name slot.sl_blk slot.sl_idx (lane_tid tc st lane)
            (if forced then " [injected]" else "")
      done;
    `Continue
  | D_trap msg -> Fault.trap Fault.Trap "%s" msg
  | D_debug (msg, ops) ->
    if e.e_launch.l_debug then begin
      let l = first_active mask n 0 in
      if l >= 0 then
        Fmt.epr "[vgpu team %d thread %d] %s %a@." tc.tc_team (lane_tid tc st l) msg
          (Fmt.list ~sep:Fmt.sp Fmt.int)
          (List.map (ieval fr l) ops)
    end;
    `Continue
  | D_atomic_i (dst, op, ty, addr, ops) ->
    let global = ref false in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let a = ieval fr lane addr in
        e.e_addr.(lane) <- a;
        if not !global && Memory.decode_space a = Global then global := true
      end
    done;
    let global = !global in
    charge tc (if global then p.c_atomic_global else p.c_atomic_shared);
    tc.tc_counters.atomics <- tc.tc_counters.atomics + 1;
    (* the RMW below is a plain load/store pair; tell the sanitizer these
       accesses are one indivisible atomic operation *)
    (match e.e_san with Some s -> Sanitizer.set_atomic s true | None -> ());
    (* lanes perform the RMW sequentially in lane order *)
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let tid = lane_tid tc st lane in
        let a = e.e_addr.(lane) in
        let old = Memory.load_int e.e_mem ~thread:tid a ty in
        (match dst with
        | Some r -> fr.fr_ints.((r * ws) + lane) <- old
        | None -> ());
        let nv =
          match op with
          | Atomic_add when Array.length ops = 1 -> old + ieval fr lane ops.(0)
          | Atomic_exch when Array.length ops = 1 -> ieval fr lane ops.(0)
          | Atomic_max when Array.length ops = 1 -> max old (ieval fr lane ops.(0))
          | Atomic_cas when Array.length ops = 2 ->
            if old = ieval fr lane ops.(0) then ieval fr lane ops.(1) else old
          | _ -> fault "malformed atomic"
        in
        Memory.store_int e.e_mem ~thread:tid a ty nv
      end
    done;
    (match e.e_san with Some s -> Sanitizer.set_atomic s false | None -> ());
    `Continue
  | D_atomic_f (dst, op, addr, ops) ->
    let global = ref false in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let a = ieval fr lane addr in
        e.e_addr.(lane) <- a;
        if not !global && Memory.decode_space a = Global then global := true
      end
    done;
    let global = !global in
    charge tc (if global then p.c_atomic_global else p.c_atomic_shared);
    tc.tc_counters.atomics <- tc.tc_counters.atomics + 1;
    (match e.e_san with Some s -> Sanitizer.set_atomic s true | None -> ());
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let tid = lane_tid tc st lane in
        let a = e.e_addr.(lane) in
        let old = Memory.load_float e.e_mem ~thread:tid a in
        (match dst with
        | Some r -> fr.fr_floats.((r * ws) + lane) <- old
        | None -> ());
        let nv =
          match op with
          | Atomic_add when Array.length ops = 1 -> old +. feval fr lane ops.(0)
          | Atomic_exch when Array.length ops = 1 -> feval fr lane ops.(0)
          | Atomic_max when Array.length ops = 1 -> Float.max old (feval fr lane ops.(0))
          | Atomic_cas when Array.length ops = 2 ->
            if old = feval fr lane ops.(0) then feval fr lane ops.(1) else old
          | _ -> fault "malformed atomic"
        in
        Memory.store_float e.e_mem ~thread:tid a nv
      end
    done;
    (match e.e_san with Some s -> Sanitizer.set_atomic s false | None -> ());
    `Continue
  | D_barrier aligned -> (
    charge tc p.c_barrier;
    tc.tc_counters.barriers <- tc.tc_counters.barriers + 1;
    if aligned then
      tc.tc_counters.aligned_barriers <- tc.tc_counters.aligned_barriers + 1;
    match e.e_inject with
    | Some inj
      when Faultinject.fire inj Faultinject.Skip_barrier ~fn:fr.fr_info.fi_func.f_name
      ->
      (* the strand sails past the barrier without waiting (the main loop
         advances past the barrier instruction on `Continue) *)
      `Continue
    | _ ->
      slot.sl_idx <- slot.sl_idx + 1;
      st.st_status <-
        At_barrier
          { bs_fn = fr.fr_info.fi_func.f_name; bs_blk = slot.sl_blk;
            bs_idx = slot.sl_idx - 1; bs_aligned = aligned };
      `Suspend)
  | D_call dc -> do_call_fast e tc st slot dc
  | D_icall (dst, cop, args) ->
    (* indirect targets must be uniform across the strand *)
    let rec scan lane target got =
      if lane >= n then target
      else if um mask lane then begin
        let v = ieval fr lane cop in
        if not got then scan (lane + 1) v true
        else if v <> target then fault "divergent indirect call target"
        else scan (lane + 1) target got
      end
      else scan (lane + 1) target got
    in
    let target = scan 0 0 false in
    if target = 0 then fault "indirect call through null function pointer";
    let callee =
      if target >= 1 && target <= Array.length e.e_ftable then
        e.e_ftable.(target - 1).f_name
      else fault "indirect call to invalid function pointer %d" target
    in
    do_call_dyn e tc st slot ~dst ~callee ~args

(* Direct call through the pre-decoded descriptor: validity was checked at
   decode time, so this only binds arguments and pushes the frame. *)
and do_call_fast e tc st slot dc =
  charge tc e.e_params.c_call;
  tc.tc_counters.calls <- tc.tc_counters.calls + 1;
  match dc with
  | DC_fail raise_it ->
    raise_it ();
    assert false
  | DC_ok { dc_callee; dc_entry; dc_ret; dc_args } ->
    let fr = slot.sl_frame in
    let mask = st.st_mask in
    let n = Array.length mask in
    (* advance the caller past the call before pushing *)
    slot.sl_idx <- slot.sl_idx + 1;
    let frame = fresh_frame tc (fn_info e dc_callee) ~warp_size:n in
    for lane = 0 to n - 1 do
      if um mask lane then
        frame.fr_sp_save.(lane) <- Memory.local_sp e.e_mem ~thread:(lane_tid tc st lane)
    done;
    for i = 0 to Array.length dc_args - 1 do
      match dc_args.(i) with
      | DA_i (preg, op) ->
        let base = preg * frame.fr_ws in
        for lane = 0 to n - 1 do
          if um mask lane then frame.fr_ints.(base + lane) <- ieval fr lane op
        done
      | DA_f (preg, op) ->
        let base = preg * frame.fr_ws in
        for lane = 0 to n - 1 do
          if um mask lane then frame.fr_floats.(base + lane) <- feval fr lane op
        done
    done;
    st.st_stack <-
      { sl_frame = frame; sl_blk = dc_entry; sl_idx = 0; sl_ret_dst = dc_ret }
      :: st.st_stack;
    `Suspend (* re-enter the main loop so the new top slot is picked up *)

(* Dynamic call path for indirect calls: the callee is only known at
   execution time, so lookup, arity check and argument binding all happen
   here, against the AST operands. *)
and do_call_dyn e tc st slot ~dst ~callee ~args =
  charge tc e.e_params.c_call;
  tc.tc_counters.calls <- tc.tc_counters.calls + 1;
  let fr = slot.sl_frame in
  let mask = st.st_mask in
  let n = Array.length mask in
  let fi = fn_info e callee in
  let cf = fi.fi_func in
  if List.length cf.f_params <> List.length args then
    fault "call to %s with %d args (expects %d)" callee (List.length args)
      (List.length cf.f_params);
  (* advance the caller past the call before pushing *)
  slot.sl_idx <- slot.sl_idx + 1;
  let frame = fresh_frame tc fi ~warp_size:n in
  for lane = 0 to n - 1 do
    if um mask lane then
      frame.fr_sp_save.(lane) <- Memory.local_sp e.e_mem ~thread:(lane_tid tc st lane)
  done;
  List.iter2
    (fun (preg, pty) argop ->
      let base = preg * frame.fr_ws in
      if is_float_typ pty then
        for lane = 0 to n - 1 do
          if um mask lane then frame.fr_floats.(base + lane) <- eval_f e fr lane argop
        done
      else
        for lane = 0 to n - 1 do
          if um mask lane then frame.fr_ints.(base + lane) <- eval_i e fr lane argop
        done)
    cf.f_params args;
  let ret_dst =
    match (dst, cf.f_ret) with
    | Some r, Some t -> Some (r, is_float_typ t)
    | Some _, None -> fault "call to void function %s expects a value" callee
    | None, _ -> None
  in
  let entry = (entry_block cf).b_label in
  let callee_slot =
    { sl_frame = frame; sl_blk = entry; sl_idx = 0; sl_ret_dst = ret_dst }
  in
  st.st_stack <- callee_slot :: st.st_stack;
  `Suspend

(* tie the threaded-code fallback to the interpreter *)
let () = exec_fallback := exec_dinst

(* --- terminators -------------------------------------------------------- *)

let exec_dterm e tc st slot (dt : dterm) =
  let fr = slot.sl_frame in
  let mask = st.st_mask in
  let n = Array.length mask in
  charge tc e.e_params.c_branch;
  Fault.set_site e.e_fctx ~fn:fr.fr_info.fi_func.f_name ~blk:slot.sl_blk ~idx:slot.sl_idx;
  Fault.set_strand e.e_fctx ~team:tc.tc_team ~warp:st.st_warp ~mask;
  e.e_budget <- e.e_budget - 1;
  if e.e_budget <= 0 then
    Fault.fail Fault.Budget_exhausted "instruction budget exceeded (runaway kernel?)";
  match dt with
  | T_ret_none -> do_ret e tc st slot R_none
  | T_ret_i op -> do_ret e tc st slot (R_i op)
  | T_ret_f op -> do_ret e tc st slot (R_f op)
  | T_br l -> transfer tc st slot ~to_blk:l
  | T_unreach -> Fault.trap Fault.Unreachable "reached unreachable"
  | T_cond (c, lt, lf) -> (
    (* stage per-lane conditions in scratch; allocate the split masks only
       on actual divergence *)
    let seen = ref 0 in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let t = ieval fr lane c <> 0 in
        Array.unsafe_set e.e_cond lane t;
        seen := !seen lor if t then 1 else 2
      end
    done;
    match !seen with
    | 1 -> transfer tc st slot ~to_blk:lt
    | 2 -> transfer tc st slot ~to_blk:lf
    | _ ->
      let mt = Array.make n false and mf = Array.make n false in
      for lane = 0 to n - 1 do
        if um mask lane then
          if e.e_cond.(lane) then mt.(lane) <- true else mf.(lane) <- true
      done;
      diverge tc st slot [ (lt, mt); (lf, mf) ])
  | T_switch (op, cases, default) ->
    let ncases = Array.length cases in
    let rec find_case v i =
      if i >= ncases then default
      else
        let cv, l = cases.(i) in
        if cv = v then l else find_case v (i + 1)
    in
    (* groups in first-seen order, as the divergence order is scheduling
       order *)
    let groups = ref [] in
    for lane = 0 to n - 1 do
      if um mask lane then begin
        let lbl = find_case (ieval fr lane op) 0 in
        match List.assoc_opt lbl !groups with
        | Some m -> m.(lane) <- true
        | None ->
          let m = Array.make n false in
          m.(lane) <- true;
          groups := !groups @ [ (lbl, m) ]
      end
    done;
    (match !groups with
    | [ (lbl, _) ] -> transfer tc st slot ~to_blk:lbl
    | gs -> diverge tc st slot gs)

(* --- strand / team scheduling ------------------------------------------- *)

(* Run one strand until it suspends, dies or splits. The block lookup is
   hoisted out of the instruction loop: one hash probe per block entry
   instead of one per instruction. *)
(* Watchdog granularity: one clock read per 256 block visits keeps the
   overhead invisible while still bounding a runaway kernel's overshoot
   to a few thousand instructions past its deadline. The cycle budget
   ([e_budget]) guards simulated work; this guards host wall-clock.
   Each domain polls the (shared, read-only) watchdog closure itself;
   the same fuel counter also rate-limits the parallel-run abort check. *)
let wd_poll_interval = 256

(* a sibling domain recorded a fault on an earlier team: this domain's
   current team would never have run sequentially, so stop silently *)
exception Sibling_abort

let poll_watchdog e =
  match (e.e_watchdog, e.e_abort) with
  | None, None -> ()
  | wd, ab ->
    e.e_wd_fuel <- e.e_wd_fuel - 1;
    if e.e_wd_fuel <= 0 then begin
      e.e_wd_fuel <- wd_poll_interval;
      (match ab with
      | Some a when Atomic.get a < e.e_cur_team -> raise Sibling_abort
      | _ -> ());
      match wd with
      | Some expired when expired () ->
        Fault.fail Fault.Deadline "wall-clock watchdog deadline exceeded"
      | _ -> ()
    end

let run_strand e tc st =
  let continue_ = ref true in
  while !continue_ && st.st_status = Run do
    poll_watchdog e;
    match st.st_stack with
    | [] ->
      st.st_status <- Dead;
      continue_ := false
    | slot :: _ ->
      let b =
        match Hashtbl.find slot.sl_frame.fr_info.fi_blocks slot.sl_blk with
        | b -> b
        | exception Not_found -> fault "missing block %s" slot.sl_blk
      in
      let ninsts = Array.length b.cb_insts in
      (* hot-spot accounting sits at block granularity, outside the
         per-instruction loop, so the disabled-path cost is this one
         branch per block visit and golden counters cannot change *)
      let prof = e.e_prof in
      let wi0 = if prof then tc.tc_counters.Counters.warp_instructions else 0 in
      let cyc0 = if prof then tc.tc_counters.Counters.cycles else 0 in
      let inner = ref true in
      (* the two executors share everything around this dispatch point:
         the VM loop indexes the pre-compiled closure array, the IR loop
         matches on the decoded constructor; terminators, suspension and
         profiling are common *)
      if e.e_exec = Exec_vm then begin
        let code = b.cb_code in
        while !inner do
          if slot.sl_idx < ninsts then begin
            match (Array.unsafe_get code slot.sl_idx) e tc st slot with
            | `Continue -> slot.sl_idx <- slot.sl_idx + 1
            | `Suspend ->
              inner := false;
              continue_ := false
          end
          else begin
            exec_dterm e tc st slot b.cb_term;
            inner := false;
            match st.st_status with Run -> () | _ -> continue_ := false
          end
        done
      end
      else
        while !inner do
          if slot.sl_idx < ninsts then begin
            match exec_dinst e tc st slot (Array.unsafe_get b.cb_insts slot.sl_idx) with
            | `Continue -> slot.sl_idx <- slot.sl_idx + 1
            | `Suspend ->
              inner := false;
              continue_ := false
          end
          else begin
            exec_dterm e tc st slot b.cb_term;
            inner := false;
            (* after a terminator the outer loop re-examines status/stack *)
            match st.st_status with Run -> () | _ -> continue_ := false
          end
        done;
      if prof then begin
        b.cb_hits <- b.cb_hits + 1;
        b.cb_wi <- b.cb_wi + (tc.tc_counters.Counters.warp_instructions - wi0);
        b.cb_cyc <- b.cb_cyc + (tc.tc_counters.Counters.cycles - cyc0)
      end
  done

let release_barriers e tc =
  (* aligned-barrier discipline: if any waiting strand is at an aligned
     barrier, every waiting strand must be at the same site *)
  let sites = ref [] in
  Svec.iter
    (fun s -> match s.st_status with At_barrier b -> sites := b :: !sites | _ -> ())
    tc.tc_strands;
  let sites = List.rev !sites in
  let aligned = List.exists (fun b -> b.bs_aligned) sites in
  (match sites with
  | first :: rest when aligned ->
    List.iter
      (fun b ->
        if b.bs_fn <> first.bs_fn || b.bs_blk <> first.bs_blk || b.bs_idx <> first.bs_idx
        then
          Fault.fail Fault.Divergent_barrier
            "aligned barrier divergence: %s:%s:%d vs %s:%s:%d" first.bs_fn first.bs_blk
            first.bs_idx b.bs_fn b.bs_blk b.bs_idx)
      rest
  | _ -> ());
  (* a team-wide release is a synchronization point: advance the epoch *)
  (match e.e_san with Some s -> Sanitizer.barrier_release s | None -> ());
  Svec.iter
    (fun s -> match s.st_status with At_barrier _ -> s.st_status <- Run | _ -> ())
    tc.tc_strands

(* Check partial-warp arrival at aligned barriers: a strand waiting at an
   aligned barrier must carry every still-alive lane of its warp. *)
let check_aligned_mask tc st site =
  if site.bs_aligned then begin
    let n = Array.length st.st_mask in
    for lane = 0 to n - 1 do
      let tid = lane_tid tc st lane in
      if tid < tc.tc_threads && not tc.tc_done.(tid) && not st.st_mask.(lane) then begin
        (* the lane is alive but not in this strand: only legal if another
           strand of the same warp is waiting at the same site *)
        let covered =
          Svec.exists
            (fun s' ->
              s' != st && s'.st_warp = st.st_warp && s'.st_mask.(lane)
              &&
              match s'.st_status with
              | At_barrier b' ->
                b'.bs_fn = site.bs_fn && b'.bs_blk = site.bs_blk && b'.bs_idx = site.bs_idx
              | _ -> false)
            tc.tc_strands
        in
        if not covered then
          Fault.fail Fault.Divergent_barrier ~threads:[ tid ]
            "aligned barrier at %s:%s:%d reached divergently by warp %d (thread %d \
             alive but absent)"
            site.bs_fn site.bs_blk site.bs_idx st.st_warp tid
      end
    done
  end

(* Forced partial reconvergence (independent thread scheduling): when a
   join has arrivals but its remaining siblings are blocked (e.g. the main
   thread executes team barriers while the rest of its warp waits at the
   reconvergence point of the `if (target_init() == 1)` split), the parked
   lanes must make forward progress, as Volta-class hardware guarantees.
   The join splits: arrived lanes resume from the continuation as their
   own strand; the remaining siblings will form another. Outer joins then
   expect one extra arrival. Returns true if a join was split. *)
let force_partial_reconvergence tc : bool =
  (* collect pending joins reachable from live strands, innermost first *)
  let candidates = ref [] in
  let seen = Hashtbl.create 8 in
  Svec.iter
    (fun s ->
      if s.st_status <> Dead then
        List.iter
          (fun j ->
            if not (Hashtbl.mem seen j.j_id) then begin
              Hashtbl.replace seen j.j_id ();
              if j.j_arrived > 0 && j.j_arrived < j.j_expected then
                candidates := j :: !candidates
            end)
          s.st_joins)
    tc.tc_strands;
  match List.sort (fun a b -> compare a.j_id b.j_id) !candidates with
  | [] -> false
  | j :: _ ->
    let mask = Array.copy j.j_mask in
    Array.fill j.j_mask 0 (Array.length j.j_mask) false;
    j.j_expected <- j.j_expected - j.j_arrived;
    j.j_arrived <- 0;
    List.iter (fun outer -> outer.j_expected <- outer.j_expected + 1) j.j_outer;
    let warp =
      (* recover the warp index from any set lane (mask lanes are within
         one warp by construction) *)
      if Svec.length tc.tc_strands > 0 then (Svec.get tc.tc_strands 0).st_warp else 0
    in
    (* find the true warp: the strand still holding this join *)
    let warp =
      match
        Svec.find_opt
          (fun s -> s.st_status <> Dead && List.memq j s.st_joins)
          tc.tc_strands
      with
      | Some s -> s.st_warp
      | None -> warp
    in
    ignore
      (new_strand tc ~warp ~mask ~stack:(List.map copy_slot j.j_cont) ~joins:j.j_outer);
    true

let run_team e ~team =
  let p = e.e_params in
  let threads = e.e_launch.l_threads in
  (* Per-team execution state. The issue budget is per team (not per
     launch) so that whether a team blows it never depends on how many
     teams ran before it — a prerequisite for domain-count bit-identity.
     The injection stream and the malloc-arena cursor are re-derived per
     team for the same reason. *)
  e.e_cur_team <- team;
  e.e_budget <- e.e_budget0;
  e.e_inject <-
    (match e.e_spec with
    | Some s -> Faultinject.start_team s ~team ~teams:e.e_launch.l_teams
    | None -> None);
  (match e.e_arena with
  | Some (base, cap) -> e.e_arena_cur <- base + (team * cap)
  | None -> ());
  let tc =
    { tc_team = team; tc_threads = threads; tc_warp_size = p.warp_size;
      tc_done = Array.make threads false; tc_strands = Svec.create ();
      tc_next_seq = 0; tc_next_frame = 0; tc_next_join = 0;
      tc_counters = Counters.create () }
  in
  (* announce the team's shared allocations to the sanitizer before the
     shared globals are (re-)initialized; the trunc-shared injection shaves
     bytes off the allocation it targets so in-bounds accesses of the real
     global become OOB in the shadow state *)
  (match e.e_san with
  | Some san ->
    Sanitizer.team_start san;
    List.iter
      (fun ((g : global), off) ->
        let size =
          match e.e_inject with
          | Some inj when Faultinject.fire inj Faultinject.Trunc_shared ~fn:g.g_name ->
            max 0 (g.g_size - 8)
          | _ -> g.g_size
        in
        (* runtime-internal shared state (team ICVs, the exclusive-execution
           dummy sink) uses benign last-writer-wins idioms; exempt it from
           race checks, not from bounds checks *)
        let internal =
          String.length g.g_name >= 6 && String.sub g.g_name 0 6 = "__omp_"
        in
        Sanitizer.register_shared san ~race_checked:(not internal) ~offset:off ~size ())
      e.e_shared_globals
  | None -> ());
  Memory.reset_team e.e_mem ~shared_globals:e.e_shared_globals;
  (* spawn one strand per warp *)
  let kernel =
    match List.find_opt (fun f -> f.f_is_kernel) e.e_module.m_funcs with
    | Some k -> k
    | None -> fault "module has no kernel"
  in
  let nwarps = (threads + p.warp_size - 1) / p.warp_size in
  for w = 0 to nwarps - 1 do
    let lanes = min p.warp_size (threads - (w * p.warp_size)) in
    let mask = Array.init p.warp_size (fun l -> l < lanes) in
    let frame = entry_frame tc e kernel.f_name ~warp_size:p.warp_size in
    (* kernel arguments are uniform across all threads *)
    List.iteri
      (fun i ((preg, pty), arg) ->
        ignore i;
        let base = preg * p.warp_size in
        for lane = 0 to p.warp_size - 1 do
          match (arg, is_float_typ pty) with
          | Ai v, false -> frame.fr_ints.(base + lane) <- v
          | Af v, true -> frame.fr_floats.(base + lane) <- v
          | Ai v, true -> frame.fr_floats.(base + lane) <- float_of_int v
          | Af _, false -> fault "float argument for integer kernel parameter"
        done)
      (* bind against the frame's function: with a plan its params
         carry the renamed register indices the frame is laid out by *)
      (try List.combine frame.fr_info.fi_func.f_params e.e_launch.l_args
       with Invalid_argument _ ->
         fault "kernel %s expects %d args, got %d" kernel.f_name
           (List.length kernel.f_params)
           (List.length e.e_launch.l_args));
    let slot =
      { sl_frame = frame; sl_blk = (entry_block kernel).b_label; sl_idx = 0;
        sl_ret_dst = None }
    in
    ignore (new_strand tc ~warp:w ~mask ~stack:[ slot ] ~joins:[])
  done;
  (* scheduler loop *)
  let finished = ref false in
  while not !finished do
    Svec.compact tc.tc_strands (fun s -> s.st_status <> Dead);
    match Svec.find_opt (fun s -> s.st_status = Run) tc.tc_strands with
    | Some s -> run_strand e tc s
    | None ->
      let alive = ref 0 in
      Array.iter (fun d -> if not d then incr alive) tc.tc_done;
      if !alive = 0 then finished := true
      else begin
        (* count lanes waiting at barriers, remembering who waits where *)
        let waiting = ref 0 in
        let waiting_tids = Hashtbl.create 16 in
        let sites = ref [] in
        Svec.iter
          (fun s ->
            match s.st_status with
            | At_barrier site ->
              check_aligned_mask tc s site;
              if not
                   (List.exists
                      (fun b ->
                        b.bs_fn = site.bs_fn && b.bs_blk = site.bs_blk
                        && b.bs_idx = site.bs_idx)
                      !sites)
              then sites := site :: !sites;
              Array.iteri
                (fun lane b ->
                  let tid = lane_tid tc s lane in
                  if b && tid < threads && not tc.tc_done.(tid) then begin
                    incr waiting;
                    Hashtbl.replace waiting_tids tid ()
                  end)
                s.st_mask
            | _ -> ())
          tc.tc_strands;
        if !waiting = !alive then release_barriers e tc
        else if not (force_partial_reconvergence tc) then begin
          (* divergent-barrier watchdog: the hang becomes a structured
             fault naming the threads that never arrived *)
          let stuck = ref [] in
          for tid = threads - 1 downto 0 do
            if (not tc.tc_done.(tid)) && not (Hashtbl.mem waiting_tids tid) then
              stuck := tid :: !stuck
          done;
          let site_str =
            match !sites with
            | [] -> "?"
            | ss ->
              String.concat ", "
                (List.rev_map
                   (fun b -> Printf.sprintf "%s:%s:%d" b.bs_fn b.bs_blk b.bs_idx)
                   ss)
          in
          Fault.fail Fault.Divergent_barrier ~threads:!stuck
            "barrier deadlock in team %d: %d threads waiting at %s, %d alive; threads \
             [%s] never arrived"
            team !waiting site_str !alive
            (String.concat ";" (List.map string_of_int !stuck))
        end
      end
  done;
  release_frames e;
  tc.tc_counters

(* Per-block hot-spot row from the opt-in profile: where warp
   instructions and cost-model cycles were spent, block by block. *)
type hotspot = {
  h_fn : string;
  h_blk : label;
  h_hits : int; (* block entries across all strands *)
  h_winsts : int;
  h_cycles : int;
}

type result = {
  r_counters : Counters.t list; (* per team *)
  r_total : Counters.t;
  r_hotspots : hotspot list; (* hottest first; [] unless profiling *)
}

let assign_addresses mem (m : modul) =
  let gaddr = Hashtbl.create 16 in
  let shared_globals = ref [] in
  let shared_off = ref 0 in
  List.iter
    (fun g ->
      match g.g_space with
      | Shared ->
        let aligned = (!shared_off + 7) land lnot 7 in
        Hashtbl.replace gaddr g.g_name (Memory.encode Shared aligned);
        shared_globals := (g, aligned) :: !shared_globals;
        shared_off := aligned + g.g_size
      | Global ->
        let off = Memory.alloc_global mem g.g_size in
        Hashtbl.replace gaddr g.g_name off;
        Memory.init_global mem g (snd (Memory.decode off))
      | Constant ->
        let off = Memory.alloc_const mem g.g_size in
        Hashtbl.replace gaddr g.g_name off;
        Memory.init_global mem g (snd (Memory.decode off))
      | Local -> ir_error "global %s in local space" g.g_name)
    m.m_globals;
  (gaddr, List.rev !shared_globals, !shared_off)

(* Static shared-memory footprint of a module (bytes per team). *)
let shared_bytes (m : modul) =
  List.fold_left
    (fun acc g -> match g.g_space with Shared -> acc + g.g_size | _ -> acc)
    0 m.m_globals

(* Gather the per-block profile accumulated in the decoded blocks of one
   or more engines (one per domain — each holds its own decode caches),
   summed by (function, block) and sorted hottest (most cycles) first
   with a deterministic tie-break. The merge is order-insensitive
   (integer sums), so the profile is identical at every domain count. *)
let collect_hotspots (engines : engine list) : hotspot list =
  let tbl : (string * label, int * int * int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun e ->
      Hashtbl.iter
        (fun fn fi ->
          Hashtbl.iter
            (fun blk cb ->
              if cb.cb_hits > 0 then begin
                let h0, w0, c0 =
                  match Hashtbl.find_opt tbl (fn, blk) with
                  | Some v -> v
                  | None -> (0, 0, 0)
                in
                Hashtbl.replace tbl (fn, blk)
                  (h0 + cb.cb_hits, w0 + cb.cb_wi, c0 + cb.cb_cyc)
              end)
            fi.fi_blocks)
        e.e_fn_infos)
    engines;
  let acc = ref [] in
  Hashtbl.iter
    (fun (fn, blk) (h, w, c) ->
      acc := { h_fn = fn; h_blk = blk; h_hits = h; h_winsts = w; h_cycles = c } :: !acc)
    tbl;
  List.sort
    (fun a b ->
      match compare b.h_cycles a.h_cycles with
      | 0 -> compare (a.h_fn, a.h_blk) (b.h_fn, b.h_blk)
      | c -> c)
    !acc

(* Per-team kernel-malloc arena window, a pure function of the module
   and the launch geometry (never of the domain count):

   - a small floor covers the data-sharing slots the generic-mode
     runtime allocates (a few dozen bytes per launch);
   - twice the sum of all constant [Malloc] sizes covers kernels that
     bump buffers the scan can see;
   - a [2 MiB / teams] boost gives small-team launches headroom for
     sizes that reach malloc through a register (e.g. the runtime's
     alloc_shared fallback takes its size as a call argument).

   The window is deliberately tight — it is reserved for every team of
   every launch, so an over-generous cap would dominate the launch's
   allocation profile. A kernel that outgrows its window faults with a
   structured Oob naming the limit. Rounded to a multiple of 128 so
   every team window keeps the 128-byte transaction phase of the
   aligned arena base. [malloc] is [malloc_scan] of the module: None for
   malloc-free modules (no arena is reserved at all). *)
let malloc_arena_cap ~malloc ~teams : int option =
  match malloc with
  | None -> None
  | Some const_bytes ->
    let cap = max 1024 (max (2 * const_bytes) ((1 lsl 21) / max 1 teams)) in
    Some ((cap + 127) land lnot 127)

(* The module half of [malloc_arena_cap]: None when no function contains
   a [Malloc], else the 8-byte-rounded sum of its constant sizes. A
   device computes it once for the module it loads. *)
let malloc_scan (m : modul) : int option =
  let found = ref false and const_bytes = ref 0 in
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (function
              | Malloc (_, sz) ->
                found := true;
                (match sz with
                | Imm_int (n, _) when n > 0L && n < 0x10000000L ->
                  const_bytes := !const_bytes + ((Int64.to_int n + 7) land lnot 7)
                | _ -> ())
              | _ -> ())
            b.b_insts)
        f.f_blocks)
    m.m_funcs;
  if !found then Some !const_bytes else None

let make_engine ~params ~mem ~san ~spec ~trace ~profile ~watchdog ~budget ~arena
    ~abort ~exec ~plan m launch gaddr ftable fidx shared_globals =
  let ws = params.Cost.warp_size in
  { e_module = m; e_params = params; e_mem = mem; e_launch = launch;
    e_exec = exec; e_plan = plan;
    e_fn_infos = Hashtbl.create 16; e_frames = Svec.create (); e_gaddr = gaddr; e_ftable = ftable;
    e_fidx = fidx; e_shared_globals = shared_globals; e_san = san;
    e_spec = spec; e_inject = None; e_fastmem = not (Memory.has_watcher mem);
    e_trace = trace; e_prof = profile;
    e_addr = Array.make ws 0; e_space = Array.make ws Global;
    e_off = Array.make ws 0; e_segs = Array.make ws 0;
    e_cond = Array.make ws false; e_fscr = Array.make 1 0.0;
    e_budget0 = budget; e_budget = budget; e_arena = arena; e_arena_cur = 0;
    e_fctx = Fault.make_ctx (); e_watchdog = watchdog;
    e_wd_fuel = wd_poll_interval; e_abort = abort; e_cur_team = 0 }

(* annotate an escaping fault with the engine's execution context; any
   other exception passes through untouched *)
let annotated e = function
  | Fault.Kernel_fault f -> Fault.Kernel_fault (Fault.annotate e.e_fctx f)
  | Fault.Kernel_trap f -> Fault.Kernel_trap (Fault.annotate e.e_fctx f)
  | exn -> exn

let run ?(params = Cost.default) ?(budget = 400_000_000) ?san ?inject
    ?(trace = Ozo_obs.Trace.null) ?(profile = false) ?watchdog ?(domains = 1)
    ?(exec = Exec_ir) ?(plan = []) ~malloc
    (m : modul) ~(mem : Memory.t)
    ~(gaddr : (string, int) Hashtbl.t) ~(shared_globals : (global * int) list)
    (launch : launch) : result =
  Memory.check_host ();
  let ftable = Array.of_list m.m_funcs in
  let fidx = Hashtbl.create 16 in
  Array.iteri (fun i f -> Hashtbl.replace fidx f.f_name (i + 1)) ftable;
  (* register plans, built once and shared read-only across domain engines *)
  let plan_tbl : (string, reg_plan) Hashtbl.t =
    Hashtbl.create (max 8 (List.length plan))
  in
  List.iter (fun (fname, rp) -> Hashtbl.replace plan_tbl fname rp) plan;
  let ndom = max 1 (min domains launch.l_teams) in
  (* Kernel mallocs bump inside a per-team arena reserved up front (at
     every domain count, including 1, so allocation addresses agree).
     Reserving claims the range; only a multi-domain launch also
     pre-grows the global buffer, so its backing Bytes.t is never
     replaced while domains execute. A single domain grows it on touch. *)
  let arena =
    match malloc_arena_cap ~malloc ~teams:launch.l_teams with
    | Some cap ->
      Some
        ( Memory.reserve_arena mem ~pregrow:(ndom > 1)
            ~teams:(max 1 launch.l_teams) ~cap,
          cap )
    | None -> None
  in
  let abort = if ndom > 1 then Some (Atomic.make max_int) else None in
  let mk ~mem ~san ~trace =
    make_engine ~params ~mem ~san ~spec:inject ~trace ~profile ~watchdog ~budget
      ~arena ~abort ~exec ~plan:plan_tbl m launch gaddr ftable fidx shared_globals
  in
  let e0 = mk ~mem ~san ~trace in
  let module T = Ozo_obs.Trace in
  (* decode: pre-decode the kernel up front so instruction decoding is
     visible as its own phase (callees still decode lazily on first call
     and land inside "execute"; worker domains decode into their own
     caches, also inside "execute") *)
  T.with_span trace ~cat:"phase" "decode" (fun () ->
      match List.find_opt (fun f -> f.f_is_kernel) m.m_funcs with
      | Some k -> ignore (fn_info e0 k.f_name)
      | None -> ());
  let engines, counters =
    T.with_span trace ~cat:"phase" "execute" (fun () ->
        if ndom = 1 then
          ( [ e0 ],
            List.init launch.l_teams (fun team ->
                try run_team e0 ~team with exn -> raise (annotated e0 exn)) )
        else begin
          (* Parallel path: one complete engine per domain (own decode
             caches, scratch, fault context, forked memory/sanitizer);
             contiguous balanced team chunks in ascending order. Per-team
             results land in disjoint slots of [results]; [Domain.join]
             (inside [Pool.run]) publishes them to this domain. *)
          let teams = launch.l_teams in
          let abort_a = Option.get abort in
          let results : Counters.t option array = Array.make teams None in
          let faults : (int * exn) option array = Array.make ndom None in
          let engines = Array.make ndom e0 in
          let rec note_abort v =
            let cur = Atomic.get abort_a in
            if v < cur && not (Atomic.compare_and_set abort_a cur v) then
              note_abort v
          in
          let work w =
            let e =
              if w = 0 then e0
              else begin
                let fmem = Memory.fork mem in
                let fsan =
                  Option.map
                    (fun s ->
                      let s' = Sanitizer.fork s fmem in
                      Memory.set_watcher fmem (Sanitizer.watcher s');
                      s')
                    san
                in
                (* workers trace nothing: Trace.ctx is not domain-safe,
                   and the phase spans belong to the launch as a whole *)
                mk ~mem:fmem ~san:fsan ~trace:T.null
              end
            in
            engines.(w) <- e;
            let lo, hi = Ozo_util.Pool.chunk ~items:teams ~workers:ndom w in
            try
              let t = ref lo in
              while !t < hi do
                (* stop only for teams the sequential engine would never
                   have reached (a sibling fault on an earlier team) *)
                if Atomic.get abort_a < !t then raise Sibling_abort;
                results.(!t) <- Some (run_team e ~team:!t);
                incr t
              done
            with
            | Sibling_abort -> ()
            | exn ->
              faults.(w) <- Some (e.e_cur_team, annotated e exn);
              note_abort e.e_cur_team
          in
          Ozo_util.Pool.run ~workers:ndom work;
          (* deterministic merge: the fault on the lowest team id wins —
             exactly the fault the sequential engine would have raised
             first. Counters past a faulting team are discarded, matching
             sequential execution never reaching them. *)
          let first_fault =
            Array.fold_left
              (fun acc f ->
                match (f, acc) with
                | Some (t, _), Some (t', _) when t < t' -> f
                | Some _, None -> f
                | _ -> acc)
              None faults
          in
          (match first_fault with Some (_, exn) -> raise exn | None -> ());
          ( Array.to_list engines,
            Array.to_list results |> List.map Option.get )
        end)
  in
  T.with_span trace ~cat:"phase" "readback" (fun () ->
      let total = List.fold_left Counters.add (Counters.create ()) counters in
      let hotspots = if profile then collect_hotspots engines else [] in
      List.iter
        (fun h ->
          T.instant trace ~cat:"hotspot"
            ~args:
              [ ("fn", T.Str h.h_fn); ("blk", T.Str h.h_blk);
                ("hits", T.Int h.h_hits); ("winsts", T.Int h.h_winsts);
                ("cycles", T.Int h.h_cycles) ]
            ("hot:" ^ h.h_fn ^ ":" ^ h.h_blk))
        hotspots;
      { r_counters = counters; r_total = total; r_hotspots = hotspots })
