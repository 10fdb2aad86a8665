(* Human-readable textual form of the IR, LLVM-flavoured. Used by the
   examples, tests and the optimization-remark machinery. *)

open Types

let pp_typ ppf = function
  | I1 -> Fmt.string ppf "i1"
  | I32 -> Fmt.string ppf "i32"
  | I64 -> Fmt.string ppf "i64"
  | F64 -> Fmt.string ppf "f64"
  | Ptr Global -> Fmt.string ppf "ptr(global)"
  | Ptr Shared -> Fmt.string ppf "ptr(shared)"
  | Ptr Local -> Fmt.string ppf "ptr(local)"
  | Ptr Constant -> Fmt.string ppf "ptr(const)"

let pp_operand ppf = function
  | Reg r -> Fmt.pf ppf "%%%d" r
  | Imm_int (v, t) -> Fmt.pf ppf "%Ld:%a" v pp_typ t
  | Imm_float x -> Fmt.pf ppf "%h" x
  | Global_addr g -> Fmt.pf ppf "@%s" g
  | Func_addr f -> Fmt.pf ppf "&%s" f
  | Undef t -> Fmt.pf ppf "undef:%a" pp_typ t

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Sdiv -> "sdiv" | Srem -> "srem"
  | Udiv -> "udiv" | Urem -> "urem" | And -> "and" | Or -> "or" | Xor -> "xor"
  | Shl -> "shl" | Ashr -> "ashr" | Lshr -> "lshr" | Smin -> "smin" | Smax -> "smax"
  | Fadd -> "fadd" | Fsub -> "fsub" | Fmul -> "fmul" | Fdiv -> "fdiv"
  | Fmin -> "fmin" | Fmax -> "fmax"

let unop_name = function
  | Not -> "not" | Fneg -> "fneg" | Fsqrt -> "fsqrt" | Fexp -> "fexp"
  | Flog -> "flog" | Fsin -> "fsin" | Fcos -> "fcos" | Fabs -> "fabs"
  | Sitofp -> "sitofp" | Fptosi -> "fptosi"
  | Zext32to64 -> "zext" | Trunc64to32 -> "trunc"

let icmp_name = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let fcmp_name = function
  | Feq -> "feq" | Fne -> "fne" | Flt -> "flt" | Fle -> "fle" | Fgt -> "fgt"
  | Fge -> "fge"

let intrinsic_name = function
  | Thread_id -> "thread.id"
  | Block_id -> "block.id"
  | Block_dim -> "block.dim"
  | Grid_dim -> "grid.dim"
  | Warp_size -> "warp.size"
  | Lane_id -> "lane.id"

let atomic_name = function
  | Atomic_add -> "add" | Atomic_exch -> "exch" | Atomic_cas -> "cas"
  | Atomic_max -> "max"

let pp_args = Fmt.list ~sep:Fmt.comma pp_operand

let pp_inst ppf = function
  | Binop (r, op, a, b) ->
    Fmt.pf ppf "%%%d = %s %a, %a" r (binop_name op) pp_operand a pp_operand b
  | Unop (r, op, a) -> Fmt.pf ppf "%%%d = %s %a" r (unop_name op) pp_operand a
  | Icmp (r, op, a, b) ->
    Fmt.pf ppf "%%%d = icmp %s %a, %a" r (icmp_name op) pp_operand a pp_operand b
  | Fcmp (r, op, a, b) ->
    Fmt.pf ppf "%%%d = fcmp %s %a, %a" r (fcmp_name op) pp_operand a pp_operand b
  | Select (r, ty, c, a, b) ->
    Fmt.pf ppf "%%%d = select %a %a, %a, %a" r pp_typ ty pp_operand c pp_operand a
      pp_operand b
  | Load (r, t, addr) -> Fmt.pf ppf "%%%d = load %a, %a" r pp_typ t pp_operand addr
  | Store (t, v, addr) ->
    Fmt.pf ppf "store %a %a, %a" pp_typ t pp_operand v pp_operand addr
  | Ptradd (r, base, off) ->
    Fmt.pf ppf "%%%d = ptradd %a, %a" r pp_operand base pp_operand off
  | Alloca (r, sz) -> Fmt.pf ppf "%%%d = alloca %d" r sz
  | Call (Some r, f, args) -> Fmt.pf ppf "%%%d = call %s(%a)" r f pp_args args
  | Call (None, f, args) -> Fmt.pf ppf "call %s(%a)" f pp_args args
  | Call_indirect (Some r, _, callee, args) ->
    Fmt.pf ppf "%%%d = call.ind %a(%a)" r pp_operand callee pp_args args
  | Call_indirect (None, _, callee, args) ->
    Fmt.pf ppf "call.ind %a(%a)" pp_operand callee pp_args args
  | Intrinsic (r, i) -> Fmt.pf ppf "%%%d = %s" r (intrinsic_name i)
  | Barrier { aligned } ->
    Fmt.pf ppf "barrier%s" (if aligned then ".aligned" else "")
  | Atomic (d, op, t, addr, ops) ->
    (match d with
    | Some r -> Fmt.pf ppf "%%%d = " r
    | None -> ());
    Fmt.pf ppf "atomic.%s %a %a, %a" (atomic_name op) pp_typ t pp_operand addr
      pp_args ops
  | Assume o -> Fmt.pf ppf "assume %a" pp_operand o
  | Trap s -> Fmt.pf ppf "trap %S" s
  | Malloc (r, sz) -> Fmt.pf ppf "%%%d = malloc %a" r pp_operand sz
  | Free o -> Fmt.pf ppf "free %a" pp_operand o
  | Debug_print (s, ops) -> Fmt.pf ppf "debug.print %S, %a" s pp_args ops

let pp_term ppf = function
  | Ret None -> Fmt.string ppf "ret"
  | Ret (Some o) -> Fmt.pf ppf "ret %a" pp_operand o
  | Br l -> Fmt.pf ppf "br %s" l
  | Cond_br (c, t, f) -> Fmt.pf ppf "br %a, %s, %s" pp_operand c t f
  | Switch (o, cases, d) ->
    Fmt.pf ppf "switch %a, default %s [%a]" pp_operand o d
      (Fmt.list ~sep:Fmt.comma (fun ppf (v, l) -> Fmt.pf ppf "%Ld->%s" v l))
      cases
  | Unreachable -> Fmt.string ppf "unreachable"

let pp_phi ppf p =
  Fmt.pf ppf "%%%d = phi %a [%a]" p.phi_reg pp_typ p.phi_typ
    (Fmt.list ~sep:Fmt.comma (fun ppf (l, o) -> Fmt.pf ppf "%s: %a" l pp_operand o))
    p.phi_incoming

let pp_block ppf b =
  Fmt.pf ppf "@[<v 2>%s:@ " b.b_label;
  List.iter (fun p -> Fmt.pf ppf "%a@ " pp_phi p) b.b_phis;
  List.iter (fun i -> Fmt.pf ppf "%a@ " pp_inst i) b.b_insts;
  Fmt.pf ppf "%a@]" pp_term b.b_term

let attr_name = function
  | Attr_inline_hint -> "inline_hint"
  | Attr_no_inline -> "no_inline"
  | Attr_aligned_barrier -> "aligned_barrier"
  | Attr_no_sync -> "no_sync"
  | Attr_no_free_state -> "no_free_state"
  | Attr_main_thread_only -> "main_thread_only"

let pp_func ppf f =
  let pp_param ppf (r, t) = Fmt.pf ppf "%%%d: %a" r pp_typ t in
  Fmt.pf ppf "@[<v>%s%sfunc %s(%a)%a%s@,"
    (if f.f_is_kernel then "kernel " else "")
    (match f.f_linkage with Internal -> "internal " | External -> "")
    f.f_name
    (Fmt.list ~sep:Fmt.comma pp_param)
    f.f_params
    (fun ppf -> function
      | None -> Fmt.string ppf ""
      | Some t -> Fmt.pf ppf " -> %a" pp_typ t)
    f.f_ret
    (match f.f_attrs with
    | [] -> ""
    | attrs -> " [" ^ String.concat "," (List.map attr_name attrs) ^ "]");
  List.iter (fun b -> Fmt.pf ppf "%a@," pp_block b) f.f_blocks;
  Fmt.pf ppf "@]"

let space_name = function
  | Global -> "global" | Shared -> "shared" | Local -> "local" | Constant -> "const"

let pp_global ppf g =
  Fmt.pf ppf "%s%sglobal @%s : %s[%d]%s"
    (match g.g_linkage with Internal -> "internal " | External -> "")
    (if g.g_const then "const " else "")
    g.g_name (space_name g.g_space) g.g_size
    (match g.g_init with
    | Zero_init -> " = zeroinit"
    | No_init -> ""
    | Words_init ws ->
      Fmt.str " = [%a]" (Fmt.list ~sep:Fmt.comma (fun ppf -> Fmt.pf ppf "%Ld")) ws)

let pp_module ppf m =
  Fmt.pf ppf "@[<v>module %s@,@," m.m_name;
  List.iter (fun g -> Fmt.pf ppf "%a@," pp_global g) m.m_globals;
  Fmt.pf ppf "@,";
  List.iter (fun f -> Fmt.pf ppf "%a@," pp_func f) m.m_funcs;
  Fmt.pf ppf "@]"

let module_to_string m = Fmt.str "%a" pp_module m
let func_to_string f = Fmt.str "%a" pp_func f
