(* Stateful convenience layer for constructing IR modules.

   The runtime library (lib/runtime) and the OpenMP/CUDA lowerings
   (lib/frontend) build all of their code through this interface, which
   mirrors LLVM's IRBuilder: position at a block, append instructions,
   seal blocks with a terminator. *)

open Types

type fctx = {
  fc_name : string;
  fc_params : (reg * typ) list;
  fc_ret : typ option;
  fc_linkage : linkage;
  fc_attrs : attr list;
  fc_kernel : bool;
  mutable fc_next_reg : reg;
  mutable fc_next_label : int;
  (* Blocks in creation order; each is (label, phis rev, insts rev, term). *)
  mutable fc_blocks : (label * phi list ref * inst list ref * terminator option ref) list;
  mutable fc_current : (label * phi list ref * inst list ref * terminator option ref) option;
}

type t = {
  mutable md_name : string;
  mutable md_globals : global list; (* reversed *)
  mutable md_funcs : func list;     (* reversed *)
  mutable md_fctx : fctx option;
}

let create name = { md_name = name; md_globals = []; md_funcs = []; md_fctx = None }

let add_global t ?(linkage = Internal) ?(const = false) ?(init = Zero_init) ~space ~size
    name =
  if List.exists (fun g -> g.g_name = name) t.md_globals then
    ir_error "duplicate global %s" name;
  t.md_globals <-
    { g_name = name; g_space = space; g_size = size; g_init = init;
      g_linkage = linkage; g_const = const }
    :: t.md_globals;
  Global_addr name

let ctx t =
  match t.md_fctx with
  | Some c -> c
  | None -> ir_error "no function under construction"

let fresh_reg t =
  let c = ctx t in
  let r = c.fc_next_reg in
  c.fc_next_reg <- r + 1;
  r

let fresh_label t hint =
  let c = ctx t in
  let n = c.fc_next_label in
  c.fc_next_label <- n + 1;
  Printf.sprintf "%s.%d" hint n

(* Start a new function; returns the parameter operands in order. *)
let begin_func t ?(linkage = Internal) ?(attrs = []) ?(kernel = false) ~name ~params ~ret
    () =
  (match t.md_fctx with
  | Some c -> ir_error "begin_func %s while %s is still open" name c.fc_name
  | None -> ());
  let param_regs = List.mapi (fun i ty -> (i, ty)) params in
  let c =
    { fc_name = name; fc_params = param_regs; fc_ret = ret; fc_linkage = linkage;
      fc_attrs = attrs; fc_kernel = kernel; fc_next_reg = List.length params;
      fc_next_label = 0; fc_blocks = []; fc_current = None }
  in
  t.md_fctx <- Some c;
  List.map (fun (r, _) -> Reg r) param_regs

(* Create (or re-enter) a block and make it current. *)
let set_block t label =
  let c = ctx t in
  match List.find_opt (fun (l, _, _, _) -> l = label) c.fc_blocks with
  | Some b -> c.fc_current <- Some b
  | None ->
    let b = (label, ref [], ref [], ref None) in
    c.fc_blocks <- b :: c.fc_blocks;
    c.fc_current <- Some b

let current_label t =
  match (ctx t).fc_current with
  | Some (l, _, _, _) -> l
  | None -> ir_error "no current block"

let append t inst =
  match (ctx t).fc_current with
  | Some (l, _, insts, term) ->
    (match !term with
    | Some _ -> ir_error "appending to terminated block %s" l
    | None -> insts := inst :: !insts)
  | None -> ir_error "no current block"

let terminate t term =
  match (ctx t).fc_current with
  | Some (l, _, _, tref) ->
    (match !tref with
    | Some _ -> ir_error "block %s already terminated" l
    | None ->
      tref := Some term;
      (ctx t).fc_current <- None)
  | None -> ir_error "no current block"

(* Is the current block already closed (or absent)?  Lowerings use this
   to avoid emitting dead joins after returns. *)
let is_terminated t =
  match (ctx t).fc_current with Some _ -> false | None -> true

let end_func t =
  let c = ctx t in
  let blocks =
    List.rev_map
      (fun (l, phis, insts, term) ->
        match !term with
        | None -> ir_error "block %s of %s lacks a terminator" l c.fc_name
        | Some term ->
          { b_label = l; b_phis = List.rev !phis; b_insts = List.rev !insts;
            b_term = term })
      c.fc_blocks
  in
  if blocks = [] then ir_error "function %s has no blocks" c.fc_name;
  let f =
    { f_name = c.fc_name; f_params = c.fc_params; f_ret = c.fc_ret; f_blocks = blocks;
      f_linkage = c.fc_linkage; f_attrs = c.fc_attrs; f_is_kernel = c.fc_kernel;
      f_next_reg = c.fc_next_reg }
  in
  if List.exists (fun g -> g.f_name = f.f_name) t.md_funcs then
    ir_error "duplicate function %s" f.f_name;
  t.md_funcs <- f :: t.md_funcs;
  t.md_fctx <- None;
  f

let finish t =
  (match t.md_fctx with
  | Some c -> ir_error "finish with open function %s" c.fc_name
  | None -> ());
  { m_name = t.md_name; m_globals = List.rev t.md_globals;
    m_funcs = List.rev t.md_funcs }

(* ------------------------------------------------------------------ *)
(* Instruction helpers. Each appends and returns the result operand.  *)
(* ------------------------------------------------------------------ *)

let i1 b = Imm_int ((if b then 1L else 0L), I1)
let i32 n = Imm_int (Int64.of_int n, I32)
let i64 n = Imm_int (Int64.of_int n, I64)
let f64 x = Imm_float x

let binop t op a b =
  let r = fresh_reg t in
  append t (Binop (r, op, a, b));
  Reg r

let add t a b = binop t Add a b
let sub t a b = binop t Sub a b
let mul t a b = binop t Mul a b
let sdiv t a b = binop t Sdiv a b
let srem t a b = binop t Srem a b
let and_ t a b = binop t And a b
let or_ t a b = binop t Or a b
let xor t a b = binop t Xor a b
let shl t a b = binop t Shl a b
let smin t a b = binop t Smin a b
let smax t a b = binop t Smax a b
let fadd t a b = binop t Fadd a b
let fsub t a b = binop t Fsub a b
let fmul t a b = binop t Fmul a b
let fdiv t a b = binop t Fdiv a b

let unop t op a =
  let r = fresh_reg t in
  append t (Unop (r, op, a));
  Reg r

let icmp t op a b =
  let r = fresh_reg t in
  append t (Icmp (r, op, a, b));
  Reg r

let fcmp t op a b =
  let r = fresh_reg t in
  append t (Fcmp (r, op, a, b));
  Reg r

let select t typ c a b =
  let r = fresh_reg t in
  append t (Select (r, typ, c, a, b));
  Reg r

let load t typ addr =
  let r = fresh_reg t in
  append t (Load (r, typ, addr));
  Reg r

let store t typ value addr = append t (Store (typ, value, addr))

let ptradd t base off =
  let r = fresh_reg t in
  append t (Ptradd (r, base, off));
  Reg r

let alloca t size =
  let r = fresh_reg t in
  append t (Alloca (r, size));
  Reg r

let call t ?ret name args =
  match ret with
  | Some _ ->
    let r = fresh_reg t in
    append t (Call (Some r, name, args));
    Some (Reg r)
  | None ->
    append t (Call (None, name, args));
    None

let call_val t name args =
  let r = fresh_reg t in
  append t (Call (Some r, name, args));
  Reg r

let call_void t name args = append t (Call (None, name, args))

let call_indirect_void t callee args = append t (Call_indirect (None, None, callee, args))

let intrinsic t i =
  let r = fresh_reg t in
  append t (Intrinsic (r, i));
  Reg r

let thread_id t = intrinsic t Thread_id
let block_id t = intrinsic t Block_id
let block_dim t = intrinsic t Block_dim
let grid_dim t = intrinsic t Grid_dim

let barrier t ~aligned = append t (Barrier { aligned })

let atomic t ?(dst = false) op typ addr ops =
  if dst then begin
    let r = fresh_reg t in
    append t (Atomic (Some r, op, typ, addr, ops));
    Some (Reg r)
  end
  else begin
    append t (Atomic (None, op, typ, addr, ops));
    None
  end

let atomic_add t typ addr v = ignore (atomic t ~dst:false Atomic_add typ addr [ v ])

let assume t cond = append t (Assume cond)
let trap t msg = append t (Trap msg)

let malloc t size =
  let r = fresh_reg t in
  append t (Malloc (r, size));
  Reg r

let free t p = append t (Free p)

let debug_print t msg ops = append t (Debug_print (msg, ops))

let ret t o = terminate t (Ret o)
let br t l = terminate t (Br l)
let cond_br t c l1 l2 = terminate t (Cond_br (c, l1, l2))
let unreachable t = terminate t Unreachable

let phi t typ incoming =
  match (ctx t).fc_current with
  | Some (_, phis, insts, _) ->
    if !insts <> [] then ir_error "phi after non-phi instruction";
    let r = fresh_reg t in
    phis := { phi_reg = r; phi_typ = typ; phi_incoming = incoming } :: !phis;
    Reg r
  | None -> ir_error "no current block"

(* Structured helper: if-then-else on [cond]; [then_] and [else_] emit the
   branch bodies (and must leave their blocks unterminated, or terminate
   them with returns). Execution joins in a fresh block. *)
let if_then_else t cond ~then_ ~else_ =
  let lt = fresh_label t "then" in
  let lf = fresh_label t "else" in
  let lj = fresh_label t "join" in
  cond_br t cond lt lf;
  set_block t lt;
  then_ ();
  if not (is_terminated t) then br t lj;
  set_block t lf;
  else_ ();
  if not (is_terminated t) then br t lj;
  set_block t lj

let if_then t cond ~then_ =
  if_then_else t cond ~then_ ~else_:(fun () -> ())

(* Structured counted loop: for (iv = lo; iv < hi; iv += step) body iv.
   Emits a pre-checked loop with a phi for the induction variable. *)
let for_loop t ~lo ~hi ~step ~body =
  let lhead = fresh_label t "loop.head" in
  let lbody = fresh_label t "loop.body" in
  let lexit = fresh_label t "loop.exit" in
  let pred = current_label t in
  br t lhead;
  set_block t lhead;
  (* The phi's latch incoming is patched by re-creating it below; instead we
     build the phi with both incomings up-front using a forward register. *)
  let c = ctx t in
  let iv_reg = c.fc_next_reg in
  c.fc_next_reg <- iv_reg + 1;
  let next_reg = ref None in
  (* placeholder for latch value; filled after body is emitted *)
  let latch_label = fresh_label t "loop.latch" in
  (match c.fc_current with
  | Some (_, phis, _, _) ->
    phis :=
      { phi_reg = iv_reg; phi_typ = I64;
        phi_incoming = [ (pred, lo); (latch_label, Reg (iv_reg + 1)) ] }
      :: !phis;
    (* reserve iv_reg+1 for the increment *)
    c.fc_next_reg <- iv_reg + 2;
    next_reg := Some (iv_reg + 1)
  | None -> assert false);
  let iv = Reg iv_reg in
  let cont = icmp t Slt iv hi in
  cond_br t cont lbody lexit;
  set_block t lbody;
  body iv;
  if not (is_terminated t) then br t latch_label;
  set_block t latch_label;
  (match !next_reg with
  | Some r -> append t (Binop (r, Add, iv, step))
  | None -> assert false);
  br t lhead;
  set_block t lexit;
  iv
