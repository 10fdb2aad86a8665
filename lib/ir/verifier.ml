(* Structural and SSA well-formedness checks. Run after construction and
   between optimization passes in the test suite; the virtual GPU assumes
   verified input. *)

open Types
module SSet = Cfg.SSet

type violation = { v_func : string; v_msg : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.v_func v.v_msg

let verify_func (m : modul) (f : func) : violation list =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := { v_func = f.f_name; v_msg = s } :: !errs) fmt in
  (* unique labels *)
  let labels = List.map (fun b -> b.b_label) f.f_blocks in
  let lset = SSet.of_list labels in
  if List.length labels <> SSet.cardinal lset then err "duplicate block labels";
  (* terminator targets exist *)
  List.iter
    (fun b ->
      List.iter
        (fun s -> if not (SSet.mem s lset) then err "block %s branches to unknown %s" b.b_label s)
        (term_succs b.b_term))
    f.f_blocks;
  (* single definition per register *)
  let defs = func_defs f in
  let dset = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if Hashtbl.mem dset r then err "register %%%d defined more than once" r
      else Hashtbl.replace dset r ())
    defs;
  (* entry block has no phis *)
  (match f.f_blocks with
  | b :: _ when b.b_phis <> [] -> err "entry block %s has phis" b.b_label
  | _ -> ());
  (* phi incoming labels = CFG predecessors *)
  let cfg = Cfg.of_func f in
  List.iter
    (fun b ->
      let preds = SSet.of_list (Cfg.preds cfg b.b_label) in
      List.iter
        (fun p ->
          let inc = SSet.of_list (List.map fst p.phi_incoming) in
          if not (SSet.equal inc preds) && Cfg.is_reachable cfg b.b_label then
            err "phi %%%d in %s: incoming {%s} but preds {%s}" p.phi_reg b.b_label
              (String.concat "," (SSet.elements inc))
              (String.concat "," (SSet.elements preds)))
        b.b_phis)
    f.f_blocks;
  (* defs dominate uses (reachable blocks only) *)
  let dom = Dominance.dominators cfg in
  (* def location: block label and index within the block; params/phis get
     index -1 (beginning of block / entry) *)
  let def_loc = Hashtbl.create 64 in
  let entry = (entry_block f).b_label in
  List.iter (fun (r, _) -> Hashtbl.replace def_loc r (entry, -1)) f.f_params;
  List.iter
    (fun b ->
      List.iter (fun p -> Hashtbl.replace def_loc p.phi_reg (b.b_label, -1)) b.b_phis;
      List.iteri
        (fun i inst ->
          match inst_def inst with
          | Some r -> Hashtbl.replace def_loc r (b.b_label, i)
          | None -> ())
        b.b_insts)
    f.f_blocks;
  let check_use ~use_block ~use_idx o =
    List.iter
      (fun r ->
        match Hashtbl.find_opt def_loc r with
        | None -> err "use of undefined register %%%d in %s" r use_block
        | Some (def_block, def_idx) ->
          if def_block = use_block then begin
            if def_idx >= use_idx then
              err "register %%%d used before its definition in %s" r use_block
          end
          else if
            Dominance.in_tree dom def_block && Dominance.in_tree dom use_block
            && not (Dominance.dominates dom def_block use_block)
          then err "definition of %%%d (%s) does not dominate use (%s)" r def_block use_block)
      (operand_regs o)
  in
  List.iter
    (fun b ->
      if Cfg.is_reachable cfg b.b_label then begin
        (* phi operands are checked against the incoming edge: def must
           dominate the predecessor's end *)
        List.iter
          (fun p ->
            List.iter
              (fun (pred, o) ->
                List.iter
                  (fun r ->
                    match Hashtbl.find_opt def_loc r with
                    | None -> err "phi %%%d uses undefined %%%d" p.phi_reg r
                    | Some (def_block, _) ->
                      if
                        Dominance.in_tree dom def_block && Dominance.in_tree dom pred
                        && not (Dominance.dominates dom def_block pred)
                      then
                        err "phi %%%d in %s: def of %%%d (%s) does not dominate edge from %s"
                          p.phi_reg b.b_label r def_block pred)
                  (operand_regs o))
              p.phi_incoming)
          b.b_phis;
        List.iteri
          (fun i inst ->
            List.iter (check_use ~use_block:b.b_label ~use_idx:i) (inst_uses inst))
          b.b_insts;
        List.iter
          (check_use ~use_block:b.b_label ~use_idx:(List.length b.b_insts))
          (term_uses b.b_term)
      end)
    f.f_blocks;
  (* referenced globals and direct callees exist *)
  let check_refs o =
    match o with
    | Global_addr g ->
      if find_global m g = None then err "reference to unknown global @%s" g
    | Func_addr fn ->
      if find_func m fn = None then err "reference to unknown function &%s" fn
    | Reg _ | Imm_int _ | Imm_float _ | Undef _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          List.iter check_refs (inst_uses i);
          match i with
          | Call (_, callee, _) ->
            if find_func m callee = None then err "call to unknown function %s" callee
          | _ -> ())
        b.b_insts)
    f.f_blocks;
  List.rev !errs

let verify_module (m : modul) : violation list =
  let dup_globals =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun g ->
        if Hashtbl.mem seen g.g_name then
          Some { v_func = "<module>"; v_msg = "duplicate global " ^ g.g_name }
        else begin
          Hashtbl.replace seen g.g_name ();
          None
        end)
      m.m_globals
  in
  let dup_funcs =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun f ->
        if Hashtbl.mem seen f.f_name then
          Some { v_func = "<module>"; v_msg = "duplicate function " ^ f.f_name }
        else begin
          Hashtbl.replace seen f.f_name ();
          None
        end)
      m.m_funcs
  in
  dup_globals @ dup_funcs @ List.concat_map (verify_func m) m.m_funcs

let check m =
  match verify_module m with
  | [] -> Ok ()
  | vs -> Error vs
