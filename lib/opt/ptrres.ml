(* Pointer resolution: trace an operand back to the memory objects it may
   point into, with byte offsets where they are constant.

   This is the foundation of the field-sensitive access analysis (paper
   Section IV-B1): accesses are binned by (object, offset, size), and the
   conditional-pointer broadcast idiom (select between a real slot and the
   dummy sink, Fig. 7b) resolves to a *known set* of targets instead of
   "unknown", which is what keeps the analysis field-sensitive in the
   presence of guarded writes. *)

open Ozo_ir.Types

type obj =
  | Glob of string (* module global *)
  | Alc of reg     (* alloca in the current function *)

type tgt = { t_obj : obj; t_off : int option (* None = unknown offset *) }

type res =
  | Known of tgt list (* may point into exactly these objects *)
  | Unknown

let shift off delta =
  match (off, delta) with Some o, Some d -> Some (o + d), true | _ -> None, true

type defs = (reg, inst) Hashtbl.t

let build_defs (f : func) : defs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i -> match inst_def i with Some r -> Hashtbl.replace t r i | None -> ())
        b.b_insts)
    f.f_blocks;
  t

let as_const = function Imm_int (v, _) -> Some (Int64.to_int v) | _ -> None

(* Resolve [o] to its may-point-to targets. Bounded depth keeps this
   linear in practice (chains of ptradds). *)
let resolve (defs : defs) (o : operand) : res =
  let rec go depth o =
    if depth > 64 then Unknown
    else
      match o with
      | Global_addr g -> Known [ { t_obj = Glob g; t_off = Some 0 } ]
      | Reg r -> (
        match Hashtbl.find_opt defs r with
        | Some (Alloca (_, _)) -> Known [ { t_obj = Alc r; t_off = Some 0 } ]
        | Some (Ptradd (_, base, off)) -> (
          match go (depth + 1) base with
          | Unknown -> Unknown
          | Known ts ->
            let delta = as_const off in
            Known
              (List.map
                 (fun t ->
                   match (t.t_off, delta) with
                   | Some o, Some d -> { t with t_off = Some (o + d) }
                   | _ -> { t with t_off = None })
                 ts))
        | Some (Select (_, _, _, a, b)) -> (
          match (go (depth + 1) a, go (depth + 1) b) with
          | Known ta, Known tb -> Known (ta @ tb)
          | _ -> Unknown)
        | _ -> Unknown)
      | Imm_int _ | Imm_float _ | Func_addr _ | Undef _ -> Unknown
  in
  ignore shift;
  go 0 o
