(* Linear-scan register allocation (Poletto & Sarkar) over a finite
   per-thread register file.

   The allocator runs on the optimized SSA IR, one function at a time,
   driven by the liveness analysis the pipeline already computed (and
   cached in the analysis manager — callers pass the cached result in).
   It produces a location for every virtual register: a physical
   register index below the machine's [mc_max_regs_per_thread] budget,
   or a spill slot in the per-thread local-memory frame.

   Live intervals are built over a linearization of the function (blocks
   in layout order, one program point per instruction plus explicit
   block-entry and block-exit points). The entry point of a block
   extends not just the live-in set but also the phi destinations and
   *all* incoming phi sources: during the edge's parallel copy, sources
   and destinations overlap — the same boundary overlap
   [Liveness.max_pressure_with] counts. Intervals are conservative
   [min, max] ranges (holes are not exploited), which is exactly the
   classic linear-scan trade-off.

   Spill heuristic: at each conflict the interval with the furthest end
   point is spilled (it blocks the register file for the longest), which
   is the original linear-scan choice. Every spilled value gets its own
   8-byte slot in the frame; static spill cost (one store after the def,
   one reload per use) is reported so the harness can surface it the way
   ptxas reports spill stores/loads. *)

open Ozo_ir.Types
module Liveness = Ozo_ir.Liveness
module RSet = Liveness.RSet
module SMap = Ozo_ir.Cfg.SMap

type loc = Phys of int | Slot of int

type interval = {
  iv_reg : reg;
  iv_start : int;
  iv_end : int;
  mutable iv_loc : loc;
}

type result = {
  ra_func : string;
  ra_budget : int;                    (* registers available to the scan *)
  ra_loc : (reg, loc) Hashtbl.t;      (* every live vreg's final location *)
  ra_intervals : interval list;       (* sorted by start point *)
  ra_regs_used : int;                 (* distinct physical registers assigned *)
  ra_pressure : int;                  (* max simultaneously live intervals *)
  ra_spilled : reg list;              (* vregs demoted to the frame *)
  ra_frame_bytes : int;               (* local-memory spill frame *)
  ra_spill_stores : int;              (* static: one per spilled def *)
  ra_spill_loads : int;               (* static: one per spilled use site *)
}

let slot_bytes = 8

(* ---------- interval construction ------------------------------------- *)

let operand_regs_set ops =
  List.fold_left
    (fun acc o ->
      List.fold_left (fun acc r -> RSet.add r acc) acc (operand_regs o))
    RSet.empty ops

let build_intervals (lv : Liveness.t) (f : func) : interval list =
  let lo : (reg, int) Hashtbl.t = Hashtbl.create 64 in
  let hi : (reg, int) Hashtbl.t = Hashtbl.create 64 in
  let touch p r =
    (match Hashtbl.find_opt lo r with
    | Some v when v <= p -> ()
    | _ -> Hashtbl.replace lo r p);
    match Hashtbl.find_opt hi r with
    | Some v when v >= p -> ()
    | _ -> Hashtbl.replace hi r p
  in
  let touch_set p s = RSet.iter (fun r -> touch p r) s in
  let point = ref 0 in
  let next () =
    let p = !point in
    incr point;
    p
  in
  List.iter
    (fun b ->
      let live_in =
        Option.value ~default:RSet.empty (SMap.find_opt b.b_label lv.Liveness.live_in)
      in
      let live_out =
        Option.value ~default:RSet.empty (SMap.find_opt b.b_label lv.Liveness.live_out)
      in
      (* block entry: live-through values, phi destinations and every
         incoming phi source overlap here (the parallel-copy moment) *)
      let entry = next () in
      touch_set entry live_in;
      List.iter
        (fun p ->
          touch entry p.phi_reg;
          List.iter (fun (_, o) -> touch_set entry (operand_regs_set [ o ])) p.phi_incoming)
        b.b_phis;
      (* per-instruction points: the def is born at its point; uses must
         survive up to it. Live-through values are pinned by the entry
         and exit points, so per-point live sets are not needed here. *)
      List.iter
        (fun i ->
          let p = next () in
          (match inst_def i with Some r -> touch p r | None -> ());
          touch_set p (operand_regs_set (inst_uses i)))
        b.b_insts;
      (* block exit: terminator operands and everything live out *)
      let exit_ = next () in
      touch_set exit_ (operand_regs_set (term_uses b.b_term));
      touch_set exit_ live_out)
    f.f_blocks;
  let ivs =
    Hashtbl.fold
      (fun r s acc ->
        { iv_reg = r; iv_start = s; iv_end = Hashtbl.find hi r; iv_loc = Phys (-1) }
        :: acc)
      lo []
  in
  List.sort
    (fun a b ->
      match compare a.iv_start b.iv_start with 0 -> compare a.iv_reg b.iv_reg | c -> c)
    ivs

(* ---------- the scan --------------------------------------------------- *)

(* Count each spilled register's static spill code: one store per def
   (params and phis included) and one reload per instruction, terminator
   or phi-edge that reads it. *)
let static_spill_counts (f : func) (spilled : RSet.t) =
  let stores = ref 0 and loads = ref 0 in
  let count_uses ops =
    let used = RSet.inter (operand_regs_set ops) spilled in
    loads := !loads + RSet.cardinal used
  in
  List.iter (fun (r, _) -> if RSet.mem r spilled then incr stores) f.f_params;
  List.iter
    (fun b ->
      List.iter
        (fun p ->
          if RSet.mem p.phi_reg spilled then incr stores;
          List.iter (fun (_, o) -> count_uses [ o ]) p.phi_incoming)
        b.b_phis;
      List.iter
        (fun i ->
          (match inst_def i with
          | Some r when RSet.mem r spilled -> incr stores
          | _ -> ());
          count_uses (inst_uses i))
        b.b_insts;
      count_uses (term_uses b.b_term))
    f.f_blocks;
  (!stores, !loads)

let run ?(budget = 255) (lv : Liveness.t) (f : func) : result =
  let budget = max 1 budget in
  let intervals = build_intervals lv f in
  let loc_of : (reg, loc) Hashtbl.t = Hashtbl.create 64 in
  (* free set: one occupancy flag per physical register. [take] hands out
     the lowest free index so reg indices stay dense; [lowest] is a lower
     bound on it, so neither operation allocates or sorts. *)
  let busy = Bytes.make budget '\000' in
  let lowest = ref 0 in
  let take () =
    let r = ref !lowest in
    while Bytes.get busy !r <> '\000' do
      incr r
    done;
    Bytes.set busy !r '\001';
    lowest := !r + 1;
    !r
  in
  let give r =
    Bytes.set busy r '\000';
    if r < !lowest then lowest := r
  in
  (* active intervals sorted by increasing end point, and their count *)
  let active = ref [] in
  let n_active = ref 0 in
  let insert_active iv =
    let rec go = function
      | [] -> [ iv ]
      | a :: rest as l -> if iv.iv_end <= a.iv_end then iv :: l else a :: go rest
    in
    active := go !active;
    incr n_active
  in
  let regs_used = ref 0 in
  let pressure = ref 0 in
  let slots = ref 0 in
  let spilled = ref RSet.empty in
  let assign_phys iv =
    let r = take () in
    iv.iv_loc <- Phys r;
    regs_used := max !regs_used (r + 1);
    insert_active iv
  in
  let assign_slot iv =
    let s = !slots in
    incr slots;
    iv.iv_loc <- Slot s;
    spilled := RSet.add iv.iv_reg !spilled
  in
  List.iter
    (fun iv ->
      (* expire intervals that ended before this one starts *)
      let rec expire = function
        | a :: rest when a.iv_end < iv.iv_start ->
          (match a.iv_loc with Phys r -> give r | Slot _ -> ());
          decr n_active;
          expire rest
        | l -> l
      in
      active := expire !active;
      pressure := max !pressure (!n_active + 1);
      if !n_active < budget then assign_phys iv
      else begin
        (* furthest-end heuristic: spill whichever of {the active set,
           the new interval} is live the longest *)
        match List.rev !active with
        | last :: _ when last.iv_end > iv.iv_end ->
          let phys = match last.iv_loc with Phys r -> r | Slot _ -> assert false in
          assign_slot last;
          active := List.filter (fun a -> a != last) !active;
          decr n_active;
          give phys;
          assign_phys iv
        | _ -> assign_slot iv
      end)
    intervals;
  List.iter (fun iv -> Hashtbl.replace loc_of iv.iv_reg iv.iv_loc) intervals;
  let stores, loads = static_spill_counts f !spilled in
  { ra_func = f.f_name;
    ra_budget = budget;
    ra_loc = loc_of;
    ra_intervals = intervals;
    ra_regs_used = !regs_used;
    ra_pressure = !pressure;
    ra_spilled = RSet.elements !spilled;
    ra_frame_bytes = !slots * slot_bytes;
    ra_spill_stores = stores;
    ra_spill_loads = loads }

let loc r t =
  match Hashtbl.find_opt t.ra_loc r with
  | Some l -> l
  | None -> Phys 0 (* dead register: never live, any location works *)
