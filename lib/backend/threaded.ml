(* Threaded-code lowering: bridge from the backend's register allocation
   to the engine's closure-array executor.

   The engine runs the *same* instruction stream the resource model
   prices: each function whose allocation needed no spill slots is
   renamed onto its allocated physical registers (an IR-level rewrite
   inside the engine, see [Engine.make_fn_info]), under either executor,
   so its frames hold physical rows only; the `--exec vm` path then
   compiles the decoded instructions into a flat, preallocated closure
   array — classic indirect-threaded code. Functions that spill keep the
   spill-rewritten IR on its virtual registers; the plan simply omits
   them.

   This module computes the rename plans. It deliberately contains no
   execution machinery — the closures live next to the interpreter in
   [Engine] so both executors share counters, faults, sanitizer hooks,
   watchdog polling and per-domain state by construction. *)

module Engine = Ozo_vgpu.Engine
open Ozo_ir.Types

(* Build the virtual→physical rename plan for [f] from its allocation.
   Returns [None] when the allocation spilled: a spilled register has no
   physical home, and the engine runs the spill-rewritten IR for that
   function on its virtual registers instead. *)
let plan_of_alloc (f : func) (ra : Regalloc.result) : Engine.reg_plan option =
  if ra.Regalloc.ra_spilled <> [] then None
  else begin
    let n = max 1 f.f_next_reg in
    let map = Array.make n 0 in
    (* dead registers (no interval) share index 0, mirroring
       [Regalloc.loc]'s default for dead definitions *)
    Hashtbl.iter
      (fun r l ->
        match l with
        | Regalloc.Phys p -> if r >= 0 && r < n then map.(r) <- p
        | Regalloc.Slot _ -> assert false)
      ra.Regalloc.ra_loc;
    let next = ref ra.Regalloc.ra_regs_used in
    (* a parameter the allocator never saw is still *written* at call or
       kernel-argument binding time: give each its own private index so
       the binding store cannot clobber a live register that legitimately
       owns physical index 0 *)
    List.iter
      (fun (r, _) ->
        if not (Hashtbl.mem ra.Regalloc.ra_loc r) then begin
          map.(r) <- !next;
          incr next
        end)
      f.f_params;
    Some { Engine.rp_map = map; rp_nregs = max 1 !next }
  end
