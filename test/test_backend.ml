(* Backend (late lowering) tests.

   Three properties pin the new subsystem:

   - allocator correctness: compiling under a deliberately tiny register
     budget forces spills, and the spilled module must still pass every
     proxy's differential check — spilled execution is bit-identical to
     unlimited-register execution (both equal the host reference);
   - SMem layout: the compile-time layout never overlaps slots and
     matches what the engine actually assigns at launch, byte for byte;
   - occupancy: the calculator reproduces hand-computed A100 limits for
     each limiting resource, and under the [vgpu] descriptor degenerates
     to exactly the cost model's original formula.

   Plus the acceptance direction: for every proxy the full pipeline
   reports fewer registers and less SMem than baseline. And the
   allocator's free set is pinned twice: decision for decision against a
   sorted-list reference, and by a ceiling on the backend's allocation
   per compile. *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Registry = Ozo_proxies.Registry
module Proxy = Ozo_proxies.Proxy
module Machine = Ozo_backend.Machine
module Smem = Ozo_backend.Smem
module Backend = Ozo_backend.Lower
module Vm = Ozo_backend.Vm
module Regalloc = Ozo_backend.Regalloc
module Pipeline = Ozo_opt.Pipeline
module Cost = Ozo_vgpu.Cost
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
module Liveness = Ozo_ir.Liveness
module RSet = Liveness.RSet
module Irgen = Ozo_resilience.Irgen

(* compile + run one proxy/build, failing the test on any fault *)
let run_build ?(machine = Machine.vgpu) (p : Proxy.t) (b : C.build) =
  let k = Proxy.kernel_for p b.C.b_abi in
  let r =
    C.Request.make ~machine ~build:b ~teams:p.Proxy.p_teams
      ~threads:p.Proxy.p_threads ()
  in
  let c = C.compile_request r k in
  let dev = C.device_request r c in
  let inst = p.Proxy.p_setup dev in
  match C.launch_request r c dev inst.Proxy.i_args with
  | Error f ->
    Alcotest.failf "%s/%s: launch fault: %s" p.Proxy.p_name b.C.b_label
      (Ozo_vgpu.Fault.to_line f)
  | Ok m -> (c, m, inst.Proxy.i_check ())

let check_ok what p (b : C.build) = function
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s/%s: %s check failed: %s" p.Proxy.p_name b.C.b_label what e

(* builds covering all three code shapes: generic mode (opaque old
   runtime), SPMD mode (co-designed runtime), and runtime-free CUDA *)
let coverage_builds p = [ C.old_rt_nightly; E.new_rt_for p; C.cuda ]

(* --- allocator: spilled == unlimited ---------------------------------------- *)

let spill_budget = 8

let test_spill_bit_identity () =
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          let _, _, check = run_build p b in
          check_ok "unlimited-register" p b check;
          let tiny = Machine.with_reg_budget spill_budget Machine.vgpu in
          let c, m, check' = run_build ~machine:tiny p b in
          check_ok "spilled" p b check';
          (* the tiny budget must actually have forced spills (every proxy
             kernel needs more than [spill_budget] registers somewhere) *)
          if C.spill_count c = 0 then
            Alcotest.failf "%s/%s: budget %d forced no spills" p.Proxy.p_name
              b.C.b_label spill_budget;
          if c.C.c_lower.Backend.lw_frame_bytes = 0 then
            Alcotest.failf "%s/%s: spills but no frame" p.Proxy.p_name
              b.C.b_label;
          (* spill traffic must flow through the engine's local-memory
             path, not vanish into the cost model *)
          if m.C.m_counters.Counters.local_accesses = 0 then
            Alcotest.failf "%s/%s: spilled run performed no local accesses"
              p.Proxy.p_name b.C.b_label;
          if m.C.m_spills <> C.spill_count c then
            Alcotest.failf "%s/%s: metrics spills %d <> static count %d"
              p.Proxy.p_name b.C.b_label m.C.m_spills (C.spill_count c))
        (coverage_builds p))
    (Registry.all_small ())

(* the allocator must respect its budget: every physical register index
   it hands out (including the VM emitter's scratches) stays under
   budget + scratch headroom, and no interval is both Phys and spilled *)
let test_allocator_budget_respected () =
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      let tiny = Machine.with_reg_budget spill_budget Machine.vgpu in
      let k = Proxy.kernel_for p b.C.b_abi in
      let c = C.compile ~machine:tiny b k in
      List.iter
        (fun fl ->
          let ra = fl.Backend.fl_ra in
          Hashtbl.iter
            (fun r loc ->
              match loc with
              | Regalloc.Phys n ->
                if n >= spill_budget then
                  Alcotest.failf "%s/%s: r%d got phys %d >= budget %d"
                    p.Proxy.p_name fl.Backend.fl_func r n spill_budget
              | Regalloc.Slot _ ->
                if not (List.mem r ra.Regalloc.ra_spilled) then
                  Alcotest.failf "%s/%s: r%d has a slot but is not in ra_spilled"
                    p.Proxy.p_name fl.Backend.fl_func r)
            ra.Regalloc.ra_loc)
        c.C.c_lower.Backend.lw_funcs)
    (Registry.all_small ())

(* --- allocator: free-set oracle ----------------------------------------------- *)

(* The linear scan with its original free set: a sorted list, re-sorted
   on every release. [Regalloc.run] must make the same decision at every
   step, so this reference returns everything those decisions determine:
   the sorted (vreg, location) map, registers used, pressure and spills. *)
let reference_alloc ~budget (lv : Liveness.t) (f : Ozo_ir.Types.func) =
  let open Regalloc in
  let budget = max 1 budget in
  let intervals = build_intervals lv f in
  let free = ref (List.init budget (fun i -> i)) in
  let take () =
    match !free with
    | r :: rest ->
      free := rest;
      r
    | [] -> assert false
  in
  let give r = free := List.sort compare (r :: !free) in
  let active = ref [] in
  let insert_active iv =
    let rec go = function
      | [] -> [ iv ]
      | a :: rest as l -> if iv.iv_end <= a.iv_end then iv :: l else a :: go rest
    in
    active := go !active
  in
  let regs_used = ref 0 and pressure = ref 0 and slots = ref 0 in
  let spilled = ref RSet.empty in
  let assign_phys iv =
    let r = take () in
    iv.iv_loc <- Phys r;
    regs_used := max !regs_used (r + 1);
    insert_active iv
  in
  let assign_slot iv =
    iv.iv_loc <- Slot !slots;
    incr slots;
    spilled := RSet.add iv.iv_reg !spilled
  in
  List.iter
    (fun iv ->
      let rec expire = function
        | a :: rest when a.iv_end < iv.iv_start ->
          (match a.iv_loc with Phys r -> give r | Slot _ -> ());
          expire rest
        | l -> l
      in
      active := expire !active;
      pressure := max !pressure (List.length !active + 1);
      if List.length !active < budget then assign_phys iv
      else
        match List.rev !active with
        | last :: _ when last.iv_end > iv.iv_end ->
          let phys = match last.iv_loc with Phys r -> r | Slot _ -> assert false in
          assign_slot last;
          active := List.filter (fun a -> a != last) !active;
          give phys;
          assign_phys iv
        | _ -> assign_slot iv)
    intervals;
  let locs =
    List.sort compare (List.map (fun iv -> (iv.iv_reg, iv.iv_loc)) intervals)
  in
  (locs, !regs_used, !pressure, RSet.elements !spilled)

let check_against_reference what ~budget (f : Ozo_ir.Types.func) =
  let lv = Liveness.analyse f in
  let ra = Regalloc.run ~budget lv f in
  let locs =
    List.sort compare (Hashtbl.fold (fun r l acc -> (r, l) :: acc) ra.Regalloc.ra_loc [])
  in
  let actual =
    (locs, ra.Regalloc.ra_regs_used, ra.Regalloc.ra_pressure, ra.Regalloc.ra_spilled)
  in
  if actual <> reference_alloc ~budget lv f then
    Alcotest.failf "%s/%s at budget %d: allocation differs from the sorted-list reference"
      what f.Ozo_ir.Types.f_name budget

let oracle_machines = [ Machine.vgpu; Machine.mi250; Machine.h100 ]

let test_regalloc_oracle_proxies () =
  List.iter
    (fun p ->
      List.iter
        (fun (b : C.build) ->
          List.iter
            (fun (machine : Machine.t) ->
              let what =
                Printf.sprintf "%s/%s/%s" p.Proxy.p_name b.C.b_label
                  machine.Machine.mc_name
              in
              let k = Proxy.kernel_for p b.C.b_abi in
              let optimized = Pipeline.run b.C.b_pipe (C.link_stage ~machine b k) in
              let check_module ~budget m =
                List.iter (check_against_reference what ~budget) m.Ozo_ir.Types.m_funcs
              in
              check_module ~budget:machine.Machine.mc_max_regs_per_thread optimized;
              check_module ~budget:spill_budget optimized;
              (* the spill-rewritten bodies are allocated again for the
                 executor's rename plans *)
              let lowered =
                Backend.run
                  ~machine:(Machine.with_reg_budget spill_budget machine)
                  optimized ~kernel:k.Ozo_frontend.Ast.k_name
              in
              check_module ~budget:spill_budget lowered.Backend.lw_module)
            oracle_machines)
        C.standard_builds)
    (Registry.all_small ())

let test_regalloc_oracle_irgen () =
  for seed = 1 to 200 do
    let m = Irgen.generate ~seed in
    List.iter
      (fun budget ->
        List.iter
          (check_against_reference (Printf.sprintf "irgen seed %d" seed) ~budget)
          m.Ozo_ir.Types.m_funcs)
      [ 255; spill_budget; 1 ]
  done

(* --- allocator: allocation ceiling ------------------------------------------ *)

(* The backend's allocation per compile is gated like a counter: each
   small proxy's full build lowers in 40-140 KB, while a per-release sort
   of the free set costs several MB. The count is exact only while no minor
   collection runs inside the window (a collection triggered early adds
   the unused rest of the minor heap), hence the [Gc.minor] first: a run
   far below the ceiling then never reaches a collection, and one that
   does is over the ceiling anyway. *)
let backend_alloc_ceiling = 1_000_000.

let test_backend_alloc_ceiling () =
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      let k = Proxy.kernel_for p b.C.b_abi in
      let optimized = Pipeline.run b.C.b_pipe (C.link_stage b k) in
      Gc.minor ();
      let a0 = Gc.allocated_bytes () in
      ignore (Backend.run optimized ~kernel:k.Ozo_frontend.Ast.k_name);
      let bytes = Gc.allocated_bytes () -. a0 in
      if bytes > backend_alloc_ceiling then
        Alcotest.failf "%s/%s: Backend.run allocated %.0f bytes (ceiling %.0f)"
          p.Proxy.p_name b.C.b_label bytes backend_alloc_ceiling)
    (Registry.all_small ())

(* --- SMem layout ------------------------------------------------------------ *)

let test_smem_layout () =
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          let k = Proxy.kernel_for p b.C.b_abi in
          let c = C.compile b k in
          let l = c.C.c_lower.Backend.lw_layout in
          (match Smem.check_non_overlap l with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s/%s: layout overlap: %s" p.Proxy.p_name
              b.C.b_label e);
          (* raw footprint matches the engine's public accounting *)
          Alcotest.(check int)
            (p.Proxy.p_name ^ "/" ^ b.C.b_label ^ " raw bytes")
            (Engine.shared_bytes c.C.c_module)
            l.Smem.ly_raw;
          (* aligned total matches what the engine assigns at launch *)
          let mem = Ozo_vgpu.Memory.create ~threads_per_team:32 in
          let _, _, engine_off = Engine.assign_addresses mem c.C.c_module in
          Alcotest.(check int)
            (p.Proxy.p_name ^ "/" ^ b.C.b_label ^ " aligned total")
            engine_off l.Smem.ly_total;
          (* the runtime/globalized split partitions the raw bytes *)
          Alcotest.(check int)
            (p.Proxy.p_name ^ "/" ^ b.C.b_label ^ " origin split")
            l.Smem.ly_raw
            (l.Smem.ly_runtime + l.Smem.ly_globalized))
        (coverage_builds p))
    (Registry.all_small ())

(* --- occupancy: hand-computed A100 cases ------------------------------------ *)

let occ = Machine.occupancy

let check_occ name (o : Machine.occupancy) ~teams ~frac ~limiter =
  Alcotest.(check int) (name ^ ": teams/SM") teams o.Machine.occ_teams_per_sm;
  Alcotest.(check (float 1e-9)) (name ^ ": fraction") frac o.Machine.occ_fraction;
  Alcotest.(check string)
    (name ^ ": limiter")
    (Machine.limiter_name limiter)
    (Machine.limiter_name o.Machine.occ_limiter)

let test_occupancy_a100 () =
  let m = Machine.a100 in
  (* 128 threads x 32 regs, no SMem: 16 blocks of 4 warps fill all 2048
     threads; regs take 4 x roundup(32*32, 256) = 4096 of 65536, not
     binding. Thread-bound at full occupancy. *)
  check_occ "128thr/32regs"
    (occ m ~threads_per_team:128 ~regs_per_thread:32 ~shared_per_team:0)
    ~teams:16 ~frac:1.0 ~limiter:Machine.Threads;
  (* 256 threads x 255 regs: one team takes 8 x roundup(255*32, 256)
     = 8 x 8192 = 65536 registers — the whole file. 1 block resident,
     256/2048 = 12.5% occupancy, register-bound. *)
  check_occ "256thr/255regs"
    (occ m ~threads_per_team:256 ~regs_per_thread:255 ~shared_per_team:0)
    ~teams:1 ~frac:0.125 ~limiter:Machine.Registers;
  (* 128 threads x 32 regs x 48 KB SMem: 164 KB / 48 KB = 3 blocks,
     3*128/2048 = 18.75%, SMem-bound. *)
  check_occ "128thr/48KB"
    (occ m ~threads_per_team:128 ~regs_per_thread:32
       ~shared_per_team:(48 * 1024))
    ~teams:3 ~frac:0.1875 ~limiter:Machine.Smem;
  (* 32 threads x 8 regs: threads would allow 64 blocks but the SM caps
     at 32 resident blocks; 32*32/2048 = 50%, block-limit-bound. *)
  check_occ "32thr/8regs"
    (occ m ~threads_per_team:32 ~regs_per_thread:8 ~shared_per_team:0)
    ~teams:32 ~frac:0.5 ~limiter:Machine.Teams;
  (* warp-granular register allocation: 100 threads round to 4 warps,
     1 reg/thread rounds to 256 regs/warp -> 1024 per team, 64 teams by
     regs; warps bind first (64 warps / 4 = 16). *)
  check_occ "100thr/1reg"
    (occ m ~threads_per_team:100 ~regs_per_thread:1 ~shared_per_team:0)
    ~teams:16 ~frac:(float_of_int (16 * 100) /. 2048.0)
    ~limiter:Machine.Warps;
  (* SMem allocation unit: 1 byte reserves a full 1 KB block *)
  Alcotest.(check int) "smem alloc unit" 1024 (Machine.team_smem m ~shared_per_team:1);
  Alcotest.(check int) "reg alloc unit" 1024
    (Machine.team_registers m ~threads_per_team:100 ~regs_per_thread:1)

(* --- occupancy: the portability descriptors (v100 / mi250 / h100) ---------- *)

let test_occupancy_portfolio () =
  (* v100, 128 threads x 32 regs x 33000 B SMem: SMem rounds to
     129 x 256 = 33024 B, and 98304 / 33024 = 2 blocks — SMem-bound at
     2*128/2048 = 12.5%. The same shape on the A100 (164 KB, 1 KB unit)
     fits 4 blocks: capacity and granularity both differ. *)
  check_occ "v100 128thr/33000B"
    (occ Machine.v100 ~threads_per_team:128 ~regs_per_thread:32
       ~shared_per_team:33000)
    ~teams:2 ~frac:0.125 ~limiter:Machine.Smem;
  check_occ "a100 128thr/33000B"
    (occ Machine.a100 ~threads_per_team:128 ~regs_per_thread:32
       ~shared_per_team:33000)
    ~teams:4 ~frac:0.25 ~limiter:Machine.Smem;
  (* wavefront-width rounding: 96 threads are 2 wavefronts on the
     64-wide MI250 but 3 warps on the 32-wide V100. MI250: 32 waves / 2
     = 16 resident groups, tied with the 16-workgroup CU ceiling — the
     wave bound binds first in enumeration order. V100: thread bound
     2048/96 = 21 binds (warp bound ties at 64/3 = 21). *)
  check_occ "mi250 96thr/17regs"
    (occ Machine.mi250 ~threads_per_team:96 ~regs_per_thread:17
       ~shared_per_team:0)
    ~teams:16 ~frac:0.75 ~limiter:Machine.Warps;
  check_occ "v100 96thr/17regs"
    (occ Machine.v100 ~threads_per_team:96 ~regs_per_thread:17
       ~shared_per_team:0)
    ~teams:21
    ~frac:(float_of_int (21 * 96) /. 2048.0)
    ~limiter:Machine.Threads;
  (* MI250 workgroup ceiling: one wavefront of 8 regs leaves threads
     (32), waves (32) and VGPRs (256) slack, but only 16 workgroups may
     be resident per CU. *)
  check_occ "mi250 64thr/8regs"
    (occ Machine.mi250 ~threads_per_team:64 ~regs_per_thread:8
       ~shared_per_team:0)
    ~teams:16 ~frac:0.5 ~limiter:Machine.Teams;
  (* H100 SMem capacity: a 100 KB team fits twice in 228 KB (unit 1024
     divides it exactly); on the A100 the same team fits once. *)
  check_occ "h100 256thr/100KB"
    (occ Machine.h100 ~threads_per_team:256 ~regs_per_thread:32
       ~shared_per_team:(100 * 1024))
    ~teams:2 ~frac:0.25 ~limiter:Machine.Smem;
  check_occ "a100 256thr/100KB"
    (occ Machine.a100 ~threads_per_team:256 ~regs_per_thread:32
       ~shared_per_team:(100 * 1024))
    ~teams:1 ~frac:0.125 ~limiter:Machine.Smem;
  (* MI250 allocation granularities: 100 threads = 2 waves, 1 VGPR
     rounds to 512 per wave; 1 byte of LDS reserves a 512 B block *)
  Alcotest.(check int) "mi250 reg alloc unit" 1024
    (Machine.team_registers Machine.mi250 ~threads_per_team:100
       ~regs_per_thread:1);
  Alcotest.(check int) "mi250 smem alloc unit" 512
    (Machine.team_smem Machine.mi250 ~shared_per_team:1)

(* one shape, one resource vector — a different limiter on each side of
   the CDNA/Hopper divide. 256 threads x 64 regs x 16 KB SMem:

   - v100/h100 (32-wide, 64K regs, unit 256): 8 warps x
     roundup(64*32, 256) = 8 x 2048 = 16384 regs/team, 65536/16384 = 4
     — register-bound (SMem would allow 6 on v100, 14 on h100).
   - mi250 (64-wide, 128K VGPRs, unit 512): 4 waves x
     roundup(64*64, 512) = 4 x 4096 = 16384 VGPRs/team, 131072/16384
     = 8 — registers slack, but 65536/16384 = 4 LDS blocks bind.

   Same resident-team count, opposite limiting resource: exactly the
   cross-machine effect the tuner's limiter column must surface. *)
let test_limiter_flip () =
  let shape m =
    occ m ~threads_per_team:256 ~regs_per_thread:64 ~shared_per_team:16384
  in
  check_occ "v100 flip" (shape Machine.v100) ~teams:4 ~frac:0.5
    ~limiter:Machine.Registers;
  check_occ "h100 flip" (shape Machine.h100) ~teams:4 ~frac:0.5
    ~limiter:Machine.Registers;
  check_occ "mi250 flip" (shape Machine.mi250) ~teams:4 ~frac:0.5
    ~limiter:Machine.Smem

(* under the [vgpu] descriptor the calculator must agree exactly with the
   cost model's original occupancy (granularity 1), so default builds are
   bit-identical to the pre-backend engine *)
let test_occupancy_vgpu_parity () =
  let p = Cost.default in
  List.iter
    (fun threads ->
      List.iter
        (fun regs ->
          List.iter
            (fun smem ->
              let old_ = Cost.occupancy p ~threads_per_team:threads
                  ~regs_per_thread:regs ~shared_per_team:smem in
              let nw =
                Machine.to_cost_occupancy
                  (occ Machine.vgpu ~threads_per_team:threads
                     ~regs_per_thread:regs ~shared_per_team:smem)
              in
              if old_ <> nw then
                Alcotest.failf
                  "vgpu parity broken at threads=%d regs=%d smem=%d: \
                   %d teams %.4f vs %d teams %.4f"
                  threads regs smem old_.Cost.o_teams_per_sm
                  old_.Cost.o_occupancy nw.Cost.o_teams_per_sm
                  nw.Cost.o_occupancy)
            [ 0; 8; 2336; 11344; 49152; 120 * 1024 ])
        [ 1; 8; 16; 17; 32; 64; 255 ])
    [ 32; 64; 96; 128; 256; 1024; 2048 ]

(* --- acceptance direction: full vs baseline --------------------------------- *)

let test_full_beats_baseline () =
  List.iter
    (fun p ->
      let b = E.new_rt_for p in
      let resources pipe =
        let b = { b with C.b_pipe = pipe } in
        let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
        (c.C.c_regs, c.C.c_smem)
      in
      let regs_b, smem_b = resources Pipeline.baseline in
      let regs_f, smem_f = resources Pipeline.full in
      if not (regs_f < regs_b) then
        Alcotest.failf "%s: full regs %d not < baseline regs %d" p.Proxy.p_name
          regs_f regs_b;
      if not (smem_f < smem_b) then
        Alcotest.failf "%s: full smem %d not < baseline smem %d" p.Proxy.p_name
          smem_f smem_b)
    (Registry.all_small ())

(* --- VM program sanity ------------------------------------------------------- *)

(* the VM form must cover every block of every function, and under a
   spill-forcing budget actually contain reload/spill instructions *)
let test_vm_form () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let tiny = Machine.with_reg_budget spill_budget Machine.vgpu in
  let c = C.compile ~machine:tiny b (Proxy.kernel_for p b.C.b_abi) in
  let prog = c.C.c_lower.Backend.lw_program in
  Alcotest.(check bool) "program has functions" true (prog.Vm.pr_funcs <> []);
  let spills = ref 0 and reloads = ref 0 in
  List.iter
    (fun vf ->
      Alcotest.(check bool)
        (vf.Vm.vf_name ^ " has blocks")
        true (vf.Vm.vf_blocks <> []);
      List.iter
        (fun vb ->
          List.iter
            (function
              | Vm.V_spill _ -> incr spills
              | Vm.V_reload _ -> incr reloads
              | Vm.V_op _ | Vm.V_copy _ -> ())
            vb.Vm.vb_insts)
        vf.Vm.vf_blocks)
    prog.Vm.pr_funcs;
  Alcotest.(check bool) "vm contains spills" true (!spills > 0);
  Alcotest.(check bool) "vm contains reloads" true (!reloads > 0)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [ tc "occupancy: hand-computed a100 limits" test_occupancy_a100;
    tc "occupancy: hand-computed v100/mi250/h100 limits" test_occupancy_portfolio;
    tc "occupancy: regs<->smem limiter flip across machines" test_limiter_flip;
    tc "occupancy: vgpu descriptor matches cost model" test_occupancy_vgpu_parity;
    tc "smem: layout non-overlap + engine parity" test_smem_layout;
    tc "regalloc: budget respected, spills recorded" test_allocator_budget_respected;
    tc "regalloc: spilled run bit-identical on every proxy" test_spill_bit_identity;
    tc "regalloc: matches sorted-list reference on proxies" test_regalloc_oracle_proxies;
    tc "regalloc: matches sorted-list reference on irgen" test_regalloc_oracle_irgen;
    tc "regalloc: backend allocation under ceiling" test_backend_alloc_ceiling;
    tc "vm: lowered program shape + spill code" test_vm_form;
    tc "acceptance: full < baseline regs and smem" test_full_beats_baseline ]
