(* Public entry point of the library: compile a kernel under one of the
   paper's build configurations, launch it on the virtual GPU and read
   back the Nsight-style metrics.

   The five standard build rows correspond to Fig. 10/11 of the paper:
   CUDA (NVCC), Old RT (Nightly), New RT (Nightly), New RT without
   assumptions, and New RT. *)

open Ozo_ir.Types
module Ast = Ozo_frontend.Ast
module Lower = Ozo_frontend.Lower
module Rt_config = Ozo_runtime.Config
module Pipeline = Ozo_opt.Pipeline
module Spmdize = Ozo_opt.Spmdize
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
module Cost = Ozo_vgpu.Cost
module Trace = Ozo_obs.Trace
module Remarks = Ozo_opt.Remarks
module Machine = Ozo_backend.Machine
module Backend = Ozo_backend.Lower

type build = {
  b_label : string;
  b_abi : Lower.abi;
  b_rt : Rt_config.t option; (* None for CUDA *)
  b_pipe : Pipeline.config;
}

(* nvcc performs the generic optimizations (register promotion of locals,
   inlining, folding) too: the full pipeline's OpenMP-specific passes are
   no-ops on runtime-free CUDA code *)
let cuda = { b_label = "CUDA (NVCC)"; b_abi = Lower.Cuda; b_rt = None; b_pipe = Pipeline.full }

let old_rt_nightly =
  { b_label = "Old RT (Nightly)"; b_abi = Lower.Omp Lower.Old_abi;
    b_rt = Some Rt_config.old_rt; b_pipe = Pipeline.full }
(* the old runtime is opaque (no_inline, global state), so even the full
   pipeline cannot do anything to it — exactly the nightly situation *)

let new_rt_nightly =
  { b_label = "New RT (Nightly)"; b_abi = Lower.Omp Lower.New_abi;
    b_rt = Some Rt_config.default; b_pipe = Pipeline.nightly }

let new_rt_no_assumptions =
  { b_label = "New RT - w/o Assumptions"; b_abi = Lower.Omp Lower.New_abi;
    b_rt = Some Rt_config.default; b_pipe = Pipeline.full }

let new_rt =
  { b_label = "New RT"; b_abi = Lower.Omp Lower.New_abi;
    b_rt = Some Rt_config.(with_assumptions default); b_pipe = Pipeline.full }

(* per-application assumption profile: the oversubscription flags are
   user promises, so "New RT" means "with the flags this application can
   honestly pass" *)
let new_rt_teams_only =
  { b_label = "New RT"; b_abi = Lower.Omp Lower.New_abi;
    b_rt = Some Rt_config.(with_teams_assumption default); b_pipe = Pipeline.full }

let standard_builds =
  [ old_rt_nightly; new_rt_nightly; new_rt_no_assumptions; new_rt; cuda ]

(* debug variants: runtime assertion checking enabled at compile time *)
let with_debug b =
  match b.b_rt with
  | None -> b
  | Some rt -> { b with b_label = b.b_label ^ " [debug]"; b_rt = Some (Rt_config.with_debug rt) }

(* ablation variant: one co-designed optimization disabled *)
let without feature b =
  { b with
    b_label = b.b_label ^ " w/o " ^ Pipeline.feature_name feature;
    b_pipe = Pipeline.disable feature b.b_pipe }

type compiled = {
  c_build : build;
  c_module : modul;  (* post-backend module the device executes *)
  c_kernel : string;
  c_mode : Spmdize.exec_mode;
  c_machine : Machine.t;
  c_lower : Backend.summary;  (* late-lowering result: VM code + resources *)
  c_exec : Engine.exec; (* executor the device will run: IR or threaded code *)
  c_regs : int;  (* per-thread registers after allocation, incl. callee chain *)
  c_smem : int;  (* static shared memory bytes per team (aligned layout) *)
  c_remarks : Remarks.t list; (* optimization remarks from this compile *)
}

exception Compile_error of string

(* ---------- compile stages --------------------------------------------- *)

(* Stage 1: lower the kernel under the build's ABI, link the runtime and
   verify. The linked (pre-pipeline) module is the *content* a compile
   is a pure function of — the serving tier's cache keys on its printout
   ([Compile_key.of_linked]) plus everything stage 2 consumes. *)
let link_stage ?(machine = Machine.vgpu) (b : build) (k : Ast.kernel) : modul =
  let app = Lower.lower ~abi:b.b_abi k in
  let linked =
    match b.b_rt with
    | None -> app
    | Some rt_cfg ->
      (* the runtime is built for the target machine's wavefront width:
         generic-mode worker counts (bdim - warp_size) must match the
         engine's warp granularity. For 32-wide machines this emits IR
         byte-identical to the historical [Runtime.build cfg]. *)
      Ozo_ir.Linker.link app
        (Ozo_runtime.Runtime.build ~warp_size:machine.Machine.mc_warp_size rt_cfg)
  in
  (match Ozo_ir.Verifier.check linked with
  | Ok () -> ()
  | Error vs ->
    raise
      (Compile_error
         (Fmt.str "%a" (Fmt.list ~sep:Fmt.semi Ozo_ir.Verifier.pp_violation) vs)));
  linked

(* Canonical fingerprint of one compile: every input stage 2 reads.
   Two requests with equal keys produce bit-identical [compiled]
   artifacts, so the serving tier may return a cached artifact for a
   key hit without changing any simulated result.

   Ingredients (each length-prefixed so fields cannot alias):
   - the linked IR printout — covers the kernel source, the ABI and the
     linked runtime variant byte-for-byte;
   - the pipeline config (marshaled [Pipeline.config], so every
     bool/rounds/memfold flag participates, including ablation variants);
   - the build-ladder rung (label + ABI + runtime config), belt and
     braces on top of the printout so a label-only distinction still
     separates rows in stats;
   - the machine descriptor (register budget, granularities, residency
     ceilings — all of it drives regalloc/SMem/occupancy);
   - the cost-model parameters the metrics are priced under;
   - the execution path ([ir] or [vm]): the cached artifact records which
     executor it was compiled for, so a threaded-form artifact is never
     returned to an interpreter request (and vice versa). *)
module Compile_key = struct
  type t = { ck_hex : string }

  let hex k = k.ck_hex
  let equal a b = String.equal a.ck_hex b.ck_hex
  let pp ppf k = Fmt.string ppf k.ck_hex

  let of_linked ?(cost = Cost.default) ?(exec = Engine.Exec_ir)
      ~(machine : Machine.t) (b : build) (linked : modul) : t =
    let buf = Buffer.create 8192 in
    let part s =
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s
    in
    part (Ozo_ir.Printer.module_to_string linked);
    part (Marshal.to_string b.b_pipe []);
    part b.b_label;
    part (Marshal.to_string (b.b_abi, b.b_rt) []);
    part (Marshal.to_string machine []);
    part (Marshal.to_string cost []);
    part (Engine.exec_name exec);
    { ck_hex = Digest.to_hex (Digest.string (Buffer.contents buf)) }
end

(* Stage 2: optimization pipeline + late lowering over a linked module.
   This is the expensive, cacheable part; [compile] is stage 1 + stage 2. *)
let compile_linked ?(trace = Trace.null) ?(machine = Machine.vgpu)
    ?(exec = Engine.Exec_ir) (b : build) ~(kernel : Ast.kernel)
    (linked : modul) : compiled =
  let k = kernel in
  Trace.with_span trace ~cat:"compile"
    ~args:[ ("build", Trace.Str b.b_label) ]
    "compile"
    (fun () ->
      let sink = Remarks.make ~trace () in
      (* one analysis manager for the whole compile: the pipeline fills it,
         and the register estimate below reuses its cached liveness *)
      let am = Ozo_opt.Analysis.create () in
      let optimized = Pipeline.run ~am ~trace ~sink b.b_pipe linked in
      (match Ozo_ir.Verifier.check optimized with
      | Ok () -> ()
      | Error vs ->
        raise
          (Compile_error
             (Fmt.str "post-opt: %a" (Fmt.list ~sep:Fmt.semi Ozo_ir.Verifier.pp_violation) vs)));
      let mode =
        match b.b_abi with
        | Lower.Cuda -> Spmdize.Spmd
        | Lower.Omp _ -> Spmdize.kernel_mode optimized k.Ast.k_name
      in
      (* late lowering: register allocation against the machine's budget,
         SMem layout, spill materialization. The device executes the
         lowered module, so a budget-forced spill shows up both in the
         resource columns and in the simulated local-memory traffic. *)
      let lower =
        Backend.run ~machine ~am ~trace optimized ~kernel:k.Ast.k_name
      in
      (if lower.Backend.lw_module != optimized then
         match Ozo_ir.Verifier.check lower.Backend.lw_module with
         | Ok () -> ()
         | Error vs ->
           raise
             (Compile_error
                (Fmt.str "post-backend: %a"
                   (Fmt.list ~sep:Fmt.semi Ozo_ir.Verifier.pp_violation) vs)));
      { c_build = b; c_module = lower.Backend.lw_module;
        c_kernel = k.Ast.k_name; c_mode = mode; c_machine = machine;
        c_lower = lower; c_exec = exec;
        c_regs = lower.Backend.lw_kernel_regs;
        c_smem = lower.Backend.lw_layout.Ozo_backend.Smem.ly_total;
        c_remarks = Remarks.items sink })

let compile ?trace ?machine ?exec (b : build) (k : Ast.kernel) : compiled =
  compile_linked ?trace ?machine ?exec b ~kernel:k (link_stage ?machine b k)

(* hardware threads per team for a user-visible thread count: generic mode
   hosts the main thread in one extra warp *)
let hw_threads (c : compiled) ~threads =
  match c.c_mode with
  | Spmdize.Spmd -> threads
  | Spmdize.Generic -> threads + c.c_machine.Machine.mc_warp_size

type metrics = {
  m_counters : Counters.t;           (* totals over all teams *)
  m_kernel_cycles : float;           (* occupancy-adjusted makespan *)
  m_regs : int;
  m_smem : int;
  m_occupancy : float;
  m_spills : int;                    (* static spill loads + stores *)
  m_hotspots : Engine.hotspot list;  (* [] unless profiling was requested *)
}

(* static spill instructions of a compile (ptxas' "spill loads/stores") *)
let spill_count (c : compiled) =
  c.c_lower.Backend.lw_spill_loads + c.c_lower.Backend.lw_spill_stores

(* ---------- the unified request API ------------------------------------ *)

(* One record describing a complete unit of work — what to compile (build
   × machine), how to launch it (shape × [Launch_opts.t]) and which
   workload it belongs to. Both the one-shot harness path and the
   serving tier's work queue consume the same [Request.t]: device
   creation and launch take nothing else, and [compile] is the compile
   stage itself, which needs no launch geometry. *)
module Request = struct
  type t = {
    rq_proxy : string;            (* workload name, for reporting/stats *)
    rq_build : build;
    rq_machine : Machine.t;
    rq_teams : int;
    rq_threads : int;             (* user-visible threads; hw sizing is per-mode *)
    rq_sanitize : bool;           (* arm the SIMT sanitizer at device creation *)
    rq_exec : Engine.exec;        (* executor: IR interpreter or threaded code *)
    rq_opts : Device.Launch_opts.t;
  }

  let make ?(proxy = "-") ?(machine = Machine.vgpu) ?(sanitize = false)
      ?(exec = Engine.Exec_ir) ?(opts = Device.Launch_opts.default) ~build
      ~teams ~threads () : t =
    { rq_proxy = proxy; rq_build = build; rq_machine = machine;
      rq_teams = teams; rq_threads = threads; rq_sanitize = sanitize;
      rq_exec = exec; rq_opts = opts }

  (* the compile trace is the launch trace: one ctx spans the request *)
  let trace (r : t) = r.rq_opts.Device.Launch_opts.trace
end

(* Compile the request's build on its machine; the serving tier replaces
   this with a cache-backed equivalent of the same signature. *)
let compile_request (r : Request.t) (k : Ast.kernel) : compiled =
  compile ~trace:(Request.trace r) ~machine:r.Request.rq_machine
    ~exec:r.Request.rq_exec r.Request.rq_build k

(* Stage the request's compile through the explicit (link, key, finish)
   steps — what a content-addressed cache needs: the key is derived from
   the linked module before any expensive work happens. *)
let keyed_compile_request (r : Request.t) (k : Ast.kernel) :
    Compile_key.t * (unit -> compiled) =
  let linked = link_stage ~machine:r.Request.rq_machine r.Request.rq_build k in
  let key =
    Compile_key.of_linked ~machine:r.Request.rq_machine ~exec:r.Request.rq_exec
      r.Request.rq_build linked
  in
  ( key,
    fun () ->
      compile_linked ~trace:(Request.trace r) ~machine:r.Request.rq_machine
        ~exec:r.Request.rq_exec r.Request.rq_build ~kernel:k linked )

(* Create a device for the request's compiled kernel (callers allocate
   buffers on it before launching); [rq_sanitize] arms the SIMT
   sanitizer's shadow state. The engine runs under the compile's
   machine: wavefront width drives reconvergence, coalescing buckets and
   uniform-strand scalarization, not just the occupancy arithmetic
   (identity on [Cost.default] for the default [Machine.vgpu]). *)
let device_request (r : Request.t) (c : compiled) : Device.t =
  Device.create ~params:(Machine.cost_params c.c_machine)
    ~sanitize:r.Request.rq_sanitize ~exec:c.c_exec
    ~plan:c.c_lower.Backend.lw_plan c.c_module

(* Launch the request's shape under its [Launch_opts.t] and price the
   run: residency comes from the backend's occupancy calculator (under
   the default [Machine.vgpu] descriptor this computes exactly what
   [Cost.occupancy] did). *)
let launch_request (r : Request.t) (c : compiled) (dev : Device.t)
    (args : Engine.arg list) : (metrics, Device.error) result =
  let hw = hw_threads c ~threads:r.Request.rq_threads in
  match
    Device.launch ~opts:r.Request.rq_opts dev ~teams:r.Request.rq_teams
      ~threads:hw args
  with
  | Error e -> Error e
  | Ok res ->
    let occ =
      Machine.to_cost_occupancy
        (Machine.occupancy c.c_machine ~threads_per_team:hw
           ~regs_per_thread:c.c_regs ~shared_per_team:c.c_smem)
    in
    let cp = Machine.cost_params c.c_machine in
    let cycles =
      Cost.kernel_time cp ~occupancy:occ
        ~team_cycles:(List.map (fun ct -> ct.Counters.cycles) res.Engine.r_counters)
        ~mem_cycles:(Counters.memory_cycles cp res.Engine.r_total)
    in
    Ok
      { m_counters = res.Engine.r_total; m_kernel_cycles = cycles; m_regs = c.c_regs;
        m_smem = c.c_smem; m_occupancy = occ.Cost.o_occupancy;
        m_spills = spill_count c;
        m_hotspots = res.Engine.r_hotspots }
