(* The evaluation harness: compiles each proxy under each build
   configuration, runs it on the virtual GPU, validates the results
   against the host reference, and returns the measurements from which
   every figure and table of the paper's Section V is regenerated.

   Build rows follow Fig. 10/11: Old RT (Nightly), New RT (Nightly),
   New RT - w/o Assumptions, New RT, CUDA (NVCC). "New RT" uses the
   oversubscription flags the application can honestly pass
   (Proxy.assume_profile).

   A faulting build row no longer aborts the campaign: [measure_request] records
   the structured fault and walks the fallback ladder
   (full -> nightly -> baseline -> O0), re-running the proxy at each
   weaker pipeline — without the injection that may have felled the
   primary — until one completes with a valid differential check. A
   silently-corrupting build (launch succeeds, check fails) degrades the
   same way, with a synthetic [Validation] fault. *)

module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Pipeline = Ozo_opt.Pipeline
module Trace = Ozo_obs.Trace
module Device = Ozo_vgpu.Device

(* the measurement record, its [blank] row and its one field table (and
   the Fault/Counters/Engine aliases the table is written with) *)
include Schema

(* user errors outside a measurement (e.g. an unknown proxy name); runtime
   faults inside one are recorded in the measurement instead of raised *)
exception Harness_error of string

(* the "New RT" row honoring the proxy's honest assumption set *)
let new_rt_for (p : Proxy.t) =
  match p.Proxy.p_assume with
  | Proxy.Assume_both -> C.new_rt
  | Proxy.Assume_teams_only -> C.new_rt_teams_only

let builds_for (p : Proxy.t) : C.build list =
  [ C.old_rt_nightly; C.new_rt_nightly; C.new_rt_no_assumptions; new_rt_for p; C.cuda ]

(* canonical CLI/request-file names of the standard build rows *)
let build_names = [ "old-rt"; "new-rt-nightly"; "new-rt-no-assumptions"; "new-rt"; "cuda" ]

let build_of_name (p : Proxy.t) = function
  | "old-rt" -> Ok C.old_rt_nightly
  | "new-rt-nightly" -> Ok C.new_rt_nightly
  | "new-rt-no-assumptions" -> Ok C.new_rt_no_assumptions
  | "new-rt" -> Ok (new_rt_for p)
  | "cuda" -> Ok C.cuda
  | s ->
    Error
      ("unknown build " ^ s ^ " (" ^ String.concat "|" build_names ^ ")")

(* the per-phase columns ([phase_names]), read back from the trace after
   a clean attempt *)
let phases_of trace =
  if Trace.enabled trace then
    List.map (fun n -> (n, Trace.last_dur trace n)) phase_names
  else []

(* analysis-cache counters from the most recent pipeline run in the trace *)
let cache_of trace =
  if not (Trace.enabled trace) then None
  else
    match List.rev (Trace.instants_named trace "analysis-cache") with
    | [] -> None
    | i :: _ ->
      let arg n =
        match List.assoc_opt n i.Trace.i_args with
        | Some (Trace.Int v) -> v
        | _ -> 0
      in
      Some (arg "hits", arg "misses", arg "invalidations")

(* A measurement row for a configuration that produced no launch at all
   (dead after every fallback, host-side crash captured by the
   supervisor, or a configuration skipped by an open circuit breaker). *)
let dead_measurement ?(fallbacks = []) ?(machine = "vgpu") ~proxy ~build fault :
    measurement =
  { blank with
    r_proxy = proxy; r_build = build; r_machine = machine;
    r_counters = Ozo_vgpu.Counters.create ();
    r_check = Error (Fault.to_line fault); r_fault = Some fault;
    r_fallbacks = fallbacks }

(* The request for one standard harness row: the proxy's launch geometry
   under one build, with the measurement options folded into
   [Launch_opts.t]: every measurement option is a plain field here. *)
let request_for ?(check_assumes = false) ?(sanitize = false) ?inject ?watchdog
    ?(trace = Trace.null) ?(profile = false) ?(domains = 1) ?exec ?machine
    (p : Proxy.t) (b : C.build) : C.Request.t =
  C.Request.make ~proxy:p.Proxy.p_name ~sanitize ?exec ?machine ~build:b
    ~teams:p.Proxy.p_teams ~threads:p.Proxy.p_threads
    ~opts:
      { Device.Launch_opts.default with
        Device.Launch_opts.check_assumes; inject; trace; profile; watchdog;
        domains }
    ()

(* Measure one request. [compiler] is the compile entry point — the
   default is the one-shot [C.compile_request]; the serving tier passes
   a cache-backed replacement of the same signature (fallback-ladder
   recompiles flow through it too, under their own cache keys). *)
let measure_request ?(compiler = C.compile_request) (p : Proxy.t)
    (req : C.Request.t) : measurement =
  let module Rq = C.Request in
  let module Lo = Device.Launch_opts in
  let b = req.Rq.rq_build in
  let trace = Rq.trace req in
  let eff_domains =
    max 1 (min req.Rq.rq_opts.Lo.domains (max 1 req.Rq.rq_teams))
  in
  (* run one pipeline config; the build label stays that of the row.
     [primary] arms the request's injection: fallback attempts re-run
     clean, without the injection that may have felled the primary *)
  let attempt ~primary (pipe : Pipeline.config) :
      (measurement, Fault.t * measurement option) result =
    try
      let r =
        { req with
          Rq.rq_build = { b with C.b_pipe = pipe };
          rq_opts =
            { req.Rq.rq_opts with
              Lo.domains = eff_domains;
              inject = (if primary then req.Rq.rq_opts.Lo.inject else None) } }
      in
      let k = Proxy.kernel_for p r.Rq.rq_build.C.b_abi in
      let c = compiler r k in
      let dev = C.device_request r c in
      let inst = p.Proxy.p_setup dev in
      match C.launch_request r c dev inst.Proxy.i_args with
      | Error f -> Error (f, None)
      | Ok m ->
        let check = inst.Proxy.i_check () in
        let meas =
          { blank with
            r_proxy = p.Proxy.p_name; r_build = b.C.b_label;
            r_machine = req.Rq.rq_machine.C.Machine.mc_name;
            r_cycles = m.C.m_kernel_cycles; r_regs = m.C.m_regs; r_smem = m.C.m_smem;
            r_occupancy = m.C.m_occupancy; r_spills = m.C.m_spills;
            r_counters = m.C.m_counters; r_check = check; r_flops = p.Proxy.p_flops;
            r_phase_us = phases_of trace; r_hotspots = m.C.m_hotspots;
            r_cache = cache_of trace;
            r_exec = Ozo_vgpu.Engine.exec_name req.Rq.rq_exec;
            r_domains = eff_domains }
        in
        (match check with
        | Ok () -> Ok meas
        | Error e ->
          Error (Fault.make Fault.Validation ("differential check failed: " ^ e), Some meas))
    with
    | Fault.Kernel_fault f | Fault.Kernel_trap f ->
      (* host-side fault during setup (e.g. a pointer-encoding overflow) *)
      Error (f, None)
  in
  (* a row where even the weakest config failed: report the fault as the
     check result so campaign tables stay rectangular *)
  let dead_row fault fallbacks =
    { (dead_measurement ~fallbacks ~machine:req.Rq.rq_machine.C.Machine.mc_name
         ~proxy:p.Proxy.p_name ~build:b.C.b_label fault)
      with r_flops = p.Proxy.p_flops;
           r_exec = Ozo_vgpu.Engine.exec_name req.Rq.rq_exec }
  in
  match attempt ~primary:true b.C.b_pipe with
  | Ok m -> m
  | Error (primary_fault, primary_meas) ->
    let rec ladder pipe tried last_meas =
      match Pipeline.weaken pipe with
      | None -> (
        match last_meas with
        | Some m ->
          { m with r_fault = Some primary_fault; r_fallbacks = List.rev tried }
        | None -> dead_row primary_fault (List.rev tried))
      | Some weaker -> (
        let tried = weaker.Pipeline.name :: tried in
        match attempt ~primary:false weaker with
        | Ok m -> { m with r_fault = Some primary_fault; r_fallbacks = List.rev tried }
        | Error (_, meas) ->
          ladder weaker tried (match meas with Some _ -> meas | None -> last_meas))
    in
    ladder b.C.b_pipe [] primary_meas

(* Figure 10 (a-d) + the TestSNAP column: relative performance of every
   build, normalized to Old RT (Nightly) — the paper's baseline. The same
   rows feed Figure 11 (kernel time / registers / shared memory). *)
let fig10 (p : Proxy.t) : measurement list =
  List.map (fun b -> measure_request p (request_for p b)) (builds_for p)

(* Figure 12: GridMini GFlops across builds (flops per simulated kernel
   cycle, scaled — absolute units are arbitrary in simulation). *)
let fig12 () : measurement list = fig10 (Ozo_proxies.Registry.find_exn "gridmini")

(* Figure 13 + Section V-C: disable one co-designed optimization at a
   time. Returns (feature name, measurement) with the full build first. *)
let ablation (p : Proxy.t) : (string * measurement) list =
  let full = new_rt_for p in
  let row b = measure_request p (request_for p b) in
  ("full", row full)
  :: List.map
       (fun f -> (Pipeline.feature_name f, row (C.without f full)))
       [ Pipeline.B1; Pipeline.B2; Pipeline.B3; Pipeline.B4; Pipeline.C; Pipeline.D ]

(* debug-mode validation run: every assumption checked at runtime *)
let debug_run (p : Proxy.t) : measurement =
  measure_request p (request_for ~check_assumes:true p (C.with_debug (new_rt_for p)))

let find_proxy name =
  match Ozo_proxies.Registry.find name with
  | Some p -> p
  | None -> raise (Harness_error ("unknown proxy " ^ name))
