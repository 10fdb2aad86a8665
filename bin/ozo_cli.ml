(* Command-line driver: compile, run, inspect and measure the proxy
   applications under any build configuration.

     ozo_cli list | machines
     ozo_cli run|trace|inspect|remarks|vm|tune PROXY [--build B] [--small] ...
     ozo_cli regs|ablate|sanitize|campaign PROXY [--small] ...
     ozo_cli serve --requests FILE [--repeat N] ...
     ozo_cli matrix [--proxy P]... [--machines LIST] ...
     ozo_cli fuzz [--seeds N] [--seed BASE] [--plant flip-add] ...

   Every subcommand that runs or compiles a proxy reads its flags through
   one term ([request_term]); `ozo_cli COMMAND --help` lists the ones it
   admits. *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Trace = Ozo_obs.Trace
module Chrome = Ozo_obs.Chrome_trace
module Machine = Ozo_backend.Machine
module Engine = Ozo_vgpu.Engine
module Faultinject = Ozo_vgpu.Faultinject
module Tune = Ozo_tune.Tune
module Matrix = Ozo_tune.Matrix
open Cmdliner

let handle = function
  | Ok () -> 0
  | Error (`Msg m) ->
    Fmt.epr "error: %s@." m;
    1

(* --- the request term ---------------------------------------------------- *)

let conv parse print =
  Arg.conv ((fun s -> Result.map_error (fun e -> `Msg e) (parse s)), print)

let machine_names_doc = String.concat "|" Machine.names

let machine_conv =
  conv
    (fun s ->
      Option.to_result (Machine.find s)
        ~none:("unknown machine " ^ s ^ " (" ^ machine_names_doc ^ ")"))
    (fun ppf m -> Fmt.string ppf m.Machine.mc_name)

let exec_conv =
  conv
    (fun s ->
      Option.to_result (Engine.exec_of_name s)
        ~none:("unknown exec path " ^ s ^ " (ir|vm)"))
    (fun ppf e -> Fmt.string ppf (Engine.exec_name e))

(* the firing occurrence is seeded from --seed once both are parsed *)
let inject_conv =
  conv (Faultinject.parse ~seed:0) (fun ppf s ->
      Fmt.string ppf (Faultinject.spec_to_string s))

let proxy_arg =
  let doc = "Proxy application (xsbench, rsbench, gridmini, testsnap, minifmm)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROXY" ~doc)

let build_arg =
  let doc =
    "Build configuration: " ^ String.concat ", " E.build_names ^ "."
  in
  Arg.(value & opt string "new-rt" & info [ "build"; "b" ] ~docv:"BUILD" ~doc)

let small_arg =
  let doc = "Use the reduced test-size workload." in
  Arg.(value & flag & info [ "small" ] ~doc)

let machine_arg =
  let doc =
    "Machine descriptor (" ^ machine_names_doc
    ^ "): wavefront width, SM count, register budget and occupancy limits \
       the compile, simulation and cost model run against."
  in
  Arg.(value & opt machine_conv Machine.vgpu
       & info [ "machine"; "m" ] ~docv:"MACHINE" ~doc)

let max_regs_arg =
  let doc =
    "Override the per-thread register budget (forces spilling below the \
     kernel's natural pressure)."
  in
  Arg.(value & opt (some int) None & info [ "max-regs" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Shard each launch's team loop over N OCaml domains (capped at the team \
     count). Results are bit-identical to --domains 1; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let exec_arg =
  let doc =
    "Execution path: ir (the decoded-IR interpreter) or vm (threaded code \
     compiled from the register-allocated VM form). Results are bit-identical \
     on both paths; only wall-clock changes."
  in
  Arg.(value & opt exec_conv Engine.Exec_ir & info [ "exec" ] ~docv:"PATH" ~doc)

let sanitize_arg =
  let doc = "Run under the SIMT sanitizer (bounds, init, race, barrier checks)." in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let debug_arg =
  let doc = "Compile the runtime in debug mode and verify assumptions at runtime." in
  Arg.(value & flag & info [ "debug" ] ~doc)

let inject_arg =
  let doc =
    "Inject a deterministic fault: ACTION[@FUNC][:NTH] with ACTION one of \
     corrupt-load, drop-store, skip-barrier, trunc-shared, violate-assume. \
     NTH (the firing occurrence) is drawn from --seed when omitted."
  in
  Arg.(value & opt (some inject_conv) None & info [ "inject" ] ~docv:"SPEC" ~doc)

let seed_arg =
  let doc = "PRNG seed for fault-injection campaigns." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let profile_arg =
  let doc = "Record a trace with the per-block hot-spot profile and print it." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit machine-readable CSV rows.")

let journal_arg =
  let doc = "Append every completed row (or verdict) to this crash-safe JSONL journal." in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let repeat_arg =
  let doc =
    "Run the sweep N times (later passes exercise the circuit breaker and \
     warm the compile cache)."
  in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

(* campaign and serve exit non-zero on any row whose final check failed *)
let fail_on_dead what ms =
  match List.filter (fun m -> Result.is_error m.E.r_check) ms with
  | [] -> Ok ()
  | dead ->
    Error
      (`Msg
        (Fmt.str "%s finished with %d dead row(s):@.%a" what (List.length dead)
           R.pp_faults dead))

(* The flag groups a subcommand admits; the others keep their defaults. *)
type group =
  | Build | Machine_desc | Max_regs | Domains | Exec | Sanitize | Debug
  | Inject (* --inject, its --seed and --profile *)

let admit groups g arg default = if List.mem g groups then arg else Term.const default

type flags = {
  small : bool;
  machine : Machine.t; (* --max-regs already applied *)
  domains : int;
  exec : Engine.exec;
  sanitize : bool;
  debug : bool;
  inject : Faultinject.spec option; (* seeded *)
  seed : int;
  profile : bool;
}

let flags_term groups : flags Term.t =
  let pick g arg default = admit groups g arg default in
  let make small machine max_regs domains exec sanitize debug inject seed
      profile =
    { small; domains; exec; sanitize; debug; seed; profile;
      machine =
        (match max_regs with
        | Some n -> Machine.with_reg_budget n machine
        | None -> machine);
      inject =
        Option.map (fun s -> { s with Faultinject.s_seed = seed }) inject }
  in
  Term.(
    const make $ small_arg
    $ pick Machine_desc machine_arg Machine.vgpu
    $ pick Max_regs max_regs_arg None
    $ pick Domains domains_arg 1
    $ pick Exec exec_arg Engine.Exec_ir
    $ pick Sanitize sanitize_arg false
    $ pick Debug debug_arg false
    $ pick Inject inject_arg None
    $ pick Inject seed_arg 42
    $ pick Inject profile_arg false)

(* A validated proxy, its build (--debug applied) and the request every
   flag folds into. *)
type target = {
  proxy : Proxy.t;
  build_name : string;
  build : C.build;
  req : C.Request.t;
  fl : flags;
}

let request_term groups : target Term.t =
  let resolve name build_name fl =
    let pool = if fl.small then Registry.all_small () else Registry.all () in
    let ( let* ) = Result.bind in
    let* proxy =
      Option.to_result ~none:("unknown proxy " ^ name)
        (List.find_opt (fun p -> p.Proxy.p_name = name) pool)
    in
    let* b = E.build_of_name proxy build_name in
    let build = if fl.debug then C.with_debug b else b in
    let trace = if fl.profile then Trace.make () else Trace.null in
    let req =
      E.request_for ~check_assumes:fl.debug ~sanitize:fl.sanitize
        ?inject:fl.inject ~trace ~profile:fl.profile ~domains:fl.domains
        ~exec:fl.exec ~machine:fl.machine proxy build
    in
    Ok { proxy; build_name; build; req; fl }
  in
  Term.(
    term_result'
      (const resolve $ proxy_arg
      $ admit groups Build build_arg "new-rt"
      $ flags_term groups))

(* the target's request compiled under its own build, or under [build] *)
let compile ?build t =
  let r =
    match build with
    | Some b -> { t.req with C.Request.rq_build = b }
    | None -> t.req
  in
  C.compile_request r (Proxy.kernel_for t.proxy r.C.Request.rq_build.C.b_abi)

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun p ->
        Fmt.pr "%-10s teams=%-3d threads=%-3d  %s@." p.Proxy.p_name p.Proxy.p_teams
          p.Proxy.p_threads p.Proxy.p_descr)
      (Registry.all ());
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available proxy applications")
    Term.(const run $ const ())

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let run t =
    handle
      (let name = t.proxy.Proxy.p_name in
       let m = E.measure_request t.proxy t.req in
       Fmt.pr "%a%a" R.pp_fig11 (name, [ m ]) R.pp_csv_header ();
       Fmt.pr "%a" R.pp_csv m;
       if t.fl.profile then begin
         Fmt.pr "%a" R.pp_phases (name, [ m ]);
         (match m.E.r_cache with
         | Some (h, mi, inv) ->
           let total = h + mi in
           Fmt.pr "analysis cache: %d hits, %d misses, %d invalidations (%.0f%% hit rate)@."
             h mi inv
             (if total = 0 then 0.0
              else 100.0 *. float_of_int h /. float_of_int total)
         | None -> ());
         Fmt.pr "%a" R.pp_hotspots m
       end;
       match m.E.r_check with
       | Ok () ->
         Fmt.pr "result check: %s@." (R.status_str m);
         Ok ()
       | Error e -> Error (`Msg ("result check failed: " ^ e)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and run one proxy under one build configuration")
    Term.(
      const run
      $ request_term
          [ Build; Machine_desc; Domains; Exec; Sanitize; Debug; Inject ])

(* --- inspect ------------------------------------------------------------ *)

let inspect_cmd =
  let full_ir =
    Arg.(value & flag & info [ "full-ir" ] ~doc:"Print the whole module, not just the kernel.")
  in
  let run t full =
    let c = compile t in
    Fmt.pr "build: %s   mode: %s   regs: %d   smem: %dB@.@." t.build.C.b_label
      (match c.C.c_mode with Ozo_opt.Spmdize.Spmd -> "SPMD" | _ -> "generic")
      c.C.c_regs c.C.c_smem;
    if full then Fmt.pr "%a@." Ozo_ir.Printer.pp_module c.C.c_module
    else
      Fmt.pr "%a@." Ozo_ir.Printer.pp_func
        (Ozo_ir.Types.find_func_exn c.C.c_module c.C.c_kernel);
    0
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print the optimized IR of a proxy kernel")
    Term.(const run $ request_term [ Build ] $ full_ir)

(* --- remarks ------------------------------------------------------------- *)

let remarks_cmd =
  let run t =
    List.iter (fun r -> Fmt.pr "%a@." Ozo_opt.Remarks.pp r) (compile t).C.c_remarks;
    0
  in
  Cmd.v
    (Cmd.info "remarks"
       ~doc:"Show optimization remarks (-Rpass=openmp-opt analog) for a proxy build")
    Term.(const run $ request_term [ Build ])

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Output file for the Chrome trace JSON (default PROXY.trace.json)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let check_arg =
    let doc =
      "Validate the emitted JSON: schema, pass spans nested under the compile \
       span, phase spans under the launch span, hot-spot events present."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run t out check =
    handle
      (let ( let* ) = Result.bind in
       let trace = Trace.make () in
       let m =
         E.measure_request t.proxy
           (E.request_for ~trace ~profile:true t.proxy t.build)
       in
       let path =
         match out with Some f -> f | None -> t.proxy.Proxy.p_name ^ ".trace.json"
       in
       Chrome.write trace path;
       Fmt.pr "%a@." Ozo_obs.Profile.pp_report trace;
       Fmt.pr "wrote %s (%d spans)@." path (Trace.count_spans trace);
       let* () =
         match m.E.r_check with
         | Ok () -> Ok ()
         | Error e -> Error (`Msg ("result check failed: " ^ e))
       in
       if not check then Ok ()
       else
         match Chrome.check_run (In_channel.with_open_bin path In_channel.input_all) with
         | Ok (nev, npass, nhot, nhits) ->
           Fmt.pr
             "trace check: ok (%d events, %d pass spans, %d hot spots, %d analysis \
              cache hits)@."
             nev npass nhot nhits;
           Ok ()
         | Error e -> Error (`Msg ("trace check failed: " ^ e)))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one proxy with tracing and hot-spot profiling, write a Chrome \
          trace-event JSON (chrome://tracing / Perfetto) and print the profile")
    Term.(const run $ request_term [ Build ] $ out_arg $ check_arg)

(* --- regs ---------------------------------------------------------------- *)

let regs_cmd =
  let run t csv =
    let p = t.proxy and machine = t.fl.machine in
    let module M = Ozo_backend.Machine in
    let module L = Ozo_backend.Lower in
    let module S = Ozo_backend.Smem in
    let rows =
      List.map
        (fun b ->
          let c = compile ~build:b t in
          let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
          let occ =
            M.occupancy machine ~threads_per_team:hw
              ~regs_per_thread:c.C.c_regs ~shared_per_team:c.C.c_smem
          in
          (b, c, occ))
        (E.builds_for p)
    in
    if csv then begin
      Fmt.pr
        "proxy,build,machine,regs,smem,smem_runtime,smem_globalized,occupancy,\
         limiter,teams_per_sm,spilled,spill_loads,spill_stores,frame_bytes@.";
      List.iter
        (fun (b, c, occ) ->
          let l = c.C.c_lower in
          Fmt.pr "%s,%s,%s,%d,%d,%d,%d,%.3f,%s,%d,%d,%d,%d,%d@." p.Proxy.p_name
            b.C.b_label machine.M.mc_name c.C.c_regs c.C.c_smem
            l.L.lw_layout.S.ly_runtime l.L.lw_layout.S.ly_globalized
            occ.M.occ_fraction
            (M.limiter_name occ.M.occ_limiter)
            occ.M.occ_teams_per_sm l.L.lw_spilled_regs l.L.lw_spill_loads
            l.L.lw_spill_stores l.L.lw_frame_bytes)
        rows
    end
    else begin
      Fmt.pr "%s — per-kernel resources on %s (budget %d regs/thread)@."
        p.Proxy.p_name machine.M.mc_name machine.M.mc_max_regs_per_thread;
      Fmt.pr "  %-26s %6s %9s %18s %7s %7s %8s %8s@." "build" "#regs" "smem(B)"
        "smem(rt/glob)" "occup" "spilled" "ld/st" "frame(B)";
      List.iter
        (fun (b, c, occ) ->
          let l = c.C.c_lower in
          Fmt.pr "  %-26s %6d %9d %12d/%-5d %6.2f* %7d %4d/%-4d %8d@."
            b.C.b_label c.C.c_regs c.C.c_smem l.L.lw_layout.S.ly_runtime
            l.L.lw_layout.S.ly_globalized occ.M.occ_fraction
            l.L.lw_spilled_regs l.L.lw_spill_loads l.L.lw_spill_stores
            l.L.lw_frame_bytes;
          Fmt.pr "    %a@." M.pp_occupancy occ)
        rows
    end;
    0
  in
  Cmd.v
    (Cmd.info "regs"
       ~doc:
         "Show the backend's per-kernel resource table (registers, shared \
          memory, occupancy, spills) for every build configuration")
    Term.(const run $ request_term [ Machine_desc; Max_regs ] $ csv_arg)

(* --- vm ------------------------------------------------------------------ *)

let vm_cmd =
  let listing_arg =
    Arg.(value & flag
         & info [ "listing" ]
             ~doc:"Also print the full VM instruction stream per function.")
  in
  let run t csv listing =
    let p = t.proxy and b = t.build and machine = t.fl.machine in
    let c = compile t in
    let module L = Ozo_backend.Lower in
    let module V = Ozo_backend.Vm in
    let l = c.C.c_lower in
    let plan_of fn = List.assoc_opt fn l.L.lw_plan in
    (* per-function rows over the VM program the resource model prices;
       "plan" says whether the engine runs this function renamed onto
       its physical registers (spill-free, "vm") or on its virtual
       registers ("ir") *)
    let rows =
      List.map (fun fl -> (fl, V.func_stats fl.L.fl_vm)) l.L.lw_funcs
    in
    if csv then begin
      Fmt.pr
        "proxy,build,function,blocks,edges,ops,moves,reloads,spills,regs,\
         frame_bytes,plan,plan_regs@.";
      List.iter
        (fun ((fl : L.func_lowering), (s : V.vstats)) ->
          let vf = fl.L.fl_vm in
          Fmt.pr "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d@." p.Proxy.p_name
            b.C.b_label fl.L.fl_func s.V.vs_blocks s.V.vs_edges s.V.vs_ops
            s.V.vs_moves s.V.vs_reloads s.V.vs_spills vf.V.vf_regs_used
            vf.V.vf_frame_bytes
            (match plan_of fl.L.fl_func with Some _ -> "vm" | None -> "ir")
            (match plan_of fl.L.fl_func with
            | Some pl -> pl.Engine.rp_nregs
            | None -> 0))
        rows
    end
    else begin
      Fmt.pr "%s / %s — VM form on %s (budget %d regs/thread)@."
        p.Proxy.p_name b.C.b_label machine.Machine.mc_name
        machine.Machine.mc_max_regs_per_thread;
      Fmt.pr "  %-24s %6s %5s %6s %6s %7s %6s %5s %8s %5s@." "function"
        "blocks" "edges" "ops" "moves" "reloads" "spills" "regs" "frame(B)"
        "exec";
      List.iter
        (fun ((fl : L.func_lowering), (s : V.vstats)) ->
          let vf = fl.L.fl_vm in
          Fmt.pr "  %-24s %6d %5d %6d %6d %7d %6d %5d %8d %5s@." fl.L.fl_func
            s.V.vs_blocks s.V.vs_edges s.V.vs_ops s.V.vs_moves s.V.vs_reloads
            s.V.vs_spills vf.V.vf_regs_used vf.V.vf_frame_bytes
            (match plan_of fl.L.fl_func with Some _ -> "vm" | None -> "ir"))
        rows;
      if listing then
        List.iter
          (fun ((fl : L.func_lowering), _) ->
            Fmt.pr "@.%a@." V.pp_vfunc fl.L.fl_vm)
          rows
    end;
    0
  in
  Cmd.v
    (Cmd.info "vm"
       ~doc:
         "Dump the register-allocated VM form the threaded executor runs: \
          per-function instruction mix (ops/moves/reloads/spills), resource \
          numbers and whether the engine executes it renamed onto physical \
          registers (vm) or on its virtual registers (ir); --listing prints \
          the full stream")
    Term.(
      const run $ request_term [ Build; Machine_desc; Max_regs ] $ csv_arg
      $ listing_arg)

(* --- ablate -------------------------------------------------------------- *)

let ablate_cmd =
  let run t =
    Fmt.pr "%a" R.pp_ablation (t.proxy.Proxy.p_name, E.ablation t.proxy);
    0
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Run the per-optimization ablation for one proxy (Fig. 13)")
    Term.(const run $ request_term [])

(* --- sanitize ------------------------------------------------------------ *)

let sanitize_cmd =
  let run t =
    handle
      (let p = t.proxy in
       let ms =
         List.map
           (fun b ->
             E.measure_request p
               (E.request_for ~check_assumes:true ~sanitize:true p b))
           (E.builds_for p)
       in
       Fmt.pr "%a" R.pp_fig11 (p.Proxy.p_name ^ " [sanitized]", ms);
       let dirty = List.filter (fun m -> m.E.r_fault <> None) ms in
       if dirty = [] then begin
         Fmt.pr "sanitizer: clean (%d builds)@." (List.length ms);
         Ok ()
       end
       else
         Error
           (`Msg
             (Fmt.str "sanitizer found %d issue(s):@.%a" (List.length dirty)
                R.pp_faults dirty)))
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run one proxy under every build with the SIMT sanitizer armed; exit \
          non-zero on any finding")
    Term.(const run $ request_term [])

(* --- campaign ------------------------------------------------------------- *)

module Supervisor = Ozo_resilience.Supervisor
module Campaign = Ozo_resilience.Campaign
module Fuzz = Ozo_resilience.Fuzz

let campaign_cmd =
  let resume_arg =
    let doc =
      "Resume from the journal given by --journal: completed rows are replayed \
       verbatim and measurement restarts at the first missing row."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let retries_arg =
    let doc = "Supervisor retries per row for transient faults." in
    Arg.(value & opt int 2 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-launch wall-clock watchdog deadline in seconds (0 disables)."
    in
    Arg.(value & opt float 30.0 & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let abort_after_arg =
    let doc =
      "Testing hook: abort the campaign (exit non-zero) after N freshly \
       measured rows, simulating a mid-run crash."
    in
    Arg.(value & opt (some int) None & info [ "abort-after" ] ~docv:"N" ~doc)
  in
  let run t journal resume repeat retries deadline abort_after =
    handle
      (let ( let* ) = Result.bind in
       let name = t.proxy.Proxy.p_name and fl = t.fl in
       (match fl.inject with
       | Some spec ->
         Fmt.pr "injecting: %s (seed %d)@." (Faultinject.spec_to_string spec) fl.seed
       | None -> ());
       let opts =
         { Campaign.default with
           Campaign.co_proxies = [ name ]; co_small = fl.small;
           co_repeat = repeat; co_sanitize = fl.sanitize; co_inject = fl.inject;
           co_journal = journal; co_resume = resume;
           co_abort_after = abort_after; co_domains = fl.domains;
           co_exec = fl.exec; co_machine = fl.machine;
           co_sup =
             { Supervisor.default with
               Supervisor.sv_retries = retries; sv_deadline_s = deadline;
               sv_seed = fl.seed;
               (* with injection armed, every fault kind is worth one
                  clean retry — injection fires only on attempt 0 *)
               sv_transient =
                 (if fl.inject <> None then Ozo_vgpu.Fault.all_kinds
                  else Supervisor.default.Supervisor.sv_transient) } }
       in
       let* ms =
         match Campaign.run ~trace:(C.Request.trace t.req) opts with
         | ms -> Ok ms
         | exception Campaign.Aborted m -> Error (`Msg m)
         | exception E.Harness_error m -> Error (`Msg m)
       in
       Fmt.pr "%a%a" R.pp_fig10 (name, ms) R.pp_fig11 (name, ms);
       if fl.profile then Fmt.pr "%a" R.pp_phases (name, ms);
       Fmt.pr "%a" R.pp_resilience (name, ms);
       Fmt.pr "%a" R.pp_csv_header ();
       List.iter (Fmt.pr "%a" R.pp_csv) ms;
       fail_on_dead "campaign" ms)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Measure one proxy across all standard builds under the resilience \
          supervisor (watchdog, retry, circuit breaker), degrading gracefully \
          on faults (optionally injected); exit 0 iff every row ends with a \
          valid check")
    Term.(
      const run
      $ request_term [ Machine_desc; Domains; Exec; Sanitize; Inject ]
      $ journal_arg $ resume_arg $ repeat_arg $ retries_arg $ deadline_arg
      $ abort_after_arg)

(* --- serve ----------------------------------------------------------------- *)

module Service = Ozo_serve.Service

let serve_cmd =
  let requests_arg =
    let doc =
      "Request file: one \"PROXY BUILD\" per line ('#' comments, blank lines \
       skipped), drained in order through the compile cache."
    in
    Arg.(required & opt (some string) None & info [ "requests" ] ~docv:"FILE" ~doc)
  in
  let cache_cap_arg =
    let doc =
      "Maximum cached compiled modules; least-recently-used entries are \
       evicted beyond it (default unbounded). Eviction never changes results, \
       only recompile counts."
    in
    Arg.(value & opt (some int) None & info [ "cache-cap" ] ~docv:"N" ~doc)
  in
  let run requests fl repeat cache_cap journal =
    handle
      (let ( let* ) = Result.bind in
       let* queue =
         match Service.load_requests requests with
         | q -> Ok q
         | exception Service.Service_error e -> Error (`Msg e)
       in
       let* () = if queue = [] then Error (`Msg "empty request file") else Ok () in
       let opts =
         { Service.default with
           Service.sv_small = fl.small; sv_sanitize = fl.sanitize;
           sv_repeat = repeat; sv_cache_cap = cache_cap; sv_journal = journal;
           sv_domains = fl.domains; sv_machine = fl.machine }
       in
       let* ms, stats =
         match Service.run opts queue with
         | r -> Ok r
         | exception Service.Service_error e -> Error (`Msg e)
       in
       Fmt.pr "%a" R.pp_csv_header ();
       List.iter (Fmt.pr "%a" R.pp_csv) ms;
       Fmt.pr "%a" Service.pp_stats stats;
       fail_on_dead "service" ms)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a batch of launch requests through the content-addressed \
          compile cache: duplicate compiles are served from cache, rows print \
          as campaign CSV (plus cache/latency columns) followed by \
          \"serve:\"-prefixed stats (hit rate, launches/sec, latency \
          percentiles)")
    Term.(
      const run $ requests_arg
      $ flags_term [ Machine_desc; Domains; Sanitize ]
      $ repeat_arg $ cache_cap_arg $ journal_arg)

(* --- fuzz ----------------------------------------------------------------- *)

let fuzz_cmd =
  let seeds_arg =
    let doc = "Number of random kernels to generate and differentially test." in
    Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let base_seed_arg =
    let doc = "Base PRNG seed; case i uses seed BASE+i." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"BASE" ~doc)
  in
  let out_arg =
    let doc = "Path for the minimized repro of the first failure." in
    Arg.(value & opt string "fuzz.repro.ir" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let plant_arg =
    let doc =
      "Plant a known miscompile in the full pipeline (flip-add: first Add \
       becomes Sub) to prove the fuzzer finds and shrinks it."
    in
    let plant =
      conv
        (fun n ->
          Option.to_result (Fuzz.plant_of_name n)
            ~none:("unknown plant pass " ^ n ^ " (flip-add)"))
        (fun ppf _ -> Fmt.string ppf "<plant>")
    in
    Arg.(value & opt (some plant) None & info [ "plant" ] ~docv:"PASS" ~doc)
  in
  let sweep_arg =
    let doc =
      "Add a full-pipeline variant on this machine descriptor ("
      ^ machine_names_doc
      ^ ") to the differential sweep; digests must stay bit-identical across \
         wavefront widths. Repeatable."
    in
    Arg.(value & opt_all machine_conv [] & info [ "machine" ] ~docv:"MACHINE" ~doc)
  in
  let run seeds base_seed out plant sweep =
    handle
      (let r =
         Fuzz.run ?plant ~sweep ~seeds ~base_seed
           ~on_case:(fun seed clean ->
             if not clean then Fmt.pr "seed %d: FAIL@." seed)
           ()
       in
       match r.Fuzz.fz_failures with
       | [] ->
         Fmt.pr "fuzz: %d seeds, all variants agree@." r.Fuzz.fz_seeds;
         Ok ()
       | failures ->
         List.iter
           (fun fl ->
             Fmt.pr "seed %d: %s (shrunk %d -> %d instructions)@."
               fl.Fuzz.fl_seed fl.Fuzz.fl_signature fl.Fuzz.fl_insts_before
               fl.Fuzz.fl_insts_after)
           failures;
         Out_channel.with_open_bin out (fun oc ->
             output_string oc (Fuzz.repro_text (List.hd failures)));
         Fmt.pr "wrote minimized repro to %s@." out;
         Error
           (`Msg
             (Fmt.str "fuzz: %d of %d seeds disagree across pipelines"
                (List.length failures) r.Fuzz.fz_seeds)))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differentially fuzz the compiler: generate random well-typed \
          kernels, compile under O0 / full / spilled-regalloc pipelines, \
          demand bit-identical results, and shrink any failure to a minimal \
          repro")
    Term.(const run $ seeds_arg $ base_seed_arg $ out_arg $ plant_arg
          $ sweep_arg)

(* --- machines -------------------------------------------------------------- *)

let machines_cmd =
  let run () =
    Fmt.pr "%-6s %5s %5s %7s %8s %8s %14s %13s %9s@." "name" "warp" "SMs"
      "thr/SM" "warps/SM" "teams/SM" "regfile(unit)" "smem(unit)" "max-regs";
    List.iter
      (fun (m : Machine.t) ->
        Fmt.pr "%-6s %5d %5d %7d %8d %8d %8d(%4d) %7d(%4d) %9d@."
          m.Machine.mc_name m.Machine.mc_warp_size m.Machine.mc_n_sm
          m.Machine.mc_max_threads_per_sm m.Machine.mc_max_warps_per_sm
          m.Machine.mc_max_teams_per_sm m.Machine.mc_regfile_per_sm
          m.Machine.mc_reg_alloc_unit m.Machine.mc_shared_per_sm
          m.Machine.mc_shared_alloc_unit m.Machine.mc_max_regs_per_thread)
      Machine.all;
    0
  in
  Cmd.v
    (Cmd.info "machines"
       ~doc:
         "List the machine descriptors (wavefront width, SM count, residency \
          ceilings, register/SMem allocation granularities) every \
          machine-aware subcommand accepts via --machine")
    Term.(const run $ const ())

(* --- tune ------------------------------------------------------------------- *)

let tune_cmd =
  let tune_seed_arg =
    let doc = "Seed for the deterministic tie-break among equal-scored shapes." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let measure_arg =
    let doc =
      "Measured refinement: launch the top K model candidates for real and \
       pick the lowest simulated kernel time among those that validate \
       (0 = model-only)."
    in
    Arg.(value & opt int 0 & info [ "measure" ] ~docv:"K" ~doc)
  in
  let run t seed measure csv journal =
    handle
      (let ( let* ) = Result.bind in
       let fl = t.fl in
       let* v =
         match
           Tune.search ~seed ~measure_top:measure ~domains:fl.domains
             ~exec:fl.exec ~machine:fl.machine t.proxy ~build_name:t.build_name
         with
         | v -> Ok v
         | exception Tune.Tune_error e -> Error (`Msg e)
         | exception E.Harness_error e -> Error (`Msg e)
       in
       if csv then begin
         Fmt.pr "%a" Tune.pp_csv_header ();
         Fmt.pr "%a" Tune.pp_csv v
       end
       else Fmt.pr "%a" Tune.pp_verdict v;
       Option.iter (fun path -> Tune.append_journal ~path v) journal;
       Ok ())
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Autotune the launch shape (teams x threads) of one proxy/build on \
          one machine: candidates are wavefront multiples covering the \
          default iteration space, scored by the occupancy model plus a \
          probe-calibrated cycle prediction, with deterministic seeded \
          tie-breaks and opt-in measured refinement of the top K")
    Term.(
      const run
      $ request_term [ Build; Machine_desc; Domains; Exec ]
      $ tune_seed_arg $ measure_arg $ csv_arg $ journal_arg)

(* --- matrix ----------------------------------------------------------------- *)

let matrix_cmd =
  let machines_arg =
    let doc = "Comma-separated machine set to sweep." in
    Arg.(value & opt (list string) Matrix.default_machines
         & info [ "machines" ] ~docv:"LIST" ~doc)
  in
  let proxy_opt_arg =
    let doc = "Restrict the sweep to this proxy (repeatable; default all)." in
    Arg.(value & opt_all string [] & info [ "proxy" ] ~docv:"PROXY" ~doc)
  in
  let run fl csv machines proxies =
    handle
      (let ( let* ) = Result.bind in
       let machines = List.filter (fun x -> x <> "") machines in
       let proxies = match proxies with [] -> None | ps -> Some ps in
       let* t =
         match
           Matrix.run ~small:fl.small ~machines ?proxies ~domains:fl.domains
             ~exec:fl.exec ()
         with
         | t -> Ok t
         | exception Matrix.Matrix_error e -> Error (`Msg e)
         | exception E.Harness_error e -> Error (`Msg e)
       in
       if csv then begin
         Fmt.pr "%a" Matrix.pp_csv_header ();
         Fmt.pr "%a" Matrix.pp_csv t
       end
       else begin
         Fmt.pr "%a" Matrix.pp_table t;
         Fmt.pr "@.%a" Matrix.pp_csv_header ();
         Fmt.pr "%a" Matrix.pp_csv t
       end;
       let bad = List.filter (fun c -> not (Matrix.cell_ok c)) t.Matrix.mx_cells in
       if bad = [] then Ok ()
       else
         Error
           (`Msg
             (Fmt.str "matrix finished with %d failing cell(s)"
                (List.length bad))))
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Run the cross-machine campaign matrix: every proxy x build x \
          machine through one shared compile cache, reporting per-machine \
          relative performance (Old RT = 1.00), application efficiency and \
          the Pennycook performance-portability harmonic mean")
    Term.(
      const run $ flags_term [ Domains; Exec ] $ csv_arg $ machines_arg
      $ proxy_opt_arg)

let () =
  let doc = "reproduction of the near-zero-overhead OpenMP GPU runtime (IPDPS'22)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ozo_cli" ~doc)
          [ list_cmd; run_cmd; inspect_cmd; remarks_cmd; trace_cmd; regs_cmd;
            vm_cmd; ablate_cmd; sanitize_cmd; campaign_cmd; serve_cmd;
            fuzz_cmd; machines_cmd; tune_cmd; matrix_cmd ]))
