(* Table/figure formatting for the reproduction of the paper's evaluation
   section. Output mirrors the paper's presentation: Fig. 10 as relative
   speedups over the Old RT baseline, Fig. 11 as the kernel-time /
   registers / shared-memory table, Fig. 12 as GridMini GFlops, Fig. 13
   as the per-optimization ablation. *)

open Experiments

let baseline_cycles (ms : measurement list) =
  match List.find_opt (fun m -> m.r_build = "Old RT (Nightly)") ms with
  | Some m -> m.r_cycles
  | None -> (List.hd ms).r_cycles

let check_str = function Ok () -> "ok" | Error e -> "FAILED: " ^ e

(* row status including graceful degradation: a row that faulted on its
   primary configuration but recovered at a weaker one reads e.g.
   "ok (fallback nightly after divergent-barrier)" *)
let status_str (m : measurement) =
  match (m.r_fault, m.r_fallbacks) with
  | None, _ -> check_str m.r_check
  | Some f, [] -> check_str m.r_check ^ " (" ^ Ozo_vgpu.Fault.kind_name f.Ozo_vgpu.Fault.f_kind ^ ")"
  | Some f, fbs ->
    Fmt.str "%s (fallback %s after %s)" (check_str m.r_check)
      (List.nth fbs (List.length fbs - 1))
      (Ozo_vgpu.Fault.kind_name f.Ozo_vgpu.Fault.f_kind)

(* one detail line per degraded row, printed under the tables *)
let pp_faults ppf (ms : measurement list) =
  List.iter
    (fun m ->
      match m.r_fault with
      | None -> ()
      | Some f ->
        Fmt.pf ppf "  ! %-26s %s@." m.r_build (Ozo_vgpu.Fault.to_line f);
        if m.r_fallbacks <> [] then
          Fmt.pf ppf "    fallback chain: %s@." (String.concat " -> " m.r_fallbacks))
    ms

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (max 0 (min width n)) '#'

(* Fig. 10-style: relative performance (higher is better), baseline = 1.0 *)
let pp_fig10 ppf (title, ms) =
  let base = baseline_cycles ms in
  Fmt.pf ppf "@.%s — relative performance (Old RT Nightly = 1.00)@." title;
  Fmt.pf ppf "  %-26s %9s  %-40s %s@." "build" "speedup" "" "check";
  List.iter
    (fun m ->
      let speedup = base /. m.r_cycles in
      Fmt.pf ppf "  %-26s %8.2fx  %-40s %s@." m.r_build speedup
        (bar 40 (speedup /. 3.0))
        (status_str m))
    ms;
  pp_faults ppf ms

(* Fig. 11-style table *)
let pp_fig11 ppf (title, ms) =
  Fmt.pf ppf "@.%s — kernel time, registers, shared memory (Fig. 11)@." title;
  Fmt.pf ppf "  %-26s %-6s %14s %7s %9s %6s %7s %10s %9s %4s@." "build" "mach"
    "ktime(cyc)" "#regs" "smem(B)" "occup" "spills" "warp-insts" "barriers" "dom";
  List.iter
    (fun m ->
      Fmt.pf ppf "  %-26s %-6s %14.0f %7d %9d %6.2f %7d %10d %9d %4d@." m.r_build
        m.r_machine
        m.r_cycles m.r_regs m.r_smem m.r_occupancy m.r_spills
        m.r_counters.Ozo_vgpu.Counters.warp_instructions
        m.r_counters.Ozo_vgpu.Counters.barriers m.r_domains)
    ms;
  pp_faults ppf ms

(* Fig. 12-style: GridMini "GFlops" (useful flops per simulated cycle,
   arbitrary units — only ratios are meaningful) *)
let pp_fig12 ppf ms =
  Fmt.pf ppf "@.gridmini — achieved flops/cycle (Fig. 12; relative units)@.";
  Fmt.pf ppf "  %-26s %12s  %-40s@." "build" "flops/cyc" "";
  let best =
    List.fold_left (fun acc m -> Float.max acc (m.r_flops /. m.r_cycles)) 0.0 ms
  in
  List.iter
    (fun m ->
      let fpc = m.r_flops /. m.r_cycles in
      Fmt.pf ppf "  %-26s %12.3f  %-40s@." m.r_build fpc (bar 40 (fpc /. best)))
    ms

(* Fig. 13-style ablation: performance with one optimization disabled,
   relative to the full pipeline *)
let pp_ablation ppf (title, rows) =
  Fmt.pf ppf "@.%s — ablation: one co-designed optimization disabled (Fig. 13 / §V-C)@."
    title;
  match rows with
  | [] -> ()
  | (_, full) :: _ ->
    Fmt.pf ppf "  %-38s %14s %9s  %s@." "configuration" "ktime(cyc)" "vs full" "check";
    List.iter
      (fun (name, m) ->
        Fmt.pf ppf "  %-38s %14.0f %8.1f%%  %s@."
          (if name = "full" then "full pipeline" else "w/o " ^ name)
          m.r_cycles
          (100.0 *. m.r_cycles /. full.r_cycles)
          (check_str m.r_check))
      rows

(* per-phase wall-clock columns (host microseconds from the trace), one
   row per build; printed only when the campaign ran with tracing. Both
   the table and the CSV derive their phase columns from the single
   [Experiments.phase_names] source, so adding an engine phase cannot
   leave header and rows disagreeing. *)
let cache_str m =
  match m.r_cache with
  | None -> "-"
  | Some (h, ms_, _) ->
    let total = h + ms_ in
    if total = 0 then "0/0"
    else Fmt.str "%d/%d (%.0f%%)" h ms_ (100.0 *. float_of_int h /. float_of_int total)

let pp_phases ppf (title, ms) =
  if List.exists (fun m -> m.r_phase_us <> []) ms then begin
    Fmt.pf ppf "@.%s — host-side phase times (us, from trace)@." title;
    Fmt.pf ppf "  %-26s" "build";
    List.iter (fun n -> Fmt.pf ppf " %10s" n) phase_names;
    Fmt.pf ppf " %18s@." "an.cache hit/miss";
    List.iter
      (fun m ->
        if m.r_phase_us <> [] then begin
          Fmt.pf ppf "  %-26s" m.r_build;
          List.iter (fun n -> Fmt.pf ppf " %10.1f" (phase_us m.r_phase_us n)) phase_names;
          Fmt.pf ppf " %18s@." (cache_str m)
        end)
      ms
  end

(* per-block hot spots from the opt-in profile, hottest first *)
let pp_hotspots ppf (m : measurement) =
  if m.r_hotspots <> [] then begin
    Fmt.pf ppf "@.%s / %s — hottest blocks@." m.r_proxy m.r_build;
    Fmt.pf ppf "  %-24s %-12s %8s %10s %10s@." "function" "block" "hits" "winsts"
      "cycles";
    List.iter
      (fun h ->
        Fmt.pf ppf "  %-24s %-12s %8d %10d %10d@." h.Ozo_vgpu.Engine.h_fn
          h.Ozo_vgpu.Engine.h_blk h.Ozo_vgpu.Engine.h_hits
          h.Ozo_vgpu.Engine.h_winsts h.Ozo_vgpu.Engine.h_cycles)
      m.r_hotspots
  end

(* supervised-execution columns, printed when a campaign ran under the
   resilience supervisor and anything noteworthy happened *)
let pp_resilience ppf (title, ms) =
  let noteworthy m =
    m.r_retries > 0 || m.r_deadline_hit || m.r_breaker <> "closed"
  in
  if List.exists noteworthy ms then begin
    Fmt.pf ppf "@.%s — supervisor activity@." title;
    Fmt.pf ppf "  %-26s %8s %9s %8s@." "build" "retries" "deadline" "breaker";
    List.iter
      (fun m ->
        if noteworthy m then
          Fmt.pf ppf "  %-26s %8d %9s %8s@." m.r_build m.r_retries
            (if m.r_deadline_hit then "hit" else "-")
            m.r_breaker)
      ms
  end

(* machine-readable one-line records, convenient for regression diffing;
   header and row are walks over [Experiments.table], so they cannot
   disagree. Compare rows across ways of running the same request on
   [Experiments.result_json], which drops the columns that record only
   how a row ran (exec, domains, cache, latency_us, ...). *)
let pp_csv_header ppf () = Fmt.pf ppf "%s@." (String.concat "," csv_columns)

let pp_csv ppf m = Fmt.pf ppf "%s@." (csv_row m)
