(* ozobench: the repository's end-to-end benchmark.

   Three seeded workloads drive the public functions of lib/ and time
   them from outside; nothing inside lib/ is instrumented for it.

   - campaign-full: the paper's Fig. 10-12 sweep. Each sweep builds the
     five evaluation-size proxies from data seeds derived from the run
     seed and runs them under the five standard builds on vgpu through
     [Experiments.measure_request] (one-shot [Codesign.compile_request]).
     Row time is dominated by simulated execution.
   - compile-sweep: small proxies x (5 standard builds + New RT with each
     of B1..B4, C, D disabled) x (vgpu, 64-wide mi250, h100), each row
     compiled cold through the same one-shot path. Row time is dominated
     by the optimization pipeline and the backend.
   - serve-zipf: a closed loop with one client. Each request is one
     [Service.run ~cache] call for a key (small proxy x build name x
     machine) drawn Zipf(1.1) over 75 keys; every call shares one
     compile cache of 24 entries that starts empty. Hits pay only link,
     key derivation and launch; misses compile and evict.

   Every row is checked against its proxy's host reference
   ([Proxy.i_check]); a row that fails the check, faults, falls back to
   a weaker pipeline or raises counts as failed with infinite latency.

   Usage:
     ozobench [--workload W] [--seed S] [--seconds T] [--trace 0|1]
     ozobench smoke [--bench BENCHMARK.json]
     ozobench compare OLD.jsonl NEW.jsonl [--bench BENCHMARK.json]

   Without --workload every workload runs in its own fresh process. The
   amount of work scales with --seconds (calibrated so one run takes
   about that long on a 2-core x86 host); the inputs depend only on
   --seed and --seconds. Each metric is printed as one JSON line; the
   last line is the result object
     {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
   holding the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). A traced run first repeats the untraced pass, then
   drives the same rows through the individual stage calls, and fails
   if the two passes disagree on any simulated result. *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Machine = Ozo_backend.Machine
module Vm = Ozo_backend.Vm
module Pipeline = Ozo_opt.Pipeline
module Trace = Ozo_obs.Trace
module Json = Ozo_obs.Json
module Cache = Ozo_serve.Cache
module Service = Ozo_serve.Service
module Prng = Ozo_util.Prng

let default_seed = 1
let holdout_seed = 7919

(* ---------- output ------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let print_metric w m =
  Printf.printf "{\"workload\": %S, \"metric\": %S, \"value\": %s, \"unit\": %S}\n" w
    m.name (num m.value) m.unit_

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
          ms))

(* ---------- statistics -------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let geomean = function
  | [] -> Float.nan
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Python's statistics.quantiles(xs, n=4) (the default 'exclusive'
   method), so compare reports the quartiles the same way as tools
   reading the raw runs *)
let quartiles (xs : float list) =
  let d = Array.of_list (List.sort compare xs) in
  let ld = Array.length d in
  if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* ---------- workloads --------------------------------------------------- *)

(* One unit of work. A [Row] is compiled and launched one-shot; a
   [Request] is served by [Service.run] through the shared cache. *)
type item =
  | Row of Proxy.t * C.build * Machine.t
  | Request of string * string * Service.opts (* proxy name, build name *)

type workload = {
  w_name : string;
  w_items : seed:int -> seconds:float -> item array;
  w_served : bool;
  (* requests share one compile cache, which starts cold: set-up has no
     warm-up row, as the cold cache is part of the workload *)
}

let units ~per_s seconds = max 1 (Float.to_int (Float.round (per_s *. seconds)))

(* per-proxy data seed of sweep [i] under run seed [seed] *)
let data_seed seed i k = Prng.int (Prng.create ((seed * 1_000_003) + (i * 101) + k)) 1_000_000_007

let proxies ~small seed i =
  let s = data_seed seed i in
  let open Ozo_proxies in
  let pick d sm = if small then sm else d in
  [ Xsbench.problem ~params:{ (pick Xsbench.default Xsbench.small) with Xsbench.seed = s 0 } ();
    Rsbench.problem ~params:{ (pick Rsbench.default Rsbench.small) with Rsbench.seed = s 1 } ();
    Gridmini.problem
      ~params:{ (pick Gridmini.default Gridmini.small) with Gridmini.seed = s 2 } ();
    Testsnap.problem
      ~params:{ (pick Testsnap.default Testsnap.small) with Testsnap.seed = s 3 } ();
    Minifmm.problem ~params:{ (pick Minifmm.default Minifmm.small) with Minifmm.seed = s 4 } () ]

let machines = [ Machine.vgpu; Machine.mi250; Machine.h100 ]

let campaign_full =
  { w_name = "campaign-full"; w_served = false;
    w_items =
      (fun ~seed ~seconds ->
        List.init (units ~per_s:1.4 seconds) (fun i ->
            List.concat_map
              (fun p -> List.map (fun b -> Row (p, b, Machine.vgpu)) (E.builds_for p))
              (proxies ~small:false seed i))
        |> List.concat |> Array.of_list) }

let ablations = Pipeline.[ B1; B2; B3; B4; C; D ]

let compile_sweep =
  { w_name = "compile-sweep"; w_served = false;
    w_items =
      (fun ~seed ~seconds ->
        List.init (units ~per_s:1.7 seconds) (fun i ->
            let ps = proxies ~small:true seed i in
            List.concat_map
              (fun m ->
                List.concat_map
                  (fun p ->
                    List.map
                      (fun b -> Row (p, b, m))
                      (E.builds_for p
                      @ List.map (fun f -> C.without f (E.new_rt_for p)) ablations))
                  ps)
              machines)
        |> List.concat |> Array.of_list) }

let zipf_s = 1.1
let cache_cap = 24

(* Popularity drifts: every [epoch] requests the seed re-deals which key
   sits at which rank. Per-key costs differ up to 6x, so a run that
   hinged on one hot set would measure the seed more than the program;
   many hot sets per run average that out, and the cache sees its
   working set move. *)
let epoch = 250

(* Zipf(s) rank sampler over [n] ranks: inverse CDF by binary search *)
let zipf_sampler n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (float_of_int (r + 1) ** -.zipf_s);
    cdf.(r) <- !acc
  done;
  fun u ->
    let x = u *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

let serve_zipf =
  { w_name = "serve-zipf"; w_served = true;
    w_items =
      (fun ~seed ~seconds ->
        let names = List.map (fun p -> p.Proxy.p_name) (Registry.all_small ()) in
        let keys =
          Array.of_list
            (List.concat_map
               (fun m ->
                 let o = { Service.default with Service.sv_small = true; sv_machine = m } in
                 List.concat_map
                   (fun pn -> List.map (fun bn -> Request (pn, bn, o)) E.build_names)
                   names)
               machines)
        in
        let rng = Prng.create seed in
        let deal () =
          for i = Array.length keys - 1 downto 1 do
            let j = Prng.int rng (i + 1) in
            let t = keys.(i) in
            keys.(i) <- keys.(j);
            keys.(j) <- t
          done
        in
        let draw = zipf_sampler (Array.length keys) in
        Array.init (units ~per_s:500.0 seconds) (fun i ->
            if i mod epoch = 0 then deal ();
            keys.(draw (Prng.float rng)))) }

let workloads = [ campaign_full; compile_sweep; serve_zipf ]

(* ---------- rows -------------------------------------------------------- *)

(* what a row produced: the simulated results the digest covers *)
type outcome = {
  o_proxy : string;
  o_build : string;
  o_machine : string;
  o_cycles : float;
  o_issues : int;
  o_regs : int;
  o_smem : int;
  o_spills : int;
  o_ok : bool;
  o_fallback : bool;
}

let died =
  { o_proxy = "-"; o_build = "-"; o_machine = "-"; o_cycles = 0.0; o_issues = 0; o_regs = 0;
    o_smem = 0; o_spills = 0; o_ok = false; o_fallback = false }

let digest_line o =
  Printf.sprintf "%s|%s|%s|%.17g|%d|%d|%d|%d" o.o_proxy o.o_build o.o_machine o.o_cycles
    o.o_issues o.o_regs o.o_smem o.o_spills

let of_measurement (m : E.measurement) =
  { o_proxy = m.E.r_proxy; o_build = m.E.r_build; o_machine = m.E.r_machine;
    o_cycles = m.E.r_cycles; o_issues = m.E.r_counters.Ozo_vgpu.Counters.warp_instructions;
    o_regs = m.E.r_regs; o_smem = m.E.r_smem; o_spills = m.E.r_spills;
    o_ok = m.E.r_check = Ok () && m.E.r_fault = None && m.E.r_fallbacks = [];
    o_fallback = m.E.r_fallbacks <> [] }

(* the row exactly as a user of lib/ runs it *)
let run_plain cache = function
  | Row (p, b, m) -> of_measurement (E.measure_request p (E.request_for ~machine:m p b))
  | Request (pn, bn, o) -> (
    match Service.run ?cache o [ (pn, bn) ] with
    | [ m ], _ -> of_measurement m
    | _ -> died)

(* ---------- the traced pass -------------------------------------------- *)

(* Per-layer sums over a pass. [covered] is the wall time of the timed
   top-level calls, so a row's unattributed time is what lies outside
   every one of them. *)
type acc = { tbl : (string, float) Hashtbl.t; mutable covered : float }

let get a k = Option.value ~default:0.0 (Hashtbl.find_opt a.tbl k)
let add a k v = Hashtbl.replace a.tbl k (get a k +. v)

let timed a f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  let mb = (Gc.allocated_bytes () -. a0) /. 1e6 in
  a.covered <- a.covered +. ms;
  (r, ms, mb)

let charge a ?mb ms f =
  let r, t, m = timed a f in
  add a ms t;
  Option.iter (fun k -> add a k m) mb;
  r

(* A trace ctx whose clock also snapshots [Gc.allocated_bytes], keyed by
   the relative timestamp the ctx stores, so every span lib/ already
   emits yields an allocation delta as well as a duration. *)
type probe = { ctx : Trace.ctx; alloc_at : (float, float) Hashtbl.t }

let probe () =
  let alloc_at = Hashtbl.create 64 and t0 = ref Float.nan in
  let clock () =
    let t = Unix.gettimeofday () *. 1e6 in
    if Float.is_nan !t0 then t0 := t;
    Hashtbl.replace alloc_at (t -. !t0) (Gc.allocated_bytes ());
    t
  in
  { ctx = Trace.make ~clock (); alloc_at }

let span_mb pr (s : Trace.span) =
  let at k = Option.value ~default:0.0 (Hashtbl.find_opt pr.alloc_at k) in
  (at s.Trace.sp_stop -. at s.Trace.sp_start) /. 1e6

let passes =
  [ "inline"; "local_opt"; "cse"; "strip"; "internalize"; "spmdize"; "globalization";
    "memfold"; "drop_assumes"; "barrier_elim" ]

(* "local_opt2" and "strip2" are second instances of the same passes *)
let pass_key name =
  let base =
    match name with "local_opt2" -> "local_opt" | "strip2" -> "strip" | n -> n
  in
  "opt.pass." ^ base ^ ".ms"

let int_arg k args = match List.assoc_opt k args with Some (Trace.Int v) -> v | _ -> 0

(* Attribute one row's spans; returns (launch-phase ms, compile ms,
   instructions removed by the pipeline). *)
let read_spans a pr =
  let phases = ref 0.0 and compile = ref 0.0 and removed = ref 0 in
  Trace.iter pr.ctx (function
    | Trace.Span s -> (
      let ms = Trace.dur s /. 1e3 and mb = span_mb pr s in
      match s.Trace.sp_name with
      | "compile" ->
        (* compile_linked outside the pipeline and the backend: the
           post-opt and post-backend verifier runs and bookkeeping *)
        compile := !compile +. ms;
        add a "opt.compiles" 1.0;
        let kids =
          List.filter_map (function Trace.Span k -> Some k | _ -> None) (Trace.sub s)
        in
        add a "ir.verify_ms"
          (ms -. List.fold_left (fun acc k -> acc +. (Trace.dur k /. 1e3)) 0.0 kids);
        add a "ir.alloc_mb" (mb -. List.fold_left (fun acc k -> acc +. span_mb pr k) 0.0 kids)
      | "backend:lower" ->
        add a "backend.ms" ms;
        add a "backend.alloc_mb" mb
      | ("decode" | "execute" | "readback") as ph ->
        phases := !phases +. ms;
        add a ("vgpu." ^ ph ^ "_ms") ms
      | n when String.starts_with ~prefix:"pipeline:" n ->
        add a "opt.ms" ms;
        add a "opt.alloc_mb" mb
      | n when String.starts_with ~prefix:"pass:" n ->
        add a (pass_key (String.sub n 5 (String.length n - 5))) ms;
        removed := !removed + int_arg "insts_removed" s.Trace.sp_args
      | _ -> ())
    | Trace.Instant i when i.Trace.i_name = "analysis-cache" ->
      let hits = int_arg "hits" i.Trace.i_args in
      add a "opt.analysis_hits" (float_of_int hits);
      add a "opt.analysis_lookups" (float_of_int (hits + int_arg "misses" i.Trace.i_args))
    | Trace.Instant _ -> ());
  (!phases, !compile, !removed)

let insts m =
  let _, _, n = Pipeline.module_stats m in
  float_of_int n

let vm_insts (c : C.compiled) =
  List.fold_left
    (fun acc vf ->
      let s = Vm.func_stats vf in
      acc + s.Vm.vs_ops + s.Vm.vs_moves + s.Vm.vs_reloads + s.Vm.vs_spills)
    0 c.C.c_lower.Ozo_backend.Lower.lw_program.Vm.pr_funcs

(* The same row as [run_plain], driven through the individual stage
   calls. The link stage and the compile key are computed explicitly
   (on serve-zipf the cache derives them again inside its lookup); the
   compile itself runs inside [Codesign.compile_linked] or the cache,
   and is split by the spans they emit. *)
let run_traced a cache item =
  let pr = probe () in
  let trace = pr.ctx in
  let p, b, m, r =
    match item with
    | Row (p, b, m) -> (p, b, m, E.request_for ~trace ~machine:m p b)
    | Request (pn, bn, o) ->
      let p = Service.resolve_proxy o pn in
      let b =
        match E.build_of_name p bn with Ok b -> b | Error e -> failwith e
      in
      ( p, b, o.Service.sv_machine,
        E.request_for ~check_assumes:o.Service.sv_check_assumes
          ~sanitize:o.Service.sv_sanitize ~trace ~domains:o.Service.sv_domains
          ~machine:o.Service.sv_machine p b )
  in
  let k = Proxy.kernel_for p b.C.b_abi in
  let app =
    charge a "frontend.ms" ~mb:"frontend.alloc_mb" (fun () ->
        Ozo_frontend.Lower.lower ~abi:b.C.b_abi k)
  in
  let linked =
    match b.C.b_rt with
    | None -> app
    | Some cfg ->
      let rt =
        charge a "runtime.ms" ~mb:"runtime.alloc_mb" (fun () ->
            Ozo_runtime.Runtime.build ~warp_size:m.Machine.mc_warp_size cfg)
      in
      charge a "ir.link_ms" ~mb:"ir.alloc_mb" (fun () -> Ozo_ir.Linker.link app rt)
  in
  (match charge a "ir.verify_ms" ~mb:"ir.alloc_mb" (fun () -> Ozo_ir.Verifier.check linked) with
  | Ok () -> ()
  | Error _ -> failwith "linked module rejected by the verifier");
  ignore
    (charge a "serve.key_ms" (fun () ->
         C.Compile_key.of_linked ~machine:m ~exec:r.C.Request.rq_exec b linked));
  add a "frontend.insts" (insts app);
  add a "ir.linked_insts" (insts linked);
  let c, lookup_ms =
    match cache with
    | None ->
      let c, _, _ =
        timed a (fun () ->
            C.compile_linked ~trace ~machine:m ~exec:r.C.Request.rq_exec b ~kernel:k linked)
      in
      (c, None)
    | Some cache ->
      let (c, disp), ms, _ = timed a (fun () -> Cache.compile_request cache r k) in
      (c, Some (disp, ms))
  in
  let dev =
    charge a "vgpu.device_ms" ~mb:"vgpu.alloc_mb" (fun () -> C.device_request r c)
  in
  let inst =
    charge a "proxies.setup_ms" ~mb:"proxies.alloc_mb" (fun () -> p.Proxy.p_setup dev)
  in
  let res, launch_ms, launch_mb =
    timed a (fun () -> C.launch_request r c dev inst.Proxy.i_args)
  in
  add a "vgpu.alloc_mb" launch_mb;
  let check = charge a "harness.check_ms" (fun () -> inst.Proxy.i_check ()) in
  let phases, compile_ms, removed = read_spans a pr in
  add a "vgpu.launch_ms" (launch_ms -. phases);
  if compile_ms > 0.0 then add a "opt.insts_out" (insts linked -. float_of_int removed);
  (match lookup_ms with
  | Some (`Hit, ms) ->
    add a "serve.hits" 1.0;
    add a "serve.hit_ms" ms
  | Some (`Miss, ms) ->
    add a "serve.misses" 1.0;
    add a "serve.miss_ms" (ms -. compile_ms)
  | None -> ());
  add a "backend.vm_insts" (float_of_int (vm_insts c));
  add a "backend.spills" (float_of_int (C.spill_count c));
  add a "backend.regs" (float_of_int c.C.c_regs);
  match res with
  | Error _ -> died
  | Ok mt ->
    add a "vgpu.warp_issues" (float_of_int mt.C.m_counters.Ozo_vgpu.Counters.warp_instructions);
    { o_proxy = p.Proxy.p_name; o_build = b.C.b_label; o_machine = m.Machine.mc_name;
      o_cycles = mt.C.m_kernel_cycles;
      o_issues = mt.C.m_counters.Ozo_vgpu.Counters.warp_instructions; o_regs = mt.C.m_regs;
      o_smem = mt.C.m_smem; o_spills = mt.C.m_spills; o_ok = check = Ok ();
      o_fallback = false }

(* ---------- passes ------------------------------------------------------ *)

type pass = {
  outcomes : outcome array;
  lat_ms : float array; (* per row; infinity when the row failed *)
  wall_s : float;
  alloc_mb : float;
  cache : Cache.stats option;
}

let run_pass w items row =
  let cache = if w.w_served then Some (Cache.create ~cap:cache_cap ()) else None in
  let lat_ms = Array.make (Array.length items) 0.0 in
  let a0 = Gc.allocated_bytes () in
  let t_start = Unix.gettimeofday () in
  let outcomes =
    Array.mapi
      (fun i it ->
        let t0 = Unix.gettimeofday () in
        let o = try row cache it with _ -> died in
        lat_ms.(i) <- (if o.o_ok then (Unix.gettimeofday () -. t0) *. 1e3 else infinity);
        o)
      items
  in
  let wall_s = Unix.gettimeofday () -. t_start in
  { outcomes; lat_ms; wall_s; alloc_mb = (Gc.allocated_bytes () -. a0) /. 1e6;
    cache = Option.map Cache.stats cache }

let rows ps = Array.length ps.outcomes
let ok_rows ps = Array.fold_left (fun n o -> if o.o_ok then n + 1 else n) 0 ps.outcomes

let sim_digest ps =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (Array.to_list (Array.map digest_line ps.outcomes))))

(* The validated rows the simulated metrics average over: each input
   once. One-shot rows are all distinct inputs; a served key repeats, so
   serve-zipf counts each key once and its popularity skew does not
   weight the simulated metrics. *)
let simulated w ps =
  let seen = Hashtbl.create 256 in
  Array.fold_left
    (fun acc o ->
      let l = digest_line o in
      if (not o.o_ok) || (w.w_served && Hashtbl.mem seen l) then acc
      else begin
        Hashtbl.replace seen l ();
        o :: acc
      end)
    [] ps.outcomes

(* geomean over proxies of New RT cycles / CUDA cycles on vgpu *)
let newrt_over_cuda os =
  let on_vgpu label p =
    List.filter_map
      (fun o ->
        if o.o_proxy = p && o.o_build = label && o.o_machine = "vgpu" then Some o.o_cycles
        else None)
      os
  in
  let names = List.sort_uniq compare (List.map (fun o -> o.o_proxy) os) in
  geomean
    (List.filter_map
       (fun p ->
         match (on_vgpu C.new_rt.C.b_label p, on_vgpu C.cuda.C.b_label p) with
         | [], _ | _, [] -> None
         | n, c -> Some (geomean n /. geomean c))
       names)

let end_to_end w ~setup_s ps =
  let n = float_of_int (rows ps) in
  let lat = sorted ps.lat_ms in
  let issues =
    Array.fold_left (fun s o -> if o.o_ok then s + o.o_issues else s) 0 ps.outcomes
  in
  let d = simulated w ps in
  [ metric "setup_s" "s" setup_s;
    metric "rows_per_s" "1/s" (float_of_int (ok_rows ps) /. ps.wall_s);
    metric "latency_p50_ms" "ms" (Service.percentile lat 50.0);
    metric "latency_p90_ms" "ms" (Service.percentile lat 90.0);
    metric "latency_p99_ms" "ms" (Service.percentile lat 99.0);
    metric "alloc_mb_per_row" "MB" (ps.alloc_mb /. n);
    metric "peak_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    metric "sim_issues_per_s" "1/s" (float_of_int issues /. ps.wall_s);
    metric "sim_cycles_geomean" "cycles" (geomean (List.map (fun o -> o.o_cycles) d));
    metric "newrt_over_cuda" "ratio" (newrt_over_cuda d) ]

let ratio x y = if y > 0.0 then x /. y else 0.0

let per_layer a ~plain ~traced =
  let n = float_of_int (rows traced) in
  let per_row k = get a k /. n in
  let compiles = get a "opt.compiles" in
  let hits, misses, evictions =
    match traced.cache with
    | Some s -> (s.Cache.cs_hits, s.Cache.cs_misses, s.Cache.cs_evictions)
    | None -> (0, 0, 0)
  in
  let row_ms = Array.fold_left ( +. ) 0.0 traced.lat_ms in
  let ms name = metric name "ms" (per_row name) and mb name = metric name "MB" (per_row name) in
  [ ms "frontend.ms"; mb "frontend.alloc_mb";
    metric "frontend.insts" "count" (per_row "frontend.insts");
    ms "runtime.ms"; mb "runtime.alloc_mb";
    ms "ir.link_ms"; ms "ir.verify_ms"; mb "ir.alloc_mb";
    metric "ir.linked_insts" "count" (per_row "ir.linked_insts");
    ms "opt.ms"; mb "opt.alloc_mb";
    metric "opt.insts_out" "count" (ratio (get a "opt.insts_out") compiles);
    metric "opt.analysis_hit_rate" "ratio"
      (ratio (get a "opt.analysis_hits") (get a "opt.analysis_lookups")) ]
  @ List.map (fun p -> ms ("opt.pass." ^ p ^ ".ms")) passes
  @ [ ms "backend.ms"; mb "backend.alloc_mb";
      metric "backend.vm_insts" "count" (per_row "backend.vm_insts");
      metric "backend.spills" "count" (per_row "backend.spills");
      metric "backend.regs" "count" (per_row "backend.regs");
      ms "serve.key_ms";
      metric "serve.hit_rate" "ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
      metric "serve.evictions" "count" (float_of_int evictions);
      ms "vgpu.device_ms"; ms "vgpu.launch_ms"; ms "vgpu.decode_ms"; ms "vgpu.execute_ms";
      ms "vgpu.readback_ms"; mb "vgpu.alloc_mb";
      metric "vgpu.warp_issues" "count" (per_row "vgpu.warp_issues");
      metric "vgpu.issues_per_s" "1/s"
        (ratio (get a "vgpu.warp_issues") (get a "vgpu.execute_ms" /. 1e3));
      ms "proxies.setup_ms"; mb "proxies.alloc_mb";
      ms "harness.check_ms";
      metric "harness.fallbacks" "count"
        (float_of_int
           (Array.fold_left (fun k o -> if o.o_fallback then k + 1 else k) 0 plain.outcomes));
      metric "bench.unattributed_ms" "ms" ((row_ms -. a.covered) /. n);
      metric "bench.trace_overhead_pct" "%" (((traced.wall_s /. plain.wall_s) -. 1.0) *. 100.0) ]

(* serve-only detail, printed beside the per-layer metrics *)
let serve_detail a =
  [ metric "serve.hit_ms" "ms" (ratio (get a "serve.hit_ms") (get a "serve.hits"));
    metric "serve.miss_ms" "ms" (ratio (get a "serve.miss_ms") (get a "serve.misses")) ]

(* ---------- one workload in this process -------------------------------- *)

let setup_reps = 5

(* Set-up is repeated and its median reported: proxy generation and,
   for the one-shot workloads, one untimed warm-up row. *)
let setup w ~seed ~seconds =
  let times = Array.make setup_reps 0.0 and items = ref [||] in
  for i = 0 to setup_reps - 1 do
    let t0 = Unix.gettimeofday () in
    let its = w.w_items ~seed ~seconds in
    if not w.w_served then ignore (run_plain None its.(0));
    times.(i) <- Unix.gettimeofday () -. t0;
    items := its
  done;
  ((sorted times).(setup_reps / 2), !items)

let run_workload w ~seed ~seconds ~traced =
  let setup_s, items = setup w ~seed ~seconds in
  let plain = run_pass w items run_plain in
  let e2e = end_to_end w ~setup_s plain in
  let name = w.w_name in
  List.iter (print_metric name) e2e;
  let failed ps = rows ps - ok_rows ps in
  print_metric name
    (metric "fail_frac" "ratio" (float_of_int (failed plain) /. float_of_int (rows plain)));
  let digest = sim_digest plain in
  Printf.printf "{\"workload\": %S, \"pass\": \"plain\", \"sim_digest\": %S}\n" name digest;
  if not traced then begin
    let ok = failed plain = 0 in
    print_result ~correct:ok ~attempted:(rows plain) ~failed:(failed plain) e2e;
    ok
  end
  else begin
    let a = { tbl = Hashtbl.create 64; covered = 0.0 } in
    let tr = run_pass w items (run_traced a) in
    let tdigest = sim_digest tr in
    Printf.printf "{\"workload\": %S, \"pass\": \"traced\", \"sim_digest\": %S}\n" name tdigest;
    let same_cache = plain.cache = tr.cache in
    if tdigest <> digest then
      Printf.eprintf "ozobench: %s: traced sim_digest %s differs from untraced %s\n" name
        tdigest digest;
    if not same_cache then
      Printf.eprintf "ozobench: %s: traced cache hits/misses/evictions differ from untraced\n"
        name;
    let layers = per_layer a ~plain ~traced:tr in
    List.iter (print_metric name) (layers @ if w.w_served then serve_detail a else []);
    let ok = failed plain = 0 && failed tr = 0 && tdigest = digest && same_cache in
    print_result ~correct:ok
      ~attempted:(rows plain + rows tr)
      ~failed:(failed plain + failed tr)
      layers;
    ok
  end

(* ---------- child processes --------------------------------------------- *)

let child_args ~workload ~seed ~seconds ~trace =
  [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
     Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]

(* every workload, each in its own fresh process *)
let run_all ~seed ~seconds ~trace =
  flush stdout;
  List.fold_left
    (fun ok w ->
      let pid =
        Unix.create_process Sys.executable_name
          (child_args ~workload:w.w_name ~seed ~seconds ~trace)
          Unix.stdin Unix.stdout Unix.stderr
      in
      snd (Unix.waitpid [] pid) = Unix.WEXITED 0 && ok)
    true workloads

(* ---------- BENCHMARK.json ---------------------------------------------- *)

type spec = { s_name : string; s_unit : string; s_better : string; s_bound : float option }

let load_bench path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> failwith (path ^ ": " ^ e) in
  let specs key =
    match Option.bind (Json.member key j) Json.to_list with
    | None -> failwith (path ^ ": no " ^ key ^ " list")
    | Some l ->
      List.map
        (fun m ->
          let str k =
            match Option.bind (Json.member k m) Json.to_string with
            | Some s -> s
            | None -> failwith (path ^ ": " ^ key ^ " entry without " ^ k)
          in
          { s_name = str "name"; s_unit = str "unit"; s_better = str "better";
            s_bound = Option.bind (Json.member "bound" m) Json.to_number })
        l
  in
  (specs "end_to_end", specs "per_layer")

(* ---------- smoke ------------------------------------------------------- *)

let smoke_seconds = 0.2

(* run one child, returning its exit status and parsed output lines *)
let capture args =
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (ok, List.filter_map (fun l -> if l = "" then None else Result.to_option (Json.parse l)) lines)

let smoke bench =
  let e2e, layer = load_bench bench in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun seed ->
      List.iter
        (fun w ->
          let digests = ref [] in
          List.iter
            (fun trace ->
              let where = Printf.sprintf "%s seed %d trace %b" w.w_name seed trace in
              let ok, js =
                capture (child_args ~workload:w.w_name ~seed ~seconds:smoke_seconds ~trace)
              in
              if not ok then fail "%s: non-zero exit" where;
              List.iter
                (fun j ->
                  (match Option.bind (Json.member "sim_digest" j) Json.to_string with
                  | Some d -> digests := d :: !digests
                  | None -> ());
                  match
                    ( Option.bind (Json.member "metric" j) Json.to_string,
                      Option.bind (Json.member "value" j) Json.to_number )
                  with
                  | Some "fail_frac", Some v when v <> 0.0 -> fail "%s: fail_frac %g" where v
                  | _ -> ())
                js;
              match List.rev js with
              | [] -> fail "%s: no output" where
              | result :: _ ->
                if Json.member "correct" result <> Some (Json.Bool true) then
                  fail "%s: result not correct" where;
                if Option.bind (Json.member "failed" result) Json.to_number <> Some 0.0 then
                  fail "%s: failed rows" where;
                let ms = Json.member "metrics" result in
                List.iter
                  (fun s ->
                    match Option.bind ms (Json.member s.s_name) with
                    | None -> fail "%s: metric %s not printed" where s.s_name
                    | Some m -> (
                      match Option.bind (Json.member "unit" m) Json.to_string with
                      | Some u when u = s.s_unit -> ()
                      | _ -> fail "%s: metric %s unit is not %s" where s.s_name s.s_unit))
                  (if trace then layer else e2e))
            [ false; true ];
          match List.sort_uniq compare !digests with
          | [ _ ] -> ()
          | _ -> fail "%s seed %d: sim_digest differs between runs" w.w_name seed)
        workloads)
    [ default_seed; holdout_seed ];
  match !errors with
  | [] ->
    print_endline "ozobench smoke: ok";
    true
  | es ->
    List.iter (Printf.eprintf "ozobench smoke: %s\n") (List.rev es);
    false

(* ---------- compare ----------------------------------------------------- *)

(* (workload, metric) -> values in file order, from ozobench output *)
let load_runs path =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun l ->
         match Json.parse l with
         | Ok j -> (
           match
             ( Option.bind (Json.member "workload" j) Json.to_string,
               Option.bind (Json.member "metric" j) Json.to_string,
               Option.bind (Json.member "value" j) Json.to_number )
           with
           | Some w, Some m, Some v ->
             let k = (w, m) in
             Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
           | _ -> ())
         | Error _ -> ());
  Hashtbl.filter_map_inplace (fun _ vs -> Some (List.rev vs)) tbl;
  tbl

(* A gain needs the change to win at least 9 of 10 pairs (i-th old run
   against i-th new run) and medians further apart than the old runs'
   quartile spread; a loss is a worsening beyond the metric's bound. A
   spread wider than the bound is unresolved unless every new run beats
   every old one. Metrics without a bound are judged by the gain rule
   in both directions. *)
let verdict (s : spec) olds news =
  let q1o, mo, q3o = quartiles olds and q1n, mn, q3n = quartiles news in
  let sign = if s.s_better = "higher" then -1.0 else 1.0 in
  let scale = if mo = 0.0 then 1.0 else Float.abs mo in
  let worse = sign *. (mn -. mo) /. scale in
  let spread_old = (q3o -. q1o) /. scale in
  let spread = Float.max spread_old ((q3n -. q1n) /. scale) in
  let better x y = sign *. (x -. y) < 0.0 in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip olds news in
  let wins f = List.length (List.filter (fun (o, n) -> f n o) pairs) in
  let np = List.length pairs in
  let all_better =
    List.for_all (fun n -> List.for_all (fun o -> better n o) olds) news
  in
  let gain f = np > 0 && 10 * wins f >= 9 * np && Float.abs worse > spread_old in
  match s.s_bound with
  | Some b ->
    if all_better && worse < 0.0 then "better"
    else if spread > b then "unresolved"
    else if worse > b then "worse"
    else if worse < 0.0 && gain better then "better"
    else "unchanged"
  | None ->
    if worse < 0.0 && gain better then "better"
    else if worse > 0.0 && gain (fun x y -> better y x) then "worse"
    else "unchanged"

let compare_files bench old_path new_path =
  let e2e, layer = load_bench bench in
  let olds = load_runs old_path and news = load_runs new_path in
  let workload_names = List.map (fun w -> w.w_name) workloads in
  Printf.printf "%-14s %-26s %34s %34s %8s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "delta" "verdict";
  let fmt (q1, m, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  let short_pairs = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match (Hashtbl.find_opt olds (w, s.s_name), Hashtbl.find_opt news (w, s.s_name)) with
          | Some o, Some n ->
            if min (List.length o) (List.length n) < 10 then short_pairs := true;
            let (_, mo, _) as qo = quartiles o and qn = quartiles n in
            let _, mn, _ = qn in
            Printf.printf "%-14s %-26s %34s %34s %+7.2f%%  %s\n" w s.s_name (fmt qo) (fmt qn)
              (if mo = 0.0 then 0.0 else (mn -. mo) /. Float.abs mo *. 100.0)
              (verdict s o n)
          | _ -> ())
        (e2e @ layer))
    workload_names;
  if !short_pairs then
    print_endline "note: fewer than 10 runs on a side; a gain needs >= 10 alternating pairs"

(* ---------- command line ------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: ozobench [--workload W] [--seed S] [--seconds T] [--trace 0|1]\n\
    \       ozobench smoke [--bench BENCHMARK.json]\n\
    \       ozobench compare OLD.jsonl NEW.jsonl [--bench BENCHMARK.json]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | ("--workload" | "--seed" | "--seconds" | "--trace" | "--bench") as k :: v :: rest ->
      opts ((k, v) :: acc) rest
    | "--traced" :: rest -> opts (("--trace", "1") :: acc) rest
    | [] -> (acc, [])
    | rest -> (acc, rest)
  in
  let cmd, rest =
    match args with
    | ("smoke" | "compare") as c :: rest -> (c, rest)
    | _ -> ("run", args)
  in
  let files, rest =
    if cmd = "compare" then
      match rest with o :: n :: rest -> (Some (o, n), rest) | _ -> usage ()
    else (None, rest)
  in
  let kv, extra = opts [] rest in
  if extra <> [] then usage ();
  let get k d = Option.value ~default:d (List.assoc_opt k kv) in
  let int_of k d = match int_of_string_opt (get k d) with Some v -> v | None -> usage () in
  let bench = get "--bench" "BENCHMARK.json" in
  let ok =
    try
      match cmd with
      | "smoke" -> smoke bench
      | "compare" ->
        Option.iter (fun (o, n) -> compare_files bench o n) files;
        true
      | _ -> (
        let seed = int_of "--seed" (string_of_int default_seed) in
        let seconds =
          match float_of_string_opt (get "--seconds" "20") with
          | Some s when s > 0.0 -> s
          | _ -> usage ()
        in
        let trace =
          match get "--trace" "0" with "0" -> false | "1" -> true | _ -> usage ()
        in
        match List.assoc_opt "--workload" kv with
        | None -> run_all ~seed ~seconds ~trace
        | Some name -> (
          match List.find_opt (fun w -> w.w_name = name) workloads with
          | Some w -> run_workload w ~seed ~seconds ~traced:trace
          | None ->
            Printf.eprintf "ozobench: unknown workload %s\n" name;
            false))
    with Failure e | Sys_error e ->
      Printf.eprintf "ozobench: %s\n" e;
      false
  in
  exit (if ok then 0 else 1)
