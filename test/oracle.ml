(* The differential oracle (DESIGN.md §4): every bit-identity claim of
   the simulator as one table of cells x variants.

   A cell is one request: a proxy under a build on a machine, with the
   sanitizer or an injection armed where the cell says so. Its reference
   is one launch at domains 1 on the IR interpreter. A variant changes
   only how the request runs, so it must show what the reference shows:
   every counter per team and in total, the check verdict and the launch
   metrics, or the full fault line; for a row cell, the measured row's
   [result_json]. A cell compiles once per executor, the vm artifact
   through the table's one compile cache; launch-only variants reuse it.

   A row of the table is a set of cells and the variants they run. Rows
   that pin one subsystem's claim sit in that subsystem's suite (the
   [Domains] rows in [domains], the [Vm] rows in [vm], the per-machine
   rows in [portability]); the rest form the suite [oracle]. A set of
   cells is made once, shared by every row that reads it, and let go
   after the last of them. *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Pipeline = Ozo_opt.Pipeline
module Machine = Ozo_backend.Machine
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
module Cost = Ozo_vgpu.Cost
module Journal = Ozo_resilience.Journal
module Cache = Ozo_serve.Cache

type variant =
  | Domains of int (* teams sharded over n OCaml domains *)
  | Vm of int (* threaded code, at n domains *)
  | Cached (* the vm artifact, asked of the cache again, comes back as a hit *)
  | Traced (* trace and profile on *)
  | Journaled (* the measured row through a journal line and back *)

let variant_name = function
  | Domains d -> Fmt.str "domains=%d" d
  | Vm d -> Fmt.str "vm domains=%d" d
  | Cached -> "cached"
  | Traced -> "traced+profiled"
  | Journaled -> "journaled"

type cell = {
  name : string;
  proxy : Proxy.t;
  build : C.build;
  machine : Machine.t;
  sanitize : bool;
  inject : Ozo_vgpu.Faultinject.spec option;
  row : bool; (* observed as the harness's measured row *)
  ir : C.compiled Lazy.t;
  vm : C.compiled Lazy.t;
  reference : string list Lazy.t;
}

let request ?(domains = 1) ?(exec = Engine.Exec_ir) ?(traced = false) c =
  E.request_for ?inject:c.inject ~sanitize:c.sanitize ~machine:c.machine ~domains ~exec
    ~profile:traced
    ~trace:(if traced then Ozo_obs.Trace.make () else Ozo_obs.Trace.null)
    c.proxy c.build

let kernel c = Proxy.kernel_for c.proxy c.build.C.b_abi

let counters t =
  String.concat " "
    (List.map (fun (n, get, _) -> n ^ "=" ^ string_of_int (get t)) Counters.fields)

(* One launch of [p] under [r] on [dev]: per-team and total counters, the
   check verdict and the launch metrics, priced as [C.launch_request]
   prices them (it returns totals only); or the full fault line. *)
let launch (p : Proxy.t) (r : C.Request.t) (c : C.compiled) (dev : Device.t) =
  let inst = p.Proxy.p_setup dev in
  let hw = C.hw_threads c ~threads:p.Proxy.p_threads in
  match
    Device.launch ~opts:r.C.Request.rq_opts dev ~teams:p.Proxy.p_teams ~threads:hw
      inst.Proxy.i_args
  with
  | Error f -> [ "fault " ^ Ozo_vgpu.Fault.to_line f ]
  | Ok res ->
    let cp = Machine.cost_params c.C.c_machine and teams = res.Engine.r_counters in
    let occ =
      Machine.to_cost_occupancy
        (Machine.occupancy c.C.c_machine ~threads_per_team:hw ~regs_per_thread:c.C.c_regs
           ~shared_per_team:c.C.c_smem)
    in
    let cycles =
      Cost.kernel_time cp ~occupancy:occ
        ~team_cycles:(List.map (fun t -> t.Counters.cycles) teams)
        ~mem_cycles:(Counters.memory_cycles cp res.Engine.r_total)
    in
    List.mapi (fun i t -> "team " ^ string_of_int i ^ ": " ^ counters t) teams
    @ [ "total: " ^ counters res.Engine.r_total;
        "check: " ^ Ozo_harness.Report.check_str (inst.Proxy.i_check ());
        Fmt.str "kernel cycles %h, regs %d, smem %d, occupancy %h, spills %d" cycles
          c.C.c_regs c.C.c_smem occ.Cost.o_occupancy (C.spill_count c) ]

(* the cell's row as the harness measures it, its primary attempt on [c] *)
let measure cell (r : C.Request.t) c =
  let compiler (r' : C.Request.t) k =
    if r'.C.Request.rq_build = r.C.Request.rq_build then c else C.compile_request r' k
  in
  E.measure_request ~compiler cell.proxy r

let observe cell (r : C.Request.t) c =
  if not cell.row then launch cell.proxy r c (C.device_request r c)
  else
    let m = measure cell r c and d = r.C.Request.rq_opts.Device.Launch_opts.domains in
    Alcotest.(check (list string))
      (cell.name ^ ": the row records how it ran")
      [ Engine.exec_name r.C.Request.rq_exec;
        string_of_int (min d cell.proxy.Proxy.p_teams); cell.machine.Machine.mc_name ]
      [ m.E.r_exec; string_of_int m.E.r_domains; m.E.r_machine ];
    [ "check: " ^ Ozo_harness.Report.check_str m.E.r_check; "row " ^ E.result_json m ]

(* The table's one compile cache, where each cell's vm artifact is
   compiled cold. Capped, it holds only the last few artifacts; cells
   that differ only in their machine sit next to each other ([grid]),
   so a key that lost the machine comes back as a hit across them. *)
let cache = Cache.create ~cap:4 ()

(* [validates]: the reference must also pass its check *)
let cell ?(machine = Machine.vgpu) ?(tag = "") ?(sanitize = false) ?inject ?(row = false)
    ?(validates = false) proxy build =
  let name =
    Fmt.str "%s/%s/%s on %s%s" proxy.Proxy.p_name build.C.b_label
      build.C.b_pipe.Pipeline.name machine.Machine.mc_name tag
  in
  let rec c =
    { name; proxy; build; machine; sanitize; inject; row;
      ir = lazy (C.compile_request (request c) (kernel c));
      vm =
        lazy (fst (Cache.compile_request cache (request ~exec:Engine.Exec_vm c) (kernel c)));
      reference =
        lazy
          (let obs = observe c (request c) (Lazy.force c.ir) in
           if validates && not (List.mem "check: ok" obs) then
             Alcotest.failf "%s: the reference does not validate:@.%a" name
               Fmt.(list ~sep:cut string) obs;
           obs) }
  in
  c

(* [m] journaled as one line and loaded back *)
let through_journal name m =
  let path = Filename.temp_file "ozo_oracle" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let w = Journal.start ~path ~fingerprint:"oracle" in
  Journal.append w ~seq:0 m;
  Journal.close w;
  match Journal.load ~path with
  | Ok (_, [ e ]) -> e.Journal.e_m
  | Ok _ | Error _ -> Alcotest.failf "%s: the journaled row does not load back" name

(* (what the variant must show, what it shows); a variant forces only
   the artifact it launches *)
let run cell v =
  let ir () = Lazy.force cell.ir and vm () = Lazy.force cell.vm in
  match v with
  | Domains d -> (cell.reference, observe cell (request ~domains:d cell) (ir ()))
  | Vm d -> (cell.reference, observe cell (request ~domains:d ~exec:Engine.Exec_vm cell) (vm ()))
  | Traced -> (cell.reference, observe cell (request ~traced:true cell) (ir ()))
  | Cached -> (
    let vm = vm () and r = request ~exec:Engine.Exec_vm cell in
    match Cache.compile_request cache r (kernel cell) with
    (* the very artifact [Vm] launches shows what it shows *)
    | c, `Hit when c == vm -> (cell.reference, Lazy.force cell.reference)
    | c, `Hit -> (cell.reference, observe cell r c)
    | _, `Miss -> Alcotest.failf "%s: a repeated request missed the cache" cell.name)
  | Journaled ->
    let m = measure cell (request cell) (ir ()) in
    (lazy [ E.result_json m ], [ E.result_json (through_journal cell.name m) ])

(* A set of cells, made on first read and let go once each of its
   [readers] rows has run; a row run again makes it anew. *)
type cells = { make : unit -> cell list; mutable made : cell list option; mutable readers : int }

let cells make = { make; made = None; readers = 0 }

let read set =
  match set.made with
  | Some cs -> cs
  | None ->
    let cs = set.make () in
    set.made <- Some cs;
    cs

let release set =
  set.readers <- set.readers - 1;
  if set.readers <= 0 then set.made <- None

(* one row: every cell of [sets] under every variant of [variants] *)
let tc name sets variants =
  List.iter (fun set -> set.readers <- set.readers + 1) sets;
  Alcotest.test_case name `Quick @@ fun () ->
  List.iter
    (fun cell ->
      List.iter
        (fun v ->
          let expected, got = run cell v in
          Alcotest.(check (list string))
            (Fmt.str "%s [%s]" cell.name (variant_name v))
            (Lazy.force expected) got)
        variants)
    (List.concat_map read sets);
  List.iter release sets

(* --- the cells ------------------------------------------------------------ *)

(* each of [proxies] under each of [builds p] on each of [machines], the
   machine innermost so that [cache] can catch a key that lost it *)
let grid ?(proxies = Registry.all_small) ?(machines = [ Machine.vgpu ]) ?tag ?sanitize ?inject
    ?row ?validates builds =
  cells @@ fun () ->
  List.concat_map
    (fun p ->
      List.concat_map
        (fun b ->
          List.map
            (fun machine -> cell ~machine ?tag ?sanitize ?inject ?row ?validates p b)
            machines)
        (builds p))
    (proxies ())

let machines = [ Machine.v100; Machine.mi250; Machine.h100 ]
let with_pipe pipe b = { b with C.b_pipe = pipe }
let new_rt p = [ E.new_rt_for p ]
let eval name () = [ Registry.find_exn name ]

(* new-rt at O0, baseline and full, and the generic-mode old-rt whose
   runtime exercises malloc-backed data sharing *)
let vgpu =
  grid (fun p ->
      [ with_pipe Pipeline.o0 (E.new_rt_for p); with_pipe Pipeline.baseline (E.new_rt_for p);
        E.new_rt_for p; C.old_rt_nightly ])

(* the SPMDized runtimes, runtime-free CUDA, and old-rt under the
   baseline pipeline, which stays in generic mode where the worker count
   is [bdim - warp_size] *)
let per_machine =
  grid ~machines ~validates:true (fun p ->
      [ C.old_rt_nightly; with_pipe Pipeline.baseline C.old_rt_nightly; E.new_rt_for p; C.cuda ])

let sanitized = grid ~sanitize:true ~tag:" sanitized" new_rt

(* one eval-size gridmini (building the registry takes ~16 ms) for both seeds *)
let injected =
  let gridmini = lazy (eval "gridmini" ()) in
  let seed s =
    let inject = Result.get_ok (Ozo_vgpu.Faultinject.parse ~seed:s "corrupt-load") in
    grid ~proxies:(fun () -> Lazy.force gridmini) ~inject ~tag:(Fmt.str " inject seed %d" s)
      (fun _ -> [ C.old_rt_nightly ])
  in
  cells @@ fun () -> List.concat_map (fun s -> (seed s).make ()) [ 3; 42 ]

(* spilled allocations fall back to interpretation on the vm path *)
let spill8 = grid ~machines:[ Machine.with_reg_budget 8 Machine.vgpu ] ~tag:" spill8" new_rt

let row_on machines = grid ~proxies:(eval "xsbench") ~machines ~row:true ~tag:" eval row" new_rt
let vgpu_row = row_on [ Machine.vgpu ]
let machine_rows = row_on machines

(* --- the table ------------------------------------------------------------ *)

(* Every row names its suite. Every cell is in an [oracle] row that runs
   [Cached] and [Traced], and in some row that runs [Vm 1]. *)
let table =
  [ ("oracle", tc "vgpu: small proxies x {O0, baseline, full, old-rt}" [ vgpu ] [ Cached; Traced ]);
    ( "domains",
      (* 3 rarely divides a proxy's team count; 64 exceeds it and must be
         capped to teams *)
      tc "parallel = sequential for every proxy x pipeline x domains" [ vgpu ]
        [ Domains 2; Domains 3; Domains 4; Domains 64 ] );
    ("vm", tc "vm = ir for every proxy x pipeline x domains" [ vgpu ] [ Vm 1; Vm 4 ]);
    ( "oracle",
      tc "v100, mi250, h100: small proxies x 4 builds" [ per_machine ]
        [ Domains 4; Vm 1; Vm 4; Cached; Traced ] );
    ("oracle", tc "sanitized small proxies" [ sanitized ] [ Cached; Traced ]);
    ("domains", tc "sanitizer verdicts identical at domains 4" [ sanitized ] [ Domains 4 ]);
    ("vm", tc "sanitizer verdicts identical on the vm path" [ sanitized ] [ Vm 1 ]);
    ("oracle", tc "injected gridmini, seeds 3 and 42" [ injected ] [ Journaled; Cached; Traced ]);
    ("domains", tc "injected site identical across domain counts" [ injected ] [ Domains 2; Domains 4 ]);
    ("vm", tc "injected site identical on the vm path" [ injected ] [ Vm 1 ]);
    ("oracle", tc "8-register budget (spill fallback)" [ spill8 ] [ Vm 1; Cached; Traced ]);
    ( "oracle",
      tc "eval-size xsbench rows per machine" [ vgpu_row; machine_rows ] [ Cached; Traced ] );
    ( "domains",
      tc "campaign csv rows byte-identical across domain counts" [ vgpu_row ] [ Domains 4 ] );
    ("vm", tc "campaign csv rows byte-identical across exec paths" [ vgpu_row ] [ Vm 1; Vm 4 ]);
    ( "portability",
      tc "per machine: campaign csv bytes identical" [ machine_rows ] [ Domains 4; Vm 1; Vm 4 ] )
  ]

let suite_of name = List.filter_map (fun (s, t) -> if s = name then Some t else None) table
let suite = suite_of "oracle"
