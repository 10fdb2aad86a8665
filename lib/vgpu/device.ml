(* Public virtual-GPU API: load a module, allocate device buffers, copy
   data, launch kernels and read back metrics. This plays the role of the
   CUDA driver + Nsight Compute in the paper's evaluation setup. *)

open Ozo_ir.Types

type t = {
  d_module : modul;
  d_params : Cost.params;
  d_mem : Memory.t;
  d_gaddr : (string, int) Hashtbl.t;
  d_shared_globals : (global * int) list;
  d_static_shared : int; (* bytes of static shared memory per team *)
  d_san : Sanitizer.t option; (* SIMT sanitizer, when created with ~sanitize *)
  d_exec : Engine.exec; (* executor: IR interpreter or threaded code *)
  d_plan : (string * Engine.reg_plan) list; (* register rename plans *)
  d_malloc : int option; (* [Engine.malloc_scan] of [d_module] *)
}

type buffer = { buf_ptr : int; buf_bytes : int }

(* structured fault report; [Fault.is_trap] distinguishes the historical
   Trap (explicit trap / assertion / assumption) vs Fault classification *)
type error = Fault.t

let pp_error = Fault.pp

let create ?(params = Cost.default) ?(sanitize = false)
    ?(exec = Engine.Exec_ir) ?(plan = []) (m : modul) : t =
  let mem = Memory.create ~threads_per_team:params.max_threads_per_sm in
  let san = if sanitize then Some (Sanitizer.create mem) else None in
  (match san with Some s -> Memory.set_watcher mem (Sanitizer.watcher s) | None -> ());
  let gaddr, shared_globals, shared_size = Engine.assign_addresses mem m in
  mem.Memory.shared_size <- shared_size;
  { d_module = m; d_params = params; d_mem = mem; d_gaddr = gaddr;
    d_shared_globals = shared_globals; d_static_shared = shared_size; d_san = san;
    d_exec = exec; d_plan = plan; d_malloc = Engine.malloc_scan m }

let sanitized t = t.d_san <> None

(* Allocate a device buffer in global memory. *)
let alloc t bytes = { buf_ptr = Memory.alloc_global t.d_mem bytes; buf_bytes = bytes }

let alloc_const t bytes =
  { buf_ptr = Memory.alloc_const t.d_mem bytes; buf_bytes = bytes }

let ptr b = b.buf_ptr

let write_i64s t buf vals =
  List.iteri
    (fun i v -> Memory.store_int t.d_mem ~thread:0 (buf.buf_ptr + (i * 8)) I64 v)
    vals

let write_f64s t buf vals =
  List.iteri
    (fun i v -> Memory.store_float t.d_mem ~thread:0 (buf.buf_ptr + (i * 8)) v)
    vals

let write_i64_array t buf vals =
  Array.iteri
    (fun i v -> Memory.store_int t.d_mem ~thread:0 (buf.buf_ptr + (i * 8)) I64 v)
    vals

let write_f64_array t buf vals =
  Array.iteri
    (fun i v -> Memory.store_float t.d_mem ~thread:0 (buf.buf_ptr + (i * 8)) v)
    vals

let read_i64 t buf i = Memory.load_int t.d_mem ~thread:0 (buf.buf_ptr + (i * 8)) I64
let read_f64 t buf i = Memory.load_float t.d_mem ~thread:0 (buf.buf_ptr + (i * 8))

let read_i64_array t buf n = Array.init n (read_i64 t buf)
let read_f64_array t buf n = Array.init n (read_f64 t buf)

(* Encoded device address of a module-level global, when it exists.
   Differential harnesses (the IR fuzzer) use this to read back
   accumulator globals that are not reachable through any buffer. *)
let global_ptr t name = Hashtbl.find_opt t.d_gaddr name

let read_global_i64 t name =
  Option.map (fun ptr -> Memory.load_int t.d_mem ~thread:0 ptr Ozo_ir.Types.I64)
    (global_ptr t name)

(* Launch-time options, replacing the old optional-flag soup
   (?check_assumes ?trace ?budget ?inject). Build one with record update
   on [default]:
     Device.launch ~opts:{ Device.Launch_opts.default with check_assumes = true } ...
   Note [sanitize] stays on [create]: the sanitizer's shadow state must
   watch allocations made while the host sets up buffers, before any
   launch exists. *)
module Launch_opts = struct
  type t = {
    check_assumes : bool; (* validate __omp_assume facts at runtime *)
    debug_print : bool; (* print Debug_print instructions as they execute *)
    budget : int; (* per-team instruction-issue budget (runaway-kernel guard) *)
    inject : Faultinject.spec option; (* seeded fault injection *)
    trace : Ozo_obs.Trace.ctx; (* span/event destination; Trace.null = off *)
    profile : bool; (* collect the per-block hot-spot profile *)
    watchdog : (unit -> bool) option;
    (* wall-clock watchdog polled by the engine scheduler: returns true
       once the launch deadline has passed, turning a wedged launch into
       a structured [Fault.Deadline] error instead of a hung campaign.
       Polled per domain; the first deadline wins deterministically (the
       fault on the lowest team id is the one reported). *)
    domains : int;
    (* OCaml domains to shard team execution over; 1 = the exact
       sequential path. Results are bit-identical at every count; capped
       at the team count *)
  }

  let default =
    { check_assumes = false; debug_print = false; budget = 400_000_000;
      inject = None; trace = Ozo_obs.Trace.null; profile = false;
      watchdog = None; domains = 1 }
end

let launch ?(opts = Launch_opts.default) t ~teams ~threads args :
    (Engine.result, error) Result.t =
  let l =
    { Engine.l_teams = teams; l_threads = threads; l_args = args;
      l_check_assumes = opts.Launch_opts.check_assumes;
      l_debug = opts.Launch_opts.debug_print }
  in
  let trace = opts.Launch_opts.trace in
  (match t.d_san with Some s -> Sanitizer.enter_kernel s | None -> ());
  Ozo_obs.Trace.begin_span trace ~cat:"launch"
    ~args:
      [ ("teams", Ozo_obs.Trace.Int teams);
        ("threads", Ozo_obs.Trace.Int threads) ]
    "launch";
  let finish () =
    match t.d_san with Some s -> Sanitizer.exit_kernel s | None -> ()
  in
  match
    Engine.run ~budget:opts.Launch_opts.budget ~params:t.d_params ?san:t.d_san
      ?inject:opts.Launch_opts.inject ~trace ~profile:opts.Launch_opts.profile
      ?watchdog:opts.Launch_opts.watchdog ~domains:opts.Launch_opts.domains
      ~exec:t.d_exec ~plan:t.d_plan ~malloc:t.d_malloc t.d_module ~mem:t.d_mem
      ~gaddr:t.d_gaddr ~shared_globals:t.d_shared_globals l
  with
  | r ->
    Ozo_obs.Trace.end_span trace ();
    finish ();
    Ok r
  | exception Fault.Kernel_trap f ->
    Ozo_obs.Trace.end_span trace
      ~args:[ ("fault", Ozo_obs.Trace.Str (Fault.kind_name f.Fault.f_kind)) ]
      ();
    finish ();
    Error f
  | exception Fault.Kernel_fault f ->
    Ozo_obs.Trace.end_span trace
      ~args:[ ("fault", Ozo_obs.Trace.Str (Fault.kind_name f.Fault.f_kind)) ]
      ();
    finish ();
    Error f

