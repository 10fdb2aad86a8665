(* Names and memory layout shared between the runtime builders, the
   frontend lowering, and the co-designed optimization pass. Exposing this
   is the point of the paper: the runtime's state layout is a compiler-
   visible contract, not an opaque blob. *)

(* --- runtime entry points (the "kmpc" ABI) --------------------------- *)

let target_init = "__kmpc_target_init"
let target_deinit = "__kmpc_target_deinit"
let parallel = "__kmpc_parallel"
let distribute_for_loop = "__kmpc_distribute_for_loop"
let for_loop = "__kmpc_for_loop"
let barrier = "__kmpc_barrier"
let alloc_shared = "__kmpc_alloc_shared"
let free_shared = "__kmpc_free_shared"
let push_icv_state = "__kmpc_push_icv_state"
let pop_icv_state = "__kmpc_pop_icv_state"
let worker_loop = "__kmpc_worker_loop"
let omp_assert = "__omp_assert"
let get_thread_num = "omp_get_thread_num"
let get_num_threads = "omp_get_num_threads"
let get_level = "omp_get_level"
let get_team_num = "omp_get_team_num"
let get_num_teams = "omp_get_num_teams"

(* old-runtime specific worksharing (split distribute/for, chunked) *)
let old_distribute_init = "__kmpc_old_distribute_static_init"
let old_for_static_init = "__kmpc_old_for_static_init"

(* --- device state globals -------------------------------------------- *)

let spmd_flag = "__omp_spmd_flag"
let team_icv = "__omp_team_icv"
let thread_states = "__omp_thread_states"
let smem_stack = "__omp_smem_stack"
(* per-thread stack pointers: the stack is partitioned into fixed
   per-thread slices so concurrent allocate/free cannot interleave into
   corruption (a single bump pointer is not a valid concurrent allocator) *)
let smem_stack_sps = "__omp_smem_stack_sps"
let work_fn = "__omp_work_fn"
let work_args = "__omp_work_args"
let work_nt = "__omp_work_nt"
let dummy = "__omp_dummy"

(* old runtime state *)
let old_team_state = "__old_omp_team_state"   (* global memory, per team *)
let old_data_share = "__old_omp_data_share"   (* shared-memory sharing slots *)
let old_data_share_sps = "__old_omp_data_share_sps"
let old_wds = "__old_omp_wds"                 (* worksharing descriptor, shared *)

(* --- compile-time configuration globals ------------------------------ *)
(* Constant-space, [g_const = true]: the runtime "reads" them and the
   compiler folds the loads, exactly the paper's -fopenmp-*oversubscription
   and debug-mode machinery (Sections III-F, III-G). *)

let cfg_debug = "__omp_cfg_debug"
let cfg_assume_teams_oversub = "__omp_cfg_assume_teams_oversub"
let cfg_assume_threads_oversub = "__omp_cfg_assume_threads_oversub"

(* --- ICV state layout -------------------------------------------------- *)

let icv_levels = 0          (* levels-var: nesting depth *)
let icv_nthreads = 8        (* nthreads-var: threads for the next parallel *)
let icv_active_levels = 16
let icv_thread_limit = 24
let icv_run_sched = 32
let icv_size = 40

(* a thread ICV state adds a link to the previous state *)
let ts_prev = icv_size
let ts_size = icv_size + 8

let all_icv_offsets =
  [ icv_levels; icv_nthreads; icv_active_levels; icv_thread_limit; icv_run_sched ]

(* --- generic-mode execution layout ------------------------------------ *)

(* In generic mode the last warp hosts the main thread (its other lanes
   park immediately); workers are the threads below the last warp. *)
let warp_size = 32
