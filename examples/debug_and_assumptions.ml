(* Debugging, assertions and assumptions (paper Sections III-F and III-G).

     dune exec examples/debug_and_assumptions.exe

   1. A user assertion inside a target region traps in the debug build and
      costs nothing in the release build (it becomes a compiler
      assumption).
   2. The oversubscription promise (-fopenmp-assume-teams-oversubscription)
      is verified at runtime in debug builds: launching with too few
      threads traps instead of silently dropping iterations.
   3. Debug builds re-check every broadcast assume the runtime placed. *)

open Ozo_frontend.Ast
module C = Ozo_core.Codesign
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine

let kernel ~with_assert =
  { k_name = "k";
    k_params = [ ("out", TInt); ("n", TInt) ];
    k_construct =
      Distribute_parallel_for
        ( "i",
          P "n",
          (if with_assert then [ Assert (Cmp (CLt, P "i", Int 100)) ] else [])
          @ [ Store (P "out", P "i", MI64, Mul (P "i", Int 7)) ] ) }

let try_run label build k ~teams ~threads ~n ~check_assumes =
  let opts = { Device.Launch_opts.default with Device.Launch_opts.check_assumes } in
  let r = C.Request.make ~opts ~build ~teams ~threads () in
  let c = C.compile_request r k in
  let dev = C.device_request r c in
  let out = Device.alloc dev (n * 8) in
  match C.launch_request r c dev [ Engine.Ai (Device.ptr out); Ai n ] with
  | Ok m ->
    Fmt.pr "  %-44s completed (%.0f cycles)@." label m.C.m_kernel_cycles
  | Error e -> Fmt.pr "  %-44s %a@." label Device.pp_error e

let () =
  Fmt.pr "1. user assertion `assert(i < 100)` on a 128-iteration loop:@.";
  (* release: assertion compiled into an assumption, not checked *)
  try_run "release build (assertion erased)" C.new_rt_no_assumptions
    (kernel ~with_assert:true) ~teams:4 ~threads:32 ~n:128 ~check_assumes:false;
  (* debug: the failing assertion traps *)
  try_run "debug build (assertion live)"
    (C.with_debug C.new_rt_no_assumptions)
    (kernel ~with_assert:true) ~teams:4 ~threads:32 ~n:128 ~check_assumes:false;

  Fmt.pr "@.2. oversubscription promise with an undersized launch (64 threads, n=128):@.";
  try_run "release build (silently wrong results!)" C.new_rt
    (kernel ~with_assert:false) ~teams:2 ~threads:32 ~n:128 ~check_assumes:false;
  try_run "debug build + runtime checking"
    (C.with_debug C.new_rt)
    (kernel ~with_assert:false) ~teams:2 ~threads:32 ~n:128 ~check_assumes:true;

  Fmt.pr "@.3. correctly sized launch under the debug build (all assumes verified):@.";
  try_run "debug build, 128 threads for n=128"
    (C.with_debug C.new_rt)
    (kernel ~with_assert:false) ~teams:4 ~threads:32 ~n:128 ~check_assumes:true
