(* End-to-end pipeline tests: every proxy at test size under every build
   configuration and every ablation, validated against host references;
   debug builds verifying every runtime assumption; the near-zero-overhead
   structural claims of the paper. *)

module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Pipeline = Ozo_opt.Pipeline
open Util

let run_proxy ?(check_assumes = false) (p : Proxy.t) (b : C.build) :
    C.metrics * (unit, string) result =
  let r = Ozo_harness.Experiments.request_for ~check_assumes p b in
  let c = C.compile_request r (Proxy.kernel_for p b.C.b_abi) in
  let dev = C.device_request r c in
  let inst = p.Proxy.p_setup dev in
  match C.launch_request r c dev inst.Proxy.i_args with
  | Ok m -> (m, inst.Proxy.i_check ())
  | Error e ->
    Alcotest.failf "%s under %s: launch: %a" p.Proxy.p_name b.C.b_label
      Ozo_vgpu.Device.pp_error e

let check_proxy ?check_assumes p b =
  let _, r = run_proxy ?check_assumes p b in
  match r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s under %s: %s" p.Proxy.p_name b.C.b_label e

let proxies () = Ozo_proxies.Registry.all_small ()

let test_all_builds () =
  List.iter
    (fun p -> List.iter (fun b -> check_proxy p b) C.standard_builds)
    (proxies ())

let test_all_ablations () =
  (* every single-feature ablation of the full build stays correct *)
  List.iter
    (fun p ->
      List.iter
        (fun f -> check_proxy p (C.without f C.new_rt))
        [ Pipeline.B1; Pipeline.B2; Pipeline.B3; Pipeline.B4; Pipeline.C; Pipeline.D ])
    (proxies ())

let test_debug_builds_verify_assumptions () =
  (* debug builds run with assumption checking: every assume the runtime
     placed, and every oversubscription promise, must actually hold *)
  List.iter
    (fun p ->
      List.iter
        (fun b -> check_proxy ~check_assumes:true p (C.with_debug b))
        [ C.new_rt_no_assumptions; C.new_rt; C.old_rt_nightly ])
    (proxies ())

let test_violated_oversubscription_traps_in_debug () =
  (* launching an assumption build with too few threads must trap in a
     debug run instead of silently dropping iterations *)
  let k =
    Ozo_frontend.Ast.
      { k_name = "k";
        k_params = [ ("out", TInt); ("n", TInt) ];
        k_construct =
          Distribute_parallel_for ("i", P "n", [ Store (P "out", P "i", MI64, P "i") ]) }
  in
  let b = C.with_debug C.new_rt in
  (* 100 iterations on 1 team x 32 threads: not oversubscribed *)
  let r =
    C.Request.make ~build:b ~teams:1 ~threads:32
      ~opts:
        { Ozo_vgpu.Device.Launch_opts.default with
          Ozo_vgpu.Device.Launch_opts.check_assumes = true }
      ()
  in
  let c = C.compile_request r k in
  let dev = C.device_request r c in
  let out = Ozo_vgpu.Device.alloc dev (100 * 8) in
  match
    C.launch_request r c dev [ Ozo_vgpu.Engine.Ai (Ozo_vgpu.Device.ptr out); Ai 100 ]
  with
  | Error f when Fault.is_trap f -> ()
  | Ok _ -> Alcotest.fail "expected the violated assumption to trap"
  | Error f -> Alcotest.failf "fault: %s" f.Fault.f_msg

(* --- the paper's structural near-zero-overhead claims ------------------- *)

let compile_proxy p b = C.compile b (Proxy.kernel_for p b.C.b_abi)

let test_new_rt_strips_all_state () =
  (* for SPMD-able proxies, New RT leaves no shared memory, no runtime
     calls and no barriers *)
  List.iter
    (fun pname ->
      match Ozo_proxies.Registry.all_small () |> List.find_opt (fun p -> p.Proxy.p_name = pname) with
      | None -> Alcotest.failf "missing proxy %s" pname
      | Some p ->
        let c = compile_proxy p C.new_rt in
        Alcotest.(check int) (pname ^ " smem") 0 c.C.c_smem;
        let kf = Ozo_ir.Types.find_func_exn c.C.c_module p.Proxy.p_kernel_omp.Ozo_frontend.Ast.k_name in
        Alcotest.(check int) (pname ^ " barriers") 0 (count_in_func is_barrier kf);
        Alcotest.(check int) (pname ^ " calls") 0 (count_in_func is_call kf);
        Alcotest.(check int) (pname ^ " one function") 1
          (List.length c.C.c_module.Ozo_ir.Types.m_funcs))
    [ "xsbench"; "rsbench"; "gridmini"; "testsnap" ]

let test_minifmm_keeps_state () =
  (* nested parallelism must keep thread states and the shared stack *)
  let p = Ozo_proxies.Registry.all_small () |> List.find (fun p -> p.Proxy.p_name = "minifmm") in
  let c = compile_proxy p C.new_rt in
  Alcotest.(check bool) "smem survives" true (c.C.c_smem > 0)

let test_nightly_keeps_smem () =
  let p = List.hd (proxies ()) in
  let c = compile_proxy p C.new_rt_nightly in
  Alcotest.(check bool) "nightly smem ~11.3KB" true (c.C.c_smem > 11_000)

let test_assumptions_reduce_registers () =
  List.iter
    (fun p ->
      let with_a = compile_proxy p C.new_rt in
      let without_a = compile_proxy p C.new_rt_no_assumptions in
      if with_a.C.c_regs > without_a.C.c_regs then
        Alcotest.failf "%s: assumptions increased registers (%d > %d)" p.Proxy.p_name
          with_a.C.c_regs without_a.C.c_regs)
    (proxies ())

let test_remarks_emitted () =
  let p = List.hd (proxies ()) in
  let c = compile_proxy p C.new_rt in
  Alcotest.(check bool) "some applied remarks" true
    (List.exists
       (fun r -> r.Ozo_opt.Remarks.r_kind = Ozo_opt.Remarks.Applied)
       c.C.c_remarks)

let suite =
  [ tc "all proxies x all builds correct" test_all_builds;
    tc "all proxies x all ablations correct" test_all_ablations;
    tc "debug builds verify runtime assumptions" test_debug_builds_verify_assumptions;
    tc "violated oversubscription traps in debug" test_violated_oversubscription_traps_in_debug;
    tc "New RT strips all runtime state (SPMD proxies)" test_new_rt_strips_all_state;
    tc "MiniFMM keeps thread-state memory" test_minifmm_keeps_state;
    tc "nightly keeps the 11.3KB footprint" test_nightly_keeps_smem;
    tc "assumptions never increase registers" test_assumptions_reduce_registers;
    tc "optimization remarks emitted" test_remarks_emitted ]
