(* Quickstart: write an OpenMP-style kernel, compile it under the paper's
   build configurations, run it on the virtual GPU and compare.

     dune exec examples/quickstart.exe

   The kernel is a `target teams distribute parallel for` SAXPY. Watch the
   co-design happen: under "New RT" the entire OpenMP runtime folds away
   and the binary is identical to the CUDA build — zero barriers, zero
   runtime calls, zero shared memory. *)

open Ozo_frontend.Ast
module C = Ozo_core.Codesign
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine

(* #pragma omp target teams distribute parallel for
   for (i = 0; i < n; i++) out[i] = a * x[i] + y[i];                     *)
let saxpy =
  { k_name = "saxpy";
    k_params = [ ("a", TFloat); ("x", TInt); ("y", TInt); ("out", TInt); ("n", TInt) ];
    k_construct =
      Distribute_parallel_for
        ( "i",
          P "n",
          [ Store
              ( P "out", P "i", MF64,
                Add (Mul (P "a", Ld (P "x", P "i", MF64)), Ld (P "y", P "i", MF64)) )
          ] ) }

let n = 4096
let threads = 64
(* one thread per element, as the CUDA version would launch (also the
   precondition of the oversubscription flags) *)
let teams = (n + threads - 1) / threads

let run (build : C.build) =
  (* one request: what to compile and how to launch it *)
  let req = C.Request.make ~build ~teams ~threads () in
  let compiled = C.compile_request req saxpy in
  let dev = C.device_request req compiled in
  (* allocate and fill device buffers *)
  let x = Device.alloc dev (n * 8) and y = Device.alloc dev (n * 8) in
  let out = Device.alloc dev (n * 8) in
  Device.write_f64_array dev x (Array.init n float_of_int);
  Device.write_f64_array dev y (Array.init n (fun i -> float_of_int (2 * i)));
  match
    C.launch_request req compiled dev
      [ Engine.Af 3.0; Ai (Device.ptr x); Ai (Device.ptr y); Ai (Device.ptr out); Ai n ]
  with
  | Error e -> Fmt.pr "%-26s launch error: %a@." build.C.b_label Device.pp_error e
  | Ok m ->
    (* validate on the host *)
    let got = Device.read_f64_array dev out n in
    let ok = ref true in
    Array.iteri
      (fun i v -> if Float.abs (v -. (5.0 *. float_of_int i)) > 1e-9 then ok := false)
      got;
    Fmt.pr
      "%-26s %-5s ktime=%8.0f cyc  regs=%2d  smem=%5dB  runtime calls=%d  barriers=%d@."
      build.C.b_label
      (if !ok then "ok" else "WRONG")
      m.C.m_kernel_cycles m.C.m_regs m.C.m_smem m.C.m_counters.calls
      m.C.m_counters.barriers

let () =
  Fmt.pr "SAXPY (n = %d) under the paper's five build configurations:@.@." n;
  List.iter run C.standard_builds;
  Fmt.pr
    "@.The 'New RT' rows should match 'CUDA (NVCC)': the co-designed runtime@.\
     and optimizations eliminate every trace of OpenMP from the kernel.@."
