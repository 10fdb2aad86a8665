(* Frontend tests: AST utilities and the three lowerings, executed
   unoptimized against host-evaluated expectations. *)

open Ozo_frontend.Ast
module Lower = Ozo_frontend.Lower
module Config = Ozo_runtime.Config
module Runtime = Ozo_runtime.Runtime
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
open Util

let abis =
  [ ("cuda", Lower.Cuda, None);
    ("omp-new", Lower.Omp Lower.New_abi, Some Config.default);
    ("omp-old", Lower.Omp Lower.Old_abi, Some Config.old_rt) ]

let compile_unopt abi rt kernel =
  let app = Lower.lower ~abi kernel in
  match rt with
  | None -> app
  | Some cfg -> Ozo_ir.Linker.link app (Runtime.build cfg)

let test_free_vars () =
  let body =
    [ Let ("a", Add (P "x", Int 1));
      Local ("acc", TFloat, Some (Float 0.0));
      Set ("acc", Add (P "acc", P "y"));
      Store (P "out", P "a", MF64, P "acc") ]
  in
  let fv = free_vars body in
  Alcotest.(check (list string)) "free" [ "out"; "x"; "y" ]
    (List.sort compare (SSet.elements fv))

let test_free_vars_loops () =
  let body =
    [ For ("i", Int 0, P "n", [ Store (P "out", P "i", MI64, P "i") ]);
      Ws_for ("j", P "m", [ Store (P "out", P "j", MI64, P "k") ]) ]
  in
  let fv = free_vars body in
  Alcotest.(check (list string)) "loop vars bound" [ "k"; "m"; "n"; "out" ]
    (List.sort compare (SSet.elements fv))

let test_local_decls_nested () =
  let body =
    [ Local ("a", TInt, None);
      If (Int 1, [ Local ("b", TFloat, None) ], [ LocalArr ("c", MF64, 4) ]);
      For ("i", Int 0, Int 3, [ Local ("d", TInt, None) ]);
      Parallel (None, [ Local ("outlined", TInt, None) ]) ]
  in
  let names = List.map fst (local_decls body) in
  Alcotest.(check (list string)) "hoisted decls" [ "a"; "b"; "c"; "d" ]
    (List.sort compare names)

(* a kernel exercising expressions, locals, If, For, While *)
let expr_kernel =
  { k_name = "k";
    k_params = [ ("out", TInt); ("n", TInt) ];
    k_construct =
      Distribute_parallel_for
        ( "i",
          P "n",
          [ Local ("acc", TInt, Some (Int 0));
            For ("j", Int 0, Int 4, [ Set ("acc", Add (P "acc", Mul (P "i", P "j"))) ]);
            Local ("w", TInt, Some (Int 1));
            While (Cmp (CLt, P "w", Int 10), [ Set ("w", Mul (P "w", Int 3)) ]);
            If
              ( Cmp (CEq, Rem (P "i", Int 2), Int 0),
                [ Set ("acc", Add (P "acc", Int 100)) ],
                [ Set ("acc", Sub (P "acc", Int 100)) ] );
            Store (P "out", P "i", MI64, Add (P "acc", P "w"))
          ] ) }

let expr_expected n =
  Array.init n (fun i ->
      let acc = 6 * i in
      let acc = if i mod 2 = 0 then acc + 100 else acc - 100 in
      acc + 27)

let run_expr_kernel (name, abi, rt) =
  let n = 64 in
  let m = compile_unopt abi rt expr_kernel in
  check_verifies name m;
  let threads =
    match Ozo_opt.Spmdize.kernel_mode m "k" with
    | Ozo_opt.Spmdize.Generic -> 64
    | Ozo_opt.Spmdize.Spmd -> 32
  in
  let dev = Device.create m in
  let out = Device.alloc dev (n * 8) in
  (match Device.launch dev ~teams:2 ~threads [ Engine.Ai (Device.ptr out); Ai n ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %a" name Device.pp_error e);
  let got = i64_array dev out n in
  let expected = expr_expected n in
  Array.iteri
    (fun i e -> Alcotest.(check int) (Printf.sprintf "%s[%d]" name i) e got.(i))
    expected

let test_expr_cuda () = run_expr_kernel (List.nth abis 0)
let test_expr_omp_new () = run_expr_kernel (List.nth abis 1)
let test_expr_omp_old () = run_expr_kernel (List.nth abis 2)

(* float math expressions *)
let math_kernel =
  { k_name = "k";
    k_params = [ ("out", TInt); ("n", TInt) ];
    k_construct =
      Distribute_parallel_for
        ( "i",
          P "n",
          [ Let ("x", Add (ToFloat (P "i"), Float 0.5));
            Let
              ( "v",
                Add
                  ( Sqrt (P "x"),
                    Add
                      ( Mul (Sinf (P "x"), Cosf (P "x")),
                        Add (Expf (Neg (P "x")), Logf (Add (P "x", Float 1.0))) ) ) );
            Let ("v2", Max (Fabs (Sub (P "v", Float 1.0)), Min (P "v", Float 0.25)));
            Store (P "out", P "i", MF64, Select (Cmp (CGt, P "v2", Float 0.5), P "v2", Neg (P "v2")))
          ] ) }

let math_expected n =
  Array.init n (fun i ->
      let x = float_of_int i +. 0.5 in
      let v = sqrt x +. ((sin x *. cos x) +. (exp (-.x) +. log (x +. 1.0))) in
      let v2 = Float.max (Float.abs (v -. 1.0)) (Float.min v 0.25) in
      if v2 > 0.5 then v2 else -.v2)

let test_math_kernel () =
  List.iter
    (fun (name, abi, rt) ->
      let n = 32 in
      let m = compile_unopt abi rt math_kernel in
      check_verifies name m;
      let threads =
        match Ozo_opt.Spmdize.kernel_mode m "k" with
        | Ozo_opt.Spmdize.Generic -> 64
        | Ozo_opt.Spmdize.Spmd -> 32
      in
      let dev = Device.create m in
      let out = Device.alloc dev (n * 8) in
      (match Device.launch dev ~teams:1 ~threads [ Engine.Ai (Device.ptr out); Ai n ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name Device.pp_error e);
      check_f64s name (math_expected n) (f64_array dev out n))
    abis

(* local arrays *)
let arr_kernel =
  { k_name = "k";
    k_params = [ ("out", TInt); ("n", TInt) ];
    k_construct =
      Distribute_parallel_for
        ( "i",
          P "n",
          [ LocalArr ("tmp", MF64, 4);
            For ("j", Int 0, Int 4, [ Store (P "tmp", P "j", MF64, ToFloat (Mul (P "i", P "j"))) ]);
            Local ("s", TFloat, Some (Float 0.0));
            For ("j2", Int 0, Int 4, [ Set ("s", Add (P "s", Ld (P "tmp", P "j2", MF64))) ]);
            Store (P "out", P "i", MF64, P "s")
          ] ) }

let test_local_arrays () =
  List.iter
    (fun (name, abi, rt) ->
      let n = 48 in
      let m = compile_unopt abi rt arr_kernel in
      check_verifies name m;
      let threads =
        match Ozo_opt.Spmdize.kernel_mode m "k" with
        | Ozo_opt.Spmdize.Generic -> 64
        | Ozo_opt.Spmdize.Spmd -> 32
      in
      let dev = Device.create m in
      let out = Device.alloc dev (n * 8) in
      (match Device.launch dev ~teams:2 ~threads [ Engine.Ai (Device.ptr out); Ai n ] with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name Device.pp_error e);
      let expected = Array.init n (fun i -> float_of_int (6 * i)) in
      check_f64s name expected (f64_array dev out n))
    abis

(* shared mutable local across a parallel region (generic construct): one
   designated thread writes the main thread's (globalized) local; the main
   thread reads it after the join. *)
let shared_local_kernel =
  { k_name = "k";
    k_params = [ ("out", TInt) ];
    k_construct =
      Generic
        [ Local ("flag", TInt, Some (Int 0));
          Parallel
            ( None,
              [ If (Cmp (CEq, OmpThreadNum, Int 3), [ Set ("flag", Int 42) ], []) ] );
          Store (P "out", Int 0, MI64, P "flag")
        ] }

let test_shared_local_across_parallel () =
  List.iter
    (fun (name, abi, rt) ->
      match abi with
      | Lower.Cuda -> () (* no generic construct in CUDA *)
      | _ ->
        let m = compile_unopt abi rt shared_local_kernel in
        check_verifies name m;
        let dev = Device.create m in
        let out = Device.alloc dev 8 in
        (match
           Device.launch dev ~teams:1 ~threads:64 [ Engine.Ai (Device.ptr out) ]
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %a" name Device.pp_error e);
        Alcotest.(check int) (name ^ " shared flag") 42 (i64_array dev out 1).(0))
    abis

let test_nested_parallel_levels () =
  (* omp_get_level: 0 at target, 1 in parallel, 2 in nested *)
  let k =
    { k_name = "k";
      k_params = [ ("out", TInt) ];
      k_construct =
        Generic
          [ Store (P "out", Int 0, MI64, OmpLevel);
            Parallel
              ( None,
                [ If
                    ( Cmp (CEq, OmpThreadNum, Int 0),
                      [ Store (P "out", Int 1, MI64, OmpLevel);
                        Nested_parallel [ Store (P "out", Int 2, MI64, OmpLevel) ]
                      ],
                      [] )
                ] )
          ] }
  in
  let m = compile_unopt (Lower.Omp Lower.New_abi) (Some Config.default) k in
  check_verifies "nested levels" m;
  let dev = Device.create m in
  let out = Device.alloc dev 24 in
  (match Device.launch dev ~teams:1 ~threads:64 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev out 3 in
  Alcotest.(check int) "target level" 0 got.(0);
  Alcotest.(check int) "parallel level" 1 got.(1);
  Alcotest.(check int) "nested level" 2 got.(2)

let test_parallel_in_cuda_rejected () =
  let k =
    { k_name = "k"; k_params = [];
      k_construct = Generic [ Parallel (None, []) ] }
  in
  match Lower.lower ~abi:Lower.Cuda k with
  | exception Lower.Lower_error _ -> ()
  | _ -> Alcotest.fail "expected Lower_error"

let test_assert_stmt () =
  let k ok =
    { k_name = "k"; k_params = [];
      k_construct = Spmd [ Assert (Int (if ok then 1 else 0)) ] }
  in
  (* CUDA: a failing assert traps directly *)
  (match
     let m = compile_unopt Lower.Cuda None (k false) in
     let dev = Device.create m in
     Device.launch dev ~teams:1 ~threads:32 []
   with
  | Error f when Fault.is_trap f -> ()
  | Ok _ -> Alcotest.fail "cuda assert should trap"
  | Error f -> Alcotest.failf "fault: %s" f.Fault.f_msg);
  (* OpenMP debug build traps, release converts to assumption *)
  let m_dbg =
    compile_unopt (Lower.Omp Lower.New_abi) (Some Config.(with_debug default)) (k false)
  in
  (match
     let dev = Device.create m_dbg in
     Device.launch dev ~teams:1 ~threads:32 []
   with
  | Error f when Fault.is_trap f -> ()
  | Ok _ -> Alcotest.fail "debug assert should trap"
  | Error f -> Alcotest.failf "fault: %s" f.Fault.f_msg);
  let m_rel = compile_unopt (Lower.Omp Lower.New_abi) (Some Config.default) (k false) in
  let dev = Device.create m_rel in
  match Device.launch dev ~teams:1 ~threads:32 [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "release assert: %a" Device.pp_error e

let suite =
  [ tc "free_vars basics" test_free_vars;
    tc "free_vars binds loop vars" test_free_vars_loops;
    tc "local_decls hoisting scope" test_local_decls_nested;
    tc "expr kernel: cuda" test_expr_cuda;
    tc "expr kernel: omp-new (generic)" test_expr_omp_new;
    tc "expr kernel: omp-old" test_expr_omp_old;
    tc "math expressions (all abis)" test_math_kernel;
    tc "local arrays (all abis)" test_local_arrays;
    tc "shared local across parallel" test_shared_local_across_parallel;
    tc "nested parallel levels" test_nested_parallel_levels;
    tc "parallel rejected in CUDA lowering" test_parallel_in_cuda_rejected;
    tc "assert statement (cuda/debug/release)" test_assert_stmt ]
