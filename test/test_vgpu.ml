(* Virtual-GPU engine tests: SIMT semantics, divergence/reconvergence,
   barriers (including misuse detection), atomics, memory spaces,
   indirect calls, traps, assumption checking and runaway protection. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Memory = Ozo_vgpu.Memory
open Util

let out_arg dev n =
  let buf = Device.alloc dev (n * 8) in
  (buf, Engine.Ai (Device.ptr buf))

(* kernel writing f(tid) for each thread *)
let per_thread_kernel emit_value =
  kernel_module ~params:[ I64 ] (fun b ps ->
      match ps with
      | [ out ] ->
        let tid = B.thread_id b in
        let v = emit_value b tid in
        B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)))
      | _ -> assert false)

let test_thread_ids () =
  let m = per_thread_kernel (fun _ tid -> tid) in
  let dev = Device.create m in
  let buf, arg = out_arg dev 64 in
  (match Device.launch dev ~teams:1 ~threads:64 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 64 in
  Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "tid %d" i) i v) got

let test_intrinsics () =
  (* out[tid] = block_id * 1000 + block_dim *)
  let m =
    per_thread_kernel (fun b _ ->
        let bid = B.block_id b in
        let bdim = B.block_dim b in
        B.add b (B.mul b bid (B.i64 1000)) bdim)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:3 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  (* teams run sequentially; the last team's writes survive *)
  let got = i64_array dev buf 32 in
  Alcotest.(check int) "last team" ((2 * 1000) + 32) got.(0)

let test_divergence_reconvergence () =
  (* if tid even then x = 10 else x = 20; out[tid] = x + 1 (after join) *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let even = B.icmp b Eq (B.and_ b tid (B.i64 1)) (B.i64 0) in
          B.cond_br b even "even" "odd";
          B.set_block b "even";
          B.br b "join";
          B.set_block b "odd";
          B.br b "join";
          B.set_block b "join";
          let x = B.phi b I64 [ ("even", B.i64 10); ("odd", B.i64 20) ] in
          let v = B.add b x (B.i64 1) in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
          B.ret b None
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok r ->
    Alcotest.(check bool) "diverged" true (r.Engine.r_total.divergent_branches > 0)
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri
    (fun i v -> Alcotest.(check int) "phi value" (if i mod 2 = 0 then 11 else 21) v)
    got

let test_nested_divergence () =
  (* two nested data-dependent branches *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let q = B.and_ b tid (B.i64 3) in
          let c0 = B.icmp b Slt q (B.i64 2) in
          B.cond_br b c0 "lo" "hi";
          B.set_block b "lo";
          let c1 = B.icmp b Eq q (B.i64 0) in
          B.cond_br b c1 "l0" "l1";
          B.set_block b "l0";
          B.br b "join";
          B.set_block b "l1";
          B.br b "join";
          B.set_block b "hi";
          let c2 = B.icmp b Eq q (B.i64 2) in
          B.cond_br b c2 "h2" "h3";
          B.set_block b "h2";
          B.br b "join";
          B.set_block b "h3";
          B.br b "join";
          B.set_block b "join";
          let v =
            B.phi b I64
              [ ("l0", B.i64 100); ("l1", B.i64 101); ("h2", B.i64 102); ("h3", B.i64 103) ]
          in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
          B.ret b None
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri (fun i v -> Alcotest.(check int) "value" (100 + (i mod 4)) v) got

let test_shared_broadcast_via_barrier () =
  (* thread 0 writes shared, aligned barrier, all read *)
  let b = B.create "m" in
  let sh = B.add_global b ~space:Shared ~size:8 "sh" in
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let tid = B.thread_id b in
    let is0 = B.icmp b Eq tid (B.i64 0) in
    (* conditional-pointer write (straight-line, keeps the barrier aligned) *)
    let dummy = B.alloca b 8 in
    let p = B.select b (Ptr Shared) is0 sh dummy in
    B.store b I64 (B.i64 777) p;
    B.barrier b ~aligned:true;
    let v = B.load b I64 sh in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  check_verifies "broadcast" m;
  let dev = Device.create m in
  let buf, arg = out_arg dev 64 in
  (match Device.launch dev ~teams:1 ~threads:64 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 64 in
  Array.iter (fun v -> Alcotest.(check int) "broadcast value" 777 v) got

let test_worker_mainthread_barrier_pairing () =
  (* main lane signals workers through a generic barrier while diverged:
     requires strand-level scheduling (independent thread scheduling) *)
  let b = B.create "m" in
  let sh = B.add_global b ~space:Shared ~size:8 "work" in
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let tid = B.thread_id b in
    let is_main = B.icmp b Eq tid (B.i64 31) in
    B.cond_br b is_main "main" "worker";
    B.set_block b "main";
    B.store b I64 (B.i64 123) sh;
    B.barrier b ~aligned:false;
    B.ret b None;
    B.set_block b "worker";
    B.barrier b ~aligned:false;
    let v = B.load b I64 sh in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  for i = 0 to 30 do
    Alcotest.(check int) "worker saw signal" 123 got.(i)
  done

let test_aligned_barrier_divergence_fault () =
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        let c = B.icmp b Slt tid (B.i64 16) in
        B.if_then b c ~then_:(fun () -> B.barrier b ~aligned:true);
        B.barrier b ~aligned:true)
  in
  let f = expect_error ~threads:32 m [] in
  if Fault.is_trap f then Alcotest.failf "expected fault, got trap %s" f.Fault.f_msg;
  Alcotest.(check string) "fault kind" "divergent-barrier" (Fault.kind_name f.Fault.f_kind)

let test_partial_barrier_its_semantics () =
  (* half the warp hits a barrier inside a divergent region. Post-Volta
     independent thread scheduling lets the other half run ahead to the
     kernel exit, after which the barrier completes among the remaining
     threads — the engine's forced partial reconvergence models this. *)
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        let c = B.icmp b Slt tid (B.i64 16) in
        B.if_then b c ~then_:(fun () -> B.barrier b ~aligned:false))
  in
  let dev = Device.create m in
  match Device.launch dev ~teams:1 ~threads:32 [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ITS should complete: %a" Device.pp_error e

let test_runaway_divergent_spin () =
  (* a divergent side spinning forever is caught by the budget *)
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        let c = B.icmp b Slt tid (B.i64 16) in
        B.cond_br b c "sync" "spin";
        B.set_block b "sync";
        B.barrier b ~aligned:false;
        B.ret b None;
        B.set_block b "spin";
        B.br b "spin")
  in
  let dev = Device.create m in
  match
    Device.launch
      ~opts:{ Device.Launch_opts.default with Device.Launch_opts.budget = 20_000 }
      dev ~teams:1 ~threads:32 []
  with
  | Ok _ -> Alcotest.fail "expected a fault"
  | Error f when Fault.is_trap f ->
    Alcotest.failf "expected fault, got trap %s" f.Fault.f_msg
  | Error _ -> ()

let test_exited_threads_dont_block_barrier () =
  (* half the threads return immediately; the rest synchronize fine *)
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        let c = B.icmp b Slt tid (B.i64 16) in
        B.cond_br b c "sync" "quit";
        B.set_block b "quit";
        B.ret b None;
        B.set_block b "sync";
        B.barrier b ~aligned:false;
        B.ret b None)
  in
  let dev = Device.create m in
  match Device.launch dev ~teams:1 ~threads:32 [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e

let test_atomic_add () =
  let b = B.create "m" in
  let acc = B.add_global b ~space:Global ~size:8 "acc" in
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    B.atomic_add b I64 acc (B.i64 1);
    B.barrier b ~aligned:true;
    let v = B.load b I64 acc in
    let tid = B.thread_id b in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let dev = Device.create m in
  let buf, arg = out_arg dev 64 in
  (match Device.launch dev ~teams:2 ~threads:64 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  (* both teams incremented the same global: 128 after the second team *)
  let got = i64_array dev buf 64 in
  Alcotest.(check int) "second team sees all" 128 got.(0)

let test_atomic_f64 () =
  let b = B.create "m" in
  let acc = B.add_global b ~space:Global ~size:8 "facc" in
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    B.atomic_add b F64 acc (B.f64 0.5);
    B.barrier b ~aligned:true;
    let v = B.load b F64 acc in
    let tid = B.thread_id b in
    B.store b F64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = f64_array dev buf 32 in
  Alcotest.(check (float 1e-9)) "f64 atomic sum" 16.0 got.(0)

let test_malloc_roundtrip () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let p = B.malloc b (B.i64 8) in
          B.store b I64 (B.add b tid (B.i64 5)) p;
          let v = B.load b I64 p in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
          B.free b p
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok r -> Alcotest.(check bool) "mallocs counted" true (r.Engine.r_total.mallocs > 0)
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri (fun i v -> Alcotest.(check int) "roundtrip" (i + 5) v) got

let test_alloca_isolation () =
  (* each thread's stack slot is private *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let p = B.alloca b 8 in
          B.store b I64 tid p;
          B.barrier b ~aligned:true;
          let v = B.load b I64 p in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)))
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri (fun i v -> Alcotest.(check int) "private" i v) got

let test_trap () =
  let m = kernel_module ~params:[] (fun b _ -> B.trap b "boom") in
  let f = expect_error m [] in
  if Fault.is_trap f then Alcotest.(check string) "message" "boom" f.Fault.f_msg
  else Alcotest.failf "expected trap, got fault %s" f.Fault.f_msg

let test_assume_checking () =
  let mk value =
    kernel_module ~params:[] (fun b _ -> B.assume b (B.i64 value))
  in
  (* violated assumption ignored without checking *)
  let dev = Device.create (mk 0) in
  (match Device.launch dev ~teams:1 ~threads:32 [] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "release should ignore: %a" Device.pp_error e);
  (* trapped with checking on *)
  (let f = expect_error ~check_assumes:true (mk 0) [] in
   if Fault.is_trap f then
     Alcotest.(check bool) "msg" true (contains f.Fault.f_msg "assumption")
   else Alcotest.failf "expected trap, got fault %s" f.Fault.f_msg);
  (* holding assumption passes either way *)
  let dev = Device.create (mk 1) in
  match
    Device.launch
      ~opts:
        { Device.Launch_opts.default with Device.Launch_opts.check_assumes = true }
      dev ~teams:1 ~threads:32 []
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "holding assume: %a" Device.pp_error e

let test_budget_exceeded () =
  let m =
    kernel_module ~params:[] (fun b _ ->
        B.br b "spin";
        B.set_block b "spin";
        B.br b "spin")
  in
  let dev = Device.create m in
  match
    Device.launch
      ~opts:{ Device.Launch_opts.default with Device.Launch_opts.budget = 10_000 }
      dev ~teams:1 ~threads:32 []
  with
  | Ok _ -> Alcotest.fail "expected budget fault"
  | Error f when Fault.is_trap f ->
    Alcotest.failf "expected fault, got trap %s" f.Fault.f_msg
  | Error f -> Alcotest.(check bool) "budget" true (contains f.Fault.f_msg "budget")

let test_switch_divergent () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let q = B.and_ b tid (B.i64 3) in
          B.terminate b
            (Switch (q, [ (0L, "c0"); (1L, "c1"); (2L, "c2") ], "cd"));
          List.iteri
            (fun i lbl ->
              B.set_block b lbl;
              let v = B.i64 (500 + i) in
              B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
              B.ret b None)
            [ "c0"; "c1"; "c2"; "cd" ]
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri (fun i v -> Alcotest.(check int) "switch arm" (500 + (i mod 4)) v) got

let test_indirect_call () =
  let b = B.create "m" in
  (match B.begin_func b ~name:"callee" ~params:[ I64 ] ~ret:(Some I64) () with
  | [ x ] ->
    B.set_block b "entry";
    let v = B.mul b x (B.i64 3) in
    B.ret b (Some v)
  | _ -> assert false);
  ignore (B.end_func b);
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let tid = B.thread_id b in
    let r = B.fresh_reg b in
    B.append b (Call_indirect (Some r, Some I64, Func_addr "callee", [ tid ]));
    B.store b I64 (Reg r) (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri (fun i v -> Alcotest.(check int) "indirect" (i * 3) v) got

let test_call_in_divergence () =
  (* function call under a divergent branch: only half the lanes call *)
  let b = B.create "m" in
  (match B.begin_func b ~name:"sq" ~params:[ I64 ] ~ret:(Some I64) () with
  | [ x ] ->
    B.set_block b "entry";
    B.ret b (Some (B.mul b x x))
  | _ -> assert false);
  ignore (B.end_func b);
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let tid = B.thread_id b in
    let slot = B.ptradd b out (B.mul b tid (B.i64 8)) in
    let c = B.icmp b Slt tid (B.i64 16) in
    B.cond_br b c "callit" "skip";
    B.set_block b "callit";
    let v = B.call_val b "sq" [ tid ] in
    B.store b I64 v slot;
    B.ret b None;
    B.set_block b "skip";
    B.store b I64 (B.i64 (-1)) slot;
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let dev = Device.create m in
  let buf, arg = out_arg dev 32 in
  (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  let got = i64_array dev buf 32 in
  Array.iteri
    (fun i v -> Alcotest.(check int) "masked call" (if i < 16 then i * i else -1) v)
    got

let test_i32_store_load () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let p = B.alloca b 8 in
          B.store b I32 (B.i64 0xABCD) p;
          let v = B.load b I32 p in
          let tid = B.thread_id b in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)))
        | _ -> assert false)
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 1 in
  (match Device.launch dev ~teams:1 ~threads:1 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Alcotest.(check int) "i32 roundtrip" 0xABCD (i64_array dev buf 1).(0)

let test_coalescing_counter () =
  (* strided access touches more segments than unit-stride *)
  let mk stride =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ base ] ->
          let tid = B.thread_id b in
          let off = B.mul b tid (B.i64 stride) in
          let _ = B.load b F64 (B.ptradd b base off) in
          B.ret b None
        | _ -> assert false)
  in
  let run stride =
    let m = mk stride in
    let dev = Device.create m in
    let buf = Device.alloc dev (32 * 1024) in
    match Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
    | Ok r -> r.Engine.r_total.global_transactions
    | Error e -> Alcotest.failf "%a" Device.pp_error e
  in
  let coalesced = run 8 and strided = run 256 in
  Alcotest.(check bool)
    (Printf.sprintf "coalesced %d < strided %d" coalesced strided)
    true (coalesced < strided)

(* The issue loop allocates nothing per warp issue: a small ALU loop over
   a thread-local accumulator (local load/store, int and float ALU, a
   loop-carried phi and a conditional back edge), launched at two trip
   counts. Everything a launch pays once (device, decode, frames, stacks)
   cancels in the difference, so the extra bytes per extra issue are the
   hot path's own allocation. *)
let test_alloc_per_issue () =
  let alu_loop iters =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let acc = B.alloca b 8 and facc = B.alloca b 8 in
          B.store b I64 (B.i64 1) acc;
          B.store b F64 (B.f64 1.5) facc;
          ignore
            (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1)
               ~body:(fun iv ->
                 let v = B.load b I64 acc in
                 let v = B.add b (B.mul b v (B.i64 3)) (B.xor b iv tid) in
                 B.store b I64 (B.and_ b v (B.i64 0xFFFFFF)) acc;
                 let f = B.load b F64 facc in
                 B.store b F64 (B.fadd b (B.fmul b f (B.f64 1.000001)) (B.f64 0.5)) facc));
          B.store b I64 (B.load b I64 acc) (B.ptradd b out (B.mul b tid (B.i64 8)))
        | _ -> assert false)
  in
  List.iter
    (fun exec ->
      let launch iters =
        let dev = Device.create ~exec (alu_loop iters) in
        let _, arg = out_arg dev 64 in
        let a0 = Gc.allocated_bytes () in
        match Device.launch dev ~teams:1 ~threads:64 [ arg ] with
        | Ok r ->
          (Gc.allocated_bytes () -. a0, r.Engine.r_total.Ozo_vgpu.Counters.warp_instructions)
        | Error e -> Alcotest.failf "%a" Device.pp_error e
      in
      ignore (launch 10);
      let b1, i1 = launch 100 and b2, i2 = launch 1100 in
      let per_issue = (b2 -. b1) /. float_of_int (i2 - i1) in
      (* the issue loop allocates 0 B; one per-issue closure or [Some]
         cell anywhere on it shows as several *)
      if per_issue > 1.0 then
        Alcotest.failf "%s: %.2f bytes allocated per extra warp issue (limit 1)"
          (Engine.exec_name exec) per_issue)
    [ Engine.Exec_ir; Engine.Exec_vm ]

(* Frames are pooled per engine and reused by later teams: a reused frame
   must read exactly like a fresh, zeroed one. Team 0 defines %3; team 1
   reads %3 on a path that never defines it, so it must see 0, not the
   41 team 0 left in the pooled frame. *)
let test_pooled_frames_read_fresh () =
  let m =
    Ozo_ir.Parser.parse_module
      {|module pooled

kernel func k(%0: i64)
entry:
  %1 = block.id
  %2 = icmp eq %1, 0:i64
  br %2, first, second
first:
  %3 = add %1, 41:i64
  br done
second:
  %4 = thread.id
  %5 = mul %4, 8:i64
  %6 = ptradd %0, %5
  store i64 %3, %6
  br done
done:
  ret
|}
  in
  let dev = Device.create m in
  let buf, arg = out_arg dev 64 in
  Device.write_i64s dev buf (List.init 64 (fun _ -> -1));
  (match Device.launch dev ~teams:2 ~threads:64 [ arg ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Array.iteri
    (fun i v -> if v <> 0 then Alcotest.failf "thread %d read %d from a reused frame" i v)
    (i64_array dev buf 64)

(* A call frame lives as long as its call, as it did before frames were
   pooled: only the per-warp kernel-entry frames are kept for later teams.
   A kernel calling a helper in a loop is launched at two trip counts; the
   major heap at its largest during the launch (sampled at the end of
   every major cycle and once after) must not grow with the number of
   calls. Keeping every call frame until the team ends adds about 3.5 KB
   per call, 14 MB between the two launches; releasing them measures
   under 10 KB. *)
let test_call_frames_not_retained () =
  let call_loop iters =
    let b = B.create "m" in
    (match B.begin_func b ~name:"h" ~params:[ I64 ] ~ret:(Some I64) () with
    | [ x ] ->
      B.set_block b "entry";
      let y = B.add b (B.mul b x (B.i64 3)) (B.mul b x x) in
      B.ret b (Some (B.and_ b (B.xor b y (B.i64 7)) (B.i64 0xFFFF)))
    | _ -> assert false);
    ignore (B.end_func b);
    let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
    B.set_block b "entry";
    (match ps with
    | [ out ] ->
      let tid = B.thread_id b in
      let acc = B.alloca b 8 in
      B.store b I64 tid acc;
      ignore
        (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 iters) ~step:(B.i64 1) ~body:(fun iv ->
             let v = B.call_val b "h" [ B.add b iv (B.load b I64 acc) ] in
             B.store b I64 v acc));
      B.store b I64 (B.load b I64 acc) (B.ptradd b out (B.mul b tid (B.i64 8)));
      B.ret b None
    | _ -> assert false);
    ignore (B.end_func b);
    B.finish b
  in
  let peak_growth iters =
    let dev = Device.create (call_loop iters) in
    let _, arg = out_arg dev 32 in
    Gc.compact ();
    let base = (Gc.quick_stat ()).Gc.heap_words in
    let peak = ref base in
    let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
    let alarm = Gc.create_alarm sample in
    (match Device.launch dev ~teams:1 ~threads:32 [ arg ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%a" Device.pp_error e);
    sample ();
    Gc.delete_alarm alarm;
    (!peak - base) * (Sys.word_size / 8)
  in
  let small = peak_growth 250 and large = peak_growth 4250 in
  if large - small > 4_000_000 then
    Alcotest.failf "peak heap grew by %d B over 4000 extra calls (limit 4 MB)" (large - small)

let suite =
  [ tc "thread ids" test_thread_ids;
    tc "block intrinsics" test_intrinsics;
    tc "divergence + reconvergence + phi" test_divergence_reconvergence;
    tc "nested divergence" test_nested_divergence;
    tc "shared-memory broadcast through aligned barrier" test_shared_broadcast_via_barrier;
    tc "generic barrier pairing under divergence" test_worker_mainthread_barrier_pairing;
    tc "aligned barrier divergence faults" test_aligned_barrier_divergence_fault;
    tc "partial barrier completes (ITS semantics)" test_partial_barrier_its_semantics;
    tc "runaway divergent spin faults" test_runaway_divergent_spin;
    tc "exited threads don't block barriers" test_exited_threads_dont_block_barrier;
    tc "atomic add across teams" test_atomic_add;
    tc "atomic f64 add" test_atomic_f64;
    tc "malloc roundtrip" test_malloc_roundtrip;
    tc "alloca privacy" test_alloca_isolation;
    tc "trap aborts" test_trap;
    tc "assume checking (debug vs release)" test_assume_checking;
    tc "instruction budget" test_budget_exceeded;
    tc "divergent switch" test_switch_divergent;
    tc "indirect call" test_indirect_call;
    tc "call under divergence" test_call_in_divergence;
    tc "i32 store/load" test_i32_store_load;
    tc "coalescing model" test_coalescing_counter;
    tc "no allocation per warp issue" test_alloc_per_issue;
    tc "pooled frames read like fresh ones" test_pooled_frames_read_fresh;
    tc "call frames not kept until team end" test_call_frames_not_retained ]
