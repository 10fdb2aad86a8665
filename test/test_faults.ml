(* Fault-model tests: the SIMT sanitizer's detectors (out-of-bounds,
   uninitialized reads, races, barrier divergence), deterministic fault
   injection (each action observable through a structured report), zero
   false positives on the clean proxy applications, and the harness
   fallback ladder recovering a faulting build at a weaker pipeline. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Memory = Ozo_vgpu.Memory
module Faultinject = Ozo_vgpu.Faultinject
module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
open Util

let spec s = Result.get_ok (Faultinject.parse ~seed:7 s)

(* launch under the sanitizer, with optional injection *)
let launch_san ?(teams = 1) ?(threads = 32) ?(check_assumes = false) ?inject m args =
  let dev = Device.create ~sanitize:true m in
  let opts =
    { Device.Launch_opts.default with Device.Launch_opts.check_assumes; inject }
  in
  (dev, Device.launch ~opts dev ~teams ~threads args)

(* shorthand for flag-bearing launches in these tests *)
let inject_opts spec =
  { Device.Launch_opts.default with Device.Launch_opts.inject = Some spec }

let expect_fault name kind (res : ('a, Device.error) result) : Fault.t =
  match res with
  | Ok _ -> Alcotest.failf "%s: expected a %s fault" name kind
  | Error f ->
    Alcotest.(check string) (name ^ " kind") kind (Fault.kind_name f.Fault.f_kind);
    f

(* every detector names the faulting site: function, block, instruction *)
let check_site name (f : Fault.t) =
  Alcotest.(check bool) (name ^ " names function") true (f.Fault.f_fn <> None);
  Alcotest.(check bool) (name ^ " names block") true (f.Fault.f_blk <> None);
  Alcotest.(check bool) (name ^ " names instruction") true (f.Fault.f_idx <> None)

(* out[tid] for [threads] threads; OOB when the buffer is smaller *)
let scatter_kernel =
  kernel_module ~params:[ I64 ] (fun b ps ->
      match ps with
      | [ out ] ->
        let tid = B.thread_id b in
        B.store b I64 tid (B.ptradd b out (B.mul b tid (B.i64 8)))
      | _ -> assert false)

let test_sanitizer_oob () =
  (* clean: buffer covers all 32 threads *)
  let dev = Device.create ~sanitize:true scatter_kernel in
  let buf = Device.alloc dev (32 * 8) in
  (match Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean scatter: %a" Device.pp_error e);
  (* dirty: only 8 slots allocated, thread 8 writes past the allocation *)
  let dev = Device.create ~sanitize:true scatter_kernel in
  let buf = Device.alloc dev (8 * 8) in
  let _, res = (dev, Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ]) in
  let f = expect_fault "oob" "out-of-bounds" res in
  check_site "oob" f;
  Alcotest.(check bool) "oob decodes address" true (f.Fault.f_access <> None)

let test_sanitizer_uninit_read () =
  (* load of a never-written alloca *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let p = B.alloca b 8 in
          let v = B.load b I64 p in
          let tid = B.thread_id b in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)))
        | _ -> assert false)
  in
  let dev = Device.create ~sanitize:true m in
  let buf = Device.alloc dev (32 * 8) in
  let _, res = (dev, Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ]) in
  let f = expect_fault "uninit" "uninit-read" res in
  check_site "uninit" f

let test_sanitizer_waw_race () =
  (* all threads store their (distinct) tid to the same shared word *)
  let b = B.create "m" in
  let sh = B.add_global b ~space:Shared ~size:8 "sh" in
  let _ = B.begin_func b ~name:"k" ~kernel:true ~params:[] ~ret:None () in
  B.set_block b "entry";
  let tid = B.thread_id b in
  B.store b I64 tid sh;
  B.ret b None;
  ignore (B.end_func b);
  let m = B.finish b in
  let _, res = launch_san m [] in
  let f = expect_fault "waw race" "race" res in
  check_site "waw race" f;
  Alcotest.(check bool) "race implicates two threads" true
    (List.length f.Fault.f_threads >= 2)

(* thread 0 publishes through shared memory; an aligned barrier separates
   the write from the reads *)
let broadcast_kernel () =
  let b = B.create "m" in
  let sh = B.add_global b ~space:Shared ~size:8 "sh" in
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let tid = B.thread_id b in
    let is0 = B.icmp b Eq tid (B.i64 0) in
    let dummy = B.alloca b 8 in
    let p = B.select b (Ptr Shared) is0 sh dummy in
    B.store b I64 (B.i64 777) p;
    B.barrier b ~aligned:true;
    let v = B.load b I64 sh in
    B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

let test_skip_barrier_read_race () =
  let m = broadcast_kernel () in
  (* clean: the barrier orders the write before the reads *)
  let dev = Device.create ~sanitize:true m in
  let buf = Device.alloc dev (32 * 8) in
  (match Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean broadcast: %a" Device.pp_error e);
  (* injected: the strand sails past the barrier, so the reads land in the
     same barrier epoch as thread 0's write — a read race *)
  let dev = Device.create ~sanitize:true m in
  let buf = Device.alloc dev (32 * 8) in
  let res =
    Device.launch ~opts:(inject_opts (spec "skip-barrier:1")) dev ~teams:1 ~threads:32
      [ Engine.Ai (Device.ptr buf) ]
  in
  let f = expect_fault "read race" "race" res in
  check_site "read race" f

let test_divergent_barrier_names_threads () =
  (* aligned barrier inside a divergent branch *)
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        let c = B.icmp b Slt tid (B.i64 16) in
        B.if_then b c ~then_:(fun () -> B.barrier b ~aligned:true);
        B.barrier b ~aligned:true)
  in
  let _, res = launch_san m [] in
  let f = expect_fault "divergent barrier" "divergent-barrier" res in
  check_site "divergent barrier" f

let test_violate_assume_injection () =
  (* the assumption holds; the injection forces it to read false *)
  let m =
    kernel_module ~params:[] (fun b ps ->
        ignore ps;
        let tid = B.thread_id b in
        B.assume b (B.icmp b Sge tid (B.i64 0)))
  in
  (* without injection the assume passes under checking *)
  (match launch_san ~check_assumes:true m [] with
  | _, Ok _ -> ()
  | _, Error e -> Alcotest.failf "holding assume: %a" Device.pp_error e);
  let _, res = launch_san ~check_assumes:true ~inject:(spec "violate-assume:1") m [] in
  let f = expect_fault "violated assume" "assume-violation" res in
  check_site "violated assume" f;
  Alcotest.(check bool) "marked injected" true (contains f.Fault.f_msg "injected");
  Alcotest.(check bool) "assume is a trap" true (Fault.is_trap f)

let test_drop_store_uninit () =
  (* store p; load p — dropping the store makes the load uninitialized *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let p = B.alloca b 8 in
          B.store b I64 (B.i64 5) p;
          let v = B.load b I64 p in
          let tid = B.thread_id b in
          B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)))
        | _ -> assert false)
  in
  let dev = Device.create ~sanitize:true m in
  let buf = Device.alloc dev (32 * 8) in
  (match Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "clean store/load: %a" Device.pp_error e);
  let dev = Device.create ~sanitize:true m in
  let buf = Device.alloc dev (32 * 8) in
  let res =
    Device.launch ~opts:(inject_opts (spec "drop-store:1")) dev ~teams:1 ~threads:32
      [ Engine.Ai (Device.ptr buf) ]
  in
  let f = expect_fault "dropped store" "uninit-read" res in
  check_site "dropped store" f

let test_trunc_shared_oob () =
  (* threads 0..7 fill an exactly-sized shared array; shaving 8 bytes off
     the allocation makes the last write out of bounds *)
  let mk () =
    let b = B.create "m" in
    let sh = B.add_global b ~space:Shared ~size:(8 * 8) "shbuf" in
    let _ = B.begin_func b ~name:"k" ~kernel:true ~params:[] ~ret:None () in
    B.set_block b "entry";
    let tid = B.thread_id b in
    let c = B.icmp b Slt tid (B.i64 8) in
    B.if_then b c ~then_:(fun () ->
        B.store b I64 tid (B.ptradd b sh (B.mul b tid (B.i64 8))));
    B.ret b None;
    ignore (B.end_func b);
    B.finish b
  in
  (match launch_san (mk ()) [] with
  | _, Ok _ -> ()
  | _, Error e -> Alcotest.failf "clean shared fill: %a" Device.pp_error e);
  let _, res = launch_san ~inject:(spec "trunc-shared:1") (mk ()) [] in
  let f = expect_fault "truncated shared" "out-of-bounds" res in
  check_site "truncated shared" f

let test_corrupt_load_fault () =
  (* idx = tbl[tid]; out[idx] = tid — a corrupted idx produces a wild
     pointer, caught structurally even without the sanitizer *)
  let m =
    kernel_module ~params:[ I64; I64 ] (fun b ps ->
        match ps with
        | [ tbl; out ] ->
          let tid = B.thread_id b in
          let idx = B.load b I64 (B.ptradd b tbl (B.mul b tid (B.i64 8))) in
          B.store b I64 tid (B.ptradd b out (B.mul b idx (B.i64 8)))
        | _ -> assert false)
  in
  let dev = Device.create m in
  let tbl = Device.alloc dev (32 * 8) in
  Device.write_i64_array dev tbl (Array.init 32 (fun i -> i));
  let out = Device.alloc dev (32 * 8) in
  let res =
    Device.launch ~opts:(inject_opts (spec "corrupt-load:1")) dev ~teams:1 ~threads:32
      [ Engine.Ai (Device.ptr tbl); Engine.Ai (Device.ptr out) ]
  in
  let f = expect_fault "corrupt load" "out-of-bounds" res in
  check_site "corrupt load" f

let test_encode_overflow () =
  (* an offset spilling into the pointer tag bits faults structurally *)
  match Memory.encode Global (1 lsl 50) with
  | exception Ozo_vgpu.Fault.Kernel_fault f ->
    Alcotest.(check string) "kind" "out-of-bounds" (Fault.kind_name f.Fault.f_kind)
  | _ -> Alcotest.fail "expected encode to fault on tag overflow"

let test_parse_spec () =
  (match Faultinject.parse ~seed:3 "corrupt-load@foo:4" with
  | Ok s ->
    Alcotest.(check bool) "action" true (s.Faultinject.s_action = Faultinject.Corrupt_load);
    Alcotest.(check (option string)) "fn" (Some "foo") s.Faultinject.s_fn;
    Alcotest.(check (option int)) "nth" (Some 4) s.Faultinject.s_nth;
    Alcotest.(check string) "round-trip" "corrupt-load@foo:4" (Faultinject.spec_to_string s)
  | Error e -> Alcotest.fail e);
  match Faultinject.parse ~seed:3 "explode" with
  | Ok _ -> Alcotest.fail "bogus spec must not parse"
  | Error _ -> ()

(* --- zero false positives on the clean proxies --------------------------- *)

let test_clean_proxies_sanitize () =
  List.iter
    (fun p ->
      List.iter
        (fun b ->
          let m =
            E.measure_request p
              (E.request_for ~check_assumes:true ~sanitize:true p b)
          in
          (match m.E.r_fault with
          | None -> ()
          | Some f ->
            Alcotest.failf "%s under %s: sanitizer finding: %s" p.Proxy.p_name
              b.C.b_label (Fault.to_line f));
          match m.E.r_check with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s under %s: check failed: %s" p.Proxy.p_name b.C.b_label e)
        (E.builds_for p))
    (Ozo_proxies.Registry.all_small ())

(* --- harness graceful degradation ---------------------------------------- *)

(* minimal proxy fixture: an indexed scatter whose index table makes the
   corrupted-load injection observable *)
let fixture_proxy () : Proxy.t =
  let open Ozo_frontend.Ast in
  let n = 64 in
  let body =
    [ Let ("idx", Ld (P "tbl", P "i", MI64));
      Store (P "out", P "idx", MI64, Add (Mul (P "i", Int 3), Int 1)) ]
  in
  let k =
    { k_name = "scatter_kernel";
      k_params = [ ("tbl", TInt); ("out", TInt); ("n", TInt) ];
      k_construct = Distribute_parallel_for ("i", P "n", body) }
  in
  let expected = Array.init n (fun i -> (i * 3) + 1) in
  { Proxy.p_name = "scatter-fixture";
    p_descr = "fault-injection fixture";
    p_kernel_omp = k;
    p_kernel_cuda = k;
    p_teams = 2;
    p_threads = 32;
    p_flops = 0.0;
    p_assume = Proxy.Assume_both;
    p_setup =
      (fun dev ->
        let tbl = Proxy.alloc_i64 dev (Array.init n (fun i -> i)) in
        let out = Device.alloc dev (n * 8) in
        { Proxy.i_args =
            [ Engine.Ai (Device.ptr tbl); Ai (Device.ptr out); Ai n ];
          i_check =
            (fun () ->
              let got = Device.read_i64_array dev out n in
              let bad = ref (Ok ()) in
              Array.iteri
                (fun i e ->
                  if got.(i) <> e && !bad = Ok () then
                    bad := Error (Printf.sprintf "out[%d]=%d, want %d" i got.(i) e))
                expected;
              !bad) })
  }

let test_fallback_ladder () =
  let p = fixture_proxy () in
  let b = E.new_rt_for p in
  (* clean: the full pipeline passes without fallback *)
  let m = E.measure_request p (E.request_for p b) in
  Alcotest.(check bool) "clean row has no fault" true (m.E.r_fault = None);
  Alcotest.(check bool) "clean row validates" true (Result.is_ok m.E.r_check);
  (* injected: the full-pipeline run fails; the harness must retry at a
     weaker configuration (without the injection) and validate there *)
  let m =
    E.measure_request p (E.request_for ~inject:(spec "corrupt-load:1") p b)
  in
  (match m.E.r_fault with
  | None -> Alcotest.fail "expected the injected run to record a fault"
  | Some _ -> ());
  Alcotest.(check bool) "fallback chain non-empty" true (m.E.r_fallbacks <> []);
  Alcotest.(check string) "fell back to nightly" "nightly"
    (List.nth m.E.r_fallbacks (List.length m.E.r_fallbacks - 1));
  (match m.E.r_check with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fallback row must validate, got: %s" e);
  Alcotest.(check bool) "metrics recovered" true (m.E.r_cycles > 0.0)

let test_weaken_ladder_shape () =
  let module P = Ozo_opt.Pipeline in
  let names c = Option.map (fun c -> c.P.name) (P.weaken c) in
  Alcotest.(check (option string)) "full -> nightly" (Some "nightly") (names P.full);
  Alcotest.(check (option string)) "nightly -> baseline" (Some "baseline") (names P.nightly);
  Alcotest.(check (option string)) "baseline -> O0" (Some "O0") (names P.baseline);
  Alcotest.(check (option string)) "O0 is terminal" None (names P.o0)

let suite =
  [ tc "sanitizer: out-of-bounds store" test_sanitizer_oob;
    tc "sanitizer: uninitialized read" test_sanitizer_uninit_read;
    tc "sanitizer: write-write race" test_sanitizer_waw_race;
    tc "inject: skip-barrier exposes a read race" test_skip_barrier_read_race;
    tc "sanitizer: divergent aligned barrier" test_divergent_barrier_names_threads;
    tc "inject: violate-assume traps under checking" test_violate_assume_injection;
    tc "inject: drop-store exposes uninit read" test_drop_store_uninit;
    tc "inject: trunc-shared exposes OOB" test_trunc_shared_oob;
    tc "inject: corrupt-load faults structurally" test_corrupt_load_fault;
    tc "memory: encode rejects tag overflow" test_encode_overflow;
    tc "inject: spec parsing" test_parse_spec;
    tc "sanitizer: clean proxies have zero findings" test_clean_proxies_sanitize;
    tc "harness: fallback ladder recovers injected fault" test_fallback_ladder;
    tc "pipeline: weaken ladder shape" test_weaken_ladder_shape ]
