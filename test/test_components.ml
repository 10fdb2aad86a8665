(* Unit tests for the supporting components: memory subsystem, cost /
   occupancy model, counters, PRNG, proxy generators and references,
   CSE pass, call graph, pointer resolution, and the harness report
   formatting. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Memory = Ozo_vgpu.Memory
module Cost = Ozo_vgpu.Cost
module Counters = Ozo_vgpu.Counters
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
open Util

(* --- memory -------------------------------------------------------------- *)

let test_pointer_encoding () =
  List.iter
    (fun space ->
      List.iter
        (fun off ->
          let p = Memory.encode space off in
          let space', off' = Memory.decode p in
          Alcotest.(check bool) "space" true (space = space');
          Alcotest.(check int) "off" off off')
        [ 0; 1; 4095; 1 lsl 20 ])
    [ Global; Shared; Local; Constant ];
  Alcotest.(check int) "null" 0 Memory.null

let test_memory_rw () =
  let m = Memory.create ~threads_per_team:4 in
  let p = Memory.alloc_global m 64 in
  Memory.store_int m ~thread:0 p I64 12345;
  Alcotest.(check int) "i64" 12345 (Memory.load_int m ~thread:0 p I64);
  Memory.store_int m ~thread:0 p I32 (-7);
  Alcotest.(check bool) "i32 truncated readback" true
    (Memory.load_int m ~thread:0 p I32 land 0xFFFFFFFF
    = (-7) land 0xFFFFFFFF);
  Memory.store_float m ~thread:0 p 3.25;
  Alcotest.(check (float 0.0)) "f64" 3.25 (Memory.load_float m ~thread:0 p);
  Memory.store_int m ~thread:0 p I1 3;
  Alcotest.(check int) "i1 masks" 1 (Memory.load_int m ~thread:0 p I1)

let test_memory_growth () =
  let m = Memory.create ~threads_per_team:1 in
  (* allocate beyond the initial capacity *)
  let p = Memory.alloc_global m (1 lsl 20) in
  let far = p + (1 lsl 20) - 8 in
  Memory.store_int m ~thread:0 far I64 9;
  Alcotest.(check int) "far write" 9 (Memory.load_int m ~thread:0 far I64)

let test_local_stack () =
  let m = Memory.create ~threads_per_team:2 in
  let a0 = Memory.alloca m ~thread:0 16 in
  let a1 = Memory.alloca m ~thread:1 16 in
  Memory.store_int m ~thread:0 a0 I64 1;
  Memory.store_int m ~thread:1 a1 I64 2;
  Alcotest.(check int) "thread 0 private" 1 (Memory.load_int m ~thread:0 a0 I64);
  Alcotest.(check int) "thread 1 private" 2 (Memory.load_int m ~thread:1 a1 I64);
  let sp = Memory.local_sp m ~thread:0 in
  let _ = Memory.alloca m ~thread:0 32 in
  Memory.set_local_sp m ~thread:0 sp;
  Alcotest.(check int) "sp restored" sp (Memory.local_sp m ~thread:0);
  (* stacks grow to their high-water mark: growth keeps what was written,
     untouched bytes read as zero, and bounds stay at the full stack *)
  let top = Memory.local_stack_bytes - 8 in
  let far = Memory.encode Local top in
  Memory.fast_store_int m ~thread:1 ~space:Local ~off:top ~ptr:far I64 7;
  Alcotest.(check int) "thread 1 kept across growth" 2 (Memory.load_int m ~thread:1 a1 I64);
  Alcotest.(check int) "far local write" 7 (Memory.load_int m ~thread:1 far I64);
  Alcotest.(check int) "untouched reads zero" 0
    (Memory.fast_load_int m ~thread:1 ~space:Local ~off:(top - 8)
       ~ptr:(Memory.encode Local (top - 8)) I64);
  match Memory.load_int m ~thread:0 (Memory.encode Local (top + 4)) I64 with
  | exception Ozo_vgpu.Fault.Kernel_fault f ->
    Alcotest.(check string) "bound is the full stack"
      (Printf.sprintf "local access at 0x%x (8B) beyond the %dB thread stack" (top + 4)
         Memory.local_stack_bytes)
      f.Ozo_vgpu.Fault.f_msg
  | _ -> Alcotest.fail "access past the stack must fault"

let test_store_to_constant_rejected () =
  let m = Memory.create ~threads_per_team:1 in
  let p = Memory.alloc_const m 8 in
  match Memory.store_int m ~thread:0 p I64 1 with
  | exception Ozo_vgpu.Fault.Kernel_fault f ->
    Alcotest.(check string) "fault kind" "invalid"
      (Ozo_vgpu.Fault.kind_name f.Ozo_vgpu.Fault.f_kind)
  | () -> Alcotest.fail "store to constant memory must fail"

(* --- cost / occupancy ----------------------------------------------------- *)

let test_occupancy_constraints () =
  let p = Cost.default in
  (* threads bound *)
  let o = Cost.occupancy p ~threads_per_team:2048 ~regs_per_thread:1 ~shared_per_team:0 in
  Alcotest.(check int) "one big team" 1 o.Cost.o_teams_per_sm;
  (* register bound: 32 regs * 64 thr = 2048 regs/team; 32768/2048 = 16 *)
  let o = Cost.occupancy p ~threads_per_team:64 ~regs_per_thread:32 ~shared_per_team:0 in
  Alcotest.(check int) "regs bind" 16 o.Cost.o_teams_per_sm;
  (* shared bound: 50KB/team -> 2 teams *)
  let o =
    Cost.occupancy p ~threads_per_team:64 ~regs_per_thread:1 ~shared_per_team:(50 * 1024)
  in
  Alcotest.(check int) "smem binds" 2 o.Cost.o_teams_per_sm;
  (* max teams cap *)
  let o = Cost.occupancy p ~threads_per_team:1 ~regs_per_thread:1 ~shared_per_team:0 in
  Alcotest.(check int) "cap" p.Cost.max_teams_per_sm o.Cost.o_teams_per_sm

let test_kernel_time_monotonic () =
  let p = Cost.default in
  let occ_hi = Cost.occupancy p ~threads_per_team:64 ~regs_per_thread:8 ~shared_per_team:0 in
  let occ_lo =
    Cost.occupancy p ~threads_per_team:64 ~regs_per_thread:64 ~shared_per_team:(20 * 1024)
  in
  let cycles = List.init 16 (fun _ -> 1000) in
  let t_hi = Cost.kernel_time p ~occupancy:occ_hi ~team_cycles:cycles ~mem_cycles:8000 in
  let t_lo = Cost.kernel_time p ~occupancy:occ_lo ~team_cycles:cycles ~mem_cycles:8000 in
  Alcotest.(check bool) "lower occupancy is slower" true (t_lo > t_hi);
  (* compute-only cycles are insensitive to occupancy *)
  let c_hi = Cost.kernel_time p ~occupancy:occ_hi ~team_cycles:cycles ~mem_cycles:0 in
  let c_lo = Cost.kernel_time p ~occupancy:occ_lo ~team_cycles:cycles ~mem_cycles:0 in
  Alcotest.(check bool) "no memory -> occupancy-insensitive (same wave count)" true
    (Float.abs (c_lo -. c_hi) < 1e-9);
  Alcotest.(check (float 0.0)) "empty" 0.0
    (Cost.kernel_time p ~occupancy:occ_hi ~team_cycles:[] ~mem_cycles:0)

let test_counters_add_and_memcycles () =
  let a = Counters.create () and b = Counters.create () in
  a.Counters.cycles <- 10;
  a.Counters.global_transactions <- 3;
  b.Counters.cycles <- 5;
  b.Counters.mallocs <- 2;
  let c = Counters.add a b in
  Alcotest.(check int) "cycles" 15 c.Counters.cycles;
  Alcotest.(check int) "txns" 3 c.Counters.global_transactions;
  let mc = Counters.memory_cycles Cost.default c in
  Alcotest.(check int) "memory cycles"
    ((3 * Cost.default.Cost.c_global_segment) + (2 * Cost.default.Cost.c_malloc))
    mc

(* --- prng / proxies -------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Ozo_proxies.Prng.create 42 and b = Ozo_proxies.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Ozo_proxies.Prng.float a)
      (Ozo_proxies.Prng.float b)
  done;
  let c = Ozo_proxies.Prng.create 43 in
  Alcotest.(check bool) "different seed differs" true
    (Ozo_proxies.Prng.float a <> Ozo_proxies.Prng.float c)

let test_prng_ranges () =
  let r = Ozo_proxies.Prng.create 7 in
  for _ = 1 to 1000 do
    let f = Ozo_proxies.Prng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f;
    let i = Ozo_proxies.Prng.int r 10 in
    if i < 0 || i >= 10 then Alcotest.failf "int out of range: %d" i;
    let g = Ozo_proxies.Prng.float_range r 2.0 3.0 in
    if g < 2.0 || g >= 3.0 then Alcotest.failf "range out of range: %f" g
  done

let test_xsbench_generator_invariants () =
  let p = Ozo_proxies.Xsbench.small in
  let d = Ozo_proxies.Xsbench.generate p in
  let u = p.Ozo_proxies.Xsbench.n_nuclides * p.Ozo_proxies.Xsbench.n_gridpoints in
  (* unionized grid sorted *)
  for i = 1 to u - 1 do
    if d.Ozo_proxies.Xsbench.egrid.(i - 1) > d.Ozo_proxies.Xsbench.egrid.(i) then
      Alcotest.fail "egrid not sorted"
  done;
  (* index grid in range and consistent with nuclide grids *)
  Array.iter
    (fun idx ->
      if idx < 0 || idx > p.Ozo_proxies.Xsbench.n_gridpoints - 2 then
        Alcotest.fail "index grid out of range")
    d.Ozo_proxies.Xsbench.index_grid

let test_references_deterministic () =
  (* same params -> identical problem data and reference results *)
  let r1 = Ozo_proxies.Xsbench.(reference small (generate small)) in
  let r2 = Ozo_proxies.Xsbench.(reference small (generate small)) in
  Alcotest.(check bool) "deterministic" true (r1 = r2)

(* --- cse -------------------------------------------------------------------- *)

let test_cse_dedups () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let t1 = B.thread_id b in
          let t2 = B.thread_id b in
          let a1 = B.mul b t1 (B.i64 8) in
          let a2 = B.mul b t2 (B.i64 8) in
          let s = B.add b a1 a2 in
          B.store b I64 s (B.ptradd b out a1)
        | _ -> assert false)
  in
  let m', changed = Ozo_opt.Cse.run m in
  Alcotest.(check bool) "changed" true changed;
  check_verifies "cse" m';
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "one thread.id" 1
    (count_in_func (function Intrinsic (_, Thread_id) -> true | _ -> false) kf);
  Alcotest.(check int) "one mul" 1
    (count_in_func (function Binop (_, Mul, _, _) -> true | _ -> false) kf);
  (* execution unchanged *)
  let dev = Device.create m' in
  let out = Device.alloc dev (32 * 8) in
  (match Device.launch dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Alcotest.(check int) "value" (5 * 8 * 2) (i64_array dev out 32).(5)

let test_cse_respects_dominance () =
  (* identical expressions in sibling branches must NOT be merged *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          let c = B.icmp b Slt tid (B.i64 16) in
          B.cond_br b c "a" "bb";
          B.set_block b "a";
          let x = B.mul b tid (B.i64 3) in
          B.store b I64 x out;
          B.ret b None;
          B.set_block b "bb";
          let y = B.mul b tid (B.i64 3) in
          B.store b I64 y (B.ptradd b out (B.i64 8));
          B.ret b None
        | _ -> assert false)
  in
  let m', _ = Ozo_opt.Cse.run m in
  check_verifies "cse dominance" m';
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "both muls survive" 2
    (count_in_func (function Binop (_, Mul, _, _) -> true | _ -> false) kf)

let test_cse_keeps_loads () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let v1 = B.load b I64 out in
          B.store b I64 (B.add b v1 (B.i64 1)) out;
          let v2 = B.load b I64 out in
          B.store b I64 v2 (B.ptradd b out (B.i64 8))
        | _ -> assert false)
  in
  let m', _ = Ozo_opt.Cse.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "loads not CSEd" 2 (count_in_func is_load kf)

(* --- callgraph / ptrres ------------------------------------------------------ *)

let test_callgraph () =
  let b = B.create "m" in
  (match B.begin_func b ~name:"leaf" ~params:[] ~ret:None () with
  | [] ->
    B.set_block b "entry";
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  (match B.begin_func b ~name:"recursive" ~params:[] ~ret:None () with
  | [] ->
    B.set_block b "entry";
    B.call_void b "recursive" [];
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  ignore (B.begin_func b ~name:"k" ~kernel:true ~params:[] ~ret:None ());
  B.set_block b "entry";
  B.call_void b "leaf" [];
  let r = B.fresh_reg b in
  B.append b (Call_indirect (Some r, Some I64, Func_addr "leaf", []));
  B.ret b None;
  ignore (B.end_func b);
  let m = B.finish b in
  let cg = Ozo_ir.Callgraph.build m in
  Alcotest.(check bool) "leaf address taken" true (Ozo_ir.Callgraph.is_address_taken cg "leaf");
  Alcotest.(check bool) "recursive detected" true (Ozo_ir.Callgraph.is_recursive cg "recursive");
  Alcotest.(check bool) "leaf not recursive" false (Ozo_ir.Callgraph.is_recursive cg "leaf");
  let reach = Ozo_ir.Callgraph.reachable_from_kernels cg in
  Alcotest.(check bool) "leaf reachable" true (Ozo_ir.Cfg.SSet.mem "leaf" reach);
  Alcotest.(check bool) "recursive unreachable" false
    (Ozo_ir.Cfg.SSet.mem "recursive" reach)

let test_ptrres () =
  let b = B.create "m" in
  ignore (B.add_global b ~space:Shared ~size:64 "g");
  ignore (B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None ());
  B.set_block b "entry";
  let base = Global_addr "g" in
  let p1 = B.ptradd b base (B.i64 8) in
  let p2 = B.ptradd b p1 (B.i64 4) in
  let tid = B.thread_id b in
  let p3 = B.ptradd b base tid in
  let a = B.alloca b 16 in
  let sel = B.select b (Ptr Shared) (B.i1 true) p2 a in
  let _ = B.load b I64 sel in
  B.ret b None;
  ignore (B.end_func b);
  let m = B.finish b in
  let f = find_func_exn m "k" in
  let defs = Ozo_opt.Ptrres.build_defs f in
  (match Ozo_opt.Ptrres.resolve defs p2 with
  | Ozo_opt.Ptrres.Known [ { t_obj = Ozo_opt.Ptrres.Glob "g"; t_off = Some 12 } ] -> ()
  | _ -> Alcotest.fail "chained constant offsets");
  (match Ozo_opt.Ptrres.resolve defs p3 with
  | Ozo_opt.Ptrres.Known [ { t_obj = Ozo_opt.Ptrres.Glob "g"; t_off = None } ] -> ()
  | _ -> Alcotest.fail "unknown offset");
  (match Ozo_opt.Ptrres.resolve defs sel with
  | Ozo_opt.Ptrres.Known [ _; _ ] -> ()
  | _ -> Alcotest.fail "select unions targets");
  match Ozo_opt.Ptrres.resolve defs tid with
  | Ozo_opt.Ptrres.Unknown -> ()
  | _ -> Alcotest.fail "non-pointer is unknown"

(* --- harness report ----------------------------------------------------------- *)

let test_report_formats () =
  let p = Ozo_proxies.Registry.all_small () |> List.hd in
  let ms = Ozo_harness.Experiments.fig10 p in
  let s10 = Fmt.str "%a" Ozo_harness.Report.pp_fig10 ("t", ms) in
  Alcotest.(check bool) "fig10 has baseline row" true (contains s10 "Old RT (Nightly)");
  Alcotest.(check bool) "fig10 marks ok" true (contains s10 "ok");
  let s11 = Fmt.str "%a" Ozo_harness.Report.pp_fig11 ("t", ms) in
  Alcotest.(check bool) "fig11 has headers" true (contains s11 "smem(B)");
  let csv =
    Fmt.str "%a%a" Ozo_harness.Report.pp_csv_header ()
      (Fmt.list Ozo_harness.Report.pp_csv)
      ms
  in
  let rows =
    String.split_on_char '\n' csv |> List.filter (fun l -> String.trim l <> "")
  in
  Alcotest.(check int) "csv rows" (List.length ms + 1) (List.length rows);
  (* every row (and the header) carries exactly the columns the one
     [csv_columns] source declares *)
  List.iter
    (fun l ->
      Alcotest.(check int) "csv fields"
        (List.length Ozo_harness.Experiments.csv_columns)
        (List.length (String.split_on_char ',' l)))
    rows

let suite =
  [ tc "memory: pointer encoding" test_pointer_encoding;
    tc "memory: typed load/store" test_memory_rw;
    tc "memory: buffer growth" test_memory_growth;
    tc "memory: per-thread local stack" test_local_stack;
    tc "memory: constant space is read-only" test_store_to_constant_rejected;
    tc "cost: occupancy constraints" test_occupancy_constraints;
    tc "cost: kernel time vs occupancy" test_kernel_time_monotonic;
    tc "counters: add + memory cycles" test_counters_add_and_memcycles;
    tc "prng: determinism" test_prng_determinism;
    tc "prng: ranges" test_prng_ranges;
    tc "xsbench generator invariants" test_xsbench_generator_invariants;
    tc "proxy references deterministic" test_references_deterministic;
    tc "cse: dedups pure expressions" test_cse_dedups;
    tc "cse: respects dominance" test_cse_respects_dominance;
    tc "cse: leaves loads alone" test_cse_keeps_loads;
    tc "callgraph: edges, recursion, reachability" test_callgraph;
    tc "ptrres: field-sensitive resolution" test_ptrres;
    tc "harness: report formatting" test_report_formats ]
