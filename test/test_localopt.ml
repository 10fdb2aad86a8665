(* Local-optimization pass tests: constant folding, identities, domain
   rules, branch folding, CFG merging, DCE, purity-based call removal,
   devirtualization. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Local_opt = Ozo_opt.Local_opt
open Util

(* Build a kernel computing [emit] into out[0]; optimize; check both the
   structure predicate and that execution still yields [expected]. *)
let fold_case name ?expect_insts emit expected =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let v = emit b in
          B.store b I64 v out
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  check_verifies name m';
  (match expect_insts with
  | Some n ->
    let kf = find_func_exn m' "k" in
    let actual = count_in_func (fun _ -> true) kf in
    if actual > n then
      Alcotest.failf "%s: expected <= %d instructions after folding, got %d:\n%s" name n
        actual
        (Ozo_ir.Printer.func_to_string kf)
  | None -> ());
  let dev = Device.create m' in
  let out = Device.alloc dev 8 in
  (match Device.launch dev ~teams:1 ~threads:1 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %a" name Device.pp_error e);
  Alcotest.(check int) name expected (i64_array dev out 1).(0)

let test_constant_arith () =
  fold_case "add" ~expect_insts:1 (fun b -> B.add b (B.i64 20) (B.i64 22)) 42;
  fold_case "mul chain" ~expect_insts:1
    (fun b -> B.mul b (B.add b (B.i64 2) (B.i64 3)) (B.i64 4))
    20;
  fold_case "sdiv" ~expect_insts:1 (fun b -> B.sdiv b (B.i64 7) (B.i64 2)) 3;
  fold_case "srem" ~expect_insts:1 (fun b -> B.srem b (B.i64 7) (B.i64 3)) 1;
  fold_case "shift" ~expect_insts:1 (fun b -> B.shl b (B.i64 3) (B.i64 4)) 48;
  fold_case "smin/smax" ~expect_insts:1
    (fun b -> B.smax b (B.smin b (B.i64 5) (B.i64 9)) (B.i64 1))
    5

let test_div_by_zero_not_folded () =
  (* the fold must not hide the runtime fault *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let v = B.sdiv b (B.i64 1) (B.i64 0) in
          B.store b I64 v out
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  let f = expect_error ~threads:1 m' [ Engine.Ai 0 ] in
  if Fault.is_trap f then Alcotest.fail "expected fault"
  else Alcotest.(check bool) "div fault" true (contains f.Fault.f_msg "division")

let test_identities () =
  fold_case "x+0" ~expect_insts:2
    (fun b ->
      let x = B.thread_id b in
      B.add b x (B.i64 0))
    0;
  fold_case "x*1" ~expect_insts:2
    (fun b ->
      let x = B.thread_id b in
      B.mul b x (B.i64 1))
    0;
  fold_case "x*0" ~expect_insts:1
    (fun b ->
      let x = B.thread_id b in
      B.mul b x (B.i64 0))
    0

let test_icmp_same_reg () =
  fold_case "x==x" ~expect_insts:2
    (fun b ->
      let x = B.thread_id b in
      B.icmp b Eq x x)
    1;
  fold_case "x<x" ~expect_insts:2
    (fun b ->
      let x = B.thread_id b in
      B.icmp b Slt x x)
    0

let test_gpu_domain_rules () =
  (* thread_id < block_dim folds to true without executing a comparison *)
  fold_case "tid<bdim" ~expect_insts:1
    (fun b ->
      let tid = B.thread_id b in
      let bdim = B.block_dim b in
      B.icmp b Slt tid bdim)
    1;
  fold_case "tid>=0" ~expect_insts:1
    (fun b ->
      let tid = B.thread_id b in
      B.icmp b Sge tid (B.i64 0))
    1;
  fold_case "bid<gdim" ~expect_insts:1
    (fun b ->
      let bid = B.block_id b in
      let gdim = B.grid_dim b in
      B.icmp b Slt bid gdim)
    1

let test_branch_folding () =
  (* constant branch: the dead side (containing a trap) is removed *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          B.cond_br b (B.i1 true) "live" "dead";
          B.set_block b "live";
          B.store b I64 (B.i64 7) out;
          B.ret b None;
          B.set_block b "dead";
          B.trap b "should be removed";
          B.ret b None
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "single block" 1 (List.length kf.f_blocks);
  Alcotest.(check int) "no trap" 0
    (count_in_func (function Trap _ -> true | _ -> false) kf)

let test_switch_folding () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          B.terminate b (Switch (B.i64 2, [ (1L, "c1"); (2L, "c2") ], "cd"));
          List.iter
            (fun (lbl, v) ->
              B.set_block b lbl;
              B.store b I64 (B.i64 v) out;
              B.ret b None)
            [ ("c1", 10); ("c2", 20); ("cd", 30) ]
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "folded to one block" 1 (List.length kf.f_blocks);
  let dev = Device.create m' in
  let out = Device.alloc dev 8 in
  (match Device.launch dev ~teams:1 ~threads:1 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Alcotest.(check int) "case 2" 20 (i64_array dev out 1).(0)

let test_phi_single_incoming_and_merge () =
  (* after branch folding, the phi collapses and blocks merge; phi labels
     in successors must stay consistent (regression for the merge bug) *)
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let tid = B.thread_id b in
          B.cond_br b (B.i1 true) "a" "b";
          B.set_block b "a";
          let va = B.add b tid (B.i64 1) in
          B.br b "join";
          B.set_block b "b";
          let vb = B.add b tid (B.i64 2) in
          B.br b "join";
          B.set_block b "join";
          let p = B.phi b I64 [ ("a", va); ("b", vb) ] in
          (* a loop after the join so the join has interesting phis *)
          ignore
            (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 3) ~step:(B.i64 1) ~body:(fun _ -> ()));
          B.store b I64 p out;
          B.ret b None
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  check_verifies "merge+phi" m';
  let dev = Device.create m' in
  let out = Device.alloc dev 8 in
  (match Device.launch dev ~teams:1 ~threads:1 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Alcotest.(check int) "took true branch" 1 (i64_array dev out 1).(0)

let test_dce_keeps_side_effects () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          (* dead arithmetic *)
          let _ = B.add b (B.i64 1) (B.i64 2) in
          let dead = B.mul b (B.thread_id b) (B.i64 5) in
          ignore dead;
          (* live store *)
          B.store b I64 (B.i64 9) out;
          (* dead load (no side effect) *)
          let _ = B.load b I64 out in
          ()
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "store kept" 1 (count_in_func is_store kf);
  Alcotest.(check int) "loads removed" 0 (count_in_func is_load kf);
  Alcotest.(check int) "arith removed" 0
    (count_in_func (function Binop _ -> true | _ -> false) kf)

let test_pure_call_removal () =
  let b = B.create "m" in
  (* pure helper: loads and arithmetic only *)
  (match B.begin_func b ~name:"pure_fn" ~params:[ I64 ] ~ret:(Some I64) () with
  | [ x ] ->
    B.set_block b "entry";
    let v = B.load b I64 x in
    B.ret b (Some (B.add b v (B.i64 1)))
  | _ -> assert false);
  ignore (B.end_func b);
  (* impure helper: stores *)
  (match B.begin_func b ~name:"impure_fn" ~params:[ I64 ] ~ret:None () with
  | [ x ] ->
    B.set_block b "entry";
    B.store b I64 (B.i64 1) x;
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let _unused = B.call_val b "pure_fn" [ out ] in
    B.call_void b "impure_fn" [ out ];
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  let calls =
    List.concat_map
      (fun blk ->
        List.filter_map (function Call (_, n, _) -> Some n | _ -> None) blk.b_insts)
      kf.f_blocks
  in
  Alcotest.(check (list string)) "only impure call survives" [ "impure_fn" ] calls

let test_devirtualization () =
  let b = B.create "m" in
  (match B.begin_func b ~name:"target" ~params:[] ~ret:(Some I64) () with
  | [] ->
    B.set_block b "entry";
    B.ret b (Some (B.i64 5))
  | _ -> assert false);
  ignore (B.end_func b);
  let ps = B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () in
  B.set_block b "entry";
  (match ps with
  | [ out ] ->
    let r = B.fresh_reg b in
    B.append b (Call_indirect (Some r, Some I64, Func_addr "target", []));
    B.store b I64 (Reg r) out;
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  let m = B.finish b in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "no indirect calls" 0
    (count_in_func (function Call_indirect _ -> true | _ -> false) kf);
  Alcotest.(check int) "one direct call" 1
    (count_in_func (function Call (_, "target", _) -> true | _ -> false) kf)

let test_float_folding () =
  let m =
    kernel_module ~params:[ I64 ] (fun b ps ->
        match ps with
        | [ out ] ->
          let v = B.fmul b (B.fadd b (B.f64 1.5) (B.f64 2.5)) (B.f64 2.0) in
          let i = B.unop b Fptosi v in
          B.store b I64 i out
        | _ -> assert false)
  in
  let m', _ = Local_opt.run m in
  let kf = find_func_exn m' "k" in
  Alcotest.(check int) "fully folded" 1 (count_in_func (fun _ -> true) kf);
  let dev = Device.create m' in
  let out = Device.alloc dev 8 in
  (match Device.launch dev ~teams:1 ~threads:1 [ Engine.Ai (Device.ptr out) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%a" Device.pp_error e);
  Alcotest.(check int) "8" 8 (i64_array dev out 1).(0)

(* --- fixpoint memo ----------------------------------------------------------- *)

module Analysis = Ozo_opt.Analysis

let queries am =
  let st = Analysis.stats am in
  st.Analysis.st_hits + st.Analysis.st_misses

(* [k] calls [g] and discards the result; [g] stores (impure) or only
   loads (pure) *)
let caller_callee_module ~g_pure =
  let b = B.create "m" in
  (match B.begin_func b ~name:"g" ~params:[ I64 ] ~ret:(Some I64) () with
  | [ x ] ->
    B.set_block b "entry";
    if g_pure then B.ret b (Some (B.load b I64 x))
    else begin
      B.store b I64 (B.i64 1) x;
      B.ret b (Some (B.i64 0))
    end
  | _ -> assert false);
  ignore (B.end_func b);
  (match B.begin_func b ~name:"k" ~kernel:true ~params:[ I64 ] ~ret:None () with
  | [ out ] ->
    B.set_block b "entry";
    ignore (B.call_val b "g" [ out ]);
    B.ret b None
  | _ -> assert false);
  ignore (B.end_func b);
  B.finish b

(* run local_opt on [k]-calls-pure-[g], then on its own unchanged output
   twice: returns the analysis queries the last run issued *)
let queries_on_proven_fixpoint ~caching =
  let am = Analysis.create ~caching () in
  let m1, ch1 = Local_opt.run ~am (caller_callee_module ~g_pure:true) in
  Alcotest.(check bool) "first run deletes the pure call" true ch1;
  (* a changed result is not a proven fixpoint, so it is not recorded *)
  Alcotest.(check bool) "changed k not recorded" false
    (Analysis.known_fixpoint am (find_func_exn m1 "k") (Local_opt.pure_functions m1));
  let m2, ch2 = Local_opt.run ~am m1 in
  Alcotest.(check bool) "second run reports no change" false ch2;
  Alcotest.(check bool) "second run returns its input" true (m2 == m1);
  let q0 = queries am in
  let m3, ch3 = Local_opt.run ~am m2 in
  Alcotest.(check bool) "third run reports no change" false ch3;
  Alcotest.(check bool) "third run returns its input" true (m3 == m2);
  (queries am - q0, List.length m2.m_funcs)

let test_memo_skips_proven_fixpoints () =
  let q, _ = queries_on_proven_fixpoint ~caching:true in
  Alcotest.(check int) "proven fixpoints issue no analysis queries" 0 q

let test_memo_off_without_caching () =
  let q, nfuncs = queries_on_proven_fixpoint ~caching:false in
  if q < nfuncs then
    Alcotest.failf "caching off: %d queries for %d functions (a call was skipped)" q
      nfuncs

(* the memo is keyed on the pure-callee set too: [k] is a proven fixpoint
   while [g] stores, and must be rewritten once [g] turns pure *)
let test_memo_respects_pure_set () =
  let am = Analysis.create () in
  let m = caller_callee_module ~g_pure:false in
  let k0 = find_func_exn m "k" in
  let m1, _ = Local_opt.run ~am m in
  Alcotest.(check bool) "k left unchanged" true (find_func_exn m1 "k" == k0);
  let g_pure = find_func_exn (caller_callee_module ~g_pure:true) "g" in
  let m2 =
    { m1 with
      m_funcs = List.map (fun f -> if f.f_name = "g" then g_pure else f) m1.m_funcs }
  in
  let m3, _ = Local_opt.run ~am m2 in
  Alcotest.(check int) "call to the now-pure g deleted" 0
    (count_in_func is_call (find_func_exn m3 "k"))

let suite =
  [ tc "constant arithmetic" test_constant_arith;
    tc "division by zero is preserved" test_div_by_zero_not_folded;
    tc "algebraic identities" test_identities;
    tc "icmp on identical registers" test_icmp_same_reg;
    tc "GPU domain rules (tid < block_dim)" test_gpu_domain_rules;
    tc "branch folding removes dead side" test_branch_folding;
    tc "switch folding" test_switch_folding;
    tc "phi collapse + block merge" test_phi_single_incoming_and_merge;
    tc "DCE keeps side effects" test_dce_keeps_side_effects;
    tc "pure call removal" test_pure_call_removal;
    tc "devirtualization" test_devirtualization;
    tc "float folding" test_float_folding;
    tc "memo: proven fixpoints are skipped" test_memo_skips_proven_fixpoints;
    tc "memo: pure-set change re-runs a proven fixpoint" test_memo_respects_pure_set;
    tc "memo: off when caching is off" test_memo_off_without_caching ]
