(* Threaded-code executor (DESIGN.md §15). That `--exec vm` changes only
   wall-clock time — counters, results, faults, injection sites,
   sanitizer verdicts and rows identical to the IR interpreter, spilled
   allocations included — is the oracle's [Vm] variant (test/oracle.ml),
   whose rows open this suite (the spill fallback's is in [oracle]).

   Both executors run the backend's register-rename plan, so a second
   differential pins renaming itself: the same compile launched with and
   without its plan must show the same, fault text included.

   Also here: the compile key and the campaign fingerprint carry the
   exec path, the seeded property suite for [Vm.sequentialize_copies]
   (cycle-breaking temps must preserve parallel-copy semantics, both on
   random copy sets and on every phi edge of irgen-generated kernels)
   and a VM-shape golden pin for one proxy. *)

module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Pipeline = Ozo_opt.Pipeline
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Fault = Ozo_vgpu.Fault
module Machine = Ozo_backend.Machine
module Backend = Ozo_backend.Lower
module Regalloc = Ozo_backend.Regalloc
module Vm = Ozo_backend.Vm
module Irgen = Ozo_resilience.Irgen
module Prng = Ozo_util.Prng
open Ozo_ir.Types

let tc = Alcotest.test_case

(* --- register renaming: planned frames = unrenamed frames ----------------- *)

(* Both executors run the backend's rename plan, so the oracle's
   [vm = ir] does not check renaming. This does: one compile per (proxy, build),
   launched on a device with the plan and on one without it
   ([~plan:[]], frames of [f_next_reg] rows). Counters, check verdicts
   and fault text must agree. *)
let test_rename_identity () =
  let planned = ref 0 in
  let check ?machine ctx p b =
    let r = E.request_for ?machine p b in
    let c = C.compile_request r (Proxy.kernel_for p b.C.b_abi) in
    let launch plan =
      Oracle.launch p r c
        (Device.create ~params:(Machine.cost_params c.C.c_machine) ~exec:c.C.c_exec
           ~plan c.C.c_module)
    in
    let plan = c.C.c_lower.Backend.lw_plan in
    planned := !planned + List.length plan;
    Alcotest.(check (list string)) (ctx ^ ": renamed = unrenamed") (launch []) (launch plan)
  in
  List.iter
    (fun p ->
      List.iter
        (fun b -> check (Fmt.str "%s/%s" p.Proxy.p_name b.C.b_label) p b)
        (E.builds_for p);
      check ~machine:(Machine.with_reg_budget 8 Machine.vgpu)
        (Fmt.str "%s spill8" p.Proxy.p_name)
        p (E.new_rt_for p))
    (Registry.all_small ());
  Alcotest.(check bool) "plans were applied" true (!planned > 0)

(* Fault text under renaming names the IR's own registers: [k] below runs
   with a plan that reverses its register numbering, and its phi lacks
   the incoming edge that executes, so the fault must still name %6. A
   division by zero faults at the same site with the same text. *)
let test_rename_fault_text () =
  let parse = Ozo_ir.Parser.parse_module in
  let reversed (m : modul) =
    List.map
      (fun f ->
        let n = f.f_next_reg in
        (f.f_name, { Engine.rp_map = Array.init n (fun r -> n - 1 - r); rp_nregs = n }))
      m.m_funcs
  in
  let fault_of ~plan m args =
    match Device.launch (Device.create ~plan m) ~teams:2 ~threads:40 args with
    | Ok _ -> Alcotest.fail "expected a fault"
    | Error f -> Fault.to_line f
  in
  let same name m args =
    let unplanned = fault_of ~plan:[] m args in
    Alcotest.(check string) name unplanned (fault_of ~plan:(reversed m) m args);
    unplanned
  in
  let phi =
    parse
      {|module phi_fault

kernel func k(%0: i64)
entry:
  %1 = thread.id
  %2 = add %1, %0
  br body
body:
  %3 = mul %2, 3:i64
  br join
other:
  br join
join:
  %6 = phi i64 [other: %3]
  ret
|}
  in
  let msg = same "missing phi incoming" phi [ Engine.Ai 1 ] in
  if not (Util.contains msg "phi %6 in join lacks incoming for body") then
    Alcotest.failf "fault does not name the original register: %s" msg;
  let div =
    parse
      {|module div_fault

kernel func k(%0: i64)
entry:
  %1 = thread.id
  %2 = add %1, 7:i64
  %3 = sdiv %2, %0
  ret
|}
  in
  let msg = same "division by zero" div [ Engine.Ai 0 ] in
  if not (Util.contains msg "division by zero @ k:entry:2") then
    Alcotest.failf "unexpected division fault: %s" msg

(* --- the compile key fingerprints the exec path --------------------------- *)

let test_compile_key_exec_sensitive () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let linked = C.link_stage b (Proxy.kernel_for p b.C.b_abi) in
  let key e = C.Compile_key.of_linked ~machine:Machine.vgpu ~exec:e b linked in
  Alcotest.(check bool)
    "ir and vm artifacts never alias in the cache" false
    (C.Compile_key.equal (key Engine.Exec_ir) (key Engine.Exec_vm));
  Alcotest.(check bool)
    "key is deterministic" true
    (C.Compile_key.equal (key Engine.Exec_vm) (key Engine.Exec_vm))

(* --- campaign journal fingerprint ----------------------------------------- *)

let test_campaign_fingerprint_exec () =
  let module Campaign = Ozo_resilience.Campaign in
  let o = { Campaign.default with Campaign.co_proxies = [ "xsbench" ] } in
  let fp_ir = Campaign.fingerprint o in
  let fp_vm =
    Campaign.fingerprint { o with Campaign.co_exec = Engine.Exec_vm }
  in
  let has_suffix ~suffix s =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  Alcotest.(check bool) "exec in fingerprint" false (fp_ir = fp_vm);
  Alcotest.(check bool) "ir spelled out" true
    (has_suffix ~suffix:";exec=ir" fp_ir);
  Alcotest.(check bool) "vm spelled out" true
    (has_suffix ~suffix:";exec=vm" fp_vm)

(* --- parallel-copy sequentialization: seeded property --------------------- *)

(* Execute a sequentialized copy list over a symbolic environment and
   check parallel semantics: each destination ends with the value its
   source held *before* any copy ran, and untouched locations keep
   theirs. Sources/dests range over a small loc pool so collisions (and
   cycles) are common. *)
let locs =
  List.init 4 (fun i -> Regalloc.Phys i) @ [ Regalloc.Slot 0; Regalloc.Slot 1 ]

let eval env = function
  | Vm.Vloc l -> (
    match List.assoc_opt l env with
    | Some v -> v
    | None -> Fmt.str "init(%a)" Vm.pp_loc l)
  | o -> Fmt.str "%a" Vm.pp_opd o

let exec_copies env0 (seq : (Regalloc.loc * Vm.vopd) list) =
  List.fold_left (fun env (d, s) -> (d, eval env s) :: env) env0 seq

let random_copies rng =
  (* distinct destinations (phis define each register once per block) *)
  let n = 1 + Prng.int rng (List.length locs) in
  let dests =
    List.filteri (fun i _ -> i < n)
      (List.sort
         (fun _ _ -> if Prng.int rng 2 = 0 then 1 else -1)
         locs)
  in
  List.map
    (fun d ->
      let s =
        match Prng.int rng 4 with
        | 0 -> Vm.Vint (Int64.of_int (Prng.int rng 100))
        | _ -> Vm.Vloc (List.nth locs (Prng.int rng (List.length locs)))
      in
      (d, s))
    dests

let check_parallel_semantics ctx (copies : (Regalloc.loc * Vm.vopd) list) seq =
  (* the cycle-breaking temp must be fresh: never a destination *)
  List.iter
    (fun (d, _) ->
      if List.exists (fun (d', _) -> d' = d) copies then ()
      else if not (List.exists (fun (_, s) -> s = Vm.Vloc d) seq) then
        Alcotest.failf "%s: temp %a written but never read" ctx Vm.pp_loc d)
    seq;
  let final = exec_copies [] seq in
  List.iter
    (fun (d, s) ->
      let expect = eval [] s in
      let got = eval final (Vm.Vloc d) in
      if got <> expect then
        Alcotest.failf "%s: dest %a ends with %s, want %s@.copies: %a@.seq: %a"
          ctx Vm.pp_loc d got expect
          Fmt.(list ~sep:semi (pair Vm.pp_loc Vm.pp_opd))
          copies
          Fmt.(list ~sep:semi (pair Vm.pp_loc Vm.pp_opd))
          seq)
    copies;
  (* locations that are neither destinations nor temps stay untouched *)
  List.iter
    (fun l ->
      if not (List.exists (fun (d, _) -> d = l) seq) then
        Alcotest.(check string)
          (ctx ^ ": bystander untouched")
          (eval [] (Vm.Vloc l))
          (eval final (Vm.Vloc l)))
    locs

let test_sequentialize_property () =
  let temp_pool =
    [ Regalloc.Phys 90; Regalloc.Phys 91; Regalloc.Phys 92 ]
  in
  let cycles_broken = ref 0 in
  for seed = 1 to 500 do
    let rng = Prng.create seed in
    let copies = random_copies rng in
    let k = ref 0 in
    let temp () =
      incr cycles_broken;
      let t = List.nth temp_pool (min !k (List.length temp_pool - 1)) in
      incr k;
      t
    in
    let seq = Vm.sequentialize_copies ~temp copies in
    check_parallel_semantics (Fmt.str "seed %d" seed) copies seq
  done;
  (* the pool above makes swaps common: the temp path must actually run *)
  Alcotest.(check bool)
    "cycle breaker exercised" true (!cycles_broken > 0)

(* --- sequentialization on real phi edges (via irgen) ---------------------- *)

(* For generated kernels, rebuild each edge's parallel copy straight from
   the optimized function's phis (resolving operands exactly as the
   emitter does) and check the emitted V_copy sequence implements it. *)
let test_sequentialize_on_irgen_edges () =
  let edges_checked = ref 0 in
  for seed = 1 to 12 do
    let m = Irgen.generate ~seed in
    let opt = Pipeline.run Pipeline.full m in
    let layout = Ozo_backend.Smem.of_module opt in
    let lower = Backend.run ~machine:Machine.vgpu opt ~kernel:Irgen.kernel_name in
    List.iter
      (fun (fl : Backend.func_lowering) ->
        let ra = fl.Backend.fl_ra in
        let f =
          List.find (fun f -> f.f_name = fl.Backend.fl_func) opt.m_funcs
        in
        let resolve = function
          | Reg r -> Vm.Vloc (Regalloc.loc r ra)
          | Imm_int (v, _) -> Vm.Vint v
          | Imm_float v -> Vm.Vfloat v
          | Global_addr g -> (
            match
              List.find_opt
                (fun s -> s.Ozo_backend.Smem.sl_name = g)
                layout.Ozo_backend.Smem.ly_slots
            with
            | Some s -> Vm.Vshared (g, s.Ozo_backend.Smem.sl_offset)
            | None -> Vm.Vglobal g)
          | Func_addr fn -> Vm.Vfunc fn
          | Undef _ -> Vm.Vundef
        in
        List.iter
          (fun (b : block) ->
            List.iter
              (fun succ ->
                match find_block f succ with
                | None -> ()
                | Some sb ->
                  let copies =
                    List.filter_map
                      (fun p ->
                        Option.map
                          (fun o -> (Regalloc.loc p.phi_reg ra, resolve o))
                          (List.assoc_opt b.b_label p.phi_incoming))
                      sb.b_phis
                  in
                  (* distinct-dest edges only: a dead phi defaults to
                     phys 0 and may alias a live one — order-dependent
                     by construction, not a parallel copy *)
                  let dests = List.map fst copies in
                  if copies <> [] && List.length (List.sort_uniq compare dests) = List.length dests
                  then begin
                    incr edges_checked;
                    let vb =
                      List.find
                        (fun vb -> vb.Vm.vb_label = b.b_label)
                        fl.Backend.fl_vm.Vm.vf_blocks
                    in
                    let seq =
                      List.map
                        (function
                          | Vm.V_copy (d, s) -> (d, s)
                          | i ->
                            Alcotest.failf "non-copy %a on edge %s->%s"
                              Vm.pp_vinst i b.b_label succ)
                        (List.assoc succ vb.Vm.vb_term.Vm.vt_edges)
                    in
                    check_parallel_semantics
                      (Fmt.str "irgen seed %d %s->%s" seed b.b_label succ)
                      copies seq
                  end)
              (term_succs b.b_term))
          f.f_blocks)
      lower.Backend.lw_funcs
  done;
  Alcotest.(check bool)
    "generated kernels produced phi edges" true (!edges_checked > 0)

(* --- VM-shape golden pin --------------------------------------------------- *)

(* One proxy's VM form, pinned as the `ozo vm --csv` row. A change here is
   a real backend change: regenerate with
     OZO_GOLDEN_REGEN=1 dune runtest --force 2>&1 | grep GOLDEN-VM
   and paste the new row. *)
let golden_vm_row =
  "xsbench,New RT,xs_lookup_kernel,12,2,152,2,0,0,21,0,vm,21"

let vm_row (p : Proxy.t) (b : C.build) =
  let c = C.compile b (Proxy.kernel_for p b.C.b_abi) in
  let l = c.C.c_lower in
  let fl = List.hd l.Backend.lw_funcs in
  let s = Vm.func_stats fl.Backend.fl_vm in
  let vf = fl.Backend.fl_vm in
  let plan = List.assoc_opt fl.Backend.fl_func l.Backend.lw_plan in
  Fmt.str "%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d" p.Proxy.p_name b.C.b_label
    fl.Backend.fl_func s.Vm.vs_blocks s.Vm.vs_edges s.Vm.vs_ops s.Vm.vs_moves
    s.Vm.vs_reloads s.Vm.vs_spills vf.Vm.vf_regs_used vf.Vm.vf_frame_bytes
    (match plan with Some _ -> "vm" | None -> "ir")
    (match plan with Some pl -> pl.Engine.rp_nregs | None -> 0)

let test_vm_shape_golden () =
  let p =
    List.find (fun p -> p.Proxy.p_name = "xsbench") (Registry.all_small ())
  in
  let row = vm_row p (E.new_rt_for p) in
  if Sys.getenv_opt "OZO_GOLDEN_REGEN" <> None then
    Fmt.pr "GOLDEN-VM %s@." row;
  Alcotest.(check string) "xsbench VM shape" golden_vm_row row

let suite =
  Oracle.suite_of "vm"
  @ [ tc "renamed frames = unrenamed frames for every proxy x build (+ spill8)"
      `Quick test_rename_identity;
    tc "fault text names original registers under a rename plan" `Quick
      test_rename_fault_text;
    tc "compile key fingerprints the exec path" `Quick
      test_compile_key_exec_sensitive;
    tc "campaign journal fingerprint carries the exec path" `Quick
      test_campaign_fingerprint_exec;
    tc "sequentialized copies preserve parallel semantics (seeded)" `Quick
      test_sequentialize_property;
    tc "sequentialization correct on irgen phi edges" `Quick
      test_sequentialize_on_irgen_edges;
    tc "VM shape golden pin (xsbench)" `Quick test_vm_shape_golden ]
