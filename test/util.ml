(* Shared helpers for the test suites. *)

open Ozo_ir.Types
module B = Ozo_ir.Builder
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Fault = Ozo_vgpu.Fault

let check_verifies name m =
  match Ozo_ir.Verifier.check m with
  | Ok () -> ()
  | Error vs ->
    Alcotest.failf "%s: verifier: %a" name
      (Fmt.list ~sep:Fmt.semi Ozo_ir.Verifier.pp_violation)
      vs

(* Run a single-kernel module and return the result or fail the test. *)
let run_ok ?(check_assumes = false) ?(teams = 1) ?(threads = 32) m args =
  let dev = Device.create m in
  let opts = { Device.Launch_opts.default with Device.Launch_opts.check_assumes } in
  match Device.launch ~opts dev ~teams ~threads args with
  | Ok r -> (dev, r)
  | Error e -> Alcotest.failf "launch failed: %a" Device.pp_error e

let expect_error ?(teams = 1) ?(threads = 32) ?(check_assumes = false) m args =
  let dev = Device.create m in
  let opts = { Device.Launch_opts.default with Device.Launch_opts.check_assumes } in
  match Device.launch ~opts dev ~teams ~threads args with
  | Ok _ -> Alcotest.fail "expected a launch error"
  | Error e -> e

(* Build a kernel module with one kernel function. [emit] receives the
   builder and the parameter operands. *)
let kernel_module ?(name = "k") ~params emit =
  let b = B.create (name ^ "_mod") in
  let ps = B.begin_func b ~name ~kernel:true ~linkage:External ~params ~ret:None () in
  B.set_block b "entry";
  emit b ps;
  if not (B.is_terminated b) then B.ret b None;
  ignore (B.end_func b);
  B.finish b

(* structural helpers *)
let count_insts pred (m : modul) =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc b -> acc + List.length (List.filter pred b.b_insts))
        acc f.f_blocks)
    0 m.m_funcs

let count_in_func pred (f : func) =
  List.fold_left
    (fun acc b -> acc + List.length (List.filter pred b.b_insts))
    0 f.f_blocks

let has_global m name = Ozo_ir.Types.find_global m name <> None
let has_func m name = Ozo_ir.Types.find_func m name <> None

let is_barrier = function Barrier _ -> true | _ -> false
let is_load = function Load _ -> true | _ -> false
let is_store = function Store _ -> true | _ -> false
let is_call = function Call _ | Call_indirect _ -> true | _ -> false

let f64_array dev buf n = Device.read_f64_array dev buf n
let i64_array dev buf n = Device.read_i64_array dev buf n

let tc name f = Alcotest.test_case name `Quick f

(* the reduced test-size proxy named [name] *)
let small_proxy name =
  let named p = p.Ozo_proxies.Proxy.p_name = name in
  match List.find_opt named (Ozo_proxies.Registry.all_small ()) with
  | Some p -> p
  | None -> Alcotest.failf "no small proxy %s" name

(* substring search *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* float comparison *)
let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs a)

let check_f64s name expected got =
  Array.iteri
    (fun i e ->
      if not (feq e got.(i)) then
        Alcotest.failf "%s[%d]: expected %.12g got %.12g" name i e got.(i))
    expected
