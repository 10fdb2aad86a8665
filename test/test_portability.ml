(* Performance portability (DESIGN.md §16).

   The machine descriptor changes *what the simulation computes about*
   a launch — wavefront width drives reconvergence, coalescing buckets,
   uniform-strand scalarization and the occupancy arithmetic — but it
   must never change the *answer*: per machine, every proxy under every
   code shape shows the same across [--domains] and [--exec]. That is
   the oracle's machine cells (test/oracle.ml): the per-machine cells in
   [oracle], the per-machine campaign rows opening this suite.

   Pinned here are a few cross-machine facts: the 64-wide descriptor
   really does halve the warp count of a 32-wide machine (fewer warp
   instructions for the same work), machines are distinct cache keys in
   the serving tier, and a journaled row keeps its machine. *)

module C = Ozo_core.Codesign
module E = Ozo_harness.Experiments
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Machine = Ozo_backend.Machine
module Counters = Ozo_vgpu.Counters

let tc = Alcotest.test_case

(* --- the wavefront width is real ------------------------------------------ *)

(* 64-wide wavefronts must halve the warp count of the same SPMD launch
   on a 32-wide machine — fewer (wider) warp instructions for identical
   results. Warp-width independence of the *answer* is the oracle's;
   here we pin that the width actually reaches the engine. *)
let test_wavefront_width_reaches_engine () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let row machine = E.measure_request p (E.request_for ~machine p b) in
  let narrow = row Machine.v100 and wide = row Machine.mi250 in
  Alcotest.(check bool) "both valid" true
    (narrow.E.r_check = Ok () && wide.E.r_check = Ok ());
  let wi m = m.E.r_counters.Counters.warp_instructions in
  if not (wi wide < wi narrow) then
    Alcotest.failf "64-wide run issued %d warp instructions, 32-wide %d"
      (wi wide) (wi narrow)

(* generic mode hosts the main thread in one extra warp — one *wavefront*
   of hardware threads, so the worker count follows the machine. Only
   un-SPMDized builds stay generic, hence the baseline pipeline. *)
let test_generic_mode_warp_extends_by_width () =
  let p = Registry.find_exn "xsbench" in
  let b = { C.old_rt_nightly with C.b_pipe = Ozo_opt.Pipeline.baseline } in
  let hw machine =
    let c = C.compile ~machine b (Proxy.kernel_for p b.C.b_abi) in
    (match c.C.c_mode with
    | Ozo_opt.Spmdize.Generic -> ()
    | Ozo_opt.Spmdize.Spmd ->
      Alcotest.failf "baseline old-rt unexpectedly SPMDized on %s"
        machine.Machine.mc_name);
    C.hw_threads c ~threads:p.Proxy.p_threads
  in
  Alcotest.(check int) "v100 generic hw threads"
    (p.Proxy.p_threads + 32) (hw Machine.v100);
  Alcotest.(check int) "mi250 generic hw threads"
    (p.Proxy.p_threads + 64) (hw Machine.mi250)

(* --- machines are distinct serving-tier cache keys -------------------------- *)

let test_machine_in_cache_key () =
  let p = Registry.find_exn "xsbench" in
  let b = E.new_rt_for p in
  let key machine =
    let linked = C.link_stage ~machine b (Proxy.kernel_for p b.C.b_abi) in
    C.Compile_key.of_linked ~machine b linked
  in
  let k32 = key Machine.v100 and k64 = key Machine.mi250 in
  if k32 <> key Machine.v100 then
    Alcotest.fail "cache key is not deterministic";
  if k32 = k64 then
    Alcotest.fail "v100 and mi250 compiles share a cache key"

(* --- journal compatibility -------------------------------------------------- *)

(* a journaled mi250 row round-trips its machine name *)
let test_journal_machine_roundtrip () =
  let p = Registry.find_exn "xsbench" in
  let m =
    E.measure_request p (E.request_for ~machine:Machine.mi250 p (E.new_rt_for p))
  in
  Alcotest.(check string) "machine round-trips" "mi250"
    (Oracle.through_journal "mi250 row" m).E.r_machine

let suite =
  Oracle.suite_of "portability"
  @ [ tc "64-wide wavefronts issue fewer warp instructions" `Quick
      test_wavefront_width_reaches_engine;
    tc "generic-mode runtime warp follows the wavefront width" `Quick
      test_generic_mode_warp_extends_by_width;
    tc "machine is part of the serving-tier cache key" `Quick
      test_machine_in_cache_key;
    tc "journal: machine column round-trips, mi250 row" `Quick
      test_journal_machine_roundtrip ]
