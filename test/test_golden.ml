(* Golden-counters determinism tests.

   The engine's whole value is that its *simulated* results (cycle
   counts, transaction counts, divergence statistics) are a deterministic
   function of the program — performance work on the interpreter must
   never change them. These tests pin that invariant two ways:

   - run-to-run: each registry proxy, compiled under the full pipeline,
     is measured twice and the two [Counters.t] must be identical;
   - against a checked-in snapshot: the counters must equal the values
     recorded below, which were captured from the seed engine before any
     interpreter fast-path work landed.

   To regenerate the snapshot after an *intentional* semantic change
   (e.g. a new cost model), run:

     OZO_GOLDEN_REGEN=1 dune runtest --force 2>&1 | grep GOLDEN

   and paste the printed lines over the table. Do NOT regenerate to make
   a perf refactor pass: a diff here means the refactor changed simulated
   behaviour, which is a bug by definition.

   Snapshot history: the gridmini/old-rt and testsnap/old-rt rows were
   regenerated when kernel malloc moved from a device-wide bump to
   per-team arena windows (the domain-parallel engine requires malloc
   addresses to be a pure function of (team, allocation order)). The
   128-byte-aligned windows shift the malloc'd data-sharing slots'
   transaction phase, slightly *improving* coalescing for those two
   proxies (global_transactions and cycles dropped; every other counter
   and every simulated result is unchanged). This was an intentional
   allocator-semantics change, not a perf-refactor regression. *)

module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Counters = Ozo_vgpu.Counters
module Registry = Ozo_proxies.Registry
module Proxy = Ozo_proxies.Proxy

(* (warp_insts, lane_insts, barriers, aligned_barriers, global_txns,
    shared_accs, atomics, mallocs, calls, divergent_branches, cycles) *)
type snap = int * int * int * int * int * int * int * int * int * int * int

let golden : (string * string * snap) list =
  [ ("xsbench", "old-rt", (1230, 38392, 12, 0, 1043, 128, 0, 2, 18, 19, 46148));
    ("xsbench", "new-rt", (994, 31398, 0, 0, 635, 0, 0, 0, 0, 13, 27232));
    ("rsbench", "old-rt", (1736, 54994, 12, 0, 620, 128, 0, 2, 18, 6, 30134));
    ("rsbench", "new-rt", (1500, 48000, 0, 0, 212, 0, 0, 0, 0, 0, 11218));
    ("gridmini", "old-rt", (1095, 30528, 18, 0, 654, 192, 0, 3, 27, 12, 31383));
    ("gridmini", "new-rt", (603, 16371, 0, 0, 332, 0, 0, 0, 0, 1, 14009));
    ("testsnap", "old-rt", (1612, 51026, 12, 0, 1068, 128, 0, 2, 18, 6, 48380));
    ("testsnap", "new-rt", (1392, 44544, 0, 0, 852, 0, 0, 0, 0, 0, 37152));
    ("minifmm", "old-rt", (492, 13785, 6, 0, 375, 68, 0, 2, 11, 4, 17619));
    ("minifmm", "new-rt", (431, 11664, 3, 3, 208, 408, 0, 0, 2, 1, 9401)) ]

(* Resource-model snapshot: (kernel regs, smem bytes, static spills).
   Pins the backend's register allocator, SMem layout and spill counts
   the same way [golden] pins the engine. Regenerate with the same
   OZO_GOLDEN_REGEN flow (grep GOLDEN-R). *)
type rsnap = int * int * int

let golden_resources : (string * string * rsnap) list =
  [ ("xsbench", "old-rt", (64, 2336, 0));
    ("xsbench", "new-rt", (21, 0, 0));
    ("rsbench", "old-rt", (64, 2336, 0));
    ("rsbench", "new-rt", (23, 0, 0));
    ("gridmini", "old-rt", (68, 2336, 0));
    ("gridmini", "new-rt", (25, 0, 0));
    ("testsnap", "old-rt", (60, 2336, 0));
    ("testsnap", "new-rt", (22, 0, 0));
    ("minifmm", "old-rt", (60, 2336, 0));
    ("minifmm", "new-rt", (31, 11312, 0)) ]

let rsnap_of (m : E.measurement) : rsnap = (m.E.r_regs, m.E.r_smem, m.E.r_spills)

let pp_rsnap ppf (a, b, c) = Fmt.pf ppf "(%d, %d, %d)" a b c

let snap_of (c : Counters.t) : snap =
  ( c.warp_instructions, c.lane_instructions, c.barriers, c.aligned_barriers,
    c.global_transactions, c.shared_accesses, c.atomics, c.mallocs, c.calls,
    c.divergent_branches, c.cycles )

let pp_snap ppf (a, b, c, d, e, f, g, h, i, j, k) =
  Fmt.pf ppf "(%d, %d, %d, %d, %d, %d, %d, %d, %d, %d, %d)" a b c d e f g h i j k

let build_of p = function
  | "old-rt" -> C.old_rt_nightly
  | "new-rt" -> E.new_rt_for p
  | b -> Alcotest.failf "unknown golden build %s" b

let measure_once p b =
  let m = E.measure_request p (E.request_for p b) in
  (match m.E.r_fault with
  | None -> ()
  | Some f ->
    Alcotest.failf "%s/%s faulted: %s" m.E.r_proxy m.E.r_build
      (Ozo_vgpu.Fault.to_line f));
  (match m.E.r_check with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s/%s check failed: %s" m.E.r_proxy m.E.r_build e);
  m

let builds = [ "old-rt"; "new-rt" ]

let regen () =
  List.iter
    (fun p ->
      List.iter
        (fun bname ->
          let m = measure_once p (build_of p bname) in
          Fmt.pr "GOLDEN    (%S, %S, %a);@." p.Proxy.p_name bname pp_snap
            (snap_of m.E.r_counters);
          Fmt.pr "GOLDEN-R    (%S, %S, %a);@." p.Proxy.p_name bname pp_rsnap
            (rsnap_of m))
        builds)
    (Registry.all_small ());
  Alcotest.fail
    "golden snapshot regenerated; paste the GOLDEN lines into golden and the \
     GOLDEN-R lines into golden_resources"

let test_run_to_run () =
  List.iter
    (fun p ->
      List.iter
        (fun bname ->
          let b = build_of p bname in
          let m1 = measure_once p b in
          let m2 = measure_once p b in
          if not (Counters.equal m1.E.r_counters m2.E.r_counters) then
            Alcotest.failf "%s/%s: counters differ run-to-run:@.%a@.vs@.%a"
              p.Proxy.p_name bname Counters.pp m1.E.r_counters Counters.pp
              m2.E.r_counters;
          if m1.E.r_cycles <> m2.E.r_cycles then
            Alcotest.failf "%s/%s: kernel time differs run-to-run: %f vs %f"
              p.Proxy.p_name bname m1.E.r_cycles m2.E.r_cycles)
        builds)
    (Registry.all_small ())

let test_snapshot () =
  if Sys.getenv_opt "OZO_GOLDEN_REGEN" <> None then regen ();
  Alcotest.(check bool)
    "snapshot table covers every registry proxy x build" true
    (List.length golden = List.length (Registry.all_small ()) * List.length builds);
  List.iter
    (fun (pname, bname, expect) ->
      let p = Util.small_proxy pname in
      let m = measure_once p (build_of p bname) in
      let got = snap_of m.E.r_counters in
      if got <> expect then
        Alcotest.failf
          "%s/%s: counters diverge from the seed snapshot (simulated results \
           changed!):@.expected %a@.got      %a"
          pname bname pp_snap expect pp_snap got)
    golden

let test_resource_snapshot () =
  if Sys.getenv_opt "OZO_GOLDEN_REGEN" <> None then regen ();
  Alcotest.(check bool)
    "resource table covers every registry proxy x build" true
    (List.length golden_resources
    = List.length (Registry.all_small ()) * List.length builds);
  List.iter
    (fun (pname, bname, expect) ->
      let p = Util.small_proxy pname in
      let m = measure_once p (build_of p bname) in
      let got = rsnap_of m in
      if got <> expect then
        Alcotest.failf
          "%s/%s: (regs, smem, spills) diverge from the snapshot (resource \
           model changed!):@.expected %a@.got      %a"
          pname bname pp_rsnap expect pp_rsnap got)
    golden_resources

let suite =
  [ Alcotest.test_case "golden: run-to-run determinism" `Quick test_run_to_run;
    Alcotest.test_case "golden: counters match seed snapshot" `Quick test_snapshot;
    Alcotest.test_case "golden: resources match snapshot" `Quick
      test_resource_snapshot ]
