(* Tests for the resilience layer: supervisor state machine (crash
   capture, retry/backoff, circuit breaker), engine watchdog deadlines,
   the crash-safe journal, campaign kill/resume, and the differential IR
   fuzzer with its shrinker. *)

open Ozo_ir.Types
open Util
module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Fault = Ozo_vgpu.Fault
module Supervisor = Ozo_resilience.Supervisor
module Journal = Ozo_resilience.Journal
module Campaign = Ozo_resilience.Campaign
module Irgen = Ozo_resilience.Irgen
module Fuzz = Ozo_resilience.Fuzz

(* a supervisor with injected clock/sleep so nothing waits for real *)
let make_sup ?(opts = Supervisor.default) ?(sleeps = ref []) () =
  let now = ref 0.0 in
  let sup =
    Supervisor.create
      ~clock:(fun () -> !now)
      ~sleep:(fun d ->
        sleeps := d :: !sleeps;
        now := !now +. d)
      opts
  in
  (sup, sleeps)

let ok_row ~proxy ~build =
  { (E.dead_measurement ~proxy ~build (Fault.make Fault.Invalid "unused")) with
    E.r_check = Ok (); r_fault = None }

let failed_row ~proxy ~build kind =
  E.dead_measurement ~proxy ~build (Fault.make kind "synthetic failure")

(* --- supervisor --------------------------------------------------------- *)

let test_crash_capture () =
  let sup, _ = make_sup () in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt:_ ~watchdog:_ ->
        failwith "compiler exploded")
  in
  (match m.E.r_fault with
  | Some f ->
    Alcotest.(check string) "kind" "internal" (Fault.kind_name f.Fault.f_kind);
    Alcotest.(check bool) "message names the exception" true
      (contains f.Fault.f_msg "compiler exploded")
  | None -> Alcotest.fail "expected a captured fault");
  Alcotest.(check bool) "check failed" true (Result.is_error m.E.r_check);
  Alcotest.(check string) "breaker still closed" "closed" m.E.r_breaker

let test_retry_then_success () =
  let sleeps = ref [] in
  let sup, _ = make_sup ~sleeps () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt ~watchdog:_ ->
        incr calls;
        if attempt < 2 then failed_row ~proxy:"p" ~build:"b" Fault.Deadline
        else ok_row ~proxy:"p" ~build:"b")
  in
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check int) "two retries recorded" 2 m.E.r_retries;
  Alcotest.(check bool) "deadline flagged" true m.E.r_deadline_hit;
  Alcotest.(check bool) "final check ok" true (Result.is_ok m.E.r_check);
  Alcotest.(check int) "one backoff per retry" 2 (List.length !sleeps);
  List.iter
    (fun d -> Alcotest.(check bool) "positive backoff" true (d > 0.0))
    !sleeps

let test_retry_exhausted () =
  let sup, _ = make_sup () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Deadline)
  in
  Alcotest.(check int) "initial + sv_retries attempts"
    (1 + Supervisor.default.Supervisor.sv_retries)
    !calls;
  Alcotest.(check bool) "still failed" true (Result.is_error m.E.r_check)

let test_no_retry_for_permanent_fault () =
  let sup, _ = make_sup () in
  let calls = ref 0 in
  let m =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Oob)
  in
  Alcotest.(check int) "no retry for oob" 1 !calls;
  Alcotest.(check int) "zero retries recorded" 0 m.E.r_retries

let test_breaker_trips_and_skips () =
  let opts =
    { Supervisor.default with
      Supervisor.sv_breaker_threshold = 2; sv_retries = 0 }
  in
  let sup, _ = make_sup ~opts () in
  let calls = ref 0 in
  let fail_once () =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt:_ ~watchdog:_ ->
        incr calls;
        failed_row ~proxy:"p" ~build:"b" Fault.Oob)
  in
  let m1 = fail_once () in
  Alcotest.(check string) "first failure: closed" "closed" m1.E.r_breaker;
  let m2 = fail_once () in
  Alcotest.(check string) "threshold reached: open" "open" m2.E.r_breaker;
  let m3 = fail_once () in
  Alcotest.(check string) "then skipped" "skipped" m3.E.r_breaker;
  Alcotest.(check int) "task not invoked once open" 2 !calls;
  (match m3.E.r_fault with
  | Some f ->
    Alcotest.(check string) "skip is an internal fault" "internal"
      (Fault.kind_name f.Fault.f_kind)
  | None -> Alcotest.fail "skipped row carries a fault");
  (* a different build is unaffected *)
  let m4 =
    Supervisor.supervise sup ~proxy:"p" ~build:"other"
      (fun ~attempt:_ ~watchdog:_ -> ok_row ~proxy:"p" ~build:"other")
  in
  Alcotest.(check string) "independent key stays closed" "closed" m4.E.r_breaker

let test_breaker_resets_on_success () =
  let opts =
    { Supervisor.default with
      Supervisor.sv_breaker_threshold = 2; sv_retries = 0 }
  in
  let sup, _ = make_sup ~opts () in
  let run row =
    Supervisor.supervise sup ~proxy:"p" ~build:"b" (fun ~attempt:_ ~watchdog:_ ->
        row)
  in
  ignore (run (failed_row ~proxy:"p" ~build:"b" Fault.Oob));
  ignore (run (ok_row ~proxy:"p" ~build:"b"));
  let m = run (failed_row ~proxy:"p" ~build:"b" Fault.Oob) in
  Alcotest.(check string) "success reset the count" "closed" m.E.r_breaker

(* --- watchdog ----------------------------------------------------------- *)

(* a kernel that loops far past the watchdog poll interval *)
let long_loop_module () =
  kernel_module ~name:"spin" ~params:[ Ptr Global ] (fun b ps ->
      let out = List.hd ps in
      ignore
        (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 100_000) ~step:(B.i64 1)
           ~body:(fun iv -> B.store b I64 iv out)))

let test_watchdog_deadline () =
  let m = long_loop_module () in
  let dev = Device.create m in
  let buf = Device.alloc dev 8 in
  let opts =
    { Device.Launch_opts.default with
      Device.Launch_opts.watchdog = Some (fun () -> true) }
  in
  match Device.launch ~opts dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> Alcotest.fail "expected a deadline fault"
  | Error f ->
    Alcotest.(check string) "deadline kind" "deadline"
      (Fault.kind_name f.Fault.f_kind)

let test_watchdog_quiet_when_unexpired () =
  let m = long_loop_module () in
  let dev = Device.create m in
  let buf = Device.alloc dev 8 in
  let opts =
    { Device.Launch_opts.default with
      Device.Launch_opts.watchdog = Some (fun () -> false) }
  in
  match Device.launch ~opts dev ~teams:1 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "unexpected fault: %a" Fault.pp f

(* --- journal ------------------------------------------------------------ *)

let sample_fault () =
  let ctx = Fault.make_ctx () in
  Fault.set_site ctx ~fn:"k" ~blk:"entry" ~idx:3;
  Fault.set_strand ctx ~team:1 ~warp:0 ~mask:(Array.make 32 true);
  Fault.annotate ctx
    (Fault.make
       ~access:{ Fault.a_ptr = 0xbeef; a_space = "global"; a_offset = 16; a_bytes = 8 }
       ~threads:[ 3; 7 ] Fault.Oob "access out of bounds")

let test_journal_roundtrip () =
  let path = Filename.temp_file "ozo_journal" ".jsonl" in
  let m0 = ok_row ~proxy:"px" ~build:"b0" in
  let m0 = { m0 with E.r_cycles = 1234.5; r_regs = 17; r_occupancy = 0.875 } in
  let m1 =
    { (E.dead_measurement ~fallbacks:[ "nightly"; "O0" ] ~proxy:"px" ~build:"b1"
         (sample_fault ()))
      with
      E.r_retries = 2; r_deadline_hit = true; r_breaker = "open" }
  in
  let w = Journal.start ~path ~fingerprint:"fp-test" in
  Journal.append w ~seq:0 m0;
  Journal.append w ~seq:1 m1;
  Journal.close w;
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (fp, entries) ->
    Alcotest.(check string) "fingerprint" "fp-test" fp;
    Alcotest.(check int) "two entries" 2 (List.length entries);
    let r0 = (List.nth entries 0).Journal.e_m in
    let r1 = (List.nth entries 1).Journal.e_m in
    Alcotest.(check string) "row 0 encoding identical" (E.to_json m0) (E.to_json r0);
    Alcotest.(check string) "row 1 encoding identical" (E.to_json m1) (E.to_json r1);
    (match r1.E.r_fault with
    | Some f ->
      Alcotest.(check string) "fault line survives" (Fault.to_line (sample_fault ()))
        (Fault.to_line f)
    | None -> Alcotest.fail "fault lost"));
  Sys.remove path

let test_journal_tolerates_torn_line () =
  let path = Filename.temp_file "ozo_journal" ".jsonl" in
  let w = Journal.start ~path ~fingerprint:"fp" in
  Journal.append w ~seq:0 (ok_row ~proxy:"px" ~build:"b0");
  Journal.close w;
  (* simulate a crash mid-write: a truncated JSON line at the end *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "{\"seq\":1,\"m\":{\"proxy\":\"px\",\"bui";
  close_out oc;
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "torn line should be tolerated: %s" e
  | Ok (_, entries) -> Alcotest.(check int) "intact rows kept" 1 (List.length entries));
  Sys.remove path

(* --- journal decoder: every error names its line ------------------------- *)

(* [line] with its first [needle] replaced by [by] *)
let replace needle ~by line =
  let n = String.length needle in
  let rec find i =
    if i + n > String.length line then Alcotest.failf "no %s in %s" needle line
    else if String.sub line i n = needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line 0 i ^ by ^ String.sub line (i + n) (String.length line - i - n)

(* Write a header + three-row journal, rewrite line [lnum] (1-based) with
   [edit] and return the error [load] must report. *)
let load_error ~lnum edit =
  let path = Filename.temp_file "ozo_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Journal.start ~path ~fingerprint:"fp" in
      List.iteri
        (fun seq build -> Journal.append w ~seq (ok_row ~proxy:"px" ~build))
        [ "b0"; "b1"; "b2" ];
      Journal.close w;
      let lines =
        In_channel.with_open_bin path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Out_channel.with_open_bin path (fun oc ->
          List.iteri
            (fun i l ->
              output_string oc (if i + 1 = lnum then edit l else l);
              output_char oc '\n')
            lines);
      match Journal.load ~path with
      | Ok _ -> Alcotest.failf "line %d edit was accepted" lnum
      | Error e -> e)

let check_names_line ~lnum ~what e =
  let prefix = Printf.sprintf "line %d: " lnum in
  Alcotest.(check bool) ("error names line " ^ string_of_int lnum) true
    (String.starts_with ~prefix e);
  Alcotest.(check bool) ("error says " ^ what) true (contains e what)

let test_journal_rejects_old_version () =
  load_error ~lnum:1 (replace "\"version\":2" ~by:"\"version\":1")
  |> check_names_line ~lnum:1 ~what:"version 1"

(* a complete row without a field is a schema error, not a torn write,
   even on the final line *)
let test_journal_rejects_missing_field () =
  load_error ~lnum:4 (replace ",\"machine\":\"vgpu\"" ~by:"")
  |> check_names_line ~lnum:4 ~what:"machine"

let test_journal_rejects_malformed_middle_line () =
  load_error ~lnum:3 (fun l -> String.sub l 0 (String.length l / 2))
  |> check_names_line ~lnum:3 ~what:"bad journal line"

(* --- campaign kill / resume -------------------------------------------- *)

let campaign_opts ?inject journal resume abort_after =
  { Campaign.default with
    Campaign.co_proxies = [ "xsbench" ]; co_small = true; co_journal = journal;
    co_resume = resume; co_abort_after = abort_after; co_inject = inject }

(* what `ozo campaign` prints for [ms]: the tables, fault lines included,
   then the CSV *)
let printed ms =
  Fmt.str "%a%a%a%a%a" R.pp_fig10 ("xsbench", ms) R.pp_fig11 ("xsbench", ms)
    R.pp_resilience ("xsbench", ms) R.pp_csv_header ()
    (Fmt.list ~sep:Fmt.nop R.pp_csv) ms

(* clean, and with an injected pointer corruption whose fault is
   journaled before the kill and replayed on resume *)
let test_campaign_resume_identical () =
  List.iter
    (fun inject ->
      let path = Filename.temp_file "ozo_campaign" ".jsonl" in
      (* killed mid-run after 3 fresh rows *)
      (match Campaign.run (campaign_opts ?inject (Some path) false (Some 3)) with
      | _ -> Alcotest.fail "expected the abort hook to fire"
      | exception Campaign.Aborted _ -> ());
      (match Journal.load ~path with
      | Ok (_, entries) ->
        Alcotest.(check int) "three journaled rows" 3 (List.length entries)
      | Error e -> Alcotest.failf "journal after abort: %s" e);
      (* resumed run completes the remaining rows *)
      let resumed = Campaign.run (campaign_opts ?inject (Some path) true None) in
      (* uninterrupted reference run *)
      let full = Campaign.run (campaign_opts ?inject None false None) in
      Alcotest.(check int) "row count" (List.length full) (List.length resumed);
      Alcotest.(check string) "byte-identical output" (printed full) (printed resumed);
      Sys.remove path)
    [ None;
      Some
        { Ozo_vgpu.Faultinject.s_action = Corrupt_load; s_fn = None; s_nth = None;
          s_seed = 1 } ]

let test_campaign_resume_rejects_other_fingerprint () =
  let path = Filename.temp_file "ozo_campaign" ".jsonl" in
  let w = Journal.start ~path ~fingerprint:"someone-else" in
  Journal.close w;
  (match Campaign.run (campaign_opts (Some path) true None) with
  | _ -> Alcotest.fail "expected a fingerprint mismatch"
  | exception E.Harness_error msg ->
    Alcotest.(check bool) "names the mismatch" true (contains msg "fingerprint"));
  Sys.remove path

(* --- fuzzer ------------------------------------------------------------- *)

let test_irgen_always_verifies () =
  for seed = 1 to 50 do
    let m = Irgen.generate ~seed in
    check_verifies (Printf.sprintf "irgen seed %d" seed) m
  done

let test_irgen_deterministic () =
  let a = Irgen.generate ~seed:7 and b = Irgen.generate ~seed:7 in
  Alcotest.(check bool) "same seed, same module" true
    (Ozo_ir.Types.equal_modul a b)

let test_fuzz_clean_on_real_pipeline () =
  let r = Fuzz.run ~seeds:6 ~base_seed:100 () in
  Alcotest.(check int) "no differential failures" 0
    (List.length r.Fuzz.fz_failures)

let test_fuzz_finds_and_shrinks_planted_miscompile () =
  let r = Fuzz.run ~plant:Fuzz.flip_first_add ~seeds:2 ~base_seed:1 () in
  Alcotest.(check bool) "planted miscompile found" true (r.Fuzz.fz_failures <> []);
  List.iter
    (fun fl ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d shrunk to <= 10 insts (got %d)" fl.Fuzz.fl_seed
           fl.Fuzz.fl_insts_after)
        true
        (fl.Fuzz.fl_insts_after <= 10);
      Alcotest.(check bool) "shrinking made progress" true
        (fl.Fuzz.fl_insts_after < fl.Fuzz.fl_insts_before);
      check_verifies "shrunk module" fl.Fuzz.fl_module;
      (* the minimized module still reproduces the exact signature *)
      Alcotest.(check (option string)) "signature stable"
        (Some fl.Fuzz.fl_signature)
        (Fuzz.signature_of ~plant:Fuzz.flip_first_add fl.Fuzz.fl_module))
    r.Fuzz.fz_failures

let suite =
  [ tc "supervisor: host crash becomes an internal fault" test_crash_capture;
    tc "supervisor: transient fault retries then succeeds" test_retry_then_success;
    tc "supervisor: retries are bounded" test_retry_exhausted;
    tc "supervisor: permanent faults are not retried" test_no_retry_for_permanent_fault;
    tc "supervisor: breaker trips open and skips" test_breaker_trips_and_skips;
    tc "supervisor: breaker resets on success" test_breaker_resets_on_success;
    tc "watchdog: expired deadline faults the launch" test_watchdog_deadline;
    tc "watchdog: unexpired deadline is invisible" test_watchdog_quiet_when_unexpired;
    tc "journal: measurement roundtrip is csv-exact" test_journal_roundtrip;
    tc "journal: torn final line is tolerated" test_journal_tolerates_torn_line;
    tc "journal: version-1 header rejected at line 1" test_journal_rejects_old_version;
    tc "journal: row missing machine rejected at its line"
      test_journal_rejects_missing_field;
    tc "journal: malformed middle line rejected at its line"
      test_journal_rejects_malformed_middle_line;
    tc "campaign: kill + resume produces identical csv" test_campaign_resume_identical;
    tc "campaign: resume refuses a foreign journal" test_campaign_resume_rejects_other_fingerprint;
    tc "irgen: generated modules always verify" test_irgen_always_verifies;
    tc "irgen: generation is deterministic" test_irgen_deterministic;
    tc "fuzz: clean run on the real pipeline" test_fuzz_clean_on_real_pipeline;
    tc "fuzz: planted miscompile is found and shrunk" test_fuzz_finds_and_shrinks_planted_miscompile ]
