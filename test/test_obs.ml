(* The observability layer (lib/obs): span trees, timing, Chrome trace
   export, and the two invariants the tentpole promises — a disabled ctx
   costs one branch and changes nothing, and an enabled one records a
   well-formed, schema-valid trace. *)

open Ozo_ir.Types
module Trace = Ozo_obs.Trace
module Chrome = Ozo_obs.Chrome_trace
module Json = Ozo_obs.Json
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
module Counters = Ozo_vgpu.Counters
open Util

(* deterministic microsecond clock: advances 10us per read *)
let ticking () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 10.0;
    !t

(* --- span tree ---------------------------------------------------------- *)

let test_span_nesting () =
  let cx = Trace.make ~clock:(ticking ()) () in
  Trace.with_span cx "outer" (fun () ->
      Trace.with_span cx "inner" (fun () -> Trace.instant cx "tick");
      Trace.with_span cx "inner2" (fun () -> ()));
  Trace.instant cx "after";
  match Trace.roots cx with
  | [ Trace.Span outer; Trace.Instant after ] ->
    Alcotest.(check string) "outer name" "outer" outer.Trace.sp_name;
    Alcotest.(check string) "after name" "after" after.Trace.i_name;
    (match Trace.sub outer with
    | [ Trace.Span inner; Trace.Span inner2 ] ->
      Alcotest.(check string) "inner name" "inner" inner.Trace.sp_name;
      Alcotest.(check string) "inner2 name" "inner2" inner2.Trace.sp_name;
      (match Trace.sub inner with
      | [ Trace.Instant t ] -> Alcotest.(check string) "tick" "tick" t.Trace.i_name
      | _ -> Alcotest.fail "inner should hold exactly the instant")
    | _ -> Alcotest.fail "outer should hold the two inner spans")
  | _ -> Alcotest.fail "expected [outer; after] at the roots"

let test_monotonic_timing () =
  let cx = Trace.make ~clock:(ticking ()) () in
  Trace.with_span cx "a" (fun () ->
      Trace.with_span cx "b" (fun () -> ()));
  let a = List.hd (Trace.spans_named cx "a") in
  let b = List.hd (Trace.spans_named cx "b") in
  Alcotest.(check bool) "a closed" true (Trace.closed a);
  Alcotest.(check bool) "b closed" true (Trace.closed b);
  (* child's window lies within the parent's, all stamps monotonic *)
  Alcotest.(check bool) "b starts after a" true (b.Trace.sp_start >= a.Trace.sp_start);
  Alcotest.(check bool) "b stops before a" true (b.Trace.sp_stop <= a.Trace.sp_stop);
  Alcotest.(check bool) "a has positive dur" true (Trace.dur a > 0.0);
  Alcotest.(check bool) "durations nest" true (Trace.dur b <= Trace.dur a)

let test_exception_safety_and_close_all () =
  let cx = Trace.make ~clock:(ticking ()) () in
  (try
     Trace.with_span cx "boom" (fun () -> failwith "x")
   with Failure _ -> ());
  let boom = List.hd (Trace.spans_named cx "boom") in
  Alcotest.(check bool) "span closed on raise" true (Trace.closed boom);
  Trace.begin_span cx "left-open";
  Trace.close_all cx;
  let lo = List.hd (Trace.spans_named cx "left-open") in
  Alcotest.(check bool) "close_all closes strays" true (Trace.closed lo);
  (* stray end on an empty stack is ignored *)
  Trace.end_span cx ()

let test_null_ctx_records_nothing () =
  let cx = Trace.null in
  Trace.with_span cx "x" (fun () -> Trace.instant cx "i");
  Trace.begin_span cx "y";
  Trace.end_span cx ();
  Alcotest.(check int) "no spans" 0 (Trace.count_spans cx);
  Alcotest.(check bool) "no roots" true (Trace.roots cx = [])

(* --- Chrome trace export ------------------------------------------------ *)

let test_chrome_schema () =
  let cx = Trace.make ~clock:(ticking ()) () in
  Trace.with_span cx ~cat:"compile" ~args:[ ("k", Trace.Str "v\"esc\\ape") ]
    "compile"
    (fun () ->
      Trace.with_span cx ~cat:"pass" "pass:inline" (fun () -> ());
      Trace.instant cx ~cat:"remark" ~args:[ ("n", Trace.Int 3) ] "remark");
  let s = Chrome.to_string cx in
  match Chrome.validate s with
  | Error e -> Alcotest.failf "schema: %s" e
  | Ok events ->
    Alcotest.(check int) "event count" 3 (List.length events);
    let compile = List.hd (Chrome.spans_by_name events "compile") in
    let pass = List.hd (Chrome.spans_by_name events "pass:inline") in
    Alcotest.(check bool) "pass within compile" true (Chrome.contains compile pass);
    (* escaped strings survive the JSON round trip *)
    let args = Option.get (Json.member "args" compile) in
    Alcotest.(check (option string)) "escaped arg"
      (Some "v\"esc\\ape")
      (Option.bind (Json.member "k" args) Json.to_string)

let test_json_parser_rejects_garbage () =
  (match Json.parse "{\"a\": [1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated JSON accepted");
  match Json.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* the `ozo trace --check` contract over a real traced proxy row, and its
   rejection of a trace that never launched *)
let test_check_run () =
  let module E = Ozo_harness.Experiments in
  let p = Ozo_proxies.Registry.find_exn "xsbench" in
  let trace = Trace.make () in
  let m =
    E.measure_request p (E.request_for ~trace ~profile:true p (E.new_rt_for p))
  in
  Alcotest.(check bool) "row validates" true (Result.is_ok m.E.r_check);
  (match Chrome.check_run (Chrome.to_string trace) with
  | Ok (_, passes, hots, hits) ->
    Alcotest.(check bool) "passes, hot spots and cache hits counted" true
      (passes > 0 && hots > 0 && hits > 0)
  | Error e -> Alcotest.failf "traced run rejected: %s" e);
  let compile_only = Trace.make ~clock:(ticking ()) () in
  Trace.with_span compile_only "compile" (fun () -> ());
  match Chrome.check_run (Chrome.to_string compile_only) with
  | Ok _ -> Alcotest.fail "trace without a launch accepted"
  | Error e -> Alcotest.(check bool) "names the launch span" true (contains e "launch")

(* --- tracing must not change simulated results -------------------------- *)

(* a small kernel with a loop and a barrier, enough to touch several blocks *)
let looping_module () =
  kernel_module ~params:[ I64 ] (fun b ps ->
      match ps with
      | [ out ] ->
        let tid = B.thread_id b in
        let acc = B.alloca b 8 in
        B.store b I64 (B.i64 0) acc;
        ignore
          (B.for_loop b ~lo:(B.i64 0) ~hi:(B.i64 8) ~step:(B.i64 1)
             ~body:(fun _ ->
               let v = B.load b I64 acc in
               B.store b I64 (B.add b v (B.i64 1)) acc));
        B.barrier b ~aligned:true;
        let v = B.load b I64 acc in
        B.store b I64 v (B.ptradd b out (B.mul b tid (B.i64 8)));
        B.ret b None
      | _ -> assert false)

let test_tracing_preserves_golden_counters () =
  let m = looping_module () in
  let run opts =
    let dev = Device.create m in
    let buf = Device.alloc dev (32 * 8) in
    match Device.launch ~opts dev ~teams:2 ~threads:32 [ Engine.Ai (Device.ptr buf) ] with
    | Ok r -> (r, i64_array dev buf 32)
    | Error e -> Alcotest.failf "launch: %a" Device.pp_error e
  in
  let plain, out_plain = run Device.Launch_opts.default in
  let trace = Trace.make () in
  let traced, out_traced =
    run { Device.Launch_opts.default with Device.Launch_opts.trace; profile = true }
  in
  (* bit-identical counters and results, tracing on or off *)
  Alcotest.(check bool) "counters identical" true
    (Counters.equal plain.Engine.r_total traced.Engine.r_total);
  Alcotest.(check bool) "outputs identical" true (out_plain = out_traced);
  (* and the traced run actually produced phases + hot-spot data *)
  Alcotest.(check bool) "launch span" true (Trace.spans_named trace "launch" <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span") true (Trace.spans_named trace n <> []))
    [ "decode"; "execute"; "readback" ];
  Alcotest.(check bool) "hotspots" true (traced.Engine.r_hotspots <> []);
  Alcotest.(check bool) "untraced run has no hotspots" true
    (plain.Engine.r_hotspots = [])

let test_hotspot_totals_match_counters () =
  let m = looping_module () in
  let dev = Device.create m in
  let buf = Device.alloc dev (32 * 8) in
  let trace = Trace.make () in
  match
    Device.launch
      ~opts:{ Device.Launch_opts.default with Device.Launch_opts.trace; profile = true }
      dev ~teams:1 ~threads:32
      [ Engine.Ai (Device.ptr buf) ]
  with
  | Error e -> Alcotest.failf "launch: %a" Device.pp_error e
  | Ok r ->
    (* every issued warp instruction is attributed to exactly one block *)
    let wi_sum =
      List.fold_left (fun acc h -> acc + h.Engine.h_winsts) 0 r.Engine.r_hotspots
    in
    Alcotest.(check int) "winsts attributed"
      r.Engine.r_total.Counters.warp_instructions wi_sum;
    (* hottest-first ordering *)
    let rec sorted = function
      | a :: (b :: _ as rest) -> a.Engine.h_cycles >= b.Engine.h_cycles && sorted rest
      | _ -> true
    in
    Alcotest.(check bool) "sorted by cycles" true (sorted r.Engine.r_hotspots)

(* --- remarks sink ------------------------------------------------------- *)

let test_remarks_flow_into_trace () =
  let module Remarks = Ozo_opt.Remarks in
  let trace = Trace.make ~clock:(ticking ()) () in
  let sink = Remarks.make ~trace () in
  Trace.with_span trace "pass:test" (fun () ->
      Remarks.applied sink ~pass:"test" ~func:"f" "did %d things" 2);
  (* retained in the sink *)
  (match Remarks.items sink with
  | [ r ] ->
    Alcotest.(check string) "msg" "did 2 things" r.Remarks.r_msg;
    Alcotest.(check string) "func" "f" r.Remarks.r_func
  | rs -> Alcotest.failf "expected 1 remark, got %d" (List.length rs));
  (* and attached to the open span as an instant *)
  let span = List.hd (Trace.spans_named trace "pass:test") in
  match Trace.sub span with
  | [ Trace.Instant i ] -> Alcotest.(check string) "cat" "remark" i.Trace.i_cat
  | _ -> Alcotest.fail "remark instant should nest under the pass span"

let suite =
  [ tc "trace: span nesting" test_span_nesting;
    tc "trace: monotonic timing" test_monotonic_timing;
    tc "trace: exception safety + close_all" test_exception_safety_and_close_all;
    tc "trace: null ctx records nothing" test_null_ctx_records_nothing;
    tc "chrome export: schema valid + nesting + escapes" test_chrome_schema;
    tc "json parser rejects garbage" test_json_parser_rejects_garbage;
    tc "trace check: traced proxy run passes, launchless trace fails"
      test_check_run;
    tc "tracing preserves golden counters and results"
      test_tracing_preserves_golden_counters;
    tc "hot-spot totals match counters" test_hotspot_totals_match_counters;
    tc "remarks flow into sink and trace" test_remarks_flow_into_trace ]
