(* Serving tier: the content-addressed compile cache and the batched
   campaign service (DESIGN.md §14).

   The contracts under test:
   - key soundness: the compile key is stable for identical inputs and
     changes when any ingredient changes — the IR (a different kernel),
     the pipeline configuration (a single flag), the build-ladder rung
     (even label-only) or the machine descriptor;
   - hit identity: a cache hit returns the very artifact the cold
     compile produced (physical equality), so served measurements are
     bit-identical to uncached ones;
   - eviction neutrality: a capped cache changes recompile counts,
     never results;
   - the service: queue order in = row order out, duplicated requests
     hit, a second pass over a warm cache recompiles nothing, and the
     served rows equal the sequential harness rows in every result field
     ([Experiments.result_json]);
   - the CSV schema: header and rows agree on the column count, derived
     from the one [Experiments.csv_columns] source. *)

module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module C = Ozo_core.Codesign
module Request = Ozo_core.Request
module Proxy = Ozo_proxies.Proxy
module Registry = Ozo_proxies.Registry
module Pipeline = Ozo_opt.Pipeline
module Machine = Ozo_backend.Machine
module Cache = Ozo_serve.Cache
module Service = Ozo_serve.Service
module Journal = Ozo_resilience.Journal

let tc = Alcotest.test_case

let request ?(build = C.new_rt) p =
  E.request_for p { build with C.b_label = build.C.b_label }

let key_of (r : Request.t) p =
  let k = Proxy.kernel_for p r.Request.rq_build.C.b_abi in
  fst (C.keyed_compile_request r k)

(* --- the compile key ----------------------------------------------------- *)

let test_key_stable () =
  let p = Util.small_proxy "xsbench" in
  let r = request p in
  let k1 = key_of r p and k2 = key_of r p in
  Alcotest.(check bool) "same input, same key" true (C.Compile_key.equal k1 k2);
  Alcotest.(check int) "md5 hex" 32 (String.length (C.Compile_key.hex k1))

let test_key_sensitivity () =
  let p = Util.small_proxy "xsbench" in
  let base = request p in
  let base_key = key_of base p in
  let differs what r =
    Alcotest.(check bool) (what ^ " changes the key") false
      (C.Compile_key.equal base_key (key_of r p))
  in
  let b = base.Request.rq_build in
  (* a single pipeline flag *)
  differs "pipeline flag"
    { base with
      Request.rq_build =
        { b with C.b_pipe = { b.C.b_pipe with Pipeline.barrier_elim = false } } };
  (* a whole rung of the build ladder *)
  differs "build rung" { base with Request.rq_build = C.new_rt_nightly };
  (* the rung label alone (same pipeline, same ABI) *)
  differs "label only"
    { base with Request.rq_build = { b with C.b_label = b.C.b_label ^ "'" } };
  (* the machine descriptor *)
  differs "machine"
    { base with Request.rq_machine = Machine.with_reg_budget 8 Machine.vgpu };
  (* the linked IR: a different kernel under the identical build *)
  let q = Util.small_proxy "rsbench" in
  let rq = request q in
  Alcotest.(check bool) "different IR changes the key" false
    (C.Compile_key.equal base_key (key_of { rq with Request.rq_build = b } q))

(* launch options must NOT participate: they don't feed the compile *)
let test_key_ignores_launch_opts () =
  let p = Util.small_proxy "xsbench" in
  let r = request p in
  let r' =
    { r with
      Request.rq_teams = r.Request.rq_teams * 2;
      rq_opts =
        { r.Request.rq_opts with Ozo_vgpu.Device.Launch_opts.domains = 4 } }
  in
  Alcotest.(check bool) "launch shape is not a key ingredient" true
    (C.Compile_key.equal (key_of r p) (key_of r' p))

(* --- the cache ----------------------------------------------------------- *)

(* what a launch of [c] shows: two compiles of one kernel alpha-vary
   register names, so artifacts are compared by what they do *)
let observed p r c = Oracle.launch p r c (C.device_request r c)

let test_hit_identity () =
  let p = Util.small_proxy "xsbench" in
  let r = request p in
  let k = Proxy.kernel_for p r.Request.rq_build.C.b_abi in
  let cache = Cache.create () in
  let c1, d1 = Cache.compile_request cache r k in
  let c2, d2 = Cache.compile_request cache r k in
  Alcotest.(check bool) "first is a miss" true (d1 = `Miss);
  Alcotest.(check bool) "second is a hit" true (d2 = `Hit);
  Alcotest.(check bool) "hit returns the cached artifact itself" true (c1 == c2);
  (* and the cached artifact behaves exactly like a cold compile *)
  let cold = C.compile_request r k in
  Alcotest.(check (list string)) "artifact identical to cold compile"
    (observed p r cold) (observed p r c1);
  let s = Cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Cache.cs_hits;
  Alcotest.(check int) "misses" 1 s.Cache.cs_misses;
  Alcotest.(check int) "entries" 1 s.Cache.cs_entries

let test_eviction_identity () =
  let p = Util.small_proxy "xsbench" in
  let a = request p in
  let b = { a with Request.rq_build = C.cuda } in
  let kernel_for r = Proxy.kernel_for p r.Request.rq_build.C.b_abi in
  (* alternate two keys through a one-entry cache: every lookup evicts
     the other entry, so all four are misses... *)
  let capped = Cache.create ~cap:1 () in
  let capped_runs =
    List.map
      (fun r -> (r, fst (Cache.compile_request capped r (kernel_for r))))
      [ a; b; a; b ]
  in
  let s = Cache.stats capped in
  Alcotest.(check int) "thrash: all misses" 4 s.Cache.cs_misses;
  Alcotest.(check bool) "thrash: evictions happened" true (s.Cache.cs_evictions > 0);
  Alcotest.(check int) "cap respected" 1 s.Cache.cs_entries;
  (* ...but the artifacts behave identically to the unbounded cache's *)
  let unbounded = Cache.create () in
  let free_runs =
    List.map
      (fun r -> (r, fst (Cache.compile_request unbounded r (kernel_for r))))
      [ a; b; a; b ]
  in
  List.iteri
    (fun i ((r, c), (r', c')) ->
      Alcotest.(check (list string))
        (Fmt.str "artifact %d identical under eviction" i)
        (observed p r' c') (observed p r c))
    (List.combine capped_runs free_runs)

let test_cap_validation () =
  Alcotest.check_raises "cap 0 rejected"
    (Invalid_argument "Cache.create: cap must be >= 1") (fun () ->
      ignore (Cache.create ~cap:0 ()))

(* --- the request file ---------------------------------------------------- *)

let test_parse_requests () =
  let q =
    Service.parse_requests
      "# queue\nxsbench new-rt\n\n  rsbench   cuda  # trailing\n\tgridmini\told-rt\n"
  in
  Alcotest.(check (list (pair string string)))
    "parsed"
    [ ("xsbench", "new-rt"); ("rsbench", "cuda"); ("gridmini", "old-rt") ]
    q;
  Alcotest.check_raises "malformed line"
    (Service.Service_error "requests line 1: expected \"<proxy> <build>\"")
    (fun () -> ignore (Service.parse_requests "xsbench"))

let test_percentiles () =
  let xs = Array.of_list (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.0)) "p50" 50.0 (Service.percentile xs 50.0);
  Alcotest.(check (float 0.0)) "p95" 95.0 (Service.percentile xs 95.0);
  Alcotest.(check (float 0.0)) "p99" 99.0 (Service.percentile xs 99.0);
  Alcotest.(check (float 0.0)) "singleton" 7.0 (Service.percentile [| 7.0 |] 99.0);
  Alcotest.(check (float 0.0)) "empty" 0.0 (Service.percentile [||] 50.0)

(* --- the service --------------------------------------------------------- *)

let dup_queue = [ ("xsbench", "new-rt"); ("xsbench", "cuda") ]

let opts = { Service.default with Service.sv_small = true }

let test_service_hit_rate () =
  (* two passes over the same list in one run: pass 1 compiles, pass 2
     is served entirely from cache *)
  let ms, stats =
    Service.run { opts with Service.sv_repeat = 2 } dup_queue
  in
  Alcotest.(check int) "rows" 4 stats.Service.st_requests;
  Alcotest.(check (float 0.001)) "hit rate" 0.5 stats.Service.st_hit_rate;
  Alcotest.(check (list string)) "dispositions in queue order"
    [ "miss"; "miss"; "hit"; "hit" ]
    (List.map (fun m -> m.E.r_cache_disp) ms);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.E.r_build ^ " latency recorded") true (m.E.r_latency_us > 0.0))
    ms

let test_warm_pass_recompiles_nothing () =
  let cache = Cache.create () in
  let queue =
    List.concat_map
      (fun p -> List.map (fun b -> (p.Proxy.p_name, b)) E.build_names)
      (Registry.all_small ())
  in
  let cold_ms, cold = Service.run ~cache opts queue in
  let warm_ms, warm = Service.run ~cache opts queue in
  Alcotest.(check int) "cold pass: all misses"
    (List.length queue) cold.Service.st_cache.Cache.cs_misses;
  Alcotest.(check int) "warm pass: zero recompiles" 0
    warm.Service.st_cache.Cache.cs_misses;
  Alcotest.(check (float 0.001)) "warm pass: 100% hit rate" 1.0
    warm.Service.st_hit_rate;
  (* warm rows bit-identical to cold rows in every result field *)
  List.iteri
    (fun i (c, w) ->
      Alcotest.(check string)
        (Fmt.str "row %d identical warm vs cold" i)
        (E.result_json c) (E.result_json w))
    (List.combine cold_ms warm_ms)

let test_served_vs_sequential () =
  let p = Util.small_proxy "xsbench" in
  let queue = List.map (fun b -> ("xsbench", b)) E.build_names in
  (* a 2-domain service against the plain sequential harness *)
  let served, _ = Service.run { opts with Service.sv_domains = 2 } queue in
  let sequential = E.fig10 p in
  List.iteri
    (fun i (s, q) ->
      Alcotest.(check string)
        (Fmt.str "row %d identical to sequential harness" i)
        (E.result_json q) (E.result_json s))
    (List.combine served sequential)

let test_service_journal () =
  let path = Filename.temp_file "ozo_serve" ".jsonl" in
  let ms, _ =
    Service.run
      { opts with Service.sv_journal = Some path; sv_repeat = 2 }
      dup_queue
  in
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "journal load failed: %s" e
  | Ok (_, entries) ->
    Alcotest.(check int) "journal rows" (List.length ms) (List.length entries);
    List.iteri
      (fun i (m, e) ->
        Alcotest.(check string)
          (Fmt.str "journal row %d records the cache disposition" i)
          m.E.r_cache_disp e.Journal.e_m.E.r_cache_disp;
        Alcotest.(check string)
          (Fmt.str "journal row %d csv roundtrip" i)
          (Fmt.str "%a" R.pp_csv m)
          (Fmt.str "%a" R.pp_csv e.Journal.e_m))
      (List.combine ms entries));
  Sys.remove path

let test_unknown_names () =
  Alcotest.check_raises "unknown proxy"
    (Service.Service_error "unknown proxy nope") (fun () ->
      ignore (Service.run opts [ ("nope", "new-rt") ]));
  match Service.run opts [ ("xsbench", "fastest") ] with
  | exception Service.Service_error e ->
    Alcotest.(check bool) "unknown build names the candidates" true
      (String.length e > 0
      && String.sub e 0 13 = "unknown build")
  | _ -> Alcotest.fail "unknown build accepted"

(* --- the request API wrappers -------------------------------------------- *)

let test_wrapper_parity () =
  let p = Util.small_proxy "xsbench" in
  let r = request p in
  let k = Proxy.kernel_for p r.Request.rq_build.C.b_abi in
  let via_request = C.compile_request r k in
  let _, finish = C.keyed_compile_request r k in
  Alcotest.(check (list string)) "keyed thunk = compile_request"
    (observed p r via_request) (observed p r (finish ()))

(* --- the CSV schema ------------------------------------------------------ *)

let count_fields line =
  List.length (String.split_on_char ',' line)

let test_csv_columns () =
  let header = Fmt.str "%a" R.pp_csv_header () |> String.trim in
  Alcotest.(check int) "header matches csv_columns"
    (List.length E.csv_columns) (count_fields header);
  let p = Util.small_proxy "xsbench" in
  let row =
    Fmt.str "%a" R.pp_csv (E.measure_request p (E.request_for p C.new_rt))
    |> String.trim
  in
  Alcotest.(check int) "row matches csv_columns"
    (List.length E.csv_columns) (count_fields row);
  (* the trailing columns regression diffs strip, in order *)
  let n = List.length E.csv_columns in
  Alcotest.(check (list string)) "trailing volatile columns"
    [ "domains"; "cache"; "latency_us" ]
    (List.filteri (fun i _ -> i >= n - 3) E.csv_columns)

let suite =
  [ tc "compile key: stable" `Quick test_key_stable;
    tc "compile key: every ingredient matters" `Quick test_key_sensitivity;
    tc "compile key: launch opts excluded" `Quick test_key_ignores_launch_opts;
    tc "cache: hit returns the cold artifact" `Quick test_hit_identity;
    tc "cache: eviction never changes results" `Quick test_eviction_identity;
    tc "cache: cap validation" `Quick test_cap_validation;
    tc "service: request file parsing" `Quick test_parse_requests;
    tc "service: nearest-rank percentiles" `Quick test_percentiles;
    tc "service: duplicates hit the cache" `Quick test_service_hit_rate;
    tc "service: warm pass recompiles nothing" `Slow
      test_warm_pass_recompiles_nothing;
    tc "service: served rows = sequential harness" `Quick
      test_served_vs_sequential;
    tc "service: journal records dispositions" `Quick test_service_journal;
    tc "service: unknown names rejected" `Quick test_unknown_names;
    tc "request API: wrappers agree" `Quick test_wrapper_parity;
    tc "csv: header/rows/columns agree" `Quick test_csv_columns ]
