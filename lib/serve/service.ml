(* The batched campaign service: a work queue of launch requests drained
   in order through the content-addressed compile [Cache], each request
   supervised and optionally journaled.

   Queue semantics are deliberately simple and deterministic: requests
   run in file order, and "batching" is the cache doing its job — the
   first occurrence of a (linked IR, pipeline, rung, machine, cost) key
   compiles cold, every duplicate after it skips straight to the cached
   backend artifact. Because a hit returns the very artifact a cold
   compile would have produced, served measurement rows are bit-identical
   to the sequential harness modulo the trailing cache/latency columns.

   Concurrency lives *inside* each launch: [sv_domains] shards every
   request's team loop across the OCaml domain pool (PR 7), which keeps
   results independent of the domain count while the queue order stays
   the journal's row order.

   Stats report the cache hit rate, end-to-end launches/sec, and
   nearest-rank p50/p95/p99 over per-request wall-clock latency. *)

module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Request = Ozo_core.Request
module Proxy = Ozo_proxies.Proxy
module Device = Ozo_vgpu.Device
module Trace = Ozo_obs.Trace
module Supervisor = Ozo_resilience.Supervisor
module Journal = Ozo_resilience.Journal

type opts = {
  sv_small : bool; (* use the reduced test-size workloads *)
  sv_repeat : int; (* extra passes over the request list; >1 warms the cache *)
  sv_domains : int; (* OCaml domains per launch; results identical at any value *)
  sv_cache_cap : int option; (* max cached compiles; None = unbounded *)
  sv_check_assumes : bool;
  sv_sanitize : bool;
  sv_journal : string option;
  sv_machine : Ozo_backend.Machine.t; (* machine every queued request runs under *)
  sv_sup : Supervisor.opts;
}

let default =
  { sv_small = false; sv_repeat = 1; sv_domains = 1; sv_cache_cap = None;
    sv_check_assumes = false; sv_sanitize = false; sv_journal = None;
    sv_machine = Ozo_backend.Machine.vgpu; sv_sup = Supervisor.default }

type stats = {
  st_requests : int;
  st_cache : Cache.stats;
  st_hit_rate : float; (* hits / (hits + misses), over compile lookups *)
  st_wall_us : float; (* queue drain, end to end *)
  st_launches_per_sec : float;
  st_p50_us : float; (* nearest-rank percentiles of per-request latency *)
  st_p95_us : float;
  st_p99_us : float;
}

exception Service_error of string

(* ---- the request file -------------------------------------------------- *)

(* One request per line: "<proxy> <build>", '#' starts a comment, blank
   lines are skipped. Build names are the standard rows of
   [Experiments.build_names]. *)
let parse_requests (text : string) : (string * string) list =
  let lines = String.split_on_char '\n' text in
  List.concat
    (List.mapi
       (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         with
         | [] -> []
         | [ proxy; build ] -> [ (proxy, build) ]
         | _ ->
           raise
             (Service_error
                (Printf.sprintf
                   "requests line %d: expected \"<proxy> <build>\"" (i + 1))))
       lines)

let load_requests (path : string) : (string * string) list =
  let ic =
    try open_in path
    with Sys_error e -> raise (Service_error ("cannot read requests: " ^ e))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> parse_requests (In_channel.input_all ic))

let resolve_proxy (o : opts) name : Proxy.t =
  let pool =
    if o.sv_small then Ozo_proxies.Registry.all_small ()
    else Ozo_proxies.Registry.all ()
  in
  match List.find_opt (fun p -> p.Proxy.p_name = name) pool with
  | Some p -> p
  | None -> raise (Service_error ("unknown proxy " ^ name))

(* service identity for the journal header, queue content included: a
   journal written against one request list must not silently continue
   another *)
let fingerprint (o : opts) (queue : (string * string) list) : string =
  Printf.sprintf
    "serve;queue=%s;small=%b;repeat=%d;sanitize=%b;assumes=%b;domains=%d;cap=%s;machine=%s"
    (Digest.to_hex
       (Digest.string
          (String.concat ";" (List.map (fun (p, b) -> p ^ " " ^ b) queue))))
    o.sv_small o.sv_repeat o.sv_sanitize o.sv_check_assumes o.sv_domains
    (match o.sv_cache_cap with Some c -> string_of_int c | None -> "-")
    o.sv_machine.Ozo_backend.Machine.mc_name

(* ---- percentiles ------------------------------------------------------- *)

(* nearest-rank percentile over a sorted sample: the smallest value with
   at least p% of the sample at or below it *)
let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* ---- the queue drain --------------------------------------------------- *)

(* Drain the queue once. [cache] lets a caller keep the compile cache
   alive across calls (cold pass / warm pass benchmarking); stats always
   cover only this run's lookups, so a warm pass over a pre-filled cache
   reports its own 100% hit rate rather than the cumulative one. *)
let run ?cache ?clock ?sleep ?(trace = Trace.null) (o : opts)
    (queue : (string * string) list) : E.measurement list * stats =
  let wall = match clock with Some c -> c | None -> fun () -> Unix.gettimeofday () *. 1e6 in
  let cache =
    match cache with
    | Some c -> c
    | None -> Cache.create ~trace ?cap:o.sv_cache_cap ()
  in
  let cs0 = Cache.stats cache in
  let sup = Supervisor.create ?clock ?sleep ~trace o.sv_sup in
  let writer =
    Option.map
      (fun path ->
        Journal.start ~path ~fingerprint:(fingerprint o queue))
      o.sv_journal
  in
  let rows =
    List.concat_map
      (fun _ -> queue)
      (List.init (max 1 o.sv_repeat) Fun.id)
  in
  let latencies = ref [] in
  let t_start = wall () in
  let out =
    List.mapi
      (fun i (proxy_name, build_name) ->
        let p = resolve_proxy o proxy_name in
        let b =
          match E.build_of_name p build_name with
          | Ok b -> b
          | Error e -> raise (Service_error e)
        in
        (* the primary compile's disposition labels the row; ladder
           recompiles after a fault hit the cache under their own keys *)
        let disp = ref "-" in
        let compiler r k =
          let c, d = Cache.compile_request cache r k in
          (if !disp = "-" then
             disp := match d with `Hit -> "hit" | `Miss -> "miss");
          c
        in
        Trace.begin_span trace ~cat:"serve" "serve-request"
          ~args:
            [ ("proxy", Trace.Str proxy_name); ("build", Trace.Str build_name);
              ("seq", Trace.Int i) ];
        let t0 = wall () in
        let m =
          Supervisor.supervise sup ~proxy:proxy_name ~build:build_name
            (fun ~attempt:_ ~watchdog ->
              let req =
                E.request_for ~check_assumes:o.sv_check_assumes
                  ~sanitize:o.sv_sanitize ?watchdog ~trace
                  ~domains:o.sv_domains ~machine:o.sv_machine p b
              in
              E.measure_request ~compiler p req)
        in
        let latency = wall () -. t0 in
        Trace.end_span trace ~args:[ ("cache", Trace.Str !disp) ] ();
        latencies := latency :: !latencies;
        let m = { m with E.r_cache_disp = !disp; r_latency_us = latency } in
        (match writer with Some w -> Journal.append w ~seq:i m | None -> ());
        m)
      rows
  in
  let wall_us = wall () -. t_start in
  (match writer with Some w -> Journal.close w | None -> ());
  let cs_end = Cache.stats cache in
  (* this run's lookups only: the cache may predate us *)
  let cs =
    { Cache.cs_entries = cs_end.Cache.cs_entries;
      cs_hits = cs_end.Cache.cs_hits - cs0.Cache.cs_hits;
      cs_misses = cs_end.Cache.cs_misses - cs0.Cache.cs_misses;
      cs_evictions = cs_end.Cache.cs_evictions - cs0.Cache.cs_evictions }
  in
  let sorted = Array.of_list !latencies in
  Array.sort compare sorted;
  let n = List.length rows in
  (if Trace.enabled trace then
     Trace.instant trace ~cat:"serve" "serve-stats"
       ~args:
         [ ("requests", Trace.Int n); ("hits", Trace.Int cs.Cache.cs_hits);
           ("misses", Trace.Int cs.Cache.cs_misses);
           ("evictions", Trace.Int cs.Cache.cs_evictions) ]);
  let stats =
    { st_requests = n; st_cache = cs; st_hit_rate = Cache.hit_rate cs;
      st_wall_us = wall_us;
      st_launches_per_sec =
        (if wall_us > 0.0 then float_of_int n /. (wall_us /. 1e6) else 0.0);
      st_p50_us = percentile sorted 50.0; st_p95_us = percentile sorted 95.0;
      st_p99_us = percentile sorted 99.0 }
  in
  (out, stats)

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "serve: %d requests, cache %d hit / %d miss / %d evicted (%.0f%% hit \
     rate), %d live entries@.serve: %.1f launches/sec, latency p50 %.1fus \
     p95 %.1fus p99 %.1fus@."
    s.st_requests s.st_cache.Cache.cs_hits s.st_cache.Cache.cs_misses
    s.st_cache.Cache.cs_evictions
    (100.0 *. s.st_hit_rate)
    s.st_cache.Cache.cs_entries s.st_launches_per_sec s.st_p50_us s.st_p95_us
    s.st_p99_us
