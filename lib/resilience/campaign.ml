(* Resilient measurement campaigns: the standard harness sweep, run under
   the [Supervisor] with an optional crash-safe [Journal].

   Row order is deterministic — for each proxy, for each repeat, for each
   standard build — so the journal's sequence numbers map 1:1 onto row
   indices. On resume, journaled rows are replayed verbatim (no
   re-measurement) and fed through the breaker so the supervisor restarts
   with exactly the state it died with; the first un-journaled row is
   where live measurement picks back up.

   [co_abort_after] is a test/CI hook: the campaign raises [Aborted]
   after appending that many fresh rows, simulating a mid-run kill
   without involving signals. *)

module E = Ozo_harness.Experiments
module C = Ozo_core.Codesign
module Request = Ozo_core.Request
module Device = Ozo_vgpu.Device
module Proxy = Ozo_proxies.Proxy
module Trace = Ozo_obs.Trace
module Faultinject = Ozo_vgpu.Faultinject

type opts = {
  co_proxies : string list;
  co_small : bool; (* use the reduced test-size workloads *)
  co_repeat : int; (* full sweeps per proxy; >1 exercises the breaker *)
  co_check_assumes : bool;
  co_sanitize : bool;
  co_inject : Faultinject.spec option;
  co_journal : string option;
  co_resume : bool;
  co_abort_after : int option; (* crash after N fresh rows (test hook) *)
  co_domains : int; (* OCaml domains per launch; results identical at any value *)
  co_exec : Ozo_vgpu.Engine.exec; (* executor; results identical on both *)
  co_machine : Ozo_backend.Machine.t; (* machine descriptor every row runs under *)
  co_sup : Supervisor.opts;
}

let default =
  { co_proxies = []; co_small = false; co_repeat = 1; co_check_assumes = false;
    co_sanitize = false; co_inject = None; co_journal = None;
    co_resume = false; co_abort_after = None; co_domains = 1;
    co_exec = Ozo_vgpu.Engine.Exec_ir; co_machine = Ozo_backend.Machine.vgpu;
    co_sup = Supervisor.default }

exception Aborted of string

(* campaign identity for the journal header: resuming under different
   options must be refused, not silently mixed *)
let fingerprint (o : opts) : string =
  Printf.sprintf
    "proxies=%s;small=%b;repeat=%d;inject=%s;sanitize=%b;assumes=%b;domains=%d;machine=%s;exec=%s"
    (String.concat "," o.co_proxies)
    o.co_small o.co_repeat
    (match o.co_inject with
    | Some s -> Faultinject.spec_to_string s ^ "#" ^ string_of_int s.Faultinject.s_seed
    | None -> "-")
    o.co_sanitize o.co_check_assumes o.co_domains
    o.co_machine.Ozo_backend.Machine.mc_name
    (Ozo_vgpu.Engine.exec_name o.co_exec)

let resolve (o : opts) name : Proxy.t =
  let pool =
    if o.co_small then Ozo_proxies.Registry.all_small ()
    else Ozo_proxies.Registry.all ()
  in
  match List.find_opt (fun p -> p.Proxy.p_name = name) pool with
  | Some p -> p
  | None -> raise (E.Harness_error ("unknown proxy " ^ name))

(* The campaign's deterministic row order, as first-class requests: every
   per-row option is folded into the [Request.t] up front; only the
   per-attempt concerns (watchdog, retry-time injection clearing) are
   patched in by the supervised task below. *)
let rows_of ?(trace = Trace.null) (o : opts) : (Proxy.t * Request.t) list =
  List.concat_map
    (fun name ->
      let p = resolve o name in
      List.concat_map
        (fun _ ->
          List.map
            (fun b ->
              ( p,
                E.request_for ~check_assumes:o.co_check_assumes
                  ~sanitize:o.co_sanitize ?inject:o.co_inject ~trace
                  ~domains:o.co_domains ~exec:o.co_exec ~machine:o.co_machine p b ))
            (E.builds_for p))
        (List.init (max 1 o.co_repeat) Fun.id))
    o.co_proxies

let run ?clock ?sleep ?(trace = Trace.null) (o : opts) : E.measurement list =
  let sup = Supervisor.create ?clock ?sleep ~trace o.co_sup in
  let rows = rows_of ~trace o in
  let fp = fingerprint o in
  let replayed =
    if not o.co_resume then []
    else
      match o.co_journal with
      | None -> raise (E.Harness_error "--resume requires a journal path")
      | Some path -> (
        match Journal.load ~path with
        | Ok (fp', entries) when fp' = fp ->
          List.map (fun e -> e.Journal.e_m) entries
        | Ok _ ->
          raise
            (E.Harness_error
               "journal fingerprint mismatch: it records a different campaign")
        | Error e -> raise (E.Harness_error ("cannot resume: " ^ e)))
  in
  let n_replayed = min (List.length replayed) (List.length rows) in
  let writer =
    Option.map
      (fun path ->
        if o.co_resume && Sys.file_exists path then Journal.reopen ~path
        else Journal.start ~path ~fingerprint:fp)
      o.co_journal
  in
  let fresh = ref 0 in
  let finish_row i m =
    (match writer with Some w -> Journal.append w ~seq:i m | None -> ());
    incr fresh;
    match o.co_abort_after with
    | Some n when !fresh >= n ->
      raise
        (Aborted
           (Printf.sprintf "campaign aborted after %d fresh rows (test hook)" n))
    | _ -> ()
  in
  let out =
    List.mapi
      (fun i (p, r) ->
        if i < n_replayed then begin
          (* replayed verbatim; still drives the breaker state machine *)
          let m = List.nth replayed i in
          Supervisor.note sup ~proxy:m.E.r_proxy ~build:m.E.r_build m;
          m
        end
        else begin
          let proxy = p.Proxy.p_name
          and build = r.Request.rq_build.C.b_label in
          let m =
            Supervisor.supervise sup ~proxy ~build
              (fun ~attempt ~watchdog ->
                (* inject only on the first attempt: a transient injected
                   fault must re-validate clean on retry *)
                let opts =
                  { r.Request.rq_opts with
                    Device.Launch_opts.watchdog;
                    inject = (if attempt = 0 then o.co_inject else None) }
                in
                E.measure_request p { r with Request.rq_opts = opts })
          in
          finish_row i m;
          m
        end)
      rows
  in
  (match writer with Some w -> Journal.close w | None -> ());
  out
