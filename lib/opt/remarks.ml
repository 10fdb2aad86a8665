(* Optimization remarks, the analog of -Rpass=openmp-opt /
   -Rpass-missed=openmp-opt (paper Section VII): passes report what they
   did and, more importantly, what they could not do and why.

   Remarks flow into a [sink] owned by the compilation rather than a
   global store, so concurrent or repeated compiles can't bleed into each
   other and there is no reset-between-runs footgun. A sink can keep the
   remarks (for `ozo remarks` / tests), forward them as instant events to
   a Trace.ctx (so they land on the pass span timeline), or both; [drop]
   does neither, and on that path the message is never even formatted. *)

type kind = Applied | Missed | Analysis

type t = { r_pass : string; r_kind : kind; r_func : string; r_msg : string }

type sink = {
  sk_keep : bool; (* retain remarks for later retrieval *)
  mutable sk_rev : t list; (* newest first *)
  sk_trace : Ozo_obs.Trace.ctx; (* where remark instants go, if enabled *)
}

let make ?(trace = Ozo_obs.Trace.null) () =
  { sk_keep = true; sk_rev = []; sk_trace = trace }

(* the shared no-op sink: no retention, no trace, no formatting cost *)
let drop = { sk_keep = false; sk_rev = []; sk_trace = Ozo_obs.Trace.null }

let kind_name = function
  | Applied -> "applied"
  | Missed -> "missed"
  | Analysis -> "analysis"

let emit sink ~pass ~kind ~func fmt =
  if sink.sk_keep || Ozo_obs.Trace.enabled sink.sk_trace then
    Format.kasprintf
      (fun msg ->
        let r = { r_pass = pass; r_kind = kind; r_func = func; r_msg = msg } in
        if sink.sk_keep then sink.sk_rev <- r :: sink.sk_rev;
        Ozo_obs.Trace.instant sink.sk_trace ~cat:"remark"
          ~args:
            [ ("pass", Ozo_obs.Trace.Str pass);
              ("kind", Ozo_obs.Trace.Str (kind_name kind));
              ("func", Ozo_obs.Trace.Str func);
              ("msg", Ozo_obs.Trace.Str msg) ]
          (pass ^ ":" ^ kind_name kind))
      fmt
  else
    (* dead sink: swallow the format arguments without rendering them *)
    Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

let applied sink ~pass ~func fmt = emit sink ~pass ~kind:Applied ~func fmt
let missed sink ~pass ~func fmt = emit sink ~pass ~kind:Missed ~func fmt

(* remarks recorded so far, oldest first *)
let items sink = List.rev sink.sk_rev

let pp ppf r =
  Fmt.pf ppf "[%s:%s] %s: %s" r.r_pass (kind_name r.r_kind) r.r_func r.r_msg

let dump ppf sink = List.iter (fun r -> Fmt.pf ppf "%a@." pp r) (items sink)
