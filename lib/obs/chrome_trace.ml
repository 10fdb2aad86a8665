(* Chrome trace-event exporter: serialises a Trace.ctx as the JSON array
   format chrome://tracing and Perfetto load directly. Spans become "X"
   (complete) events with ts/dur, instants become "i" events; nesting is
   conveyed by time containment on a single pid/tid, which both viewers
   reconstruct. All timestamps are microseconds, matching the format. *)

let buf_add_float b f =
  (* %.3f keeps sub-microsecond precision from the float clock while
     staying valid JSON (no "inf"/"nan" can reach here: durations are
     clamped and timestamps are finite differences). *)
  Buffer.add_string b (Printf.sprintf "%.3f" f)

let buf_add_value b = function
  | Trace.Int i -> Buffer.add_string b (string_of_int i)
  | Trace.Float f -> buf_add_float b f
  | Trace.Str s -> Json.buf_add_string b s

let buf_add_args b args =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.buf_add_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    args;
  Buffer.add_char b '}'

let buf_add_common b ~name ~cat ~ts =
  Buffer.add_string b "\"name\":\"";
  Json.buf_add_escaped b name;
  Buffer.add_string b "\",\"cat\":\"";
  Json.buf_add_escaped b (if cat = "" then "ozo" else cat);
  Buffer.add_string b "\",\"pid\":1,\"tid\":1,\"ts\":";
  buf_add_float b ts

let to_string cx =
  Trace.close_all cx;
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit_sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_char b '{'
  in
  Trace.iter cx (function
    | Trace.Span s ->
      emit_sep ();
      Buffer.add_string b "\"ph\":\"X\",";
      buf_add_common b ~name:s.Trace.sp_name ~cat:s.Trace.sp_cat
        ~ts:s.Trace.sp_start;
      Buffer.add_string b ",\"dur\":";
      buf_add_float b (Trace.dur s);
      if s.Trace.sp_args <> [] then begin
        Buffer.add_char b ',';
        buf_add_args b s.Trace.sp_args
      end;
      Buffer.add_char b '}'
    | Trace.Instant i ->
      emit_sep ();
      Buffer.add_string b "\"ph\":\"i\",\"s\":\"t\",";
      buf_add_common b ~name:i.Trace.i_name ~cat:i.Trace.i_cat
        ~ts:i.Trace.i_ts;
      if i.Trace.i_args <> [] then begin
        Buffer.add_char b ',';
        buf_add_args b i.Trace.i_args
      end;
      Buffer.add_char b '}');
  Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let write cx path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string cx))

(* --- validation --------------------------------------------------------- *)

(* Structural check used by the schema test and `ozo trace --check`:
   the string parses as JSON, has a traceEvents array, and every event
   carries the required fields with sane types. Returns the event list
   so callers can layer domain checks (span names, containment). *)
let validate (s : string) : (Json.t list, string) result =
  match Json.parse s with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok root -> (
    match Json.member "traceEvents" root with
    | None -> Error "missing traceEvents"
    | Some evs -> (
      match Json.to_list evs with
      | None -> Error "traceEvents is not an array"
      | Some events ->
        let check i ev =
          let str_field k =
            match Option.bind (Json.member k ev) Json.to_string with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "event %d: missing string %S" i k)
          in
          let num_field k =
            match Option.bind (Json.member k ev) Json.to_number with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "event %d: missing number %S" i k)
          in
          let ( let* ) = Result.bind in
          let* ph = str_field "ph" in
          let* _ = str_field "name" in
          let* _ = str_field "cat" in
          let* _ = num_field "ts" in
          let* _ = num_field "pid" in
          let* _ = num_field "tid" in
          match ph with
          | "X" ->
            let* d = num_field "dur" in
            if d < 0.0 then Error (Printf.sprintf "event %d: negative dur" i)
            else Ok ()
          | "i" -> Ok ()
          | _ -> Error (Printf.sprintf "event %d: unexpected ph %S" i ph)
        in
        let rec go i = function
          | [] -> Ok events
          | ev :: rest -> (
            match check i ev with Ok () -> go (i + 1) rest | Error e -> Error e)
        in
        go 0 events))

(* Helpers over validated event lists, shared by the CLI check and tests. *)

let ev_name ev = Option.bind (Json.member "name" ev) Json.to_string
let ev_ph ev = Option.bind (Json.member "ph" ev) Json.to_string
let ev_ts ev = Option.bind (Json.member "ts" ev) Json.to_number
let ev_dur ev = Option.bind (Json.member "dur" ev) Json.to_number

let spans_by_name events name =
  List.filter
    (fun ev -> ev_ph ev = Some "X" && ev_name ev = Some name)
    events

(* [contains outer inner]: inner's time range lies within outer's. *)
let contains outer inner =
  match (ev_ts outer, ev_dur outer, ev_ts inner) with
  | Some ots, Some odur, Some its ->
    let iend =
      match (ev_dur inner, ev_ph inner) with
      | Some d, _ -> its +. d
      | None, _ -> its
    in
    its >= ots -. 1e-6 && iend <= ots +. odur +. 1e-6
  | _ -> false

(* Structural check of one traced compile + launch (what `ozo trace
   --check` runs): schema, pass spans nested under the compile span,
   phase spans under the launch span, hot-spot events and a nonzero
   analysis-cache hit count present. Containment is checked over the
   flat event list, since nesting in this format is conveyed by time
   ranges on one tid. Returns (events, pass spans, hot spots, cache
   hits). *)
let check_run s =
  let ( let* ) = Result.bind in
  let fail_if bad msg = if bad then Error msg else Ok () in
  let* events = validate s in
  let require name =
    match spans_by_name events name with
    | [] -> Error ("trace has no \"" ^ name ^ "\" span")
    | sp :: _ -> Ok sp
  in
  let* compile = require "compile" in
  let* launch = require "launch" in
  let* _ = require "decode" in
  let* _ = require "execute" in
  let* _ = require "readback" in
  let named prefix ev =
    Option.fold ~none:false ~some:(String.starts_with ~prefix) (ev_name ev)
  in
  let passes = List.filter (fun ev -> named "pass:" ev && ev_ph ev = Some "X") events in
  let* () = fail_if (passes = []) "trace has no pass spans" in
  let* () =
    fail_if
      (not (List.for_all (contains compile) passes))
      "pass spans are not nested under the compile span"
  in
  let phases = List.concat_map (spans_by_name events) [ "decode"; "execute"; "readback" ] in
  let* () =
    fail_if
      (not (List.for_all (contains launch) phases))
      "phase spans are not nested under the launch span"
  in
  let hots = List.filter (named "hot:") events in
  let* () = fail_if (hots = []) "trace has no hot-spot events" in
  (* the pipeline must have reported its analysis-cache counters, and a
     traced compile of a real proxy must have produced cache hits *)
  let* cache =
    Option.to_result ~none:"trace has no analysis-cache event"
      (List.find_opt
         (fun ev -> ev_ph ev = Some "i" && ev_name ev = Some "analysis-cache")
         events)
  in
  let* hits =
    Option.to_result ~none:"analysis-cache event lacks a numeric hits arg"
      (Option.bind (Json.member "args" cache) (Json.member "hits")
      |> Fun.flip Option.bind Json.to_number)
  in
  let* () = fail_if (hits <= 0.0) "analysis-cache event reports zero hits" in
  Ok (List.length events, List.length passes, List.length hots, int_of_float hits)
