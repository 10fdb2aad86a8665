(* Structured tracing and profiling context (`ozo_obs`).

   A [ctx] records a tree of timed *spans* (compile, one per optimization
   pass, launch, decode/execute/readback) and point-in-time *instant*
   events (optimization remarks, per-block hot spots), each annotated
   with typed key/value arguments. The compiler and the vGPU thread one
   ctx through a whole compile+launch so the exporters (Chrome trace
   JSON, text profile) can show where cycles and compile time went.

   Near-zero overhead when off: [null] is a shared disabled ctx and every
   operation starts with a single [cx_on] branch — no clock reads, no
   allocation, no formatting happen on the disabled path. The paper's
   "you only pay for what you use" discipline applies to our own
   instrumentation too.

   Timestamps are microseconds relative to ctx creation, read from an
   injectable clock ([make ~clock]) so tests can pin monotonicity without
   depending on the wall clock. Durations are clamped non-negative. *)

type value = Int of int | Float of float | Str of string

type instant = {
  i_name : string;
  i_cat : string;
  i_ts : float;
  i_args : (string * value) list;
}

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  mutable sp_stop : float; (* < sp_start while the span is still open *)
  mutable sp_args : (string * value) list;
  mutable sp_rsub : node list; (* children, newest first *)
}

and node = Span of span | Instant of instant

type ctx = {
  cx_on : bool;
  cx_clock : unit -> float; (* absolute microseconds *)
  cx_t0 : float;
  mutable cx_rroots : node list; (* newest first *)
  mutable cx_open : span list; (* open spans, innermost first *)
}

(* the shared disabled context: every API call returns after one branch *)
let null =
  { cx_on = false; cx_clock = (fun () -> 0.0); cx_t0 = 0.0; cx_rroots = [];
    cx_open = [] }

let default_clock () = Unix.gettimeofday () *. 1e6

let make ?(clock = default_clock) () =
  { cx_on = true; cx_clock = clock; cx_t0 = clock (); cx_rroots = [];
    cx_open = [] }

let[@inline] enabled cx = cx.cx_on
let now cx = cx.cx_clock () -. cx.cx_t0

let push_node cx n =
  match cx.cx_open with
  | s :: _ -> s.sp_rsub <- n :: s.sp_rsub
  | [] -> cx.cx_rroots <- n :: cx.cx_rroots

let begin_span cx ?(cat = "") ?(args = []) name =
  if cx.cx_on then begin
    let s =
      { sp_name = name; sp_cat = cat; sp_start = now cx; sp_stop = -1.0;
        sp_args = args; sp_rsub = [] }
    in
    push_node cx (Span s);
    cx.cx_open <- s :: cx.cx_open
  end

(* Close the innermost open span (a stray end on an empty stack is
   ignored, so begin/end mismatches degrade instead of corrupting). *)
let end_span cx ?(args = []) () =
  if cx.cx_on then
    match cx.cx_open with
    | [] -> ()
    | s :: rest ->
      s.sp_stop <- Float.max s.sp_start (now cx);
      if args <> [] then s.sp_args <- s.sp_args @ args;
      cx.cx_open <- rest

(* Scoped span; exception-safe, zero-cost when the ctx is off. *)
let with_span cx ?cat ?args name f =
  if cx.cx_on then begin
    begin_span cx ?cat ?args name;
    match f () with
    | v ->
      end_span cx ();
      v
    | exception e ->
      end_span cx ();
      raise e
  end
  else f ()

let instant cx ?(cat = "") ?(args = []) name =
  if cx.cx_on then
    push_node cx (Instant { i_name = name; i_cat = cat; i_ts = now cx; i_args = args })

(* Close any spans left open (abnormal exits); exporters call this so a
   faulted run still produces a well-formed trace. *)
let rec close_all cx =
  if cx.cx_on && cx.cx_open <> [] then begin
    end_span cx ();
    close_all cx
  end

(* --- reading the tree back --------------------------------------------- *)

let roots cx = List.rev cx.cx_rroots
let sub s = List.rev s.sp_rsub
let dur s = if s.sp_stop >= s.sp_start then s.sp_stop -. s.sp_start else 0.0
let closed s = s.sp_stop >= s.sp_start

(* depth-first pre-order iteration over every node *)
let iter cx f =
  let rec go n =
    f n;
    match n with Span s -> List.iter go (sub s) | Instant _ -> ()
  in
  List.iter go (roots cx)

(* all spans named [name], in recording order *)
let spans_named cx name =
  let acc = ref [] in
  iter cx (function
    | Span s when s.sp_name = name -> acc := s :: !acc
    | _ -> ());
  List.rev !acc

(* all instants named [name], in recording order *)
let instants_named cx name =
  let acc = ref [] in
  iter cx (function
    | Instant i when i.i_name = name -> acc := i :: !acc
    | _ -> ());
  List.rev !acc

(* duration of the most recent completed span named [name] (0 if none) *)
let last_dur cx name =
  match List.rev (spans_named cx name) with
  | s :: _ when closed s -> dur s
  | _ -> 0.0

let count_spans cx =
  let n = ref 0 in
  iter cx (function Span _ -> incr n | Instant _ -> ());
  !n
