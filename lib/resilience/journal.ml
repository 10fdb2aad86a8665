(* Crash-safe campaign journal: one JSON object per line, appended and
   flushed (+fsynced) after every completed measurement, so a campaign
   killed at any instant loses at most the row in flight.

   Line 1 is a header carrying a fingerprint of the campaign
   configuration (proxy list, repeats, injection, ...); resume refuses a
   journal whose fingerprint does not match, so a stale file can never
   silently splice rows from a different campaign. Every following line
   is {"seq": N, "m": {...}} with the *complete* measurement — including
   the structured fault and all engine counters — so replayed rows
   render byte-identically through [Report.pp_csv].

   There is one schema: the header carries [version] and [load] refuses
   any other, and every measurement field is required. Journals are
   local scratch, not an archive, so an old file is an error to
   re-run, not a format to decode. [load] tolerates a torn final line
   (the row being written when the process died, which no longer
   parses as JSON): it is simply dropped and re-measured on resume.
   Any other malformed line is a hard error naming its 1-based line. *)

module E = Ozo_harness.Experiments
module Fault = Ozo_vgpu.Fault
module Counters = Ozo_vgpu.Counters
module Engine = Ozo_vgpu.Engine
module Json = Ozo_obs.Json

(* ---- encoding --------------------------------------------------------- *)

let esc b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* %.17g round-trips every finite float64 through decimal exactly, which
   is what makes resumed CSV output byte-identical *)
let num b f = Buffer.add_string b (Printf.sprintf "%.17g" f)
let int_ b i = Buffer.add_string b (string_of_int i)
let bool_ b v = Buffer.add_string b (if v then "true" else "false")

let opt b enc = function None -> Buffer.add_string b "null" | Some v -> enc b v

let list_ b enc xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      enc b x)
    xs;
  Buffer.add_char b ']'

(* object writer: the field callback takes a pre-bound encoder thunk so
   one [fields] closure can mix value types *)
let obj b fields =
  Buffer.add_char b '{';
  let first = ref true in
  fields (fun name enc ->
      if not !first then Buffer.add_char b ',';
      first := false;
      esc b name;
      Buffer.add_char b ':';
      enc b);
  Buffer.add_char b '}'

let enc_access b (a : Fault.access) =
  obj b (fun f ->
      f "ptr" (fun b -> int_ b a.Fault.a_ptr);
      f "space" (fun b -> esc b a.Fault.a_space);
      f "offset" (fun b -> int_ b a.Fault.a_offset);
      f "bytes" (fun b -> int_ b a.Fault.a_bytes))

let enc_fault b (ft : Fault.t) =
  obj b (fun f ->
      f "kind" (fun b -> esc b (Fault.kind_name ft.Fault.f_kind));
      f "msg" (fun b -> esc b ft.Fault.f_msg);
      f "fn" (fun b -> opt b esc ft.Fault.f_fn);
      f "blk" (fun b -> opt b esc ft.Fault.f_blk);
      f "idx" (fun b -> opt b int_ ft.Fault.f_idx);
      f "team" (fun b -> opt b int_ ft.Fault.f_team);
      f "warp" (fun b -> opt b int_ ft.Fault.f_warp);
      (* int64 as a decimal string: the float-backed JSON number type
         cannot hold a full 64-bit lane mask exactly *)
      f "lanes" (fun b -> esc b (Int64.to_string ft.Fault.f_lanes));
      f "access" (fun b -> opt b enc_access ft.Fault.f_access);
      f "threads" (fun b -> list_ b int_ ft.Fault.f_threads))

let fault_to_json (ft : Fault.t) : string =
  let b = Buffer.create 128 in
  enc_fault b ft;
  Buffer.contents b

let enc_counters b (c : Counters.t) =
  list_ b int_
    [ c.Counters.warp_instructions; c.Counters.lane_instructions;
      c.Counters.barriers; c.Counters.aligned_barriers;
      c.Counters.global_transactions; c.Counters.shared_accesses;
      c.Counters.local_accesses; c.Counters.atomics; c.Counters.mallocs;
      c.Counters.calls; c.Counters.divergent_branches; c.Counters.cycles;
      c.Counters.traps ]

let enc_hotspot b (h : Engine.hotspot) =
  obj b (fun f ->
      f "fn" (fun b -> esc b h.Engine.h_fn);
      f "blk" (fun b -> esc b h.Engine.h_blk);
      f "hits" (fun b -> int_ b h.Engine.h_hits);
      f "winsts" (fun b -> int_ b h.Engine.h_winsts);
      f "cycles" (fun b -> int_ b h.Engine.h_cycles))

let enc_measurement b (m : E.measurement) =
  obj b (fun f ->
      f "proxy" (fun b -> esc b m.E.r_proxy);
      f "build" (fun b -> esc b m.E.r_build);
      f "machine" (fun b -> esc b m.E.r_machine);
      f "cycles" (fun b -> num b m.E.r_cycles);
      f "regs" (fun b -> int_ b m.E.r_regs);
      f "smem" (fun b -> int_ b m.E.r_smem);
      f "occupancy" (fun b -> num b m.E.r_occupancy);
      f "spills" (fun b -> int_ b m.E.r_spills);
      f "counters" (fun b -> enc_counters b m.E.r_counters);
      f "check" (fun b ->
          opt b esc
            (match m.E.r_check with Ok () -> None | Error e -> Some e));
      f "flops" (fun b -> num b m.E.r_flops);
      f "fault" (fun b -> opt b enc_fault m.E.r_fault);
      f "fallbacks" (fun b -> list_ b esc m.E.r_fallbacks);
      f "phase_us" (fun b ->
          list_ b
            (fun b (n, v) ->
              Buffer.add_char b '[';
              esc b n;
              Buffer.add_char b ',';
              num b v;
              Buffer.add_char b ']')
            m.E.r_phase_us);
      f "hotspots" (fun b -> list_ b enc_hotspot m.E.r_hotspots);
      f "cache" (fun b ->
          opt b (fun b (h, mi, inv) -> list_ b int_ [ h; mi; inv ]) m.E.r_cache);
      f "retries" (fun b -> int_ b m.E.r_retries);
      f "deadline" (fun b -> bool_ b m.E.r_deadline_hit);
      f "breaker" (fun b -> esc b m.E.r_breaker);
      f "exec" (fun b -> esc b m.E.r_exec);
      f "domains" (fun b -> int_ b m.E.r_domains);
      f "cachedisp" (fun b -> esc b m.E.r_cache_disp);
      f "latency_us" (fun b -> num b m.E.r_latency_us))

(* ---- decoding --------------------------------------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let mem name j = Json.member name j
let want name = function Some v -> Ok v | None -> Error ("missing field " ^ name)

let dec_str name j =
  match mem name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error ("bad string field " ^ name)

let dec_num name j =
  match mem name j with
  | Some (Json.Num f) -> Ok f
  | _ -> Error ("bad number field " ^ name)

let dec_int name j =
  let* f = dec_num name j in
  Ok (int_of_float f)

let dec_bool name j =
  match mem name j with
  | Some (Json.Bool v) -> Ok v
  | _ -> Error ("bad bool field " ^ name)

let dec_opt name dec j =
  match mem name j with
  | Some Json.Null | None -> Ok None
  | Some v -> (
    match dec v with Ok x -> Ok (Some x) | Error e -> Error e)

let dec_str_v = function Json.Str s -> Ok s | _ -> Error "expected string"
let dec_int_v = function Json.Num f -> Ok (int_of_float f) | _ -> Error "expected number"

let dec_list name dec j =
  match mem name j with
  | Some (Json.Arr xs) ->
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        let* v = dec x in
        Ok (v :: acc))
      (Ok []) xs
    |> Result.map List.rev
  | _ -> Error ("bad array field " ^ name)

let dec_access j : (Fault.access, string) result =
  let* ptr = dec_int "ptr" j in
  let* space = dec_str "space" j in
  let* offset = dec_int "offset" j in
  let* bytes = dec_int "bytes" j in
  Ok { Fault.a_ptr = ptr; a_space = space; a_offset = offset; a_bytes = bytes }

let fault_of_json (j : Json.t) : (Fault.t, string) result =
  let* kind_s = dec_str "kind" j in
  let* kind = want "kind" (Fault.kind_of_name kind_s) in
  let* msg = dec_str "msg" j in
  let* fn = dec_opt "fn" dec_str_v j in
  let* blk = dec_opt "blk" dec_str_v j in
  let* idx = dec_opt "idx" dec_int_v j in
  let* team = dec_opt "team" dec_int_v j in
  let* warp = dec_opt "warp" dec_int_v j in
  let* lanes_s = dec_str "lanes" j in
  let* lanes =
    match Int64.of_string_opt lanes_s with
    | Some v -> Ok v
    | None -> Error "bad lanes"
  in
  let* access = dec_opt "access" dec_access j in
  let* threads = dec_list "threads" dec_int_v j in
  Ok
    { Fault.f_kind = kind; f_msg = msg; f_fn = fn; f_blk = blk; f_idx = idx;
      f_team = team; f_warp = warp; f_lanes = lanes; f_access = access;
      f_threads = threads }

let dec_counters j : (Counters.t, string) result =
  let* xs = dec_list "counters" dec_int_v j in
  match xs with
  | [ wi; li; ba; ab; gt; sa; la; at; ml; ca; db; cy; tr ] ->
    let c = Counters.create () in
    c.Counters.warp_instructions <- wi;
    c.Counters.lane_instructions <- li;
    c.Counters.barriers <- ba;
    c.Counters.aligned_barriers <- ab;
    c.Counters.global_transactions <- gt;
    c.Counters.shared_accesses <- sa;
    c.Counters.local_accesses <- la;
    c.Counters.atomics <- at;
    c.Counters.mallocs <- ml;
    c.Counters.calls <- ca;
    c.Counters.divergent_branches <- db;
    c.Counters.cycles <- cy;
    c.Counters.traps <- tr;
    Ok c
  | _ -> Error "bad counters arity"

let dec_hotspot j : (Engine.hotspot, string) result =
  let* fn = dec_str "fn" j in
  let* blk = dec_str "blk" j in
  let* hits = dec_int "hits" j in
  let* winsts = dec_int "winsts" j in
  let* cycles = dec_int "cycles" j in
  Ok
    { Engine.h_fn = fn; h_blk = blk; h_hits = hits; h_winsts = winsts;
      h_cycles = cycles }

let dec_phase j =
  match j with
  | Json.Arr [ Json.Str n; Json.Num v ] -> Ok (n, v)
  | _ -> Error "bad phase entry"

let measurement_of_json (j : Json.t) : (E.measurement, string) result =
  let* proxy = dec_str "proxy" j in
  let* build = dec_str "build" j in
  let* cycles = dec_num "cycles" j in
  let* regs = dec_int "regs" j in
  let* smem = dec_int "smem" j in
  let* occupancy = dec_num "occupancy" j in
  let* spills = dec_int "spills" j in
  let* counters = dec_counters j in
  let* check = dec_opt "check" dec_str_v j in
  let* flops = dec_num "flops" j in
  let* fault = dec_opt "fault" fault_of_json j in
  let* fallbacks = dec_list "fallbacks" dec_str_v j in
  let* phase_us = dec_list "phase_us" dec_phase j in
  let* hotspots = dec_list "hotspots" dec_hotspot j in
  let* cache =
    dec_opt "cache"
      (function
        | Json.Arr [ Json.Num h; Json.Num m; Json.Num i ] ->
          Ok (int_of_float h, int_of_float m, int_of_float i)
        | _ -> Error "bad cache triple")
      j
  in
  let* retries = dec_int "retries" j in
  let* deadline = dec_bool "deadline" j in
  let* breaker = dec_str "breaker" j in
  let* exec = dec_str "exec" j in
  let* domains = dec_int "domains" j in
  let* cache_disp = dec_str "cachedisp" j in
  let* latency_us = dec_num "latency_us" j in
  let* machine = dec_str "machine" j in
  Ok
    { E.r_proxy = proxy; r_build = build; r_machine = machine; r_cycles = cycles;
      r_regs = regs;
      r_smem = smem; r_occupancy = occupancy; r_spills = spills;
      r_counters = counters;
      r_check = (match check with None -> Ok () | Some e -> Error e);
      r_flops = flops; r_fault = fault; r_fallbacks = fallbacks;
      r_phase_us = phase_us; r_hotspots = hotspots; r_cache = cache;
      r_retries = retries; r_deadline_hit = deadline; r_breaker = breaker;
      r_exec = exec; r_domains = domains; r_cache_disp = cache_disp;
      r_latency_us = latency_us }

(* ---- the journal file ------------------------------------------------- *)

type writer = { w_oc : out_channel }

let sync oc =
  flush oc;
  (* fsync so a SIGKILL (or power loss) cannot lose an acked row *)
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

(* the one schema [load] accepts: every measurement field is required *)
let version = 2

let start ~path ~fingerprint : writer =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  let b = Buffer.create 128 in
  obj b (fun f ->
      f "journal" (fun b -> esc b "ozo-campaign");
      f "version" (fun b -> int_ b version);
      f "fingerprint" (fun b -> esc b fingerprint));
  output_string oc (Buffer.contents b);
  output_char oc '\n';
  sync oc;
  { w_oc = oc }

let reopen ~path : writer =
  { w_oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path }

let append (w : writer) ~seq (m : E.measurement) =
  let b = Buffer.create 512 in
  obj b (fun f ->
      f "seq" (fun b -> int_ b seq);
      f "m" (fun b -> enc_measurement b m));
  output_string w.w_oc (Buffer.contents b);
  output_char w.w_oc '\n';
  sync w.w_oc

let close (w : writer) = close_out w.w_oc

type entry = { e_seq : int; e_m : E.measurement }

let read_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* every error names its 1-based journal line *)
let at line r = Result.map_error (Printf.sprintf "line %d: %s" line) r

let load ~path : (string * entry list, string) result =
  if not (Sys.file_exists path) then Error ("no such journal: " ^ path)
  else
    match read_lines path with
    | [] -> at 1 (Error "empty journal")
    | header :: rows ->
      let* fp =
        at 1
          (let* hj =
             Result.map_error (( ^ ) "bad journal header: ") (Json.parse header)
           in
           let* v = dec_int "version" hj in
           if v <> version then
             Error (Printf.sprintf "journal version %d, expected %d" v version)
           else dec_str "fingerprint" hj)
      in
      let rec go lnum acc = function
        | [] -> Ok (List.rev acc)
        | [ line ] when Result.is_error (Json.parse line) ->
          (* a torn final line is the expected crash artifact *)
          Ok (List.rev acc)
        | line :: rest ->
          let* e =
            at lnum
              (let* j =
                 Result.map_error (( ^ ) "bad journal line: ") (Json.parse line)
               in
               let* seq = dec_int "seq" j in
               let* mj = want "m" (mem "m" j) in
               let* m = measurement_of_json mj in
               Ok { e_seq = seq; e_m = m })
          in
          go (lnum + 1) (e :: acc) rest
      in
      let* entries = go 2 [] rows in
      Ok (fp, entries)
