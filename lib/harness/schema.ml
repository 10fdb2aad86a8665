(* The measurement record and its one field table.

   Each row of [table] describes one field of [measurement]: its JSON
   key, a typed codec, a getter and a setter, its CSV columns (none for
   fields the CSV leaves out) and its class. The CSV header, the CSV row
   and the journal encoder and decoder are walks over the table, so a
   column is one table row plus its record field. [Result] fields are
   what a row computed and agree across every way of running the same
   request; [How] fields record only how it ran (executor, domains,
   cache, latency, phase times, supervisor activity). [without_how] is
   the one provenance strip. Measuring a row walks nothing: rows are
   built as [{ blank with ... }]. *)

module Fault = Ozo_vgpu.Fault
module Counters = Ozo_vgpu.Counters
module Engine = Ozo_vgpu.Engine
module Json = Ozo_obs.Json

type measurement = {
  r_proxy : string;
  r_build : string;
  r_machine : string;    (* machine descriptor the row compiled/ran under *)
  r_cycles : float;      (* occupancy-adjusted kernel time, simulated cycles *)
  r_regs : int;
  r_smem : int;
  r_occupancy : float;
  r_spills : int;        (* static spill loads + stores (0 = fit in budget) *)
  r_counters : Counters.t;
  r_check : (unit, string) result;
  r_flops : float;
  r_fault : Fault.t option;    (* what felled the primary configuration *)
  r_fallbacks : string list;   (* weaker pipelines tried, in order *)
  r_phase_us : (string * float) list; (* compile/decode/execute/readback; [] untraced *)
  r_hotspots : Engine.hotspot list; (* [] unless profiling *)
  r_cache : (int * int * int) option;
  (* analysis-cache (hits, misses, invalidations) from the last pipeline
     run of the attempt; None untraced *)
  r_retries : int;       (* supervisor retries consumed (0 when unsupervised) *)
  r_deadline_hit : bool; (* some attempt tripped the wall-clock watchdog *)
  r_breaker : string;    (* circuit-breaker state: closed | open | skipped *)
  r_exec : string;       (* executor: "ir" (interpreter) or "vm" (threaded code) *)
  r_domains : int;
  (* effective OCaml domains the launch sharded teams over: the request
     capped at the team count, 1 when no launch happened *)
  r_cache_disp : string; (* primary compile: "hit", "miss", "-" when uncached *)
  r_latency_us : float;
  (* served request's latency, host us from queue admission to readback;
     0.0 on the batch path *)
}

(* every field's default: a measurement of nothing, run the plain way
   (interpreter, one domain, uncached); rows that keep its shared
   counters record never mutate it *)
let blank =
  { r_proxy = ""; r_build = ""; r_machine = "vgpu"; r_cycles = 0.0; r_regs = 0;
    r_smem = 0; r_occupancy = 0.0; r_spills = 0; r_counters = Counters.create ();
    r_check = Ok (); r_flops = 0.0; r_fault = None; r_fallbacks = [];
    r_phase_us = []; r_hotspots = []; r_cache = None; r_retries = 0;
    r_deadline_hit = false; r_breaker = "closed"; r_exec = "ir"; r_domains = 1;
    r_cache_disp = "-"; r_latency_us = 0.0 }

(* the harness's per-phase columns: compile time plus the engine's three
   launch phases *)
let phase_names = [ "compile"; "decode"; "execute"; "readback" ]

(* one phase's time in [phases] (0 when absent) *)
let phase_us phases name = Option.value ~default:0.0 (List.assoc_opt name phases)

(* ---- codecs ----------------------------------------------------------- *)

let ( let* ) = Result.bind

type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : Json.t -> ('a, string) result }

type cls = Result | How

type 'r field =
  | Field : {
      key : string;
      cls : cls;
      codec : 'a codec;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
      csv : (string * ('a -> string)) list;
    }
      -> 'r field

(* the JSON codecs the table is built from *)
module Codecs = struct
  let comma b i = if i > 0 then Buffer.add_char b ','

  let str =
    { enc = Json.buf_add_string;
      dec = (function Json.Str s -> Ok s | _ -> Error "expected a string") }

  (* %.17g round-trips every finite float64 through decimal exactly (an
     integral one reads back as an [Int]): resumed CSV is byte-identical *)
  let num =
    { enc = (fun b f -> Printf.bprintf b "%.17g" f);
      dec =
        (function
        | Json.Num f -> Ok f | Json.Int i -> Ok (float i) | _ -> Error "expected a number") }

  let int =
    { enc = (fun b i -> Buffer.add_string b (string_of_int i));
      dec = (function Json.Int i -> Ok i | _ -> Error "expected an integer") }

  let bool =
    { enc = (fun b v -> Buffer.add_string b (string_of_bool v));
      dec = (function Json.Bool v -> Ok v | _ -> Error "expected a bool") }

  let opt c =
    { enc = (fun b -> function None -> Buffer.add_string b "null" | Some v -> c.enc b v);
      dec = (function Json.Null -> Ok None | j -> Result.map Option.some (c.dec j)) }

  let list c =
    { enc =
        (fun b xs ->
          Buffer.add_char b '[';
          List.iteri (fun i x -> comma b i; c.enc b x) xs;
          Buffer.add_char b ']');
      dec =
        (function
        | Json.Arr js ->
          List.fold_right
            (fun j acc ->
              let* xs = acc in
              Result.map (fun x -> x :: xs) (c.dec j))
            js (Ok [])
        | _ -> Error "expected an array") }

  let to_string c v =
    let b = Buffer.create 256 in
    c.enc b v;
    Buffer.contents b

  (* [c] seen through a conversion: [from] on the way out, [into] on the
     way in *)
  let conv c ~from ~into =
    { enc = (fun b v -> c.enc b (from v)); dec = (fun j -> Result.bind (c.dec j) into) }

  let field ?(cls = Result) ?(csv = []) key codec get set =
    Field { key; cls; codec; get; set; csv }

  (* [key] of the JSON object [j], through [c]; every key is required,
     and an error names the key it is in *)
  let member key c j =
    match Json.member key j with
    | None -> Error ("missing field " ^ key)
    | Some v -> Result.map_error (Printf.sprintf "field %s: %s" key) (c.dec v)

  (* a JSON object with one key per field, decoded by filling [blank] *)
  let obj blank fields =
    { enc =
        (fun b r ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (Field f) ->
              comma b i;
              Printf.bprintf b "%a:%a" Json.buf_add_string f.key f.codec.enc (f.get r))
            fields;
          Buffer.add_char b '}');
      dec =
        (function
        | Json.Obj _ as j ->
          List.fold_left
            (fun acc (Field f) ->
              let* r = acc in
              Result.map (f.set r) (member f.key f.codec j))
            (Ok blank) fields
        | _ -> Error "expected an object") }

  (* the nested values' codecs *)

  let access =
    obj
      { Fault.a_ptr = 0; a_space = ""; a_offset = 0; a_bytes = 0 }
      [ field "ptr" int (fun a -> a.Fault.a_ptr) (fun a v -> { a with a_ptr = v });
        field "space" str (fun a -> a.Fault.a_space) (fun a v -> { a with a_space = v });
        field "offset" int (fun a -> a.Fault.a_offset) (fun a v -> { a with a_offset = v });
        field "bytes" int (fun a -> a.Fault.a_bytes) (fun a v -> { a with a_bytes = v }) ]

  let fault_kind =
    conv str ~from:Fault.kind_name ~into:(fun s ->
        Option.to_result ~none:("unknown fault kind " ^ s) (Fault.kind_of_name s))

  (* int64 as a decimal string: a JSON integer reads as a 63-bit [int] *)
  let lanes =
    conv str ~from:Int64.to_string ~into:(fun s ->
        Option.to_result ~none:("bad lane mask " ^ s) (Int64.of_string_opt s))

  let fault =
    obj (Fault.make Fault.Internal "")
      [ field "kind" fault_kind (fun f -> f.Fault.f_kind)
          (fun f v -> { f with f_kind = v });
        field "msg" str (fun f -> f.Fault.f_msg) (fun f v -> { f with f_msg = v });
        field "fn" (opt str) (fun f -> f.Fault.f_fn) (fun f v -> { f with f_fn = v });
        field "blk" (opt str) (fun f -> f.Fault.f_blk) (fun f v -> { f with f_blk = v });
        field "idx" (opt int) (fun f -> f.Fault.f_idx) (fun f v -> { f with f_idx = v });
        field "team" (opt int) (fun f -> f.Fault.f_team) (fun f v -> { f with f_team = v });
        field "warp" (opt int) (fun f -> f.Fault.f_warp) (fun f v -> { f with f_warp = v });
        field "lanes" lanes (fun f -> f.Fault.f_lanes) (fun f v -> { f with f_lanes = v });
        field "access" (opt access) (fun f -> f.Fault.f_access)
          (fun f v -> { f with f_access = v });
        field "threads" (list int) (fun f -> f.Fault.f_threads)
          (fun f v -> { f with f_threads = v }) ]

  let hotspot =
    obj
      { Engine.h_fn = ""; h_blk = ""; h_hits = 0; h_winsts = 0; h_cycles = 0 }
      [ field "fn" str (fun h -> h.Engine.h_fn) (fun h v -> { h with h_fn = v });
        field "blk" str (fun h -> h.Engine.h_blk) (fun h v -> { h with h_blk = v });
        field "hits" int (fun h -> h.Engine.h_hits) (fun h v -> { h with h_hits = v });
        field "winsts" int (fun h -> h.Engine.h_winsts)
          (fun h v -> { h with h_winsts = v });
        field "cycles" int (fun h -> h.Engine.h_cycles)
          (fun h v -> { h with h_cycles = v }) ]

  (* the counters as one array, in [Counters.fields] order *)
  let counters =
    conv (list int)
      ~from:(fun c -> List.map (fun (_, get, _) -> get c) Counters.fields)
      ~into:(fun xs ->
        let c = Counters.create () in
        match List.iter2 (fun (_, _, set) v -> set c v) Counters.fields xs with
        | () -> Ok c
        | exception Invalid_argument _ -> Error "wrong number of counters")

  (* the check's failure text, null when it passed *)
  let check =
    conv (opt str)
      ~from:(function Ok () -> None | Error e -> Some e)
      ~into:(function None -> Ok (Ok ()) | Some e -> Ok (Error e))

  (* a phase time as a [name, us] pair *)
  let phase =
    { enc = (fun b (n, v) -> Printf.bprintf b "[%a,%a]" str.enc n num.enc v);
      dec =
        (function
        | Json.Arr [ n; v ] ->
          let* n = str.dec n in
          Result.map (fun v -> (n, v)) (num.dec v)
        | _ -> Error "expected a [name, us] pair") }

  let cache =
    conv (list int)
      ~from:(fun (h, mi, inv) -> [ h; mi; inv ])
      ~into:(function [ h; mi; inv ] -> Ok (h, mi, inv) | _ -> Error "expected 3 counts")
end

open Codecs

let fault_to_json = to_string fault
let fault_of_json = fault.dec

(* ---- the measurement table ---------------------------------------------- *)

let table : measurement field list =
  let d = string_of_int and s = Fun.id and f1 = Printf.sprintf "%.1f" in
  [ field "proxy" str (fun m -> m.r_proxy) (fun m v -> { m with r_proxy = v })
      ~csv:[ ("proxy", s) ];
    field "build" str (fun m -> m.r_build) (fun m v -> { m with r_build = v })
      ~csv:[ ("build", s) ];
    field "machine" str (fun m -> m.r_machine) (fun m v -> { m with r_machine = v })
      ~csv:[ ("machine", s) ];
    field "cycles" num (fun m -> m.r_cycles) (fun m v -> { m with r_cycles = v })
      ~csv:[ ("cycles", Printf.sprintf "%.0f") ];
    field "regs" int (fun m -> m.r_regs) (fun m v -> { m with r_regs = v })
      ~csv:[ ("regs", d) ];
    field "smem" int (fun m -> m.r_smem) (fun m v -> { m with r_smem = v })
      ~csv:[ ("smem", d) ];
    field "occupancy" num (fun m -> m.r_occupancy) (fun m v -> { m with r_occupancy = v })
      ~csv:[ ("occupancy", Printf.sprintf "%.3f") ];
    field "spills" int (fun m -> m.r_spills) (fun m v -> { m with r_spills = v })
      ~csv:[ ("spills", d) ];
    field "counters" counters (fun m -> m.r_counters) (fun m v -> { m with r_counters = v })
      ~csv:
        [ ("warp_insts", fun c -> d c.Counters.warp_instructions);
          ("barriers", fun c -> d c.Counters.barriers) ];
    field "check" check (fun m -> m.r_check) (fun m v -> { m with r_check = v })
      ~csv:[ ("check", function Ok () -> "ok" | Error _ -> "fail") ];
    field "flops" num (fun m -> m.r_flops) (fun m v -> { m with r_flops = v });
    field "fault" (opt fault) (fun m -> m.r_fault) (fun m v -> { m with r_fault = v })
      ~csv:[ ("fault", function None -> "-" | Some f -> Fault.kind_name f.Fault.f_kind) ];
    field "fallbacks" (list str) (fun m -> m.r_fallbacks)
      (fun m v -> { m with r_fallbacks = v })
      ~csv:[ ("fallback", function [] -> "-" | fbs -> String.concat ">" fbs) ];
    field "phase_us" (list phase) (fun m -> m.r_phase_us)
      (fun m v -> { m with r_phase_us = v })
      ~cls:How
      ~csv:(List.map (fun n -> (n ^ "_us", fun ps -> f1 (phase_us ps n))) phase_names);
    field "hotspots" (list hotspot) (fun m -> m.r_hotspots)
      (fun m v -> { m with r_hotspots = v })
      ~cls:How;
    field "cache" (opt cache) (fun m -> m.r_cache) (fun m v -> { m with r_cache = v })
      ~cls:How
      ~csv:
        [ ("cache_hits", function Some (h, _, _) -> d h | None -> "0");
          ("cache_misses", function Some (_, mi, _) -> d mi | None -> "0") ];
    field "retries" int (fun m -> m.r_retries) (fun m v -> { m with r_retries = v })
      ~cls:How ~csv:[ ("retries", d) ];
    field "deadline" bool (fun m -> m.r_deadline_hit)
      (fun m v -> { m with r_deadline_hit = v })
      ~cls:How ~csv:[ ("deadline", fun hit -> if hit then "hit" else "-") ];
    field "breaker" str (fun m -> m.r_breaker) (fun m v -> { m with r_breaker = v })
      ~cls:How ~csv:[ ("breaker", s) ];
    field "exec" str (fun m -> m.r_exec) (fun m v -> { m with r_exec = v })
      ~cls:How ~csv:[ ("exec", s) ];
    field "domains" int (fun m -> m.r_domains) (fun m v -> { m with r_domains = v })
      ~cls:How ~csv:[ ("domains", d) ];
    field "cachedisp" str (fun m -> m.r_cache_disp) (fun m v -> { m with r_cache_disp = v })
      ~cls:How ~csv:[ ("cache", s) ];
    field "latency_us" num (fun m -> m.r_latency_us)
      (fun m v -> { m with r_latency_us = v })
      ~cls:How ~csv:[ ("latency_us", f1) ] ]

(* ---- the four walks ---------------------------------------------------- *)

let csv_columns = List.concat_map (fun (Field f) -> List.map fst f.csv) table

let csv_row m =
  List.concat_map (fun (Field f) -> List.map (fun (_, cell) -> cell (f.get m)) f.csv) table
  |> String.concat ","

(* the journal's measurement object, both ways *)
let row_codec = obj blank table
let to_json = to_string row_codec

(* ---- provenance ---------------------------------------------------------- *)

(* [m] with every [How] field reset to its [blank] value *)
let without_how m =
  List.fold_left
    (fun m (Field f) -> if f.cls = How then f.set m (f.get blank) else m)
    m table

(* the full encoding of what [m] computed: equal for two rows exactly
   when they agree on every [Result] field, counters and fault included *)
let result_json m = to_json (without_how m)
