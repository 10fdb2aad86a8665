(* The measurement schema (lib/harness/schema.ml): one field table drives
   the CSV header and row and the journal encoder and decoder.

   The contracts under test:
   - golden bytes: files written before the table existed are pinned
     under test/expected/ and must come out of it unchanged. One is a live
     `ozo campaign xsbench --small --journal` (its CSV and its journal),
     the other one hand-built journal line with every field off its
     default (its journal and its CSV row). Both are also decoded and
     re-encoded;
   - the decoder, generated from the table: a journal line missing any
     one key, or holding a value of the wrong JSON type under it, is
     refused with the line number and the field's name, and every
     integer comes back exact, max_int and min_int included;
   - provenance: [without_how] resets exactly the How fields.

   To regenerate the goldens after an intentional format change, run

     OZO_GOLDEN_REGEN=1 dune runtest --force

   which writes the fresh bytes over test/expected/ (the source tree, seen
   from the test's working directory _build/default/test), and review the
   diff. Do NOT regenerate to make a refactor pass: a diff here means the
   row format changed. *)

module E = Ozo_harness.Experiments
module R = Ozo_harness.Report
module Campaign = Ozo_resilience.Campaign
module Journal = Ozo_resilience.Journal
module Json = Ozo_obs.Json
module Fault = Ozo_vgpu.Fault
module Counters = Ozo_vgpu.Counters
module Engine = Ozo_vgpu.Engine

let tc name f = Alcotest.test_case name `Quick f
let read path = In_channel.with_open_bin path In_channel.input_all
let regen = Sys.getenv_opt "OZO_GOLDEN_REGEN" <> None

(* [got] against the golden [name], byte for byte *)
let check_golden name got =
  if regen then begin
    let src = Filename.concat "../../../test/expected" name in
    Out_channel.with_open_bin src (fun oc -> output_string oc got);
    Fmt.pr "GOLDEN-SCHEMA regenerated %s@." src
  end
  else Alcotest.(check string) (name ^ " bytes") (read ("expected/" ^ name)) got

let with_temp f =
  let path = Filename.temp_file "ozo_schema" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let csv_of ms =
  Fmt.str "%a%a" R.pp_csv_header () (fun ppf -> List.iter (R.pp_csv ppf)) ms

(* journal bytes for [ms] under [fingerprint], seq numbered from 0 *)
let journal_of ~fingerprint ms =
  with_temp (fun path ->
      let w = Journal.start ~path ~fingerprint in
      List.iteri (fun seq m -> Journal.append w ~seq m) ms;
      Journal.close w;
      read path)

(* every field off its default: a fault with an access and threads,
   fallbacks, hotspots, phase times, the cache triple and every How field *)
let every_field : E.measurement =
  let c = Counters.create () in
  List.iteri (fun i (_, _, set) -> set c (101 + i)) Counters.fields;
  { E.r_proxy = "xsbench"; r_build = "New RT"; r_machine = "a100";
    r_cycles = 12345.678; r_regs = 40; r_smem = 2048; r_occupancy = 0.375;
    r_spills = 3; r_counters = c;
    r_check = Error "out[3] = 1, expected \"2\"";
    r_flops = 6400.5;
    r_fault =
      Some
        { Fault.f_kind = Fault.Race; f_msg = "race on \"buf\"\n\tat \\ end\001";
          f_fn = Some "__omp_offloading_k"; f_blk = Some "loop.body";
          f_idx = Some 7; f_team = Some 2; f_warp = Some 1;
          f_lanes = 0x8000_0000_0000_0001L;
          f_access =
            Some
              { Fault.a_ptr = 0x2000_0000_0100; a_space = "shared";
                a_offset = 256; a_bytes = 8 };
          f_threads = [ 3; 35 ] };
    r_fallbacks = [ "nightly"; "baseline" ];
    r_phase_us =
      [ ("compile", 1500.25); ("decode", 12.5); ("execute", 830.125);
        ("readback", 0.75) ];
    r_hotspots =
      [ { Engine.h_fn = "k"; h_blk = "entry"; h_hits = 64; h_winsts = 640;
          h_cycles = 2048 };
        { Engine.h_fn = "helper"; h_blk = "b1"; h_hits = 8; h_winsts = 24;
          h_cycles = 96 } ];
    r_cache = Some (7, 3, 1); r_retries = 2; r_deadline_hit = true;
    r_breaker = "open"; r_exec = "vm"; r_domains = 4; r_cache_disp = "hit";
    r_latency_us = 1234.5 }

(* one field of [m] as its journal value *)
let field_json (E.Field f) m = E.Codecs.to_string f.codec (f.get m)

let key (E.Field f) = f.key

(* --- goldens ---------------------------------------------------------------- *)

let test_campaign_golden () =
  with_temp (fun path ->
      let ms =
        Campaign.run
          { Campaign.default with
            Campaign.co_proxies = [ "xsbench" ]; co_small = true;
            co_journal = Some path }
      in
      check_golden "campaign-xsbench-small.csv" (csv_of ms);
      check_golden "campaign-xsbench-small.jsonl" (read path))

let test_every_field_golden () =
  List.iter
    (fun f ->
      if field_json f every_field = field_json f E.blank then
        Alcotest.failf "every_field leaves %s at its default" (key f))
    E.table;
  check_golden "every-field.jsonl"
    (journal_of ~fingerprint:"every-field" [ every_field ]);
  check_golden "every-field.csv" (csv_of [ every_field ])

(* decode each golden journal, encode it again, and render its CSV *)
let test_goldens_reencode () =
  if not regen then
    List.iter
      (fun stem ->
        let path = "expected/" ^ stem ^ ".jsonl" in
        match Journal.load ~path with
        | Error e -> Alcotest.failf "%s: %s" path e
        | Ok (fingerprint, entries) ->
          let ms = List.map (fun e -> e.Journal.e_m) entries in
          Alcotest.(check string) (path ^ " re-encoded") (read path)
            (journal_of ~fingerprint ms);
          Alcotest.(check string) (stem ^ ".csv from the decoded rows")
            (read ("expected/" ^ stem ^ ".csv"))
            (csv_of ms))
      [ "campaign-xsbench-small"; "every-field" ]

(* --- the decoder, one case per table row ------------------------------------ *)

let rec json_to_string = function
  | Json.Null -> "null"
  | Json.Bool v -> string_of_bool v
  | Json.Int i -> string_of_int i
  | Json.Num f -> Printf.sprintf "%.17g" f
  | Json.Str s ->
    let b = Buffer.create 16 in
    Json.buf_add_string b s;
    Buffer.contents b
  | Json.Arr xs -> "[" ^ String.concat "," (List.map json_to_string xs) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> json_to_string (Json.Str k) ^ ":" ^ json_to_string v) kvs)
    ^ "}"

(* Journal three [every_field] rows, rewrite the measurement keys of
   line 3 with [edit], and return what [load] reports. *)
let load_with_line3 edit =
  let lines =
    journal_of ~fingerprint:"fp" [ every_field; every_field; every_field ]
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let rewrite line =
    match Json.parse line with
    | Ok (Json.Obj [ ("seq", seq); ("m", Json.Obj kvs) ]) ->
      Alcotest.(check string) "the test's printer reproduces a journal line" line
        (json_to_string (Json.Obj [ ("seq", seq); ("m", Json.Obj kvs) ]));
      json_to_string (Json.Obj [ ("seq", seq); ("m", Json.Obj (edit kvs)) ])
    | _ -> Alcotest.failf "unexpected journal line %s" line
  in
  with_temp (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          List.iteri
            (fun i l -> output_string oc ((if i = 2 then rewrite l else l) ^ "\n"))
            lines);
      Journal.load ~path)

let expect_refusal ~what ~names r =
  match r with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e ->
    let prefix = "line 3: field m: " in
    if not (String.starts_with ~prefix e && names e) then
      Alcotest.failf "%s: error %S does not name line 3 and the field" what e

let test_decoder_missing_key () =
  List.iter
    (fun f ->
      let k = key f in
      load_with_line3 (List.filter (fun (k', _) -> k' <> k))
      |> expect_refusal ~what:("without " ^ k)
           ~names:(String.ends_with ~suffix:("missing field " ^ k)))
    E.table

let test_decoder_wrong_type () =
  let wrong = function Json.Str _ -> Json.Num 1.0 | _ -> Json.Str "x" in
  List.iter
    (fun f ->
      let k = key f in
      load_with_line3 (List.map (fun (k', v) -> (k', if k' = k then wrong v else v)))
      |> expect_refusal ~what:("wrong type under " ^ k)
           ~names:(String.starts_with ~prefix:("line 3: field m: field " ^ k ^ ": ")))
    E.table;
  (* integers are whole numbers: a fraction is refused, not truncated *)
  load_with_line3 (List.map (fun (k, v) -> (k, if k = "regs" then Json.Num 40.5 else v)))
  |> expect_refusal ~what:"fractional regs"
       ~names:(String.starts_with ~prefix:"line 3: field m: field regs: expected an integer")

(* integers are exact: max_int, min_int and 2^53 + 1 in every integer of
   a line, nested ones included, load and encode back unchanged *)
let test_decoder_edge_ints () =
  let rec set_ints v = function
    | Json.Int _ -> Json.Int v
    | Json.Arr xs -> Json.Arr (List.map (set_ints v) xs)
    | Json.Obj kvs -> Json.Obj (List.map (fun (k, x) -> (k, set_ints v x)) kvs)
    | j -> j
  in
  let kvs = match Json.parse (E.to_json every_field) with Ok (Json.Obj kvs) -> kvs | _ -> [] in
  List.iter
    (fun v ->
      let edit = List.map (fun (k, x) -> (k, set_ints v x)) in
      (* line 3 of the journal holds its second row *)
      match load_with_line3 edit with
      | Ok (_, [ _; e; _ ]) ->
        List.iter
          (fun f ->
            Alcotest.(check string) (Fmt.str "%d in %s" v (key f))
              (json_to_string (List.assoc (key f) (edit kvs)))
              (field_json f e.Journal.e_m))
          E.table
      | _ -> Alcotest.failf "%d: line 3 does not load" v)
    [ max_int; min_int; (1 lsl 53) + 1 ]

(* --- provenance ---------------------------------------------------------------- *)

let test_without_how () =
  let stripped = E.without_how every_field in
  List.iter
    (fun (E.Field r as f) ->
      let expect = if r.cls = E.How then E.blank else every_field in
      Alcotest.(check string) (key f) (field_json f expect) (field_json f stripped))
    E.table;
  Alcotest.(check (list string)) "the How fields"
    [ "phase_us"; "hotspots"; "cache"; "retries"; "deadline"; "breaker"; "exec";
      "domains"; "cachedisp"; "latency_us" ]
    (List.filter_map
       (fun (E.Field r as f) -> if r.cls = E.How then Some (key f) else None)
       E.table)

let suite =
  [ tc "golden: live campaign csv and journal bytes" test_campaign_golden;
    tc "golden: every-field journal line and csv row" test_every_field_golden;
    tc "golden: decode + re-encode is byte-identical" test_goldens_reencode;
    tc "decoder: a missing key names line and field" test_decoder_missing_key;
    tc "decoder: a wrong-typed value names line and field" test_decoder_wrong_type;
    tc "decoder: integers round-trip exactly at the edges" test_decoder_edge_ints;
    tc "provenance: without_how resets exactly the How fields" test_without_how ]
