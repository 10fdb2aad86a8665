(* Crash-safe campaign journal: one JSON object per line, appended and
   flushed (+fsynced) after every completed measurement, so a campaign
   killed at any instant loses at most the row in flight.

   Line 1 is a header carrying a fingerprint of the campaign
   configuration (proxy list, repeats, injection, ...); resume refuses a
   journal whose fingerprint does not match, so a stale file can never
   silently splice rows from a different campaign. Every following line
   is {"seq": N, "m": {...}} with the *complete* measurement — including
   the structured fault and all engine counters — so replayed rows
   render byte-identically through [Report.pp_csv]. The measurement
   object is the field table's encoding ([Ozo_harness.Schema]); this
   module owns only the file around it.

   There is one schema: the header carries [version] and [load] refuses
   any other, and every measurement field is required. Journals are
   local scratch, not an archive, so an old file is an error to
   re-run, not a format to decode. [load] tolerates a torn final line
   (the row being written when the process died, which no longer
   parses as JSON): it is simply dropped and re-measured on resume.
   Any other malformed line is a hard error naming its 1-based line. *)

module E = Ozo_harness.Experiments
module Json = Ozo_obs.Json

let ( let* ) = Result.bind

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
  Printf.bprintf b "{\"journal\":\"ozo-campaign\",\"version\":%d,\"fingerprint\":" version;
  Json.buf_add_string b fingerprint;
  Buffer.add_string b "}\n";
  output_string oc (Buffer.contents b);
  sync oc;
  { w_oc = oc }

let reopen ~path : writer =
  { w_oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path }

let append (w : writer) ~seq (m : E.measurement) =
  let b = Buffer.create 512 in
  Printf.bprintf b "{\"seq\":%d,\"m\":" seq;
  E.row_codec.enc b m;
  Buffer.add_string b "}\n";
  output_string w.w_oc (Buffer.contents b);
  sync w.w_oc

let close (w : writer) = close_out w.w_oc

type entry = { e_seq : int; e_m : E.measurement }

(* every error names its 1-based journal line *)
let at line r = Result.map_error (Printf.sprintf "line %d: %s" line) r

let load ~path : (string * entry list, string) result =
  if not (Sys.file_exists path) then Error ("no such journal: " ^ path)
  else
    match In_channel.with_open_bin path In_channel.input_lines with
    | [] -> at 1 (Error "empty journal")
    | header :: rows ->
      let* fp =
        at 1
          (let* hj =
             Result.map_error (( ^ ) "bad journal header: ") (Json.parse header)
           in
           let* v = E.Codecs.(member "version" int hj) in
           if v <> version then
             Error (Printf.sprintf "journal version %d, expected %d" v version)
           else E.Codecs.(member "fingerprint" str hj))
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
               let* seq = E.Codecs.(member "seq" int j) in
               let* m = E.Codecs.member "m" E.row_codec j in
               Ok { e_seq = seq; e_m = m })
          in
          go (lnum + 1) (e :: acc) rest
      in
      let* entries = go 2 [] rows in
      Ok (fp, entries)
