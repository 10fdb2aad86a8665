(* Text profile report over a recorded Trace.ctx: an indented span tree
   with durations, plus flat aggregates (total time per span name) and a
   hot-spot table built from the "hotspot" instants the engine emits.
   This is the `--profile` terminal view; the Chrome JSON export is for
   the graphical timeline. *)

let pp_dur ppf us =
  if us >= 1_000_000.0 then Fmt.pf ppf "%.3f s" (us /. 1e6)
  else if us >= 1_000.0 then Fmt.pf ppf "%.3f ms" (us /. 1e3)
  else Fmt.pf ppf "%.1f us" us

(* indented tree of spans; instants other than hotspots shown inline *)
let pp_tree ppf cx =
  let rec node depth n =
    let pad = String.make (2 * depth) ' ' in
    match n with
    | Trace.Span s ->
      Fmt.pf ppf "%s%-*s %a@," pad
        (max 1 (32 - (2 * depth)))
        s.Trace.sp_name pp_dur (Trace.dur s);
      List.iter (node (depth + 1)) (Trace.sub s)
    | Trace.Instant i when i.Trace.i_cat = "hotspot" -> ignore i
    | Trace.Instant i -> Fmt.pf ppf "%s* %s@," pad i.Trace.i_name
  in
  Fmt.pf ppf "@[<v>";
  List.iter (node 0) (Trace.roots cx);
  Fmt.pf ppf "@]"

(* total duration and count per span name, sorted by total desc *)
let aggregates cx =
  let tbl = Hashtbl.create 16 in
  Trace.iter cx (function
    | Trace.Span s ->
      let total, count =
        Option.value (Hashtbl.find_opt tbl s.Trace.sp_name) ~default:(0.0, 0)
      in
      Hashtbl.replace tbl s.Trace.sp_name (total +. Trace.dur s, count + 1)
    | Trace.Instant _ -> ());
  Hashtbl.fold (fun name (total, count) acc -> (name, total, count) :: acc) tbl []
  |> List.sort (fun (n1, t1, _) (n2, t2, _) ->
         match compare t2 t1 with 0 -> compare n1 n2 | c -> c)

let pp_aggregates ppf cx =
  Fmt.pf ppf "@[<v>%-32s %10s %6s@," "span" "total" "count";
  List.iter
    (fun (name, total, count) ->
      Fmt.pf ppf "%-32s %10s %6d@," name
        (Fmt.str "%a" pp_dur total)
        count)
    (aggregates cx);
  Fmt.pf ppf "@]"

(* hot-spot rows recovered from "hotspot"-category instants
   (args: fn, blk, hits, winsts, cycles) *)
let hotspot_rows cx =
  let get args k =
    match List.assoc_opt k args with
    | Some (Trace.Int i) -> i
    | _ -> 0
  in
  let get_str args k =
    match List.assoc_opt k args with
    | Some (Trace.Str s) -> s
    | _ -> "?"
  in
  let acc = ref [] in
  Trace.iter cx (function
    | Trace.Instant i when i.Trace.i_cat = "hotspot" ->
      let a = i.Trace.i_args in
      acc :=
        (get_str a "fn", get_str a "blk", get a "hits", get a "winsts", get a "cycles")
        :: !acc
    | _ -> ());
  List.rev !acc

let pp_hotspots ppf cx =
  match hotspot_rows cx with
  | [] -> Fmt.pf ppf "(no hot-spot data; run with profiling enabled)"
  | rows ->
    Fmt.pf ppf "@[<v>%-24s %-12s %8s %10s %10s@," "function" "block" "hits"
      "winsts" "cycles";
    List.iter
      (fun (fn, blk, hits, wi, cyc) ->
        Fmt.pf ppf "%-24s %-12s %8d %10d %10d@," fn blk hits wi cyc)
      rows;
    Fmt.pf ppf "@]"

(* analysis-cache counters from the pipeline's "analysis-cache" instant
   (args: hits, misses, invalidations, hit_rate_pct); last one wins when
   several pipelines ran under this ctx *)
let cache_counters cx =
  match List.rev (Trace.instants_named cx "analysis-cache") with
  | [] -> None
  | i :: _ ->
    let get k =
      match List.assoc_opt k i.Trace.i_args with Some (Trace.Int v) -> v | _ -> 0
    in
    let rate =
      match List.assoc_opt "hit_rate_pct" i.Trace.i_args with
      | Some (Trace.Float f) -> f
      | _ -> 0.0
    in
    Some (get "hits", get "misses", get "invalidations", rate)

let pp_cache ppf cx =
  match cache_counters cx with
  | None -> Fmt.pf ppf "(no analysis-cache data; the compile was not traced)"
  | Some (h, m, inv, rate) ->
    Fmt.pf ppf "%d hits, %d misses, %d invalidations (%.0f%% hit rate)" h m inv rate

let pp_report ppf cx =
  Trace.close_all cx;
  Fmt.pf ppf "@[<v>== span tree ==@,%a@,== totals by span ==@,%a@," pp_tree cx
    pp_aggregates cx;
  Fmt.pf ppf "== analysis cache ==@,%a@," pp_cache cx;
  Fmt.pf ppf "== hot spots ==@,%a@]" pp_hotspots cx
