(* Execution statistics collected by the SIMT engine, the reproduction's
   stand-in for Nsight Compute counters.

   Counting granularity — per-lane vs per-transaction. The memory
   counters deliberately use two different units, mirroring the hardware
   counters they stand in for:

   - [shared_accesses] is *per active lane*: a warp-wide shared-memory
     load with 32 active lanes bumps it by 32. Shared memory on real
     hardware is banked per lane, so lane count is the natural unit
     (and what `smsp__inst_executed_op_shared_*` reports).

   - [global_transactions] is *per 128-byte segment per warp access*:
     the engine coalesces the active lanes' addresses and counts the
     number of distinct segments touched — 1 for a fully-coalesced
     access, up to one per lane for a scattered one. This is the DRAM
     transaction count (`l1tex__t_sectors`-style), which is what the
     paper's coalescing-sensitive optimizations actually move.

   [atomics] counts per *warp access* that reaches global memory,
   regardless of active-lane count; [barriers] per warp arrival;
   [warp_instructions] per strand issue; [lane_instructions] per active
   lane. As a consequence, [memory_cycles] below weights shared traffic
   by lanes but global traffic by segments — so a shared-heavy kernel's
   memory share is overweighted relative to a coalesced global-heavy
   one. That skew is intentional and baked into the golden snapshots:
   changing any counting unit changes simulated results and requires a
   deliberate golden-counters regeneration (see test/test_golden.ml). *)

type t = {
  mutable warp_instructions : int;  (* instruction issues (per strand) *)
  mutable lane_instructions : int;  (* instruction executions (per active lane) *)
  mutable barriers : int;           (* per warp arrival *)
  mutable aligned_barriers : int;   (* subset of [barriers]: aligned form *)
  mutable global_transactions : int;(* per 128B segment per warp access *)
  mutable shared_accesses : int;    (* per active lane *)
  mutable local_accesses : int;     (* per active lane (stack + spill traffic) *)
  mutable atomics : int;            (* per warp access to global memory *)
  mutable mallocs : int;
  mutable calls : int;
  mutable divergent_branches : int;
  mutable cycles : int;             (* accumulated cost-model cycles *)
  mutable traps : int;
}

let create () =
  { warp_instructions = 0; lane_instructions = 0; barriers = 0; aligned_barriers = 0;
    global_transactions = 0; shared_accesses = 0; local_accesses = 0; atomics = 0;
    mallocs = 0; calls = 0; divergent_branches = 0; cycles = 0; traps = 0 }

(* Every counter as (name, get, set), in the one order the journal's
   counters array uses. [equal], [add] and the measurement schema walk
   this list, so a new counter is one more entry here plus its field. *)
let fields : (string * (t -> int) * (t -> int -> unit)) list =
  [ ( "warp_instructions",
      (fun c -> c.warp_instructions),
      fun c v -> c.warp_instructions <- v );
    ( "lane_instructions",
      (fun c -> c.lane_instructions),
      fun c v -> c.lane_instructions <- v );
    ("barriers", (fun c -> c.barriers), fun c v -> c.barriers <- v);
    ("aligned_barriers", (fun c -> c.aligned_barriers), fun c v -> c.aligned_barriers <- v);
    ( "global_transactions",
      (fun c -> c.global_transactions),
      fun c v -> c.global_transactions <- v );
    ("shared_accesses", (fun c -> c.shared_accesses), fun c v -> c.shared_accesses <- v);
    ("local_accesses", (fun c -> c.local_accesses), fun c v -> c.local_accesses <- v);
    ("atomics", (fun c -> c.atomics), fun c v -> c.atomics <- v);
    ("mallocs", (fun c -> c.mallocs), fun c v -> c.mallocs <- v);
    ("calls", (fun c -> c.calls), fun c v -> c.calls <- v);
    ( "divergent_branches",
      (fun c -> c.divergent_branches),
      fun c v -> c.divergent_branches <- v );
    ("cycles", (fun c -> c.cycles), fun c v -> c.cycles <- v);
    ("traps", (fun c -> c.traps), fun c v -> c.traps <- v) ]

(* structural equality over every field; used by the golden-counters
   determinism tests to pin that perf work never changes simulated results *)
let equal a b = List.for_all (fun (_, get, _) -> get a = get b) fields

let add a b =
  let c = create () in
  List.iter (fun (_, get, set) -> set c (get a + get b)) fields;
  c

(* cycles attributable to the memory system under the cost model [p];
   the latency-hiding part of the makespan estimate. [local_accesses]
   stays out: local traffic is charged as issue-side [c_local_access]
   cycles in the engine (stack/L1-resident), exactly as before the
   counter existed, which keeps the golden cycle totals stable. *)
let memory_cycles (p : Cost.params) c =
  (c.global_transactions * p.Cost.c_global_segment)
  + (c.shared_accesses * p.Cost.c_shared_access)
  + (c.atomics * p.Cost.c_atomic_global)
  + (c.mallocs * p.Cost.c_malloc)

let pp ppf c =
  Fmt.pf ppf
    "@[<v>warp insts   %d@,lane insts   %d@,barriers     %d (aligned %d)@,\
     global txns  %d@,shared accs  %d@,local accs   %d@,atomics      %d@,\
     mallocs      %d@,calls        %d@,div branches %d@,cycles       %d@]"
    c.warp_instructions c.lane_instructions c.barriers c.aligned_barriers
    c.global_transactions c.shared_accesses c.local_accesses c.atomics
    c.mallocs c.calls c.divergent_branches c.cycles
