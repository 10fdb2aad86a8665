(* Byte-addressed memory for the virtual GPU.

   Pointers are 63-bit integers carrying the address space in the top tag
   bits: [tag << tag_shift | offset]. Global and constant memories are
   device-wide; shared memory is one instance per team (each engine
   executes its teams sequentially, so a single buffer per engine is
   re-initialized per team); local memory is a per-thread stack.

   [fork] derives a per-domain view for the parallel engine: the global
   and constant buffers are physically shared (teams address disjoint
   allocations by construction, so concurrent byte access is
   well-defined), while shared/local memory — per-team by definition —
   is private to the fork.

   Memory is paid for only where it is touched. Buffers grow on access
   ([ensure]) and every byte past the grown end reads as zero, so a
   reserved-but-untouched range costs nothing: [reserve_arena] claims
   the kernel-malloc arena's addresses without growing the global buffer
   (unless several domains will share it), and a thread's stack grows to
   its high-water mark rather than to [local_stack_bytes]. Addresses,
   bounds checks and fault text are those of fully materialized memory.

   All accesses funnel through [read_bytes]/[write_bytes]; an optional
   [watcher] observes allocations, initializations and accesses so the
   SIMT sanitizer can maintain shadow state without this module knowing
   anything about it. Invalid pointers raise structured [Fault.t] reports
   instead of untyped errors. *)

open Ozo_ir.Types

let tag_shift = 44
let tag_global = 1
let tag_shared = 2
let tag_local = 3
let tag_const = 4

let tag_of_space = function
  | Global -> tag_global
  | Shared -> tag_shared
  | Local -> tag_local
  | Constant -> tag_const

let space_name = function
  | Global -> "global"
  | Shared -> "shared"
  | Local -> "local"
  | Constant -> "constant"

let encode space offset =
  (* an offset that spills into the tag bits would silently change the
     address space of the pointer; fault structurally instead *)
  if offset < 0 || offset lsr tag_shift <> 0 then
    Fault.fail Fault.Oob
      ~access:{ Fault.a_ptr = offset; a_space = space_name space;
                a_offset = offset; a_bytes = 0 }
      "offset 0x%x overflows the %s address space (max 0x%x)" offset
      (space_name space)
      ((1 lsl tag_shift) - 1)
  else (tag_of_space space lsl tag_shift) lor offset

let decode ptr =
  let tag = ptr lsr tag_shift in
  let offset = ptr land ((1 lsl tag_shift) - 1) in
  let space =
    if tag = tag_global then Global
    else if tag = tag_shared then Shared
    else if tag = tag_local then Local
    else if tag = tag_const then Constant
    else
      Fault.fail Fault.Oob
        ~access:{ Fault.a_ptr = ptr; a_space = "?"; a_offset = offset; a_bytes = 0 }
        "invalid pointer 0x%x (bad address-space tag %d)" ptr tag
  in
  (space, offset)

(* Split decode for callers that cache the two halves separately (the
   engine's coalescing scratch); same faulting behaviour as [decode]. *)
let decode_off ptr = ptr land ((1 lsl tag_shift) - 1)

let decode_space ptr =
  let tag = ptr lsr tag_shift in
  if tag = tag_global then Global
  else if tag = tag_shared then Shared
  else if tag = tag_local then Local
  else if tag = tag_const then Constant
  else
    Fault.fail Fault.Oob
      ~access:{ Fault.a_ptr = ptr; a_space = "?"; a_offset = decode_off ptr;
                a_bytes = 0 }
      "invalid pointer 0x%x (bad address-space tag %d)" ptr tag

let null = 0

type buf = { mutable data : Bytes.t; mutable used : int }

let create_buf initial = { data = Bytes.make initial '\000'; used = 0 }

(* Hard ceiling on any one device buffer: a corrupted pointer may carry an
   offset up to 2^44, which must fault instead of asking the host OS for
   terabytes. Well above every proxy's working set. *)
let max_buf_bytes = 1 lsl 28

let check_limit size =
  if size > max_buf_bytes then
    Fault.fail Fault.Oob "access at 0x%x exceeds the device memory limit (0x%x bytes)"
      size max_buf_bytes

let ensure buf size =
  check_limit size;
  if size > Bytes.length buf.data then begin
    let cap = min max_buf_bytes (max size (2 * Bytes.length buf.data)) in
    let data = Bytes.make cap '\000' in
    Bytes.blit buf.data 0 data 0 (Bytes.length buf.data);
    buf.data <- data
  end

(* Bump allocation; [free] is a no-op (the device heap is released when the
   device is destroyed, like a simple arena allocator). *)
let bump buf size =
  let aligned = (buf.used + 7) land lnot 7 in
  ensure buf (aligned + size);
  buf.used <- aligned + size;
  aligned

(* Observer interface for the sanitizer's shadow state. [w_read]/[w_write]
   run before the access is performed (so a write observer still sees the
   old contents); [w_write] additionally receives the bytes about to be
   written. [w_alloc] announces a new live allocation, [w_init] a
   host/loader-side initialization of a byte range, [w_sp_reset] a
   thread-local stack-pointer rewind (allocas above it die). *)
type watcher = {
  w_alloc : addrspace -> thread:int -> offset:int -> size:int -> unit;
  w_init : addrspace -> offset:int -> size:int -> unit;
  w_read : thread:int -> space:addrspace -> offset:int -> ptr:int -> bytes:int -> unit;
  w_write : thread:int -> space:addrspace -> offset:int -> ptr:int -> src:Bytes.t -> unit;
  w_sp_reset : thread:int -> sp:int -> unit;
}

type t = {
  global : buf;
  constant : buf;
  shared : buf; (* current team's instance *)
  mutable shared_size : int; (* static shared allocation per team *)
  locals : Bytes.t array; (* per thread in the current team *)
  local_sp : int array;   (* per-thread stack pointer *)
  mutable watch : watcher option;
}

let local_stack_bytes = 16 * 1024

(* Thread-local stacks materialize on first touch and then grow to their
   high-water mark (doubling, from [local_stack_min] up to
   [local_stack_bytes]): a device sized for 2048 resident threads would
   otherwise pay 32MB of zeroed buffers at creation, and a touched thread
   16KB, even though a typical launch touches at most a block's worth of
   threads and a few hundred bytes of each stack. Bytes past the
   high-water mark read as zeros either way, so laziness is unobservable;
   bounds are always checked against the full [local_stack_bytes]. *)
let local_stack_min = 256

let create ~threads_per_team =
  { global = create_buf (1 lsl 16);
    constant = create_buf (1 lsl 12);
    shared = create_buf (1 lsl 12);
    shared_size = 0;
    locals = Array.make threads_per_team Bytes.empty;
    local_sp = Array.make threads_per_team 0;
    watch = None }

(* The stack of [thread], grown to hold at least [need] bytes. Callers
   have bounds-checked [need <= local_stack_bytes]. *)
let local_buf t thread need =
  let b = t.locals.(thread) in
  let len = Bytes.length b in
  if need <= len then b
  else begin
    let nb =
      Bytes.make (min local_stack_bytes (max need (max local_stack_min (2 * len)))) '\000'
    in
    Bytes.blit b 0 nb 0 len;
    t.locals.(thread) <- nb;
    nb
  end

let set_watcher t w = t.watch <- Some w
let has_watcher t = t.watch <> None
let threads_per_team t = Array.length t.locals

let buf_of t = function
  | Global -> t.global
  | Constant -> t.constant
  | Shared -> t.shared
  | Local -> Fault.fail Fault.Invalid "local memory access requires a thread index"

let oob_access ptr space off n =
  { Fault.a_ptr = ptr; a_space = space_name space; a_offset = off; a_bytes = n }

let check_local_bounds ptr off n =
  if off + n > local_stack_bytes then
    Fault.fail Fault.Oob
      ~access:(oob_access ptr Local off n)
      "local access at 0x%x (%dB) beyond the %dB thread stack" off n local_stack_bytes

(* sanitizer support: current content of one byte, without growing the
   buffer ([ensure] has not necessarily run for this offset yet) *)
let peek_byte t ~thread space off =
  match space with
  | Local ->
    let b = t.locals.(thread) in
    if off < Bytes.length b then Bytes.get b off else '\000'
  | _ ->
    let b = buf_of t space in
    if off < Bytes.length b.data then Bytes.get b.data off else '\000'

(* Raw accessors. Local space needs the in-team thread index. *)

let read_bytes t ~thread ptr n =
  let space, off = decode ptr in
  (match t.watch with
  | Some w -> w.w_read ~thread ~space ~offset:off ~ptr ~bytes:n
  | None -> ());
  match space with
  | Local ->
    check_local_bounds ptr off n;
    Bytes.sub (local_buf t thread (off + n)) off n
  | _ ->
    let b = buf_of t space in
    ensure b (off + n);
    Bytes.sub b.data off n

let write_bytes t ~thread ptr src =
  let space, off = decode ptr in
  let n = Bytes.length src in
  (match t.watch with
  | Some w -> w.w_write ~thread ~space ~offset:off ~ptr ~src
  | None -> ());
  match space with
  | Local ->
    check_local_bounds ptr off n;
    Bytes.blit src 0 (local_buf t thread (off + n)) off n
  | Constant ->
    Fault.fail Fault.Invalid
      ~access:(oob_access ptr Constant off n)
      "store to read-only constant memory at 0x%x" ptr
  | _ ->
    let b = buf_of t space in
    ensure b (off + n);
    Bytes.blit src 0 b.data off n

let load_int t ~thread ptr = function
  | I1 -> Char.code (Bytes.get (read_bytes t ~thread ptr 1) 0) land 1
  | I32 -> Int32.to_int (Bytes.get_int32_le (read_bytes t ~thread ptr 4) 0)
  | I64 | Ptr _ -> Int64.to_int (Bytes.get_int64_le (read_bytes t ~thread ptr 8) 0)
  | F64 -> Fault.fail Fault.Invalid "integer load of f64"

let store_int t ~thread ptr typ v =
  let b =
    match typ with
    | I1 -> Bytes.make 1 (Char.chr (v land 1))
    | I32 ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int v);
      b
    | I64 | Ptr _ ->
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 (Int64.of_int v);
      b
    | F64 -> Fault.fail Fault.Invalid "integer store of f64"
  in
  write_bytes t ~thread ptr b

let load_float t ~thread ptr =
  Int64.float_of_bits (Bytes.get_int64_le (read_bytes t ~thread ptr 8) 0)

let store_float t ~thread ptr v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  write_bytes t ~thread ptr b

(* Allocation-free accessors for the engine's hot path. Callers pass the
   pre-decoded [space]/[off] (the engine caches [decode] results in its
   coalescing scratch) plus the original [ptr] for fault messages.

   LEGAL ONLY when no watcher is installed — they skip the watcher hooks
   that [read_bytes]/[write_bytes] run, so a sanitized run must use the
   byte-string accessors above. Fault behaviour is otherwise identical:
   local bounds checks, the constant-store fault and buffer growth all
   mirror the slow path.

   The 64/32-bit raw accessors are compiler primitives rather than the
   [Bytes.get_int64_le] wrappers: on a non-flambda compiler the wrappers
   are real calls that box their int64 on every access, which is most of
   the interpreter's allocation. The unaligned primitives are
   native-endian; bounds are guaranteed by [ensure]/[check_local_bounds]
   at every call site, and the little-endian assumption (matching the
   seed's _le accessors) is asserted at engine start via [check_host]. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let check_host () =
  if Sys.big_endian then
    Fault.fail Fault.Invalid "the fast-path memory accessors require a little-endian host"

let fast_load_int t ~thread ~space ~off ~ptr typ =
  match space with
  | Local -> (
    match typ with
    | I1 ->
      check_local_bounds ptr off 1;
      Char.code (Bytes.get (local_buf t thread (off + 1)) off) land 1
    | I32 ->
      check_local_bounds ptr off 4;
      Int32.to_int (get32 (local_buf t thread (off + 4)) off)
    | I64 | Ptr _ ->
      check_local_bounds ptr off 8;
      Int64.to_int (get64 (local_buf t thread (off + 8)) off)
    | F64 -> Fault.fail Fault.Invalid "integer load of f64")
  | _ -> (
    let b = buf_of t space in
    match typ with
    | I1 ->
      ensure b (off + 1);
      Char.code (Bytes.get b.data off) land 1
    | I32 ->
      ensure b (off + 4);
      Int32.to_int (get32 b.data off)
    | I64 | Ptr _ ->
      ensure b (off + 8);
      Int64.to_int (get64 b.data off)
    | F64 -> Fault.fail Fault.Invalid "integer load of f64")

(* The float variants read into / write from a caller-provided float
   array slot instead of returning the value: a float returned (or
   passed) across a module boundary is boxed on every call, while an
   unboxed-array element write is free. *)
let fast_load_float_at t ~thread ~space ~off ~ptr (dst : float array) i =
  match space with
  | Local ->
    check_local_bounds ptr off 8;
    dst.(i) <- Int64.float_of_bits (get64 (local_buf t thread (off + 8)) off)
  | _ ->
    let b = buf_of t space in
    ensure b (off + 8);
    dst.(i) <- Int64.float_of_bits (get64 b.data off)

let fast_store_int t ~thread ~space ~off ~ptr typ v =
  match space with
  | Local -> (
    match typ with
    | I1 ->
      check_local_bounds ptr off 1;
      Bytes.set (local_buf t thread (off + 1)) off (Char.chr (v land 1))
    | I32 ->
      check_local_bounds ptr off 4;
      set32 (local_buf t thread (off + 4)) off (Int32.of_int v)
    | I64 | Ptr _ ->
      check_local_bounds ptr off 8;
      set64 (local_buf t thread (off + 8)) off (Int64.of_int v)
    | F64 -> Fault.fail Fault.Invalid "integer store of f64")
  | Constant ->
    let n = match typ with I1 -> 1 | I32 -> 4 | _ -> 8 in
    Fault.fail Fault.Invalid
      ~access:(oob_access ptr Constant off n)
      "store to read-only constant memory at 0x%x" ptr
  | _ -> (
    let b = buf_of t space in
    match typ with
    | I1 ->
      ensure b (off + 1);
      Bytes.set b.data off (Char.chr (v land 1))
    | I32 ->
      ensure b (off + 4);
      set32 b.data off (Int32.of_int v)
    | I64 | Ptr _ ->
      ensure b (off + 8);
      set64 b.data off (Int64.of_int v)
    | F64 -> Fault.fail Fault.Invalid "integer store of f64")

let fast_store_float_from t ~thread ~space ~off ~ptr (src : float array) i =
  match space with
  | Local ->
    check_local_bounds ptr off 8;
    set64 (local_buf t thread (off + 8)) off (Int64.bits_of_float src.(i))
  | Constant ->
    Fault.fail Fault.Invalid
      ~access:(oob_access ptr Constant off 8)
      "store to read-only constant memory at 0x%x" ptr
  | _ ->
    let b = buf_of t space in
    ensure b (off + 8);
    set64 b.data off (Int64.bits_of_float src.(i))

(* Initialize a global variable's storage at [offset] in its space. *)
let init_global t g offset =
  let write_words buf ws =
    ensure buf (offset + g.g_size);
    List.iteri
      (fun i w ->
        if (i * 8) + 8 <= g.g_size then Bytes.set_int64_le buf.data (offset + (i * 8)) w)
      ws
  in
  match g.g_space with
  | Local -> Fault.fail Fault.Invalid "global %s in local address space" g.g_name
  | space -> (
    let buf = buf_of t space in
    ensure buf (offset + g.g_size);
    (match g.g_init with
    | No_init -> ()
    | Zero_init -> Bytes.fill buf.data offset g.g_size '\000'
    | Words_init ws -> write_words buf ws);
    match (t.watch, g.g_init) with
    | Some w, (Zero_init | Words_init _) -> w.w_init space ~offset ~size:g.g_size
    | _ -> ())

(* Reset per-team state before a team starts executing. *)
let reset_team t ~shared_globals =
  Bytes.fill t.shared.data 0 (Bytes.length t.shared.data) '\000';
  List.iter (fun (g, off) -> init_global t g off) shared_globals;
  Array.fill t.local_sp 0 (Array.length t.local_sp) 0

let alloca t ~thread size =
  let sp = t.local_sp.(thread) in
  let aligned = (sp + 7) land lnot 7 in
  if aligned + size > local_stack_bytes then
    Fault.fail Fault.Oob
      ~access:(oob_access (encode Local aligned) Local aligned size)
      "thread-local stack overflow (alloca of %dB at sp 0x%x, stack is %dB)" size sp
      local_stack_bytes;
  t.local_sp.(thread) <- aligned + size;
  (match t.watch with
  | Some w -> w.w_alloc Local ~thread ~offset:aligned ~size
  | None -> ());
  encode Local aligned

let local_sp t ~thread = t.local_sp.(thread)

let set_local_sp t ~thread sp =
  t.local_sp.(thread) <- sp;
  match t.watch with Some w -> w.w_sp_reset ~thread ~sp | None -> ()

let alloc_in t space buf size =
  let off = bump buf size in
  (match t.watch with
  | Some w -> w.w_alloc space ~thread:0 ~offset:off ~size
  | None -> ());
  encode space off

let alloc_const t size = alloc_in t Constant t.constant size
let alloc_global t size = alloc_in t Global t.global size

(* --- domain-parallel support ------------------------------------------- *)

(* Reserve a contiguous per-team kernel-malloc arena above the host
   allocations: [teams * cap] bytes, base aligned to a 128-byte segment
   boundary so every team window starts at the same phase of the
   coalescing segmentation regardless of prior host allocations. The
   region is claimed ([used] advances) and checked against the device
   memory limit. With [~pregrow] (a multi-domain launch) the buffer is
   also grown over it, so no [ensure] growth can happen concurrently
   during team execution for in-bounds programs; otherwise the bytes are
   paid for only when a kernel touches them. Returns the base offset. *)
let reserve_arena t ~pregrow ~teams ~cap =
  let base = (t.global.used + 127) land lnot 127 in
  let top = base + (teams * cap) in
  if pregrow then ensure t.global top else check_limit top;
  t.global.used <- top;
  base

(* Announce a kernel-side allocation carved out of the arena: fires the
   sanitizer's allocation hook (which also clears stale shadow state for
   the range) and returns the encoded pointer. The bump itself is done
   by the engine's per-team cursor, not here. *)
let mark_alloc t space ~offset ~size =
  (match t.watch with
  | Some w -> w.w_alloc space ~thread:0 ~offset ~size
  | None -> ());
  encode space offset

(* Per-domain view for the parallel engine: global/constant buffers are
   the parent's (physically shared — teams touch disjoint allocations by
   construction, and [reserve_arena ~pregrow:true] grows the global buffer
   so the backing [Bytes.t] is not replaced mid-run); shared and local memory
   are fresh per-fork instances since they are per-team state. The fork
   starts with no watcher — a sanitizing launch installs each domain's
   own forked sanitizer. *)
let fork t =
  { global = t.global;
    constant = t.constant;
    shared = create_buf (Bytes.length t.shared.data);
    shared_size = t.shared_size;
    locals = Array.make (Array.length t.locals) Bytes.empty;
    local_sp = Array.make (Array.length t.local_sp) 0;
    watch = None }
