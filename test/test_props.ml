(* Property-based differential testing: random kernels are lowered through
   every ABI, optimized at every level, executed on the virtual GPU and
   compared against a host evaluation of the same AST. This is the
   "semantic preservation" invariant of DESIGN.md: no pass combination may
   change observable results. *)

open Ozo_frontend.Ast
module Lower = Ozo_frontend.Lower
module C = Ozo_core.Codesign
module Device = Ozo_vgpu.Device
module Engine = Ozo_vgpu.Engine
open Util

(* --- random expression kernels ----------------------------------------- *)

(* Expressions over: the loop variable i, two int params a b, one float
   param x, and loads from a data array. Division/remainder are guarded
   against zero. *)
let gen_expr : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let base_int =
    oneof
      [ return (P "i"); return (P "a"); return (P "b");
        map (fun n -> Int n) (int_range (-20) 20);
        return (Ld (P "data", Rem (P "i", Int 16), MI64)) ]
  in
  let base_float =
    oneof
      [ return (P "x"); map (fun f -> Float (Float.of_int f /. 4.0)) (int_range (-40) 40);
        return (Ld (P "fdata", Rem (P "i", Int 16), MF64)) ]
  in
  (* depth-bounded generator; [want_float] selects the type *)
  fix
    (fun self (depth, want_float) ->
      if depth = 0 then if want_float then base_float else base_int
      else
        let sub_i = self (depth - 1, false) in
        let sub_f = self (depth - 1, true) in
        if want_float then
          frequency
            [ (2, base_float);
              (3, map2 (fun a b -> Add (a, b)) sub_f sub_f);
              (3, map2 (fun a b -> Sub (a, b)) sub_f sub_f);
              (3, map2 (fun a b -> Mul (a, b)) sub_f sub_f);
              (2, map2 (fun a b -> Min (a, b)) sub_f sub_f);
              (2, map2 (fun a b -> Max (a, b)) sub_f sub_f);
              (1, map (fun a -> Fabs a) sub_f);
              (1, map (fun a -> Sqrt (Add (Fabs a, Float 0.5))) sub_f);
              (1, map (fun a -> ToFloat a) sub_i);
              (2, map3 (fun c a b -> Select (Cmp (CLt, c, Int 3), a, b)) sub_i sub_f sub_f)
            ]
        else
          frequency
            [ (2, base_int);
              (3, map2 (fun a b -> Add (a, b)) sub_i sub_i);
              (3, map2 (fun a b -> Sub (a, b)) sub_i sub_i);
              (3, map2 (fun a b -> Mul (a, b)) sub_i sub_i);
              (1, map2 (fun a b -> Div (a, Add (Mul (b, b), Int 1))) sub_i sub_i);
              (1, map2 (fun a b -> Rem (a, Add (Mul (b, b), Int 1))) sub_i sub_i);
              (2, map2 (fun a b -> Min (a, b)) sub_i sub_i);
              (2, map2 (fun a b -> Max (a, b)) sub_i sub_i);
              (1, map2 (fun a b -> Band (a, b)) sub_i sub_i);
              (1, map2 (fun a b -> Bxor (a, b)) sub_i sub_i);
              (2, map2 (fun op (a, b) -> Cmp (op, a, b))
                   (oneofl [ CEq; CNe; CLt; CLe; CGt; CGe ])
                   (pair sub_i sub_i));
              (1, map (fun a -> ToInt (Min (Max (a, Float (-1e6)), Float 1e6))) sub_f);
              (2, map3 (fun c a b -> Select (Cmp (CGe, c, Int 0), a, b)) sub_i sub_i sub_i)
            ])
    (3, false)

(* host evaluation of the generated expression *)
type hval = HI of int | HF of float

let rec host_eval env = function
  | Int n -> HI n
  | Float f -> HF f
  | P n -> List.assoc n env
  | Add (a, b) -> arith env ( + ) ( +. ) a b
  | Sub (a, b) -> arith env ( - ) ( -. ) a b
  | Mul (a, b) -> arith env ( * ) ( *. ) a b
  | Div (a, b) -> arith env (fun x y -> x / y) ( /. ) a b
  | Rem (a, b) -> (
    match (host_eval env a, host_eval env b) with
    | HI x, HI y -> HI (x mod y)
    | _ -> assert false)
  | Band (a, b) -> int2 env ( land ) a b
  | Bxor (a, b) -> int2 env ( lxor ) a b
  | Shl (a, b) -> int2 env (fun x y -> x lsl (y land 62)) a b
  | Shr (a, b) -> int2 env (fun x y -> x asr (y land 62)) a b
  | Min (a, b) -> arith env min min a b
  | Max (a, b) -> arith env max max a b
  | Neg a -> (
    match host_eval env a with HI x -> HI (-x) | HF x -> HF (-.x))
  | Sqrt a -> funf env sqrt a
  | Expf a -> funf env exp a
  | Logf a -> funf env log a
  | Sinf a -> funf env sin a
  | Cosf a -> funf env cos a
  | Fabs a -> funf env Float.abs a
  | ToFloat a -> (
    match host_eval env a with HI x -> HF (float_of_int x) | HF _ -> assert false)
  | ToInt a -> (
    match host_eval env a with HF x -> HI (int_of_float x) | HI _ -> assert false)
  | Cmp (op, a, b) ->
    let r =
      match (host_eval env a, host_eval env b) with
      | HI x, HI y -> (
        match op with CEq -> x = y | CNe -> x <> y | CLt -> x < y | CLe -> x <= y
        | CGt -> x > y | CGe -> x >= y)
      | HF x, HF y -> (
        match op with CEq -> x = y | CNe -> x <> y | CLt -> x < y | CLe -> x <= y
        | CGt -> x > y | CGe -> x >= y)
      | _ -> assert false
    in
    HI (if r then 1 else 0)
  | And (a, b) -> int2 env ( land ) a b
  | Or (a, b) -> int2 env ( lor ) a b
  | Not a -> ( match host_eval env a with HI x -> HI (x lxor 1) | _ -> assert false)
  | Select (c, a, b) -> (
    match host_eval env c with
    | HI 0 -> host_eval env b
    | HI _ -> host_eval env a
    | HF _ -> assert false)
  | Ld (_, idx, MI64) -> (
    match host_eval env idx with
    | HI i -> List.assoc (Printf.sprintf "__data%d" i) env
    | _ -> assert false)
  | Ld (_, idx, MF64) -> (
    match host_eval env idx with
    | HI i -> List.assoc (Printf.sprintf "__fdata%d" i) env
    | _ -> assert false)
  | Ld (_, _, MI32) -> assert false
  | OmpThreadNum | OmpNumThreads | OmpLevel | OmpTeamNum | OmpNumTeams -> assert false

and arith env fi ff a b =
  match (host_eval env a, host_eval env b) with
  | HI x, HI y -> HI (fi x y)
  | HF x, HF y -> HF (ff x y)
  | _ -> assert false

and int2 env f a b =
  match (host_eval env a, host_eval env b) with
  | HI x, HI y -> HI (f x y)
  | _ -> assert false

and funf env f a =
  match host_eval env a with HF x -> HF (f x) | HI _ -> assert false

let rec expr_is_float = function
  | Float _ | Sqrt _ | Expf _ | Logf _ | Sinf _ | Cosf _ | Fabs _ | ToFloat _ -> true
  | P "x" -> true
  | P _ | Int _ -> false
  | Add (a, _) | Sub (a, _) | Mul (a, _) | Div (a, _) | Min (a, _) | Max (a, _) | Neg a ->
    expr_is_float a
  | Select (_, a, _) -> expr_is_float a
  | Ld (_, _, MF64) -> true
  | _ -> false

let n_items = 48
let data = Array.init 16 (fun i -> (i * 7) - 20)
let fdata = Array.init 16 (fun i -> (float_of_int i *. 0.75) -. 3.0)

let kernel_of_expr e =
  let store =
    if expr_is_float e then Store (P "out", P "i", MF64, e)
    else Store (P "out", P "i", MI64, e)
  in
  { k_name = "k";
    k_params =
      [ ("out", TInt); ("data", TInt); ("fdata", TInt); ("a", TInt); ("b", TInt);
        ("x", TFloat); ("n", TInt) ];
    k_construct = Distribute_parallel_for ("i", P "n", [ store ]) }

let host_results e =
  Array.init n_items (fun i ->
      let env =
        [ ("i", HI i); ("a", HI 5); ("b", HI (-3)); ("x", HF 1.25) ]
        @ List.init 16 (fun j -> (Printf.sprintf "__data%d" j, HI data.(j)))
        @ List.init 16 (fun j -> (Printf.sprintf "__fdata%d" j, HF fdata.(j)))
      in
      host_eval env e)

let device_results build k isf =
  let r = C.Request.make ~build ~teams:2 ~threads:32 () in
  let c = C.compile_request r k in
  let dev = C.device_request r c in
  let out = Device.alloc dev (n_items * 8) in
  let dbuf = Device.alloc dev (16 * 8) in
  let fbuf = Device.alloc dev (16 * 8) in
  Device.write_i64_array dev dbuf data;
  Device.write_f64_array dev fbuf fdata;
  match
    C.launch_request r c dev
      [ Engine.Ai (Device.ptr out); Ai (Device.ptr dbuf); Ai (Device.ptr fbuf); Ai 5;
        Ai (-3); Af 1.25; Ai n_items ]
  with
  | Error e -> Error (Fmt.str "%a" Device.pp_error e)
  | Ok _ ->
    Ok
      (Array.init n_items (fun i ->
           if isf then HF (Device.read_f64 dev out i) else HI (Device.read_i64 dev out i)))

let hval_eq a b =
  match (a, b) with
  | HI x, HI y -> x = y
  | HF x, HF y ->
    (Float.is_nan x && Float.is_nan y)
    || x = y
    || Float.abs (x -. y) <= 1e-12 *. Float.max 1.0 (Float.abs x)
  | _ -> false

let builds_under_test =
  [ C.cuda; C.new_rt_nightly; C.new_rt_no_assumptions; C.new_rt; C.old_rt_nightly ]

let arbitrary_expr =
  QCheck.make gen_expr ~print:(fun e ->
      let rec s = function
        | Int n -> string_of_int n
        | Float f -> string_of_float f
        | P n -> n
        | Add (a, b) -> bin "+" a b
        | Sub (a, b) -> bin "-" a b
        | Mul (a, b) -> bin "*" a b
        | Div (a, b) -> bin "/" a b
        | Rem (a, b) -> bin "%" a b
        | Band (a, b) -> bin "&" a b
        | Bxor (a, b) -> bin "^" a b
        | Shl (a, b) -> bin "<<" a b
        | Shr (a, b) -> bin ">>" a b
        | Min (a, b) -> "min" ^ bin "," a b
        | Max (a, b) -> "max" ^ bin "," a b
        | Neg a -> "-" ^ s a
        | Sqrt a -> "sqrt(" ^ s a ^ ")"
        | Expf a -> "exp(" ^ s a ^ ")"
        | Logf a -> "log(" ^ s a ^ ")"
        | Sinf a -> "sin(" ^ s a ^ ")"
        | Cosf a -> "cos(" ^ s a ^ ")"
        | Fabs a -> "abs(" ^ s a ^ ")"
        | ToFloat a -> "float(" ^ s a ^ ")"
        | ToInt a -> "int(" ^ s a ^ ")"
        | Cmp (_, a, b) -> bin "?" a b
        | And (a, b) -> bin "&&" a b
        | Or (a, b) -> bin "||" a b
        | Not a -> "!" ^ s a
        | Select (c, a, b) -> "sel(" ^ s c ^ "," ^ s a ^ "," ^ s b ^ ")"
        | Ld (_, i, _) -> "data[" ^ s i ^ "]"
        | OmpThreadNum | OmpNumThreads | OmpLevel | OmpTeamNum | OmpNumTeams -> "omp"
      and bin op a b = "(" ^ s a ^ op ^ s b ^ ")"
      in
      s e)

let prop_all_builds_match_host =
  QCheck.Test.make ~name:"random kernels: every build matches the host" ~count:60
    arbitrary_expr (fun e ->
      let k = kernel_of_expr e in
      let isf = expr_is_float e in
      let expected = host_results e in
      List.for_all
        (fun b ->
          match device_results b k isf with
          | Error msg -> QCheck.Test.fail_reportf "%s: %s" b.C.b_label msg
          | Ok got ->
            Array.for_all2 (fun a g -> hval_eq a g) expected got
            || QCheck.Test.fail_reportf "%s: mismatch" b.C.b_label)
        builds_under_test)

(* random kernels with control flow: If and a sequential inner loop *)
let gen_stmt_kernel : (kernel * (int -> int)) QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 5 >>= fun iters ->
  int_range (-10) 10 >>= fun addend ->
  int_range 2 5 >>= fun modulus ->
  int_range (-5) 5 >>= fun base ->
  let body =
    [ Local ("acc", TInt, Some (Int base));
      For
        ( "j",
          Int 0,
          Int iters,
          [ If
              ( Cmp (CEq, Rem (Add (P "i", P "j"), Int modulus), Int 0),
                [ Set ("acc", Add (P "acc", Int addend)) ],
                [ Set ("acc", Sub (P "acc", P "j")) ] )
          ] );
      Store (P "out", P "i", MI64, P "acc")
    ]
  in
  let k =
    { k_name = "k"; k_params = [ ("out", TInt); ("n", TInt) ];
      k_construct = Distribute_parallel_for ("i", P "n", body) }
  in
  let host i =
    let acc = ref base in
    for j = 0 to iters - 1 do
      if (i + j) mod modulus = 0 then acc := !acc + addend else acc := !acc - j
    done;
    !acc
  in
  return (k, host)

let prop_control_flow_kernels =
  QCheck.Test.make ~name:"random control-flow kernels match host" ~count:40
    (QCheck.make gen_stmt_kernel ~print:(fun _ -> "<kernel>"))
    (fun (k, host) ->
      let expected = Array.init n_items host in
      List.for_all
        (fun b ->
          let r = C.Request.make ~build:b ~teams:2 ~threads:32 () in
          let c = C.compile_request r k in
          let dev = C.device_request r c in
          let out = Device.alloc dev (n_items * 8) in
          match
            C.launch_request r c dev [ Engine.Ai (Device.ptr out); Ai n_items ]
          with
          | Error e -> QCheck.Test.fail_reportf "%s: %a" b.C.b_label Device.pp_error e
          | Ok _ ->
            let got = Device.read_i64_array dev out n_items in
            got = expected
            || QCheck.Test.fail_reportf "%s: %s vs %s" b.C.b_label
                 (String.concat "," (Array.to_list (Array.map string_of_int got)))
                 (String.concat "," (Array.to_list (Array.map string_of_int expected))))
        builds_under_test)

(* random generic-construct kernels: a sequential prologue, a parallel
   region with a work-shared loop, optional nested parallel, a sequential
   epilogue — exercising the state machine, SPMD-ization with guarding,
   globalization and the ICV machinery end to end *)
let gen_generic_kernel : (kernel * (int -> int array -> unit)) QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 40 >>= fun ws_n ->
  int_range (-9) 9 >>= fun scale ->
  int_range 2 4 >>= fun modulus ->
  bool >>= fun with_nested ->
  bool >>= fun with_prologue ->
  let ws_body =
    [ Let ("v", Mul (P "i", Int scale)) ]
    @ (if with_nested then
         [ If
             ( Cmp (CEq, Rem (P "i", Int modulus), Int 0),
               [ Nested_parallel
                   [ Store (P "out", Add (P "i", Int 1), MI64, Add (P "v", OmpLevel)) ]
               ],
               [ Store (P "out", Add (P "i", Int 1), MI64, P "v") ] )
         ]
       else [ Store (P "out", Add (P "i", Int 1), MI64, P "v") ])
  in
  let body =
    (if with_prologue then [ Store (P "out", Int 0, MI64, Int 99) ] else [])
    @ [ Parallel (None, [ Ws_for ("i", Int ws_n, ws_body) ]) ]
  in
  let k =
    { k_name = "k"; k_params = [ ("out", TInt) ]; k_construct = Generic body }
  in
  let host _n (out : int array) =
    if with_prologue then out.(0) <- 99;
    for i = 0 to ws_n - 1 do
      let v = i * scale in
      if with_nested && i mod modulus = 0 then out.(i + 1) <- v + 2
      else out.(i + 1) <- v
    done
  in
  return (k, host)

let prop_generic_construct_kernels =
  QCheck.Test.make ~name:"random generic-construct kernels match host" ~count:30
    (QCheck.make gen_generic_kernel ~print:(fun _ -> "<generic kernel>"))
    (fun (k, host) ->
      let n_slots = 64 in
      let expected = Array.make n_slots 0 in
      host n_slots expected;
      List.for_all
        (fun b ->
          match b.C.b_abi with
          | Lower.Cuda -> true (* generic constructs have no CUDA lowering *)
          | _ ->
            let r = C.Request.make ~build:b ~teams:1 ~threads:48 () in
            let c = C.compile_request r k in
            let dev = C.device_request r c in
            let out = Device.alloc dev (n_slots * 8) in
            (match C.launch_request r c dev [ Engine.Ai (Device.ptr out) ] with
            | Error e -> QCheck.Test.fail_reportf "%s: %a" b.C.b_label Device.pp_error e
            | Ok _ ->
              let got = Device.read_i64_array dev out n_slots in
              got = expected
              || QCheck.Test.fail_reportf "%s mismatch:\ngot      %s\nexpected %s"
                   b.C.b_label
                   (String.concat "," (Array.to_list (Array.map string_of_int got)))
                   (String.concat "," (Array.to_list (Array.map string_of_int expected)))))
        builds_under_test)

(* --- fault classification and journal round-trips ----------------------- *)

module Schema = Ozo_harness.Schema
module Json = Ozo_obs.Json
module Pipeline = Ozo_opt.Pipeline

let prop_fault_kind_roundtrip =
  QCheck.Test.make ~name:"fault kinds round-trip through their names"
    ~count:(List.length Fault.all_kinds)
    (QCheck.make (QCheck.Gen.oneofl Fault.all_kinds) ~print:Fault.kind_name)
    (fun k ->
      match Fault.kind_of_name (Fault.kind_name k) with
      | Some k' -> k' = k
      | None -> QCheck.Test.fail_reportf "%s did not classify" (Fault.kind_name k))

(* random structured fault: any kind, printable message, optional site,
   strand, access decode and implicated threads *)
let gen_fault : Fault.t QCheck.Gen.t =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  oneofl Fault.all_kinds >>= fun k ->
  name >>= fun msg ->
  opt name >>= fun fn ->
  opt name >>= fun blk ->
  opt (int_range 0 500) >>= fun idx ->
  opt (int_range 0 7) >>= fun team ->
  opt (int_range 0 3) >>= fun warp ->
  map Int64.of_int (int_range 0 max_int) >>= fun lanes ->
  opt
    (map3
       (fun p off by -> { Fault.a_ptr = p; a_space = "global"; a_offset = off; a_bytes = by })
       (int_range 0 0xffff) (int_range 0 4096) (oneofl [ 0; 1; 4; 8 ]))
  >>= fun access ->
  list_size (int_range 0 4) (int_range 0 63) >>= fun threads ->
  return
    { Fault.f_kind = k; f_msg = msg; f_fn = fn; f_blk = blk; f_idx = idx;
      f_team = team; f_warp = warp; f_lanes = lanes; f_access = access;
      f_threads = threads }

let prop_fault_to_line_mentions_kind_and_msg =
  QCheck.Test.make ~name:"fault to_line carries the kind name and message" ~count:100
    (QCheck.make gen_fault ~print:Fault.to_line)
    (fun f ->
      let line = Fault.to_line f in
      contains line (Fault.kind_name f.Fault.f_kind) && contains line f.Fault.f_msg)

let prop_fault_json_roundtrip =
  QCheck.Test.make ~name:"fault encodes to JSON and decodes back intact" ~count:100
    (QCheck.make gen_fault ~print:Fault.to_line)
    (fun f ->
      match Json.parse (Schema.fault_to_json f) with
      | Error e -> QCheck.Test.fail_reportf "unparseable encoding: %s" e
      | Ok j -> (
        match Schema.fault_of_json j with
        | Error e -> QCheck.Test.fail_reportf "decode: %s" e
        | Ok f' ->
          f'.Fault.f_kind = f.Fault.f_kind
          && f'.Fault.f_lanes = f.Fault.f_lanes
          && Fault.to_line f' = Fault.to_line f
          || QCheck.Test.fail_reportf "got %s" (Fault.to_line f')))

(* --- fallback-ladder ordering ------------------------------------------- *)

(* strength rank of a pipeline config: each [weaken] step must strictly
   decrease it, so the ladder is finite and monotonically conservative *)
let rank (c : Pipeline.config) =
  if c.Pipeline.globalization || c.Pipeline.barrier_elim || c.Pipeline.memfold <> None
  then 3
  else if c.Pipeline.internalize || c.Pipeline.spmdize then 2
  else if c.Pipeline.rounds > 0 then 1
  else 0

let gen_config : Pipeline.config QCheck.Gen.t =
  let open QCheck.Gen in
  oneofl
    [ Pipeline.o0; Pipeline.baseline; Pipeline.nightly; Pipeline.full;
      { Pipeline.full with Pipeline.name = "custom-hi"; barrier_elim = false };
      { Pipeline.baseline with Pipeline.name = "custom-mid"; spmdize = false;
        internalize = true };
      { Pipeline.o0 with Pipeline.name = "custom-lo"; rounds = 2 } ]

let prop_ladder_monotone_and_finite =
  QCheck.Test.make ~name:"fallback ladder strictly weakens, never repeats, terminates"
    ~count:30
    (QCheck.make gen_config ~print:(fun c -> c.Pipeline.name))
    (fun c0 ->
      let rec walk c seen steps =
        if steps > 4 then QCheck.Test.fail_reportf "ladder did not terminate"
        else
          match Pipeline.weaken c with
          | None ->
            rank c = 0
            || QCheck.Test.fail_reportf "ladder stopped at non-trivial %s" c.Pipeline.name
          | Some w ->
            (rank w < rank c
            || QCheck.Test.fail_reportf "%s (rank %d) -> %s (rank %d) not weaker"
                 c.Pipeline.name (rank c) w.Pipeline.name (rank w))
            && (not (List.mem w.Pipeline.name seen)
               || QCheck.Test.fail_reportf "config %s revisited" w.Pipeline.name)
            && walk w (w.Pipeline.name :: seen) (steps + 1)
      in
      walk c0 [ c0.Pipeline.name ] 0)

let prop_full_ladder_is_canonical =
  QCheck.Test.make ~name:"full's ladder is nightly -> baseline -> O0" ~count:1
    QCheck.unit (fun () ->
      let rec chain c =
        match Pipeline.weaken c with None -> [] | Some w -> w.Pipeline.name :: chain w
      in
      chain Pipeline.full = [ "nightly"; "baseline"; "O0" ]
      || QCheck.Test.fail_reportf "got %s" (String.concat " -> " (chain Pipeline.full)))

let suite =
  [ QCheck_alcotest.to_alcotest prop_all_builds_match_host;
    QCheck_alcotest.to_alcotest prop_control_flow_kernels;
    QCheck_alcotest.to_alcotest prop_generic_construct_kernels;
    QCheck_alcotest.to_alcotest prop_fault_kind_roundtrip;
    QCheck_alcotest.to_alcotest prop_fault_to_line_mentions_kind_and_msg;
    QCheck_alcotest.to_alcotest prop_fault_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_ladder_monotone_and_finite;
    QCheck_alcotest.to_alcotest prop_full_ladder_is_canonical ]
