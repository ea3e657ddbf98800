(** Architectural interpreter for straight-line code.

    Executes a basic block over a concrete machine state (integer and FP
    register files, memory keyed by symbolic address expressions) and
    returns the final state.  Used by the test suite to prove end to end
    that scheduling preserves semantics: a legal reordering must leave the
    observable state — registers and memory — exactly as the original
    program order does.

    Control transfers are not followed (a block is straight-line by
    definition); a terminating branch only evaluates its condition.
    Memory is symbolic: two references touch the same cell iff their
    address expressions are equal, matching the [Symbolic] disambiguation
    strategy under which schedulers are exercised. *)

type value = Int_value of int64 | Float_value of float

type state = {
  int_regs : int64 array;            (* 32 integer registers; %g0 pinned *)
  fp_regs : float array;             (* 32 single-precision halves *)
  mutable icc : int;                 (* condition codes: sign of last cmp *)
  mutable fcc : int;
  mutable y : int64;
  memory : (string, value) Hashtbl.t;  (* keyed by printed address expr *)
}

let create () =
  {
    int_regs = Array.make 32 0L;
    fp_regs = Array.make 32 0.0;
    icc = 0;
    fcc = 0;
    y = 0L;
    memory = Hashtbl.create 64;
  }

(* Deterministic "random" initial state so property tests are stable. *)
let randomize rng state =
  for i = 1 to 31 do
    state.int_regs.(i) <- Int64.of_int (Ds_util.Prng.range rng (-1000) 1000)
  done;
  for i = 0 to 31 do
    state.fp_regs.(i) <- float_of_int (Ds_util.Prng.range rng (-100) 100) /. 4.0
  done;
  state.y <- Int64.of_int (Ds_util.Prng.range rng 0 100)

let copy state =
  {
    int_regs = Array.copy state.int_regs;
    fp_regs = Array.copy state.fp_regs;
    icc = state.icc;
    fcc = state.fcc;
    y = state.y;
    memory = Hashtbl.copy state.memory;
  }

let read_int state = function
  | Reg.Int 0 -> 0L
  | Reg.Int n -> state.int_regs.(n)
  | Reg.Float _ -> invalid_arg "Interp.read_int: float register"

let write_int state r v =
  match r with
  | Reg.Int 0 -> () (* %g0 discards writes *)
  | Reg.Int n -> state.int_regs.(n) <- v
  | Reg.Float _ -> invalid_arg "Interp.write_int: float register"

let read_fp state = function
  | Reg.Float n -> state.fp_regs.(n)
  | Reg.Int _ -> invalid_arg "Interp.read_fp: integer register"

let write_fp state r v =
  match r with
  | Reg.Float n -> state.fp_regs.(n) <- v
  | Reg.Int _ -> invalid_arg "Interp.write_fp: integer register"

(* A memory cell's key: the symbolic address expression itself.  Two
   references touch the same cell iff their expressions are equal — the
   same equivalence the [Symbolic] disambiguation strategy assumes, so a
   schedule that is legal under that strategy is semantics-preserving
   under this memory model. *)
let cell_key _state (m : Mem_expr.t) = Mem_expr.to_string m

let load state m =
  match Hashtbl.find_opt state.memory (cell_key state m) with
  | Some v -> v
  | None -> Int_value 0L

let store state m v = Hashtbl.replace state.memory (cell_key state m) v

(* Operand evaluation *)

let int_operand state = function
  | Operand.Reg r -> read_int state r
  | Operand.Imm i -> Int64.of_int i
  | Operand.Mem _ | Operand.Target _ -> 0L

let fp_operand state = function
  | Operand.Reg r -> read_fp state r
  | Operand.Imm i -> float_of_int i
  | Operand.Mem _ | Operand.Target _ -> 0.0

exception Unsupported of Opcode.t

let sign64 v = if Int64.compare v 0L < 0 then -1 else if v = 0L then 0 else 1

let shift_amount v = Int64.to_int (Int64.logand v 31L)

(* Execute one instruction.  Returns unit; control flow is ignored. *)
let step state (insn : Insn.t) =
  let ops = insn.Insn.operands in
  let src n = List.nth ops n in
  let dst_reg () =
    match List.rev ops with
    | Operand.Reg r :: _ -> r
    | _ -> invalid_arg "Interp.step: no destination register"
  in
  let binop_int f =
    let a = int_operand state (src 0) and b = int_operand state (src 1) in
    write_int state (dst_reg ()) (f a b)
  in
  let binop_int_cc f =
    let a = int_operand state (src 0) and b = int_operand state (src 1) in
    let r = f a b in
    write_int state (dst_reg ()) r;
    state.icc <- sign64 r
  in
  let binop_fp f =
    let a = fp_operand state (src 0) and b = fp_operand state (src 1) in
    write_fp state (dst_reg ()) (f a b)
  in
  let unop_fp f =
    let a = fp_operand state (src 0) in
    write_fp state (dst_reg ()) (f a)
  in
  (* Double-precision values are modelled in the named register alone, so
     the interpreter's footprint never exceeds the def/use sets the DAG
     builders reason about (a double-word LOAD additionally fills the pair
     partner, exactly as [Insn.defs] declares). *)
  let read_double r = fp_operand state r in
  let write_double r v = write_fp state r v in
  let binop_fpd f =
    let a = read_double (src 0) and b = read_double (src 1) in
    write_double (dst_reg ()) (f a b)
  in
  match insn.Insn.op with
  | Opcode.Add -> binop_int Int64.add
  | Opcode.Sub -> binop_int Int64.sub
  | Opcode.And -> binop_int Int64.logand
  | Opcode.Or -> binop_int Int64.logor
  | Opcode.Xor -> binop_int Int64.logxor
  | Opcode.Andn -> binop_int (fun a b -> Int64.logand a (Int64.lognot b))
  | Opcode.Orn -> binop_int (fun a b -> Int64.logor a (Int64.lognot b))
  | Opcode.Xnor -> binop_int (fun a b -> Int64.lognot (Int64.logxor a b))
  | Opcode.Sll -> binop_int (fun a b -> Int64.shift_left a (shift_amount b))
  | Opcode.Srl ->
      binop_int (fun a b -> Int64.shift_right_logical a (shift_amount b))
  | Opcode.Sra -> binop_int (fun a b -> Int64.shift_right a (shift_amount b))
  | Opcode.Addcc -> binop_int_cc Int64.add
  | Opcode.Subcc -> binop_int_cc Int64.sub
  | Opcode.Andcc -> binop_int_cc Int64.logand
  | Opcode.Orcc -> binop_int_cc Int64.logor
  | Opcode.Smul | Opcode.Umul ->
      let a = int_operand state (src 0) and b = int_operand state (src 1) in
      let r = Int64.mul a b in
      write_int state (dst_reg ()) r;
      state.y <- Int64.shift_right r 32
  | Opcode.Sdiv | Opcode.Udiv ->
      let a = int_operand state (src 0) and b = int_operand state (src 1) in
      let r = if b = 0L then 0L else Int64.div a b in
      write_int state (dst_reg ()) r
  | Opcode.Sethi ->
      let v =
        match src 0 with
        | Operand.Imm i -> Int64.shift_left (Int64.of_int i) 10
        | Operand.Target s -> Int64.of_int (Hashtbl.hash s land 0x3fffff)
        | Operand.Reg _ | Operand.Mem _ -> 0L
      in
      write_int state (dst_reg ()) v
  | Opcode.Mov -> write_int state (dst_reg ()) (int_operand state (src 0))
  | Opcode.Cmp ->
      let a = int_operand state (src 0) and b = int_operand state (src 1) in
      state.icc <- sign64 (Int64.sub a b)
  | Opcode.Ld | Opcode.Ldub | Opcode.Ldsb | Opcode.Lduh | Opcode.Ldsh -> (
      match src 0 with
      | Operand.Mem m -> (
          match load state m with
          | Int_value v -> write_int state (dst_reg ()) v
          | Float_value f -> write_int state (dst_reg ()) (Int64.of_float f))
      | _ -> invalid_arg "Interp: load without memory operand")
  | Opcode.Ldd -> (
      match src 0 with
      | Operand.Mem m -> (
          let second = { m with Mem_expr.offset = m.Mem_expr.offset + 4 } in
          let value = function Int_value v -> v | Float_value f -> Int64.of_float f in
          match dst_reg () with
          | Reg.Int n ->
              write_int state (Reg.Int n) (value (load state m));
              if n < 31 then
                write_int state (Reg.Int (n + 1)) (value (load state second))
          | Reg.Float _ -> invalid_arg "Interp: ldd into float register")
      | _ -> invalid_arg "Interp: ldd without memory operand")
  | Opcode.Ldf -> (
      match src 0 with
      | Operand.Mem m -> (
          match load state m with
          | Float_value f -> write_fp state (dst_reg ()) f
          | Int_value v -> write_fp state (dst_reg ()) (Int64.to_float v))
      | _ -> invalid_arg "Interp: ldf without memory operand")
  | Opcode.Lddf -> (
      match src 0 with
      | Operand.Mem m -> (
          let value =
            match load state m with
            | Float_value f -> f
            | Int_value v -> Int64.to_float v
          in
          let dst = dst_reg () in
          write_fp state dst value;
          match Reg.pair_partner dst with
          | Some partner -> write_fp state partner value
          | None -> ())
      | _ -> invalid_arg "Interp: lddf without memory operand")
  | Opcode.St | Opcode.Stb | Opcode.Sth -> (
      match ops with
      | [ value; Operand.Mem m ] ->
          store state m (Int_value (int_operand state value))
      | _ -> invalid_arg "Interp: bad store operands")
  | Opcode.Std -> (
      match ops with
      | [ Operand.Reg (Reg.Int n); Operand.Mem m ] ->
          let second = { m with Mem_expr.offset = m.Mem_expr.offset + 4 } in
          store state m (Int_value state.int_regs.(n));
          if n < 31 then
            store state second (Int_value state.int_regs.(n + 1))
      | _ -> invalid_arg "Interp: bad std operands")
  | Opcode.Stf -> (
      match ops with
      | [ value; Operand.Mem m ] ->
          store state m (Float_value (fp_operand state value))
      | _ -> invalid_arg "Interp: bad stf operands")
  | Opcode.Stdf -> (
      match ops with
      | [ value; Operand.Mem m ] ->
          store state m (Float_value (read_double value))
      | _ -> invalid_arg "Interp: bad stdf operands")
  | Opcode.Fadds -> binop_fp ( +. )
  | Opcode.Fsubs -> binop_fp ( -. )
  | Opcode.Fmuls -> binop_fp ( *. )
  | Opcode.Fdivs -> binop_fp (fun a b -> if b = 0.0 then 0.0 else a /. b)
  | Opcode.Faddd -> binop_fpd ( +. )
  | Opcode.Fsubd -> binop_fpd ( -. )
  | Opcode.Fmuld -> binop_fpd ( *. )
  | Opcode.Fdivd -> binop_fpd (fun a b -> if b = 0.0 then 0.0 else a /. b)
  | Opcode.Fsqrts -> unop_fp (fun a -> sqrt (Float.abs a))
  | Opcode.Fsqrtd ->
      let a = read_double (src 0) in
      write_double (dst_reg ()) (sqrt (Float.abs a))
  | Opcode.Fmovs -> unop_fp Fun.id
  | Opcode.Fnegs -> unop_fp Float.neg
  | Opcode.Fabss -> unop_fp Float.abs
  | Opcode.Fcmps | Opcode.Fcmpd ->
      let a = fp_operand state (src 0) and b = fp_operand state (src 1) in
      state.fcc <- compare a b
  | Opcode.Fitos | Opcode.Fitod | Opcode.Fstoi | Opcode.Fdtoi | Opcode.Fstod
  | Opcode.Fdtos ->
      unop_fp Fun.id
  | Opcode.Ba | Opcode.Bn | Opcode.Be | Opcode.Bne | Opcode.Bg | Opcode.Ble
  | Opcode.Bge | Opcode.Bl | Opcode.Bgu | Opcode.Bleu | Opcode.Bcs
  | Opcode.Bcc_ | Opcode.Fba | Opcode.Fbe | Opcode.Fbne | Opcode.Fbg
  | Opcode.Fbl | Opcode.Fbge | Opcode.Fble ->
      () (* condition read only; straight-line execution *)
  | Opcode.Nop -> ()
  | Opcode.Call | Opcode.Jmpl | Opcode.Ret | Opcode.Save | Opcode.Restore ->
      raise (Unsupported insn.Insn.op)

(** Run a block (or any instruction sequence) from the given state. *)
let run ?(state = create ()) insns =
  Array.iter (step state) insns;
  state

(* Float cells compare with [Float.equal], as the FP registers do, so a
   stored NaN equals itself; polymorphic [=] would say it never does. *)
let equal_value v w =
  match (v, w) with
  | Int_value x, Int_value y -> Int64.equal x y
  | Float_value x, Float_value y -> Float.equal x y
  | (Int_value _ | Float_value _), _ -> false

let same_cell b k v =
  match Hashtbl.find_opt b.memory k with
  | Some w -> equal_value v w
  | None -> false

(** Observable-state equality: registers, condition codes, Y and memory. *)
let equal_state a b =
  a.int_regs = b.int_regs
  && Array.for_all2 (fun x y -> Float.equal x y) a.fp_regs b.fp_regs
  && a.icc = b.icc && a.fcc = b.fcc && a.y = b.y
  && Hashtbl.length a.memory = Hashtbl.length b.memory
  && Hashtbl.fold (fun k v acc -> acc && same_cell b k v) a.memory true

(** Diff for error reporting. *)
let diff a b =
  let out = Buffer.create 128 in
  for i = 0 to 31 do
    if a.int_regs.(i) <> b.int_regs.(i) then
      Buffer.add_string out
        (Printf.sprintf "%s: %Ld vs %Ld\n"
           (Reg.to_string (Reg.Int i))
           a.int_regs.(i) b.int_regs.(i));
    if not (Float.equal a.fp_regs.(i) b.fp_regs.(i)) then
      Buffer.add_string out
        (Printf.sprintf "%s: %g vs %g\n"
           (Reg.to_string (Reg.Float i))
           a.fp_regs.(i) b.fp_regs.(i))
  done;
  if a.icc <> b.icc then
    Buffer.add_string out (Printf.sprintf "icc: %d vs %d\n" a.icc b.icc);
  if a.fcc <> b.fcc then
    Buffer.add_string out (Printf.sprintf "fcc: %d vs %d\n" a.fcc b.fcc);
  Hashtbl.iter
    (fun k v ->
      if not (same_cell b k v) then
        Buffer.add_string out (Printf.sprintf "mem %s differs\n" k))
    a.memory;
  Buffer.contents out
