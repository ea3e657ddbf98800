(** Interpreter tests: opcode semantics and the schedule-preserves-
    semantics checks the property suite leans on. *)

open Dagsched
open Helpers

let run_program s =
  let insns = Array.of_list (parse s) in
  Interp.run insns

let int_reg state name =
  Interp.read_int state (Reg.of_string name)

let fp_reg state name = Interp.read_fp state (Reg.of_string name)

let check_i64 msg expected actual =
  Alcotest.(check int64) msg expected actual

let test_int_arith () =
  let st = run_program "mov 6, %o1\nmov 7, %o2\nadd %o1, %o2, %o3\nsub %o3, 3, %o4\nsmul %o1, %o2, %o5" in
  check_i64 "add" 13L (int_reg st "%o3");
  check_i64 "sub" 10L (int_reg st "%o4");
  check_i64 "mul" 42L (int_reg st "%o5")

let test_logic_and_shifts () =
  let st = run_program "mov 12, %o1\nand %o1, 10, %o2\nor %o1, 3, %o3\nxor %o1, 5, %o4\nsll %o1, 2, %o5\nsra %o1, 1, %l0" in
  check_i64 "and" 8L (int_reg st "%o2");
  check_i64 "or" 15L (int_reg st "%o3");
  check_i64 "xor" 9L (int_reg st "%o4");
  check_i64 "sll" 48L (int_reg st "%o5");
  check_i64 "sra" 6L (int_reg st "%l0")

let test_g0_semantics () =
  let st = run_program "mov 5, %g0\nadd %g0, 3, %o1" in
  check_i64 "g0 stays zero, reads as zero" 3L (int_reg st "%o1")

let test_memory_round_trip () =
  let st = run_program "mov 99, %o1\nst %o1, [%fp - 8]\nld [%fp - 8], %o2" in
  check_i64 "store then load" 99L (int_reg st "%o2");
  let st = run_program "ld [%fp - 16], %o3" in
  check_i64 "uninitialized memory is zero" 0L (int_reg st "%o3")

let test_symbolic_cells_distinct () =
  let st = run_program "mov 1, %o1\nmov 2, %o2\nst %o1, [%fp - 8]\nst %o2, [%fp - 16]\nld [%fp - 8], %o3" in
  check_i64 "different offsets are different cells" 1L (int_reg st "%o3")

let test_fp_arith () =
  let st =
    run_program
      "mov 3, %o1\nst %o1, [a]\nldf [a], %f1\nfadds %f1, %f1, %f2\nfmuls %f2, %f2, %f3"
  in
  Alcotest.(check (float 1e-9)) "fadds" 6.0 (fp_reg st "%f2");
  Alcotest.(check (float 1e-9)) "fmuls" 36.0 (fp_reg st "%f3")

let test_cc_and_branch_reads () =
  let st = run_program "cmp %g0, 1\nbe nowhere" in
  check_bool "icc negative" true (st.Interp.icc < 0)

let test_lddf_fills_pair () =
  let st = run_program "stf %f0, [x]\nlddf [x], %f4" in
  Alcotest.(check (float 1e-9)) "even half" (fp_reg st "%f0") (fp_reg st "%f4");
  Alcotest.(check (float 1e-9)) "odd half" (fp_reg st "%f4") (fp_reg st "%f5")

let test_equal_state () =
  let a = run_program "mov 1, %o1" in
  let b = run_program "mov 1, %o1" in
  check_bool "equal" true (Interp.equal_state a b);
  let c = run_program "mov 2, %o1" in
  check_bool "unequal" false (Interp.equal_state a c);
  check_bool "diff mentions register" true
    (String.length (Interp.diff a c) > 0)

(* Both states store a NaN in the same cell: equal, though polymorphic
   [=] on the cells would say a NaN never equals itself. *)
let test_equal_state_nan_cell () =
  let store_nan cell =
    let st = Interp.create () in
    st.Interp.fp_regs.(1) <- Float.nan;
    Interp.run ~state:st (Array.of_list (parse ("stf %f1, " ^ cell)))
  in
  let a = store_nan "[x]" and b = store_nan "[x]" in
  check_bool "equal with a NaN cell" true (Interp.equal_state a b);
  check_string "no diff" "" (Interp.diff a b);
  check_bool "different cell" false (Interp.equal_state a (store_nan "[y]"))

let test_randomize_deterministic () =
  let s1 = Interp.create () and s2 = Interp.create () in
  Interp.randomize (Prng.create 5) s1;
  Interp.randomize (Prng.create 5) s2;
  check_bool "same seed, same state" true (Interp.equal_state s1 s2)

let test_unsupported () =
  match run_program "call foo" with
  | exception Interp.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

(* the headline check: scheduling a compiled kernel preserves semantics *)
let test_schedules_preserve_semantics () =
  let opts = { Opts.default with Opts.strategy = Disambiguate.Symbolic } in
  List.iter
    (fun kernel ->
      let blocks = Codegen.compile_to_blocks ~unroll:2 kernel in
      List.iter
        (fun block ->
          let init = Interp.create () in
          Interp.randomize (Prng.create 11) init;
          let reference = Interp.run ~state:(Interp.copy init) block.Block.insns in
          List.iter
            (fun spec ->
              let s = Published.run ~opts spec block in
              let result = Interp.run ~state:(Interp.copy init) (Schedule.insns s) in
              if not (Interp.equal_state reference result) then
                Alcotest.failf "%s changed semantics of %s:\n%s"
                  spec.Published.name kernel.Ast.name
                  (Interp.diff reference result))
            Published.all)
        blocks)
    [ Kernels.daxpy; Kernels.poly; Kernels.figure1; Kernels.mixed ]

let suite =
  [ quick "int arithmetic" test_int_arith;
    quick "logic and shifts" test_logic_and_shifts;
    quick "g0 semantics" test_g0_semantics;
    quick "memory round trip" test_memory_round_trip;
    quick "symbolic cells distinct" test_symbolic_cells_distinct;
    quick "fp arithmetic" test_fp_arith;
    quick "cc and branch reads" test_cc_and_branch_reads;
    quick "lddf fills pair" test_lddf_fills_pair;
    quick "equal_state" test_equal_state;
    quick "equal_state NaN cell" test_equal_state_nan_cell;
    quick "randomize deterministic" test_randomize_deterministic;
    quick "unsupported opcodes" test_unsupported;
    quick "schedules preserve semantics" test_schedules_preserve_semantics ]
