(** Differentials of the flat simulator and the incremental fixup against
    their verbatim predecessors ({!Pipeline_ref}, {!Fixup_ref}): random
    blocks and orders under every latency model and every DAG builder
    must give the same issue cycles, completion and stalls, and the same
    fixed-up order. *)

open Dagsched
open Helpers

(* The four shipped models issue in order with WAR delays of one cycle,
   which never bind; this test-only model makes WAR, WAW, definition and
   use positions all matter. *)
let binding_war =
  let exec = Latency.deep_fp.Latency.exec_time in
  { Latency.deep_fp with
    Latency.name = "binding_war";
    raw =
      (fun ~parent ~def_pos ~res:_ ~child:_ ~use_pos ->
        exec parent + def_pos + (2 * use_pos));
    war = (fun ~parent ~res:_ ~child:_ -> 1 + exec parent);
    waw = (fun ~parent ~res:_ ~child:_ -> 2 + exec parent) }

let models = Latency.all_models @ [ binding_war ]

(* Random blocks of every generator flavor, plus the edge sizes. *)
let blocks =
  let edge =
    [ { Block.id = 0; insns = [||] };
      block_of_asm "faddd %f0, %f2, %f4";
      block_of_asm "nop\nnop";
      figure1_block () ]
  in
  edge @ List.init 40 (fun s -> random_block ((s * 13) + 5))

(* A block that keeps deep_fp's non-pipelined divide unit busy: two
   back-to-back divides, then enough independent integer filler to
   outlast them, so hoisting filler into the divide's bubble pays. *)
let divide_block =
  let dests =
    List.concat_map
      (fun (bank, regs) -> List.map (Printf.sprintf "%%%s%d" bank) regs)
      [ ("l", [ 0; 1; 2; 3; 4; 5; 6; 7 ]); ("i", [ 0; 1; 2; 3; 4; 5 ]);
        ("o", [ 0; 1; 2; 3; 4; 5 ]); ("g", [ 1; 2; 3; 4 ]) ]
  in
  block_of_asm
    (String.concat "\n"
       ("fdivd %f0, %f2, %f4" :: "fdivd %f6, %f8, %f10"
       :: List.mapi (fun k d -> Printf.sprintf "add %%g0, %d, %s" k d) dests))

(* A topological order of [dag] picking uniformly among ready nodes. *)
let random_topo rng dag =
  let n = Dag.length dag in
  let preds = Array.init n (Dag.n_parents dag) in
  let ready = ref (List.filter (fun i -> preds.(i) = 0) (List.init n Fun.id)) in
  Array.init n (fun _ ->
      let arr = Array.of_list !ready in
      let v = Prng.choose rng arr in
      ready := List.filter (( <> ) v) !ready;
      Dag.iter_succ_dsts dag v (fun d ->
          preds.(d) <- preds.(d) - 1;
          if preds.(d) = 0 then ready := d :: !ready);
      v)

(* Orders to score for one DAG: program order, a random topological
   order, Krishnamurthy's list schedule and an arbitrary permutation. *)
let orders rng dag =
  let n = Dag.length dag in
  let spec = Published.krishnamurthy in
  let annot = Static_pass.compute_for (Published.heuristics_of spec) dag in
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  [ Array.init n Fun.id; random_topo rng dag;
    Engine.run (Published.engine_config spec) ~annot dag; perm ]

let each_case f =
  let rng = Prng.create 2024 in
  List.iter
    (fun block ->
      List.iter
        (fun model ->
          let opts = { Opts.default with Opts.model } in
          List.iter
            (fun alg ->
              let dag = Builder.build alg opts block in
              List.iter (f model dag) (orders rng dag))
            Builder.all)
        models)
    (divide_block :: blocks)

let describe model dag order =
  Printf.sprintf "%s, %d insns, order [%s]" model.Latency.name (Dag.length dag)
    (String.concat " " (Array.to_list (Array.map string_of_int order)))

let check_same what (r : Pipeline_ref.result) ~issue ~completion ~stalls =
  let n = Array.length r.Pipeline_ref.issue_cycle in
  for k = 0 to n - 1 do
    if issue k <> r.Pipeline_ref.issue_cycle.(k) then
      Alcotest.failf "%s: position %d issues at %d, reference %d" what k
        (issue k) r.Pipeline_ref.issue_cycle.(k)
  done;
  if completion <> r.Pipeline_ref.completion then
    Alcotest.failf "%s: completion %d, reference %d" what completion
      r.Pipeline_ref.completion;
  if stalls <> r.Pipeline_ref.stall_cycles then
    Alcotest.failf "%s: stalls %d, reference %d" what stalls
      r.Pipeline_ref.stall_cycles

(* [Pipeline.run] on the scheduled sequence, and one prepared block
   simulated in the order, both match the reference. *)
let test_simulator_differential () =
  let cases = ref 0 in
  each_case (fun model dag order ->
      incr cases;
      let what = describe model dag order in
      let seq = Array.map (Dag.insn dag) order in
      let r = Pipeline_ref.run model seq in
      let o = Pipeline.run model seq in
      check_same ("run: " ^ what) r
        ~issue:(fun k -> o.Pipeline.issue_cycle.(k))
        ~completion:o.Pipeline.completion ~stalls:o.Pipeline.stall_cycles;
      check_int ("cycles: " ^ what) r.Pipeline_ref.completion
        (Pipeline.cycles model seq);
      check_int ("stalls: " ^ what) r.Pipeline_ref.stall_cycles
        (Pipeline.stalls model seq);
      let p = Pipeline.prepare model (Array.init (Dag.length dag) (Dag.insn dag)) in
      (* twice: a prepared block is reusable, and independent of the
         one-shot simulator's arrays, which [Pipeline.run] reuses *)
      let n = Array.length seq in
      let reversed = Array.init n (fun k -> seq.(n - 1 - k)) in
      for _ = 1 to 2 do
        ignore (Pipeline.run model reversed);
        Pipeline.simulate p order;
        check_same ("prepared: " ^ what) r
          ~issue:(fun k -> Pipeline.issue_cycle p order.(k))
          ~completion:(Pipeline.completion p) ~stalls:(Pipeline.stall_cycles p)
      done);
  check_bool "cases ran" true (!cases > 1000)

(* A checkpoint at every prefix, a detour through a different suffix and
   a rollback, then the real suffix: the same as one straight run. *)
let test_checkpoint_rollback () =
  let rng = Prng.create 7 in
  each_case (fun model dag order ->
      let n = Array.length order in
      if n > 0 then begin
        let what = describe model dag order in
        let r = Pipeline_ref.run model (Array.map (Dag.insn dag) order) in
        let p = Pipeline.prepare model (Array.init n (Dag.insn dag)) in
        let cut = Prng.int rng (n + 1) in
        Pipeline.reset p;
        for k = 0 to cut - 1 do
          Pipeline.step p order.(k)
        done;
        Pipeline.checkpoint p;
        for _ = 1 to 2 do
          let detour = Array.sub order cut (n - cut) in
          Prng.shuffle rng detour;
          Array.iter (Pipeline.step p) detour;
          Pipeline.rollback p
        done;
        for k = cut to n - 1 do
          Pipeline.step p order.(k)
        done;
        check_same ("checkpoint: " ^ what) r
          ~issue:(fun k -> Pipeline.issue_cycle p order.(k))
          ~completion:(Pipeline.completion p) ~stalls:(Pipeline.stall_cycles p)
      end)

let test_rollback_needs_checkpoint () =
  let p = Pipeline.prepare Latency.simple_risc [||] in
  Alcotest.check_raises "no checkpoint"
    (Invalid_argument "Pipeline.rollback: no checkpoint") (fun () ->
      Pipeline.rollback p)

(* The incremental fixup ends on the reference's order, from list
   schedules, random topological orders and arbitrary permutations. *)
let test_fixup_differential () =
  let moved = ref 0 in
  each_case (fun model dag order ->
      let mine = Fixup.run (Schedule.make dag (Array.copy order)) in
      let theirs = Fixup_ref.run (Schedule.make dag (Array.copy order)) in
      if mine.Schedule.order <> theirs.Schedule.order then
        Alcotest.failf "fixup: %s\n  got      [%s]\n  expected [%s]"
          (describe model dag order)
          (String.concat " " (Array.to_list (Array.map string_of_int mine.Schedule.order)))
          (String.concat " " (Array.to_list (Array.map string_of_int theirs.Schedule.order)));
      if mine.Schedule.order <> order then incr moved);
  (* not vacuous: the fixup moved instructions in many cases *)
  check_bool "fixup engaged" true (!moved > 100)

(* deep_fp's busy divide unit is a structural hazard the fixup works
   around: the differential case must actually improve there. *)
let test_fixup_divide_unit () =
  let opts = { Opts.default with Opts.model = Latency.deep_fp } in
  let dag = Builder.build Builder.Table_forward opts divide_block in
  let s = Fixup.run (Schedule.identity dag) in
  let r = Fixup_ref.run (Schedule.identity dag) in
  check_bool "same order" true (s.Schedule.order = r.Schedule.order);
  check_bool "improved" true
    (Schedule.cycles s < Schedule.original_cycles s)

(* Allocation guard: the fixup over every Krishnamurthy schedule of the
   fpppp-1000 re-partition (674 blocks).  The copying, whole-block
   re-simulating fixup allocated 237.2M minor words there; the budget is
   under 0.5% of that.  The landed fixup uses ~0.46M (per block, the
   prepared simulator's arrays and the sweep's per-position arrays) and
   issues ~0.6M trial instructions, so allocating per issued instruction
   blows the budget.  A first pass warms the simulator's per-domain
   interning table, so the measured pass is deterministic. *)
let test_fixup_allocation_budget () =
  let budget_words = 1_000_000.0 in
  let spec = Published.krishnamurthy in
  let schedules =
    List.map
      (fun block ->
        let dag = Builder.build (Published.builder spec) Opts.default block in
        let annot = Static_pass.compute_for (Published.heuristics_of spec) dag in
        (dag, Engine.run (Published.engine_config spec) ~annot dag))
      (Profiles.generate Profiles.fpppp_1000)
  in
  let fresh () =
    List.map (fun (dag, order) -> Schedule.make dag (Array.copy order)) schedules
  in
  List.iter (fun s -> ignore (Fixup.run s)) (fresh ());
  let measured = fresh () in
  let m0 = Gc.minor_words () in
  List.iter (fun s -> ignore (Fixup.run s)) measured;
  let words = Gc.minor_words () -. m0 in
  if words > budget_words then
    Alcotest.failf "fpppp-1000 fixup allocated %.0f minor words (budget %.0f)"
      words budget_words

let suite =
  [ quick "simulator = reference" test_simulator_differential;
    quick "checkpoint/rollback = straight run" test_checkpoint_rollback;
    quick "rollback needs a checkpoint" test_rollback_needs_checkpoint;
    quick "fixup = reference" test_fixup_differential;
    quick "fixup on the divide unit" test_fixup_divide_unit;
    Alcotest.test_case "fpppp-1000 fixup allocation budget" `Slow
      test_fixup_allocation_budget ]
