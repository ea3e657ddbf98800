(** Postpass delay-slot fixup.

    "Some algorithms (e.g., Krishnamurthy) use a postpass 'fixup' to try to
    fill more operation delay slots than are filled by the heuristic
    scheduling pass" (§5).  This greedy pass simulates the schedule, finds
    issue-slot bubbles, and tries to hoist a later instruction into each
    bubble when no dependence arc crosses the move.  It repeats until a
    full sweep yields no improvement.

    Cost: the block is prepared for the simulator once.  A hoist leaves
    the positions before its target untouched, so each bubble takes one
    checkpoint of the pipeline after that prefix, and every trial issues
    only the mover and the rest of the block from it, then rolls back.
    A trial stops as soon as it provably cannot beat the sweep's
    baseline (see [improves]).  The dependence test is O(1) per
    candidate off a per-sweep table of each position's latest parent.
    The order is only rewritten for the one hoist a sweep keeps. *)

open Ds_machine
module Dag = Ds_dag.Dag

let hoist order ~from_pos ~target_pos =
  let v = order.(from_pos) in
  Array.blit order target_pos order (target_pos + 1) (from_pos - target_pos);
  order.(target_pos) <- v

(* far below any cycle count, and safe to add small offsets to *)
let no_tail = -(1 lsl 40)

let run (s : Schedule.t) =
  let dag = s.dag and order = s.order in
  let n = Array.length order in
  let p = Pipeline.prepare (Dag.model dag) (Array.init (Dag.length dag) (Dag.insn dag)) in
  (* per position, for the current sweep's order: *)
  let base = Array.make n 0 in          (* issue cycle *)
  let below = Array.make n (-1) in      (* latest earlier parent's position *)
  let tail = Array.make (n + 1) no_tail in  (* max over j >= k of j + exec *)
  let position = Array.make (Dag.length dag) 0 in
  (* [below] makes the legality test O(1): the node at [from_pos] may move
     to just before [target_pos] iff none of its parents sits in
     [target_pos, from_pos), i.e. iff the latest parent before it sits
     before [target_pos]. *)
  let here = ref 0 and latest = ref (-1) in
  let note src =
    let q = position.(src) in
    if q < !here && q > !latest then latest := q
  in
  let fill_below () =
    for k = 0 to n - 1 do
      here := k;
      latest := -1;
      Dag.iter_pred_srcs dag order.(k) note;
      below.(k) <- !latest
    done
  in
  (* From the checkpoint at [target_pos]: does the order with
     [order.(from_pos)] hoisted there finish before [bound]?  Gives up
     once the completion so far, or a lower bound on the final one,
     reaches [bound]: each remaining position issues at least a cycle
     after the one before, so the [r]-th one still to issue (from 0)
     completes no earlier than [next_issue + r + exec]. *)
  let improves ~from_pos ~target_pos bound =
    Pipeline.step p order.(from_pos);
    let k = ref target_pos and alive = ref true in
    while !alive && !k < n do
      let slot = Pipeline.next_issue p in
      let lower =
        if !k <= from_pos then slot - !k - 1 + tail.(from_pos + 1)
        else slot - !k + tail.(!k)
      in
      if Pipeline.completion p >= bound || lower >= bound then alive := false
      else begin
        if !k <> from_pos then Pipeline.step p order.(!k);
        incr k
      end
    done;
    !alive && Pipeline.completion p < bound
  in
  (* One sweep: true when a profitable hoist was applied. *)
  let sweep () =
    Pipeline.simulate p order;
    let bound = Pipeline.completion p in
    for k = n - 1 downto 0 do
      let v = order.(k) in
      base.(k) <- Pipeline.issue_cycle p v;
      position.(v) <- k;
      tail.(k) <- Int.max tail.(k + 1) (k + Pipeline.exec_time p v)
    done;
    fill_below ();
    Pipeline.reset p;
    let improved = ref false and pos = ref 0 in
    while (not !improved) && !pos < n do
      let target_pos = !pos in
      let expected = if target_pos = 0 then 0 else base.(target_pos - 1) + 1 in
      if base.(target_pos) > expected then begin
        (* a bubble: try to hoist a later instruction into this slot *)
        Pipeline.checkpoint p;
        let from_pos = ref (target_pos + 1) in
        while (not !improved) && !from_pos < n do
          if below.(!from_pos) < target_pos then begin
            if improves ~from_pos:!from_pos ~target_pos bound then begin
              hoist order ~from_pos:!from_pos ~target_pos;
              improved := true
            end
            else Pipeline.rollback p
          end;
          incr from_pos
        done
      end;
      if not !improved then Pipeline.step p order.(target_pos);
      incr pos
    done;
    !improved
  in
  (* iterate sweeps to a fixed point (bounded by the block length) *)
  let rec go k = if k > 0 && sweep () then go (k - 1) in
  go n;
  s
