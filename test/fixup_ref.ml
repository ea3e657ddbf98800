(** Test-only oracle: the postpass fixup that copied the order and
    re-simulated the whole block for every trial hoist, kept verbatim
    except that it scores with {!Pipeline_ref} instead of the flat
    simulator, so the differential suite compares against the old code
    end to end.

    Postpass delay-slot fixup.

    "Some algorithms (e.g., Krishnamurthy) use a postpass 'fixup' to try to
    fill more operation delay slots than are filled by the heuristic
    scheduling pass" (§5).  This greedy pass simulates the schedule, finds
    issue-slot bubbles, and tries to hoist a later instruction into each
    bubble when no dependence arc crosses the move.  It repeats until a
    full sweep yields no improvement. *)

open Dagsched

(* Can node [mover] be placed immediately before position [target_pos]
   given it currently sits at [from_pos]?  Legal iff no arc connects any
   instruction in positions [target_pos, from_pos) to [mover]. *)
let can_hoist (s : Schedule.t) position ~from_pos ~target_pos =
  let mover = s.order.(from_pos) in
  let blocked = ref false in
  List.iter
    (fun (a : Ds_dag.Dag.arc) ->
      let p = position.(a.src) in
      if p >= target_pos && p < from_pos then blocked := true)
    (Ds_dag.Dag.preds s.dag mover);
  not !blocked

let hoist order ~from_pos ~target_pos =
  let v = order.(from_pos) in
  Array.blit order target_pos order (target_pos + 1) (from_pos - target_pos);
  order.(target_pos) <- v

let simulate (s : Schedule.t) =
  Pipeline_ref.run (Dag.model s.dag) (Schedule.insns s)

(** One sweep: returns true when a profitable move was applied. *)
let sweep (s : Schedule.t) =
  let n = Array.length s.order in
  let result = simulate s in
  let baseline = result.Pipeline_ref.completion in
  let position = Array.make n 0 in
  Array.iteri (fun pos node -> position.(node) <- pos) s.order;
  let improved = ref false in
  (* find the first bubble: instruction that issued later than slot-next *)
  let rec find_bubble pos =
    if pos >= n || !improved then ()
    else begin
      let expected =
        if pos = 0 then 0 else result.Pipeline_ref.issue_cycle.(pos - 1) + 1
      in
      if result.Pipeline_ref.issue_cycle.(pos) > expected then begin
        (* try to hoist a later instruction into this slot *)
        let rec try_from from_pos =
          if from_pos >= n || !improved then ()
          else begin
            if can_hoist s position ~from_pos ~target_pos:pos then begin
              let saved = Array.copy s.order in
              hoist s.order ~from_pos ~target_pos:pos;
              if (simulate s).Pipeline_ref.completion < baseline then improved := true
              else Array.blit saved 0 s.order 0 n
            end;
            if not !improved then try_from (from_pos + 1)
          end
        in
        try_from (pos + 1)
      end;
      find_bubble (pos + 1)
    end
  in
  find_bubble 0;
  !improved

(** Iterate sweeps to a fixed point (bounded by the block length). *)
let run (s : Schedule.t) =
  let n = Array.length s.order in
  let rec go k = if k > 0 && sweep s then go (k - 1) in
  go n;
  s
