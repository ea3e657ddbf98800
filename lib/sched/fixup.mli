(** Postpass delay-slot fixup (paper §5, Krishnamurthy): greedily hoists a
    later independent instruction into each issue-slot bubble, repeating
    until a sweep yields no improvement.  Mutates the schedule's order in
    place and returns it.

    The moves, and so the final order, are exactly those of the original
    pass, which copied the order and re-simulated the whole block for
    every trial hoist.  What changed is the cost:

    - the block is {!Ds_machine.Pipeline.prepare}d once per call;
    - the prefix invariant: a hoist into position [p] leaves positions
      [0, p) and their issue cycles alone.  So each bubble takes one
      {!Ds_machine.Pipeline.checkpoint} after that prefix, and each trial
      issues only the mover and the positions after [p], then rolls back
      in place;
    - a trial stops once its completion so far, or the lower bound that
      the remaining positions issue at least a cycle apart, reaches the
      sweep's baseline completion;
    - parents are read through [Dag.iter_pred_srcs] once per sweep, into
      each position's latest earlier parent, so legality is O(1) per
      candidate.

    Trials leave the order untouched; only the hoist a sweep keeps is
    applied.  Allocation is per call (the prepared block and a few
    per-position arrays), never per trial. *)

val run : Schedule.t -> Schedule.t
