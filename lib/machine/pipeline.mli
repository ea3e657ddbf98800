(** In-order single-issue pipeline simulator.

    Scores an instruction ordering under a latency model: per-instruction
    issue cycles given data interlocks and busy non-pipelined FP units.
    Independent of the DAG — it tracks resources directly — so it also
    serves as ground truth that a schedule never consumes a value early.
    Resource state carries across the whole sequence, which lets
    {!Ds_sched.Global}-style chains measure cross-block stalls.

    There is one simulator: {!prepare} a block once, then {!simulate} it
    in any order of its node ids as often as needed.  {!run} prepares
    and simulates in program order. *)

type result = {
  issue_cycle : int array;   (* per instruction, in sequence order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(** One-shot scoring.  {!run}, {!cycles} and {!stalls} prepare the block
    on a per-domain simulator whose arrays the next one-shot call reuses,
    so they allocate little beyond their result. *)
val run : Latency.t -> Ds_isa.Insn.t array -> result

(** [completion] of {!run}. *)
val cycles : Latency.t -> Ds_isa.Insn.t array -> int

(** [stall_cycles] of {!run}. *)
val stalls : Latency.t -> Ds_isa.Insn.t array -> int

(** {1 Prepared blocks}

    [prepare model insns] interns, once, every resource each instruction
    defines and uses to a dense per-block id, stored CSR-style: one
    offset row per instruction into one flat array of ids, definitions
    then uses in scan order (so a definition's or use's position is its
    offset in its run).  It also caches each instruction's execution
    time, FP busy time and function unit.  Registers and condition codes
    map to fixed ids without hashing; symbolic memory expressions go
    through a per-domain table that persists across blocks, like the DAG
    builders' resource table, so a call allocates only the block's own
    arrays.

    The block's writer, reader and unit state is preallocated with it,
    so {!simulate}, {!step} and {!rollback} allocate nothing, and
    {!checkpoint} only the first time.  A prepared block is a mutable
    simulator: use it from one domain at a time. *)

type t

(** Node [i] is [insns.(i)]. *)
val prepare : Latency.t -> Ds_isa.Insn.t array -> t

(** [simulate t order] issues the node ids of [order] in sequence from an
    empty pipeline.  [order] must not repeat a node; it may be a prefix
    of a permutation. *)
val simulate : t -> int array -> unit

(** Empty the pipeline (and drop any checkpoint). *)
val reset : t -> unit

(** Issue one more node after those already issued. *)
val step : t -> int -> unit

(** Issue cycle of an issued node (unspecified for one not issued since
    the last {!reset} or {!rollback}). *)
val issue_cycle : t -> int -> int

(** Earliest cycle the next node may issue: one after the last issue,
    or 0 on an empty pipeline. *)
val next_issue : t -> int

(** Node [i]'s operation latency under the model ([exec_time]). *)
val exec_time : t -> int -> int

(** Over the nodes issued so far: cycle after the last result is ready,
    and issue-slot bubbles.  Completion never decreases as nodes issue. *)
val completion : t -> int

val stall_cycles : t -> int

(** {2 Checkpoints}

    The prefix invariant: the state after issuing a sequence depends on
    that sequence alone, so the issue cycles of a prefix do not change
    with what follows it.  A trial continuation can therefore start
    from a checkpoint at the end of the shared prefix instead of from
    an empty pipeline.

    [checkpoint t] snapshots the current state; [rollback t] restores
    the latest snapshot, which stays in force for further trials, and
    {!reset} drops it.  Both copy the per-resource arrays (the first
    checkpoint allocates the copy); the reader pool is append-only, so
    restoring its count restores it.  After a rollback, issue cycles of
    nodes issued since the checkpoint are stale; those issued before it
    are intact, provided the trial did not issue them again. *)

val checkpoint : t -> unit

(** Raises [Invalid_argument] without a checkpoint. *)
val rollback : t -> unit
