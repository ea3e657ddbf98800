(** In-order single-issue pipeline simulator.

    Scores an instruction ordering under a latency model by computing, for
    each instruction, its issue cycle given interlocks on data dependencies
    and busy non-pipelined FP units.  This is the quality metric used to
    compare scheduling algorithms: the paper compares construction/heuristic
    *cost*; we additionally report the schedules' simulated cycle counts so
    examples and ablations can show who wins.

    The simulator is deliberately a hardware model, independent of the DAG:
    it tracks per-resource writer/reader issue times directly, so it can
    also validate that a schedule never consumes a value before the machine
    produces it.

    Layout (see pipeline.mli for the contract): [prepare] interns every
    defined and used resource of the block to a dense local id, once, into
    a CSR table — per node, its definitions then its uses, in scan order,
    so a definition's or use's position is its offset within its run.
    Per-resource state is three int arrays (last writer node, its
    definition position, head of the reader chain); readers are cells of
    a pool sized to the block's total use count, so [step] allocates
    nothing.  A checkpoint copies the per-resource and unit state into a
    second, lazily allocated state record; the reader pool is
    append-only, so rewinding its count is enough to restore it. *)

open Ds_isa

type result = {
  issue_cycle : int array;   (* per instruction, in schedule order *)
  completion : int;          (* cycle after the last result is ready *)
  stall_cycles : int;        (* issue-slot bubbles from interlocks *)
}

(* ------------------------------------------------------------------ *)
(* per-domain interning scratch *)

(* Global ids: %g0..%g31 at 0-31, %f0..%f31 at 32-63, then the scalar
   special resources; symbolic memory expressions intern at [n_fixed]
   and up, persistently per domain (as in the DAG builders' resource
   table), so registers never hash and a memory expression hashes once
   per occurrence. *)
let id_icc = 64
let id_fcc = 65
let id_y = 66
let id_mem_all = 67
let id_ctrl = 68
let n_fixed = 69

module Mtbl = Hashtbl.Make (struct
  type t = Mem_expr.t

  let equal = Mem_expr.equal
  let hash = Mem_expr.hash
end)

type scratch = {
  mem_tbl : int Mtbl.t;
  mutable n_global : int;
  mutable epoch : int;
  (* global id -> local id of the block being prepared, valid iff
     [stamp.(g) = epoch] *)
  mutable stamp : int array;
  mutable local : int array;
  (* the block being prepared: local id -> resource, and the flat CSR
     resource ids *)
  mutable by_local : Resource.t array;
  mutable n_local : int;
  mutable flat : int array;
  mutable n_flat : int;
  scan : Insn.Scan.buf;
}

let fresh_scratch () =
  { mem_tbl = Mtbl.create 64;
    n_global = n_fixed;
    epoch = 0;
    stamp = Array.make 128 (-1);
    local = Array.make 128 0;
    by_local = Array.make 64 Resource.Ctrl;
    n_local = 0;
    flat = Array.make 64 0;
    n_flat = 0;
    scan = Insn.Scan.create () }

let scratch_key = Domain.DLS.new_key fresh_scratch

let grow a len fill =
  let grown = Array.make len fill in
  Array.blit a 0 grown 0 (Array.length a);
  grown

let global_id s (res : Resource.t) =
  match res with
  | Resource.R (Reg.Int n) -> n
  | Resource.R (Reg.Float n) -> 32 + n
  | Resource.Icc -> id_icc
  | Resource.Fcc -> id_fcc
  | Resource.Y -> id_y
  | Resource.Mem_all -> id_mem_all
  | Resource.Ctrl -> id_ctrl
  | Resource.Mem m -> (
      match Mtbl.find s.mem_tbl m with
      | g -> g
      | exception Not_found ->
          let g = s.n_global in
          s.n_global <- g + 1;
          Mtbl.add s.mem_tbl m g;
          g)

let local_id s res =
  let g = global_id s res in
  if g >= Array.length s.stamp then begin
    let len = max (g + 1) (2 * Array.length s.stamp) in
    s.stamp <- grow s.stamp len (-1);
    s.local <- grow s.local len 0
  end;
  if s.stamp.(g) = s.epoch then s.local.(g)
  else begin
    let l = s.n_local in
    s.stamp.(g) <- s.epoch;
    s.local.(g) <- l;
    if l >= Array.length s.by_local then
      s.by_local <- grow s.by_local (2 * l) Resource.Ctrl;
    s.by_local.(l) <- res;
    s.n_local <- l + 1;
    l
  end

(* Intern the scan buffer's resources onto the flat CSR row. *)
let push_scan s =
  let b = s.scan in
  for j = 0 to Insn.Scan.len b - 1 do
    let l = local_id s (Insn.Scan.res b j) in
    if s.n_flat >= Array.length s.flat then
      s.flat <- grow s.flat (2 * s.n_flat) 0;
    s.flat.(s.n_flat) <- l;
    s.n_flat <- s.n_flat + 1
  done

(* ------------------------------------------------------------------ *)
(* the prepared block and its state *)

(* Everything a later issue depends on, bar the issue cycles themselves.
   The per-resource arrays may be longer than the block's resource
   count; entries past it are unused. *)
type state = {
  writer : int array;           (* per resource: last writer node, or -1 *)
  writer_pos : int array;       (* per resource: its definition position *)
  readers : int array;          (* per resource: reader chain head, or -1 *)
  unit_free : int array;        (* per function unit: first free cycle *)
  mutable n_cells : int;        (* reader cells in use *)
  mutable next_slot : int;      (* earliest cycle for the next issue *)
  mutable stalls : int;
  mutable completion : int;
}

let fresh_state n_res =
  { writer = Array.make n_res (-1);
    writer_pos = Array.make n_res 0;
    readers = Array.make n_res (-1);
    unit_free = Array.make Funit.count 0;
    n_cells = 0;
    next_slot = 0;
    stalls = 0;
    completion = 0 }

let copy_state ~n_res src dst =
  Array.blit src.writer 0 dst.writer 0 n_res;
  Array.blit src.writer_pos 0 dst.writer_pos 0 n_res;
  Array.blit src.readers 0 dst.readers 0 n_res;
  Array.blit src.unit_free 0 dst.unit_free 0 Funit.count;
  dst.n_cells <- src.n_cells;
  dst.next_slot <- src.next_slot;
  dst.stalls <- src.stalls;
  dst.completion <- src.completion

(* stands for "no checkpoint yet"; never written *)
let no_state = fresh_state 0

type t = {
  model : Latency.t;
  insns : Insn.t array;
  n_res : int;
  res : Resource.t array;       (* local id -> resource *)
  (* node [i]'s definitions are [ids.(off.(2i)) .. ids.(off.(2i+1) - 1)],
     its uses [ids.(off.(2i+1)) .. ids.(off.(2i+2) - 1)] *)
  off : int array;
  ids : int array;
  exec : int array;             (* per node: [model.exec_time] *)
  busy : int array;             (* per node: [model.fp_busy] *)
  unit : int array;             (* per node: [Funit.index] *)
  issue : int array;            (* per node: issue cycle, once issued *)
  (* reader pool, one cell per issued use; cells are never rewritten
     until rewound, so a snapshot's chains stay valid below its count *)
  cell_node : int array;
  cell_next : int array;
  st : state;
  mutable saved : state;        (* the checkpoint, allocated on first use *)
  mutable marked : bool;
}

let reset t =
  let st = t.st in
  Array.fill st.writer 0 t.n_res (-1);
  Array.fill st.readers 0 t.n_res (-1);
  Array.fill st.unit_free 0 Funit.count 0;
  st.n_cells <- 0;
  st.next_slot <- 0;
  st.stalls <- 0;
  st.completion <- 0;
  t.marked <- false

(* [a] when it holds at least [len] entries, else a fresh array: of
   exactly [len] for an empty [a], with doubling headroom otherwise *)
let fit a len fill =
  if Array.length a >= len then a
  else Array.make (Int.max len (2 * Array.length a)) fill

(* Prepare [insns] on the domain scratch [s], reusing [into]'s per-node,
   pool and state arrays where they are long enough.  The result's
   [res] and [ids] are the scratch's own buffers, valid until the next
   [load] on this domain. *)
let load s (into : t) (model : Latency.t) (insns : Insn.t array) =
  s.epoch <- s.epoch + 1;
  s.n_local <- 0;
  s.n_flat <- 0;
  let n = Array.length insns in
  let off = fit into.off ((2 * n) + 1) 0 in
  let exec = fit into.exec n 0 and busy = fit into.busy n 0 in
  let unit = fit into.unit n 0 in
  let n_uses = ref 0 in
  for i = 0 to n - 1 do
    let insn = insns.(i) in
    off.(2 * i) <- s.n_flat;
    Insn.scan_defs s.scan insn;
    push_scan s;
    off.((2 * i) + 1) <- s.n_flat;
    Insn.scan_uses s.scan insn;
    push_scan s;
    n_uses := !n_uses + s.n_flat - off.((2 * i) + 1);
    exec.(i) <- model.Latency.exec_time insn;
    busy.(i) <- model.Latency.fp_busy insn;
    unit.(i) <- Funit.index (Funit.of_insn insn)
  done;
  off.(2 * n) <- s.n_flat;
  let n_res = s.n_local in
  let t =
    { model; insns; n_res;
      res = s.by_local;
      off;
      ids = s.flat;
      exec; busy; unit;
      issue = fit into.issue n 0;
      cell_node = fit into.cell_node !n_uses 0;
      cell_next = fit into.cell_next !n_uses 0;
      st =
        (if into.st != no_state && Array.length into.st.writer >= n_res then into.st
         else fresh_state n_res);
      saved = no_state;
      marked = false }
  in
  reset t;
  t

(* owns no arrays: every [load] into it allocates exact-size ones *)
let empty =
  { model = Latency.unit_latency; insns = [||]; n_res = 0; res = [||];
    off = [||]; ids = [||]; exec = [||]; busy = [||]; unit = [||];
    issue = [||]; cell_node = [||]; cell_next = [||]; st = no_state;
    saved = no_state; marked = false }

let prepare model insns =
  let t = load (Domain.DLS.get scratch_key) empty model insns in
  { t with
    res = Array.sub t.res 0 t.n_res;
    ids = Array.sub t.ids 0 t.off.(2 * Array.length insns) }

let step t i =
  let model = t.model and insn = t.insns.(i) and st = t.st in
  let ids = t.ids and issue = t.issue in
  let d0 = t.off.(2 * i) and u0 = t.off.((2 * i) + 1) in
  let u1 = t.off.((2 * i) + 2) in
  let min_issue = st.next_slot in
  let earliest = ref min_issue in
  (* RAW: every used resource must have been produced *)
  for k = u0 to u1 - 1 do
    let r = ids.(k) in
    let w = st.writer.(r) in
    if w >= 0 then begin
      let lat =
        model.Latency.raw ~parent:t.insns.(w) ~def_pos:st.writer_pos.(r)
          ~res:t.res.(r) ~child:insn ~use_pos:(k - u0)
      in
      if issue.(w) + lat > !earliest then earliest := issue.(w) + lat
    end
  done;
  (* WAR and WAW on every defined resource *)
  for k = d0 to u0 - 1 do
    let r = ids.(k) in
    let c = ref st.readers.(r) in
    while !c >= 0 do
      let ri = t.cell_node.(!c) in
      if ri <> i then begin
        let lat = model.Latency.war ~parent:t.insns.(ri) ~res:t.res.(r) ~child:insn in
        if issue.(ri) + lat > !earliest then earliest := issue.(ri) + lat
      end;
      c := t.cell_next.(!c)
    done;
    let w = st.writer.(r) in
    if w >= 0 then begin
      let lat = model.Latency.waw ~parent:t.insns.(w) ~res:t.res.(r) ~child:insn in
      if issue.(w) + lat > !earliest then earliest := issue.(w) + lat
    end
  done;
  (* structural hazard: non-pipelined FP unit still busy *)
  let busy = t.busy.(i) and u = t.unit.(i) in
  if busy > 0 && st.unit_free.(u) > !earliest then earliest := st.unit_free.(u);
  let cycle = !earliest in
  issue.(i) <- cycle;
  st.stalls <- st.stalls + (cycle - min_issue);
  if busy > 0 then st.unit_free.(u) <- cycle + busy;
  (* record definitions, then uses *)
  for k = d0 to u0 - 1 do
    let r = ids.(k) in
    st.writer.(r) <- i;
    st.writer_pos.(r) <- k - d0;
    st.readers.(r) <- -1
  done;
  for k = u0 to u1 - 1 do
    let r = ids.(k) in
    let c = st.n_cells in
    t.cell_node.(c) <- i;
    t.cell_next.(c) <- st.readers.(r);
    st.readers.(r) <- c;
    st.n_cells <- c + 1
  done;
  if cycle + t.exec.(i) > st.completion then st.completion <- cycle + t.exec.(i);
  st.next_slot <- cycle + 1

let simulate t order =
  reset t;
  for k = 0 to Array.length order - 1 do
    step t order.(k)
  done

let checkpoint t =
  if t.saved == no_state then t.saved <- fresh_state t.n_res;
  copy_state ~n_res:t.n_res t.st t.saved;
  t.marked <- true

let rollback t =
  if not t.marked then invalid_arg "Pipeline.rollback: no checkpoint";
  copy_state ~n_res:t.n_res t.saved t.st

let issue_cycle t i = t.issue.(i)
let next_issue t = t.st.next_slot
let exec_time t i = t.exec.(i)
let completion t = t.st.completion
let stall_cycles t = t.st.stalls

(* The domain's one-shot simulator: its arrays are reused by the next
   one-shot call on this domain, so one-shot scoring allocates little
   beyond its result. *)
let one_shot_key = Domain.DLS.new_key (fun () -> ref empty)

(* One-shot scoring of [insns] in sequence order: node [i] is position
   [i], so stepping the nodes in index order is [simulate] on the
   identity order.  The result is valid until the next one-shot call on
   this domain. *)
let in_order model insns =
  let last = Domain.DLS.get one_shot_key in
  let t = load (Domain.DLS.get scratch_key) !last model insns in
  last := t;
  for i = 0 to Array.length insns - 1 do
    step t i
  done;
  t

(** [run model insns] simulates issuing [insns] in the given order. *)
let run model insns =
  let t = in_order model insns in
  { issue_cycle = Array.sub t.issue 0 (Array.length insns);
    completion = completion t;
    stall_cycles = stall_cycles t }

let cycles model insns = completion (in_order model insns)

let stalls model insns = stall_cycles (in_order model insns)
