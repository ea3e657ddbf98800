(* The benchmark program behind perfbench/run.py (see perfbench/README.md).

   One process runs one workload once and prints, as its last stdout
   line, {"correct", "attempted", "failed", "metrics"}.  Untraced runs
   report the end-to-end metrics; traced runs (--trace 1) wrap the same
   public calls with clock reads and Gc.minor_words deltas and report the
   per-layer metrics. *)

open Dagsched

(* ------------------------------------------------------------------ *)
(* command line *)

let workload = ref ""
let seed = ref None
let seconds = ref 10.0
let traced = ref false
let schedtool = ref ""
let work_dir = ref "."
let tiny = ref false
let serve_fail = ref 0

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  cccp | fpppp | table2 | serve");
      ("--seed", Arg.Int (fun n -> seed := Some n),
       "N  workload seed (default: the profile's own seed)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed phase");
      ("--trace", Arg.Int (fun n -> traced := n <> 0), "0|1  per-layer run");
      ("--schedtool", Arg.Set_string schedtool, "PATH  daemon binary (serve)");
      ("--work-dir", Arg.Set_string work_dir, "DIR  socket and daemon logs");
      ("--tiny", Arg.Set tiny, " smoke-test input sizes");
      ("--serve-fail", Arg.Set_int serve_fail,
       "N  start the daemon with DAGSCHED_SERVE_FAIL=raise:N") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

(* ------------------------------------------------------------------ *)
(* clocks, samples, operation counts *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile.  A tail percentile is only reported when at
   least ten samples lie beyond it; callers size their sample for that. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n - rank < 10 then
    failwith
      (Printf.sprintf "p%g needs ten samples beyond it; have %d samples" (q *. 100.) n);
  a.(rank - 1)

let attempted = ref 0
let failed = ref 0
let problems = ref []

(* [ok] false counts one failed operation and keeps the first reasons *)
let op ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !problems < 20 then problems := what :: !problems
  end

(* a global check that is not an operation (traced = untraced, ...) *)
let global_ok = ref true

let require ok what =
  if not ok then begin
    global_ok := false;
    problems := what :: !problems
  end

let mwords w = w /. 1e6

let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* ------------------------------------------------------------------ *)
(* per-layer laps: a traced pass stamps the clock and Gc.minor_words
   between the public calls, charging each interval to one layer.  The
   stamps are per domain (the main domain parses, partitions and emits;
   the pool's worker domain runs the per-block calls). *)

let l_parse = 0
and l_partition = 1
and l_build = 2
and l_static = 3
and l_engine = 4
and l_fixup = 5
and l_verify = 6
and l_simulate = 7
and l_emit = 8

let n_layers = 9
let layer_s = Array.make n_layers 0.0
let layer_w = Array.make n_layers 0.0
let stamp = Domain.DLS.new_key (fun () -> Array.make 2 0.0)

let lap_start () =
  let s = Domain.DLS.get stamp in
  s.(0) <- now ();
  s.(1) <- Gc.minor_words ()

let lap layer =
  let t = now () and w = Gc.minor_words () in
  let s = Domain.DLS.get stamp in
  layer_s.(layer) <- layer_s.(layer) +. (t -. s.(0));
  layer_w.(layer) <- layer_w.(layer) +. (w -. s.(1));
  s.(0) <- t;
  s.(1) <- w

let reset_layers () =
  Array.fill layer_s 0 n_layers 0.0;
  Array.fill layer_w 0 n_layers 0.0

(* ------------------------------------------------------------------ *)
(* the compile pipeline, as `schedtool schedule -A S` runs it *)

type block_out = {
  sched : Schedule.t;
  valid : bool;
  cycles : int;
  stalls : int;
  arcs : int;
  before_fixup : int array option;  (* traced Krishnamurthy blocks only *)
}

let compile_block ~traced spec opts block =
  if traced then lap_start ();
  let dag = Builder.build (Published.builder spec) opts block in
  if traced then lap l_build;
  let annot = Static_pass.compute_for (Published.heuristics_of spec) dag in
  if traced then lap l_static;
  let order = Engine.run (Published.engine_config spec) ~annot dag in
  let s = Schedule.make dag order in
  if traced then lap l_engine;
  let before_fixup =
    if traced && spec.Published.postpass_fixup then Some (Array.copy order)
    else None
  in
  if traced then lap_start ();
  let s = if spec.Published.postpass_fixup then Fixup.run s else s in
  if traced then lap l_fixup;
  let valid = Result.is_ok (Verify.check s) in
  if traced then lap l_verify;
  let sim = Schedule.simulate s in
  ignore (Schedule.original_cycles s);
  if traced then lap l_simulate;
  { sched = s; valid; cycles = sim.Pipeline.completion;
    stalls = sim.Pipeline.stall_cycles; arcs = Dag.n_arcs dag; before_fixup }

type pass = {
  wall : float;              (* timed work only; checks excluded *)
  minor : float;             (* minor words, both domains *)
  sched_cycles : int;
  code_insns : int;
  blocks : int;
  insns : int;
  arcs : int;
  stalls : int;
  fingerprint : int64;       (* summed Dag.fingerprint; 0 when unchecked *)
  fixup_saved : int;
  layer_s : float array;     (* traced passes *)
  layer_w : float array;
}

let digest p = (p.sched_cycles, p.code_insns, p.blocks, p.insns, p.arcs)

(* the worker domain's minor-word counter, read on that domain *)
let worker_words pool = List.hd (Pool.map_on pool Gc.minor_words [ () ])

(* Interp.equal_state compares memory cells with polymorphic equality,
   under which a stored NaN never equals itself (fdivd on random inputs
   stores NaNs); registers already compare with Float.equal, and so do
   memory cells here. *)
let same_state (a : Interp.state) (b : Interp.state) =
  let same_value v w =
    match (v, w) with
    | Interp.Float_value x, Interp.Float_value y -> Float.equal x y
    | Interp.Int_value x, Interp.Int_value y -> Int64.equal x y
    | _ -> false
  in
  a.int_regs = b.int_regs
  && Array.for_all2 Float.equal a.fp_regs b.fp_regs
  && a.icc = b.icc && a.fcc = b.fcc && a.y = b.y
  && Hashtbl.length a.memory = Hashtbl.length b.memory
  && Hashtbl.fold
       (fun k v acc ->
         acc
         && match Hashtbl.find_opt b.memory k with
            | Some w -> same_value v w
            | None -> false)
       a.memory true

(* Interp oracle: the scheduled block leaves the same state as the
   original from a seeded random start. *)
let same_semantics ~seed block sched =
  let init = Interp.create () in
  Interp.randomize (Prng.create (seed + block.Block.id)) init;
  match
    ( Interp.run ~state:(Interp.copy init) block.Block.insns,
      Interp.run ~state:(Interp.copy init) (Schedule.insns sched) )
  with
  | a, b -> same_state a b
  | exception Interp.Unsupported _ -> false

(* One pass: parse, partition, then per strategy the per-block calls on
   the pool, and Emit over the strategy's schedules.  [check] adds the
   fingerprint, oracle and fixup accounting outside the timed work. *)
let run_pass ~traced ~check ~emit ~seed pool opts specs text =
  reset_layers ();
  let main0 = Gc.minor_words () and work0 = worker_words pool in
  let t0 = now () in
  let untimed = ref 0.0 in
  if traced then lap_start ();
  let insns = Parser.parse_program text in
  if traced then lap l_parse;
  let blocks = Cfg_builder.partition insns in
  if traced then lap l_partition;
  let cycles = ref 0 and code = ref 0 and arcs = ref 0 and stalls = ref 0 in
  let fp = ref 0L and saved = ref 0 in
  List.iter
    (fun spec ->
      let outs =
        Pool.map_on pool ~chunk:Pool.default_chunk
          (compile_block ~traced spec opts) blocks
      in
      if emit then begin
        if traced then lap_start ();
        let emitted, _, _ = Emit.emit_program (List.map (fun o -> o.sched) outs) in
        if traced then lap l_emit;
        code := !code + List.length emitted
      end;
      let u0 = now () in
      List.iter2
        (fun block o ->
          op o.valid
            (Printf.sprintf "%s: block %d fails Verify.check"
               spec.Published.short block.Block.id);
          cycles := !cycles + o.cycles;
          arcs := !arcs + o.arcs;
          stalls := !stalls + o.stalls;
          if check then begin
            fp := Int64.add !fp (Dag.fingerprint o.sched.Schedule.dag);
            op
              (same_semantics ~seed block o.sched)
              (Printf.sprintf "%s: block %d changes Interp state"
                 spec.Published.short block.Block.id);
            Option.iter
              (fun order ->
                let pre = Schedule.make o.sched.Schedule.dag order in
                saved := !saved + Schedule.cycles pre - o.cycles)
              o.before_fixup
          end)
        blocks outs;
      untimed := !untimed +. (now () -. u0))
    specs;
  let wall = now () -. t0 -. !untimed in
  let minor = Gc.minor_words () -. main0 +. (worker_words pool -. work0) in
  { wall; minor; sched_cycles = !cycles; code_insns = !code;
    blocks = List.length blocks; insns = List.length insns; arcs = !arcs;
    stalls = !stalls; fingerprint = !fp; fixup_saved = !saved;
    layer_s = Array.copy layer_s; layer_w = Array.copy layer_w }

(* ------------------------------------------------------------------ *)
(* serve requests *)

let schedule_payload text =
  Json.to_string
    (Json.Obj [ ("op", Json.String "schedule"); ("block", Json.String text) ])

let is_ok_response r =
  match Json.of_string r with
  | Ok j -> Json.member "status" j = Some (Json.String "ok")
  | Error _ -> false

(* A miss needs text the cache has not seen: a leading comment makes the
   bytes new while the parsed program, and so the response, stay those
   of the base program. *)
let miss_text k text = Printf.sprintf "! miss %d\n%s" k text

(* serve.decode_s and driver.cache_find_s: the two halves of a hit,
   replayed on an in-process Serve.t whose cache holds the payload *)
let time_decode_find server payload =
  let t0 = now () in
  let req =
    match Json.of_string payload with
    | Ok json -> Serve.request_of_json json
    | Error m -> failwith m
  in
  let t1 = now () in
  match req with
  | Ok (Serve.Schedule { text; builder; strategy; model }) ->
      let config =
        { Cache.builder = Builder.to_string builder;
          strategy = Disambiguate.to_string strategy;
          model = model.Latency.name }
      in
      let hit = Cache.find (Serve.cache server) ~text config in
      let t2 = now () in
      op (Option.is_some hit) "replayed hit missed the in-process cache";
      (t1 -. t0, t2 -. t1)
  | _ -> failwith "decode replay: not a schedule request"

(* ------------------------------------------------------------------ *)
(* metrics output *)

let metrics = ref []
let emit_metric name unit_ value = metrics := (name, unit_, value) :: !metrics

let print_result () =
  let json =
    Json.Obj
      [ ("correct", Json.Bool (!global_ok && !failed = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.rev_map
               (fun (name, unit_, value) ->
                 (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
               !metrics) ) ]
  in
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) (List.rev !problems);
  print_endline (Json.to_string json)

let record fields =
  print_endline
    (Json.to_string (Json.Obj (("record", Json.String "run") :: fields)))

let run_fields ~seed ~blocks ~insns ~fingerprint =
  [ ("workload", Json.String !workload); ("seed", Json.Int seed);
    ("traced", Json.Bool !traced); ("seconds", Json.Float !seconds);
    ("ocaml", Json.String Sys.ocaml_version);
    ("domains", Json.Int 1);
    ( "inputs",
      Json.Obj
        [ ("blocks", Json.Int blocks); ("insns", Json.Int insns);
          ("fingerprint", Json.String (Printf.sprintf "%016Lx" fingerprint)) ] ) ]

let layer_names =
  [| "isa.parse"; "cfg.partition"; "dag.build"; "heur.static"; "sched.engine";
     "sched.fixup"; "sched.verify"; "sched.simulate"; "sched.emit" |]

(* per-layer pipeline metrics: medians over the traced passes *)
let emit_layers traced_passes untraced_walls =
  let med f = median (List.map f traced_passes) in
  Array.iteri
    (fun i name ->
      emit_metric (name ^ "_s") "s" (med (fun p -> p.layer_s.(i)));
      if List.mem i [ l_parse; l_build; l_static; l_engine; l_fixup ] then
        emit_metric (name ^ "_mwords") "Mwords" (med (fun p -> mwords p.layer_w.(i))))
    layer_names;
  let p = List.hd traced_passes in
  emit_metric "dag.arcs" "count" (float_of_int p.arcs);
  emit_metric "sched.stalls" "cycles" (float_of_int p.stalls);
  emit_metric "sched.fixup_cycles_saved" "cycles" (float_of_int p.fixup_saved);
  let traced_wall = med (fun p -> p.wall) in
  emit_metric "trace.overhead" "ratio" ((traced_wall /. median untraced_walls) -. 1.0);
  emit_metric "trace.coverage" "ratio"
    (med (fun p -> Array.fold_left ( +. ) 0.0 p.layer_s /. p.wall))

(* traced = untraced: same schedules, same code, same DAGs *)
let require_same ~reference p =
  require
    (digest p = digest reference && p.fingerprint = reference.fingerprint)
    "traced pass differs from the untraced pass"

(* ------------------------------------------------------------------ *)
(* in-process workloads: cccp, fpppp, table2 *)

(* Sample sizes.  Set-up is repeated three times and reported as a
   median (twice for table2, whose set-up is one ~6 s pass, to keep a run
   inside the time budget).  500 hits leave fifty samples beyond p90.
   Misses recompile the whole program, so they are sampled for about a
   second and at least five times. *)
let setup_reps = 3
let hit_samples = 500
let miss_min_samples = 5
let miss_min_s = 1.0
let decode_samples = 200

let in_process ?(setup_reps = setup_reps) profile specs =
  let seed = Option.value !seed ~default:profile.Profiles.seed in
  let blocks = Profiles.generate { profile with Profiles.seed } in
  let blocks =
    if !tiny then
      List.filteri (fun i b -> i < 40 && Block.length b <= 200) blocks
    else blocks
  in
  let text =
    String.concat ""
      (List.map
         (fun b ->
           Printf.sprintf "B%d:\n%s" b.Block.id
             (Parser.print_program (Block.to_list b)))
         blocks)
  in
  let opts = Opts.default in
  let pass ~traced ~check pool =
    run_pass ~traced ~check ~emit:true ~seed pool opts specs text
  in
  (* set-up: pool creation plus one warm-up pass, several times; the
     last pool is kept.  The first warm-up pass is fully checked. *)
  let pool = ref None in
  let setups =
    List.init setup_reps (fun i ->
        Option.iter Pool.shutdown !pool;
        let t0 = now () in
        let p = Pool.create ~domains:1 () in
        let create_s = now () -. t0 in
        let warm = pass ~traced:false ~check:(i = 0) p in
        pool := Some p;
        (create_s +. warm.wall, warm))
  in
  let pool = Option.get !pool in
  let reference = snd (List.hd setups) in
  record
    (run_fields ~seed ~blocks:reference.blocks ~insns:reference.insns
       ~fingerprint:reference.fingerprint);
  let same p what = op (digest p = digest reference) (what ^ " differs from the first pass") in
  List.iter (fun (_, p) -> same p "a warm-up pass") (List.tl setups);
  (* timed passes; a traced run interleaves untraced and traced passes *)
  let t_end = now () +. !seconds in
  let untraced = ref [] and traced_passes = ref [] in
  while now () < t_end || !untraced = [] || (!traced && !traced_passes = []) do
    let u = pass ~traced:false ~check:false pool in
    same u "a timed pass";
    untraced := u :: !untraced;
    if !traced then begin
      let t = pass ~traced:true ~check:true pool in
      require_same ~reference t;
      traced_passes := t :: !traced_passes
    end
  done;
  let compile_rss = vm_hwm_mb 0 in
  (* service phase: an in-process Serve.t on the workload's program —
     cold requests on fresh text (misses), then repeats (hits).  Each
     phase starts from a collected heap, so its major-GC work does not
     depend on where the compile passes left the collector. *)
  let server = Serve.create ~domains:1 () in
  Gc.full_major ();
  let misses =
    let t_end = now () +. miss_min_s in
    let rec go k acc =
      if k >= miss_min_samples && now () >= t_end then List.rev acc
      else
        let payload = schedule_payload (if k = 0 then text else miss_text k text) in
        go (k + 1) (time (fun () -> Serve.handle_text server payload) :: acc)
    in
    go 0 []
  in
  let expected = snd (List.hd misses) in
  List.iter
    (fun (_, r) -> op (String.equal r expected) "comment-variant miss differs")
    misses;
  op (is_ok_response expected) "in-process serve answered an error";
  let base = schedule_payload text in
  Gc.full_major ();
  let hits =
    List.init hit_samples (fun _ ->
        let dt, r = time (fun () -> Serve.handle_text server base) in
        op (String.equal r expected) "warm response differs from cold";
        dt)
  in
  let cs = Cache.stats (Serve.cache server) in
  require
    (cs.Cache.hits = hit_samples && cs.Cache.misses = List.length misses)
    "in-process cache counters differ from the planned traffic";
  let walls = List.map (fun p -> p.wall) !untraced in
  if not !traced then begin
    emit_metric "setup_s" "s" (median (List.map fst setups));
    emit_metric "compile_s" "s" (median walls);
    emit_metric "alloc_mwords" "Mwords"
      (median (List.map (fun p -> mwords p.minor) !untraced));
    emit_metric "peak_rss_mb" "MB" compile_rss;
    emit_metric "sched_cycles" "cycles" (float_of_int reference.sched_cycles);
    emit_metric "code_insns" "insns" (float_of_int reference.code_insns);
    emit_metric "hit_p50_ms" "ms" (1e3 *. median hits);
    emit_metric "hit_p90_ms" "ms" (1e3 *. percentile hits 0.90);
    emit_metric "miss_p50_ms" "ms" (1e3 *. median (List.map fst misses));
    emit_metric "throughput_rps" "1/s"
      (float_of_int (List.length specs * List.length walls)
      /. List.fold_left ( +. ) 0.0 walls)
  end
  else begin
    emit_layers !traced_passes walls;
    let replay = List.init decode_samples (fun _ -> time_decode_find server base) in
    emit_metric "serve.decode_s" "s" (median (List.map fst replay));
    emit_metric "driver.cache_find_s" "s" (median (List.map snd replay));
    emit_metric "serve.handle_hit_s" "s" (median hits);
    emit_metric "serve.handle_miss_s" "s" (median (List.map fst misses));
    emit_metric "serve.wire_s" "s" 0.0;
    emit_metric "driver.cache_hit_ratio" "ratio"
      (float_of_int cs.Cache.hits /. float_of_int (cs.Cache.hits + cs.Cache.misses))
  end;
  Serve.destroy server;
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* serve: a `schedtool serve -j 1` daemon and one closed-loop client *)

let programs = 36             (* primed programs; one hit each per round *)
let misses_per_round = 4      (* fresh programs per round: 4 of 40 *)
let daemon_cache_entries = 64 (* primed programs plus recent misses *)

(* text sizes on a fixed log ladder, 1 KB .. 200 KB, so every seed sees
   the same size mix; the seed draws the code *)
let ladder n =
  List.init n (fun i ->
      int_of_float
        (1024.0 *. (200.0 ** (float_of_int i /. float_of_int (max 1 (n - 1))))))

let serve_program rng target =
  let buf = Buffer.create (target + 512) in
  let id = ref 0 in
  while Buffer.length buf < target do
    let params = if Prng.bool rng 0.5 then Gen.int_code else Gen.fp_loops in
    let size = Gen.sample_size rng ~avg:6.0 ~mx:60 ~tail_prob:0.02 in
    let b = Gen.block rng ~params ~id:!id ~size () in
    Buffer.add_string buf
      (Printf.sprintf "B%d:\n%s" !id (Parser.print_program (Block.to_list b)));
    incr id
  done;
  Buffer.contents buf

let daemons = ref []

let kill_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !daemons;
  daemons := []

let () = at_exit kill_daemons

let spawn_daemon ~fail ~socket ~log =
  let env =
    Array.append (Unix.environment ())
      (Array.of_list
         (("OCAMLRUNPARAM=v=0x400")
         :: (if fail && !serve_fail > 0 then
               [ Printf.sprintf "%s=raise:%d" Serve.fail_env !serve_fail ]
             else [])))
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process_env !schedtool
      [| !schedtool; "serve"; "--socket"; socket; "-j"; "1";
         "--cache-entries"; string_of_int daemon_cache_entries |]
      env Unix.stdin out out
  in
  Unix.close out;
  daemons := pid :: !daemons;
  pid

let ping = Json.to_string (Json.Obj [ ("op", Json.String "ping") ])

(* readiness: ping every half millisecond until the daemon answers *)
let await_ready pid ~socket =
  let deadline = now () +. 30.0 in
  let rec go () =
    match Serve.request_once ~socket ping with
    | Ok _ -> ()
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> ()
         | _ -> failwith ("daemon exited before answering: " ^ e));
        if now () > deadline then failwith ("daemon not ready: " ^ e);
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* SIGINT drains the daemon; it must exit 130.  Returns its minor words
   (the OCAMLRUNPARAM=v=0x400 exit report). *)
let stop_daemon pid ~log =
  Unix.kill pid Sys.sigint;
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.001; wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Unix.WSIGNALED Sys.sigkill
    | _, status -> status
  in
  let status = wait () in
  daemons := List.filter (( <> ) pid) !daemons;
  op (status = Unix.WEXITED 130) "daemon did not exit 130 after SIGINT";
  let minor = ref nan in
  In_channel.with_open_text log (fun ic ->
      Seq.iter
        (fun l ->
          if String.starts_with ~prefix:"minor_words:" l then
            Scanf.sscanf l "minor_words: %f" (fun w -> minor := w))
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  !minor

let request ~socket payload =
  let t0 = now () in
  let r = Serve.request_once ~socket payload in
  (now () -. t0, r)

let stats_op = Json.to_string (Json.Obj [ ("op", Json.String "stats") ])

let cache_counts ~socket =
  match Serve.request_once ~socket stats_op with
  | Error e -> failwith ("stats op: " ^ e)
  | Ok r -> (
      match Json.of_string r with
      | Error e -> failwith ("stats op: " ^ e)
      | Ok j ->
          let cache = Option.get (Json.member "cache" j) in
          let get k =
            match Json.member k cache with Some (Json.Int n) -> n | _ -> -1
          in
          (get "hits", get "misses"))

let serve () =
  let seed = Option.value !seed ~default:1 in
  let n = if !tiny then 6 else programs in
  let rng = Prng.create seed in
  let sizes = ladder n in
  let sizes = if !tiny then List.map (fun s -> s / 10) sizes else sizes in
  let texts = Array.of_list (List.map (serve_program rng) sizes) in
  let payloads = Array.map schedule_payload texts in
  (* expected responses: an in-process Serve.t; every payload is new to
     it, so each answer is computed cold *)
  let oracle = Serve.create ~domains:1 ~max_entries:daemon_cache_entries () in
  let expected = Array.map (Serve.handle_text oracle) payloads in
  (* the daemon's pipeline, replayed in process for the per-layer run *)
  let serve_spec =
    let engine = Batch.section6.Batch.engine in
    { Published.name = "serve"; short = "serve"; reference = "Batch.section6";
      dag_algorithm = Some Batch.section6.Batch.algorithm;
      sched_direction = engine.Engine.direction; mode = engine.Engine.mode;
      keys = engine.Engine.keys; postpass_fixup = false }
  in
  let corpus = String.concat "" (Array.to_list texts) in
  let replica_pool = Pool.create ~domains:1 () in
  let replica ~traced ~check =
    run_pass ~traced ~check ~emit:false ~seed replica_pool Opts.default
      [ serve_spec ] corpus
  in
  let reference = replica ~traced:false ~check:true in
  record
    (run_fields ~seed ~blocks:reference.blocks ~insns:reference.insns
       ~fingerprint:reference.fingerprint
    @ [ ("programs", Json.Int n);
        ("bytes", Json.Int (String.length corpus)) ]);
  let sched_cycles = ref 0 and insns = ref 0 in
  Array.iter
    (fun r ->
      match Json.of_string r with
      | Ok j -> (
          match Json.member "report" j with
          | Some rep ->
              let get k = match Json.member k rep with Some (Json.Int v) -> v | _ -> 0 in
              sched_cycles := !sched_cycles + get "scheduled_cycles";
              insns := !insns + get "insns"
          | None -> require false "oracle answered an error")
      | Error e -> require false ("oracle response: " ^ e))
    expected;
  let socket_n = ref 0 in
  (* the crash knob, when asked for, arms only the daemon that is kept *)
  let start ~last =
    incr socket_n;
    let socket = Filename.concat !work_dir (Printf.sprintf "pb-%d-%d.sock" (Unix.getpid ()) !socket_n) in
    let log = Filename.concat !work_dir (Printf.sprintf "pb-%d-%d.log" (Unix.getpid ()) !socket_n) in
    let t0 = now () in
    let pid = spawn_daemon ~fail:last ~socket ~log in
    await_ready pid ~socket;
    Array.iteri
        (fun i p ->
          let _, r = request ~socket p in
          op (r = Ok expected.(i)) (Printf.sprintf "priming program %d" i))
        payloads;
    (now () -. t0, pid, socket, log)
  in
  let setups =
    List.init setup_reps (fun i ->
        let s, pid, socket, log = start ~last:(i = setup_reps - 1) in
        if i < setup_reps - 1 then ignore (stop_daemon pid ~log);
        (s, pid, socket, log))
  in
  let _, pid, socket, log = List.nth setups (setup_reps - 1) in
  (* closed loop: rounds of every primed program once (hits) and four
     fresh programs (misses), in a seeded order *)
  let hits0, misses0 = cache_counts ~socket in
  let order = Array.init n Fun.id in
  let miss_bases = Array.init n Fun.id in
  Prng.shuffle rng miss_bases;
  let misses_per_round = if !tiny then 1 else misses_per_round in
  let miss_k = ref 0 in
  let hit_rtt = ref [] and miss_rtt = ref [] and round_s = ref [] in
  let miss_digests = ref [] in
  let t_end = now () +. !seconds in
  while now () < t_end || List.length !hit_rtt < hit_samples do
    Prng.shuffle rng order;
    let slots =
      Array.append
        (Array.map (fun i -> `Hit i) order)
        (Array.init misses_per_round (fun _ ->
             let base = miss_bases.(!miss_k mod n) in
             incr miss_k;
             `Miss (base, !miss_k)))
    in
    Prng.shuffle rng slots;
    let round = ref 0.0 in
    Array.iter
      (function
        | `Hit i ->
            let dt, r = request ~socket payloads.(i) in
            round := !round +. dt;
            hit_rtt := dt :: !hit_rtt;
            op (r = Ok expected.(i)) (Printf.sprintf "hit on program %d" i)
        | `Miss (base, k) ->
            let payload = schedule_payload (miss_text k texts.(base)) in
            let dt, r = request ~socket payload in
            round := !round +. dt;
            miss_rtt := dt :: !miss_rtt;
            (match r with
             | Ok r -> miss_digests := (base, k, Digest.string r) :: !miss_digests
             | Error e -> op false ("miss request: " ^ e)))
      slots;
    round_s := !round :: !round_s
  done;
  let hits1, misses1 = cache_counts ~socket in
  let planned_hits = List.length !hit_rtt and planned_misses = List.length !miss_rtt in
  let daemon_hits = hits1 - hits0 and daemon_misses = misses1 - misses0 in
  let hwm = vm_hwm_mb pid in
  let daemon_minor = stop_daemon pid ~log in
  require
    (daemon_hits = planned_hits && daemon_misses = planned_misses)
    "daemon cache counters differ from the planned traffic";
  (* traced: hit halves and whole hits replayed on the oracle, whose
     cache still holds every primed program (same mix as the daemon's
     hits) *)
  let reps = max 1 (decode_samples / n) in
  let replay =
    if not !traced then []
    else
      List.concat
        (List.init reps (fun _ ->
             Array.to_list (Array.map (time_decode_find oracle) payloads)))
  in
  let handle_hit =
    if not !traced then []
    else
      List.concat
        (List.init reps (fun _ ->
             Array.to_list
               (Array.mapi
                  (fun i p ->
                    let dt, r = time (fun () -> Serve.handle_text oracle p) in
                    op (String.equal r expected.(i)) "in-process warm response";
                    dt)
                  payloads)))
  in
  (* every miss response against the oracle on the same payload *)
  let handle_miss =
    List.rev_map
      (fun (base, k, d) ->
        let payload = schedule_payload (miss_text k texts.(base)) in
        let dt, r = time (fun () -> Serve.handle_text oracle payload) in
        op (Digest.string r = d) "miss response differs from in-process";
        dt)
      !miss_digests
  in
  let requests = planned_hits + planned_misses in
  if not !traced then begin
    emit_metric "setup_s" "s" (median (List.map (fun (s, _, _, _) -> s) setups));
    emit_metric "compile_s" "s" (median !round_s);
    (* the daemon's lifetime minor words per request answered, scaled
       to one round *)
    emit_metric "alloc_mwords" "Mwords"
      (mwords daemon_minor /. float_of_int (requests + n)
      *. float_of_int (n + misses_per_round));
    emit_metric "peak_rss_mb" "MB" hwm;
    emit_metric "sched_cycles" "cycles" (float_of_int !sched_cycles);
    emit_metric "code_insns" "insns" (float_of_int !insns);
    emit_metric "hit_p50_ms" "ms" (1e3 *. median !hit_rtt);
    emit_metric "hit_p90_ms" "ms" (1e3 *. percentile !hit_rtt 0.90);
    emit_metric "miss_p50_ms" "ms" (1e3 *. median !miss_rtt);
    emit_metric "throughput_rps" "1/s"
      (float_of_int requests /. List.fold_left ( +. ) 0.0 !round_s)
  end
  else begin
    (* pipeline layers: the daemon's miss pipeline replayed in process,
       untraced and traced passes interleaved *)
    let untraced = ref [] and traced_passes = ref [] in
    for _ = 1 to 3 do
      untraced := (replica ~traced:false ~check:false).wall :: !untraced;
      let t = replica ~traced:true ~check:true in
      require_same ~reference t;
      traced_passes := t :: !traced_passes
    done;
    emit_layers !traced_passes !untraced;
    emit_metric "serve.decode_s" "s" (median (List.map fst replay));
    emit_metric "driver.cache_find_s" "s" (median (List.map snd replay));
    emit_metric "serve.handle_hit_s" "s" (median handle_hit);
    emit_metric "serve.handle_miss_s" "s" (median handle_miss);
    emit_metric "serve.wire_s" "s" (median !hit_rtt -. median handle_hit);
    emit_metric "driver.cache_hit_ratio" "ratio"
      (float_of_int daemon_hits /. float_of_int (daemon_hits + daemon_misses))
  end;
  Serve.destroy oracle;
  Pool.shutdown replica_pool

(* ------------------------------------------------------------------ *)

let () =
  let result =
    try
      (match !workload with
       | "cccp" -> in_process Profiles.cccp Published.all
       | "fpppp" ->
           in_process Profiles.fpppp
             Published.[ schlansker; shieh_papachristou; tiemann ]
       | "table2" -> in_process ~setup_reps:2 Profiles.fpppp_1000 Published.all
       | "serve" -> serve ()
       | w -> failwith ("unknown workload " ^ w));
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  kill_daemons ();
  match result with
  | Ok () -> print_result ()
  | Error e ->
      prerr_endline ("bench: " ^ e);
      exit 2
