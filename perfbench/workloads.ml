(* The three workloads, each as a one-off set-up and a repeatable pass.

   A pass goes through the repository's public entry points only and
   returns what the checks and the end-to-end metrics need, with one of
   its traces for the traced run's layer drives (untraced passes drop
   it at once).  Every call into a layer goes through [stage], which is
   a plain call in untraced passes and a span plus counter deltas in
   the traced pass. *)

module Dataset = Dfs_core.Dataset
module Sink = Dfs_trace.Sink
module M = Dfs_obs.Metrics

let now = Unix.gettimeofday
let jobs = 2

type stage = { stage : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { stage = (fun _ f -> f ()) }

type pass = {
  wall_s : float;  (** after set-up until the outputs are checked *)
  sim_s : float;  (** host seconds of the simulation call *)
  simulated_s : float;  (** simulated seconds it covered *)
  analysis_s : float option;  (** finished trace to tables and claims *)
  minor_words : float;
  digest : int;  (** output fingerprint compared with the reference *)
  claims_reproduced : int option;
  records : int;  (** trace records the pass produced *)
  events : int;  (** engine events the pass executed *)
  problems : string list;  (** violated invariants *)
  preset_s : (string * float) list;  (** host seconds per preset *)
}

let counter name = M.value (M.counter name)

(* Records actually held by a chunk stream, counted batch by batch. *)
let stored_records chunks =
  let n = ref 0 in
  Sink.iter_batches (fun b -> n := !n + Dfs_trace.Record_batch.length b) chunks;
  !n

(* Runs [f] and checks the cache conservation law over its counters. *)
let with_cache_check f =
  let hits0 = counter "sim.cache.read_hits"
  and misses0 = counter "sim.cache.read_misses"
  and lookups0 = counter "sim.cache.read_lookups" in
  let r = f () in
  let hits = counter "sim.cache.read_hits" - hits0
  and misses = counter "sim.cache.read_misses" - misses0
  and lookups = counter "sim.cache.read_lookups" - lookups0 in
  ( r,
    if hits + misses <> lookups then
      [ Printf.sprintf "read_hits %d + read_misses %d <> read_lookups %d" hits misses lookups ]
    else [] )

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* -- analysis: what [dfs_repro all] + [facts] do with a dataset ------------- *)

let analyse st (ds : Dataset.t) =
  List.iter
    (fun (r : Dataset.run) ->
      ignore (st.stage ("fused." ^ r.preset.name) (fun () -> Dataset.fused r)))
    ds.runs;
  let renderings =
    List.map
      (fun (e : Dfs_core.Experiment.t) ->
        let out = st.stage ("experiment." ^ e.id) (fun () -> e.run ds) in
        Printf.sprintf "=== %s: %s ===\n%s\n" e.id e.title out)
      Dfs_core.Experiment.all
  in
  let claims = st.stage "claims" (fun () -> Dfs_core.Claims.evaluate ds) in
  let reproduced =
    List.length
      (List.filter
         (fun (c : Dfs_core.Claims.result) -> c.verdict = Dfs_core.Claims.Reproduced)
         claims)
  in
  (Dfs_util.Crc32c.string (String.concat "" renderings), reproduced)

(* -- reproduce ------------------------------------------------------------------ *)

(* [Dataset.run] keeps its analysis memo abstract, so a dataset of
   seeded presets takes a fresh memo from a two-record replay (about a
   millisecond) and fills in its own preset, cluster and trace.  The
   donors are made before a pass, outside its time and counters. *)
type reproduce_state = {
  presets : Dfs_workload.Presets.preset list;
  scale : float;
  pool : Dfs_util.Pool.t;
  memo_donor : string;
}

let write_memo_donor path =
  let csv = "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n0,h,0,Read,0,4096\n" in
  match Dfs_ingest.Import.of_csv_string ~source:"memo-donor" csv with
  | Error e -> failwith e
  | Ok (records, _) ->
    Dfs_trace.Writer.with_file ~format:Dfs_trace.Writer.Text path (fun w ->
        List.iter (Dfs_trace.Writer.write w) records)

let reproduce_setup size seed ~memo_donor =
  {
    presets = Inputs.presets size seed;
    scale = Inputs.reproduce_scale size;
    pool = Dfs_util.Pool.create ~jobs ();
    memo_donor;
  }

(* Where a pass's eight runs come from: [Dataset.generate] itself, which
   only knows the shipped seeds, or the benchmark's seeded copy of its
   wiring ([Inputs.presets] + [simulate_preset]), given one memo donor
   per preset. *)
type source = Generate | Seeded of Dataset.run list

let memo_donors rs =
  List.map
    (fun _ ->
      match Dataset.of_replay ~jobs rs.memo_donor with
      | Ok ({ Dataset.runs = [ donor ]; _ }, _) -> donor
      | Ok _ -> failwith "memo donor: expected one run"
      | Error e -> failwith ("memo donor: " ^ e))
    rs.presets

let simulate_preset (p : Dfs_workload.Presets.preset) =
  let span name f = Dfs_obs.Profiler.span ~cat:"perfbench" name f in
  let t0 = now () in
  let cluster, driver = span ("presets.run." ^ p.name) (fun () -> Dfs_workload.Presets.run p) in
  let trace =
    span ("cluster.merged_chunks." ^ p.name) (fun () ->
        Dfs_sim.Cluster.merged_chunks cluster)
  in
  Dfs_sim.Cluster.release_sim_state cluster;
  ((p, cluster, driver, trace), now () -. t0)

let simulate st rs = function
  | Generate ->
    (st.stage "dataset.generate" (fun () -> (Dataset.generate ~scale:rs.scale ~jobs ()).runs), [])
  | Seeded donors ->
    let sims = st.stage "sim" (fun () -> Dfs_util.Pool.map rs.pool simulate_preset rs.presets) in
    ( List.map2
        (fun (donor : Dataset.run) ((p, cluster, driver, trace), _) ->
          { donor with Dataset.preset = p; cluster; driver = Some driver; trace; jobs })
        donors sims,
      List.map (fun ((p, _, _, _), s) -> (p.Dfs_workload.Presets.name, s)) sims )

let reproduce_pass (st : stage) (rs : reproduce_state) source =
  let t0 = now () and w0 = minor_words () and e0 = counter "sim.engine.events" in
  let ((runs : Dataset.run list), preset_s), problems =
    with_cache_check (fun () -> simulate st rs source)
  in
  let t_sim = now () in
  let ds = { Dataset.scale = rs.scale; jobs; runs } in
  let digest, reproduced = analyse st ds in
  let t_end = now () in
  let records = List.fold_left (fun acc (r : Dataset.run) -> acc + Sink.length r.trace) 0 runs in
  let stored = List.fold_left (fun acc (r : Dataset.run) -> acc + stored_records r.trace) 0 runs in
  let problems =
    problems
    @ (if stored <> records then
         [ Printf.sprintf "merged traces hold %d records, report %d" stored records ]
       else [])
  in
  ( {
      wall_s = t_end -. t0;
      sim_s = t_sim -. t0;
      simulated_s =
        List.fold_left (fun acc (p : Dfs_workload.Presets.preset) -> acc +. p.duration) 0.0 rs.presets;
      analysis_s = Some (t_end -. t_sim);
      minor_words = minor_words () -. w0;
      digest;
      claims_reproduced = Some reproduced;
      records;
      events = counter "sim.engine.events" - e0;
      problems;
      preset_s;
    },
    (List.hd runs).trace )

(* -- scale ---------------------------------------------------------------------- *)

let scale_pass (st : stage) cfg =
  let t0 = now () and w0 = minor_words () and e0 = counter "sim.engine.events" in
  let r, problems =
    with_cache_check (fun () -> st.stage "sharded.run" (fun () -> Dfs_workload.Sharded.run ~workers:jobs cfg))
  in
  let t_sim = now () in
  let digest = st.stage "sharded.digest" (fun () -> Dfs_workload.Sharded.digest r.merged) in
  let records = Sink.length r.merged and stored = stored_records r.merged in
  Dfs_workload.Sharded.release r;
  let t_end = now () in
  let problems =
    problems
    @ (if stored <> records then
         [ Printf.sprintf "merged trace holds %d records, reports %d" stored records ]
       else [])
    @ (if r.barriers <= 0 || r.remote_msgs <= 0 then
         [ "no barriers or cross-partition messages" ]
       else [])
  in
  ( {
    wall_s = t_end -. t0;
    sim_s = t_sim -. t0;
    simulated_s = cfg.Dfs_workload.Sharded.duration;
    analysis_s = None;
    minor_words = minor_words () -. w0;
    digest;
    claims_reproduced = None;
    records;
    events = counter "sim.engine.events" - e0;
    problems;
    preset_s = [];
  },
    r.merged )

(* -- replay --------------------------------------------------------------------- *)

type replay_input = { columnar : string; imported_records : int; rows : int }

(* The one-off import: CSV through the ingest pipeline, then written as
   a checksummed columnar trace. *)
let replay_setup (st : stage) ~csv ~columnar =
  let records, stats =
    match st.stage "import" (fun () -> Dfs_ingest.Import.of_csv_file csv) with
    | Ok r -> r
    | Error e -> failwith ("import: " ^ e)
  in
  st.stage "writer.columnar" (fun () ->
      Dfs_trace.Writer.with_file ~format:Dfs_trace.Writer.Columnar columnar (fun w ->
          List.iter (Dfs_trace.Writer.write w) records));
  { columnar; imported_records = stats.Dfs_ingest.Import.records; rows = stats.rows }

let replay_pass (st : stage) input =
  let t0 = now () and w0 = minor_words () and e0 = counter "sim.engine.events" in
  let (ds, (stats : Dfs_workload.Replay.stats)), problems =
    with_cache_check (fun () ->
        match
          st.stage "dataset.of_replay" (fun () -> Dataset.of_replay ~jobs input.columnar)
        with
        | Ok r -> r
        | Error e -> failwith ("replay: " ^ e))
  in
  let t_sim = now () in
  let run = List.hd ds.runs in
  let trace_digest = st.stage "sharded.digest" (fun () -> Dfs_workload.Sharded.digest run.trace) in
  let renderings, _ = analyse st ds in
  let digest = Dfs_util.Crc32c.string (Printf.sprintf "%08x %08x" trace_digest renderings) in
  let t_end = now () in
  let records = Sink.length run.trace and stored = stored_records run.trace in
  let problems =
    problems
    @ (if stats.records <> input.imported_records then
         [ Printf.sprintf "replay read %d records, import wrote %d" stats.records
             input.imported_records ]
       else [])
    @ (if stats.skipped <> 0 then [ Printf.sprintf "replay skipped %d records" stats.skipped ]
       else [])
    @ (if stored <> records then
         [ Printf.sprintf "replayed trace holds %d records, reports %d" stored records ]
       else [])
  in
  ( {
    wall_s = t_end -. t0;
    sim_s = t_sim -. t0;
    simulated_s = stats.horizon;
    analysis_s = Some (t_end -. t_sim);
    minor_words = minor_words () -. w0;
    digest;
    claims_reproduced = None;
    records;
    events = counter "sim.engine.events" - e0;
    problems;
    preset_s = [];
  },
    run.trace )
