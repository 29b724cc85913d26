(* The traced run: one pass with every stage wrapped in a profiler span
   and bracketed by counter and GC reads, then the per-layer drives.

   Counters are the library's own [Dfs_obs.Metrics], zeroed just before
   the traced pass, so their values afterwards are the pass's.  Spans
   stay in memory and are written at exit as a Chrome trace, next to a
   per-layer table.  Every time and rate in them is in reference units,
   converted with the traced pass's own host-to-reference factor, like
   the end-to-end timings.  The run fails when its stage spans cover
   less than [min_coverage] of the pass's wall time. *)

module W = Workloads
module M = Dfs_obs.Metrics
module Profiler = Dfs_obs.Profiler

let now = Unix.gettimeofday
let min_coverage = 0.9

type stage_record = {
  name : string;
  dur : float;
  minor_words : float;
  promoted_words : float;
  pool : (float * float) option;  (** utilization, idle seconds of its Pool.map *)
}

let gauge name = M.gauge_value (M.gauge name)

let recorder () =
  let log = ref [] in
  let stage name f =
    let g0 = Gc.quick_stat () and pool0 = gauge "pool.wall_s" and t0 = now () in
    let r = Profiler.span ~cat:"perfbench" name f in
    let dur = now () -. t0 and g1 = Gc.quick_stat () in
    let pool =
      if gauge "pool.wall_s" <> pool0 then Some (gauge "pool.utilization", gauge "pool.idle_s")
      else None
    in
    log :=
      {
        name;
        dur;
        minor_words = g1.minor_words -. g0.minor_words;
        promoted_words = g1.promoted_words -. g0.promoted_words;
        pool;
      }
      :: !log;
    r
  in
  ({ W.stage }, fun () -> List.rev !log)

let has_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let sum_stages stages p f =
  List.fold_left (fun acc s -> if p s.name then acc +. f s else acc) 0.0 stages

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The pass's counters, read before the layer drives bump them again. *)
let snapshot () =
  let t = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match M.find name with
      | Some (M.Counter k) -> Hashtbl.replace t name (float_of_int (M.value k))
      | Some (M.Gauge g) -> Hashtbl.replace t name (M.gauge_value g)
      | Some (M.Histogram h) -> Hashtbl.replace t name (M.quantile h 0.5)
      | None -> ())
    (M.names ());
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt t name)

(* File population for the cache drive: (file, size) of the first
   closes of distinct files in the workload's trace. *)
let files_of chunks =
  let seen = Hashtbl.create 4096 in
  (try
     Dfs_trace.Sink.iter
       (fun (r : Dfs_trace.Record.t) ->
         match r.kind with
         | Close { size; _ } when size > 0 ->
           let f = Dfs_trace.Ids.File.to_int r.file in
           if not (Hashtbl.mem seen f) then Hashtbl.replace seen f size;
           if Hashtbl.length seen >= 4096 then raise Exit
         | _ -> ())
       chunks
   with Exit -> ());
  Array.of_seq (Hashtbl.to_seq seen)

let cap n = min n 300_000

(* Drives every simulator layer on a stream shaped like the traced
   pass's counters and on its [sample] trace; returns (name, value,
   unit) metrics in host units. *)
let layer_drives c sample =
  let span name f = Profiler.span ~cat:"layer" name f in
  let n name = int_of_float (c name) in
  let events = n "sim.engine.events" in
  let depth = n "sim.engine.queue_depth" in
  let engine = span "layer.engine" (fun () -> Layers.engine ~events:(cap events) ~depth) in
  let lookups = n "sim.cache.read_lookups" and write_blocks = n "sim.cache.write_blocks" in
  let cache =
    span "layer.block_cache" (fun () ->
        Layers.cache
          ~ops:(cap (lookups + write_blocks))
          ~write_share:(ratio (float_of_int write_blocks) (float_of_int (lookups + write_blocks)))
          ~files:(files_of sample))
  in
  let rpcs = n "sim.net.rpcs" in
  let fetches = c "sim.cache.read_misses" and writebacks = c "sim.cache.writebacks"
  and opens = c "sim.server.opens" in
  let bytes_per_rpc = int_of_float (ratio (c "sim.net.bytes") (float_of_int rpcs)) in
  let net =
    span "layer.network" (fun () ->
        Layers.network ~rpcs:(cap rpcs)
          ~mix:
            [
              ("fetch", fetches, bytes_per_rpc);
              ("writeback", writebacks, bytes_per_rpc);
              ("open", opens, 0);
              ("close", opens, 0);
            ])
  in
  let reads = n "sim.disk.reads" and writes = n "sim.disk.writes" in
  let disk_bytes =
    int_of_float
      (ratio (c "sim.disk.bytes_read" +. c "sim.disk.bytes_written") (float_of_int (reads + writes)))
  in
  let disk =
    span "layer.disk" (fun () ->
        let scale = ratio (float_of_int (cap (reads + writes))) (float_of_int (max 1 (reads + writes))) in
        Layers.disk
          ~reads:(int_of_float (float_of_int reads *. scale))
          ~writes:(int_of_float (float_of_int writes *. scale))
          ~bytes:disk_bytes)
  in
  let codec = span "layer.segment" (fun () -> Layers.codec (Dfs_trace.Sink.to_batch sample)) in
  let merge = span "layer.merge" (fun () -> Layers.merge sample) in
  [
    ("engine.ns_per_event", engine.ns, "ns");
    ("engine.alloc_words_per_event", engine.words, "words");
    ("cache.ns_per_op", cache.ns, "ns");
    ("cache.alloc_words_per_op", cache.words, "words");
    ("net.ns_per_rpc", net.ns, "ns");
    ("net.alloc_words_per_rpc", net.words, "words");
    ("disk.ns_per_op", disk.ns, "ns");
    ("segment.encode_mb_per_s", codec.encode_mb_s, "MB/s");
    ("segment.decode_mb_per_s", codec.decode_mb_s, "MB/s");
    ("crc32c.mb_per_s", codec.crc_mb_s, "MB/s");
    ("sink.ns_per_record", merge.sink.ns, "ns");
    ("merge.ns_per_record", merge.kway.ns, "ns");
    ("merge.alloc_words_per_record", merge.kway.words, "words");
  ]

let experiment_ids = List.map (fun (e : Dfs_core.Experiment.t) -> e.id) Dfs_core.Experiment.all

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* Host time to reference time, by unit. *)
let in_reference factor (name, v, unit) =
  match unit with
  | "s" | "us" | "ns" -> (name, v *. factor, unit)
  | "1/s" | "MB/s" -> (name, v /. factor, unit)
  | _ -> (name, v, unit)

(* Per-layer metrics in the order BENCHMARK.json lists them.  [pass ()]
   does a pass's untimed preparation and returns the pass. *)
let run ~workload ~seed ~out_dir ~kernel ~rows ~setup ~check pass =
  (* the baseline for the tracing overhead: the same input, untraced,
     right before the traced pass *)
  let untraced_wall, baseline_problems =
    match
      let go = pass () in
      Refclock.time kernel (fun () -> fst (go W.untraced))
    with
    | p, host, factor -> (host *. factor, check p)
    | exception e -> (0.0, [ Printexc.to_string e ])
  in
  let go = try Ok (pass ()) with e -> Error (Printexc.to_string e) in
  (* set-up once more under the recorder, for the ingest stage *)
  let setup_st, setup_log = recorder () in
  Profiler.enable ();
  setup setup_st;
  M.reset ();
  let st, log = recorder () in
  let outcome, wall, factor =
    Refclock.time kernel (fun () ->
        match go with
        | Error e -> Error e
        | Ok go -> ( try Ok (go st) with e -> Error (Printexc.to_string e)))
  in
  let stages = log () in
  let covered = sum_stages stages (fun _ -> true) (fun s -> s.dur) in
  let coverage = ratio covered wall in
  let problems =
    baseline_problems
    @ (match outcome with Ok (p, _) -> check p | Error e -> [ e ])
    @
    if coverage < min_coverage then
      [ Printf.sprintf "stage spans cover %.1f%% of the traced pass (need %.0f%%)"
          (100.0 *. coverage) (100.0 *. min_coverage) ]
    else []
  in
  List.iter (Printf.printf "traced pass FAILED: %s\n%!") problems;
  let p : W.pass option = match outcome with Ok (p, _) -> Some p | Error _ -> None in
  let stage_s p = sum_stages stages p (fun s -> s.dur) in
  let named n = stage_s (fun s -> s = n) in
  let sim_stage s = List.mem s [ "sim"; "sharded.run"; "dataset.of_replay" ] in
  let sim_s = stage_s sim_stage in
  let c = snapshot () in
  let events = c "sim.engine.events" and barriers = c "sim.barrier.count" in
  let shards f =
    let rec go i acc =
      let name = Printf.sprintf "sim.shard%d.%s" i f in
      if M.find name = None then acc else go (i + 1) (acc +. c name)
    in
    go 0 0.0
  in
  let busy = shards "busy_s" and stall = shards "stall_s" in
  let spans = Profiler.spans () in
  let merge = List.filter (fun (s : Profiler.span) -> s.name = "trace.kway_merge") spans in
  let merge_s = List.fold_left (fun acc (s : Profiler.span) -> acc +. s.dur) 0.0 merge in
  let records = match p with Some p -> float_of_int p.records | None -> 0.0 in
  let fused_s = stage_s (has_prefix "fused.") in
  let experiments_s = stage_s (has_prefix "experiment.") in
  let setup_stages = setup_log () in
  let import_s = sum_stages setup_stages (fun n -> n = "import") (fun s -> s.dur) in
  let import_words = sum_stages setup_stages (fun n -> n = "import") (fun s -> s.minor_words) in
  let pool =
    List.find_map (fun s -> if s.pool <> None then s.pool else None) stages
    |> Option.value ~default:(0.0, 0.0)
  in
  let gc label pred_stages from_setup =
    let src = if from_setup then setup_stages else stages in
    [
      (Printf.sprintf "gc.%s.minor_mwords" label, sum_stages src pred_stages (fun s -> s.minor_words) /. 1e6, "Mwords");
      ( Printf.sprintf "gc.%s.promoted_mwords" label,
        sum_stages src pred_stages (fun s -> s.promoted_words) /. 1e6,
        "Mwords" );
    ]
  in
  let preset_s n =
    match p with
    | Some p -> Option.value ~default:0.0 (List.assoc_opt (Printf.sprintf "trace%d" n) p.preset_s)
    | None -> 0.0
  in
  let lookups = c "sim.cache.read_lookups" in
  let applied = c "replay.applied" and skipped = c "replay.skipped" in
  let drives = match outcome with Ok (_, sample) -> layer_drives c sample | Error _ -> [] in
  let drive n = Option.value ~default:0.0 (Option.map (fun (_, v, _) -> v) (List.find_opt (fun (m, _, _) -> m = n) drives)) in
  let analysis_s = fused_s +. experiments_s +. named "claims" in
  let metrics =
    List.map (in_reference factor)
      ([
        ("engine.events", events, "count");
        ("engine.ns_per_event", drive "engine.ns_per_event", "ns");
        ("engine.alloc_words_per_event", drive "engine.alloc_words_per_event", "words");
        ("engine.queue_depth_p50", c "sim.engine.queue_depth", "count");
        ("pdes.barriers", barriers, "count");
        ("pdes.messages", c "sim.pdes.messages", "count");
        ("pdes.events_per_barrier", ratio events barriers, "count");
        ("pdes.busy_s", busy, "s");
        ("pdes.stall_s", stall, "s");
        ("pdes.utilization", ratio busy (busy +. stall), "ratio");
        ("pdes.us_per_barrier", ratio (sim_s *. 1e6) barriers, "us");
        ("client.ops", c "sim.client.ops", "count");
        ("workload.migrations", c "workload.migrations", "count");
      ]
      @ List.init 8 (fun i -> (Printf.sprintf "sim.preset.trace%d.s" (i + 1), preset_s (i + 1), "s"))
      @ [
          ("cache.read_lookups", lookups, "count");
          ("cache.hit_ratio", ratio (c "sim.cache.read_hits") lookups, "ratio");
          ("cache.evictions", c "sim.cache.evictions", "count");
          ("cache.writebacks", c "sim.cache.writebacks", "count");
          ("cache.write_fetches", c "sim.cache.write_fetches", "count");
          ("cache.ns_per_op", drive "cache.ns_per_op", "ns");
          ("cache.alloc_words_per_op", drive "cache.alloc_words_per_op", "words");
          ("net.rpcs", c "sim.net.rpcs", "count");
          ("net.mbytes", c "sim.net.bytes" /. 1e6, "MB");
          ("net.ns_per_rpc", drive "net.ns_per_rpc", "ns");
          ("net.alloc_words_per_rpc", drive "net.alloc_words_per_rpc", "words");
          ("server.opens", c "sim.server.opens", "count");
          ("server.recalls", c "sim.server.recalls", "count");
          ("server.cache_disables", c "sim.server.cache_disables", "count");
          ("disk.reads", c "sim.disk.reads", "count");
          ("disk.writes", c "sim.disk.writes", "count");
          ("disk.mbytes_written", c "sim.disk.bytes_written" /. 1e6, "MB");
          ("disk.ns_per_op", drive "disk.ns_per_op", "ns");
          ("sink.chunks_sealed", c "trace.sink.chunks_sealed", "count");
          ("merge.s", merge_s, "s");
          ("merge.records_per_s", ratio records merge_s, "1/s");
          ("sink.ns_per_record", drive "sink.ns_per_record", "ns");
          ("merge.ns_per_record", drive "merge.ns_per_record", "ns");
          ("merge.alloc_words_per_record", drive "merge.alloc_words_per_record", "words");
          ("segment.encode_mb_per_s", drive "segment.encode_mb_per_s", "MB/s");
          ("segment.decode_mb_per_s", drive "segment.decode_mb_per_s", "MB/s");
          ("crc32c.mb_per_s", drive "crc32c.mb_per_s", "MB/s");
          ("trace.verified_mb", c "trace.checksum.verified_bytes" /. 1e6, "MB");
          ("trace.mapped_mb", c "trace.mapped_bytes" /. 1e6, "MB");
          ("digest.s", named "sharded.digest", "s");
          ("ingest.s", import_s, "s");
          ("ingest.rows_per_s", ratio (float_of_int rows) import_s, "1/s");
          ("ingest.alloc_words_per_row", ratio import_words (float_of_int rows), "words");
          ("replay.s", named "dataset.of_replay", "s");
          ("replay.applied", applied, "count");
          ("replay.skipped_share", ratio skipped (applied +. skipped), "ratio");
          ("fused.s", fused_s, "s");
          ("fused.records_per_s", ratio records fused_s, "1/s");
        ]
      @ List.map (fun id -> (Printf.sprintf "experiment.%s.s" id, named ("experiment." ^ id), "s")) experiment_ids
      @ [
          ("claims.s", named "claims", "s");
          ("analysis.s", analysis_s, "s");
          ( "claims.reproduced",
            (match p with Some { claims_reproduced = Some n; _ } -> float_of_int n | _ -> 0.0),
            "count" );
          ("pool.utilization", fst pool, "ratio");
          ("pool.idle_s", snd pool, "s");
        ]
      @ gc "sim" sim_stage false
      @ gc "fused" (has_prefix "fused.") false
      @ gc "experiments" (has_prefix "experiment.") false
      @ gc "import" (fun n -> n = "import" || n = "writer.columnar") true)
    @ [
        ("tracing.wall_s", wall *. factor, "s");
        ("tracing.overhead_s", (wall *. factor) -. untraced_wall, "s");
        ("tracing.coverage", coverage, "ratio");
      ]
  in
  Profiler.disable ();
  let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" workload seed) in
  let chrome = base ^ ".trace.json" and table = base ^ ".layers.txt" in
  Out_channel.with_open_bin chrome (fun oc -> Dfs_obs.Chrome_export.write oc);
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "per-layer metrics: %s, seed %d (traced pass %.3f ref s, untraced pass %.3f ref s)\n"
    workload seed (wall *. factor) untraced_wall;
  Printf.bprintf b "%-34s %16s  %s\n" "metric" "value" "unit";
  List.iter (fun (n, v, u) -> Printf.bprintf b "%-34s %16.6g  %s\n" n v u) metrics;
  Printf.bprintf b "\nstages of the traced pass:\n";
  List.iter
    (fun s ->
      Printf.bprintf b "  %-34s %10.4f ref s %10.2f Mwords\n" s.name (s.dur *. factor)
        (s.minor_words /. 1e6))
    stages;
  write_file table (Buffer.contents b);
  print_string (Buffer.contents b);
  Printf.printf
    "tracing overhead: %.3f ref s (traced %.3f - untraced %.3f, same input); span coverage %.1f%%\n"
    ((wall *. factor) -. untraced_wall) (wall *. factor) untraced_wall (100.0 *. coverage);
  Printf.printf "wrote %s and %s\n" chrome table;
  (metrics, if problems = [] then 0 else 1)
