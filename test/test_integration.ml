(* End-to-end integration tests: short full-cluster simulations checked
   for global invariants, plus the experiment registry. *)

module Cluster = Dfs_sim.Cluster
module B = Dfs_trace.Record_batch
module Ids = Dfs_trace.Ids
module Bc = Dfs_cache.Block_cache

let shared_run =
  lazy
    (let p =
       Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace 1) ~factor:0.01
     in
     Dfs_workload.Presets.run p)

let trace () =
  Dfs_trace.Sink.to_batch (Cluster.merged_chunks (fst (Lazy.force shared_run)))

let cluster () = fst (Lazy.force shared_run)

let test_trace_nonempty_and_sorted () =
  let t = trace () in
  Alcotest.(check bool) "records exist" true (B.length t > 100);
  for i = 1 to B.length t - 1 do
    if B.time t (i - 1) > B.time t i then Alcotest.failf "record %d out of order" i
  done

let test_opens_match_closes () =
  let t = trace () in
  let count tag =
    let n = ref 0 in
    for i = 0 to B.length t - 1 do
      if B.tag t i = tag then incr n
    done;
    !n
  in
  let opens = count B.tag_open in
  let closes = count B.tag_close in
  (* sessions cut off at the horizon may leave a few dangling opens *)
  Alcotest.(check bool) "closes <= opens" true (closes <= opens);
  Alcotest.(check bool) "almost balanced" true (opens - closes < 64)

let test_cache_invariants_hold_after_run () =
  let c = cluster () in
  Array.iter
    (fun client -> Bc.check_invariants (Dfs_sim.Client.cache client))
    (Cluster.clients c);
  Array.iter
    (fun server -> Bc.check_invariants (Dfs_sim.Server.cache server))
    (Cluster.servers c)

let test_server_bytes_bounded_by_raw () =
  let c = cluster () in
  let raw = Dfs_sim.Traffic.total (Cluster.total_traffic c) in
  let srv = Dfs_sim.Traffic.total (Cluster.total_server_traffic c) in
  Alcotest.(check bool) "caches only filter, never amplify (with block slack)"
    true
    (float_of_int srv < (1.25 *. float_of_int raw) +. 1e6)

let test_hits_plus_misses () =
  let c = cluster () in
  Array.iter
    (fun client ->
      let s = (Bc.stats (Dfs_sim.Client.cache client)).all in
      Alcotest.(check int) "ops conserve" s.read_ops (s.read_hits + s.read_misses))
    (Cluster.clients c)

let test_counters_sampled () =
  let c = cluster () in
  Alcotest.(check bool) "counter samples recorded" true
    (Dfs_sim.Counters.count (Cluster.counters c) > 0)

let test_consistency_actions_only_under_multiclient () =
  (* replayed actions from the trace agree with the live servers' sums *)
  let c = cluster () in
  let t = trace () in
  let live =
    Array.fold_left
      (fun (o, s, r) server ->
        let k = Dfs_sim.Server.consistency server in
        (o + k.file_opens, s + k.sharing_opens, r + k.recalls))
      (0, 0, 0) (Cluster.servers c)
  in
  let replay = Dfs_analysis.Consistency_stats.analyze t in
  let live_opens, live_sharing, live_recalls = live in
  (* the live count includes infrastructure accesses that the merged trace
     scrubs, so replayed counts can be slightly lower, never higher *)
  Alcotest.(check bool) "opens bounded" true (replay.file_opens <= live_opens);
  Alcotest.(check bool) "sharing bounded" true
    (replay.sharing_opens <= live_sharing + 4);
  Alcotest.(check bool) "recalls close to live" true
    (abs (replay.recall_opens - live_recalls) <= live_recalls / 2 + 8)

let test_write_trace_files_and_reanalyze () =
  let c = cluster () in
  let dir = Filename.temp_file "dfs" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let paths =
        List.mapi
          (fun i chunks ->
            let path = Filename.concat dir (Printf.sprintf "s%d.trace" i) in
            Dfs_trace.Writer.with_file path (fun w ->
                Dfs_trace.Sink.iter (Dfs_trace.Writer.write w) chunks);
            path)
          (Cluster.server_chunks c)
      in
      let sources =
        List.map
          (fun p ->
            match Dfs_trace.Reader.batch_of_file p with
            | Ok b -> Dfs_trace.Sink.of_batch b
            | Error e -> Alcotest.failf "read %s: %s" p e)
          paths
      in
      let merged =
        Dfs_trace.Merge.merge_chunks ~scrub:Cluster.self_users sources
      in
      Alcotest.(check int) "file roundtrip preserves the trace"
        (B.length (trace ()))
        (Dfs_trace.Sink.length merged))

let test_experiment_registry () =
  Alcotest.(check int) "16 experiments" 16 (List.length Dfs_core.Experiment.all);
  List.iter
    (fun id ->
      match Dfs_core.Experiment.find id with
      | Some e -> Alcotest.(check string) "id match" id e.id
      | None -> Alcotest.failf "missing experiment %s" id)
    [ "table1"; "table12"; "fig1"; "fig4" ];
  Alcotest.(check (option string)) "unknown id" None
    (Option.map
       (fun (e : Dfs_core.Experiment.t) -> e.id)
       (Dfs_core.Experiment.find "table99"))

let test_experiments_render_on_tiny_dataset () =
  (* every experiment must produce a non-empty report without raising *)
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] () in
  List.iter
    (fun (e : Dfs_core.Experiment.t) ->
      let out = e.run ds in
      Alcotest.(check bool) (e.id ^ " renders") true (String.length out > 40))
    Dfs_core.Experiment.all

let test_claims_evaluate () =
  let ds = Dfs_core.Dataset.generate ~scale:0.004 ~traces:[ 1 ] () in
  let results = Dfs_core.Claims.evaluate ds in
  Alcotest.(check bool) "claims defined" true (List.length results >= 20);
  List.iter
    (fun (r : Dfs_core.Claims.result) ->
      Alcotest.(check bool)
        (r.claim.c_id ^ " measured is finite")
        true
        (Float.is_finite r.measured))
    results;
  let md = Dfs_core.Claims.markdown ds in
  Alcotest.(check bool) "markdown rows" true
    (List.length (String.split_on_char '\n' md) > 20)

let test_paper_constants_sane () =
  Alcotest.(check bool) "t10 range ordered" true
    (Dfs_core.Paper.t10_sharing.lo <= Dfs_core.Paper.t10_sharing.value
    && Dfs_core.Paper.t10_sharing.value <= Dfs_core.Paper.t10_sharing.hi);
  Alcotest.(check (float 1e-9)) "sprite baseline ratio" 1.0
    Dfs_core.Paper.t12_sprite.bytes_ratio;
  Alcotest.(check bool) "reads dominate" true
    (Dfs_core.Paper.t5_reads_pct > Dfs_core.Paper.t5_writes_pct)

(* With faults off, every byte a client cache writes back reaches a server
   as file-data writes, and every byte it fetches (read misses and write
   fetches) leaves a server as file-data or cached-paging reads.  A lost or
   duplicated writeback breaks the first identity. *)
let cache_server_conservation name c =
  let module T = Dfs_sim.Traffic in
  let sum f =
    Array.fold_left
      (fun acc cl -> acc + f (Bc.stats (Dfs_sim.Client.cache cl)))
      0 (Cluster.clients c)
  in
  let server = Cluster.total_server_traffic c in
  let written = sum (fun s -> s.writeback_bytes) in
  Alcotest.(check int)
    (name ^ ": writeback bytes = server file-data writes")
    written
    (T.write_bytes server T.File_data);
  Alcotest.(check int)
    (name ^ ": fetched bytes = server file-data + cached-paging reads")
    (sum (fun s -> s.all.bytes_fetched + s.all.write_fetch_bytes))
    (T.read_bytes server T.File_data + T.read_bytes server T.Paging_cached);
  written

let test_cache_server_conservation () =
  let presets =
    List.map
      (fun (p : Dfs_workload.Presets.preset) ->
        let p = Dfs_workload.Presets.scaled p ~factor:0.005 in
        let cluster, _ = Dfs_workload.Presets.run ~quiet:true p in
        cache_server_conservation p.name cluster)
      (Dfs_workload.Presets.all ())
  in
  Alcotest.(check bool) "the presets write back" true (List.fold_left ( + ) 0 presets > 0);
  match Dfs_ingest.Import.of_csv_file "../examples/sample_block_trace.csv" with
  | Error e -> Alcotest.failf "import: %s" e
  | Ok (records, _) -> (
    match Dfs_workload.Replay.run (B.of_list records) with
    | Error e -> Alcotest.failf "replay: %s" e
    | Ok (cluster, _) ->
      let written = cache_server_conservation "sample replay" cluster in
      Alcotest.(check bool) "the sample replay writes back" true (written > 0))

(* -- the per-run analysis memo ---------------------------------------------------------- *)

module Dataset = Dfs_core.Dataset
module A = Dfs_analysis
module C = Dfs_consistency

(* Structural equality with floats compared by [Float.equal]: that is
   [compare = 0].  Polling's user sets are compared as sets. *)
let same name a b = Alcotest.(check bool) name true (compare a b = 0)

let same_polling name (a : C.Polling.report) (b : C.Polling.report) =
  let strip (r : C.Polling.report) =
    { r with affected_user_ids = Ids.User.Set.empty; seen_user_ids = Ids.User.Set.empty }
  in
  same name (strip a) (strip b);
  Alcotest.(check bool) (name ^ " affected users") true
    (Ids.User.Set.equal a.affected_user_ids b.affected_user_ids);
  Alcotest.(check bool) (name ^ " seen users") true
    (Ids.User.Set.equal a.seen_user_ids b.seen_user_ids)

(* Every memoized report against the standalone analysis of the run's
   trace as one contiguous batch. *)
let check_memo_matches_standalone (r : Dataset.run) =
  let b = Dataset.batch r in
  let name = r.preset.name in
  List.iter
    (fun interval ->
      List.iter
        (fun migrated_only ->
          same
            (Printf.sprintf "%s: activity %gs migrated_only=%b" name interval migrated_only)
            (Dataset.activity r ~migrated_only ~interval)
            (A.Activity.analyze ~migrated_only ~interval b))
        [ false; true ])
    Dataset.activity_intervals;
  List.iter
    (fun interval ->
      same_polling
        (Printf.sprintf "%s: polling %gs" name interval)
        (Dataset.polling r ~interval)
        (C.Polling.simulate ~interval b))
    Dataset.polling_intervals;
  same (name ^ ": consistency") (Dataset.consistency r) (A.Consistency_stats.analyze b);
  same (name ^ ": shared streams") (Dataset.shared_streams r) (C.Shared_events.extract b)

let with_temp_file suffix f =
  let path = Filename.temp_file "dfs" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let write_trace path records =
  Dfs_trace.Writer.with_file ~format:Dfs_trace.Writer.Text path (fun w ->
      List.iter (Dfs_trace.Writer.write w) records)

let rechunk ~chunk_records chunks =
  let sink = Dfs_trace.Sink.create ~chunk_records () in
  Dfs_trace.Sink.iter_batches
    (fun b ->
      for i = 0 to B.length b - 1 do
        Dfs_trace.Sink.emit_from sink b i
      done)
    chunks;
  Dfs_trace.Sink.close sink

(* Chunks of 257 records, so open handles cross batch boundaries.  The
   sample replay's trace is shorter: it is cut into chunks of 7, in a
   copy of the run that takes over its unforced memo. *)
let test_memo_matches_standalone () =
  let ds = Dataset.generate ~scale:0.005 ~jobs:1 ~chunk_records:257 () in
  Alcotest.(check int) "eight presets" 8 (List.length ds.runs);
  List.iter check_memo_matches_standalone ds.runs;
  match Dfs_ingest.Import.of_csv_file "../examples/sample_block_trace.csv" with
  | Error e -> Alcotest.failf "import: %s" e
  | Ok (records, _) ->
    with_temp_file ".trace" (fun path ->
        write_trace path records;
        match Dataset.of_replay ~jobs:1 path with
        | Error e -> Alcotest.failf "replay: %s" e
        | Ok (ds, _) ->
          List.iter
            (fun (r : Dataset.run) ->
              let r = { r with trace = rechunk ~chunk_records:7 r.trace } in
              Alcotest.(check bool) "replay trace is chunked" true
                (Dfs_trace.Sink.chunk_count r.trace > 2);
              check_memo_matches_standalone r)
            ds.runs)

let trace_sweeps = Dfs_obs.Metrics.counter "analysis.trace_sweeps"

let sweeps_during f =
  let before = Dfs_obs.Metrics.value trace_sweeps in
  let v = f () in
  (v, Dfs_obs.Metrics.value trace_sweeps - before)

(* Every experiment and every claim read the memo: the fused pass, the
   derived scan and Shared_events' second pass are the only sweeps. *)
let test_three_sweeps_per_run () =
  let ds = Dataset.generate ~scale:0.004 ~traces:[ 1; 2 ] ~jobs:1 () in
  let (), sweeps =
    sweeps_during (fun () ->
        List.iter (fun (e : Dfs_core.Experiment.t) -> ignore (e.run ds)) Dfs_core.Experiment.all;
        ignore (Dfs_core.Claims.evaluate ds))
  in
  Alcotest.(check int) "3 trace sweeps per run" (3 * List.length ds.runs) sweeps

(* Two domains force one run's memo at once: one derived computation
   (its scan and the shared-event pass), physically shared. *)
let test_memo_forced_from_two_domains () =
  let ds = Dataset.generate ~scale:0.004 ~traces:[ 1 ] ~jobs:1 () in
  let r = List.hd ds.runs in
  let go = Atomic.make false in
  let force () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    (Dataset.activity r ~migrated_only:false ~interval:10.0, Dataset.shared_streams r)
  in
  let ((a1, s1), (a2, s2)), sweeps =
    sweeps_during (fun () ->
        let d1 = Domain.spawn force and d2 = Domain.spawn force in
        Atomic.set go true;
        let x = Domain.join d1 in
        (x, Domain.join d2))
  in
  Alcotest.(check bool) "same activity report" true (a1 == a2);
  Alcotest.(check bool) "same shared streams" true (s1 == s2);
  Alcotest.(check int) "one derived computation: 2 sweeps" 2 sweeps

let test_memo_rejects_other_intervals () =
  let ds = Dataset.generate ~scale:0.004 ~traces:[ 1 ] ~jobs:1 () in
  let r = List.hd ds.runs in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let (), sweeps =
    sweeps_during (fun () ->
        Alcotest.(check bool) "activity at 60 s" true
          (raises (fun () -> Dataset.activity r ~migrated_only:false ~interval:60.0));
        Alcotest.(check bool) "polling at 10 s" true
          (raises (fun () -> Dataset.polling r ~interval:10.0)))
  in
  Alcotest.(check int) "no sweep for a rejected interval" 0 sweeps

(* The memo of a run whose trace is a random stream, cut into chunks of
   1-7 records, against the standalone analyses of the stream.  The
   run's fresh memo comes from a replay of a two-record donor trace. *)
let prop_memo_matches_standalone =
  let donor =
    lazy
      (let path = Filename.temp_file "dfs" ".trace" in
       at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
       let csv = "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n0,h,0,Read,0,4096\n" in
       (match Dfs_ingest.Import.of_csv_string ~source:"donor" csv with
       | Error e -> failwith e
       | Ok (records, _) -> write_trace path records);
       path)
  in
  QCheck.Test.make ~name:"memo equals standalone analyses on random streams" ~count:100
    QCheck.(pair (int_range 1 7) Test_consistency.arb_stream)
    (fun (chunk_records, rs) ->
      let donor =
        match Dataset.of_replay ~jobs:1 (Lazy.force donor) with
        | Ok ({ runs = [ r ]; _ }, _) -> r
        | Ok _ | Error _ -> failwith "donor replay"
      in
      let r = { donor with Dataset.trace = rechunk ~chunk_records (Dfs_trace.Sink.of_batch (B.of_list rs)) } in
      check_memo_matches_standalone r;
      true)

let suite =
  [
    ("trace nonempty and sorted", `Slow, test_trace_nonempty_and_sorted);
    ("opens match closes", `Slow, test_opens_match_closes);
    ("cache invariants after run", `Slow, test_cache_invariants_hold_after_run);
    ("server bytes bounded by raw", `Slow, test_server_bytes_bounded_by_raw);
    ("hits plus misses conserve", `Slow, test_hits_plus_misses);
    ("cache and server bytes conserve", `Slow, test_cache_server_conservation);
    ("counters sampled", `Slow, test_counters_sampled);
    ("consistency replay vs live", `Slow, test_consistency_actions_only_under_multiclient);
    ("trace files roundtrip + reanalyze", `Slow, test_write_trace_files_and_reanalyze);
    ("experiment registry", `Quick, test_experiment_registry);
    ("experiments render", `Slow, test_experiments_render_on_tiny_dataset);
    ("claims evaluate", `Slow, test_claims_evaluate);
    ("paper constants sane", `Quick, test_paper_constants_sane);
    ("memo equals standalone analyses", `Slow, test_memo_matches_standalone);
    ("three trace sweeps per run", `Slow, test_three_sweeps_per_run);
    ("memo forced from two domains", `Slow, test_memo_forced_from_two_domains);
    ("memo rejects other intervals", `Slow, test_memo_rejects_other_intervals);
    QCheck_alcotest.to_alcotest prop_memo_matches_standalone;
  ]
