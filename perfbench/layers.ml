(* Per-layer drives: each simulator layer's public API on a call stream
   shaped like the workload's own (op counts, read/write mix, file sizes,
   queue depth), timed and allocation-counted from outside.

   Every drive repeats its stream until it has run for [min_time], so a
   small stream still gives a steady per-op figure; it returns seconds
   and minor words per op. *)

module Block_cache = Dfs_cache.Block_cache

let min_time = 0.2

type per_op = { ns : float; words : float }

(* [run ()] performs [ops] operations; repeated until [min_time]. *)
let measure ~ops run =
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while !reps = 0 || Unix.gettimeofday () -. t0 < min_time do
    run ();
    incr reps
  done;
  let total = float_of_int (max 1 (ops * !reps)) in
  {
    ns = (Unix.gettimeofday () -. t0) *. 1e9 /. total;
    words = (Gc.minor_words () -. w0) /. total;
  }

(* -- Engine: schedule + dispatch, and effect-based spawn/sleep --------------- *)

(* [depth] self-rescheduling callbacks keep the queue at the workload's
   median depth; a quarter of the events are sleeps of spawned
   processes, as the client and daemon processes do. *)
let engine ~events ~depth =
  let events = max 1000 events and depth = max 1 depth in
  let delays = Array.init 4096 (fun i -> 0.001 +. float_of_int ((i * 7919) mod 1000) *. 1e-3) in
  let procs = max 1 (depth / 4) in
  let sleeps = events / 4 / procs in
  let callbacks = events - (procs * sleeps) in
  let executed = ref 0 in
  let run () =
    let e = Dfs_sim.Engine.create () in
    let remaining = ref callbacks and k = ref 0 in
    let rec tick () =
      if !remaining > 0 then begin
        decr remaining;
        incr k;
        ignore (Dfs_sim.Engine.schedule_in e ~delay:delays.(!k land 4095) tick)
      end
    in
    for _ = 1 to depth do
      ignore (Dfs_sim.Engine.schedule_in e ~delay:0.0 tick)
    done;
    for p = 1 to procs do
      Dfs_sim.Engine.spawn e ~at:(float_of_int p *. 1e-4) (fun () ->
          for i = 1 to sleeps do
            Dfs_sim.Engine.sleep delays.((p + i) land 4095)
          done)
    done;
    Dfs_sim.Engine.run_until e infinity;
    executed := Dfs_sim.Engine.events_executed e
  in
  run ();
  measure ~ops:!executed run

(* -- Block_cache: read / write / tick with a counting backend ------------------ *)

(* [files] are (file id, size in bytes) pairs taken from the workload's
   closes; each op touches one block of a file, writing with
   probability [write_share]. *)
let cache ~ops ~write_share ~files =
  let ops = max 1000 ops in
  let files = if files = [||] then [| (1, 65536) |] else files in
  let block = Block_cache.default_config.block_size in
  let st = Random.State.make [| 17 |] in
  let stream =
    Array.init ops (fun _ ->
        let f, size = files.(Random.State.int st (Array.length files)) in
        let size = max block size in
        let off = block * Random.State.int st (max 1 (size / block)) in
        (Dfs_trace.Ids.File.of_int f, size, off, Random.State.float st 1.0 < write_share))
  in
  let fetched = ref 0 and written = ref 0 in
  let backend =
    {
      Block_cache.fetch = (fun ~cls:_ ~file:_ ~index:_ ~bytes -> fetched := !fetched + bytes);
      writeback = (fun ~file:_ ~index:_ ~bytes ~reason:_ -> written := !written + bytes);
    }
  in
  measure ~ops (fun () ->
      let c = Block_cache.create backend in
      Array.iteri
        (fun i (file, file_size, off, write) ->
          let now = float_of_int i *. 0.01 in
          (if write then
             Block_cache.write c ~now ~cls:Block_cache.Class_file ~migrated:false ~file
               ~file_size ~off ~len:block
           else
             Block_cache.read c ~now ~cls:Block_cache.Class_file ~migrated:false ~file
               ~file_size ~off ~len:block);
          if i land 1023 = 0 then Block_cache.tick c ~now)
        stream)

(* -- Network.rpc ------------------------------------------------------------- *)

(* [mix] is (kind, share, bytes per call) as the workload issued them. *)
let network ~rpcs ~mix =
  let rpcs = max 1000 rpcs in
  let mix = if mix = [] then [ ("fetch", 1.0, 4096) ] else mix in
  let total = List.fold_left (fun acc (_, w, _) -> acc +. w) 0.0 mix in
  let stream =
    Array.init rpcs (fun i ->
        let x = float_of_int i /. float_of_int rpcs *. total in
        let rec pick acc = function
          | [ (k, _, b) ] -> (k, b)
          | (k, w, b) :: rest -> if x < acc +. w then (k, b) else pick (acc +. w) rest
          | [] -> ("fetch", 4096)
        in
        pick 0.0 mix)
  in
  measure ~ops:rpcs (fun () ->
      let net = Dfs_sim.Network.create () in
      Array.iter (fun (kind, bytes) -> ignore (Dfs_sim.Network.rpc net ~kind ~bytes)) stream)

(* -- Disk.read / Disk.write --------------------------------------------------- *)

let disk ~reads ~writes ~bytes =
  let ops = max 1000 (reads + writes) in
  let write_every = if writes = 0 then max_int else max 1 ((reads + writes) / max 1 writes) in
  let bytes = max 1 bytes in
  measure ~ops (fun () ->
      let d = Dfs_sim.Disk.create () in
      for i = 1 to ops do
        ignore
          (if i mod write_every = 0 then Dfs_sim.Disk.write d ~bytes
           else Dfs_sim.Disk.read d ~bytes)
      done)

(* -- Segment codec and CRC-32C on the workload's own trace ----------------------- *)

type codec = { encode_mb_s : float; decode_mb_s : float; crc_mb_s : float }

let codec batch =
  let encoded = Dfs_trace.Segment.encode_batch batch in
  let mb = float_of_int (String.length encoded) /. 1e6 in
  let rate per_op = mb /. (per_op.ns *. 1e-9) in
  let enc = measure ~ops:1 (fun () -> ignore (Dfs_trace.Segment.encode_batch batch)) in
  let dec =
    measure ~ops:1 (fun () ->
        match Dfs_trace.Segment.batch_of_string encoded with
        | Ok _ -> ()
        | Error e -> failwith ("segment decode: " ^ e))
  in
  let crc = measure ~ops:1 (fun () -> ignore (Dfs_util.Crc32c.string encoded)) in
  { encode_mb_s = rate enc; decode_mb_s = rate dec; crc_mb_s = rate crc }

(* -- Sink append + seal, then the k-way Merge ------------------------------------ *)

(* The workload's merged trace is split back into per-server logs (each
   record appended to its server's sink, chunks sealed as they fill) and
   merged again, as [Cluster.merged_chunks] does after a run. *)
type merge = { sink : per_op; kway : per_op }

let merge chunks =
  let batch = Dfs_trace.Sink.to_batch chunks in
  let n = Dfs_trace.Record_batch.length batch in
  let split () =
    let sinks = Hashtbl.create 8 in
    for i = 0 to n - 1 do
      let s = Dfs_trace.Record_batch.server batch i in
      let sink =
        match Hashtbl.find_opt sinks s with
        | Some k -> k
        | None ->
          let k = Dfs_trace.Sink.create () in
          Hashtbl.replace sinks s k;
          k
      in
      Dfs_trace.Sink.emit_from sink batch i
    done;
    List.map (fun (_, k) -> Dfs_trace.Sink.close k)
      (List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq sinks)))
  in
  let sink = measure ~ops:n (fun () -> ignore (split ())) in
  let sources = split () in
  let kway = measure ~ops:n (fun () -> ignore (Dfs_trace.Merge.merge_chunks sources)) in
  { sink; kway }
