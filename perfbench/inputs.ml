(* Workload inputs, made from the seed alone.

   Seed 0 is the default: it reproduces the shipped configuration (the
   eight preset seeds of Table 1, the [dfs_repro scale] seed 42).  Any
   other seed derives every per-workload seed from the shipped one, so
   inputs are a pure function of [--seed]. *)

type size = Full | Tiny

let default_seed = 0

let derive ~shipped seed =
  if seed = default_seed then shipped
  else (shipped + (7919 * seed)) land 0x3fff_ffff

(* -- reproduce: the eight trace presets ------------------------------------ *)

let reproduce_scale = function Full -> 0.02 | Tiny -> 0.001

let presets size seed =
  List.map
    (fun n ->
      let p =
        Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace n)
          ~factor:(reproduce_scale size)
      in
      let s = derive ~shipped:p.Dfs_workload.Presets.seed seed in
      (* the same wiring [Dataset.generate] applies to every preset *)
      {
        p with
        Dfs_workload.Presets.seed = s;
        cluster_config =
          {
            p.cluster_config with
            Dfs_sim.Cluster.seed = s;
            trace_chunk_records = Dfs_trace.Sink.default_chunk_records;
            trace_spill_dir = None;
            trace_spill_tag = p.name;
          };
      })
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- scale: the [dfs_repro scale] cluster shape ------------------------------ *)

let scale_days = function Full -> 0.02 | Tiny -> 0.003

let scale_config size seed =
  {
    Dfs_workload.Sharded.default_config with
    Dfs_workload.Sharded.n_clients = 320;
    n_servers = 8;
    seed = derive ~shipped:42 seed;
    duration = scale_days size *. 86400.0;
  }

(* -- replay: a seeded MSR/SNIA-style block trace ----------------------------- *)

(* Shape: [hosts] machines with [disks] disks each; every (host, disk)
   pair becomes one file of the imported trace, so one client per host.
   Accesses come in bursts (an inferred open/close session each) of
   sequential requests; a burst writes with probability [write_share].
   Bursts start in a per-disk hot region [hot_bytes] wide with
   probability [hot_share], else anywhere in [extent_bytes].  With two
   disks a host's hot set is 2 x 24 MB, several times a client cache
   (a third of 24-32 MB of memory at most). *)
type csv_shape = {
  rows : int;
  hosts : int;
  disks : int;
  write_share : float;
  hot_share : float;
  hot_bytes : int;
  extent_bytes : int;
  mean_gap_s : float;  (** between bursts of one host *)
}

let csv_shape = function
  | Full ->
    {
      rows = 40_000;
      hosts = 24;
      disks = 2;
      write_share = 0.6;
      hot_share = 0.8;
      hot_bytes = 24 lsl 20;
      extent_bytes = 256 lsl 20;
      mean_gap_s = 20.0;
    }
  | Tiny ->
    {
      rows = 3_000;
      hosts = 4;
      disks = 2;
      write_share = 0.6;
      hot_share = 0.8;
      hot_bytes = 4 lsl 20;
      extent_bytes = 32 lsl 20;
      mean_gap_s = 20.0;
    }

let block = 4096

(* Rows as (time, host, disk, is_write, offset, size), in time order. *)
let csv_rows shape seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let exp mean = -.mean *. log (1.0 -. Random.State.float st 1.0) in
  let rows = ref [] and n = ref 0 in
  (* each host's next burst time; bursts of one host never overlap *)
  let next = Array.init shape.hosts (fun _ -> exp shape.mean_gap_s) in
  while !n < shape.rows do
    let h = ref 0 in
    Array.iteri (fun i t -> if t < next.(!h) then h := i) next;
    let host = !h in
    let disk = Random.State.int st shape.disks in
    let write = Random.State.float st 1.0 < shape.write_share in
    let region =
      if Random.State.float st 1.0 < shape.hot_share then shape.hot_bytes
      else shape.extent_bytes
    in
    let off = ref (block * Random.State.int st (region / block)) in
    let len = 1 + Random.State.int st 16 in
    let t = ref next.(host) in
    for _ = 1 to min len (shape.rows - !n) do
      let size = block * (1 lsl Random.State.int st 4) in
      rows := (!t, host, disk, write, !off, size) :: !rows;
      incr n;
      off := !off + size;
      t := !t +. 0.002 +. exp 0.01
    done;
    (* an idle gap well past the importer's 1 s session boundary *)
    next.(host) <- !t +. 1.5 +. exp shape.mean_gap_s
  done;
  List.sort compare !rows

let write_csv path rows =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "Timestamp,Hostname,DiskNumber,Type,Offset,Size\n";
      List.iter
        (fun (t, host, disk, write, off, size) ->
          Printf.fprintf oc "%.6f,host%02d,%d,%s,%d,%d\n" t host disk
            (if write then "Write" else "Read")
            off size)
        rows)

(* One line per input property, for the run header. *)
let describe_csv shape rows =
  let n = List.length rows in
  let writes = List.length (List.filter (fun (_, _, _, w, _, _) -> w) rows) in
  Printf.sprintf
    "rows %d, hosts %d, disks %d (one file each), write share %.2f, hot set \
     %d MB per host (%.0f%% of bursts) in a %d MB extent per disk"
    n shape.hosts (shape.hosts * shape.disks)
    (float_of_int writes /. float_of_int (max 1 n))
    (shape.disks * shape.hot_bytes lsr 20)
    (100.0 *. shape.hot_share)
    (shape.extent_bytes lsr 20)

(* Input [k] of a run: input 0 is the run seed itself, so seed 0's first
   input is the shipped configuration; the others derive from it. *)
let input_seed seed k = if k = 0 then seed else ((seed * 1_000_003) + (104_729 * k)) land 0x3fff_ffff
