module File = Dfs_trace.Ids.File

type clean_reason =
  | Clean_delay
  | Clean_fsync
  | Clean_recall
  | Clean_vm
  | Clean_eviction

let clean_reason_name = function
  | Clean_delay -> "30-second delay"
  | Clean_fsync -> "write-through requested by application"
  | Clean_recall -> "server recall"
  | Clean_vm -> "virtual memory page"
  | Clean_eviction -> "replacement of dirty block"

type replace_reason = Replace_for_block | Replace_to_vm

type traffic_class = Class_file | Class_paging

type config = {
  block_size : int;
  writeback_delay : float;
  capacity_blocks : int;
  min_capacity_blocks : int;
}

let default_config =
  {
    block_size = Dfs_util.Units.block_size;
    writeback_delay = 30.0;
    capacity_blocks = 512;
    min_capacity_blocks = 128;
  }

type backend = {
  fetch :
    cls:traffic_class -> file:File.t -> index:int -> bytes:int -> unit;
  writeback :
    file:File.t -> index:int -> bytes:int -> reason:clean_reason -> unit;
}

type block = {
  b_file : File.t;
  b_index : int;
  mutable dirty : bool;
  mutable dirtied_at : float;  (* first dirtied since last clean *)
  mutable last_write : float;
  mutable last_ref : float;
  mutable dirty_high : int;  (* writeback extent, from the block start *)
  mutable prev : block;  (* recency ring: towards least recently used *)
  mutable next : block;  (* towards most recently used *)
}

(* Process-wide cache metrics, aggregated over every block cache in the
   process (client and server caches alike). *)
let m_lookups = Dfs_obs.Metrics.counter "sim.cache.read_lookups"

let m_hits = Dfs_obs.Metrics.counter "sim.cache.read_hits"

let m_misses = Dfs_obs.Metrics.counter "sim.cache.read_misses"

let m_fetch_bytes = Dfs_obs.Metrics.counter "sim.cache.fetch_bytes"

let m_write_blocks = Dfs_obs.Metrics.counter "sim.cache.write_blocks"

let m_write_fetches = Dfs_obs.Metrics.counter "sim.cache.write_fetches"

let m_writebacks = Dfs_obs.Metrics.counter "sim.cache.writebacks"

let m_writeback_bytes = Dfs_obs.Metrics.counter "sim.cache.writeback_bytes"

let m_evictions = Dfs_obs.Metrics.counter "sim.cache.evictions"

let m_dirty_age = Dfs_obs.Metrics.histogram "sim.cache.dirty_age_s"

type class_stats = {
  mutable read_ops : int;
  mutable read_hits : int;
  mutable read_misses : int;
  mutable bytes_read : int;
  mutable bytes_fetched : int;
  mutable write_ops : int;
  mutable write_fetches : int;
  mutable write_fetch_bytes : int;
  mutable bytes_written : int;
}

let fresh_class_stats () =
  {
    read_ops = 0;
    read_hits = 0;
    read_misses = 0;
    bytes_read = 0;
    bytes_fetched = 0;
    write_ops = 0;
    write_fetches = 0;
    write_fetch_bytes = 0;
    bytes_written = 0;
  }

type stats = {
  all : class_stats;
  file : class_stats;
  paging : class_stats;
  migrated : class_stats;
  mutable writeback_bytes : int;
  mutable dirty_bytes_discarded : int;
  cleanings : (clean_reason * Dfs_util.Stats.t) list;
  replacements : (replace_reason * Dfs_util.Stats.t) list;
}

type dirty_info = {
  mutable dn : int;  (* dirty blocks in this file *)
  mutable earliest : float;
      (* Lower bound on the oldest [dirtied_at] among them.  May go
         stale-early when the oldest block is cleaned individually (we
         don't rescan on clean); [tick] verifies before writing back and
         tightens the bound when it proves conservative, so the delay
         policy stays exact while the per-tick scan touches only files
         that could plausibly have expired. *)
}

(* Dense indices for the per-reason timing stats.  [clean_block] and
   [evict_one] are on the simulation's hottest path (every writeback and
   eviction), so the lookup must not walk an assoc list. *)
let clean_index = function
  | Clean_delay -> 0
  | Clean_fsync -> 1
  | Clean_recall -> 2
  | Clean_vm -> 3
  | Clean_eviction -> 4

let replace_index = function Replace_for_block -> 0 | Replace_to_vm -> 1

type t = {
  cfg : config;
  backend : backend;
  head : block;
      (* Sentinel of the circular recency ring, owned by this cache:
         [head.next] is the LRU victim, [head.prev] the most recent. *)
  mutable resident : int;  (* blocks on the ring *)
  files : (int, (int, block) Hashtbl.t) Hashtbl.t;
  dirty_files : (int, dirty_info) Hashtbl.t;
  mutable capacity : int;
  mutable dirty_count : int;
  stats : stats;
  cleaning_stats : Dfs_util.Stats.t array;  (* indexed by [clean_index] *)
  replacement_stats : Dfs_util.Stats.t array;  (* by [replace_index] *)
}

let create ?(config = default_config) backend =
  (* The dense arrays are the store; the public assoc lists share the
     same (mutable) [Stats.t] values, so both views always agree. *)
  let cleaning_stats = Array.init 5 (fun _ -> Dfs_util.Stats.create ()) in
  let replacement_stats = Array.init 2 (fun _ -> Dfs_util.Stats.create ()) in
  (* The sentinel is told apart by identity; its fields are never read. *)
  let no_file = File.of_int 0 in
  let rec head =
    {
      b_file = no_file;
      b_index = -1;
      dirty = false;
      dirtied_at = 0.0;
      last_write = 0.0;
      last_ref = 0.0;
      dirty_high = 0;
      prev = head;
      next = head;
    }
  in
  {
    cfg = config;
    backend;
    head;
    resident = 0;
    files = Hashtbl.create 256;
    dirty_files = Hashtbl.create 64;
    capacity = max 1 config.capacity_blocks;
    dirty_count = 0;
    stats =
      {
        all = fresh_class_stats ();
        file = fresh_class_stats ();
        paging = fresh_class_stats ();
        migrated = fresh_class_stats ();
        writeback_bytes = 0;
        dirty_bytes_discarded = 0;
        cleanings =
          List.map
            (fun r -> (r, cleaning_stats.(clean_index r)))
            [ Clean_delay; Clean_fsync; Clean_recall; Clean_vm; Clean_eviction ];
        replacements =
          List.map
            (fun r -> (r, replacement_stats.(replace_index r)))
            [ Replace_for_block; Replace_to_vm ];
      };
    cleaning_stats;
    replacement_stats;
  }

let config t = t.cfg

let capacity t = t.capacity

let size t = t.resident

let resident_bytes t = size t * t.cfg.block_size

let stats t = t.stats

let dirty_blocks t = t.dirty_count

(* Post-simulation memory release: the block store, per-file index and
   dirty-file tracking go away; [stats] (all counters and timing
   distributions) survive untouched.  Dirty data is dropped without
   writeback, so this must only run once the cache will see no further
   reads or writes. *)
let drop_contents t =
  t.head.prev <- t.head;
  t.head.next <- t.head;
  t.resident <- 0;
  Hashtbl.reset t.files;
  Hashtbl.reset t.dirty_files;
  t.dirty_count <- 0

(* -- internal bookkeeping ------------------------------------------------ *)

(* The recency ring: O(1) splices, no allocation. *)
let unlink b =
  b.prev.next <- b.next;
  b.next.prev <- b.prev

let push_mru t b =
  let head = t.head in
  b.prev <- head.prev;
  b.next <- head;
  head.prev.next <- b;
  head.prev <- b

let file_tbl t file =
  let fid = File.to_int file in
  match Hashtbl.find t.files fid with
  | tbl -> tbl
  | exception Not_found ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.replace t.files fid tbl;
    tbl

let note_dirty t b =
  if not b.dirty then begin
    b.dirty <- true;
    t.dirty_count <- t.dirty_count + 1;
    let fid = File.to_int b.b_file in
    match Hashtbl.find t.dirty_files fid with
    | info ->
      info.dn <- info.dn + 1;
      if b.dirtied_at < info.earliest then info.earliest <- b.dirtied_at
    | exception Not_found ->
      Hashtbl.replace t.dirty_files fid { dn = 1; earliest = b.dirtied_at }
  end

let note_clean t b =
  if b.dirty then begin
    b.dirty <- false;
    b.dirty_high <- 0;
    t.dirty_count <- t.dirty_count - 1;
    let fid = File.to_int b.b_file in
    let info = Hashtbl.find t.dirty_files fid in
    if info.dn > 1 then info.dn <- info.dn - 1
    else Hashtbl.remove t.dirty_files fid
  end

let cleaning_stat t reason = t.cleaning_stats.(clean_index reason)

let replacement_stat t reason = t.replacement_stats.(replace_index reason)

let clean_block t ~now b ~reason =
  if b.dirty then begin
    let bytes = b.dirty_high in
    t.backend.writeback ~file:b.b_file ~index:b.b_index ~bytes ~reason;
    t.stats.writeback_bytes <- t.stats.writeback_bytes + bytes;
    Dfs_util.Stats.add (cleaning_stat t reason) (now -. b.last_write);
    Dfs_obs.Metrics.incr m_writebacks;
    Dfs_obs.Metrics.add m_writeback_bytes bytes;
    Dfs_obs.Metrics.observe m_dirty_age (now -. b.dirtied_at);
    if Dfs_obs.Tracer.active () then
      Dfs_obs.Tracer.emit ~cat:"cache" ~name:"writeback" ~t0:now ~dur:0.0
        ~attrs:
          [
            ("file", Dfs_obs.Json.Int (File.to_int b.b_file));
            ("bytes", Dfs_obs.Json.Int bytes);
            ("reason", Dfs_obs.Json.String (clean_reason_name reason));
          ]
        ();
    note_clean t b
  end

(* Remove [b] from its file's block table, and the table once empty. *)
let unindex t b =
  let fid = File.to_int b.b_file in
  let tbl = Hashtbl.find t.files fid in
  Hashtbl.remove tbl b.b_index;
  if Hashtbl.length tbl = 0 then Hashtbl.remove t.files fid

let drop_block t b ~discard_dirty =
  if b.dirty then begin
    if discard_dirty then
      t.stats.dirty_bytes_discarded <-
        t.stats.dirty_bytes_discarded + b.dirty_high;
    note_clean t b
  end;
  unindex t b;
  unlink b;
  t.resident <- t.resident - 1

let evict_one t ~now ~reason =
  let b = t.head.next in
  if b == t.head then false
  else begin
    unlink b;
    t.resident <- t.resident - 1;
    (* A dirty victim must reach the server before its page is reused. *)
    (match reason with
    | Replace_to_vm -> clean_block t ~now b ~reason:Clean_vm
    | Replace_for_block -> clean_block t ~now b ~reason:Clean_eviction);
    Dfs_util.Stats.add (replacement_stat t reason) (now -. b.last_ref);
    Dfs_obs.Metrics.incr m_evictions;
    if Dfs_obs.Tracer.active () then
      Dfs_obs.Tracer.emit ~cat:"cache" ~name:"evict" ~t0:now ~dur:0.0
        ~attrs:
          [
            ("file", Dfs_obs.Json.Int (File.to_int b.b_file));
            ("idle_s", Dfs_obs.Json.Float (now -. b.last_ref));
          ]
        ();
    unindex t b;
    true
  end

let insert_block t ~now ~file ~index =
  while t.resident >= t.capacity do
    if not (evict_one t ~now ~reason:Replace_for_block) then
      (* capacity is >= 1 and the ring is non-empty whenever size >= capacity *)
      assert false
  done;
  let b =
    {
      b_file = file;
      b_index = index;
      dirty = false;
      dirtied_at = now;
      last_write = now;
      last_ref = now;
      dirty_high = 0;
      prev = t.head;
      next = t.head;
    }
  in
  Hashtbl.replace (file_tbl t file) index b;
  push_mru t b;
  t.resident <- t.resident + 1;
  b

(* The resident block, or [t.head] when there is none: a miss allocates
   no option. *)
let find_block t ~file ~index =
  match Hashtbl.find (Hashtbl.find t.files (File.to_int file)) index with
  | b -> b
  | exception Not_found -> t.head

let touch t b ~now =
  b.last_ref <- now;
  if t.head.prev != b then begin
    unlink b;
    push_mru t b
  end

(* -- stats helpers ------------------------------------------------------- *)

(* Every request counts in [all] and in its class; requests from migrated
   processes also count in [migrated].  [f] is a closed top-level function,
   so a call allocates nothing. *)
let count t ~cls ~migrated f n =
  f t.stats.all n;
  f (match cls with Class_file -> t.stats.file | Class_paging -> t.stats.paging) n;
  if migrated then f t.stats.migrated n

let read_op s wanted =
  s.read_ops <- s.read_ops + 1;
  s.bytes_read <- s.bytes_read + wanted

let read_hit s _ = s.read_hits <- s.read_hits + 1

let read_miss s avail =
  s.read_misses <- s.read_misses + 1;
  s.bytes_fetched <- s.bytes_fetched + avail

let write_op s written =
  s.write_ops <- s.write_ops + 1;
  s.bytes_written <- s.bytes_written + written

let write_fetch s existing =
  s.write_fetches <- s.write_fetches + 1;
  s.write_fetch_bytes <- s.write_fetch_bytes + existing

(* -- data path ----------------------------------------------------------- *)

(* [read] and [write] walk the blocks overlapped by [off, off+len), with
   [lo, hi) the byte range within each block. *)
let read t ~now ~cls ~migrated ~file ~file_size ~off ~len =
  let bs = t.cfg.block_size in
  if len > 0 then
    for index = off / bs to (off + len - 1) / bs do
      let block_start = index * bs in
      let lo = max off block_start - block_start in
      let hi = min (off + len) (block_start + bs) - block_start in
      count t ~cls ~migrated read_op (hi - lo);
      Dfs_obs.Metrics.incr m_lookups;
      let b = find_block t ~file ~index in
      if b != t.head then begin
        count t ~cls ~migrated read_hit 0;
        Dfs_obs.Metrics.incr m_hits;
        touch t b ~now
      end
      else begin
        let avail = max 0 (min bs (file_size - block_start)) in
        t.backend.fetch ~cls ~file ~index ~bytes:avail;
        count t ~cls ~migrated read_miss avail;
        Dfs_obs.Metrics.incr m_misses;
        Dfs_obs.Metrics.add m_fetch_bytes avail;
        if Dfs_obs.Tracer.active () then
          Dfs_obs.Tracer.emit ~cat:"cache" ~name:"fill" ~t0:now ~dur:0.0
            ~attrs:
              [
                ("file", Dfs_obs.Json.Int (File.to_int file));
                ("bytes", Dfs_obs.Json.Int avail);
              ]
            ();
        ignore (insert_block t ~now ~file ~index)
      end
    done

let write t ~now ~cls ~migrated ~file ~file_size ~off ~len =
  let bs = t.cfg.block_size in
  if len > 0 then
    for index = off / bs to (off + len - 1) / bs do
      let block_start = index * bs in
      let lo = max off block_start - block_start in
      let hi = min (off + len) (block_start + bs) - block_start in
      count t ~cls ~migrated write_op (hi - lo);
      Dfs_obs.Metrics.incr m_write_blocks;
      let b = find_block t ~file ~index in
      let b =
        if b != t.head then b
        else begin
          let existing = max 0 (min bs (file_size - block_start)) in
          (* A write that leaves some of a non-resident block's existing
             data in place (it starts past the block's start, or covers
             only its head) must fetch the block first: a "write fetch".
             Writes covering all existing data need no fetch. *)
          if existing > 0 && (lo > 0 || hi < existing) then begin
            t.backend.fetch ~cls ~file ~index ~bytes:existing;
            Dfs_obs.Metrics.incr m_write_fetches;
            count t ~cls ~migrated write_fetch existing
          end;
          insert_block t ~now ~file ~index
        end
      in
      if not b.dirty then b.dirtied_at <- now;
      note_dirty t b;
      b.last_write <- now;
      (* Writebacks cover the block from its start to the end of the new
         data — the append behaviour the paper blames for writeback-traffic
         variance. *)
      b.dirty_high <- max b.dirty_high hi;
      touch t b ~now
    done

let blocks_of_file t file =
  match Hashtbl.find_opt t.files (File.to_int file) with
  | None -> []
  | Some tbl -> Hashtbl.fold (fun _ b acc -> b :: acc) tbl []

(* Clean in place: [clean_block] never removes entries from the file's
   block table, so we can iterate it directly instead of materializing a
   [blocks_of_file] list.  ([invalidate] still takes the list — dropping
   blocks mutates the table under iteration.) *)
let clean_file t ~now ~file ~reason =
  match Hashtbl.find_opt t.files (File.to_int file) with
  | None -> ()
  | Some tbl -> Hashtbl.iter (fun _ b -> clean_block t ~now b ~reason) tbl

let fsync t ~now ~file = clean_file t ~now ~file ~reason:Clean_fsync

let recall t ~now ~file = clean_file t ~now ~file ~reason:Clean_recall

let invalidate t ~now ~file =
  ignore now;
  List.iter (fun b -> drop_block t b ~discard_dirty:true) (blocks_of_file t file)

let flush_and_invalidate t ~now ~file =
  clean_file t ~now ~file ~reason:Clean_recall;
  invalidate t ~now ~file

let delete t ~now ~file = invalidate t ~now ~file

let dirty_bytes t =
  Hashtbl.fold
    (fun fid _ acc ->
      match Hashtbl.find_opt t.files fid with
      | None -> acc
      | Some tbl ->
        Hashtbl.fold
          (fun _ b acc -> if b.dirty then acc + b.dirty_high else acc)
          tbl acc)
    t.dirty_files 0

let dirty_file_ids t =
  List.sort compare (Hashtbl.fold (fun fid _ acc -> fid :: acc) t.dirty_files [])

let crash t ~now =
  ignore now;
  let lost = dirty_bytes t in
  (* Volatile memory is gone: every block leaves, dirty data silently.
     The loss is NOT counted as [dirty_bytes_discarded] — that stat is
     the paper's deleted-before-writeback {e saving}; crash loss is the
     delayed-write {e cost} and is accounted by the fault injector. *)
  while t.head.next != t.head do
    drop_block t t.head.next ~discard_dirty:false
  done;
  lost

let tick t ~now =
  (* Any file with a block dirty for [writeback_delay] has ALL its dirty
     blocks written back — Sprite's policy.  [dirty_files.earliest] is a
     lower bound on each file's oldest dirty timestamp, so files whose
     bound hasn't aged out are skipped without touching their blocks;
     only plausible candidates get a per-block verify.  A candidate that
     turns out fresh (its bound was stale) has the bound tightened to
     the true minimum so it won't re-trip every tick. *)
  let candidates =
    Hashtbl.fold
      (fun fid info acc ->
        if now -. info.earliest >= t.cfg.writeback_delay then
          (fid, info) :: acc
        else acc)
      t.dirty_files []
  in
  List.iter
    (fun (fid, info) ->
      let file = File.of_int fid in
      let expired = ref false in
      let oldest = ref infinity in
      (match Hashtbl.find_opt t.files fid with
      | None -> ()
      | Some tbl ->
        Hashtbl.iter
          (fun _ b ->
            if b.dirty then begin
              if now -. b.dirtied_at >= t.cfg.writeback_delay then
                expired := true;
              if b.dirtied_at < !oldest then oldest := b.dirtied_at
            end)
          tbl);
      if !expired then clean_file t ~now ~file ~reason:Clean_delay
      else if !oldest < infinity then info.earliest <- !oldest)
    candidates

let resident_blocks t =
  let rec walk b acc =
    if b == t.head then acc else walk b.prev ((b.b_file, b.b_index) :: acc)
  in
  walk t.head.prev []

let set_capacity t ~now blocks =
  let blocks = max t.cfg.min_capacity_blocks blocks in
  t.capacity <- max 1 blocks;
  while t.resident > t.capacity do
    if not (evict_one t ~now ~reason:Replace_to_vm) then assert false
  done

let check_invariants t =
  (* The ring: walk it both ways, checking every splice is mutual and every
     block on it is the one its file's table holds.  The walks are bounded
     by [resident], so a broken ring fails instead of looping. *)
  let walk step back =
    let n = ref 0 and b = ref (step t.head) in
    while !b != t.head do
      assert (back (step !b) == !b);
      assert (find_block t ~file:!b.b_file ~index:!b.b_index == !b);
      incr n;
      assert (!n <= t.resident);
      b := step !b
    done;
    assert (back (step t.head) == t.head);
    !n
  in
  assert (walk (fun b -> b.next) (fun b -> b.prev) = t.resident);
  assert (walk (fun b -> b.prev) (fun b -> b.next) = t.resident);
  let indexed =
    Hashtbl.fold (fun _ tbl acc -> acc + Hashtbl.length tbl) t.files 0
  in
  assert (indexed = t.resident);
  assert (t.resident <= t.capacity);
  let dirty = ref 0 in
  Hashtbl.iter
    (fun _ tbl -> Hashtbl.iter (fun _ b -> if b.dirty then incr dirty) tbl)
    t.files;
  assert (!dirty = t.dirty_count);
  let per_file_dirty = Hashtbl.create 16 in
  Hashtbl.iter
    (fun fid tbl ->
      let n =
        Hashtbl.fold (fun _ b acc -> if b.dirty then acc + 1 else acc) tbl 0
      in
      if n > 0 then Hashtbl.replace per_file_dirty fid n)
    t.files;
  assert (Hashtbl.length per_file_dirty = Hashtbl.length t.dirty_files);
  Hashtbl.iter
    (fun fid info ->
      assert (Hashtbl.find_opt per_file_dirty fid = Some info.dn);
      (* [earliest] must never overshoot the file's true oldest dirty
         timestamp — staleness is only allowed in the early direction. *)
      let tbl = Hashtbl.find t.files fid in
      Hashtbl.iter
        (fun _ b -> if b.dirty then assert (info.earliest <= b.dirtied_at))
        tbl)
    t.dirty_files
