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
  mutable dirtied_at : float;  (* first dirtied since last clean *)
  mutable last_write : float;
  mutable last_ref : float;
  mutable dirty_high : int;
      (* writeback extent, from the block start: a write covers at least
         one byte, so the block is dirty exactly when this is positive *)
  mutable prev : block;  (* recency ring: towards least recently used *)
  mutable next : block;  (* towards most recently used *)
  mutable chain : block;  (* next block in the same bucket of its file *)
  mutable dprev : block;  (* the file's dirty FIFO: towards older *)
  mutable dnext : block;  (* towards newer *)
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

(* One file's resident blocks.  The buckets are laid out exactly as
   [Stdlib.Hashtbl] lays out int keys, so walking them visits blocks in
   the order [Hashtbl.iter] would: a block sits in bucket
   [Hashtbl.hash index land (n - 1)], new blocks go at the head of their
   chain, the table starts at 16 buckets and doubles, splitting each
   chain in order, once it holds more than two blocks per bucket.  That
   order is the writeback order of a whole-file clean, and so part of
   the output.  Chains and the FIFO end at the cache's sentinel. *)
type file_index = {
  mutable count : int;  (* resident blocks, linked through [chain] *)
  mutable buckets : block array;
  mutable dn : int;  (* dirty blocks, linked through [dprev]/[dnext] *)
  mutable first : block;  (* dirty FIFO head: the oldest [dirtied_at] *)
  mutable last : block;  (* dirty FIFO tail: the newest *)
}

let initial_buckets = 16

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
         [head.next] is the LRU victim, [head.prev] the most recent.  It
         also ends every bucket chain and dirty FIFO. *)
  mutable resident : int;  (* blocks on the ring *)
  files : (int, file_index) Hashtbl.t;
  dirty_files : (int, file_index) Hashtbl.t;
      (* the files with [dn > 0]; its fold order is the order [tick]
         cleans expired files in *)
  mutable capacity : int;
  mutable dirty_count : int;
  mutable scratch : int array;  (* bucket numbers of a whole-file clean *)
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
      dirtied_at = 0.0;
      last_write = 0.0;
      last_ref = 0.0;
      dirty_high = 0;
      prev = head;
      next = head;
      chain = head;
      dprev = head;
      dnext = head;
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
    scratch = [||];
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
  t.dirty_count <- 0;
  t.scratch <- [||]

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

(* The per-file bucket index.  The chain walks are top-level functions:
   a local [let rec] would allocate a closure per lookup. *)
let bucket fi index = Hashtbl.hash index land (Array.length fi.buckets - 1)

let rec find_in_chain nil index b =
  if b == nil || b.b_index = index then b else find_in_chain nil index b.chain

let rec unchain b p = if p.chain == b then p.chain <- b.chain else unchain b p.chain

(* Double the buckets.  Bucket [i]'s chain splits into new buckets [i]
   and [i + n], each keeping the chain's order, as [Hashtbl]'s resize
   does. *)
let grow nil fi =
  let old = fi.buckets in
  let n = Array.length old in
  let buckets = Array.make (2 * n) nil in
  for i = 0 to n - 1 do
    let b = ref old.(i) and lo = ref nil and hi = ref nil in
    while !b != nil do
      let cur = !b in
      b := cur.chain;
      cur.chain <- nil;
      if Hashtbl.hash cur.b_index land n = 0 then begin
        if !lo == nil then buckets.(i) <- cur else !lo.chain <- cur;
        lo := cur
      end
      else begin
        if !hi == nil then buckets.(i + n) <- cur else !hi.chain <- cur;
        hi := cur
      end
    done
  done;
  fi.buckets <- buckets

let file_index t file =
  let fid = File.to_int file in
  match Hashtbl.find t.files fid with
  | fi -> fi
  | exception Not_found ->
    let fi =
      {
        count = 0;
        buckets = Array.make initial_buckets t.head;
        dn = 0;
        first = t.head;
        last = t.head;
      }
    in
    Hashtbl.replace t.files fid fi;
    fi

let index_add t fi b =
  let i = bucket fi b.b_index in
  b.chain <- fi.buckets.(i);
  fi.buckets.(i) <- b;
  fi.count <- fi.count + 1;
  if fi.count > 2 * Array.length fi.buckets then grow t.head fi

(* Remove [b] from its file's index, and the index once empty. *)
let unindex t fi b =
  let i = bucket fi b.b_index in
  if fi.buckets.(i) == b then fi.buckets.(i) <- b.chain
  else unchain b fi.buckets.(i);
  fi.count <- fi.count - 1;
  if fi.count = 0 then Hashtbl.remove t.files (File.to_int b.b_file)

let file_of t b = Hashtbl.find t.files (File.to_int b.b_file)

(* The dirty FIFO keeps a file's dirty blocks in [dirtied_at] order, so
   its head is the oldest.  The simulation clock never goes back, so a
   newly dirty block goes at the tail; a block stamped earlier than the
   tail walks back to its place, after any equal stamps. *)
let rec fifo_pred nil at p =
  if p == nil || p.dirtied_at <= at then p else fifo_pred nil at p.dprev

let is_dirty b = b.dirty_high > 0

(* [b], clean until now, is being dirtied at [b.dirtied_at]. *)
let note_dirty t b =
  t.dirty_count <- t.dirty_count + 1;
  let fi = file_of t b in
  let nil = t.head in
  let p = fifo_pred nil b.dirtied_at fi.last in
  let n = if p == nil then fi.first else p.dnext in
  b.dprev <- p;
  b.dnext <- n;
  if p == nil then fi.first <- b else p.dnext <- b;
  if n == nil then fi.last <- b else n.dprev <- b;
  fi.dn <- fi.dn + 1;
  if fi.dn = 1 then Hashtbl.replace t.dirty_files (File.to_int b.b_file) fi

let note_clean t fi b =
  if is_dirty b then begin
    b.dirty_high <- 0;
    t.dirty_count <- t.dirty_count - 1;
    let nil = t.head in
    if b.dprev == nil then fi.first <- b.dnext else b.dprev.dnext <- b.dnext;
    if b.dnext == nil then fi.last <- b.dprev else b.dnext.dprev <- b.dprev;
    b.dprev <- nil;
    b.dnext <- nil;
    fi.dn <- fi.dn - 1;
    if fi.dn = 0 then Hashtbl.remove t.dirty_files (File.to_int b.b_file)
  end

let cleaning_stat t reason = t.cleaning_stats.(clean_index reason)

let replacement_stat t reason = t.replacement_stats.(replace_index reason)

let clean_block t ~now fi b ~reason =
  if is_dirty b then begin
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
    note_clean t fi b
  end

let evict_one t ~now ~reason =
  let b = t.head.next in
  if b == t.head then false
  else begin
    let fi = file_of t b in
    unlink b;
    t.resident <- t.resident - 1;
    (* A dirty victim must reach the server before its page is reused. *)
    (match reason with
    | Replace_to_vm -> clean_block t ~now fi b ~reason:Clean_vm
    | Replace_for_block -> clean_block t ~now fi b ~reason:Clean_eviction);
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
    unindex t fi b;
    true
  end

let insert_block t ~now ~file ~index =
  while t.resident >= t.capacity do
    if not (evict_one t ~now ~reason:Replace_for_block) then
      (* capacity is >= 1 and the ring is non-empty whenever size >= capacity *)
      assert false
  done;
  let nil = t.head in
  let b =
    {
      b_file = file;
      b_index = index;
      dirtied_at = now;
      last_write = now;
      last_ref = now;
      dirty_high = 0;
      prev = nil;
      next = nil;
      chain = nil;
      dprev = nil;
      dnext = nil;
    }
  in
  index_add t (file_index t file) b;
  push_mru t b;
  t.resident <- t.resident + 1;
  b

(* The resident block, or [t.head] when there is none: a miss allocates
   no option. *)
let find_block t ~file ~index =
  match Hashtbl.find t.files (File.to_int file) with
  | fi -> find_in_chain t.head index fi.buckets.(bucket fi index)
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
      if not (is_dirty b) then begin
        b.dirtied_at <- now;
        note_dirty t b
      end;
      b.last_write <- now;
      (* Writebacks cover the block from its start to the end of the new
         data — the append behaviour the paper blames for writeback-traffic
         variance. *)
      b.dirty_high <- max b.dirty_high hi;
      touch t b ~now
    done


(* -- whole-file cleaning ------------------------------------------------- *)

(* In-place heapsort of [a.(0) .. a.(n-1)]: whole-file cleans sort into
   the cache's scratch array, so they allocate nothing. *)
let rec sift (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let sort_prefix a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

let rec clean_chain t ~now fi b ~reason =
  if b != t.head then begin
    let next = b.chain in
    clean_block t ~now fi b ~reason;
    clean_chain t ~now fi next ~reason
  end

(* Write back every dirty block of the file, in the order [Hashtbl.iter]
   over its index would meet them: the FIFO names the buckets that hold
   dirty blocks, sorted and deduplicated, and each of those chains is
   walked from its head.  Cleaning unlinks blocks from the FIFO but never
   from a chain, so the bucket numbers are taken first.  The cost is
   O(d log d) in the file's dirty blocks d, whatever its resident count. *)
let clean_dirty t ~now fi ~reason =
  let d = fi.dn in
  if d > 0 then begin
    if Array.length t.scratch < d then
      t.scratch <- Array.make (max d (2 * Array.length t.scratch)) 0;
    let buf = t.scratch in
    let b = ref fi.first in
    for k = 0 to d - 1 do
      buf.(k) <- bucket fi !b.b_index;
      b := !b.dnext
    done;
    sort_prefix buf d;
    for k = 0 to d - 1 do
      if k = 0 || buf.(k) <> buf.(k - 1) then
        clean_chain t ~now fi fi.buckets.(buf.(k)) ~reason
    done
  end

let clean_file t ~now ~file ~reason =
  match Hashtbl.find t.files (File.to_int file) with
  | fi -> clean_dirty t ~now fi ~reason
  | exception Not_found -> ()

let fsync t ~now ~file = clean_file t ~now ~file ~reason:Clean_fsync

let recall t ~now ~file = clean_file t ~now ~file ~reason:Clean_recall

let invalidate t ~now ~file =
  ignore now;
  let fid = File.to_int file in
  match Hashtbl.find t.files fid with
  | exception Not_found -> ()
  | fi ->
    Array.iter
      (fun b ->
        let b = ref b in
        while !b != t.head do
          let cur = !b in
          if is_dirty cur then begin
            t.stats.dirty_bytes_discarded <-
              t.stats.dirty_bytes_discarded + cur.dirty_high;
            note_clean t fi cur
          end;
          unlink cur;
          t.resident <- t.resident - 1;
          b := cur.chain
        done)
      fi.buckets;
    Hashtbl.remove t.files fid

let flush_and_invalidate t ~now ~file =
  clean_file t ~now ~file ~reason:Clean_recall;
  invalidate t ~now ~file

let delete t ~now ~file = invalidate t ~now ~file

let rec fifo_bytes nil b acc =
  if b == nil then acc else fifo_bytes nil b.dnext (acc + b.dirty_high)

let dirty_bytes t =
  Hashtbl.fold (fun _ fi acc -> fifo_bytes t.head fi.first acc) t.dirty_files 0

let dirty_file_ids t =
  List.sort compare (Hashtbl.fold (fun fid _ acc -> fid :: acc) t.dirty_files [])

let crash t ~now =
  ignore now;
  let lost = dirty_bytes t in
  (* Volatile memory is gone: every block leaves, dirty data silently.
     The loss is NOT counted as [dirty_bytes_discarded] — that stat is
     the paper's deleted-before-writeback {e saving}; crash loss is the
     delayed-write {e cost} and is accounted by the fault injector.  The
     tables are emptied but keep their bucket arrays, as removing every
     entry would, so [tick]'s file order after the crash is unchanged. *)
  t.head.prev <- t.head;
  t.head.next <- t.head;
  t.resident <- 0;
  Hashtbl.clear t.files;
  Hashtbl.clear t.dirty_files;
  t.dirty_count <- 0;
  lost

let tick t ~now =
  (* Any file with a block dirty for [writeback_delay] has ALL its dirty
     blocks written back — Sprite's policy.  A file's FIFO head is its
     oldest dirty block, so the expired files are found without touching
     any other block. *)
  let expired =
    Hashtbl.fold
      (fun _ fi acc ->
        if now -. fi.first.dirtied_at >= t.cfg.writeback_delay then fi :: acc
        else acc)
      t.dirty_files []
  in
  List.iter (fun fi -> clean_dirty t ~now fi ~reason:Clean_delay) expired

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
     block on it is the one its file's index holds.  The walks are bounded
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
  assert (t.resident <= t.capacity);
  let indexed = ref 0 and dirty = ref 0 and dirty_files = ref 0 in
  Hashtbl.iter
    (fun fid fi ->
      (* The index: every block in its bucket, the chain lengths summing
         to [count], at most two blocks per bucket, no empty index. *)
      let n = Array.length fi.buckets in
      assert (n >= initial_buckets && n land (n - 1) = 0);
      let chained = ref 0 and dn = ref 0 and oldest = ref infinity in
      Array.iteri
        (fun i b ->
          let b = ref b in
          while !b != t.head do
            let cur = !b in
            assert (File.to_int cur.b_file = fid);
            assert (bucket fi cur.b_index = i);
            if is_dirty cur then begin
              incr dn;
              oldest := Float.min !oldest cur.dirtied_at
            end
            else assert (cur.dprev == t.head && cur.dnext == t.head);
            incr chained;
            assert (!chained <= fi.count);
            b := cur.chain
          done)
        fi.buckets;
      assert (!chained = fi.count && fi.count > 0 && fi.count <= 2 * n);
      indexed := !indexed + fi.count;
      (* The dirty FIFO: exactly the file's dirty blocks, linked both
         ways, oldest first, so its head is the true minimum. *)
      assert (fi.dn = !dn);
      let len = ref 0 and p = ref t.head and b = ref fi.first in
      while !b != t.head do
        let cur = !b in
        assert (is_dirty cur && File.to_int cur.b_file = fid);
        assert (cur.dprev == !p);
        if !p != t.head then assert (!p.dirtied_at <= cur.dirtied_at);
        incr len;
        assert (!len <= fi.dn);
        p := cur;
        b := cur.dnext
      done;
      assert (!len = fi.dn && fi.last == !p);
      dirty := !dirty + fi.dn;
      if fi.dn > 0 then begin
        incr dirty_files;
        assert (fi.first.dirtied_at = !oldest);
        assert (
          match Hashtbl.find_opt t.dirty_files fid with
          | Some d -> d == fi
          | None -> false)
      end
      else assert (not (Hashtbl.mem t.dirty_files fid)))
    t.files;
  assert (!indexed = t.resident);
  assert (!dirty = t.dirty_count);
  assert (Hashtbl.length t.dirty_files = !dirty_files)
