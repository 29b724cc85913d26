(* Tests for Dfs_cache.Block_cache: hit/miss accounting, write fetches,
   delayed writes, fsync, recall, invalidation, capacity negotiation. *)

module Bc = Dfs_cache.Block_cache
module File = Dfs_trace.Ids.File

let bs = Dfs_util.Units.block_size

type backend_log = {
  mutable fetches : (int * int * int) list;  (* file, index, bytes; newest first *)
  mutable writebacks : (int * int * int * Bc.clean_reason) list;
}

let make_cache ?(capacity = 64) ?(min_capacity = 1) ?(delay = 30.0) () =
  let log = { fetches = []; writebacks = [] } in
  let cache =
    Bc.create
      ~config:
        {
          Bc.block_size = bs;
          writeback_delay = delay;
          capacity_blocks = capacity;
          min_capacity_blocks = min_capacity;
        }
      {
        Bc.fetch =
          (fun ~cls:_ ~file ~index ~bytes ->
            log.fetches <- (File.to_int file, index, bytes) :: log.fetches);
        writeback =
          (fun ~file ~index ~bytes ~reason ->
            log.writebacks <-
              (File.to_int file, index, bytes, reason) :: log.writebacks);
      }
  in
  (cache, log)

let f id = File.of_int id

let read ?(now = 0.0) ?(migrated = false) cache ~file ~size ~off ~len =
  Bc.read cache ~now ~cls:Bc.Class_file ~migrated ~file:(f file)
    ~file_size:size ~off ~len

let write ?(now = 0.0) ?(migrated = false) cache ~file ~size ~off ~len =
  Bc.write cache ~now ~cls:Bc.Class_file ~migrated ~file:(f file)
    ~file_size:size ~off ~len

(* -- reads -------------------------------------------------------------------- *)

let test_cold_read_fetches () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "one fetch" 1 (List.length log.fetches);
  let s = (Bc.stats cache).all in
  Alcotest.(check int) "one read op" 1 s.read_ops;
  Alcotest.(check int) "one miss" 1 s.read_misses;
  Alcotest.(check int) "no hit" 0 s.read_hits;
  Alcotest.(check int) "bytes read" bs s.bytes_read;
  Alcotest.(check int) "bytes fetched" bs s.bytes_fetched

let test_warm_read_hits () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "still one fetch" 1 (List.length log.fetches);
  let s = (Bc.stats cache).all in
  Alcotest.(check int) "one hit" 1 s.read_hits;
  Alcotest.(check int) "one miss" 1 s.read_misses

let test_read_spanning_blocks () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:(3 * bs) ~off:0 ~len:(3 * bs);
  Alcotest.(check int) "three fetches" 3 (List.length log.fetches);
  Alcotest.(check int) "three resident blocks" 3 (Bc.size cache)

let test_read_partial_tail_fetch () =
  let cache, log = make_cache () in
  (* file is 100 bytes: fetching its block transfers only 100 bytes *)
  read cache ~file:1 ~size:100 ~off:0 ~len:100;
  (match log.fetches with
  | [ (_, 0, bytes) ] -> Alcotest.(check int) "partial fetch" 100 bytes
  | _ -> Alcotest.fail "expected one fetch of block 0");
  Alcotest.(check int) "bytes fetched stat" 100
    (Bc.stats cache).all.bytes_fetched

let test_read_offset_within_block () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:(bs / 2) ~len:bs;
  let s = (Bc.stats cache).all in
  (* spans blocks 0 and 1 *)
  Alcotest.(check int) "two block ops" 2 s.read_ops;
  Alcotest.(check int) "app bytes" bs s.bytes_read

let test_migrated_class_accounting () =
  let cache, _ = make_cache () in
  read ~migrated:true cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~migrated:false cache ~file:2 ~size:bs ~off:0 ~len:bs;
  let s = Bc.stats cache in
  Alcotest.(check int) "migrated ops" 1 s.migrated.read_ops;
  Alcotest.(check int) "all ops" 2 s.all.read_ops;
  Alcotest.(check int) "file class ops" 2 s.file.read_ops;
  Alcotest.(check int) "paging untouched" 0 s.paging.read_ops

let test_paging_class_accounting () =
  let cache, _ = make_cache () in
  Bc.read cache ~now:0.0 ~cls:Bc.Class_paging ~migrated:false ~file:(f 1)
    ~file_size:bs ~off:0 ~len:bs;
  let s = Bc.stats cache in
  Alcotest.(check int) "paging ops" 1 s.paging.read_ops;
  Alcotest.(check int) "file class untouched" 0 s.file.read_ops

(* -- writes ------------------------------------------------------------------- *)

let test_write_dirties () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:bs;
  Alcotest.(check int) "dirty blocks" 1 (Bc.dirty_blocks cache);
  Alcotest.(check int) "no writeback yet" 0 (List.length log.writebacks);
  Alcotest.(check int) "no fetch for a fresh full block" 0
    (List.length log.fetches)

let test_append_no_write_fetch () =
  let cache, log = make_cache () in
  (* appending past EOF must not fetch anything *)
  write cache ~file:1 ~size:0 ~off:0 ~len:100;
  write cache ~file:1 ~size:100 ~off:100 ~len:100;
  Alcotest.(check int) "no fetches" 0 (List.length log.fetches);
  Alcotest.(check int) "no write fetches" 0 (Bc.stats cache).all.write_fetches

let test_partial_write_nonresident_fetches () =
  let cache, log = make_cache () in
  (* file already has 2 blocks of data on the server; we overwrite a few
     bytes in the middle of block 1 without having it cached *)
  write cache ~file:1 ~size:(2 * bs) ~off:(bs + 10) ~len:50;
  Alcotest.(check int) "one write fetch" 1 (Bc.stats cache).all.write_fetches;
  Alcotest.(check int) "fetched the block" 1 (List.length log.fetches);
  Alcotest.(check int) "write fetch bytes" bs
    (Bc.stats cache).all.write_fetch_bytes

let test_partial_write_resident_no_fetch () =
  let cache, log = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:bs ~len:bs;
  log.fetches <- [];
  write cache ~file:1 ~size:(2 * bs) ~off:(bs + 10) ~len:50;
  Alcotest.(check int) "no fetch when resident" 0 (List.length log.fetches);
  Alcotest.(check int) "no write fetch" 0 (Bc.stats cache).all.write_fetches

let test_full_block_overwrite_no_fetch () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:(2 * bs) ~off:bs ~len:bs;
  Alcotest.(check int) "full-block overwrite needs no fetch" 0
    (List.length log.fetches)

(* -- delayed write ------------------------------------------------------------- *)

let test_delayed_writeback_after_30s () =
  let cache, log = make_cache () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  Bc.tick cache ~now:10.0;
  Alcotest.(check int) "too early" 0 (List.length log.writebacks);
  Bc.tick cache ~now:30.0;
  Alcotest.(check int) "flushed at 30s" 1 (List.length log.writebacks);
  (match log.writebacks with
  | [ (_, _, bytes, reason) ] ->
    Alcotest.(check int) "whole dirty extent" bs bytes;
    Alcotest.(check bool) "reason delay" true (reason = Bc.Clean_delay)
  | _ -> Alcotest.fail "one writeback expected");
  Alcotest.(check int) "clean now" 0 (Bc.dirty_blocks cache);
  Bc.tick cache ~now:60.0;
  Alcotest.(check int) "no double flush" 1 (List.length log.writebacks)

let test_delayed_write_flushes_whole_file () =
  let cache, log = make_cache () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  (* second block dirtied much later; Sprite flushes ALL dirty blocks of a
     file once any of them expires *)
  write ~now:25.0 cache ~file:1 ~size:bs ~off:bs ~len:bs;
  Bc.tick cache ~now:31.0;
  Alcotest.(check int) "both blocks flushed" 2 (List.length log.writebacks)

let test_writeback_extent_append () =
  let cache, log = make_cache () in
  (* append 100 bytes at offset 300 of a fresh block: the writeback covers
     block start through the end of the appended data *)
  write ~now:0.0 cache ~file:1 ~size:300 ~off:300 ~len:100;
  Bc.fsync cache ~now:1.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, 0, bytes, _) ] -> Alcotest.(check int) "head-to-high-water" 400 bytes
  | _ -> Alcotest.fail "single writeback expected");
  Alcotest.(check int) "writeback_bytes stat" 400
    (Bc.stats cache).writeback_bytes

let test_fsync_reason () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:10;
  Bc.fsync cache ~now:1.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "fsync reason" true (reason = Bc.Clean_fsync)
  | _ -> Alcotest.fail "one writeback");
  Alcotest.(check int) "fsync leaves block resident" 1 (Bc.size cache)

let test_recall_reason_and_residency () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:10;
  Bc.recall cache ~now:2.0 ~file:(f 1);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "recall reason" true (reason = Bc.Clean_recall)
  | _ -> Alcotest.fail "one writeback");
  Alcotest.(check int) "block stays" 1 (Bc.size cache);
  Alcotest.(check int) "clean" 0 (Bc.dirty_blocks cache)

let test_delete_discards_dirty () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:1000;
  Bc.delete cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "nothing written back" 0 (List.length log.writebacks);
  Alcotest.(check int) "discarded bytes recorded" 1000
    (Bc.stats cache).dirty_bytes_discarded;
  Alcotest.(check int) "gone" 0 (Bc.size cache);
  Bc.tick cache ~now:60.0;
  Alcotest.(check int) "still nothing" 0 (List.length log.writebacks)

let test_invalidate_drops_clean_blocks () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read cache ~file:2 ~size:bs ~off:0 ~len:bs;
  Bc.invalidate cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "only file 2 left" 1 (Bc.size cache)

let test_flush_and_invalidate () =
  let cache, log = make_cache () in
  write cache ~file:1 ~size:0 ~off:0 ~len:100;
  Bc.flush_and_invalidate cache ~now:1.0 ~file:(f 1);
  Alcotest.(check int) "dirty data flushed" 1 (List.length log.writebacks);
  Alcotest.(check int) "blocks dropped" 0 (Bc.size cache)

(* -- capacity -------------------------------------------------------------------- *)

let test_lru_eviction_at_capacity () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  read ~now:3.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "bounded" 2 (Bc.size cache);
  (* file 1 was LRU: reading it again must miss *)
  let misses_before = (Bc.stats cache).all.read_misses in
  read ~now:4.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "file1 was evicted" (misses_before + 1)
    (Bc.stats cache).all.read_misses

let test_lru_touch_protects () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  (* touch file 1 so file 2 becomes the victim *)
  read ~now:3.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:4.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  let misses_before = (Bc.stats cache).all.read_misses in
  read ~now:5.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  Alcotest.(check int) "file1 survived" misses_before
    (Bc.stats cache).all.read_misses

let test_replacement_stats () =
  let cache, _ = make_cache ~capacity:2 () in
  read ~now:1.0 cache ~file:1 ~size:bs ~off:0 ~len:bs;
  read ~now:2.0 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  read ~now:11.0 cache ~file:3 ~size:bs ~off:0 ~len:bs;
  let reps = (Bc.stats cache).replacements in
  let for_block = List.assoc Bc.Replace_for_block reps in
  Alcotest.(check int) "one for-block replacement" 1
    (Dfs_util.Stats.count for_block);
  (* age = now(11) - last_ref(1) *)
  Alcotest.(check (float 1e-6)) "age recorded" 10.0
    (Dfs_util.Stats.mean for_block)

let test_shrink_evicts_to_vm () =
  let cache, _ = make_cache ~capacity:4 () in
  for i = 1 to 4 do
    read ~now:(float_of_int i) cache ~file:i ~size:bs ~off:0 ~len:bs
  done;
  Bc.set_capacity cache ~now:10.0 2;
  Alcotest.(check int) "shrunk" 2 (Bc.size cache);
  let to_vm = List.assoc Bc.Replace_to_vm (Bc.stats cache).replacements in
  Alcotest.(check int) "two pages to VM" 2 (Dfs_util.Stats.count to_vm)

let test_shrink_flushes_dirty_to_vm () =
  let cache, log = make_cache ~capacity:2 () in
  write ~now:0.0 cache ~file:1 ~size:0 ~off:0 ~len:bs;
  read ~now:0.5 cache ~file:2 ~size:bs ~off:0 ~len:bs;
  (* two resident blocks; shrinking to one evicts the LRU (the dirty one),
     which must reach the server with the VM-page reason first *)
  Bc.set_capacity cache ~now:1.0 1;
  Alcotest.(check int) "one block left" 1 (Bc.size cache);
  (match log.writebacks with
  | [ (_, _, _, reason) ] ->
    Alcotest.(check bool) "vm reason" true (reason = Bc.Clean_vm)
  | [] -> Alcotest.fail "expected the dirty victim to be flushed"
  | _ -> Alcotest.fail "one writeback")

let test_capacity_floor () =
  let cache, _ = make_cache ~capacity:8 ~min_capacity:4 () in
  Bc.set_capacity cache ~now:0.0 1;
  Alcotest.(check int) "clamped to floor" 4 (Bc.capacity cache)

let test_resident_bytes () =
  let cache, _ = make_cache () in
  read cache ~file:1 ~size:(2 * bs) ~off:0 ~len:(2 * bs);
  Alcotest.(check int) "resident bytes" (2 * bs) (Bc.resident_bytes cache)

(* -- invariants / properties ---------------------------------------------------- *)

let prop_random_ops_keep_invariants =
  QCheck.Test.make ~name:"random op sequences keep cache invariants" ~count:60
    QCheck.(
      list_of_size Gen.(0 -- 120)
        (quad (int_bound 5) (int_bound 6) (int_bound 3) (int_bound 9)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:8 ~min_capacity:2 () in
      let now = ref 0.0 in
      List.iter
        (fun (file, op, blk, amount) ->
          now := !now +. 1.0;
          let file = file + 1 in
          let size = 4 * bs in
          match op with
          | 0 -> read ~now:!now cache ~file ~size ~off:(blk * bs) ~len:(amount * 100)
          | 1 ->
            write ~now:!now cache ~file ~size ~off:(blk * bs) ~len:(amount * 100)
          | 2 -> Bc.tick cache ~now:!now
          | 3 -> Bc.fsync cache ~now:!now ~file:(f file)
          | 4 -> Bc.delete cache ~now:!now ~file:(f file)
          | 5 -> Bc.set_capacity cache ~now:!now (2 + amount)
          | _ -> Bc.recall cache ~now:!now ~file:(f file))
        ops;
      Bc.check_invariants cache;
      true)

let prop_reads_conserve_bytes =
  QCheck.Test.make ~name:"hits + misses = read ops" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 4) (int_bound 7)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:16 () in
      List.iter
        (fun (file, blk) ->
          read cache ~file:(file + 1) ~size:(8 * bs) ~off:(blk * bs) ~len:bs)
        ops;
      let s = (Bc.stats cache).all in
      s.read_hits + s.read_misses = s.read_ops)

let prop_writeback_bounded_by_written =
  QCheck.Test.make
    ~name:"writebacks + discards <= bytes written (block slack allowed)"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 3) (int_bound 9)))
    (fun ops ->
      let cache, _ = make_cache ~capacity:64 () in
      let now = ref 0.0 in
      List.iter
        (fun (file, amount) ->
          now := !now +. 10.0;
          write ~now:!now cache ~file:(file + 1) ~size:0 ~off:0
            ~len:((amount + 1) * 100);
          Bc.tick cache ~now:!now)
        ops;
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 1);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 2);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 3);
      Bc.fsync cache ~now:(!now +. 100.0) ~file:(f 4);
      let s = Bc.stats cache in
      (* every written byte is flushed at most once per dirtying; extents
         can exceed the app bytes only through head-of-block inclusion *)
      s.writeback_bytes + s.dirty_bytes_discarded
      <= s.all.bytes_written + (Bc.size cache * bs))

(* -- differential test against a reference model ------------------------------ *)

(* A brute-force Sprite cache: the resident blocks are a plain list, least
   recently used first, and every rule is restated from the policy rather
   than from the implementation.  The one thing the policy leaves open is
   the order in which a whole-file clean writes blocks back, and the
   outputs depend on it: the cache writes in the order a [Stdlib.Hashtbl]
   per file would iterate, and [tick] takes files in the fold order of a
   [Hashtbl] of the files with dirty blocks.  The model keeps real tables,
   mirrored on every insert, eviction and drop, to pin that order. *)
module Model = struct
  type block = {
    file : int;
    index : int;
    mutable dirty : bool;
    mutable dirtied_at : float;
    mutable high : int;  (* writeback extent *)
  }

  type event =
    | Fetch of int * int * int  (* file, index, bytes *)
    | Writeback of int * int * int * Bc.clean_reason

  type t = {
    mutable blocks : block list;
    mutable capacity : int;
    min_capacity : int;
    delay : float;
    mutable events : event list;  (* newest first *)
    files : (int, (int, block) Hashtbl.t) Hashtbl.t;  (* the blocks, by file *)
    dirty_files : (int, unit) Hashtbl.t;  (* files with a dirty block *)
  }

  let create ~capacity ~min_capacity ~delay =
    {
      blocks = [];
      capacity;
      min_capacity;
      delay;
      events = [];
      files = Hashtbl.create 256;
      dirty_files = Hashtbl.create 64;
    }

  let emit m e = m.events <- e :: m.events

  let find m file index =
    List.find_opt (fun b -> b.file = file && b.index = index) m.blocks

  let to_mru m b = m.blocks <- List.filter (fun x -> x != b) m.blocks @ [ b ]

  let has_dirty m file = List.exists (fun b -> b.file = file && b.dirty) m.blocks

  (* [file] lost a dirty block or a block: leave the dirty set once none
     is left. *)
  let settle m file =
    if not (has_dirty m file) then Hashtbl.remove m.dirty_files file

  let unindex m b =
    let tbl = Hashtbl.find m.files b.file in
    Hashtbl.remove tbl b.index;
    if Hashtbl.length tbl = 0 then Hashtbl.remove m.files b.file

  let clean m b reason =
    if b.dirty then begin
      emit m (Writeback (b.file, b.index, b.high, reason));
      b.dirty <- false;
      b.high <- 0;
      settle m b.file
    end

  let evict m reason =
    match m.blocks with
    | [] -> assert false
    | b :: rest ->
      m.blocks <- rest;
      clean m b reason;
      unindex m b

  let insert m ~now file index =
    while List.length m.blocks >= m.capacity do
      evict m Bc.Clean_eviction
    done;
    let b = { file; index; dirty = false; dirtied_at = now; high = 0 } in
    m.blocks <- m.blocks @ [ b ];
    let tbl =
      match Hashtbl.find_opt m.files file with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 16 in
        Hashtbl.replace m.files file tbl;
        tbl
    in
    Hashtbl.replace tbl index b;
    b

  (* (index, lo, hi) of each block [off, off+len) overlaps *)
  let spans ~off ~len =
    List.filter_map
      (fun index ->
        let lo = max off (index * bs) and hi = min (off + len) ((index + 1) * bs) in
        if lo < hi then Some (index, lo - (index * bs), hi - (index * bs)) else None)
      (List.init ((off + len) / bs + 1) Fun.id)

  let held ~size index = max 0 (min bs (size - (index * bs)))

  let read m ~now ~file ~size ~off ~len =
    List.iter
      (fun (index, _, _) ->
        match find m file index with
        | Some b -> to_mru m b
        | None ->
          emit m (Fetch (file, index, held ~size index));
          ignore (insert m ~now file index))
      (spans ~off ~len)

  let write m ~now ~file ~size ~off ~len =
    List.iter
      (fun (index, lo, hi) ->
        let b =
          match find m file index with
          | Some b -> b
          | None ->
            (* data already in the block that this write leaves in place
               must be fetched first *)
            let held = held ~size index in
            if held > 0 && not (lo = 0 && hi >= held) then
              emit m (Fetch (file, index, held));
            insert m ~now file index
        in
        if not b.dirty then begin
          b.dirty <- true;
          b.dirtied_at <- now;
          if not (Hashtbl.mem m.dirty_files file) then
            Hashtbl.replace m.dirty_files file ()
        end;
        b.high <- max b.high hi;
        to_mru m b)
      (spans ~off ~len)

  (* Every dirty block of the file, in its table's iteration order. *)
  let clean_file m file reason =
    match Hashtbl.find_opt m.files file with
    | None -> ()
    | Some tbl -> Hashtbl.iter (fun _ b -> clean m b reason) tbl

  let expired m ~now file =
    List.exists
      (fun b -> b.file = file && b.dirty && now -. b.dirtied_at >= m.delay)
      m.blocks

  (* The expired files, consed in the dirty set's fold order. *)
  let tick m ~now =
    let files =
      Hashtbl.fold
        (fun file () acc -> if expired m ~now file then file :: acc else acc)
        m.dirty_files []
    in
    List.iter (fun file -> clean_file m file Bc.Clean_delay) files

  let drop m file =
    m.blocks <- List.filter (fun b -> b.file <> file) m.blocks;
    Hashtbl.remove m.files file;
    Hashtbl.remove m.dirty_files file

  let crash m =
    let lost =
      List.fold_left (fun acc b -> if b.dirty then acc + b.high else acc) 0 m.blocks
    in
    m.blocks <- [];
    Hashtbl.reset m.files;
    Hashtbl.clear m.dirty_files;
    lost

  let set_capacity m n =
    m.capacity <- max 1 (max m.min_capacity n);
    while List.length m.blocks > m.capacity do
      evict m Bc.Clean_vm
    done
end

type cache_op =
  | Read of int * int * int * int  (* file, size, off, len *)
  | Write of int * int * int * int
  | Set_capacity of int
  | Invalidate of int
  | Delete of int
  | Fsync of int
  | Recall of int
  | Flush_and_invalidate of int
  | Tick
  | Crash

let print_cache_op = function
  | Read (f, s, o, l) -> Printf.sprintf "read f%d size=%d off=%d len=%d" f s o l
  | Write (f, s, o, l) -> Printf.sprintf "write f%d size=%d off=%d len=%d" f s o l
  | Set_capacity n -> Printf.sprintf "set_capacity %d" n
  | Invalidate f -> Printf.sprintf "invalidate f%d" f
  | Delete f -> Printf.sprintf "delete f%d" f
  | Fsync f -> Printf.sprintf "fsync f%d" f
  | Recall f -> Printf.sprintf "recall f%d" f
  | Flush_and_invalidate f -> Printf.sprintf "flush_and_invalidate f%d" f
  | Tick -> "tick"
  | Crash -> "crash"

(* A few files, block-aligned and ragged offsets, sizes that end inside,
   at and past block boundaries.  [blocks] bounds the starting block and
   [lens] adds longer writes and reads. *)
let cache_op_gen ?(blocks = 5) ?(lens = []) () =
  let open QCheck.Gen in
  let file = int_range 1 3 in
  let size = oneofl [ 0; 100; bs; (5 * bs) / 2; 6 * bs; blocks * bs ] in
  let off =
    map2
      (fun blk within -> (blk * bs) + within)
      (int_bound blocks)
      (oneofl [ 0; 0; 512; bs - 1 ])
  in
  let len = oneofl ([ 0; 1; 100; bs; bs + 1; 2 * bs ] @ lens) in
  let access k = map (fun (f, s, o, l) -> k f s o l) (quad file size off len) in
  frequency
    [
      (8, access (fun f s o l -> Read (f, s, o, l)));
      (8, access (fun f s o l -> Write (f, s, o, l)));
      (2, map (fun n -> Set_capacity n) (int_range 0 8));
      (1, map (fun f -> Invalidate f) file);
      (1, map (fun f -> Delete f) file);
      (1, map (fun f -> Fsync f) file);
      (1, map (fun f -> Recall f) file);
      (1, map (fun f -> Flush_and_invalidate f) file);
      (3, return Tick);
      (1, return Crash);
    ]

(* Run [ops] on a cache and on the model, ten simulated seconds apart at
   most, comparing after every op.  Fetches and writebacks must match in
   order, whole-file cleans included. *)
let differential ~capacity ops =
  let min_capacity = 1 and delay = 30.0 in
  let cache, log = make_cache ~capacity ~min_capacity ~delay () in
  let model = Model.create ~capacity ~min_capacity ~delay in
  let events () =
    (* the backend log as model events, oldest first *)
    ( List.rev_map (fun (f, i, b) -> Model.Fetch (f, i, b)) log.fetches,
      List.rev_map (fun (f, i, b, r) -> Model.Writeback (f, i, b, r)) log.writebacks )
  in
  let split evs =
    ( List.filter (function Model.Fetch _ -> true | _ -> false) evs,
      List.filter (function Model.Writeback _ -> true | _ -> false) evs )
  in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  List.iteri
    (fun step (op, dt) ->
      let now = float_of_int (10 * (step + 1)) +. dt in
      log.fetches <- [];
      log.writebacks <- [];
      model.events <- [];
      (match op with
      | Read (file, size, off, len) ->
        read ~now cache ~file ~size ~off ~len;
        Model.read model ~now ~file ~size ~off ~len
      | Write (file, size, off, len) ->
        write ~now cache ~file ~size ~off ~len;
        Model.write model ~now ~file ~size ~off ~len
      | Set_capacity n ->
        Bc.set_capacity cache ~now n;
        Model.set_capacity model n
      | Invalidate file ->
        Bc.invalidate cache ~now ~file:(f file);
        Model.drop model file
      | Delete file ->
        Bc.delete cache ~now ~file:(f file);
        Model.drop model file
      | Fsync file ->
        Bc.fsync cache ~now ~file:(f file);
        Model.clean_file model file Bc.Clean_fsync
      | Recall file ->
        Bc.recall cache ~now ~file:(f file);
        Model.clean_file model file Bc.Clean_recall
      | Flush_and_invalidate file ->
        Bc.flush_and_invalidate cache ~now ~file:(f file);
        Model.clean_file model file Bc.Clean_recall;
        Model.drop model file
      | Tick ->
        Bc.tick cache ~now;
        Model.tick model ~now
      | Crash ->
        let lost = Bc.crash cache ~now in
        let expected = Model.crash model in
        if lost <> expected then
          fail "step %d: crash lost %d, model %d" step lost expected);
      Bc.check_invariants cache;
      let fetches, wbs = events () in
      let m_fetches, m_wbs = split (List.rev model.events) in
      if fetches <> m_fetches then
        fail "step %d (%s): fetch calls differ" step (print_cache_op op);
      if wbs <> m_wbs then
        fail "step %d (%s): writebacks differ" step (print_cache_op op);
      let resident =
        List.map (fun (file, i) -> (File.to_int file, i)) (Bc.resident_blocks cache)
      in
      let m_resident = List.map (fun b -> (b.Model.file, b.Model.index)) model.blocks in
      if resident <> m_resident then
        fail "step %d (%s): resident blocks or their recency order differ" step
          (print_cache_op op);
      let m_dirty = List.filter (fun b -> b.Model.dirty) model.blocks in
      if Bc.dirty_blocks cache <> List.length m_dirty then
        fail "step %d (%s): dirty block counts differ" step (print_cache_op op))
    ops;
  true

let cache_ops_arb ?blocks ?lens n =
  QCheck.make
    ~print:
      QCheck.Print.(
        list (fun (op, dt) -> Printf.sprintf "%s @+%g" (print_cache_op op) dt))
    QCheck.Gen.(
      list_size (0 -- n) (pair (cache_op_gen ?blocks ?lens ()) (float_bound_inclusive 9.0)))

let prop_matches_reference_model =
  QCheck.Test.make ~name:"block cache matches a list-based LRU model" ~count:300
    (cache_ops_arb 80) (differential ~capacity:4)

(* Files of up to ~100 blocks in a cache of 80: the per-file tables grow
   past 16 and 32 buckets, and whole-file cleans meet long chains. *)
let prop_matches_reference_model_large =
  QCheck.Test.make ~name:"block cache matches the model on large files" ~count:60
    (cache_ops_arb ~blocks:90 ~lens:[ 16 * bs; 40 * bs; (64 * bs) + 7 ] 60)
    (differential ~capacity:80)

(* The file index against [Stdlib.Hashtbl]: one file, keys spread over a
   wide range, inserted by writes and removed by LRU evictions and
   capacity cuts, with a mirror table fed the same stream.  Every block is
   dirty while the stream runs, so each eviction shows in the backend log
   and the mirror can follow it.  Then an fsync of every block, and a
   [tick] of a random dirty subset stamped at non-monotone times, must
   write back in the mirror's iteration order. *)
let prop_index_order_matches_hashtbl =
  QCheck.Test.make ~name:"file index iterates like a Stdlib Hashtbl" ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(300 -- 900)
           (pair (int_bound 1_000_000) (int_bound 40)))
        (list (pair (int_bound 1_000_000) (float_bound_inclusive 20.0))))
    (fun (stream, subset) ->
      let cache, log = make_cache ~capacity:400 ~min_capacity:1 () in
      let mirror = Hashtbl.create 16 in
      let now = ref 0.0 in
      let follow_evictions () =
        List.iter
          (fun (_, index, _, reason) ->
            assert (reason = Bc.Clean_eviction || reason = Bc.Clean_vm);
            Hashtbl.remove mirror index)
          (List.rev log.writebacks);
        log.writebacks <- []
      in
      List.iter
        (fun (key, op) ->
          now := !now +. 0.01;
          if op = 0 then begin
            Bc.set_capacity cache ~now:!now (200 + (key mod 200));
            follow_evictions ()
          end
          else begin
            (* a miss evicts first, then indexes the new block *)
            let resident = Hashtbl.mem mirror key in
            write ~now:!now cache ~file:1 ~size:0 ~off:(key * bs) ~len:bs;
            follow_evictions ();
            if not resident then Hashtbl.replace mirror key ()
          end)
        stream;
      Bc.check_invariants cache;
      let order keep =
        Hashtbl.fold (fun k () acc -> if keep k then k :: acc else acc) mirror []
        |> List.rev
      in
      let written () =
        let l = List.rev_map (fun (_, index, _, _) -> index) log.writebacks in
        log.writebacks <- [];
        l
      in
      Bc.fsync cache ~now:!now ~file:(f 1);
      let all_ok = written () = order (fun _ -> true) in
      let keys = Array.of_list (order (fun _ -> true)) in
      let dirty = Hashtbl.create 16 in
      if Array.length keys > 0 then
        List.iter
          (fun (pick, dt) ->
            let key = keys.(pick mod Array.length keys) in
            Hashtbl.replace dirty key ();
            write ~now:(!now +. dt) cache ~file:1 ~size:0 ~off:(key * bs) ~len:bs)
          subset;
      Bc.check_invariants cache;
      Bc.tick cache ~now:(!now +. 50.0);
      Bc.check_invariants cache;
      all_ok
      && written () = order (Hashtbl.mem dirty)
      && Bc.dirty_blocks cache = 0)

(* [tick] cleans expired files in the fold order of the table of dirty
   files.  A crash empties that table but, like removing every entry,
   keeps its grown bucket array, so the order after a crash is that of a
   [Hashtbl] that once held every file dirty before it. *)
let test_tick_order_survives_crash () =
  let cache, log = make_cache ~capacity:1024 () in
  let mirror = Hashtbl.create 64 in
  for file = 1 to 300 do
    write ~now:0.0 cache ~file ~size:0 ~off:0 ~len:bs;
    Hashtbl.replace mirror file ()
  done;
  ignore (Bc.crash cache ~now:1.0);
  Hashtbl.clear mirror;
  for file = 1 to 40 do
    let file = 1 + (file * 37 mod 300) in
    write ~now:2.0 cache ~file ~size:0 ~off:0 ~len:bs;
    Hashtbl.replace mirror file ()
  done;
  Bc.tick cache ~now:40.0;
  let expected = Hashtbl.fold (fun file () acc -> file :: acc) mirror [] in
  let written = List.rev_map (fun (file, _, _, _) -> file) log.writebacks in
  Alcotest.(check (list int)) "files in the dirty table's order" expected written

(* -- hot path allocation and isolation ------------------------------------------ *)

let read_file cache ~now ~migrated file =
  Bc.read cache ~now ~cls:Bc.Class_file ~migrated ~file ~file_size:bs ~off:0 ~len:bs

let test_read_hits_allocate_nothing () =
  let cache, _ = make_cache ~capacity:64 () in
  let files = Array.init 16 (fun i -> f (i + 1)) in
  Array.iter (fun file -> read_file cache ~now:0.0 ~migrated:false file) files;
  let now = 1.0 and n = 10_000 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    read_file cache ~now ~migrated:(i land 1 = 0) files.(i land 15)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all hits" n (Bc.stats cache).all.read_hits;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words over %d hits, at most 0.01 each" words n)
    true
    (words <= 0.01 *. float_of_int n)

(* Caches running on different domains at once must not see each other:
   the same script gives the same outcome alone and side by side. *)
let test_caches_share_no_state () =
  let script () =
    let cache, log = make_cache ~capacity:32 ~min_capacity:8 () in
    let st = Random.State.make [| 7 |] in
    for i = 1 to 20_000 do
      let now = float_of_int i *. 0.01 in
      let file = 1 + Random.State.int st 6 and off = bs * Random.State.int st 16 in
      if Random.State.bool st then read ~now cache ~file ~size:(16 * bs) ~off ~len:bs
      else write ~now cache ~file ~size:(16 * bs) ~off ~len:100;
      if i mod 500 = 0 then Bc.tick cache ~now;
      if i mod 3000 = 0 then Bc.set_capacity cache ~now (8 + Random.State.int st 32)
    done;
    Bc.check_invariants cache;
    (Bc.resident_blocks cache, log.fetches, log.writebacks)
  in
  let alone = script () in
  let a = Domain.spawn script and b = Domain.spawn script in
  let a = Domain.join a and b = Domain.join b in
  Alcotest.(check bool) "first domain matches the solo run" true (a = alone);
  Alcotest.(check bool) "second domain matches the solo run" true (b = alone)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_ops_keep_invariants;
      prop_reads_conserve_bytes;
      prop_writeback_bounded_by_written;
      prop_matches_reference_model;
      prop_matches_reference_model_large;
      prop_index_order_matches_hashtbl;
    ]

let suite =
  [
    ("cold read fetches", `Quick, test_cold_read_fetches);
    ("warm read hits", `Quick, test_warm_read_hits);
    ("read spanning blocks", `Quick, test_read_spanning_blocks);
    ("partial tail fetch", `Quick, test_read_partial_tail_fetch);
    ("read offset within block", `Quick, test_read_offset_within_block);
    ("migrated class accounting", `Quick, test_migrated_class_accounting);
    ("paging class accounting", `Quick, test_paging_class_accounting);
    ("write dirties", `Quick, test_write_dirties);
    ("append needs no write fetch", `Quick, test_append_no_write_fetch);
    ("partial write non-resident fetches", `Quick, test_partial_write_nonresident_fetches);
    ("partial write resident no fetch", `Quick, test_partial_write_resident_no_fetch);
    ("full-block overwrite no fetch", `Quick, test_full_block_overwrite_no_fetch);
    ("delayed writeback after 30s", `Quick, test_delayed_writeback_after_30s);
    ("delayed write flushes whole file", `Quick, test_delayed_write_flushes_whole_file);
    ("writeback extent on append", `Quick, test_writeback_extent_append);
    ("fsync reason", `Quick, test_fsync_reason);
    ("recall reason and residency", `Quick, test_recall_reason_and_residency);
    ("delete discards dirty", `Quick, test_delete_discards_dirty);
    ("invalidate drops clean blocks", `Quick, test_invalidate_drops_clean_blocks);
    ("flush_and_invalidate", `Quick, test_flush_and_invalidate);
    ("lru eviction at capacity", `Quick, test_lru_eviction_at_capacity);
    ("lru touch protects", `Quick, test_lru_touch_protects);
    ("replacement stats", `Quick, test_replacement_stats);
    ("shrink evicts to VM", `Quick, test_shrink_evicts_to_vm);
    ("shrink flushes dirty to VM", `Quick, test_shrink_flushes_dirty_to_vm);
    ("capacity floor", `Quick, test_capacity_floor);
    ("resident bytes", `Quick, test_resident_bytes);
    ("tick order survives a crash", `Quick, test_tick_order_survives_crash);
    ("read hits allocate nothing", `Quick, test_read_hits_allocate_nothing);
    ("caches on two domains share no state", `Quick, test_caches_share_no_state);
  ]
  @ qcheck_tests
