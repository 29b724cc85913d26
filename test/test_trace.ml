(* Tests for Dfs_trace: ids, records, codec, writer/reader, merge, segments. *)

open Dfs_trace

let mk ?(time = 0.0) ?(server = 0) ?(client = 0) ?(user = 0) ?(pid = 0)
    ?(migrated = false) ?(file = 0) kind =
  {
    Record.time;
    server = Ids.Server.of_int server;
    client = Ids.Client.of_int client;
    user = Ids.User.of_int user;
    pid = Ids.Process.of_int pid;
    migrated;
    file = Ids.File.of_int file;
    kind;
  }

let sample_kinds =
  [
    Record.Open
      { mode = Record.Read_only; created = false; is_dir = false; size = 123; start_pos = 0 };
    Record.Open
      { mode = Record.Write_only; created = true; is_dir = false; size = 0; start_pos = 0 };
    Record.Open
      { mode = Record.Read_write; created = false; is_dir = true; size = 640; start_pos = 64 };
    Record.Close { size = 1000; final_pos = 1000; bytes_read = 500; bytes_written = 500 };
    Record.Reposition { pos_before = 10; pos_after = 999 };
    Record.Delete { size = 42; is_dir = false };
    Record.Delete { size = 0; is_dir = true };
    Record.Truncate { old_size = 4096 };
    Record.Dir_read { bytes = 320 };
    Record.Shared_read { offset = 4096; length = 256 };
    Record.Shared_write { offset = 0; length = 64 };
  ]

(* -- ids -------------------------------------------------------------------- *)

let test_ids_roundtrip () =
  let u = Ids.User.of_int 7 in
  Alcotest.(check int) "roundtrip" 7 (Ids.User.to_int u);
  Alcotest.(check bool) "equal" true (Ids.User.equal u (Ids.User.of_int 7));
  Alcotest.(check bool) "not equal" false (Ids.User.equal u (Ids.User.of_int 8))

let test_ids_collections () =
  let s = Ids.File.Set.of_list (List.map Ids.File.of_int [ 1; 2; 2; 3 ]) in
  Alcotest.(check int) "set dedups" 3 (Ids.File.Set.cardinal s);
  let tbl = Ids.Client.Tbl.create 4 in
  Ids.Client.Tbl.replace tbl (Ids.Client.of_int 5) "x";
  Alcotest.(check (option string)) "tbl find" (Some "x")
    (Ids.Client.Tbl.find_opt tbl (Ids.Client.of_int 5))

(* -- record ----------------------------------------------------------------- *)

let test_record_compare_time () =
  let a = mk ~time:1.0 (Record.Dir_read { bytes = 1 }) in
  let b = mk ~time:2.0 (Record.Dir_read { bytes = 1 }) in
  Alcotest.(check bool) "a before b" true (Record.compare_time a b < 0);
  let c = mk ~time:1.0 ~server:1 (Record.Dir_read { bytes = 1 }) in
  Alcotest.(check bool) "tie broken by server" true (Record.compare_time a c < 0)

let test_record_kind_names () =
  let names = List.map Record.kind_name sample_kinds in
  Alcotest.(check int) "all named" (List.length sample_kinds)
    (List.length (List.filter (fun n -> String.length n > 0) names))

(* -- codec ------------------------------------------------------------------ *)

let test_codec_roundtrip_all_kinds () =
  List.iteri
    (fun i kind ->
      let r =
        mk ~time:(float_of_int i *. 1.5) ~server:(i mod 4) ~client:i ~user:(i * 2)
          ~pid:(i * 3) ~migrated:(i mod 2 = 0) ~file:(i * 10) kind
      in
      match Codec.decode (Codec.encode r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (Record.equal r r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_kinds

let test_codec_bad_input () =
  let bad l =
    match Codec.decode l with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "empty" true (bad "");
  Alcotest.(check bool) "garbage" true (bad "hello world");
  Alcotest.(check bool) "bad kind" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tnope\t1\t2");
  Alcotest.(check bool) "bad int" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tdirread\txyz");
  Alcotest.(check bool) "wrong field count" true
    (bad "1.0\t0\t0\t0\t0\t0\t0\tseek\t5")

(* -- writer / reader ----------------------------------------------------------- *)

let records_for_io =
  List.mapi (fun i kind -> mk ~time:(float_of_int i) ~file:i kind) sample_kinds

let to_list b = Array.to_list (Record_batch.to_array b)

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let encode_trace ~format records =
  let buf = Buffer.create 4096 in
  let w = Writer.to_buffer ~format buf in
  List.iter (Writer.write w) records;
  Writer.flush w;
  Buffer.contents buf

let decode_trace s =
  match Reader.batch_of_string s with
  | Ok b -> to_list b
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_writer_reader_buffer () =
  let buf = Buffer.create 256 in
  let w = Writer.to_buffer buf in
  List.iter (Writer.write w) records_for_io;
  Alcotest.(check int) "count" (List.length records_for_io) (Writer.count w);
  match Reader.batch_of_string (Buffer.contents buf) with
  | Ok b ->
    let rs = to_list b in
    Alcotest.(check int) "all read back" (List.length records_for_io)
      (List.length rs);
    List.iter2
      (fun a b -> Alcotest.(check bool) "record equal" true (Record.equal a b))
      records_for_io rs
  | Error e -> Alcotest.failf "reader failed: %s" e

let test_reader_rejects_bad_header () =
  match Reader.batch_of_string "#not-a-trace\n" with
  | Ok _ -> Alcotest.fail "accepted bad header"
  | Error e ->
    Alcotest.(check bool) "mentions header" true
      (contains_sub ~sub:"header" e)

let test_reader_reports_line () =
  let buf = Buffer.create 64 in
  let w = Writer.to_buffer buf in
  Writer.write w (List.hd records_for_io);
  Buffer.add_string buf "garbage line\n";
  match Reader.batch_of_string (Buffer.contents buf) with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error e ->
    Alcotest.(check bool) "line number present" true
      (String.length e >= 6 && String.sub e 0 4 = "line")

let with_trace_file records f =
  let path = Filename.temp_file "dfs" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Writer.with_file path (fun w -> List.iter (Writer.write w) records);
      f path)

let test_file_roundtrip () =
  with_trace_file records_for_io (fun path ->
      match Reader.batch_of_file path with
      | Ok b ->
        Alcotest.(check int) "file roundtrip" (List.length records_for_io)
          (Record_batch.length b)
      | Error e -> Alcotest.failf "read back failed: %s" e)

(* Text files are parsed line by line off the channel: a damaged line
   stops the parse with its line number, and [Salvage] keeps every
   record decoded ahead of it. *)
let test_batch_of_file_text_lines () =
  with_trace_file records_for_io (fun path ->
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "garbage line\n";
      close_out oc;
      let bad_line = List.length records_for_io + 2 in
      (match Reader.batch_of_file path with
      | Ok _ -> Alcotest.fail "accepted garbage"
      | Error e ->
        Alcotest.(check bool) "names the damaged line" true
          (contains_sub ~sub:(Printf.sprintf "line %d:" bad_line) e));
      match Reader.batch_of_file ~on_corruption:Corruption.Salvage path with
      | Ok b ->
        Alcotest.(check bool) "salvaged prefix" true
          (List.for_all2 Record.equal records_for_io (to_list b))
      | Error e -> Alcotest.failf "salvage failed: %s" e)

(* -- merge ----------------------------------------------------------------------- *)

(* Rebuild [records] as a chunk stream with the given chunk size, so the
   merge cursors have to cross chunk boundaries mid-stream. *)
let chunks_of ?chunk_records ?spill records =
  let sink = Sink.create ?chunk_records ?spill () in
  List.iter (Sink.emit sink) records;
  Sink.close sink

let records_of chunks = to_list (Sink.to_batch chunks)

let merged_list ?scrub sources =
  records_of (Merge.merge_chunks ?scrub (List.map (fun s -> chunks_of s) sources))

let rec is_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> (a : Record.t).time <= b.time && is_sorted rest

(* Reference model for the streaming merge: a boxed-list k-way merge
   over a heap of (head, tail) cursors ordered by [Record.compare_time],
   making the same heap operations in the same order as
   [Merge.merge_iter], so ties resolve identically. *)
module Ref_cursor = struct
  type t = Sentinel | Live of Record.t * Record.t list

  let compare a b =
    match (a, b) with
    | Live (a, _), Live (b, _) -> Record.compare_time a b
    | Sentinel, _ | _, Sentinel -> invalid_arg "Ref_cursor.compare: sentinel"

  let dummy = Sentinel
end

module Ref_heap = Dfs_util.Heap.Make (Ref_cursor)

let list_merge streams =
  let heap = Ref_heap.create () in
  List.iter
    (function [] -> () | r :: rest -> Ref_heap.push heap (Ref_cursor.Live (r, rest)))
    streams;
  let rec go acc =
    match Ref_heap.pop heap with
    | None -> List.rev acc
    | Some Ref_cursor.Sentinel -> invalid_arg "list_merge: sentinel popped"
    | Some (Ref_cursor.Live (r, rest)) ->
      (match rest with
      | [] -> ()
      | r' :: rest' -> Ref_heap.push heap (Ref_cursor.Live (r', rest')));
      go (r :: acc)
  in
  go []

let list_scrub ~self_users records =
  List.filter (fun (r : Record.t) -> not (Ids.User.Set.mem r.user self_users)) records

let test_merge_two_streams () =
  let s0 = [ mk ~time:1.0 ~server:0 (Record.Dir_read { bytes = 1 });
             mk ~time:3.0 ~server:0 (Record.Dir_read { bytes = 1 }) ] in
  let s1 = [ mk ~time:2.0 ~server:1 (Record.Dir_read { bytes = 1 });
             mk ~time:4.0 ~server:1 (Record.Dir_read { bytes = 1 }) ] in
  let merged = merged_list [ s0; s1 ] in
  Alcotest.(check (list (float 0.0))) "interleaved"
    [ 1.0; 2.0; 3.0; 4.0 ]
    (List.map (fun (r : Record.t) -> r.time) merged);
  Alcotest.(check bool) "sorted" true (is_sorted merged)

let test_merge_tie_break () =
  let a = mk ~time:1.0 ~server:1 (Record.Dir_read { bytes = 1 }) in
  let b = mk ~time:1.0 ~server:0 (Record.Dir_read { bytes = 2 }) in
  (* server 0 first on equal timestamps *)
  match merged_list [ [ a ]; [ b ] ] with
  | [ first; second ] ->
    Alcotest.(check int) "server 0 first" 0 (Ids.Server.to_int first.server);
    Alcotest.(check int) "server 1 second" 1 (Ids.Server.to_int second.server)
  | _ -> Alcotest.fail "wrong length"

let test_merge_empty_streams () =
  Alcotest.(check int) "no streams" 0 (List.length (merged_list []));
  Alcotest.(check int) "empty streams" 0 (List.length (merged_list [ []; [] ]))

let test_scrub () =
  let daemon = 9000 in
  let records =
    [
      mk ~time:1.0 ~user:1 (Record.Dir_read { bytes = 1 });
      mk ~time:2.0 ~user:daemon (Record.Dir_read { bytes = 1 });
      mk ~time:3.0 ~user:2 (Record.Dir_read { bytes = 1 });
    ]
  in
  let scrubbed =
    merged_list ~scrub:(Ids.User.Set.singleton (Ids.User.of_int daemon)) [ records ]
  in
  Alcotest.(check int) "daemon removed" 2 (List.length scrubbed);
  Alcotest.(check bool) "others kept" true
    (List.for_all
       (fun (r : Record.t) -> Ids.User.to_int r.user <> daemon)
       scrubbed)

(* -- streaming merge over chunks ------------------------------------------------- *)

let check_same_records msg expected actual =
  Alcotest.(check int) (msg ^ ": length") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (Record.equal e a) then
        Alcotest.failf "%s: record %d differs" msg i)
    (List.combine expected actual)

let test_merge_chunks_empty () =
  Alcotest.(check int) "no sources" 0 (Sink.length (Merge.merge_chunks []));
  Alcotest.(check int) "empty sources" 0
    (Sink.length (Merge.merge_chunks [ chunks_of []; chunks_of [] ]));
  (* one empty source among non-empty ones must not derail the merge *)
  let live = [ mk ~time:1.0 (Record.Dir_read { bytes = 1 }) ] in
  check_same_records "empty among live" live
    (records_of (Merge.merge_chunks [ chunks_of []; chunks_of live ]))

let merge_both_ways ~chunk_records sources =
  let expected = list_merge sources in
  let streamed =
    Merge.merge_chunks ~chunk_records
      (List.map (chunks_of ~chunk_records) sources)
  in
  (expected, records_of streamed)

let interleaved_source server =
  List.init 10 (fun i ->
      mk ~time:(float_of_int ((i * 2) + server)) ~server
        (Record.Dir_read { bytes = i }))

let test_merge_chunks_boundary_straddling () =
  (* chunk size 3 against 10-record sources: cursor advancement crosses a
     chunk boundary inside every source and inside the output sink. *)
  let sources = List.map interleaved_source [ 0; 1; 2 ] in
  let expected, streamed = merge_both_ways ~chunk_records:3 sources in
  check_same_records "chunk_records=3" expected streamed

let test_merge_chunks_single_record_chunks () =
  (* chunk_records = 1: every record is its own chunk — the degenerate
     case where every advance loads a fresh chunk. *)
  let sources = List.map interleaved_source [ 0; 1 ] in
  let expected, streamed = merge_both_ways ~chunk_records:1 sources in
  check_same_records "chunk_records=1" expected streamed

let test_merge_chunks_scrub () =
  let daemon = 9000 in
  let src server =
    [
      mk ~time:(float_of_int server) ~server ~user:1
        (Record.Dir_read { bytes = 1 });
      mk ~time:(float_of_int (server + 10)) ~server ~user:daemon
        (Record.Dir_read { bytes = 2 });
    ]
  in
  let sources = [ src 0; src 1 ] in
  let self_users = Ids.User.Set.singleton (Ids.User.of_int daemon) in
  let expected = list_scrub ~self_users (list_merge sources) in
  let streamed =
    Merge.merge_chunks ~chunk_records:2 ~scrub:self_users
      (List.map (chunks_of ~chunk_records:2) sources)
  in
  check_same_records "scrub while streaming" expected (records_of streamed)

let temp_spill_dir () =
  (* temp_file gives us a unique path; the sink creates the directory. *)
  let f = Filename.temp_file "dfs-test-spill" "" in
  Sys.remove f;
  f

let test_merge_chunks_spill_roundtrip () =
  let dir = temp_spill_dir () in
  let sources = List.map interleaved_source [ 0; 1 ] in
  let chunked =
    List.mapi
      (fun i s ->
        chunks_of ~chunk_records:4
          ~spill:{ Sink.dir; name = Printf.sprintf "src%d" i }
          s)
      sources
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "source spilled" true (Sink.spilled_count c > 0))
    chunked;
  let merged =
    Merge.merge_chunks ~chunk_records:4
      ~spill:{ Sink.dir; name = "merged" }
      chunked
  in
  Alcotest.(check bool) "output spilled" true (Sink.spilled_count merged > 0);
  let expected = list_merge sources in
  check_same_records "spill roundtrip" expected (records_of merged);
  (* replayable: a second traversal re-reads the on-disk segments *)
  check_same_records "second traversal" expected (records_of merged);
  List.iter Sink.discard chunked;
  Sink.discard merged;
  Alcotest.(check (list string)) "segments deleted" []
    (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir

(* -- retired formats -------------------------------------------------------------- *)

(* The varint binary format (magic "\xD7DFSB\x01") is retired: a file
   in it is not a trace, and the reader says so in one short line —
   quoting only the start of a long first "line" — instead of decoding
   it. *)
let test_binary_rejects_bad_magic () =
  let binary =
    "\xD7DFSB\x01\x05\x80\x80\x80\x80\x08\x02\x00\x04\x06\x00\xf6\x01"
  in
  List.iter
    (fun s ->
      match Reader.batch_of_string s with
      | Ok _ -> Alcotest.fail "binary trace accepted"
      | Error e ->
        Alcotest.(check bool) "not a trace" true (contains_sub ~sub:"not a trace" e);
        Alcotest.(check bool) "one short line" true
          ((not (String.contains e '\n')) && String.length e < 200))
    [ binary; binary ^ String.make 100_000 'x' ]

(* Round-trip the merged trace of all eight presets through both
   formats.  Columnar is bit-exact; once times have gone through the
   text codec's %.6f quantization, the two formats carry identical data
   and every analysis agrees. *)
let test_text_columnar_agree_presets () =
  List.iter
    (fun n ->
      let p = Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace n) ~factor:0.002 in
      let cluster, _ = Dfs_workload.Presets.run p in
      let batch = Sink.to_batch (Dfs_sim.Cluster.merged_chunks cluster) in
      let records = to_list batch in
      let columnar = encode_trace ~format:Writer.Columnar records in
      Alcotest.(check bool)
        (Printf.sprintf "trace%d: columnar roundtrip exact" n)
        true
        (Record_batch.equal batch (Record_batch.of_list (decode_trace columnar)));
      let text = encode_trace ~format:Writer.Text records in
      let bt =
        match Reader.batch_of_string text with
        | Ok b -> b
        | Error e -> Alcotest.failf "trace%d text: %s" n e
      in
      let requantized =
        Record_batch.of_list (decode_trace (encode_trace ~format:Writer.Columnar (to_list bt)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "trace%d: batches equal across formats" n)
        true
        (Record_batch.equal bt requantized);
      Alcotest.(check bool)
        (Printf.sprintf "trace%d: analysis equal across formats" n)
        true
        (Dfs_analysis.Trace_stats.of_batch bt
        = Dfs_analysis.Trace_stats.of_batch requantized))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* -- columnar segments --------------------------------------------------------- *)

let with_mmap enabled f =
  let prev = Sys.getenv_opt "DFS_MMAP" in
  Unix.putenv "DFS_MMAP" (if enabled then "1" else "0");
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DFS_MMAP" (Option.value ~default:"" prev))
    f

let write_temp_file s =
  let path = Filename.temp_file "dfs" ".dfsc" in
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  path

let test_segment_writer_roundtrip () =
  (* the columnar writer format: exact on any float time (raw IEEE-754
     bits) *)
  let s = encode_trace ~format:Writer.Columnar records_for_io in
  Alcotest.(check bool) "sniffs as a segment file" true (Segment.is_segment s);
  let back = decode_trace s in
  Alcotest.(check int) "count" (List.length records_for_io) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "record equal (incl. exact time)" true
        (Record.equal a b))
    records_for_io back;
  (* an empty columnar file is still a well-formed (empty) segment file *)
  let empty = encode_trace ~format:Writer.Columnar [] in
  Alcotest.(check bool) "empty file sniffs as segment" true
    (Segment.is_segment empty);
  Alcotest.(check int) "empty file decodes to zero records" 0
    (List.length (decode_trace empty))

let test_segment_mmap_roundtrip_presets () =
  (* Round-trip the merged trace of all eight presets through an on-disk
     segment file, once through the mmap path and once through the
     portable copy path; both must agree with the source bit-for-bit. *)
  List.iter
    (fun n ->
      let p =
        Dfs_workload.Presets.scaled (Dfs_workload.Presets.trace n) ~factor:0.002
      in
      let cluster, _ = Dfs_workload.Presets.run p in
      let expected = Sink.to_batch (Dfs_sim.Cluster.merged_chunks cluster) in
      let path = write_temp_file (Segment.encode_batch expected) in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let read label =
            match Segment.batch_of_file path with
            | Ok b -> b
            | Error e -> Alcotest.failf "trace%d %s: %s" n label e
          in
          let mapped = with_mmap true (fun () -> read "mmap") in
          let copied = with_mmap false (fun () -> read "copy") in
          Alcotest.(check bool)
            (Printf.sprintf "trace%d: mmap read exact" n)
            true
            (Record_batch.equal expected mapped);
          Alcotest.(check bool)
            (Printf.sprintf "trace%d: copy read exact" n)
            true
            (Record_batch.equal expected copied)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let segment_read_both_paths ?on_corruption s =
  (* exercise the string (copy) decoder and the file reader on both
     paths; all three must agree *)
  let path = write_temp_file s in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let of_str = Segment.batch_of_string ?on_corruption s in
      let mapped = with_mmap true (fun () -> Reader.batch_of_file ?on_corruption path) in
      let copied = with_mmap false (fun () -> Reader.batch_of_file ?on_corruption path) in
      [ ("of_string", of_str); ("mmap", mapped); ("copy", copied) ])

let check_segment_rejected ~what ~needle s =
  List.iter
    (fun (label, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s: %s accepted" what label
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s mentions %S" what label needle)
          true
          (contains_sub ~sub:needle e);
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s one line" what label)
          false (String.contains e '\n'))
    (segment_read_both_paths s)

let test_segment_rejects_truncation () =
  let s = Segment.encode_batch (Record_batch.of_list records_for_io) in
  (* a cut inside the header and a cut inside the columns *)
  check_segment_rejected ~what:"header cut" ~needle:"truncated"
    (String.sub s 0 (Segment.header_bytes - 1));
  check_segment_rejected ~what:"column cut" ~needle:"truncated"
    (String.sub s 0 (String.length s - 1))

let structural_error s =
  match (Segment.scan_string ~verify:false s).Segment.error with
  | Some e -> e.Segment.reason
  | None -> Alcotest.fail "accepted without verification"

let test_segment_rejects_misalignment () =
  (* Any poked header field trips the header checksum before the
     structural checks even run. *)
  let s = Segment.encode_batch (Record_batch.of_list records_for_io) in
  let bad_length = Bytes.of_string s in
  Bytes.set_int64_le bad_length 16 (Int64.of_int (String.length s - 3));
  check_segment_rejected ~what:"bad length" ~needle:"header checksum"
    (Bytes.to_string bad_length);
  let bad_count = Bytes.of_string s in
  Bytes.set_int64_le bad_count 8 (-1L);
  check_segment_rejected ~what:"negative count" ~needle:"header checksum"
    (Bytes.to_string bad_count);
  (* Without checksum verification the same pokes must still be caught
     by the structural extent/alignment checks. *)
  Alcotest.(check bool) "bad length unverified" true
    (contains_sub ~sub:"misaligned" (structural_error (Bytes.to_string bad_length)));
  Alcotest.(check bool) "negative count unverified" true
    (contains_sub ~sub:"record count" (structural_error (Bytes.to_string bad_count)))

(* Recompute every column checksum, then the header checksum, of the
   single segment in [b], so a deliberately poked value gets past the
   CRCs to the checks behind them. *)
let reseal b =
  let n = Int64.to_int (Bytes.get_int64_le b 8) in
  let crc ~pos ~len = Dfs_util.Crc32c.string_sub (Bytes.to_string b) ~pos ~len in
  let off = ref Segment.header_bytes in
  List.iteri
    (fun i width ->
      let len = width * n in
      Bytes.set_int32_le b (28 + (4 * i)) (Int32.of_int (crc ~pos:!off ~len));
      off := !off + len)
    [ 8; 4; 4; 4; 4; 4; 4; 4; 4; 4; 1 ];
  Bytes.set_int32_le b 24 0l;
  Bytes.set_int32_le b 24
    (Int32.of_int (crc ~pos:0 ~len:Segment.header_bytes))

let test_segment_rejects_malformed_tag () =
  let n = List.length records_for_io in
  (* tags column starts at header + 44n; 0xFF sets flag bits no kind
     allows.  The column checksum catches the flip first... *)
  let bad = Bytes.of_string (Segment.encode_batch (Record_batch.of_list records_for_io)) in
  Bytes.set bad (Segment.header_bytes + (44 * n)) '\xFF';
  check_segment_rejected ~what:"bad tag" ~needle:"column tags"
    (Bytes.to_string bad);
  (* ...and behind valid checksums the tag check itself rejects it. *)
  reseal bad;
  check_segment_rejected ~what:"resealed bad tag" ~needle:"malformed tag"
    (Bytes.to_string bad)

(* A clean leading segment followed by a CRC-valid segment whose record
   [i] had one value poked by [poke b ~n ~i]. *)
let poked_trace poke =
  let segment () = Segment.encode_batch (Record_batch.of_list records_for_io) in
  let bad = Bytes.of_string (segment ()) in
  poke bad ~n:(List.length records_for_io) ~i:2;
  reseal bad;
  segment () ^ Bytes.to_string bad

(* Under [Fail] every read path gives a one-line diagnostic; under
   [Salvage] each keeps the clean leading segment and counts the
   incident. *)
let check_invalid_value ~what ~needle s =
  check_segment_rejected ~what ~needle s;
  let detected = Corruption.detected () in
  List.iter
    (fun (label, r) ->
      match r with
      | Ok b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s salvages the leading segment" what label)
          true
          (List.for_all2 Record.equal records_for_io (to_list b))
      | Error e -> Alcotest.failf "%s: %s salvage failed: %s" what label e)
    (segment_read_both_paths ~on_corruption:Corruption.Salvage s);
  Alcotest.(check int) (what ^ ": incidents counted") (detected + 3)
    (Corruption.detected ())

let user_column n = Segment.header_bytes + (8 * n) + (4 * n * 2)

let test_segment_rejects_negative_id () =
  check_invalid_value ~what:"negative user id" ~needle:"invalid user id -5"
    (poked_trace (fun b ~n ~i -> Bytes.set_int32_le b (user_column n + (4 * i)) (-5l)))

let test_segment_rejects_bad_time () =
  List.iter
    (fun t ->
      check_invalid_value
        ~what:(Printf.sprintf "time %g" t)
        ~needle:"invalid time"
        (poked_trace (fun b ~n:_ ~i ->
             Bytes.set_int64_le b
               (Segment.header_bytes + (8 * i))
               (Int64.bits_of_float t))))
    [ Float.nan; Float.infinity; -1.0 ]

(* -- properties -------------------------------------------------------------------- *)

let gen_kind =
  QCheck.Gen.oneof
    (List.map QCheck.Gen.return sample_kinds)

let gen_record =
  QCheck.Gen.(
    map2
      (fun (t, s, c) kind ->
        mk ~time:(Float.abs t) ~server:s ~client:c kind)
      (triple (float_bound_inclusive 1e6) (int_bound 3) (int_bound 50))
      gen_kind)

let gen_full_record =
  QCheck.Gen.(
    map2
      (fun (t, s, c) ((u, p, f), m, kind) ->
        mk ~time:(Float.abs t) ~server:s ~client:c ~user:u ~pid:p ~file:f
          ~migrated:m kind)
      (triple (float_bound_inclusive 1e6) (int_bound 3) (int_bound 50))
      (triple
         (triple (int_bound 9999) (int_bound 99999) (int_bound 999999))
         bool gen_kind))

let arb_record = QCheck.make gen_record
let arb_full_record = QCheck.make gen_full_record

(* The text codec's time-precision contract: times are printed with
   [%.6f], so one encode/decode quantizes the time to the nearest
   microsecond; every other field round-trips exactly. *)
let prop_codec_roundtrip =
  QCheck.Test.make ~name:"text codec roundtrip (random records)" ~count:300
    arb_full_record (fun r ->
      match Codec.decode (Codec.encode r) with
      | Ok r' ->
        (* times survive to microsecond precision: the [%.6f] decimal
           is within 5e-7 of the exact double, and [float_of_string]
           then rounds that decimal to the nearest double, adding up to
           half an ulp (at most 0.26 ulp over 20M random times in
           [0, 1e6)).  One ulp of the original time covers it... *)
        Float.abs (r'.time -. r.time) <= 5e-7 +. (Float.succ r.time -. r.time)
        (* ...and everything else must be untouched *)
        && Record.equal { r with time = r'.time } r'
      | Error _ -> false)

(* A time that already went through [%.6f] is a fixed point: re-encoding
   is the identity on the whole record, bit-for-bit. *)
let prop_text_codec_exact_on_quantized =
  QCheck.Test.make ~name:"text codec exact on quantized times" ~count:300
    arb_full_record (fun r ->
      let quantized =
        { r with Record.time = float_of_string (Printf.sprintf "%.6f" r.time) }
      in
      match Codec.decode (Codec.encode quantized) with
      | Ok r' -> Record.equal quantized r'
      | Error _ -> false)

(* The Bigarray-backed batch must read back exactly what the boxed
   records said, through both the bounds-checked and the unsafe
   accessors — the whole point of the columnar cursor is that analyses
   can trust it record for record. *)
let prop_batch_columns_match_boxed =
  QCheck.Test.make ~name:"bigarray columns agree with boxed records"
    ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) arb_full_record)
    (fun rs ->
      let b = Record_batch.of_list rs in
      Record_batch.length b = List.length rs
      && List.for_all2 Record.equal rs (Array.to_list (Record_batch.to_array b))
      && List.for_all2
           (fun (r : Record.t) i ->
             Record.equal r (Record_batch.get b i)
             && Record_batch.time b i = r.time
             && Record_batch.time b i = Record_batch.Unsafe.time b i
             && Record_batch.server b i = Ids.Server.to_int r.server
             && Record_batch.server b i = Record_batch.Unsafe.server b i
             && Record_batch.client b i = Ids.Client.to_int r.client
             && Record_batch.client b i = Record_batch.Unsafe.client b i
             && Record_batch.user b i = Ids.User.to_int r.user
             && Record_batch.user b i = Record_batch.Unsafe.user b i
             && Record_batch.pid b i = Ids.Process.to_int r.pid
             && Record_batch.pid b i = Record_batch.Unsafe.pid b i
             && Record_batch.file b i = Ids.File.to_int r.file
             && Record_batch.file b i = Record_batch.Unsafe.file b i
             && Record_batch.migrated b i = r.migrated
             && Record_batch.migrated b i = Record_batch.Unsafe.migrated b i
             && Record_batch.tag b i = Record_batch.Unsafe.tag b i
             && Record_batch.a b i = Record_batch.Unsafe.a b i
             && Record_batch.b b i = Record_batch.Unsafe.b b i
             && Record_batch.c b i = Record_batch.Unsafe.c b i
             && Record_batch.d b i = Record_batch.Unsafe.d b i)
           rs
           (List.init (List.length rs) Fun.id))

(* Segment files are exact on any payload, mmap or not. *)
let prop_segment_roundtrip_exact =
  QCheck.Test.make ~name:"segment codec exact on random traces" ~count:60
    QCheck.(list_of_size Gen.(0 -- 40) arb_full_record)
    (fun rs ->
      let s = Segment.encode_batch (Record_batch.of_list rs) in
      match Segment.batch_of_string s with
      | Error e -> QCheck.Test.fail_report e
      | Ok b ->
        Record_batch.length b = List.length rs
        && List.for_all2 Record.equal rs
             (Array.to_list (Record_batch.to_array b)))

(* A raw columnar record: time, the five ids, a well-formed tag byte and
   the four payload columns, with hostile values mixed in. *)
type raw = { time : float; ids : int array; raw_tag : int; payload : int array }

let gen_raw =
  QCheck.Gen.(
    let value =
      frequency [ (30, int_bound 5000); (1, oneofl [ -1; -5; -0x8000_0000; 0x7FFF_FFFF ]) ]
    in
    let time =
      frequency
        [ (30, float_bound_inclusive 1e6);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -1.0; -0.0 ]) ]
    in
    let tag =
      map
        (fun (kind, migrated, (mode, created, is_dir)) ->
          let flags =
            if kind = Record_batch.tag_open then
              (mode lsl 4) lor (if created then 0x40 else 0) lor if is_dir then 0x80 else 0
            else if kind = Record_batch.tag_delete && is_dir then 0x80
            else 0
          in
          kind lor (if migrated then 0x08 else 0) lor flags)
        (triple (int_bound 7) bool (triple (int_bound 2) bool bool))
    in
    map
      (fun (time, (ids, payload), raw_tag) -> { time; ids; raw_tag; payload })
      (triple time (pair (array_size (return 5) value) (array_size (return 4) value)) tag))

let batch_of_raws raws =
  let n = Array.length raws in
  let col kind f =
    let c = Bigarray.Array1.create kind Bigarray.c_layout n in
    Array.iteri (fun i r -> Bigarray.Array1.set c i (f r)) raws;
    c
  in
  let i32 f = col Bigarray.int32 (fun r -> Int32.of_int (f r)) in
  Record_batch.of_columns ~len:n
    ~times:(col Bigarray.float64 (fun r -> r.time))
    ~servers:(i32 (fun r -> r.ids.(0)))
    ~clients:(i32 (fun r -> r.ids.(1)))
    ~users:(i32 (fun r -> r.ids.(2)))
    ~pids:(i32 (fun r -> r.ids.(3)))
    ~files:(i32 (fun r -> r.ids.(4)))
    ~tags:(col Bigarray.int8_unsigned (fun r -> r.raw_tag))
    ~col_a:(i32 (fun r -> r.payload.(0)))
    ~col_b:(i32 (fun r -> r.payload.(1)))
    ~col_c:(i32 (fun r -> r.payload.(2)))
    ~col_d:(i32 (fun r -> r.payload.(3)))

(* The model: ids are checked non-negative before boxing (a [Record.t]
   cannot hold a negative id), then [Record.validate] decides. *)
let raw_valid r =
  Array.for_all (fun v -> v >= 0) r.ids
  && Result.is_ok
       (Record.validate
          (mk ~time:r.time ~server:r.ids.(0) ~client:r.ids.(1) ~user:r.ids.(2)
             ~pid:r.ids.(3) ~file:r.ids.(4)
             ~migrated:(r.raw_tag land 0x08 <> 0)
             (Record_batch.unpack_kind ~raw_tag:r.raw_tag ~a:r.payload.(0)
                ~b:r.payload.(1) ~c:r.payload.(2) ~d:r.payload.(3))))

(* The columnar reader's in-place value check accepts a segment exactly
   when [Record.validate] accepts every record in it. *)
let prop_segment_check_matches_validate =
  QCheck.Test.make ~name:"segment value check agrees with Record.validate"
    ~count:300
    QCheck.(make Gen.(array_size (0 -- 8) gen_raw))
    (fun raws ->
      let s = Segment.encode_batch (batch_of_raws raws) in
      Result.is_ok (Segment.batch_of_string s) = Array.for_all raw_valid raws)

let prop_merge_sorted =
  QCheck.Test.make ~name:"merge output is time-sorted" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) arb_record)
        (list_of_size Gen.(0 -- 30) arb_record))
    (fun (a, b) ->
      let sort l = List.sort Record.compare_time l in
      let merged = merged_list [ sort a; sort b ] in
      is_sorted merged
      && List.length merged = List.length a + List.length b)

(* The streaming chunked merge must agree with the boxed-list reference
   merge record-for-record for any chunk size — including timestamp
   ties, which both sides resolve by server id and then by an identical
   sequence of heap operations. *)
let prop_merge_chunks_equiv =
  QCheck.Test.make ~name:"streaming merge equals in-memory merge" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 4) (list_of_size Gen.(0 -- 25) arb_record))
        (int_range 1 5))
    (fun (sources, chunk_records) ->
      let sources = List.map (List.sort Record.compare_time) sources in
      let expected = list_merge sources in
      let streamed =
        records_of
          (Merge.merge_chunks ~chunk_records
             (List.map (chunks_of ~chunk_records) sources))
      in
      List.length expected = List.length streamed
      && List.for_all2 Record.equal expected streamed)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_codec_roundtrip;
      prop_text_codec_exact_on_quantized;
      prop_batch_columns_match_boxed;
      prop_segment_roundtrip_exact;
      prop_segment_check_matches_validate;
      prop_merge_sorted;
      prop_merge_chunks_equiv;
    ]

let suite =
  [
    ("ids roundtrip", `Quick, test_ids_roundtrip);
    ("ids collections", `Quick, test_ids_collections);
    ("record compare_time", `Quick, test_record_compare_time);
    ("record kind names", `Quick, test_record_kind_names);
    ("codec roundtrip all kinds", `Quick, test_codec_roundtrip_all_kinds);
    ("codec rejects bad input", `Quick, test_codec_bad_input);
    ("writer/reader via buffer", `Quick, test_writer_reader_buffer);
    ("reader rejects bad header", `Quick, test_reader_rejects_bad_header);
    ("reader reports line numbers", `Quick, test_reader_reports_line);
    ("file roundtrip", `Quick, test_file_roundtrip);
    ("batch_of_file reads text line by line", `Quick, test_batch_of_file_text_lines);
    ("merge two streams", `Quick, test_merge_two_streams);
    ("merge tie-break", `Quick, test_merge_tie_break);
    ("merge empty", `Quick, test_merge_empty_streams);
    ("scrub self users", `Quick, test_scrub);
    ("merge_chunks empty sources", `Quick, test_merge_chunks_empty);
    ("merge_chunks boundary straddling", `Quick, test_merge_chunks_boundary_straddling);
    ("merge_chunks single-record chunks", `Quick, test_merge_chunks_single_record_chunks);
    ("merge_chunks streaming scrub", `Quick, test_merge_chunks_scrub);
    ("merge_chunks spill roundtrip", `Quick, test_merge_chunks_spill_roundtrip);
    ("binary rejects bad magic", `Quick, test_binary_rejects_bad_magic);
    ("text and columnar agree on all presets", `Slow, test_text_columnar_agree_presets);
    ("segment writer roundtrip", `Quick, test_segment_writer_roundtrip);
    ("segment mmap roundtrip all presets", `Slow,
      test_segment_mmap_roundtrip_presets);
    ("segment rejects truncation", `Quick, test_segment_rejects_truncation);
    ("segment rejects misalignment", `Quick, test_segment_rejects_misalignment);
    ("segment rejects malformed tag", `Quick, test_segment_rejects_malformed_tag);
    ("segment rejects negative id", `Quick, test_segment_rejects_negative_id);
    ("segment rejects non-finite or negative time", `Quick,
      test_segment_rejects_bad_time);
  ]
  @ qcheck_tests
