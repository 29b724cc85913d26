(* Tests for Dfs_consistency: shared-event extraction, the three mechanism
   simulations (Table 12), and the polling stale-data simulation (Table 11). *)

open Dfs_consistency
module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
let batch = Dfs_trace.Record_batch.of_list

let bs = Dfs_util.Units.block_size

let mk ?(time = 0.0) ?(client = 0) ?(user = 0) ?(pid = 0) ?(migrated = false)
    ?(file = 0) kind =
  {
    Record.time;
    server = Ids.Server.of_int 0;
    client = Ids.Client.of_int client;
    user = Ids.User.of_int user;
    pid = Ids.Process.of_int pid;
    migrated;
    file = Ids.File.of_int file;
    kind;
  }

let op ?time ?client ?user ?pid ?file ?(mode = Record.Read_only) () =
  mk ?time ?client ?user ?pid ?file
    (Record.Open { mode; created = false; is_dir = false; size = 0; start_pos = 0 })

let cl ?time ?client ?user ?pid ?file ?(bytes_written = 0) () =
  mk ?time ?client ?user ?pid ?file
    (Record.Close { size = 0; final_pos = 0; bytes_read = 0; bytes_written })

let sread ?time ?client ?user ?pid ?file ~off ~len () =
  mk ?time ?client ?user ?pid ?file (Record.Shared_read { offset = off; length = len })

let swrite ?time ?client ?user ?pid ?file ~off ~len () =
  mk ?time ?client ?user ?pid ?file (Record.Shared_write { offset = off; length = len })

(* A canonical write-sharing episode on file 1: client 0 holds it open for
   writing, client 1 reads it concurrently. *)
let sharing_trace =
  [
    op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
    op ~time:1.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
    swrite ~time:2.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:100 ();
    sread ~time:3.0 ~client:1 ~pid:2 ~file:1 ~off:0 ~len:100 ();
    swrite ~time:4.0 ~client:0 ~pid:1 ~file:1 ~off:100 ~len:100 ();
    sread ~time:5.0 ~client:1 ~pid:2 ~file:1 ~off:100 ~len:100 ();
    cl ~time:6.0 ~client:1 ~pid:2 ~file:1 ();
    cl ~time:7.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:200 ();
  ]

(* -- shared event extraction ------------------------------------------------------ *)

let test_extract_stream () =
  match Shared_events.extract (batch sharing_trace) with
  | [ s ] ->
    Alcotest.(check int) "file id" 1 (Ids.File.to_int s.file);
    Alcotest.(check int) "requested bytes" 400 s.requested_bytes;
    Alcotest.(check int) "requests" 4 s.requests;
    Alcotest.(check int) "events incl opens/closes" 8 (List.length s.events);
    Alcotest.(check int) "totals" 400 (Shared_events.total_requested [ s ]);
    Alcotest.(check int) "total reqs" 4 (Shared_events.total_requests [ s ])
  | l -> Alcotest.failf "expected 1 stream, got %d" (List.length l)

let test_extract_ignores_unshared_files () =
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:5 ();
      cl ~time:1.0 ~client:0 ~pid:1 ~file:5 ();
    ]
  in
  Alcotest.(check int) "no streams" 0 (List.length (Shared_events.extract (batch trace)))

let test_extract_writer_flag_from_open () =
  match Shared_events.extract (batch sharing_trace) with
  | [ s ] ->
    let opens =
      List.filter_map
        (fun { Shared_events.ev; _ } ->
          match ev with
          | Shared_events.Open { client; writer } -> Some (client, writer)
          | _ -> None)
        s.events
    in
    Alcotest.(check (list (pair int bool))) "writer flags"
      [ (0, true); (1, false) ] opens
  | _ -> Alcotest.fail "one stream"

(* -- Sprite baseline ---------------------------------------------------------------- *)

let test_sprite_exact_demand () =
  let streams = Shared_events.extract (batch sharing_trace) in
  let r = Sprite.simulate streams in
  Alcotest.(check int) "bytes = demand" 400 r.Overhead.bytes_transferred;
  Alcotest.(check int) "rpcs = requests" 4 r.Overhead.rpcs;
  let ratios = Overhead.ratios ~demand_bytes:400 ~demand_requests:4 r in
  Alcotest.(check (float 1e-9)) "bytes ratio 1" 1.0 ratios.bytes_ratio;
  Alcotest.(check (float 1e-9)) "rpc ratio 1" 1.0 ratios.rpc_ratio

(* -- modified Sprite ------------------------------------------------------------------ *)

let test_modified_same_as_sprite_while_sharing () =
  (* every request in sharing_trace happens while both clients hold the
     file, so the modified scheme also passes everything through *)
  let streams = Shared_events.extract (batch sharing_trace) in
  let r = Sprite_modified.simulate streams in
  Alcotest.(check int) "bytes equal demand during sharing" 400
    r.Overhead.bytes_transferred

let test_modified_caches_after_sharing_ends () =
  (* after the reader closes, Sprite keeps the file uncacheable (events are
     still logged) but the modified scheme lets the writer cache: repeated
     small writes to one block cost one write-fetch at most and a single
     delayed writeback, instead of passing every write through *)
  let tail_writes =
    List.concat_map
      (fun i ->
        [ swrite ~time:(7.0 +. float_of_int i) ~client:0 ~pid:1 ~file:1
            ~off:(i * 10) ~len:10 () ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      op ~time:1.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
      sread ~time:2.0 ~client:1 ~pid:2 ~file:1 ~off:0 ~len:100 ();
      cl ~time:6.0 ~client:1 ~pid:2 ~file:1 ();
    ]
    @ tail_writes
    @ [ cl ~time:100.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:100 () ]
  in
  let streams = Shared_events.extract (batch trace) in
  let sprite = Sprite.simulate streams in
  let modified = Sprite_modified.simulate streams in
  (* demand: 100 read + 100 written; sprite moves exactly 200 bytes in 11
     RPCs; modified: the read passes through (sharing active), the writes
     coalesce into block-level dirtiness flushed once *)
  Alcotest.(check int) "sprite bytes" 200 sprite.Overhead.bytes_transferred;
  Alcotest.(check bool) "modified fewer RPCs" true
    (modified.Overhead.rpcs < sprite.Overhead.rpcs)

let test_modified_flushes_on_resharing () =
  (* writer caches dirty data after sharing ends; when a new reader opens
     (sharing again), the dirty blocks are flushed *)
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      op ~time:1.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
      cl ~time:2.0 ~client:1 ~pid:2 ~file:1 ();
      (* alone now: cacheable write *)
      swrite ~time:3.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:50 ();
      (* reader returns: sharing resumes; dirty data must be flushed *)
      op ~time:4.0 ~client:1 ~pid:3 ~file:1 ~mode:Record.Read_only ();
      sread ~time:5.0 ~client:1 ~pid:3 ~file:1 ~off:0 ~len:50 ();
      cl ~time:6.0 ~client:1 ~pid:3 ~file:1 ();
      cl ~time:7.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:50 ();
    ]
  in
  let streams = Shared_events.extract (batch trace) in
  let r = Sprite_modified.simulate streams in
  (* the cached write (50 dirty bytes) is flushed at the sharing
     transition, and the pass-through read moves 50 more *)
  Alcotest.(check bool) "flush happened" true (r.Overhead.bytes_transferred >= 100)

(* -- token --------------------------------------------------------------------------- *)

let test_token_caching_wins_on_rereads () =
  (* one writer writes once; a reader re-reads the same range many times.
     Sprite passes every re-read through; the token scheme caches. *)
  let rereads =
    List.map
      (fun i -> sread ~time:(10.0 +. float_of_int i) ~client:1 ~pid:2 ~file:1 ~off:0 ~len:bs ())
      (List.init 10 Fun.id)
  in
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      op ~time:1.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
      swrite ~time:2.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:bs ();
    ]
    @ rereads
    @ [
        cl ~time:30.0 ~client:1 ~pid:2 ~file:1 ();
        cl ~time:31.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:bs ();
      ]
  in
  let streams = Shared_events.extract (batch trace) in
  let sprite = Sprite.simulate streams in
  let token = Token.simulate streams in
  Alcotest.(check bool) "token moves fewer bytes than sprite" true
    (token.Overhead.bytes_transferred < sprite.Overhead.bytes_transferred)

let test_token_pingpong_costs () =
  (* writer and reader alternate on the same block: the token bounces and
     whole blocks are re-fetched — worse than Sprite's pass-through *)
  let ops =
    List.concat_map
      (fun i ->
        let t = 2.0 +. (2.0 *. float_of_int i) in
        [
          swrite ~time:t ~client:0 ~pid:1 ~file:1 ~off:0 ~len:16 ();
          sread ~time:(t +. 1.0) ~client:1 ~pid:2 ~file:1 ~off:0 ~len:16 ();
        ])
      (List.init 10 Fun.id)
  in
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      op ~time:1.0 ~client:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
    ]
    @ ops
    @ [
        cl ~time:60.0 ~client:1 ~pid:2 ~file:1 ();
        cl ~time:61.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:160 ();
      ]
  in
  let streams = Shared_events.extract (batch trace) in
  let sprite = Sprite.simulate streams in
  let token = Token.simulate streams in
  Alcotest.(check bool) "fine-grained sharing hurts the token scheme" true
    (token.Overhead.bytes_transferred > sprite.Overhead.bytes_transferred)

let test_token_single_client_cheap () =
  (* a single client doing everything needs one token and caches *)
  let trace =
    [
      op ~time:0.0 ~client:0 ~pid:1 ~file:1 ~mode:Record.Write_only ();
      swrite ~time:1.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:bs ();
      sread ~time:2.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:bs ();
      sread ~time:3.0 ~client:0 ~pid:1 ~file:1 ~off:0 ~len:bs ();
      cl ~time:4.0 ~client:0 ~pid:1 ~file:1 ~bytes_written:bs ();
    ]
  in
  let streams = Shared_events.extract (batch trace) in
  let token = Token.simulate streams in
  (* 1 write token + maybe a read-token upgrade + final flush; reads hit *)
  Alcotest.(check bool) "few RPCs" true (token.Overhead.rpcs <= 4)

(* -- polling (Table 11) ----------------------------------------------------------------- *)

let publish ~t ~client ~file ~user =
  [
    op ~time:t ~client ~user ~pid:(client + 10) ~file ~mode:Record.Write_only ();
    cl ~time:(t +. 0.5) ~client ~user ~pid:(client + 10) ~file ~bytes_written:10 ();
  ]

let read_open ~t ~client ~file ~user =
  [
    op ~time:t ~client ~user ~pid:(client + 20) ~file ~mode:Record.Read_only ();
    cl ~time:(t +. 0.1) ~client ~user ~pid:(client + 20) ~file ();
  ]

let test_polling_stale_read_detected () =
  let trace =
    (* client 1 reads at t=10 (caches), client 0 writes at t=20, client 1
       re-reads at t=40 — inside the 60 s validity window: stale *)
    publish ~t:0.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:10.0 ~client:1 ~file:1 ~user:1
    @ publish ~t:20.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:40.0 ~client:1 ~file:1 ~user:1
  in
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check int) "one error" 1 r.errors;
  Alcotest.(check int) "one user affected" 1 r.users_affected;
  Alcotest.(check int) "open error counted" 1 r.opens_with_error

let test_polling_refresh_prevents_error () =
  let trace =
    publish ~t:0.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:10.0 ~client:1 ~file:1 ~user:1
    @ publish ~t:20.0 ~client:0 ~file:1 ~user:0
    (* re-read AFTER the window expires: client revalidates *)
    @ read_open ~t:80.0 ~client:1 ~file:1 ~user:1
  in
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check int) "no error" 0 r.errors

let test_polling_short_interval_fewer_errors () =
  let trace =
    publish ~t:0.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:10.0 ~client:1 ~file:1 ~user:1
    @ publish ~t:20.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:40.0 ~client:1 ~file:1 ~user:1
  in
  let r60 = Polling.simulate ~interval:60.0 (batch trace) in
  let r3 = Polling.simulate ~interval:3.0 (batch trace) in
  Alcotest.(check int) "60s errs" 1 r60.errors;
  Alcotest.(check int) "3s errs" 0 r3.errors

let test_polling_own_writes_never_stale () =
  let trace =
    read_open ~t:0.0 ~client:0 ~file:1 ~user:0
    @ publish ~t:5.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:10.0 ~client:0 ~file:1 ~user:0
  in
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check int) "own writes visible" 0 r.errors

let test_polling_shared_reads_checked () =
  let trace =
    [
      op ~time:0.0 ~client:1 ~user:1 ~pid:2 ~file:1 ~mode:Record.Read_only ();
      sread ~time:1.0 ~client:1 ~user:1 ~pid:2 ~file:1 ~off:0 ~len:10 ();
      swrite ~time:2.0 ~client:0 ~user:0 ~pid:1 ~file:1 ~off:0 ~len:10 ();
      sread ~time:3.0 ~client:1 ~user:1 ~pid:2 ~file:1 ~off:0 ~len:10 ();
      cl ~time:4.0 ~client:1 ~user:1 ~pid:2 ~file:1 ();
    ]
  in
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check int) "stale fine-grained read" 1 r.errors

let test_polling_migrated_accounting () =
  let trace =
    publish ~t:0.0 ~client:0 ~file:1 ~user:0
    @ [
        op ~time:10.0 ~client:1 ~user:1 ~pid:30 ~file:1 ~mode:Record.Read_only ();
        cl ~time:10.1 ~client:1 ~user:1 ~pid:30 ~file:1 ();
      ]
    @ publish ~t:20.0 ~client:0 ~file:1 ~user:0
    @ [
        mk ~time:40.0 ~client:1 ~user:1 ~pid:31 ~migrated:true ~file:1
          (Record.Open
             { mode = Record.Read_only; created = false; is_dir = false;
               size = 0; start_pos = 0 });
        mk ~time:40.1 ~client:1 ~user:1 ~pid:31 ~migrated:true ~file:1
          (Record.Close { size = 0; final_pos = 0; bytes_read = 0; bytes_written = 0 });
      ]
  in
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check int) "migrated open error" 1 r.migrated_opens_with_error;
  Alcotest.(check int) "migrated opens" 1 r.migrated_opens

let test_polling_delete_resets () =
  let trace =
    publish ~t:0.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:5.0 ~client:1 ~file:1 ~user:1
    @ [ mk ~time:6.0 ~client:0 ~file:1 (Record.Delete { size = 10; is_dir = false }) ]
    @ publish ~t:7.0 ~client:0 ~file:1 ~user:0
    @ read_open ~t:8.0 ~client:1 ~file:1 ~user:1
  in
  (* after deletion the file state restarts; the version counter resets,
     so the re-read may or may not be flagged — the simulation must at
     least not crash and keep counts consistent *)
  let r = Polling.simulate ~interval:60.0 (batch trace) in
  Alcotest.(check bool) "errors bounded by opens" true
    (r.opens_with_error <= r.file_opens)

(* -- overhead helpers --------------------------------------------------------------------- *)

let test_blocks_in_range () =
  let collect off len =
    let acc = ref [] in
    Overhead.blocks_in_range ~off ~len (fun i -> acc := i :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "within one block" [ 0 ] (collect 0 100);
  Alcotest.(check (list int)) "spans two" [ 0; 1 ] (collect (bs - 10) 20);
  Alcotest.(check (list int)) "empty" [] (collect 50 0)

let test_is_partial_block () =
  Alcotest.(check bool) "full block not partial" false
    (Overhead.is_partial_block ~off:0 ~len:bs ~index:0);
  Alcotest.(check bool) "small write partial" true
    (Overhead.is_partial_block ~off:10 ~len:100 ~index:0);
  Alcotest.(check bool) "tail of long write partial" true
    (Overhead.is_partial_block ~off:0 ~len:(bs + 10) ~index:1)

(* -- reference models ------------------------------------------------------------------ *)

(* Random shared-access streams: at most 4 clients and 4 files (file 0
   the busiest, file 3 a directory), two pids per client, unmatched
   closes included.  Gaps are half-second multiples, short steps mixed
   with long pauses, so both the 3 s and the 60 s validity windows
   expire, hold, and end exactly on a read. *)
let gen_stream =
  QCheck.Gen.(
    let gen_kind file =
      let is_dir = file = 3 in
      frequency
        [
          ( 4,
            let* mode = oneofl [ Record.Read_only; Record.Write_only; Record.Read_write ] in
            let* size = int_bound 3000 in
            return (Record.Open { mode; created = false; is_dir; size; start_pos = 0 }) );
          ( 4,
            let* bytes_written = oneofl [ 0; 0; 100 ] in
            let* bytes_read = oneofl [ 0; 50 ] in
            return
              (Record.Close { size = 100; final_pos = 100; bytes_read; bytes_written }) );
          ( 2,
            let* offset = int_bound 8192 in
            let* length = int_range 1 500 in
            return (Record.Shared_read { offset; length }) );
          ( 2,
            let* offset = int_bound 8192 in
            let* length = int_range 1 500 in
            return (Record.Shared_write { offset; length }) );
          (2, return (Record.Delete { size = 0; is_dir }));
          ( 1,
            let* pos_before = int_bound 4096 in
            let* pos_after = int_bound 4096 in
            return (Record.Reposition { pos_before; pos_after }) );
          ( 1,
            let* bytes = int_bound 2048 in
            return (Record.Dir_read { bytes }) );
        ]
    in
    let gen_step =
      let* half_seconds =
        frequency [ (1, oneofl [ 0; 6; 120 ]); (3, int_bound 4); (2, int_bound 160) ]
      in
      let gap = 0.5 *. float_of_int half_seconds in
      let* client = int_bound 3 in
      let* pid = int_bound 1 in
      let* user = int_bound 2 in
      let* migrated = frequency [ (3, return false); (1, return true) ] in
      let* file = frequency [ (4, return 0); (2, return 1); (1, return 2); (1, return 3) ] in
      let* kind = gen_kind file in
      return (gap, fun time -> mk ~time ~client ~user ~pid:((2 * client) + pid) ~migrated ~file kind)
    in
    let* steps = list_size (int_bound 80) gen_step in
    let _, rev =
      List.fold_left (fun (t, acc) (gap, mk) -> (t +. gap, mk (t +. gap) :: acc)) (0.0, []) steps
    in
    return (List.rev rev))

let print_stream rs = String.concat "\n" (List.map (Format.asprintf "%a" Record.pp) rs)

let arb_stream = QCheck.make ~print:print_stream gen_stream

let fid (r : Record.t) = Ids.File.to_int r.file
let cid (r : Record.t) = Ids.Client.to_int r.client

let is_open_of_file (r : Record.t) =
  match r.kind with Record.Open { is_dir = false; _ } -> true | _ -> false

let is_delete (r : Record.t) = match r.kind with Record.Delete _ -> true | _ -> false

let bytes_written (r : Record.t) =
  match r.kind with Record.Close { bytes_written; _ } -> bytes_written | _ -> 0

let open_writes (r : Record.t) =
  match r.kind with
  | Record.Open { mode = Record.Write_only | Record.Read_write; _ } -> true
  | _ -> false

(* Polling, re-derived for each read from the whole history before it.
   A file's version counts its publishes (closes that wrote, shared
   writes) since its last delete.  A client's copy of a file is
   validated at its first read of the file and at every read a full
   interval after the previous validation; a read in between is stale
   when the file moved past the version the client last saw (at the
   validation or its own later publish) and the last writer was someone
   else. *)
let polling_reference ~interval (rs : Record.t list) : Polling.report =
  let h = Array.of_list rs in
  let n = Array.length h in
  let is_read k =
    match h.(k).kind with
    | Record.Open { mode = Record.Read_only | Record.Read_write; is_dir = false; _ } -> true
    | Record.Shared_read _ -> true
    | _ -> false
  in
  let is_publish k =
    match h.(k).kind with
    | Record.Close { bytes_written; _ } -> bytes_written > 0
    | Record.Shared_write _ -> true
    | _ -> false
  in
  let same_copy k j = fid h.(k) = fid h.(j) && cid h.(k) = cid h.(j) in
  (* version of [f] just after index [j] *)
  let version f j =
    let v = ref 0 in
    for k = 0 to j do
      if fid h.(k) = f then if is_delete h.(k) then v := 0 else if is_publish k then incr v
    done;
    !v
  in
  let last_writer f j =
    let w = ref None in
    for k = 0 to j - 1 do
      if fid h.(k) = f then
        if is_delete h.(k) then w := None else if is_publish k then w := Some (cid h.(k))
    done;
    !w
  in
  let validates = Array.make n false in
  let last_validation j =
    let v = ref None in
    for k = 0 to j - 1 do
      if validates.(k) && same_copy k j then v := Some k
    done;
    !v
  in
  let stale = Array.make n false in
  for j = 0 to n - 1 do
    if is_read j then
      match last_validation j with
      | None -> validates.(j) <- true
      | Some v when h.(j).time -. h.(v).time >= interval -> validates.(j) <- true
      | Some v ->
        let f = fid h.(j) and c = cid h.(j) in
        let seen = ref (version f v) in
        for p = v + 1 to j - 1 do
          if is_publish p && same_copy p j then seen := version f p
        done;
        stale.(j) <- !seen < version f (j - 1) && last_writer f j <> Some c
  done;
  let count p = List.length (List.filter p (List.init n Fun.id)) in
  let users p =
    List.fold_left
      (fun acc k -> if p k then Ids.User.Set.add h.(k).user acc else acc)
      Ids.User.Set.empty (List.init n Fun.id)
  in
  let opens k = is_open_of_file h.(k) in
  let t_min = Array.fold_left (fun m (r : Record.t) -> Float.min m r.time) infinity h
  and t_max = Array.fold_left (fun m (r : Record.t) -> Float.max m r.time) neg_infinity h in
  let duration_hours = if t_max > t_min then (t_max -. t_min) /. 3600.0 else 0.0 in
  let errors = count (fun k -> stale.(k)) in
  let seen = users (fun _ -> true) and affected = users (fun k -> stale.(k)) in
  {
    interval;
    duration_hours;
    errors;
    errors_per_hour =
      (if duration_hours > 0.0 then float_of_int errors /. duration_hours else 0.0);
    users_seen = Ids.User.Set.cardinal seen;
    users_affected = Ids.User.Set.cardinal affected;
    file_opens = count opens;
    opens_with_error = count (fun k -> opens k && stale.(k));
    migrated_opens = count (fun k -> opens k && h.(k).migrated);
    migrated_opens_with_error = count (fun k -> opens k && h.(k).migrated && stale.(k));
    affected_user_ids = affected;
    seen_user_ids = seen;
  }

(* Table 10, re-derived from the whole history.  A close ends the latest
   still-open regular-file open of its (client, pid, file) handle, if
   any.  An open shares when, with it, the file is open on two or more
   clients and one of the open handles writes.  An open recalls when
   the file's latest write-close, delete or recall before it is a
   write-close by another client. *)
let consistency_reference (rs : Record.t list) : Dfs_analysis.Consistency_stats.t =
  let h = Array.of_list rs in
  let n = Array.length h in
  let key k = (cid h.(k), Ids.Process.to_int h.(k).pid, fid h.(k)) in
  let is_close k = match h.(k).kind with Record.Close _ -> true | _ -> false in
  (* [ended_by.(k)]: the close that ended open [k]; [matched.(m)]: close [m] ended an open *)
  let ended_by = Array.make n None and matched = Array.make n false in
  for m = 0 to n - 1 do
    if is_close m then begin
      let found = ref None in
      for k = 0 to m - 1 do
        if is_open_of_file h.(k) && key k = key m && ended_by.(k) = None then found := Some k
      done;
      match !found with
      | Some k ->
        ended_by.(k) <- Some m;
        matched.(m) <- true
      | None -> ()
    end
  done;
  let open_at j k =
    is_open_of_file h.(k) && k <= j
    && match ended_by.(k) with None -> true | Some m -> m > j
  in
  let sharing = ref 0 and recalls = ref 0 and file_opens = ref 0 in
  let recalled = Array.make n false in
  for j = 0 to n - 1 do
    if is_open_of_file h.(j) then begin
      incr file_opens;
      let f = fid h.(j) in
      let handles = List.filter (fun k -> open_at j k && fid h.(k) = f) (List.init (j + 1) Fun.id) in
      let clients = List.sort_uniq compare (List.map (fun k -> cid h.(k)) handles) in
      if List.length clients >= 2 && List.exists (fun k -> open_writes h.(k)) handles then
        incr sharing;
      let last = ref None in
      for k = 0 to j - 1 do
        if fid h.(k) = f
           && (is_delete h.(k) || recalled.(k) || (matched.(k) && bytes_written h.(k) > 0))
        then last := Some k
      done;
      match !last with
      | Some k when matched.(k) && bytes_written h.(k) > 0 && cid h.(k) <> cid h.(j) ->
        recalled.(j) <- true;
        incr recalls
      | Some _ | None -> ()
    end
  done;
  { file_opens = !file_opens; sharing_opens = !sharing; recall_opens = !recalls }

let strip (r : Polling.report) =
  { r with affected_user_ids = Ids.User.Set.empty; seen_user_ids = Ids.User.Set.empty }

let prop_polling_matches_reference =
  QCheck.Test.make ~name:"polling equals its brute-force reference" ~count:2000 arb_stream
    (fun rs ->
      List.for_all
        (fun interval ->
          let got = Polling.simulate ~interval (batch rs) in
          let want = polling_reference ~interval rs in
          strip got = strip want
          && Ids.User.Set.equal got.affected_user_ids want.affected_user_ids
          && Ids.User.Set.equal got.seen_user_ids want.seen_user_ids)
        [ 3.0; 60.0 ])

let prop_consistency_matches_reference =
  QCheck.Test.make ~name:"consistency actions equal their brute-force reference" ~count:1000
    arb_stream (fun rs ->
      Dfs_analysis.Consistency_stats.analyze (batch rs) = consistency_reference rs)

let suite =
  [
    ("extract stream", `Quick, test_extract_stream);
    ("extract ignores unshared", `Quick, test_extract_ignores_unshared_files);
    ("extract writer flags", `Quick, test_extract_writer_flag_from_open);
    ("sprite = exact demand", `Quick, test_sprite_exact_demand);
    ("modified = sprite while sharing", `Quick, test_modified_same_as_sprite_while_sharing);
    ("modified caches after sharing", `Quick, test_modified_caches_after_sharing_ends);
    ("modified flushes on resharing", `Quick, test_modified_flushes_on_resharing);
    ("token wins on rereads", `Quick, test_token_caching_wins_on_rereads);
    ("token ping-pong costs", `Quick, test_token_pingpong_costs);
    ("token single client cheap", `Quick, test_token_single_client_cheap);
    ("polling stale read detected", `Quick, test_polling_stale_read_detected);
    ("polling refresh prevents error", `Quick, test_polling_refresh_prevents_error);
    ("polling 3s fewer errors", `Quick, test_polling_short_interval_fewer_errors);
    ("polling own writes never stale", `Quick, test_polling_own_writes_never_stale);
    ("polling shared reads checked", `Quick, test_polling_shared_reads_checked);
    ("polling migrated accounting", `Quick, test_polling_migrated_accounting);
    ("polling delete resets", `Quick, test_polling_delete_resets);
    ("blocks_in_range", `Quick, test_blocks_in_range);
    ("is_partial_block", `Quick, test_is_partial_block);
    QCheck_alcotest.to_alcotest prop_polling_matches_reference;
    QCheck_alcotest.to_alcotest prop_consistency_matches_reference;
  ]
