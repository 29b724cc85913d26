module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type event =
  | Open of { client : int; writer : bool }
  | Close of { client : int; writer : bool }
  | Read of { client : int; off : int; len : int }
  | Write of { client : int; off : int; len : int }

type timed = { time : float; ev : event }

type stream = {
  file : Ids.File.t;
  events : timed list;
  requested_bytes : int;
  requests : int;
}

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

type shared_files = { mutable set : Ids.File.Set.t }

let shared_files_create () = { set = Ids.File.Set.empty }

let shared_files_record acc batch i =
  let tag = B.tag batch i in
  if tag = B.tag_shared_read || tag = B.tag_shared_write then
    acc.set <- Ids.File.Set.add (B.file_id batch i) acc.set

(* The close record does not carry the open mode; recover it from the
   handle's matching open, tracked per (client, pid, file). *)
let extract_shared_seq acc batches =
  let shared_files = acc.set in
  let handle_modes : (int * int * int, Record.open_mode list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let per_file : timed list ref Ids.File.Tbl.t = Ids.File.Tbl.create 64 in
  Seq.iter (fun batch ->
  let handle_key i = (B.client batch i, B.pid batch i, B.file batch i) in
  let emit i ev =
    let l =
      match Ids.File.Tbl.find_opt per_file (B.file_id batch i) with
      | Some l -> l
      | None ->
        let l = ref [] in
        Ids.File.Tbl.replace per_file (B.file_id batch i) l;
        l
    in
    l := { time = B.time batch i; ev } :: !l
  in
  for i = 0 to B.length batch - 1 do
    if Ids.File.Set.mem (B.file_id batch i) shared_files then begin
      let client = B.client batch i in
      let tag = B.tag batch i in
      if tag = B.tag_open then begin
        if not (B.is_dir batch i) then begin
          let mode = B.open_mode batch i in
          let modes =
            match Hashtbl.find_opt handle_modes (handle_key i) with
            | Some l -> l
            | None ->
              let l = ref [] in
              Hashtbl.replace handle_modes (handle_key i) l;
              l
          in
          modes := mode :: !modes;
          emit i (Open { client; writer = is_writer mode })
        end
      end
      else if tag = B.tag_close then begin
        match Hashtbl.find_opt handle_modes (handle_key i) with
        | Some ({ contents = mode :: rest } as modes) ->
          modes := rest;
          if rest = [] then Hashtbl.remove handle_modes (handle_key i);
          emit i (Close { client; writer = is_writer mode })
        | Some { contents = [] } | None -> ()
      end
      else if tag = B.tag_shared_read then
        emit i (Read { client; off = B.a batch i; len = B.b batch i })
      else if tag = B.tag_shared_write then
        emit i (Write { client; off = B.a batch i; len = B.b batch i })
    end
  done) batches;
  Ids.File.Tbl.fold
    (fun file events acc ->
      let events = List.rev !events in
      let requested_bytes, requests =
        List.fold_left
          (fun (b, n) { ev; _ } ->
            match ev with
            | Read { len; _ } | Write { len; _ } -> (b + len, n + 1)
            | Open _ | Close _ -> (b, n))
          (0, 0) events
      in
      { file; events; requested_bytes; requests } :: acc)
    per_file []
  |> List.sort (fun a b -> Ids.File.compare a.file b.file)

(* one pass collects the write-shared files, a second extracts their
   events *)
let extract_seq batches =
  let acc = shared_files_create () in
  Seq.iter
    (fun batch ->
      for i = 0 to B.length batch - 1 do
        shared_files_record acc batch i
      done)
    batches;
  extract_shared_seq acc batches

let extract batch = extract_seq (Seq.return batch)

let total_requested streams =
  List.fold_left (fun acc s -> acc + s.requested_bytes) 0 streams

let total_requests streams =
  List.fold_left (fun acc s -> acc + s.requests) 0 streams
