module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type t = { file_opens : int; sharing_opens : int; recall_opens : int }

type opener = { client : int; mutable count : int; mutable writers : int }

type acc = {
  mutable file_opens : int;
  mutable sharing : int;
  mutable recalls : int;
  open_tbl : opener list ref Ids.File.Tbl.t;
  last_writer : int Ids.File.Tbl.t;
  handle_modes : (int * int * int, Record.open_mode list ref) Hashtbl.t;
      (** mode at close is carried by the matching open; track per handle *)
}

let create () =
  {
    file_opens = 0;
    sharing = 0;
    recalls = 0;
    open_tbl = Ids.File.Tbl.create 1024;
    last_writer = Ids.File.Tbl.create 256;
    handle_modes = Hashtbl.create 1024;
  }

let is_writer = function
  | Record.Write_only | Record.Read_write -> true
  | Record.Read_only -> false

(* only applied to an index {!record} has validated *)
let handle_key batch i =
  (B.Unsafe.client batch i, B.Unsafe.pid batch i, B.Unsafe.file batch i)

let rec find_opener cl = function
  | [] -> None
  | o :: rest -> if o.client = cl then Some o else find_opener cl rest

let rec without_opener cl = function
  | [] -> []
  | o :: rest ->
    if o.client = cl then without_opener cl rest else o :: without_opener cl rest

let record acc batch i =
  (* the first read is bounds-checked and validates [i] *)
  let tag = B.tag batch i in
  if tag = B.tag_open then begin
    if not (B.Unsafe.is_dir batch i) then begin
      let mode = B.Unsafe.open_mode batch i in
      let file = B.Unsafe.file_id batch i in
      acc.file_opens <- acc.file_opens + 1;
      let cl = B.Unsafe.client batch i in
      (match Ids.File.Tbl.find_opt acc.last_writer file with
      | Some w when w <> cl ->
        acc.recalls <- acc.recalls + 1;
        Ids.File.Tbl.remove acc.last_writer file
      | Some _ | None -> ());
      let openers =
        match Ids.File.Tbl.find_opt acc.open_tbl file with
        | Some l -> l
        | None ->
          let l = ref [] in
          Ids.File.Tbl.replace acc.open_tbl file l;
          l
      in
      (match find_opener cl !openers with
      | Some o ->
        o.count <- o.count + 1;
        if is_writer mode then o.writers <- o.writers + 1
      | None ->
        openers :=
          { client = cl; count = 1; writers = (if is_writer mode then 1 else 0) }
          :: !openers);
      if
        List.length !openers >= 2
        && List.exists (fun o -> o.writers > 0) !openers
      then acc.sharing <- acc.sharing + 1;
      let key = handle_key batch i in
      let modes =
        match Hashtbl.find_opt acc.handle_modes key with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace acc.handle_modes key l;
          l
      in
      modes := mode :: !modes
    end
  end
  else if tag = B.tag_close then begin
    let key = handle_key batch i in
    match Hashtbl.find_opt acc.handle_modes key with
    | None -> ()
    | Some modes -> (
      match !modes with
      | [] -> ()
      | mode :: rest ->
        modes := rest;
        if rest = [] then Hashtbl.remove acc.handle_modes key;
        let cl = B.Unsafe.client batch i in
        let file = B.Unsafe.file_id batch i in
        (match Ids.File.Tbl.find_opt acc.open_tbl file with
        | Some openers -> (
          match find_opener cl !openers with
          | Some o ->
            o.count <- o.count - 1;
            if is_writer mode then o.writers <- max 0 (o.writers - 1);
            if o.count <= 0 then begin
              openers := without_opener cl !openers;
              if !openers = [] then Ids.File.Tbl.remove acc.open_tbl file
            end
          | None -> ())
        | None -> ());
        if B.Unsafe.d batch i > 0 then
          Ids.File.Tbl.replace acc.last_writer file cl)
  end
  else if tag = B.tag_delete then
    Ids.File.Tbl.remove acc.last_writer (B.Unsafe.file_id batch i)

let finish (acc : acc) : t =
  {
    file_opens = acc.file_opens;
    sharing_opens = acc.sharing;
    recall_opens = acc.recalls;
  }

let analyze_seq batches =
  let acc = create () in
  Seq.iter
    (fun batch ->
      for i = 0 to B.length batch - 1 do
        record acc batch i
      done)
    batches;
  finish acc

let analyze batch = analyze_seq (Seq.return batch)

let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b

let sharing_pct (t : t) = pct t.sharing_opens t.file_opens

let recall_pct (t : t) = pct t.recall_opens t.file_opens
