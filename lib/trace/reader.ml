let default_source = "<trace>"

(* Under [Salvage], a parse failure keeps the records decoded ahead of
   the damage and records the incident; under [Fail] it surfaces as the
   reader's [Error].  [count] is how many records the prefix holds. *)
let finish_policy ~on_corruption ~source ~count ~ok = function
  | None -> Ok ok
  | Some reason -> (
    match (on_corruption : Corruption.policy) with
    | Corruption.Fail -> Error reason
    | Corruption.Salvage ->
      Corruption.note ~source ~salvaged:count reason;
      Ok ok)

(* The first line of a file that is not a text trace may be a whole
   binary blob; the diagnostic quotes only its start. *)
let bad_header first =
  if String.length first <= 32 then Printf.sprintf "not a trace: bad header %S" first
  else Printf.sprintf "not a trace: bad header %S..." (String.sub first 0 32)

(* [lines] is a Seq of raw lines including the header; every record is
   appended to one batch as it is decoded. *)
let parse_lines ?(on_corruption = Corruption.Fail) ?(source = default_source)
    lines =
  let builder = Record_batch.Builder.create () in
  let err =
    match lines () with
    | Seq.Nil -> Some "empty trace"
    | Seq.Cons (first, rest) ->
      if not (String.equal first Codec.header) then Some (bad_header first)
      else begin
        let line_no = ref 1 and err = ref None in
        (try
           Seq.iter
             (fun line ->
               incr line_no;
               if not (String.equal line "") then
                 match Codec.decode line with
                 | Ok r -> Record_batch.Builder.add builder r
                 | Error e ->
                   err := Some (Printf.sprintf "line %d: %s" !line_no e);
                   raise Exit)
             rest
         with Exit -> ());
        !err
      end
  in
  let batch = Record_batch.Builder.finish builder in
  finish_policy ~on_corruption ~source ~count:(Record_batch.length batch)
    ~ok:batch err

let batch_of_string ?on_corruption ?source s =
  if Segment.is_segment s then Segment.batch_of_string ?on_corruption s
  else
    parse_lines ?on_corruption ?source
      (List.to_seq (String.split_on_char '\n' s))

let lines_of_channel ic =
  let rec next () =
    match input_line ic with
    | line -> Seq.Cons (line, next)
    | exception End_of_file -> Seq.Nil
  in
  next

(* Peek at the first magic-sized chunk without consuming it. *)
let is_columnar ic =
  let n = String.length Segment.magic in
  let buf = Bytes.create n in
  let got = input ic buf 0 n in
  seek_in ic 0;
  Segment.is_segment (Bytes.sub_string buf 0 got)

let batch_of_file ?on_corruption path =
  let ic = open_in_bin path in
  (* [close_in_noerr]: a raising close inside [~finally] would mask the
     real failure (and [Fun.protect] would turn it into [Finally_raised]);
     the descriptor is released either way. *)
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      if is_columnar ic then
        (* [Segment.batch_of_file] can serve the columns zero-copy. *)
        Segment.batch_of_file ?on_corruption path
      else parse_lines ?on_corruption ~source:path (lines_of_channel ic))
