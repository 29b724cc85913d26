(** Extraction of the event streams the consistency simulations consume.

    The paper logged, for every file undergoing concurrent write-sharing,
    each read or write request's position, size and time (easy in Sprite:
    uncacheable requests all pass through the server), and used those
    events to drive the simulations of Section 5.6.  This module pulls the
    same per-file streams out of a trace: the opens and closes of each
    write-shared file plus its shared read/write requests. *)

type event =
  | Open of { client : int; writer : bool }
  | Close of { client : int; writer : bool }
  | Read of { client : int; off : int; len : int }
  | Write of { client : int; off : int; len : int }

type timed = { time : float; ev : event }

type stream = {
  file : Dfs_trace.Ids.File.t;
  events : timed list;  (** chronological *)
  requested_bytes : int;  (** total bytes of Read/Write events *)
  requests : int;  (** number of Read/Write events *)
}

val extract : Dfs_trace.Record_batch.t -> stream list
(** One stream per file that experienced write-sharing (i.e. has at least
    one shared read/write record). *)

val extract_seq : Dfs_trace.Record_batch.t Seq.t -> stream list
(** {!extract} over a chunked trace.  The sequence must be replayable
    (e.g. {!Dfs_trace.Sink.to_seq}): extraction traverses it twice. *)

(** {1 Accumulator}

    {!extract_seq} split at its two passes, for callers that already
    sweep the trace: pass every record to {!shared_files_record} in
    trace order, then extract with {!extract_shared_seq}. *)

type shared_files
(** The set of files with at least one shared read/write record. *)

val shared_files_create : unit -> shared_files

val shared_files_record :
  shared_files -> Dfs_trace.Record_batch.t -> int -> unit

val extract_shared_seq :
  shared_files -> Dfs_trace.Record_batch.t Seq.t -> stream list
(** The second pass: the streams of the files collected so far. *)

val total_requested : stream list -> int

val total_requests : stream list -> int
