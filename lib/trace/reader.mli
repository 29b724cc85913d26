(** Trace parsing.

    Every entry point sniffs the header and dispatches to the text codec
    ({!Codec}) or the columnar segment layout ({!Segment}), so callers
    never name the format on the read side.  Anything else — including
    the retired varint binary format and version-1 segments — is
    rejected with a one-line "not a trace" diagnostic.  Readers check
    the version header and report the first malformed line (text) or
    byte offset (columnar).  Columnar files are served straight off
    [mmap]'d columns when {!Segment.mmap_enabled}; text files are parsed
    line by line from the channel into the batch.

    Both entry points take an [?on_corruption] policy (default
    {!Corruption.Fail}).  Under [Salvage], damage keeps the longest
    valid prefix — whole segments (columnar) or whole lines (text) —
    and records the incident via {!Corruption.note} instead of failing.
    [?source] labels the diagnostics for in-memory parses; the file
    entry point uses the path. *)

val batch_of_string :
  ?on_corruption:Corruption.policy ->
  ?source:string ->
  string ->
  (Record_batch.t, string) result
(** Parse a whole trace held in memory into a struct-of-arrays batch. *)

val batch_of_file :
  ?on_corruption:Corruption.policy ->
  string ->
  (Record_batch.t, string) result
(** @raise Sys_error when the file cannot be opened. *)
