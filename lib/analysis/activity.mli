(** Table 2: user activity and burst rates.

    The trace is divided into fixed intervals (the paper uses 10 minutes
    for steady state and 10 seconds for bursts); a user is active in an
    interval if any trace record of theirs falls inside it, and a run's
    bytes count toward the interval in which the run ended (the moment
    the transfer is known from the position-logging events). *)

type report = {
  interval : float;  (** seconds *)
  avg_active_users : float;
  sd_active_users : float;
  max_active_users : int;
  avg_user_throughput : float;  (** KB/s per active user *)
  sd_user_throughput : float;
  peak_user_throughput : float;  (** KB/s *)
  peak_total_throughput : float;  (** KB/s *)
}

val analyze :
  ?migrated_only:bool ->
  interval:float ->
  Dfs_trace.Record_batch.t ->
  report
(** With [migrated_only] (Table 2's second column), a user is active only
    when a migrated process acted for them, and only migrated processes'
    bytes count. *)

val analyze_seq :
  ?migrated_only:bool ->
  interval:float ->
  Dfs_trace.Record_batch.t Seq.t ->
  report
(** {!analyze} over a chunked trace, in one pass. *)

(** {1 Accumulator}

    The incremental form behind {!analyze}, for callers that feed one
    {!Session.scan_seq} into several analyses: pass every record to
    {!record} and every run boundary to {!boundary}, in trace order,
    then read the report with {!finish}. *)

type acc

val create : ?migrated_only:bool -> interval:float -> unit -> acc

val record : acc -> Dfs_trace.Record_batch.t -> int -> unit

val boundary :
  acc ->
  user:Dfs_trace.Ids.User.t ->
  migrated:bool ->
  is_dir:bool ->
  float ->
  int ->
  unit
(** Has the type of {!Session.scan_seq}'s [on_boundary]. *)

val finish : acc -> report

val pp : Format.formatter -> report -> unit
