module Record = Dfs_trace.Record
module Ids = Dfs_trace.Ids
module B = Dfs_trace.Record_batch

type report = {
  interval : float;
  avg_active_users : float;
  sd_active_users : float;
  max_active_users : int;
  avg_user_throughput : float;
  sd_user_throughput : float;
  peak_user_throughput : float;
  peak_total_throughput : float;
}

type span = { mutable t0 : float; mutable t_end : float }

type acc = {
  migrated_only : bool;
  interval : float;
  span : span;  (** all-float record: updates do not allocate *)
  bytes_tbl : (int * int, int ref) Hashtbl.t;  (** (bucket, user) -> bytes *)
  active_tbl : (int, Ids.User.Set.t ref) Hashtbl.t;
      (** bucket -> active user set *)
}

let create ?(migrated_only = false) ~interval () =
  {
    migrated_only;
    interval;
    span = { t0 = nan; t_end = neg_infinity };
    bytes_tbl = Hashtbl.create 4096;
    active_tbl = Hashtbl.create 1024;
  }

(* [t0] is the first record's time.  The last bucket needs [t_end], but
   no bucket index does: float subtraction and division are monotone, so
   [time <= t_end] gives [bucket time <= bucket t_end = n_buckets - 1]
   and a clamp to the last bucket would never bind. *)
let bucket acc time = int_of_float ((time -. acc.span.t0) /. acc.interval)

let relevant acc migrated = (not acc.migrated_only) || migrated

(* [Hashtbl.find] rather than [find_opt]: a hit, the common case,
   allocates no option *)
let add_bytes acc b user n =
  let key = (b, Ids.User.to_int user) in
  match Hashtbl.find acc.bytes_tbl key with
  | r -> r := !r + n
  | exception Not_found -> Hashtbl.replace acc.bytes_tbl key (ref n)

let record acc batch i =
  (* the first read is bounds-checked and validates [i] *)
  let time = B.time batch i in
  let span = acc.span in
  if Float.is_nan span.t0 then span.t0 <- time;
  span.t_end <- Float.max span.t_end time;
  if relevant acc (B.Unsafe.migrated batch i) then begin
    let user = B.Unsafe.user_id batch i and b = bucket acc time in
    (match Hashtbl.find acc.active_tbl b with
    | s -> s := Ids.User.Set.add user !s
    | exception Not_found ->
      Hashtbl.replace acc.active_tbl b (ref (Ids.User.Set.singleton user)));
    (* shared (pass-through) transfers carry their size directly: the
       length for shared reads/writes (payload column b), the byte count
       for directory reads (column a) *)
    let tag = B.Unsafe.tag batch i in
    if tag = B.tag_shared_read || tag = B.tag_shared_write then
      add_bytes acc b user (B.Unsafe.b batch i)
    else if tag = B.tag_dir_read then add_bytes acc b user (B.Unsafe.a batch i)
  end

let boundary acc ~user ~migrated ~is_dir time run =
  if relevant acc migrated && not is_dir then
    add_bytes acc (bucket acc time) user run

let finish acc =
  let interval = acc.interval in
  if Float.is_nan acc.span.t0 then
    {
      interval;
      avg_active_users = 0.0;
      sd_active_users = 0.0;
      max_active_users = 0;
      avg_user_throughput = 0.0;
      sd_user_throughput = 0.0;
      peak_user_throughput = 0.0;
      peak_total_throughput = 0.0;
    }
  else begin
    let t0 = acc.span.t0 in
    let t_end = Float.max acc.span.t_end t0 in
    let n_buckets =
      max 1 (1 + int_of_float ((t_end -. t0) /. interval))
    in
    let bytes_tbl = acc.bytes_tbl and active_tbl = acc.active_tbl in
    (* active-user statistics over every interval, empty ones included *)
    let users_stats = Dfs_util.Stats.create () in
    let max_active = ref 0 in
    for b = 0 to n_buckets - 1 do
      let n =
        match Hashtbl.find_opt active_tbl b with
        | Some s -> Ids.User.Set.cardinal !s
        | None -> 0
      in
      if n > !max_active then max_active := n;
      Dfs_util.Stats.add users_stats (float_of_int n)
    done;
    (* throughput per active user-interval *)
    let tput_stats = Dfs_util.Stats.create () in
    let peak_user = ref 0.0 in
    Hashtbl.iter
      (fun b s ->
        Ids.User.Set.iter
          (fun user ->
            let bytes =
              match Hashtbl.find_opt bytes_tbl (b, Ids.User.to_int user) with
              | Some r -> !r
              | None -> 0
            in
            let kbs = float_of_int bytes /. 1024.0 /. interval in
            if kbs > !peak_user then peak_user := kbs;
            Dfs_util.Stats.add tput_stats kbs)
          !s)
      active_tbl;
    (* peak total throughput over intervals *)
    let totals : (int, int ref) Hashtbl.t = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun (b, _) r ->
        match Hashtbl.find_opt totals b with
        | Some acc -> acc := !acc + !r
        | None -> Hashtbl.replace totals b (ref !r))
      bytes_tbl;
    let peak_total =
      Hashtbl.fold
        (fun _ r acc -> Float.max acc (float_of_int !r /. 1024.0 /. interval))
        totals 0.0
    in
    {
      interval;
      avg_active_users = Dfs_util.Stats.mean users_stats;
      sd_active_users = Dfs_util.Stats.stddev users_stats;
      max_active_users = !max_active;
      avg_user_throughput = Dfs_util.Stats.mean tput_stats;
      sd_user_throughput = Dfs_util.Stats.stddev tput_stats;
      peak_user_throughput = !peak_user;
      peak_total_throughput = peak_total;
    }
  end

(* A replayable sequence is swept once: the run boundaries come from the
   same session scan as the records. *)
let analyze_seq ?migrated_only ~interval batches =
  let acc = create ?migrated_only ~interval () in
  Session.scan_seq batches ~on_record:(record acc) ~on_boundary:(boundary acc);
  finish acc

let analyze ?migrated_only ~interval batch =
  analyze_seq ?migrated_only ~interval (Seq.return batch)

let pp ppf (r : report) =
  Format.fprintf ppf
    "@[<v>interval %.0fs: active users avg %.1f (sd %.1f) max %d;@ \
     throughput/user avg %.2f KB/s (sd %.2f) peak %.0f KB/s; peak total \
     %.0f KB/s@]"
    r.interval r.avg_active_users r.sd_active_users r.max_active_users
    r.avg_user_throughput r.sd_user_throughput r.peak_user_throughput
    r.peak_total_throughput
