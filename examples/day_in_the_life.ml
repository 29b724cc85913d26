(* A day in the life of the cluster: simulate a full diurnal cycle on a
   small cluster and print the hour-by-hour profile — active users, file
   throughput, and paging — the rhythm behind Table 2's averages and
   Section 5.3's "paging happens at major changes of activity".

   Run with:  dune exec examples/day_in_the_life.exe *)

module Cluster = Dfs_sim.Cluster
module B = Dfs_trace.Record_batch

let () =
  (* a small cluster keeps the full 24 hours quick *)
  let base = Dfs_workload.Presets.trace 1 in
  let preset =
    {
      base with
      Dfs_workload.Presets.cluster_config =
        { base.cluster_config with Cluster.n_clients = 8; n_servers = 1 };
      params =
        {
          base.params with
          Dfs_workload.Params.n_regular_users = 8;
          n_occasional_users = 8;
        };
    }
  in
  Printf.printf "simulating 24 hours on %d clients (%d users)...\n%!"
    preset.cluster_config.n_clients
    (preset.params.n_regular_users + preset.params.n_occasional_users);
  let cluster, _ = Dfs_workload.Presets.run preset in
  let trace = Dfs_trace.Sink.to_batch (Cluster.merged_chunks cluster) in

  (* bucket records per hour *)
  let users = Array.init 24 (fun _ -> Hashtbl.create 8) in
  let bytes = Array.make 24 0 in
  let hour t = min 23 (int_of_float (t /. 3600.0)) in
  for i = 0 to B.length trace - 1 do
    let h = hour (B.time trace i) in
    Hashtbl.replace users.(h) (B.user trace i) ();
    (* a close carries the session's byte totals in payload c and d *)
    if B.tag trace i = B.tag_close then
      bytes.(h) <- bytes.(h) + B.c trace i + B.d trace i
  done;
  let peak = Array.fold_left max 1 bytes in
  Printf.printf "\n hour  users  MB moved  activity\n";
  Array.iteri
    (fun h u ->
      let mb = float_of_int bytes.(h) /. 1048576.0 in
      let bar_len = 40 * bytes.(h) / peak in
      Printf.printf " %02d:00  %4d  %8.1f  %s\n" h (Hashtbl.length u) mb
        (String.make bar_len '#'))
    users;

  (* the morning paging burst: swapped-out login sessions page back in *)
  let paging =
    Dfs_analysis.Paging_stats.analyze
      ~n_clients:preset.cluster_config.n_clients ~duration:86400.0
      ~raw:(Cluster.total_traffic cluster) ()
  in
  Format.printf "\n%a\n" Dfs_analysis.Paging_stats.pp paging;
  Printf.printf
    "\nQuiet nights, a ramp at 09:00, a lunch dip, an evening tail — the \
     reason Table 2's 24-hour averages sit far below the daytime peaks.\n"
