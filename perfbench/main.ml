(* perfbench: times the product paths of the reproduction.

     main.exe --workload reproduce|scale|replay --seed N --seconds S
              --trace 0|1 [--size full|tiny] [--references FILE] [--verbose]

   One process runs one workload as a closed loop: a warm-up pass, then
   timed passes, each checked against the reference digests.  On the
   shipped seeds the warm-up of [reproduce] goes through
   [Dataset.generate] itself, so its digest also checks the benchmark's
   seeded copy of generate's wiring that the timed passes use.  Every
   timed pass gets its own input derived from [--seed], so one run
   measures several inputs; the number of timed passes is [--seconds]
   over the workload's nominal pass time, so it never depends on how
   fast the build under test is.  Set-up is timed in fresh processes.
   [--trace 1] adds one traced pass and the per-layer drives.

   The last line of standard output is a JSON object:
   {correct, attempted, failed, metrics}.  Exit code 1 when any pass
   failed its output check, 2 on a usage or environment error. *)

module W = Workloads
module J = Dfs_obs.Json

let now = Unix.gettimeofday

(* -- command line -------------------------------------------------------------- *)

let workload = ref ""
let seed = ref Inputs.default_seed
let seconds = ref 10.0
let trace = ref 0
let size_arg = ref "full"
let out_dir = ".bench_build/perfbench"
let references = ref "perfbench/references.json"
let setup_only = ref ""
let input = ref 0
let verbose = ref false

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME reproduce, scale or replay");
      ("--seed", Arg.Set_int seed, "N workload seed (0 = the shipped seeds)");
      ("--seconds", Arg.Set_float seconds, "S measuring time on a reference-speed host");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--size", Arg.Set_string size_arg, "full|tiny input size (tiny for self-tests)");
      ("--references", Arg.Set_string references, "FILE reference digests");
      ("--setup-only", Arg.Set_string setup_only, "TAG set up from TAG's inputs and exit");
      ("--input", Arg.Set_int input, "K with --setup-only: which input");
      ("--verbose", Arg.Set verbose, " print every pass");
    ]
    (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "reproduce"; "scale"; "replay" ]) then
    die "--workload must be reproduce, scale or replay";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0.0 then die "--seconds must be positive";
  match !size_arg with
  | "full" -> Inputs.Full
  | "tiny" -> Inputs.Tiny
  | s -> die "--size must be full or tiny, not %s" s

(* -- pinned environment ------------------------------------------------------- *)

(* The library reads these; anything else named DFS_* would change what
   is measured, so the benchmark refuses to run under it. *)
let pinned = [ "DFS_JOBS=2"; "DFS_LOG=quiet"; "DFS_SIM_SHARDS=2" ]

let check_env () =
  let dfs =
    List.sort compare
      (List.filter
         (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "DFS_")
         (Array.to_list (Unix.environment ())))
  in
  if dfs <> pinned then
    die "environment must pin exactly %s (found %s)" (String.concat " " pinned)
      (if dfs = [] then "none" else String.concat " " dfs)

(* -- statistics ------------------------------------------------------------------ *)

(* Python's statistics.quantiles(xs, n=4), the "exclusive" method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = i * m / 4 and delta = (i * m) mod 4 in
      let j = max 1 (min (n - 1) j) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* -- references -------------------------------------------------------------------- *)

type reference = { digest : string; claims : int option }

(* References are keyed by input seed: size -> workload -> seed. *)
let load_references () =
  match In_channel.with_open_bin !references In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | text -> ( match J.parse text with Ok j -> j | Error e -> die "%s: %s" !references e)

let reference refs ~workload ~input_seed =
  let ( >>= ) o k = Option.bind o (J.member k) in
  Option.map
    (fun r ->
      {
        digest = Option.value ~default:"" (Option.bind (J.member "digest" r) J.to_string_opt);
        claims = (match J.member "claims_reproduced" r with Some (J.Int n) -> Some n | _ -> None);
      })
    (Some refs >>= !size_arg >>= workload >>= string_of_int input_seed)

let check ~reference ~same_input (p : W.pass) =
  let hex = Printf.sprintf "%08x" p.digest in
  p.problems
  @ (match reference with
    | Some r when r.digest <> hex -> [ Printf.sprintf "digest %s, reference %s" hex r.digest ]
    | Some { claims = Some c; _ } when p.claims_reproduced <> Some c ->
      [ Printf.sprintf "%d claims reproduced, reference %d"
          (Option.value ~default:(-1) p.claims_reproduced) c ]
    | _ -> [])
  @
  match same_input with
  | Some d when d <> p.digest ->
    [ Printf.sprintf "digest %s differs from %08x of the same input's earlier pass" hex d ]
  | _ -> []

(* -- inputs and set-up ------------------------------------------------------------- *)

(* Nominal reference seconds of one pass, with its checks, the heap
   collection and the reference-kernel runs around it.  A run makes
   [--seconds] / nominal timed passes, at least 2 and at most 12. *)
let nominal_pass_s size workload =
  match (size, workload) with
  | Inputs.Tiny, _ -> 0.25
  | Full, "reproduce" -> 2.0
  | Full, "scale" -> 2.5
  | Full, _ -> 1.5

let timed_passes size workload =
  max 2 (min 12 (int_of_float (Float.round (!seconds /. nominal_pass_s size workload))))

(* The reference kernel of each workload: on as many domains as its
   simulation keeps busy (replay's is single-partition), meeting at
   barriers as often as scale's worker team does per unit of work. *)
let kernel_shape = function
  | "replay" -> { Refclock.domains = 1; rounds = 1 }
  | "scale" -> { domains = W.jobs; rounds = 500 }
  | _ -> { domains = W.jobs; rounds = 1 }

(* Input files of one run, named after the measuring process. *)
type paths = { csv : string; columnar : string; donor : string }

let paths ~tag k =
  let f name = Filename.concat (Filename.concat out_dir "inputs") name in
  {
    csv = f (Printf.sprintf "%s-%d.csv" tag k);
    columnar = f (Printf.sprintf "%s-%d.seg" tag k);
    donor = f (tag ^ ".donor");
  }

(* The benchmark's own input making, not timed; returns one line on
   the input. *)
let make_input size ~workload ~input_seed p =
  match workload with
  | "reproduce" ->
    if not (Sys.file_exists p.donor) then W.write_memo_donor p.donor;
    Printf.sprintf "8 presets at scale %g, seeds %s" (Inputs.reproduce_scale size)
      (String.concat ","
         (List.map
            (fun (p : Dfs_workload.Presets.preset) -> string_of_int p.seed)
            (Inputs.presets size input_seed)))
  | "scale" ->
    let cfg = Inputs.scale_config size input_seed in
    Printf.sprintf "%d clients, %d servers, %d partitions, %g days, config seed %d"
      cfg.n_clients cfg.n_servers
      (Dfs_workload.Sharded.auto_partitions ~n_clients:cfg.n_clients ~n_servers:cfg.n_servers)
      (cfg.duration /. 86400.0) cfg.seed
  | _ ->
    let shape = Inputs.csv_shape size in
    let rows = Inputs.csv_rows shape input_seed in
    Inputs.write_csv p.csv rows;
    Inputs.describe_csv shape rows

(* A pass as [unit -> W.stage -> ...]: applying it to () does the
   untimed work a pass needs first (fresh analysis memos), and the
   function it returns is the pass. *)
type pass = unit -> W.stage -> W.pass * Dfs_trace.Sink.chunks

type prepared = {
  rows : int;  (** CSV rows imported at set-up (replay only) *)
  setup : W.stage -> unit;  (** the set-up once more, for the traced run *)
  run : pass;
  warm_up : pass;  (** [run], or on the shipped seeds [Dataset.generate] *)
}

(* The program's set-up: what it builds from its input before a pass
   (pool and presets; the scale config; the CSV import and its columnar
   write). *)
let setup size ~workload ~input_seed p =
  match workload with
  | "reproduce" ->
    let rs = W.reproduce_setup size input_seed ~memo_donor:p.donor in
    let seeded () =
      let donors = W.memo_donors rs in
      fun st -> W.reproduce_pass st rs (Seeded donors)
    in
    {
      rows = 0;
      setup = ignore;
      run = seeded;
      warm_up =
        (if input_seed = Inputs.default_seed then fun () st -> W.reproduce_pass st rs Generate
         else seeded);
    }
  | "scale" ->
    let cfg = Inputs.scale_config size input_seed in
    let run () st = W.scale_pass st cfg in
    { rows = 0; setup = ignore; run; warm_up = run }
  | _ ->
    let input = W.replay_setup W.untraced ~csv:p.csv ~columnar:p.columnar in
    let run () st = W.replay_pass st input in
    {
      rows = input.rows;
      setup = (fun st -> ignore (W.replay_setup st ~csv:p.csv ~columnar:p.columnar));
      run;
      warm_up = run;
    }

(* Set-up as a user pays it: a fresh process, from its start until a
   pass could begin, [setup_reps] times, cycling through the inputs.
   A fresh process takes a few milliseconds and varies by tens of
   percent between starts, so the median needs this many.
   Returns the median in host and in reference seconds; the factor comes
   from the median of the single-domain kernel runs between the
   children, as each child is one short single-threaded process. *)
let setup_reps = 11

let time_setup ~tag ~inputs =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let child k =
    let argv =
      [| Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int !seed;
         "--size"; !size_arg; "--setup-only"; tag; "--input";
         string_of_int k |]
    in
    let t0 = now () in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin devnull Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> die "set-up process failed"
  in
  let single = { Refclock.domains = 1; rounds = 1 } in
  let kernel = ref [ Refclock.sample single ] in
  let host =
    median
      (List.init setup_reps (fun i ->
           let t = child (i mod inputs) in
           kernel := Refclock.sample single :: !kernel;
           t))
  in
  Unix.close devnull;
  let k = median !kernel in
  (host, host *. Refclock.factor ~before:k ~after:k)

(* -- passes ------------------------------------------------------------------------ *)

(* The figures of a pass that passed its checks, with the
   host-to-reference factor measured around it.  The pass's trace is
   not kept. *)
type timed = { pass : W.pass; factor : float }
type outcome = Passed of timed | Failed of string

(* Runs a pass on each (input, which pass) of [schedule] in order.
   Input [k] is set up when first needed, outside the timed pass.  Each
   pass is bracketed by reference-kernel runs. *)
let run_passes ~refs ~input_seeds ~prepare schedule =
  let digests = Hashtbl.create 16 in
  let shape = kernel_shape !workload in
  let before = ref (Refclock.sample shape) in
  List.mapi
    (fun n (k, which) ->
      let input_seed = input_seeds.(k) in
      let result =
        match which (prepare k) () with
        | exception e -> Error (Printexc.to_string e)
        | pass -> ( try Ok (fst (pass W.untraced)) with e -> Error (Printexc.to_string e))
      in
      let after = Refclock.sample shape in
      let factor = Refclock.factor ~before:!before ~after in
      before := after;
      let outcome =
        match result with
        | Error e -> Failed e
        | Ok p -> (
          let reference = reference refs ~workload:!workload ~input_seed in
          match check ~reference ~same_input:(Hashtbl.find_opt digests k) p with
          | [] ->
            Hashtbl.replace digests k p.W.digest;
            if !verbose then
              Printf.printf
                "  pass %d (input %d): wall %.4f s = %.4f ref s, sim %.4f s, %d events, %d \
                 records, %.3f Mwords, digest %08x, claims %s, %s\n%!"
                (n + 1) input_seed p.wall_s (p.wall_s *. factor) p.sim_s p.events p.records
                (p.minor_words /. 1e6) p.digest
                (match p.claims_reproduced with Some c -> string_of_int c | None -> "-")
                (if reference = None then "no reference" else "reference matched");
            Passed { pass = p; factor }
          | problems -> Failed (String.concat "; " problems))
      in
      (match outcome with
      | Failed why -> Printf.printf "pass %d (input %d) FAILED: %s\n%!" (n + 1) input_seed why
      | Passed _ -> ());
      outcome)
    schedule

(* -- main ---------------------------------------------------------------------------- *)

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let print_row name unit values ~better =
  let q1, med, q3 = quartiles values in
  let lo = List.fold_left Float.min infinity values
  and hi = List.fold_left Float.max neg_infinity values in
  Printf.printf "  %-20s %-7s %12.6g %12.6g %12.6g %12.6g %12.6g %4d  %s\n" name unit med q1 q3 lo hi
    (List.length values) better

let () =
  let size = parse_args () in
  check_env ();
  let workload = !workload and seed = !seed in
  if !setup_only <> "" then begin
    let input_seed = Inputs.input_seed seed !input in
    ignore (setup size ~workload ~input_seed (paths ~tag:!setup_only !input));
    exit 0
  end;
  mkdir_p (Filename.concat out_dir "inputs");
  let refs = load_references () in
  let n =
    if !trace = 1 then max 2 (timed_passes size workload / 2) else timed_passes size workload
  in
  let input_seeds = Array.init n (Inputs.input_seed seed) in
  Printf.printf "perfbench %s: seed %d, size %s, %d timed passes, %d domains, trace %d\n" workload
    seed !size_arg n W.jobs !trace;
  Printf.printf "  env: %s\n%!" (String.concat " " pinned);
  let tag = Printf.sprintf "%s-%d" workload (Unix.getpid ()) in
  let p k = paths ~tag k in
  Array.iteri
    (fun k input_seed ->
      Printf.printf "  input %d (seed %d): %s\n%!" k input_seed
        (make_input size ~workload ~input_seed (p k)))
    input_seeds;
  let setup_host, setup_s = time_setup ~tag ~inputs:n in
  let prepared = Hashtbl.create 16 in
  let prepare k =
    match Hashtbl.find_opt prepared k with
    | Some r -> r
    | None ->
      let r = setup size ~workload ~input_seed:input_seeds.(k) (p k) in
      Hashtbl.replace prepared k r;
      r
  in
  (* a warm-up pass on input 0, then one timed pass per input *)
  let outcomes =
    run_passes ~refs ~input_seeds ~prepare
      ((0, fun p -> p.warm_up) :: List.init n (fun k -> (k, fun p -> p.run)))
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let passes =
    List.filter_map (function Passed t -> Some t | Failed _ -> None) (List.tl outcomes)
  in
  let attempted = List.length outcomes in
  let failed = List.length (List.filter (function Failed _ -> true | Passed _ -> false) outcomes) in
  let per f = List.map f passes in
  let raw_wall = per (fun t -> t.pass.wall_s) in
  let wall = per (fun t -> t.pass.wall_s *. t.factor) in
  let speedup = per (fun t -> t.pass.simulated_s /. (t.pass.sim_s *. t.factor)) in
  let alloc = per (fun t -> t.pass.minor_words /. 1e6) in
  let analysis =
    List.filter_map (fun t -> Option.map (fun a -> a *. t.factor) t.pass.analysis_s) passes
  in
  let with_reference =
    Array.fold_left
      (fun acc input_seed ->
        if reference refs ~workload ~input_seed = None then acc else acc + 1)
      0 input_seeds
  in
  Printf.printf "  passes: %d attempted, %d failed; %d of %d inputs have a reference digest\n"
    attempted failed with_reference n;
  Printf.printf "  times in reference seconds (see refclock.ml); raw_* rows are host seconds\n";
  Printf.printf "  %-20s %-7s %12s %12s %12s %12s %12s %4s  %s\n" "metric" "unit" "median" "q1" "q3"
    "min" "max" "n" "better";
  print_row "wall_s" "s" wall ~better:"lower";
  print_row "raw_wall_s" "s" raw_wall ~better:"lower";
  print_row "setup_s" "s" [ setup_s ] ~better:"lower";
  print_row "raw_setup_s" "s" [ setup_host ] ~better:"lower";
  print_row "sim_speedup" "x" speedup ~better:"higher";
  if analysis <> [] then print_row "analysis_s" "s" analysis ~better:"lower";
  print_row "peak_heap_mb" "MB" [ heap_mb ] ~better:"lower";
  print_row "alloc_mwords" "Mwords" alloc ~better:"lower";
  (match passes with
  | { pass = { claims_reproduced = Some _; _ }; _ } :: _ ->
    print_row "claims_reproduced" "count"
      (per (fun t -> float_of_int (Option.value ~default:0 t.pass.claims_reproduced)))
      ~better:"higher"
  | _ -> ());
  print_row "failed_share" "ratio" [ float_of_int failed /. float_of_int attempted ] ~better:"lower";
  let metrics, traced_failed =
    if !trace = 0 then
      ( [
          ("wall_s", median wall, "s");
          ("setup_s", setup_s, "s");
          ("sim_speedup", median speedup, "x");
          ("peak_heap_mb", heap_mb, "MB");
          ("alloc_mwords", median alloc, "Mwords");
        ],
        0 )
    else
      let reference = reference refs ~workload ~input_seed:input_seeds.(0) in
      let same_input = match passes with t :: _ -> Some t.pass.digest | [] -> None in
      let wr = prepare 0 in
      Traced.run ~workload ~seed ~out_dir ~kernel:(kernel_shape workload) ~rows:wr.rows
        ~setup:wr.setup ~check:(check ~reference ~same_input) wr.run
  in
  Array.iteri
    (fun k _ ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ (p k).csv; (p k).columnar; (p k).donor ])
    input_seeds;
  let failed = failed + traced_failed in
  let attempted = attempted + !trace in
  let correct = failed = 0 && passes <> [] in
  let json =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
               metrics) );
      ]
  in
  print_endline (J.to_string json);
  exit (if correct then 0 else 1)
