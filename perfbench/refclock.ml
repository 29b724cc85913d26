(* Reference seconds.

   On a shared host the CPU speed a process gets drifts by tens of
   percent over minutes, and that drift, not the program, dominated the
   spread between runs of this benchmark.  So every timing is also taken
   against a fixed reference kernel run just before and just after it:

     reference seconds = host seconds x nominal / (mean kernel time)

   The kernel is hashing, boxed-float allocation and pointer chasing in a
   working set of a few MB, the same kind of work as the simulator's
   inner loops, so host slowdowns stretch both alike.  [nominal] is a
   fixed scale near the kernel's time on a quiet host, so reference
   seconds stay of the order of host seconds.  The kernel is part of the
   benchmark: a change to the program never changes it. *)

let nominal = 0.05

(* Hash-table updates with boxed floats over a working set of a few MB,
   in [rounds] slices; [meet] runs between slices. *)
let kernel ~rounds ~meet =
  let h = Hashtbl.create 65536 in
  let acc = ref 0.0 in
  let per = 150_000 / rounds in
  for r = 0 to rounds - 1 do
    for j = 0 to per - 1 do
      let i = (r * per) + j in
      let k = (i * 7919) land 0x3ffff in
      (match Hashtbl.find_opt h k with
      | Some x -> acc := !acc +. x
      | None -> Hashtbl.replace h k (float_of_int i));
      if i land 7 = 0 then Hashtbl.replace h k (float_of_int i *. 0.5)
    done;
    meet ()
  done;
  ignore (Sys.opaque_identity !acc)

(* A blocking barrier for [n] domains, parked on a condition variable
   like a worker team between windows. *)
let barrier n =
  let m = Mutex.create () and c = Condition.create () in
  let arrived = ref 0 and generation = ref 0 in
  fun () ->
    Mutex.lock m;
    let g = !generation in
    incr arrived;
    if !arrived = n then begin
      arrived := 0;
      incr generation;
      Condition.broadcast c
    end
    else
      while !generation = g do
        Condition.wait c m
      done;
    Mutex.unlock m

(* How a kernel run is shaped after the pass it stands for. *)
type shape = {
  domains : int;  (** run at once, one kernel each; the mean is taken *)
  rounds : int;  (** barriers between the domains per kernel run *)
}

(* Host seconds one kernel run takes now.  A pass that keeps both cores
   busy is stretched by a slowdown of either, and one that meets at
   window barriers also by slow wake-ups, so the kernel does the same.
   A full collection comes first, so the kernel never pays the garbage
   collector's debts of the pass before it, and the next pass starts
   from a collected heap, as in a fresh process. *)
let sample shape =
  Gc.full_major ();
  let ready = Atomic.make 0 in
  let meet = if shape.rounds > 1 then barrier shape.domains else ignore in
  let run () =
    (* the runs start together, so they always overlap alike *)
    Atomic.incr ready;
    while Atomic.get ready < shape.domains do
      Domain.cpu_relax ()
    done;
    let t0 = Unix.gettimeofday () in
    kernel ~rounds:shape.rounds ~meet;
    Unix.gettimeofday () -. t0
  in
  let others = List.init (shape.domains - 1) (fun _ -> Domain.spawn run) in
  let mine = run () in
  List.fold_left (fun acc d -> acc +. Domain.join d) mine others
  /. float_of_int shape.domains

(* Factor from host to reference seconds for an interval bracketed by
   kernel runs of [before] and [after] host seconds. *)
let factor ~before ~after = nominal /. ((before +. after) /. 2.0)

(* [f ()] with its host time and the factor measured around it. *)
let time shape f =
  let before = sample shape in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let host = Unix.gettimeofday () -. t0 in
  (r, host, factor ~before ~after:(sample shape))
