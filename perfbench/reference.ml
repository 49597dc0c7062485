(* The paper's values that [paper_err_pct] compares against.

   Every cell names the workload that measures it, the key under which
   that workload reports the measured value, the figure it is read from
   and the input size it applies to. A cell is used only when the run's
   size equals the cell's size; the test suite fails if a workload's
   default size drifts from the size its cells apply to. Values are from
   Kressel, Lefeuvre & Olivier, "μFork" (SOSP 2025), §5, as transcribed
   in EXPERIMENTS.md. *)

type cell = {
  workload : string;
  key : string;  (** measured-value key reported by the workload *)
  figure : string;
  system : string;
  size : (string * int) list;  (** workload size parameters it applies to *)
  paper : float;
  unit_ : string;
}

let redis_size = [ ("entries", 1000); ("value_len", 100 * 1024) ]
let hello_size = [ ("forks_per_machine", 1) ]
let fig9_size = [ ("spawn_iters", 1000); ("context1_iters", 100_000) ]

let cells =
  let redis key figure paper unit_ =
    { workload = "redis-bgsave"; key; figure; system = "uFork/CoPA";
      size = redis_size; paper; unit_ }
  in
  let hello system key paper unit_ =
    { workload = "hello-trio"; key = key ^ "/" ^ system; figure = "Fig. 8";
      system; size = hello_size; paper; unit_ }
  in
  let fig9 key paper =
    { workload = "spawn-context1"; key; figure = "Fig. 9";
      system = "uFork/CoPA"; size = fig9_size; paper; unit_ = "ms" }
  in
  [
    redis "save_ms" "Fig. 3" 109. "ms";
    redis "fork_us" "Fig. 4" 260. "us";
    redis "child_mb" "Fig. 5" 6. "MB";
    hello "uFork/CoPA" "fork_us" 54. "us";
    hello "uFork/CoPA" "child_mb" 0.13 "MB";
    hello "CheriBSD" "fork_us" 197. "us";
    hello "CheriBSD" "child_mb" 0.29 "MB";
    hello "Nephele" "fork_us" 10_700. "us";
    hello "Nephele" "child_mb" 1.6 "MB";
    fig9 "spawn_ms" 56.;
    fig9 "context1_ms" 245.;
  ]

let cells_of workload = List.filter (fun c -> c.workload = workload) cells

let applies cell ~size =
  List.for_all (fun kv -> List.mem kv size) cell.size

(* Mean absolute percentage error over the workload's cells, or [None]
   when the workload has no cells, the run's size is not the size they
   apply to, or a measured value is missing. *)
let err_pct ~workload ~size measured =
  match cells_of workload with
  | [] -> None
  | cs ->
      let errs =
        List.map
          (fun c ->
            match List.assoc_opt c.key measured with
            | Some m when applies c ~size ->
                Some (Float.abs (m -. c.paper) /. c.paper *. 100.)
            | Some _ | None -> None)
          cs
      in
      if List.mem None errs then None
      else
        let errs = List.filter_map Fun.id errs in
        Some (List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs))
