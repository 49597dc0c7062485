(** The minimal "hello world" program of the Fig. 8 microbenchmarks. *)

type fork_sample = {
  latency_cycles : int64;  (** Time the fork call took in the parent. *)
  child_pid : int;
}

val fork_once : Ufork_sas.Api.t -> fork_sample
(** Fork a child that touches its stack and exits 0; the sample is taken
    before the parent reaps it so the child's memory can still be
    inspected by the harness. The parent leaves the zombie for
    {!reap}. *)

val reap : Ufork_sas.Api.t -> unit
(** Wait for the outstanding child. *)

val main : Ufork_sas.Api.t -> unit [@@ufork.test_seam]
(** A full hello-world run: print-equivalent work, one fork, reap. *)
