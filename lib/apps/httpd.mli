(** An Nginx-like multi-worker web server with a wrk-like load generator
    (Fig. 7).

    The master process owns a listen pipe (the accept queue) whose read end
    worker processes inherit through fork (U2/U5). A worker serves a
    request by reading its descriptor, parsing it, positional-reading the
    document from the ram-disk, writing the response and waiting for the
    send to complete on the (simulated) network — yielding the core during
    that wait, which is what lets extra workers raise single-core
    throughput (§5.1: "likely due to workers yielding during I/O").

    {!Net} is the client side: closed-loop connections inject request
    descriptors directly into the listen pipe's kernel buffer (NIC-to-
    socket-buffer delivery: the client machine costs the server nothing)
    and sleep until their response callback fires. *)

val populate_docroot : Ufork_sas.Vfs.t -> unit

(** The simulated network between wrk clients and the server. *)
module Net : sig
  type t

  type stats = { mutable completed : int; mutable sent : int }

  val create : unit -> t
  val listen_pipe : t -> Ufork_sas.Pipe.t
  (** The accept-queue pipe; the benchmark installs its ends as inherited
      file descriptors of the master process before it starts. *)

  val stats : t -> stats

  val deliver_response : t -> int -> unit
  (** Called from worker context when request [id]'s response has been
      sent: wakes the owning connection. *)

  val spawn_clients :
    Ufork_sim.Engine.t ->
    t ->
    connections:int ->
    window_cycles:int64 ->
    unit
  (** Closed-loop connection threads; each stops issuing at the window
      end. Completions inside the window are counted in [stats]. *)
end

val master :
  Ufork_sas.Api.t ->
  net:Net.t ->
  listen_rfd:int ->
  listen_wfd:int ->
  workers:int ->
  window_cycles:int64 ->
  unit
(** Server main: open the docroot, fork [workers] workers, sleep out the
    window, write one shutdown descriptor per worker, reap them all. *)
