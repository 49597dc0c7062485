(** A bootable μFork operating system.

    Convenience layer that assembles the substrate: a simulated Morello
    machine ({!Ufork_sim.Engine}), the SASOS kernel kit
    ({!Ufork_sas.Kernel}) and the μFork mechanism ({!Fork}) — yielding a
    system on which unmodified {!Ufork_sas.Api.t} applications run. *)

type t

val boot :
  ?cores:int ->
  ?config:Ufork_sas.Config.t ->
  ?costs:Ufork_sim.Costs.t ->
  ?strategy:Strategy.t ->
  ?proactive:bool ->
  unit ->
  t
(** Defaults: 4 cores, {!Ufork_sas.Config.ufork_fast},
    {!Ufork_sim.Costs.ufork}, {!Strategy.Copa}. *)

val system : t -> System.t
(** The underlying {!System.t} (engine + kernel + lifecycle). *)

val kernel : t -> Ufork_sas.Kernel.t
val engine : t -> Ufork_sim.Engine.t

val trace : t -> Ufork_sim.Trace.t [@@ufork.test_seam]
(** The kernel's mechanism-event bus (cycle charging, counters, optional
    record ring). *)

val start :
  t ->
  ?affinity:int ->
  image:Ufork_sas.Image.t ->
  (Ufork_sas.Api.t -> unit) ->
  Ufork_sas.Uproc.t
(** Create an initial μprocess (mapped image, fresh fd table) and schedule
    its main thread. Call {!run} to execute. *)

val run : ?until:int64 -> t -> unit
(** Run the machine until quiescence (or the given simulated time). *)
