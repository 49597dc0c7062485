(** The Nephele-like VM-cloning baseline (§2.3, "OS as a process").

    Nephele supports fork in a unikernel by cloning the entire virtual
    machine through the hypervisor: a new Xen domain is created (event
    channels, grant tables, device re-plumbing — a fixed cost of ~10.5 ms)
    and the whole VM image, kernel included, is duplicated. The paper
    replays Nephele's microbenchmarks (fork latency and per-process memory,
    Fig. 8) against μFork; this module reproduces that comparison point.

    Built on the multi-address-space kit (each clone is its own domain =
    its own address space). The per-process image includes the unikernel
    kernel text/data, which is why a minimal program still costs ~1.6 MB
    per clone. *)

type t

val boot :
  ?cores:int ->
  ?config:Ufork_sas.Config.t ->
  ?costs:Ufork_sim.Costs.t ->
  unit ->
  t

val system : t -> Ufork_core.System.t
(** The underlying {!Ufork_core.System.t} (engine + kernel + lifecycle). *)

val kernel : t -> Ufork_sas.Kernel.t
val engine : t -> Ufork_sim.Engine.t [@@ufork.test_seam]

val unikernel_image : Ufork_sas.Image.t -> Ufork_sas.Image.t
  [@@ufork.test_seam]
(** Extend an application image with the unikernel kernel's own text and
    data (cloned along with the app under this design). *)

val start :
  t ->
  ?affinity:int ->
  image:Ufork_sas.Image.t ->
  (Ufork_sas.Api.t -> unit) ->
  Ufork_sas.Uproc.t
(** [image] is wrapped with {!unikernel_image} internally. *)

val run : ?until:int64 -> t -> unit
val last_fork_latency : t -> int64 [@@ufork.test_seam]
