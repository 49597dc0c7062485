(** Unit conversions shared by the whole simulator.

    The simulated machine is clocked like the ARM Morello development system
    used in the paper: 2.5 GHz. All simulated durations are expressed in
    cycles (int64) and converted to seconds only for reporting. *)

val clock_hz : float
(** Simulated core frequency, cycles per second (2.5e9). *)

val cycles_of_s : float -> int64

val us_of_cycles : int64 -> float
val ms_of_cycles : int64 -> float
val s_of_cycles : int64 -> float

val mb_of_bytes : int -> float
(** Bytes to MB (10^6, as used by the paper's memory figures). *)
