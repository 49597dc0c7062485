(** Output-file plumbing for the CLI and bench front ends.

    Every artifact sink (flamegraph stacks, CSV time series, trace
    files, causal-analysis exports) routes through here so the behaviour
    is uniform: missing parent directories are created, and an
    unwritable path surfaces as a clean [Error] message — one line, no
    exception backtrace — for the front end to print and exit on. *)

val with_out : string -> (out_channel -> unit) -> (unit, string) result
(** [with_out path f] creates [path]'s missing parent directories, opens
    it for writing, runs [f], and closes the channel (also on exception).
    Filesystem failures — unwritable directory, path through a regular
    file — return [Error msg] with a one-line human-readable message. *)
