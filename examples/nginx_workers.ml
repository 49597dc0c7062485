(* Nginx multi-worker deployments (U2, §5.1): the master forks workers
   that inherit the listen socket; on one core, extra workers overlap each
   other's network waits.

     dune exec examples/nginx_workers.exe *)

module Image = Ufork_sas.Image
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Fdesc = Ufork_sas.Fdesc
module Os = Ufork_core.Os
module Httpd = Ufork_apps.Httpd
module Units = Ufork_util.Units

let window_s = 0.5

let run_ufork ~workers =
  let os = Os.boot ~cores:1 () in
  Httpd.populate_docroot (Kernel.vfs (Os.kernel os));
  let net = Httpd.Net.create (Os.engine os) in
  let window = Units.cycles_of_s window_s in
  let u =
    Os.start os ~image:Image.nginx (fun api ->
        Httpd.master api ~net ~listen_rfd:3 ~listen_wfd:4 ~workers
          ~window_cycles:window)
  in
  (* Socket activation: the master starts with the listen pipe already
     open as fds 3/4; the workers inherit them through fork. *)
  let p = Httpd.Net.listen_pipe net in
  ignore (Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p));
  ignore (Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p));
  Httpd.Net.spawn_clients net ~connections:16
    ~window_cycles:window;
  Os.run os;
  float_of_int (Httpd.Net.stats net).Httpd.Net.completed /. window_s

let () =
  Printf.printf "Nginx on uFork, one core, wrk-style closed-loop load\n\n";
  let base = run_ufork ~workers:1 in
  Printf.printf "%-10s %12s %10s\n" "workers" "req/s" "vs 1 worker";
  List.iter
    (fun workers ->
      let thr = run_ufork ~workers in
      Printf.printf "%-10d %12.0f %9.1f%%\n" workers thr
        ((thr /. base -. 1.) *. 100.))
    [ 1; 2; 3 ];
  print_newline ();
  Printf.printf
    "Workers yield the core while waiting for send completions, so more\n\
     workers raise single-core throughput (Fig. 7; paper: +15.6%%).\n"
