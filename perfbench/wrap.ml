(* An [Api.t] wrapper handed to a workload's own closures.

   It sees every call the application makes and nothing else, so it
   measures the simulator from outside: the caller-observed fork latency
   ([api.now] around [api.fork], which includes syscall entry and every
   lock wait), attempted and failed operations, and — when [detail] is
   on — the host time and allocation of each call class on the shared
   {!Hostclock}. The wrapper never charges simulated cycles: [now],
   [getpid] and the [stats_*] readers are pure, so a wrapped run is the
   same simulation as an unwrapped one. *)

module Api = Ufork_sas.Api
module H = Hostclock

(* The exit status of a simulated thread killed by an unhandled syscall
   error (ENOMEM is errno 12): what a C runtime's abort-on-error path
   would report to the parent's wait. *)
let unhandled_error_status = 12

type t = {
  clock : H.t;
  detail : bool;
  mutable forks : int;  (** fork calls attempted *)
  mutable fork_errors : int;  (** fork calls that raised [Sys_error] *)
  mutable bad_exits : int;  (** reaped children with a non-zero status *)
  mutable main_errors : int;  (** main threads ended by a [Sys_error] *)
  mutable latencies : int64 list;  (** caller fork latency, newest first *)
  mutable children : int list;  (** pids returned by successful forks *)
  mutable after_fork : latency:int64 -> unit;
}

let create ?(detail = false) clock =
  {
    clock;
    detail;
    forks = 0;
    fork_errors = 0;
    bad_exits = 0;
    main_errors = 0;
    latencies = [];
    children = [];
    after_fork = (fun ~latency:_ -> ());
  }

(* One failed operation per failed fork, per child that exited non-zero
   and per main thread that died of a syscall error. *)
let failures p = p.fork_errors + p.bad_exits + p.main_errors

let run_thread p ~main (api : Api.t) body =
  if p.detail then ignore (H.switch p.clock H.app);
  Fun.protect
    ~finally:(fun () -> if p.detail then ignore (H.switch p.clock H.pending))
    (fun () ->
      match body api with
      | () -> ()
      | exception Api.Sys_error _ ->
          if main then p.main_errors <- p.main_errors + 1;
          api.Api.exit unhandled_error_status)

let rec wrap p ~pipes (a : Api.t) : Api.t =
  let timed b f = if p.detail then H.call p.clock b f else f () in
  let fd_class fd = if Hashtbl.mem pipes fd then H.api_ipc else H.api_file in
  let child_api capi = wrap p ~pipes:(Hashtbl.copy pipes) capi in
  {
    Api.getpid = a.Api.getpid;
    fork =
      (fun child_main ->
        p.forks <- p.forks + 1;
        let t0 = a.Api.now () in
        let body capi = run_thread p ~main:false (child_api capi) child_main in
        match timed H.api_fork (fun () -> a.Api.fork body) with
        | pid ->
            let latency = Int64.sub (a.Api.now ()) t0 in
            p.latencies <- latency :: p.latencies;
            p.children <- pid :: p.children;
            p.after_fork ~latency;
            pid
        | exception (Api.Sys_error _ as e) ->
            p.fork_errors <- p.fork_errors + 1;
            raise e);
    exit = (fun status -> timed H.api_exit (fun () -> a.Api.exit status));
    wait =
      (fun () ->
        let ((_, status) as r) = timed H.api_wait a.Api.wait in
        if status <> 0 then p.bad_exits <- p.bad_exits + 1;
        r);
    spawn =
      (fun main ->
        timed H.api_proc (fun () ->
            a.Api.spawn (fun capi ->
                run_thread p ~main:false (child_api capi) main)));
    kill = (fun pid -> timed H.api_proc (fun () -> a.Api.kill pid));
    reloc = a.Api.reloc;
    malloc = (fun n -> timed H.api_alloc (fun () -> a.Api.malloc n));
    free = (fun c -> timed H.api_alloc (fun () -> a.Api.free c));
    read_bytes =
      (fun c ~off ~len -> timed H.api_mem (fun () -> a.Api.read_bytes c ~off ~len));
    write_bytes =
      (fun c ~off b -> timed H.api_mem (fun () -> a.Api.write_bytes c ~off b));
    read_u64 = (fun c ~off -> timed H.api_mem (fun () -> a.Api.read_u64 c ~off));
    write_u64 =
      (fun c ~off v -> timed H.api_mem (fun () -> a.Api.write_u64 c ~off v));
    load_cap = (fun c ~off -> timed H.api_mem (fun () -> a.Api.load_cap c ~off));
    store_cap =
      (fun c ~off v -> timed H.api_mem (fun () -> a.Api.store_cap c ~off v));
    got_set = (fun i c -> timed H.api_mem (fun () -> a.Api.got_set i c));
    got_get = (fun i -> timed H.api_mem (fun () -> a.Api.got_get i));
    compute = (fun n -> timed H.api_compute (fun () -> a.Api.compute n));
    now = a.Api.now;
    open_ =
      (fun name mode ->
        let fd = timed H.api_file (fun () -> a.Api.open_ name mode) in
        Hashtbl.remove pipes fd;
        fd);
    close =
      (fun fd ->
        timed (fd_class fd) (fun () -> a.Api.close fd);
        Hashtbl.remove pipes fd);
    read = (fun fd n -> timed (fd_class fd) (fun () -> a.Api.read fd n));
    pread = (fun fd ~off n -> timed H.api_file (fun () -> a.Api.pread fd ~off n));
    write = (fun fd b -> timed (fd_class fd) (fun () -> a.Api.write fd b));
    rename =
      (fun ~src ~dst -> timed H.api_file (fun () -> a.Api.rename ~src ~dst));
    unlink = (fun name -> timed H.api_file (fun () -> a.Api.unlink name));
    pipe =
      (fun () ->
        let ((r, w) as fds) = timed H.api_ipc a.Api.pipe in
        Hashtbl.replace pipes r ();
        Hashtbl.replace pipes w ();
        fds);
    shm_open =
      (fun name n -> timed H.api_alloc (fun () -> a.Api.shm_open name n));
    map_library =
      (fun name n -> timed H.api_alloc (fun () -> a.Api.map_library name n));
    stats_private_bytes = a.Api.stats_private_bytes;
    stats_heap_used = a.Api.stats_heap_used;
    yield = (fun () -> timed H.api_compute a.Api.yield);
    sleep = (fun n -> timed H.api_compute (fun () -> a.Api.sleep n));
  }

(* The entry point given to [System.start]: the main thread's closure. *)
let main p body (a : Api.t) =
  run_thread p ~main:true (wrap p ~pipes:(Hashtbl.create 8) a) body
