module Api = Ufork_sas.Api
module Pipe = Ufork_sas.Pipe
module Vfs = Ufork_sas.Vfs
module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync

let request_size = 64
let doc_path = "/index.html"
let doc_bytes = 1024
let parse_cycles = 38_000L
let net_wait_cycles = 7_800L

let populate_docroot vfs =
  let body = String.init doc_bytes (fun i -> Char.chr (32 + (i mod 95))) in
  Vfs.put vfs doc_path body

let encode_request id =
  let b = Bytes.make request_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int id);
  b

let decode_request b =
  if Bytes.length b < 8 then None
  else Some (Int64.to_int (Bytes.get_int64_le b 0))

module Net = struct
  type stats = { mutable completed : int; mutable sent : int }

  type t = {
    engine : Engine.t;
    pipe : Pipe.t;
    waiting : (int, Engine.waker) Hashtbl.t;
    mutable next_id : int;
    stats : stats;
  }

  let create engine =
    {
      engine;
      pipe = Pipe.create ~engine ();
      waiting = Hashtbl.create 64;
      next_id = 0;
      stats = { completed = 0; sent = 0 };
    }

  let listen_pipe t = t.pipe
  let stats t = t.stats

  let deliver_response t id =
    match Hashtbl.find_opt t.waiting id with
    | Some w ->
        Hashtbl.remove t.waiting id;
        Engine.wake t.engine w
    | None -> ()

  (* Push a request descriptor into the accept queue from the NIC side
     (no server CPU): spin on the pipe's writable condition if full. *)
  let rec nic_push t b =
    match Pipe.try_write t.pipe b with
    | Pipe.Wrote n when n = Bytes.length b -> ()
    | Pipe.Wrote n ->
        nic_push t (Bytes.sub b n (Bytes.length b - n))
    | Pipe.Would_block ->
        Sync.Cond.wait (Pipe.writable t.pipe);
        nic_push t b

  let spawn_clients t ~connections ~window_cycles =
    if connections <= 0 then invalid_arg "spawn_clients";
    let deadline = window_cycles in
    for c = 1 to connections do
      ignore
        (Engine.spawn ~name:(Printf.sprintf "wrk-conn%d" c) t.engine (fun () ->
             let rec go () =
               if Engine.current_time () < deadline then begin
                 t.next_id <- t.next_id + 1;
                 let id = t.next_id in
                 t.stats.sent <- t.stats.sent + 1;
                 nic_push t (encode_request id);
                 Hashtbl.replace t.waiting id (Engine.waker t.engine);
                 Engine.park t.engine;
                 if Engine.current_time () <= deadline then
                   t.stats.completed <- t.stats.completed + 1;
                 go ()
               end
             in
             go ()))
    done
end

(* Read exactly one descriptor (the pipe preserves byte order; descriptors
   are fixed-size so short reads just need another read call). *)
let read_request (api : Api.t) fd =
  let buf = Buffer.create request_size in
  let rec go () =
    let need = request_size - Buffer.length buf in
    if need = 0 then Some (Buffer.to_bytes buf)
    else
      let b = api.Api.read fd need in
      if Bytes.length b = 0 then None (* EOF *)
      else begin
        Buffer.add_bytes buf b;
        go ()
      end
  in
  go ()

let worker_loop (api : Api.t) ~listen_fd ~docroot_fd ~notify =
  let rec serve () =
    match read_request api listen_fd with
    | None -> api.Api.exit 0
    | Some req -> (
        match decode_request req with
        | None | Some 0 -> api.Api.exit 0 (* shutdown descriptor *)
        | Some id ->
            (* Parse request line + headers, format the response headers,
               write the access-log line. *)
            api.Api.compute parse_cycles;
            let body = api.Api.pread docroot_fd ~off:0 doc_bytes in
            (* send(): one syscall copying the response out... *)
            let sent = api.Api.write 1 body in
            ignore sent;
            (* ...then wait for the send completion interrupt. *)
            api.Api.sleep net_wait_cycles;
            notify id;
            serve ())
  in
  serve ()

let master (api : Api.t) ~net ~listen_rfd ~listen_wfd ~workers ~window_cycles =
  if workers <= 0 then invalid_arg "Httpd.master";
  let docroot_fd = api.Api.open_ doc_path `Read in
  let notify id = Net.deliver_response net id in
  for _ = 1 to workers do
    ignore
      (api.Api.fork (fun capi ->
           (* Workers inherited the listen fd and the docroot fd. *)
           worker_loop capi ~listen_fd:listen_rfd ~docroot_fd ~notify))
  done;
  api.Api.sleep window_cycles;
  for _ = 1 to workers do
    ignore (api.Api.write listen_wfd (encode_request 0))
  done;
  for _ = 1 to workers do
    ignore (api.Api.wait ())
  done
