(* Interned counters: a key name maps to a dense int id on first touch
   and the counts live in one preallocated flat [int array] indexed by
   id, doubled on demand. The string API below is a registration shim —
   hot callers ({!Trace.emit}) intern once at trace construction and
   bump through the [_id] entry points, so the per-event path is an
   array store with no hashing and no allocation. One meter belongs to
   one machine and the engine runs its machine on one domain, so a
   single flat array needs no striping; cross-domain parallelism in the
   bench harness is per-machine (each sweep point owns its meter). *)
type t = {
  ids : (string, int) Hashtbl.t; (* name -> id, registration order *)
  mutable names : string array; (* id -> name *)
  mutable counts : int array; (* id -> count *)
  mutable n : int; (* interned ids; live prefix of the arrays *)
}

let initial_capacity = 32

let create () =
  {
    ids = Hashtbl.create initial_capacity;
    names = Array.make initial_capacity "";
    counts = Array.make initial_capacity 0;
    n = 0;
  }

let grow t =
  let cap = 2 * Array.length t.counts in
  let counts = Array.make cap 0 in
  Array.blit t.counts 0 counts 0 t.n;
  t.counts <- counts;
  let names = Array.make cap "" in
  Array.blit t.names 0 names 0 t.n;
  t.names <- names

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = t.n in
      if id = Array.length t.counts then grow t;
      t.names.(id) <- name;
      t.counts.(id) <- 0;
      Hashtbl.replace t.ids name id;
      t.n <- id + 1;
      id

let name t id = t.names.(id)
let incr_id t id = t.counts.(id) <- t.counts.(id) + 1
let add_id t id n = t.counts.(id) <- t.counts.(id) + n

let set_id t id v = t.counts.(id) <- v
let incr t name = incr_id t (intern t name)
let add t name n = add_id t (intern t name) n

let get t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> t.counts.(id)
  | None -> 0

(* Zeroing the live prefix keeps the id registry: keys remain in
   [to_list] with value 0. *)
let reset t = Array.fill t.counts 0 t.n 0

let to_list t =
  List.init t.n (fun id -> (t.names.(id), t.counts.(id)))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter (fun (k, v) -> Format.fprintf ppf "%-32s %d@," k v) (to_list t);
  Format.pp_close_box ppf ()

let set t name v = set_id t (intern t name) v
