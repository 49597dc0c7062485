type description =
  | Vfs_file of Vfs.file
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Null

type entry = { desc : description; mutable refcount : int ref }

module Fdtable = struct
  (* Indexed by descriptor, so [get] is a bounds check and every walk
     (dup, close-all) is in ascending fd order by construction. *)
  type t = { mutable slots : entry option array; mutable count : int }

  let make_entry desc = { desc; refcount = ref 1 }

  let create () =
    let slots = Array.make 16 None in
    for fd = 0 to 2 do
      slots.(fd) <- Some (make_entry Null)
    done;
    { slots; count = 3 }

  let alloc t desc =
    let n = Array.length t.slots in
    let rec first fd =
      if fd = n then fd
      else match t.slots.(fd) with Some _ -> first (fd + 1) | None -> fd
    in
    let fd = first 0 in
    if fd = n then begin
      let slots = Array.make (2 * n) None in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots
    end;
    t.slots.(fd) <- Some (make_entry desc);
    t.count <- t.count + 1;
    fd

  let find t fd =
    if fd < 0 || fd >= Array.length t.slots then raise Not_found
    else match t.slots.(fd) with Some e -> e | None -> raise Not_found

  let get t fd = (find t fd).desc

  let release_description e =
    decr e.refcount;
    if !(e.refcount) = 0 then
      match e.desc with
      | Pipe_read p -> Pipe.close_read p
      | Pipe_write p -> Pipe.close_write p
      | Vfs_file f -> Vfs.close f
      | Null -> ()

  let close t fd =
    let e = find t fd in
    t.slots.(fd) <- None;
    t.count <- t.count - 1;
    release_description e

  let dup_all t =
    let dup e =
      incr e.refcount;
      { desc = e.desc; refcount = e.refcount }
    in
    { slots = Array.map (Option.map dup) t.slots; count = t.count }

  (* Closing a pipe end wakes its waiters, so the order is observable. *)
  let close_all t =
    Array.iteri
      (fun fd e -> match e with Some _ -> close t fd | None -> ())
      t.slots

  let open_count t = t.count
end
