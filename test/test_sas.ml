(* Tests for the OS construction kit: allocator, pipes, VFS, fd tables,
   process layout, and kernel services (exercised through a booted μFork
   system where a process context is needed). *)

module Addr = Ufork_mem.Addr
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Tinyalloc = Ufork_sas.Tinyalloc
module Pipe = Ufork_sas.Pipe
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Api = Ufork_sas.Api
module Capability = Ufork_cheri.Capability
module Os = Ufork_core.Os
module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync

(* The machine of the structures tested without threads: nothing ever
   waits on their conditions. *)
let idle = Engine.create ~cores:1 ()

(* Run a single-process scenario on a freshly booted μFork OS and return
   its result. *)
let in_proc ?(image = Image.hello) ?config f =
  let os = Os.boot ~cores:2 ?config () in
  let result = ref None in
  let _ = Os.start os ~image (fun api -> result := Some (f api)) in
  Os.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- Config --- *)

let test_config_presets () =
  Alcotest.(check bool) "ufork_fast has no toctou" false
    Config.ufork_fast.Config.toctou;
  Alcotest.(check bool) "default has toctou" true
    Config.ufork_default.Config.toctou;
  let c = Config.with_isolation Config.No_isolation Config.ufork_default in
  Alcotest.(check bool) "with_isolation" true
    (c.Config.isolation = Config.No_isolation)

(* --- Image / regions --- *)

let test_image_layout () =
  let img = Image.hello in
  let r = Uproc.layout_regions img ~area_base:0x100000 in
  (* Regions are disjoint and ordered. *)
  Alcotest.(check bool) "ordered" true
    (r.Uproc.got_base < r.Uproc.code_base
    && r.Uproc.code_base + r.Uproc.code_bytes <= r.Uproc.data_base
    && r.Uproc.data_base + r.Uproc.data_bytes <= r.Uproc.stack_base
    && r.Uproc.stack_base + r.Uproc.stack_bytes <= r.Uproc.meta_base
    && r.Uproc.meta_base + r.Uproc.meta_bytes <= r.Uproc.heap_base);
  Alcotest.(check bool) "fits in area" true
    (r.Uproc.heap_base + r.Uproc.heap_bytes
    <= 0x100000 + Image.area_bytes img);
  Alcotest.(check bool) "page aligned" true
    (List.for_all
       (fun v -> v mod Addr.page_size = 0)
       [ r.Uproc.got_base; r.Uproc.code_base; r.Uproc.data_base;
         r.Uproc.stack_base; r.Uproc.meta_base; r.Uproc.heap_base ])

let test_image_validation () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Image.make: non-positive region") (fun () ->
      ignore (Image.make ~code_bytes:0 "bad"))

let test_region_of_addr () =
  let img = Image.hello in
  let area_base = 0x200000 in
  let r = Uproc.layout_regions img ~area_base in
  let phys = Ufork_mem.Phys.create () in
  let pt = Ufork_mem.Page_table.create phys in
  let u = Uproc.create ~engine:idle ~pid:1 ~image:img ~area_base ~pt () in
  Alcotest.(check (option string)) "got" (Some "got")
    (Uproc.region_of_addr u r.Uproc.got_base);
  Alcotest.(check (option string)) "heap" (Some "heap")
    (Uproc.region_of_addr u (r.Uproc.heap_base + 100));
  Alcotest.(check (option string)) "guard gap" None
    (Uproc.region_of_addr u (r.Uproc.got_base + r.Uproc.got_bytes));
  Alcotest.(check bool) "contains" true (Uproc.contains u (area_base + 1))

(* --- Tinyalloc --- *)

let mk_alloc ?(heap_size = 1024 * 1024) () =
  Tinyalloc.create ~heap_base:0x10000 ~heap_size ~meta_capacity_granules:4096

let test_alloc_basic () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 100 in
  Alcotest.(check int) "aligned size" 112 b1.Tinyalloc.size;
  Alcotest.(check bool) "aligned addr" true
    (Addr.is_granule_aligned b1.Tinyalloc.addr);
  let b2 = Tinyalloc.alloc a 16 in
  Alcotest.(check bool) "no overlap" true
    (b2.Tinyalloc.addr >= b1.Tinyalloc.addr + b1.Tinyalloc.size);
  Alcotest.(check int) "used" (112 + 16) (Tinyalloc.used_bytes a);
  Alcotest.(check int) "live" 2 (Tinyalloc.live_blocks a)

let test_alloc_free_reuse () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 64 in
  let _b2 = Tinyalloc.alloc a 64 in
  let freed = Tinyalloc.free a b1.Tinyalloc.addr in
  Alcotest.(check int) "freed size" 64 freed.Tinyalloc.size;
  let b3 = Tinyalloc.alloc a 64 in
  Alcotest.(check int) "first fit reuses" b1.Tinyalloc.addr b3.Tinyalloc.addr

let test_alloc_coalescing () =
  let a = mk_alloc ~heap_size:(64 * 3) () in
  let b1 = Tinyalloc.alloc a 64 in
  let b2 = Tinyalloc.alloc a 64 in
  let b3 = Tinyalloc.alloc a 64 in
  (* Heap is full now. *)
  Alcotest.check_raises "full" Tinyalloc.Out_of_heap (fun () ->
      ignore (Tinyalloc.alloc a 16));
  ignore (Tinyalloc.free a b1.Tinyalloc.addr);
  ignore (Tinyalloc.free a b3.Tinyalloc.addr);
  ignore (Tinyalloc.free a b2.Tinyalloc.addr);
  (* All three coalesce back into one span. *)
  let big = Tinyalloc.alloc a (64 * 3) in
  Alcotest.(check int) "coalesced" b1.Tinyalloc.addr big.Tinyalloc.addr

let test_alloc_bad_free () =
  let a = mk_alloc () in
  let b = Tinyalloc.alloc a 64 in
  Alcotest.check_raises "bad free"
    (Invalid_argument "Tinyalloc.free: not a live block start") (fun () ->
      ignore (Tinyalloc.free a (b.Tinyalloc.addr + 16)))

let test_alloc_clone () =
  let a = mk_alloc () in
  let b1 = Tinyalloc.alloc a 64 in
  let c = Tinyalloc.clone a ~delta:0x100000 in
  Alcotest.(check int) "base shifted" (0x10000 + 0x100000) (Tinyalloc.heap_base c);
  Alcotest.(check int) "used preserved" (Tinyalloc.used_bytes a)
    (Tinyalloc.used_bytes c);
  (* The clone can free the shifted block. *)
  let freed = Tinyalloc.free c (b1.Tinyalloc.addr + 0x100000) in
  Alcotest.(check int) "meta index preserved" b1.Tinyalloc.meta_index
    freed.Tinyalloc.meta_index;
  (* And the original is untouched. *)
  Alcotest.(check int) "original live" 1 (Tinyalloc.live_blocks a)

let test_alloc_meta_exhaustion () =
  let a =
    Tinyalloc.create ~heap_base:0x10000 ~heap_size:(1024 * 1024)
      ~meta_capacity_granules:2
  in
  ignore (Tinyalloc.alloc a 16);
  ignore (Tinyalloc.alloc a 16);
  Alcotest.check_raises "meta exhausted" Tinyalloc.Out_of_heap (fun () ->
      ignore (Tinyalloc.alloc a 16))

let test_block_of_addr () =
  let a = mk_alloc () in
  let b = Tinyalloc.alloc a 64 in
  (match Tinyalloc.block_of_addr a (b.Tinyalloc.addr + 10) with
  | Some found -> Alcotest.(check int) "found" b.Tinyalloc.addr found.Tinyalloc.addr
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "miss" true
    (Tinyalloc.block_of_addr a (b.Tinyalloc.addr + 64) = None)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 1 2048))
    (fun sizes ->
      let a = mk_alloc () in
      let blocks = List.map (fun s -> Tinyalloc.alloc a s) sizes in
      let sorted =
        List.sort (fun x y -> compare x.Tinyalloc.addr y.Tinyalloc.addr) blocks
      in
      let rec disjoint = function
        | b1 :: (b2 :: _ as rest) ->
            b1.Tinyalloc.addr + b1.Tinyalloc.size <= b2.Tinyalloc.addr
            && disjoint rest
        | _ -> true
      in
      disjoint sorted)

let prop_alloc_free_all_restores =
  QCheck.Test.make ~name:"freeing all restores full heap" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 1024))
    (fun sizes ->
      let a = mk_alloc ~heap_size:(128 * 1024) () in
      match List.map (fun s -> Tinyalloc.alloc a s) sizes with
      | exception Tinyalloc.Out_of_heap -> QCheck.assume_fail ()
      | blocks ->
          List.iter (fun b -> ignore (Tinyalloc.free a b.Tinyalloc.addr)) blocks;
          Tinyalloc.used_bytes a = 0
          &&
          (* One maximal allocation succeeds again. *)
          let big = Tinyalloc.alloc a (128 * 1024) in
          big.Tinyalloc.addr = 0x10000)

(* --- Pipe --- *)

let test_pipe_fifo () =
  let p = Pipe.create ~engine:idle ~capacity:8 () in
  (match Pipe.try_write p (Bytes.of_string "abcde") with
  | Pipe.Wrote 5 -> ()
  | _ -> Alcotest.fail "write");
  (match Pipe.try_read p 3 with
  | Pipe.Data b -> Alcotest.(check string) "fifo order" "abc" (Bytes.to_string b)
  | _ -> Alcotest.fail "read");
  match Pipe.try_read p 10 with
  | Pipe.Data b -> Alcotest.(check string) "rest" "de" (Bytes.to_string b)
  | _ -> Alcotest.fail "read rest"

let test_pipe_capacity () =
  let p = Pipe.create ~engine:idle ~capacity:4 () in
  (match Pipe.try_write p (Bytes.of_string "abcdef") with
  | Pipe.Wrote 4 -> ()
  | _ -> Alcotest.fail "partial write");
  match Pipe.try_write p (Bytes.of_string "x") with
  | Pipe.Would_block -> ()
  | _ -> Alcotest.fail "should block"

let test_pipe_eof_and_epipe () =
  let p = Pipe.create ~engine:idle () in
  ignore (Pipe.try_write p (Bytes.of_string "z"));
  Pipe.close_write p;
  (match Pipe.try_read p 10 with
  | Pipe.Data b -> Alcotest.(check string) "drains" "z" (Bytes.to_string b)
  | _ -> Alcotest.fail "drain");
  (match Pipe.try_read p 10 with
  | Pipe.Eof -> ()
  | _ -> Alcotest.fail "eof");
  let q = Pipe.create ~engine:idle () in
  Pipe.close_read q;
  Alcotest.check_raises "epipe" Pipe.Broken_pipe (fun () ->
      ignore (Pipe.try_write q (Bytes.of_string "x")))

let test_pipe_empty () =
  let p = Pipe.create ~engine:idle () in
  match Pipe.try_read p 1 with
  | Pipe.Empty -> ()
  | _ -> Alcotest.fail "empty"

(* The ring pipe against a string-queue model. Sizes run to 3x the
   capacity, so writes go partial, the ring wraps, and it grows from its
   small initial size up to the capacity; writes start at a random
   offset into their buffer. Closing either end mid-run checks [Eof]
   and [Broken_pipe]. *)
type pipe_op = P_write of int * int | P_read of int | P_close_read | P_close_write

let pipe_op_gen cap =
  QCheck.Gen.(
    frequency
      [
        ( 10,
          map2 (fun n off -> P_write (n, off)) (0 -- (3 * cap)) (0 -- 8) );
        (10, map (fun n -> P_read n) (0 -- (3 * cap)));
        (1, return P_close_read);
        (1, return P_close_write);
      ])

let pp_pipe_op = function
  | P_write (n, off) -> Printf.sprintf "write %d@%d" n off
  | P_read n -> Printf.sprintf "read %d" n
  | P_close_read -> "close_read"
  | P_close_write -> "close_write"

let prop_pipe_model =
  QCheck.Test.make ~name:"ring pipe = string-queue model" ~count:300
    QCheck.(
      make
        ~print:(fun (cap, ops) ->
          Printf.sprintf "capacity %d: %s" cap
            (String.concat "; " (List.map pp_pipe_op ops)))
        Gen.(
          1 -- 64 >>= fun cap ->
          map (fun ops -> (cap, ops)) (list_size (0 -- 60) (pipe_op_gen cap))))
    (fun (cap, ops) ->
      let p = Pipe.create ~engine:idle ~capacity:cap () in
      let q = Buffer.create 64 in
      let next = ref 0 in
      let read_open = ref true and write_open = ref true in
      let step = function
        | P_write (n, off) -> (
            let b =
              Bytes.init (off + n) (fun _ ->
                  incr next;
                  Char.chr (!next land 0xff))
            in
            match Pipe.try_write p ~off b with
            | exception Pipe.Broken_pipe -> not !read_open
            | r -> (
                !read_open
                &&
                let room = cap - Buffer.length q in
                match r with
                | Pipe.Would_block -> room <= 0
                | Pipe.Wrote k ->
                    room > 0
                    && k = min room n
                    && (Buffer.add_subbytes q b off k;
                        true)))
        | P_read n -> (
            match Pipe.try_read p n with
            | Pipe.Empty -> Buffer.length q = 0 && !write_open
            | Pipe.Eof -> Buffer.length q = 0 && not !write_open
            | Pipe.Data d ->
                let k = min n (Buffer.length q) in
                Buffer.length q > 0
                && Bytes.to_string d = Buffer.sub q 0 k
                &&
                let rest = Buffer.sub q k (Buffer.length q - k) in
                Buffer.clear q;
                Buffer.add_string q rest;
                true)
        | P_close_read ->
            Pipe.close_read p;
            read_open := false;
            true
        | P_close_write ->
            Pipe.close_write p;
            write_open := false;
            true
      in
      List.for_all
        (fun op -> step op && Pipe.available p = Buffer.length q)
        ops)

(* --- Vfs --- *)

let test_vfs_crud () =
  let v = Vfs.create () in
  Vfs.put v "/a" "hello";
  Alcotest.(check bool) "exists" true (Vfs.exists v "/a");
  Alcotest.(check int) "size" 5 (Vfs.size v "/a");
  Alcotest.(check string) "contents" "hello" (Vfs.contents v "/a");
  Vfs.rename v ~src:"/a" ~dst:"/b";
  Alcotest.(check bool) "renamed away" false (Vfs.exists v "/a");
  Alcotest.(check string) "renamed" "hello" (Vfs.contents v "/b");
  Vfs.unlink v "/b";
  Alcotest.(check (list string)) "empty" [] (Vfs.list v);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Vfs.contents v "/b"))

let test_vfs_streaming () =
  let v = Vfs.create () in
  let f = Vfs.open_ v "/f" `Create in
  ignore (Vfs.write f (Bytes.of_string "01234"));
  ignore (Vfs.write f (Bytes.of_string "56789"));
  let pread off n = Bytes.to_string (Vfs.pread f ~off n) in
  Alcotest.(check string) "pread" "3456" (pread 3 4);
  Alcotest.(check string) "short at eof" "789" (pread 7 10);
  Alcotest.(check string) "past eof" "" (pread 12 4);
  Alcotest.(check string) "cursor at end" "" (Bytes.to_string (Vfs.read f 1));
  Alcotest.(check int) "size_of" 10 (Vfs.size_of f);
  let r = Vfs.open_ v "/f" `Read in
  let read n = Bytes.to_string (Vfs.read r n) in
  Alcotest.(check string) "read" "0123" (read 4);
  Alcotest.(check string) "pread between reads" "89"
    (Bytes.to_string (Vfs.pread r ~off:8 2));
  Alcotest.(check string) "read resumes at its cursor" "4567" (read 4);
  Alcotest.check_raises "negative offset" (Invalid_argument "Vfs.pread")
    (fun () -> ignore (Vfs.pread r ~off:(-1) 1));
  Vfs.close f;
  Alcotest.check_raises "closed" (Invalid_argument "Vfs: file is closed")
    (fun () -> ignore (Vfs.read f 1))

let test_vfs_append_grows () =
  let v = Vfs.create () in
  Vfs.put v "/log" "aa";
  let f = Vfs.open_ v "/log" `Append in
  ignore (Vfs.write f (Bytes.of_string "bb"));
  Vfs.close f;
  Alcotest.(check string) "appended" "aabb" (Vfs.contents v "/log");
  let g = Vfs.open_ v "/big" `Create in
  ignore (Vfs.write g (Bytes.make 10_000 'x'));
  Vfs.close g;
  Alcotest.(check int) "grown" 10_000 (Vfs.size v "/big")

(* Files span 64 KiB host blocks; these cross the block boundaries. *)
let block = 64 * 1024

let pattern n = String.init n (fun i -> Char.chr ((i * 7 + i / 251) land 0xff))

let test_vfs_blocks_write_read () =
  let v = Vfs.create () in
  let data = pattern ((2 * block) + 100) in
  let f = Vfs.open_ v "/f" `Create in
  (* Three writes: up to 6 bytes short of the first boundary, one that
     straddles it, and one that crosses the second boundary. *)
  let cuts = [ block - 6; 20; String.length data - block - 14 ] in
  ignore
    (List.fold_left
       (fun pos n ->
         Alcotest.(check int) "count" n
           (Vfs.write f (Bytes.of_string (String.sub data pos n)));
         pos + n)
       0 cuts);
  Alcotest.(check int) "size" (String.length data) (Vfs.size v "/f");
  Alcotest.(check bool) "contents" true (Vfs.contents v "/f" = data);
  let pread off n = Bytes.to_string (Vfs.pread f ~off n) in
  Alcotest.(check string) "across one boundary" (String.sub data (block - 10) 20)
    (pread (block - 10) 20);
  Alcotest.(check bool) "across two boundaries" true
    (pread 5 ((2 * block) + 10) = String.sub data 5 ((2 * block) + 10));
  Alcotest.(check bool) "short at eof" true
    (pread (2 * block) 1000 = String.sub data (2 * block) 100);
  (* Sequential reads in odd-sized pieces reassemble the file. *)
  let r = Vfs.open_ v "/f" `Read in
  let buf = Buffer.create (String.length data) in
  let rec drain () =
    let b = Vfs.read r 40_000 in
    if Bytes.length b > 0 then begin
      Buffer.add_bytes buf b;
      drain ()
    end
  in
  drain ();
  Alcotest.(check bool) "sequential reads" true (Buffer.contents buf = data)

let test_vfs_blocks_append_put () =
  let v = Vfs.create () in
  let big = pattern (block + 4464) in
  Vfs.put v "/log" big;
  Alcotest.(check bool) "put > one block" true (Vfs.contents v "/log" = big);
  let f = Vfs.open_ v "/log" `Append in
  ignore (Vfs.write f (Bytes.of_string "xyz"));
  Alcotest.(check int) "appended size" (String.length big + 3) (Vfs.size v "/log");
  Alcotest.(check bool) "appended" true (Vfs.contents v "/log" = big ^ "xyz");
  (* Overwrite in place from offset 0 across the boundary. *)
  let w = Vfs.open_ v "/log" `Write in
  let head = String.make (block + 10) 'w' in
  ignore (Vfs.write w (Bytes.of_string head));
  Alcotest.(check bool) "overwrite keeps the tail" true
    (Vfs.contents v "/log"
    = head ^ String.sub (big ^ "xyz") (block + 10) (String.length big + 3 - block - 10));
  Vfs.put v "/empty" "";
  Alcotest.(check bool) "put empty exists" true (Vfs.exists v "/empty");
  Alcotest.(check int) "put empty size" 0 (Vfs.size v "/empty");
  Alcotest.(check string) "put empty contents" "" (Vfs.contents v "/empty");
  Alcotest.(check string) "read empty" ""
    (Bytes.to_string (Vfs.read (Vfs.open_ v "/empty" `Read) 10))

let test_vfs_write_copies () =
  let v = Vfs.create () in
  let f = Vfs.open_ v "/f" `Create in
  (* A whole aligned block, a write across the next boundary and a short
     one; each buffer is overwritten as soon as [write] returns. *)
  List.iter
    (fun n ->
      let b = Bytes.make n 'a' in
      ignore (Vfs.write f b);
      Bytes.fill b 0 n 'z')
    [ block; block + 10; 4 ];
  Alcotest.(check bool) "file keeps what was written" true
    (Vfs.contents v "/f" = String.make ((2 * block) + 14) 'a')

(* --- Fdtable --- *)

let test_fdtable_alloc_order () =
  let t = Fdesc.Fdtable.create () in
  Alcotest.(check int) "stdio reserved" 3 (Fdesc.Fdtable.alloc t Fdesc.Null);
  Alcotest.(check int) "next" 4 (Fdesc.Fdtable.alloc t Fdesc.Null);
  Fdesc.Fdtable.close t 3;
  Alcotest.(check int) "lowest free reused" 3 (Fdesc.Fdtable.alloc t Fdesc.Null)

let test_fdtable_dup_shares_pipe () =
  let t = Fdesc.Fdtable.create () in
  let p = Pipe.create ~engine:idle () in
  let rfd = Fdesc.Fdtable.alloc t (Fdesc.Pipe_read p) in
  let t' = Fdesc.Fdtable.dup_all t in
  (* Closing one copy does not close the pipe end... *)
  Fdesc.Fdtable.close t rfd;
  Alcotest.(check bool) "still open" true (Pipe.read_open p);
  (* ...closing the last one does. *)
  Fdesc.Fdtable.close t' rfd;
  Alcotest.(check bool) "closed" false (Pipe.read_open p)

let test_fdtable_close_all () =
  let t = Fdesc.Fdtable.create () in
  let p = Pipe.create ~engine:idle () in
  ignore (Fdesc.Fdtable.alloc t (Fdesc.Pipe_write p));
  Fdesc.Fdtable.close_all t;
  Alcotest.(check int) "empty" 0 (Fdesc.Fdtable.open_count t);
  Alcotest.(check bool) "pipe write closed" false (Pipe.write_open p);
  (* Closing a write end wakes its readers, so the order readers wake in
     is the order [close_all] closed the descriptors: ascending fd, not
     allocation order. Fds 3..6 end up holding pipes 2, 0, 3, 1, with fds
     3 and 4 freed and refilled after fd 5 was taken. *)
  let t = Fdesc.Fdtable.create () in
  let e = Engine.create ~cores:1 () in
  let pipes = Array.init 4 (fun _ -> Pipe.create ~engine:e ()) in
  List.iter
    (fun i -> ignore (Fdesc.Fdtable.alloc t (Fdesc.Pipe_write pipes.(i))))
    [ 2; 1; 3 ];
  Fdesc.Fdtable.close t 4;
  Fdesc.Fdtable.close t 3;
  List.iter
    (fun i -> ignore (Fdesc.Fdtable.alloc t (Fdesc.Pipe_write pipes.(i))))
    [ 2; 0; 1 ];
  let woke = ref [] in
  Array.iteri
    (fun i p ->
      ignore
        (Engine.spawn e (fun () ->
             Sync.Cond.wait (Pipe.readable p);
             woke := i :: !woke)))
    pipes;
  Engine.run e;
  Fdesc.Fdtable.close_all t;
  Engine.run e;
  Alcotest.(check (list int)) "readers woken in ascending fd order"
    [ 2; 0; 3; 1 ] (List.rev !woke)

let test_fdtable_bad_fd () =
  let t = Fdesc.Fdtable.create () in
  Alcotest.check_raises "get" Not_found (fun () ->
      ignore (Fdesc.Fdtable.get t 99));
  Alcotest.check_raises "close" Not_found (fun () -> Fdesc.Fdtable.close t 99)

(* The fd table against an int-map model: alloc takes the lowest free
   fd; get and close of a free, out-of-range or negative fd raise
   [Not_found]; [dup_all] shares refcounts, so a pipe end closes only
   when its last descriptor in either table goes; [close_all] empties
   the table in ascending fd order. Descriptions are pipe write ends,
   one pipe each. *)
type fd_op = F_alloc | F_get of int | F_close of int | F_dup | F_close_all

let pp_fd_op = function
  | F_alloc -> "alloc"
  | F_get fd -> Printf.sprintf "get %d" fd
  | F_close fd -> Printf.sprintf "close %d" fd
  | F_dup -> "dup_all"
  | F_close_all -> "close_all"

module Int_map = Map.Make (Int)

let prop_fdtable_model =
  QCheck.Test.make ~name:"array fd table = int-map model" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map pp_fd_op ops))
        Gen.(
          list_size (0 -- 80)
            (frequency
               [
                 (6, return F_alloc);
                 (4, map (fun fd -> F_get fd) (-3 -- 40));
                 (4, map (fun fd -> F_close fd) (-3 -- 40));
                 (1, return F_dup);
                 (1, return F_close_all);
               ])))
    (fun ops ->
      let t = Fdesc.Fdtable.create () in
      (* A second table that [dup_all] copies into, so shared refcounts
         are observable: pipe [i] stays open while either table holds
         it. *)
      let other = ref (Fdesc.Fdtable.create ()) in
      let other_model = ref Int_map.empty in
      let model =
        ref (Int_map.of_seq (List.to_seq [ (0, -1); (1, -1); (2, -1) ]))
      in
      let pipes = ref [] in
      (* The readers [F_close_all] blocks all finish within its step, so
         one machine serves every step. *)
      let e = Engine.create ~cores:1 () in
      let holds m i = Int_map.exists (fun _ j -> j = i) m in
      let held i = holds !model i || holds !other_model i in
      let lowest_free m =
        let rec go fd = if Int_map.mem fd m then go (fd + 1) else fd in
        go 0
      in
      let desc_ok fd d =
        match (Int_map.find fd !model, d) with
        | -1, Fdesc.Null -> true
        | i, Fdesc.Pipe_write p -> p == List.assoc i !pipes
        | _ -> false
      in
      let step = function
        | F_alloc ->
            let i = List.length !pipes in
            let p = Pipe.create ~engine:e () in
            pipes := (i, p) :: !pipes;
            let fd = Fdesc.Fdtable.alloc t (Fdesc.Pipe_write p) in
            let expected = lowest_free !model in
            model := Int_map.add fd i !model;
            fd = expected
        | F_get fd -> (
            match Fdesc.Fdtable.get t fd with
            | d -> Int_map.mem fd !model && desc_ok fd d
            | exception Not_found -> not (Int_map.mem fd !model))
        | F_close fd -> (
            match Fdesc.Fdtable.close t fd with
            | () ->
                Int_map.mem fd !model
                && (model := Int_map.remove fd !model;
                    true)
            | exception Not_found -> not (Int_map.mem fd !model))
        | F_dup ->
            Fdesc.Fdtable.close_all !other;
            other := Fdesc.Fdtable.dup_all t;
            other_model := !model;
            Int_map.for_all
              (fun fd _ -> desc_ok fd (Fdesc.Fdtable.get !other fd))
              !model
        | F_close_all ->
            (* A reader blocked on each pipe this shuts wakes as its
               write end closes, so the wake order is the close order.
               Readers start in descending fd order. *)
            let closing =
              Int_map.fold
                (fun _ i acc ->
                  if i >= 0 && not (holds !other_model i) then i :: acc
                  else acc)
                !model []
            in
            let woke = ref [] in
            List.iter
              (fun i ->
                ignore
                  (Engine.spawn e (fun () ->
                       Sync.Cond.wait (Pipe.readable (List.assoc i !pipes));
                       woke := i :: !woke)))
              closing;
            Engine.run e;
            Fdesc.Fdtable.close_all t;
            Engine.run e;
            model := Int_map.empty;
            !woke = closing
      in
      List.for_all
        (fun op ->
          step op
          && Fdesc.Fdtable.open_count t = Int_map.cardinal !model
          && List.for_all (fun (i, p) -> Pipe.write_open p = held i) !pipes)
        ops)

(* --- Kernel services through the API --- *)

let test_malloc_bounds () =
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc 100 in
        Capability.length c >= 100
        && Capability.tag c
        && not (Ufork_cheri.Perms.has (Capability.perms c) Ufork_cheri.Perms.system))
  in
  Alcotest.(check bool) "bounded user cap" true ok

let test_malloc_oob_access () =
  let violated =
    in_proc (fun api ->
        let c = api.Api.malloc 32 in
        match api.Api.read_bytes c ~off:0 ~len:64 with
        | exception Capability.Violation _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "capability stops overread" true violated

let test_malloc_enomem () =
  let raised =
    in_proc (fun api ->
        match api.Api.malloc (512 * 1024 * 1024) with
        | exception Api.Sys_error e -> String.length e > 0
        | _ -> false)
  in
  Alcotest.(check bool) "ENOMEM" true raised

let test_free_and_reuse () =
  let same =
    in_proc (fun api ->
        let c1 = api.Api.malloc 64 in
        api.Api.free c1;
        let c2 = api.Api.malloc 64 in
        Capability.base c1 = Capability.base c2)
  in
  Alcotest.(check bool) "free returns memory" true same

let test_malloc_recycled_memory_is_tag_free () =
  (* Heap temporal safety: a freed block containing valid capabilities
     must come back from malloc with every tag cleared — otherwise stale
     authority would leak to the next owner (this exact hazard corrupted
     the kvstore's rehashed bucket array before the allocator cleared
     tags, caught by the cross-system property test). *)
  let ok =
    in_proc (fun api ->
        let a = api.Api.malloc 64 in
        let target = api.Api.malloc 16 in
        api.Api.store_cap a ~off:0 target;
        api.Api.store_cap a ~off:48 target;
        api.Api.free a;
        let b = api.Api.malloc 64 in
        (* First-fit hands back the same memory... *)
        Capability.base b = Capability.base a
        (* ...with no stale capabilities inside. *)
        && (not (Capability.tag (api.Api.load_cap b ~off:0)))
        && not (Capability.tag (api.Api.load_cap b ~off:48)))
  in
  Alcotest.(check bool) "recycled memory is tag-free" true ok

let test_got_roundtrip () =
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc 16 in
        api.Api.got_set 3 c;
        Capability.equal (api.Api.got_get 3) c)
  in
  Alcotest.(check bool) "GOT roundtrip" true ok

let test_got_slot_range () =
  let raised =
    in_proc (fun api ->
        match api.Api.got_set 100000 (api.Api.malloc 16) with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "GOT slot bound" true raised

let test_file_syscalls () =
  let contents =
    in_proc (fun api ->
        let fd = api.Api.open_ "/t" `Create in
        ignore (api.Api.write fd (Bytes.of_string "data1"));
        api.Api.close fd;
        let fd = api.Api.open_ "/t" `Read in
        let b = api.Api.read fd 5 in
        api.Api.close fd;
        api.Api.rename ~src:"/t" ~dst:"/t2";
        Bytes.to_string b)
  in
  Alcotest.(check string) "file roundtrip" "data1" contents

let test_pread () =
  let s, got =
    in_proc (fun api ->
        let w = api.Api.open_ "/p" `Create in
        ignore (api.Api.write w (Bytes.of_string "0123456789"));
        let s = Bytes.to_string (api.Api.pread w ~off:4 3) in
        api.Api.close w;
        (* pread leaves the offset that read continues from alone. *)
        let fd = api.Api.open_ "/p" `Read in
        let a = api.Api.read fd 2 in
        let b = api.Api.pread fd ~off:6 2 in
        let c = api.Api.read fd 2 in
        (s, List.map Bytes.to_string [ a; b; c ]))
  in
  Alcotest.(check string) "pread" "456" s;
  Alcotest.(check (list string)) "read, pread, read" [ "01"; "67"; "23" ] got

let test_bad_fd () =
  let msg =
    in_proc (fun api ->
        match api.Api.read 42 1 with
        | exception Api.Sys_error e -> e
        | _ -> "")
  in
  Alcotest.(check string) "EBADF" "EBADF" msg

(* A zero-length read returns at once, empty pipe or not; a negative
   length (or pread offset) is EINVAL whatever the descriptor is. *)
let test_read_lengths () =
  let zero, einvals =
    in_proc (fun api ->
        let rfd, wfd = api.Api.pipe () in
        let on_empty = api.Api.read rfd 0 in
        ignore (api.Api.write wfd (Bytes.of_string "x"));
        let on_data = api.Api.read rfd 0 in
        let rest = api.Api.read rfd 1 in
        let fd = api.Api.open_ "/z" `Create in
        ignore (api.Api.write fd (Bytes.of_string "abc"));
        let errno f =
          match f () with
          | (_ : bytes) -> "ok"
          | exception Api.Sys_error e -> e
        in
        ( List.map Bytes.to_string [ on_empty; on_data; rest ],
          List.map errno
            [
              (fun () -> api.Api.read rfd (-1));
              (fun () -> api.Api.read wfd (-1));
              (fun () -> api.Api.read fd (-1));
              (fun () -> api.Api.read 0 (-1));
              (fun () -> api.Api.pread fd ~off:0 (-1));
              (fun () -> api.Api.pread rfd ~off:0 (-1));
              (fun () -> api.Api.pread fd ~off:(-1) 1);
            ] ))
  in
  Alcotest.(check (list string)) "zero-length reads" [ ""; ""; "x" ] zero;
  Alcotest.(check (list string)) "negative lengths"
    (List.init 7 (fun _ -> "EINVAL"))
    einvals

let test_pipe_through_api () =
  let got =
    in_proc (fun api ->
        let rfd, wfd = api.Api.pipe () in
        ignore (api.Api.write wfd (Bytes.of_string "ping"));
        Bytes.to_string (api.Api.read rfd 4))
  in
  Alcotest.(check string) "pipe" "ping" got

(* One non-blocking pipe write and read through the API: syscall entry,
   span, fd lookup and the ring copy, measured inside the process's
   engine thread. The budget covers the returned bytes, the result
   constructors, the copy events and the per-call body closures: 26
   words. *)
let test_pipe_pair_allocation () =
  let words =
    in_proc (fun api ->
        let rfd, wfd = api.Api.pipe () in
        let msg = Bytes.of_string "ping" in
        let pair () =
          ignore (api.Api.write wfd msg);
          ignore (api.Api.read rfd 4)
        in
        pair ();
        let rounds = 1000 in
        let w0 = Gc.minor_words () in
        for _ = 1 to rounds do
          pair ()
        done;
        (Gc.minor_words () -. w0) /. float_of_int rounds)
  in
  if words > 26. then
    Alcotest.failf "a pipe write+read pair allocates %.1f words (budget 26)"
      words

let test_wait_echild () =
  let raised =
    in_proc (fun api ->
        match api.Api.wait () with
        | exception Api.Sys_error e -> e
        | _ -> "")
  in
  Alcotest.(check string) "ECHILD" "ECHILD" raised

let test_time_advances () =
  let d =
    in_proc (fun api ->
        let t0 = api.Api.now () in
        api.Api.compute 1234L;
        Int64.sub (api.Api.now ()) t0)
  in
  Alcotest.(check int64) "compute advances clock" 1234L d

let test_demand_zero_heap () =
  (* Writing into an allocated block that spans unmaterialized pages works
     (pages appear on demand and read back zero). *)
  let ok =
    in_proc (fun api ->
        let c = api.Api.malloc (3 * 4096) in
        api.Api.write_u64 c ~off:(2 * 4096) 9L;
        api.Api.read_u64 c ~off:(2 * 4096) = 9L
        && api.Api.read_u64 c ~off:4096 = 0L)
  in
  Alcotest.(check bool) "demand zero" true ok

let test_no_isolation_wide_caps () =
  let wide =
    in_proc
      ~config:(Config.with_isolation Config.No_isolation Config.ufork_fast)
      (fun api ->
        let c = api.Api.malloc 16 in
        Capability.length c > 1_000_000_000)
  in
  Alcotest.(check bool) "no-isolation caps are wide" true wide

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("config presets", `Quick, test_config_presets);
    ("image layout", `Quick, test_image_layout);
    ("image validation", `Quick, test_image_validation);
    ("region of addr", `Quick, test_region_of_addr);
    ("alloc basic", `Quick, test_alloc_basic);
    ("alloc free/reuse", `Quick, test_alloc_free_reuse);
    ("alloc coalescing", `Quick, test_alloc_coalescing);
    ("alloc bad free", `Quick, test_alloc_bad_free);
    ("alloc clone", `Quick, test_alloc_clone);
    ("alloc meta exhaustion", `Quick, test_alloc_meta_exhaustion);
    ("block_of_addr", `Quick, test_block_of_addr);
    ("pipe fifo", `Quick, test_pipe_fifo);
    ("pipe capacity", `Quick, test_pipe_capacity);
    ("pipe eof/epipe", `Quick, test_pipe_eof_and_epipe);
    ("pipe empty", `Quick, test_pipe_empty);
    qt prop_pipe_model;
    ("vfs crud", `Quick, test_vfs_crud);
    ("vfs streaming", `Quick, test_vfs_streaming);
    ("vfs append/grow", `Quick, test_vfs_append_grows);
    ("vfs blocks: write/read", `Quick, test_vfs_blocks_write_read);
    ("vfs blocks: append/put", `Quick, test_vfs_blocks_append_put);
    ("vfs write copies", `Quick, test_vfs_write_copies);
    ("fdtable alloc order", `Quick, test_fdtable_alloc_order);
    ("fdtable dup shares", `Quick, test_fdtable_dup_shares_pipe);
    ("fdtable close_all", `Quick, test_fdtable_close_all);
    ("fdtable bad fd", `Quick, test_fdtable_bad_fd);
    qt prop_fdtable_model;
    ("malloc bounds", `Quick, test_malloc_bounds);
    ("malloc oob access", `Quick, test_malloc_oob_access);
    ("malloc enomem", `Quick, test_malloc_enomem);
    ("free and reuse", `Quick, test_free_and_reuse);
    ("malloc recycled tag-free", `Quick, test_malloc_recycled_memory_is_tag_free);
    ("got roundtrip", `Quick, test_got_roundtrip);
    ("got slot range", `Quick, test_got_slot_range);
    ("file syscalls", `Quick, test_file_syscalls);
    ("pread", `Quick, test_pread);
    ("bad fd", `Quick, test_bad_fd);
    ("read lengths", `Quick, test_read_lengths);
    ("pipe via api", `Quick, test_pipe_through_api);
    ("pipe pair allocation", `Quick, test_pipe_pair_allocation);
    ("wait ECHILD", `Quick, test_wait_echild);
    ("time advances", `Quick, test_time_advances);
    ("demand zero heap", `Quick, test_demand_zero_heap);
    ("no isolation wide caps", `Quick, test_no_isolation_wide_caps);
    qt prop_alloc_no_overlap;
    qt prop_alloc_free_all_restores;
  ]
