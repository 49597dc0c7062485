(* Tests for the applications: the Redis-like store + RDB serializer, the
   MicroPython-like interpreter, the Zygote FaaS loop, the Nginx-like
   server, Unixbench ports and hello. *)

module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Os = Ufork_core.Os
module Strategy = Ufork_core.Strategy
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Mpy = Ufork_apps.Mpy
module Faas = Ufork_apps.Faas
module Httpd = Ufork_apps.Httpd
module Unixbench = Ufork_apps.Unixbench
module Hello = Ufork_apps.Hello
module Units = Ufork_util.Units

let big_image = Image.redis ~heap_bytes:(8 * 1024 * 1024)

let run_os ?(cores = 4) ?(image = big_image) f =
  let os = Os.boot ~cores () in
  let result = ref None in
  let _ = Os.start os ~image (fun api -> result := Some (f os api)) in
  Os.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- Kvstore --- *)

let test_kv_set_get () =
  let v =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"alpha" ~value:(Bytes.of_string "one");
        Kvstore.set kv ~key:"beta" ~value:(Bytes.of_string "two");
        ( Kvstore.get kv ~key:"alpha",
          Kvstore.get kv ~key:"beta",
          Kvstore.get kv ~key:"gamma",
          Kvstore.count kv ))
  in
  let a, b, g, n = v in
  Alcotest.(check (option string)) "alpha" (Some "one")
    (Option.map Bytes.to_string a);
  Alcotest.(check (option string)) "beta" (Some "two")
    (Option.map Bytes.to_string b);
  Alcotest.(check (option string)) "missing" None (Option.map Bytes.to_string g);
  Alcotest.(check int) "count" 2 n

let test_kv_overwrite () =
  let v, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "first");
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "second value");
        (Kvstore.get kv ~key:"k", Kvstore.count kv))
  in
  Alcotest.(check (option string)) "overwritten" (Some "second value")
    (Option.map Bytes.to_string v);
  Alcotest.(check int) "count unchanged" 1 n

let test_kv_delete () =
  let deleted, missing, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"a" ~value:(Bytes.of_string "1");
        Kvstore.set kv ~key:"b" ~value:(Bytes.of_string "2");
        let d = Kvstore.delete kv ~key:"a" in
        let m = Kvstore.delete kv ~key:"zz" in
        (d, m, Kvstore.count kv))
  in
  Alcotest.(check bool) "deleted" true deleted;
  Alcotest.(check bool) "missing delete" false missing;
  Alcotest.(check int) "count" 1 n

let test_kv_collisions () =
  (* A 1-bucket store forces every key onto one chain. *)
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:1 () in
        for i = 0 to 49 do
          Kvstore.set kv ~key:(Printf.sprintf "k%d" i)
            ~value:(Bytes.of_string (string_of_int i))
        done;
        let all_ok = ref true in
        for i = 0 to 49 do
          match Kvstore.get kv ~key:(Printf.sprintf "k%d" i) with
          | Some v when Bytes.to_string v = string_of_int i -> ()
          | _ -> all_ok := false
        done;
        ignore (Kvstore.delete kv ~key:"k25");
        !all_ok
        && Kvstore.get kv ~key:"k25" = None
        && Kvstore.count kv = 49)
  in
  Alcotest.(check bool) "chained buckets" true ok

let test_kv_iter () =
  let keys =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        List.iter
          (fun k -> Kvstore.set kv ~key:k ~value:(Bytes.of_string k))
          [ "x"; "y"; "z" ];
        let acc = ref [] in
        Kvstore.iter kv (fun ~key ~value_len ~read_value ->
            let v = read_value () in
            if Bytes.length v = value_len then acc := key :: !acc);
        List.sort compare !acc)
  in
  Alcotest.(check (list string)) "iterated all" [ "x"; "y"; "z" ] keys

let test_kv_empty_value () =
  let v =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"empty" ~value:Bytes.empty;
        Kvstore.get kv ~key:"empty")
  in
  Alcotest.(check (option string)) "empty value" (Some "")
    (Option.map Bytes.to_string v)

let test_kv_large_value () =
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api () in
        let v = Bytes.init (300 * 1024) (fun i -> Char.chr (i mod 251)) in
        Kvstore.set kv ~key:"big" ~value:v;
        Kvstore.get kv ~key:"big" = Some v)
  in
  Alcotest.(check bool) "300KB value roundtrip" true ok

let test_kv_rehash () =
  let grown, all_present, n =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:4 () in
        for i = 0 to 99 do
          Kvstore.set kv ~key:(Printf.sprintf "r%03d" i)
            ~value:(Bytes.of_string (string_of_int (i * i)))
        done;
        let ok = ref true in
        for i = 0 to 99 do
          match Kvstore.get kv ~key:(Printf.sprintf "r%03d" i) with
          | Some v when Bytes.to_string v = string_of_int (i * i) -> ()
          | _ -> ok := false
        done;
        (Kvstore.bucket_count kv > 4, !ok, Kvstore.count kv))
  in
  Alcotest.(check bool) "bucket array grew" true grown;
  Alcotest.(check bool) "all entries survive rehash" true all_present;
  Alcotest.(check int) "count" 100 n

let test_kv_rehash_across_fork () =
  (* A child snapshotting a just-rehashed dict walks the new array. *)
  let ok =
    run_os (fun _os api ->
        let kv = Kvstore.create api ~buckets:2 () in
        for i = 0 to 19 do
          Kvstore.set kv ~key:(Printf.sprintf "f%d" i)
            ~value:(Bytes.of_string (string_of_int i))
        done;
        ignore
          (api.Api.fork (fun capi ->
               let kv' = Kvstore.open_ capi in
               let seen = ref 0 in
               Kvstore.iter kv' (fun ~key:_ ~value_len:_ ~read_value ->
                   ignore (read_value ());
                   incr seen);
               capi.Api.exit (if !seen = 20 then 0 else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "forked child walks rehashed dict" true ok

(* Model-based property: the store behaves like a Hashtbl. *)
let prop_kv_model =
  QCheck.Test.make ~name:"kvstore = hashtable model" ~count:30
    QCheck.(
      list_of_size Gen.(1 -- 60)
        (pair (int_range 0 15) (string_of_size Gen.(0 -- 40))))
    (fun ops ->
      run_os (fun _os api ->
          let kv = Kvstore.create api ~buckets:4 () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, v) ->
              let key = Printf.sprintf "key%d" k in
              if String.length v mod 7 = 0 && Hashtbl.mem model key then begin
                ignore (Kvstore.delete kv ~key);
                Hashtbl.remove model key
              end
              else begin
                Kvstore.set kv ~key ~value:(Bytes.of_string v);
                Hashtbl.replace model key v
              end)
            ops;
          Hashtbl.fold
            (fun k v acc ->
              acc
              && Kvstore.get kv ~key:k = Some (Bytes.of_string v))
            model
            (Kvstore.count kv = Hashtbl.length model)))

(* --- Rdb --- *)

let test_rdb_roundtrip () =
  let dump, expected =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        let entries =
          [ ("k1", "value-one"); ("k2", ""); ("k3", String.make 5000 'z') ]
        in
        List.iter
          (fun (k, v) -> Kvstore.set kv ~key:k ~value:(Bytes.of_string v))
          entries;
        ignore (Rdb.save_to api kv ~path:"/dump.rdb");
        (Vfs.contents (Kernel.vfs (Os.kernel os)) "/dump.rdb", entries))
  in
  let got =
    Rdb.verify dump
    |> List.map (fun (k, v) -> (k, Bytes.to_string v))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "roundtrip" expected got

let test_rdb_detects_corruption () =
  let dump =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "vvvv");
        ignore (Rdb.save_to api kv ~path:"/d");
        Vfs.contents (Kernel.vfs (Os.kernel os)) "/d")
  in
  (* Flip a payload byte: checksum must catch it. *)
  let b = Bytes.of_string dump in
  let off = String.length Rdb.magic + 8 + 1 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  (match Rdb.verify (Bytes.to_string b) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "corruption not detected");
  (* A wrong entry count: the footer is not checksummed, so only the
     count check can see it. *)
  let b = Bytes.of_string dump in
  let count_at = String.length dump - 8 in
  Bytes.set b count_at (Char.chr (Char.code (Bytes.get b count_at) + 1));
  (match Rdb.verify (Bytes.to_string b) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "wrong entry count not detected");
  (* Truncation must be caught too. *)
  match Rdb.verify (String.sub dump 0 (String.length dump - 3)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncation not detected"

let test_rdb_bad_magic () =
  match Rdb.verify "XXXX0000 garbage garbage" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad magic accepted"

let test_rdb_bgsave_snapshot_consistency () =
  (* The paper's Redis use-case (U4): the parent keeps mutating while the
     child dumps; the dump must reflect the fork instant. We pin both to
     one core so the parent provably runs between child time slices. *)
  let dump_entries, parent_final =
    run_os ~cores:1 (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "snapshot");
        ignore
          (api.Api.fork (fun capi ->
               let kv' = Kvstore.open_ capi in
               ignore (Rdb.save_to capi kv' ~path:"/snap");
               capi.Api.exit 0));
        (* Mutate immediately after fork, before the child is scheduled or
           while it copies. *)
        Kvstore.set kv ~key:"k" ~value:(Bytes.of_string "mutated!");
        Kvstore.set kv ~key:"k2" ~value:(Bytes.of_string "new");
        ignore (api.Api.wait ());
        let dump = Vfs.contents (Kernel.vfs (Os.kernel os)) "/snap" in
        ( Rdb.verify dump |> List.map (fun (k, v) -> (k, Bytes.to_string v)),
          Option.map Bytes.to_string (Kvstore.get kv ~key:"k") ))
  in
  Alcotest.(check (list (pair string string)))
    "dump holds the fork-instant state"
    [ ("k", "snapshot") ]
    dump_entries;
  Alcotest.(check (option string)) "parent moved on" (Some "mutated!")
    parent_final

let test_rdb_bgsave_result () =
  let r, exists =
    run_os (fun os api ->
        let kv = Kvstore.create api () in
        Kvstore.set kv ~key:"a" ~value:(Bytes.of_string "b");
        let r = Rdb.bgsave api kv ~path:"/bg" in
        (r, Vfs.exists (Kernel.vfs (Os.kernel os)) "/bg"))
  in
  Alcotest.(check bool) "file exists" true exists;
  Alcotest.(check bool) "latency < total" true
    (r.Rdb.fork_latency_cycles < r.Rdb.total_cycles);
  Alcotest.(check bool) "latency positive" true (r.Rdb.fork_latency_cycles > 0L)

(* The dump writer as it was when it went through a [Buffer]: every byte
   copied through the buffer and checksummed one at a time. [save_to] must
   produce the same file through the same [compute] and [write] calls. *)
let reference_save_to (api : Api.t) store ~path =
  let chunk = 64 * 1024 in
  let serialize_cost len = Int64.of_int (len + (len / 2) + (len / 20)) in
  let put_u32 buf v =
    Buffer.add_char buf (Char.chr (v land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))
  in
  let fd = api.Api.open_ (path ^ ".tmp") `Create in
  let written = ref 0 in
  let checksum = ref 0 in
  let pending = Buffer.create (2 * chunk) in
  let flush_pending ~all () =
    while Buffer.length pending >= chunk || (all && Buffer.length pending > 0)
    do
      let n = min chunk (Buffer.length pending) in
      let b = Bytes.of_string (Buffer.sub pending 0 n) in
      let rest = Buffer.sub pending n (Buffer.length pending - n) in
      Buffer.clear pending;
      Buffer.add_string pending rest;
      written := !written + api.Api.write fd b
    done
  in
  let emit s =
    String.iter (fun c -> checksum := (!checksum + Char.code c) land 0xffffffff) s;
    Buffer.add_string pending s;
    api.Api.compute (serialize_cost (String.length s));
    flush_pending ~all:false ()
  in
  api.Api.compute 500_000L;
  let iobuf = api.Api.malloc chunk in
  Buffer.add_string pending Rdb.magic;
  let entries = ref 0 in
  Kvstore.iter store (fun ~key ~value_len:_ ~read_value ->
      incr entries;
      let value = read_value () in
      let hdr = Buffer.create 16 in
      put_u32 hdr (String.length key);
      put_u32 hdr (Bytes.length value);
      emit (Buffer.contents hdr);
      emit key;
      emit (Bytes.to_string value));
  let footer = Buffer.create 16 in
  put_u32 footer 0xffffffff;
  put_u32 footer !entries;
  put_u32 footer !checksum;
  emit (Buffer.contents footer);
  flush_pending ~all:true ();
  api.Api.close fd;
  api.Api.rename ~src:(path ^ ".tmp") ~dst:path;
  api.Api.free iobuf;
  !written

(* [api] with its [compute] and [write] calls logged, in call order. *)
let logging_api (api : Api.t) =
  let log = ref [] in
  ( {
      api with
      Api.compute =
        (fun c ->
          log := `Compute c :: !log;
          api.Api.compute c);
      write =
        (fun fd b ->
          log := `Write (Bytes.length b) :: !log;
          api.Api.write fd b);
    },
    fun () -> List.rev !log )

(* A value length drawn so that empty values, values of exactly one chunk
   and values a few bytes either side of one or two chunks all occur. *)
let value_len_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return 0);
        (1, return (64 * 1024));
        (2, int_range ((64 * 1024) - 8) ((64 * 1024) + 8));
        (2, int_range ((128 * 1024) - 8) ((128 * 1024) + 8));
        (3, int_range 1 300);
        (3, int_range 0 (200 * 1024));
      ])

let store_gen =
  QCheck.Gen.(
    list_size (int_range 0 40)
      (triple (string_size ~gen:printable (int_range 1 40)) value_len_gen
         (int_range 0 255)))

let fill_value len seed =
  Bytes.init len (fun i -> Char.chr ((seed + (i * 131) + (i lsr 9)) land 0xff))

(* Store the (key, value length, fill seed) entries, dump them with
   [save_to] and with the reference writer, and compare. *)
let save_matches_reference spec =
  run_os ~image:(Image.redis ~heap_bytes:(16 * 1024 * 1024)) (fun os api ->
    let kv = Kvstore.create api () in
    List.iter
      (fun (key, len, seed) ->
        Kvstore.set kv ~key ~value:(fill_value len seed))
      spec;
    let stored = ref [] in
    Kvstore.iter kv (fun ~key ~value_len:_ ~read_value ->
        stored := (key, read_value ()) :: !stored);
    let api_new, log_new = logging_api api in
    let n_new = Rdb.save_to api_new kv ~path:"/new" in
    let api_ref, log_ref = logging_api api in
    let n_ref = reference_save_to api_ref kv ~path:"/ref" in
    let vfs = Kernel.vfs (Os.kernel os) in
    let dump = Vfs.contents vfs "/new" in
    let writes =
      List.filter_map (function `Write n -> Some n | `Compute _ -> None)
        (log_new ())
    in
    let rec chunked = function
      | [] -> true
      | [ last ] -> last > 0 && last <= 64 * 1024
      | n :: rest -> n = 64 * 1024 && chunked rest
    in
    dump = Vfs.contents vfs "/ref"
    && n_new = n_ref
    && n_new = String.length dump
    && log_new () = log_ref ()
    && chunked writes
    && Rdb.verify dump = List.rev !stored
    && Rdb.load_count dump = List.length !stored)

let prop_save_matches_reference =
  QCheck.Test.make ~name:"rdb save_to = buffered reference, 64 KiB writes"
    ~count:30
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map (fun (k, n, _) -> Printf.sprintf "%S:%d" k n) l))
       store_gen)
    save_matches_reference

let test_rdb_chunk_edges () =
  (* One entry with a 1-byte key: the value ends 17 + len bytes into the
     stream and the footer ends 12 bytes later. These lengths put a chunk
     boundary one byte before, at and one byte after the end of the value,
     inside the footer, and leave a last chunk of 0 and of 1 byte. *)
  List.iter
    (fun len ->
      Alcotest.(check bool)
        (Printf.sprintf "value of %d bytes" len)
        true
        (save_matches_reference [ ("k", len, 3) ]))
    [ 65507; 65508; 65509; 65513; 65518; 65519; 65520 ];
  Alcotest.(check bool) "empty store" true (save_matches_reference [])

let byte_sum acc s off len =
  let sum = ref acc in
  for i = off to off + len - 1 do
    sum := (!sum + Char.code s.[i]) land 0xffffffff
  done;
  !sum

let prop_checksum_matches_byte_loop =
  QCheck.Test.make ~name:"rdb checksum_add = byte loop" ~count:500
    QCheck.(
      triple (string_of_size Gen.(0 -- 3000)) (int_range 0 17)
        (pair (int_range 0 17) (int_range 0 0xffffffff)))
    (fun (s, off, (short, acc)) ->
      let off = min off (String.length s) in
      let rest = String.length s - off in
      (* A short length (within one word) and the whole remainder. *)
      List.for_all
        (fun len -> Rdb.checksum_add acc s off len = byte_sum acc s off len)
        [ min short rest; rest ])

let test_checksum_lane_carry () =
  (* All-ones bytes fill every lane fastest: 64 KiB and more must fold
     before a lane carries into its neighbour. *)
  List.iter
    (fun (n, off) ->
      let s = String.make n '\xff' in
      Alcotest.(check int)
        (Printf.sprintf "%d bytes at %d" (n - off) off)
        (byte_sum 7 s off (n - off))
        (Rdb.checksum_add 7 s off (n - off)))
    [ (64 * 1024, 0); ((64 * 1024) + 13, 5); (1024 * 1024, 3) ]

(* --- Dump check (Keyspace.dump_matches) --- *)

module Keyspace = Ufork_workload.Keyspace

(* A dump of the given entries, built directly from the format. *)
let encode_dump entries =
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff)) in
  let body =
    String.concat ""
      (List.map
         (fun (k, v) ->
           u32 (String.length k) ^ u32 (String.length v) ^ k ^ v)
         entries)
  in
  Rdb.magic ^ body ^ u32 0xffffffff
  ^ u32 (List.length entries)
  ^ u32 (byte_sum 0 body 0 (String.length body))

let test_dump_matches () =
  let seed = 0x5eedL and value_len = 1000 in
  let entry i =
    (Keyspace.key i, Bytes.to_string (Keyspace.value ~seed ~index:i ~len:value_len))
  in
  let check name expected entries =
    Alcotest.(check bool) name expected
      (Keyspace.dump_matches ~entries:3 ~value_len ~seed (encode_dump entries))
  in
  check "intact, any order" true [ entry 2; entry 0; entry 1 ];
  check "an entry missing" false [ entry 0; entry 2 ];
  check "a key repeated" false [ entry 0; entry 1; entry 1 ];
  check "a key out of range" false [ entry 0; entry 1; entry 3 ];
  let k, v = entry 1 in
  let flipped = Bytes.of_string v in
  Bytes.set flipped 500 (Char.chr (Char.code v.[500] lxor 0x40));
  (* The checksum is recomputed, so only the value comparison can see it. *)
  check "a value byte flipped" false [ entry 0; (k, Bytes.to_string flipped); entry 2 ];
  check "a value cut short" false [ entry 0; (k, String.sub v 0 999); entry 2 ];
  let dump = Bytes.of_string (encode_dump [ entry 0; entry 1; entry 2 ]) in
  let low = Bytes.length dump - 4 in
  Bytes.set dump low (Char.chr (Char.code (Bytes.get dump low) lxor 1));
  Alcotest.(check bool) "bad checksum" false
    (Keyspace.dump_matches ~entries:3 ~value_len ~seed (Bytes.to_string dump))

let test_pipe_throughput_positive () =
  let rate =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.pipe_throughput api ~iterations:1000)
  in
  (* ~2 syscalls + ~1 kB of copies per loop: hundreds of kloops/s. *)
  Alcotest.(check bool) "rate plausible" true (rate > 1e5 && rate < 1e7)

(* --- Mpy --- *)

let test_mpy_float_operation_value () =
  (* The interpreter must compute the same value as a direct evaluation. *)
  let n = 50 in
  let got = run_os (fun _os api -> Mpy.run api (Mpy.float_operation ~n)) in
  let expected =
    let acc = ref 0.0 in
    for i = n downto 1 do
      let fi = float_of_int i in
      acc := sqrt fi *. sin fi +. cos !acc +. !acc
    done;
    !acc
  in
  Alcotest.(check bool) "matches direct evaluation" true
    (Float.abs (got -. expected) <= 1e-9 *. Float.max 1.0 (Float.abs expected))

let test_mpy_charges_cycles () =
  let dt =
    run_os (fun _os api ->
        let t0 = api.Api.now () in
        ignore (Mpy.run api (Mpy.float_operation ~n:100));
        Int64.sub (api.Api.now ()) t0)
  in
  let est = Mpy.estimated_cycles (Mpy.float_operation ~n:100) in
  Alcotest.(check bool) "charged ~ estimate" true
    (Int64.abs (Int64.sub dt est) < Int64.div est 10L)

let test_mpy_stack_underflow () =
  let raised =
    run_os (fun _os api ->
        match Mpy.run api [| Mpy.Add; Mpy.Halt |] with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "underflow" true raised

let test_mpy_div_zero () =
  let raised =
    run_os (fun _os api ->
        match
          Mpy.run api [| Mpy.Push 1.0; Mpy.Push 0.0; Mpy.Div; Mpy.Halt |]
        with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "div by zero" true raised

let test_mpy_bad_local () =
  let raised =
    run_os (fun _os api ->
        match Mpy.run api ~locals:2 [| Mpy.Load 5; Mpy.Halt |] with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "bad local" true raised

let test_mpy_basic_ops () =
  let v =
    run_os (fun _os api ->
        Mpy.run api
          [|
            Mpy.Push 3.0; Mpy.Push 4.0; Mpy.Mul; Mpy.Push 2.0; Mpy.Sub;
            Mpy.Dup; Mpy.Add; Mpy.Halt;
          |])
  in
  Alcotest.(check bool) "(3*4-2)*2 = 20" true (Float.abs (v -. 20.) < 1e-9)

let test_mpy_matmul_value () =
  let n = 4 in
  let got =
    run_os (fun _os api ->
        Mpy.run api ~locals:(Mpy.matmul_locals ~n) (Mpy.matmul ~n))
  in
  (* Direct evaluation with the same inputs. *)
  let a i j = (float_of_int ((i * n) + j) *. 0.01) +. 0.5 in
  let b i j = (float_of_int ((j * n) + i) *. 0.02) -. 0.25 in
  let expected = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (a i k *. b k j)
      done;
      expected := !expected +. !acc
    done
  done;
  Alcotest.(check bool) "matmul checksum" true
    (Float.abs (got -. !expected) < 1e-9 *. Float.max 1.0 (Float.abs !expected))

let test_mpy_linpack_value () =
  let n = 8 in
  let got =
    run_os (fun _os api ->
        Mpy.run api ~locals:(Mpy.linpack_locals ~n) (Mpy.linpack ~n))
  in
  let x = Array.init n (fun i -> (float_of_int i *. 0.003) +. 1.0) in
  let y = Array.init n (fun i -> (float_of_int i *. 0.007) -. 0.5) in
  for rep = 1 to n do
    let a = 0.5 +. (float_of_int rep *. 0.1) in
    for i = 0 to n - 1 do
      y.(i) <- y.(i) +. (a *. x.(i))
    done
  done;
  let expected = Array.fold_left ( +. ) 0.0 y in
  Alcotest.(check bool) "linpack checksum" true
    (Float.abs (got -. expected) < 1e-9 *. Float.max 1.0 (Float.abs expected))

let test_mpy_store_idx_bounds () =
  let raised =
    run_os (fun _os api ->
        match
          Mpy.run api ~locals:4
            [| Mpy.Push 1.0; Mpy.Push 99.0; Mpy.Store_idx; Mpy.Halt |]
        with
        | exception Mpy.Runtime_error _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "indexed store checked" true raised

let test_zygote_roundtrip () =
  let n =
    run_os ~image:Image.micropython (fun _os api ->
        Mpy.zygote_init api ~modules:8;
        Mpy.zygote_check api)
  in
  Alcotest.(check int) "modules" 8 n

let test_zygote_fork_check () =
  let status =
    run_os ~image:Image.micropython (fun _os api ->
        Mpy.zygote_init api ~modules:8;
        ignore
          (api.Api.fork (fun capi ->
               capi.Api.exit (if Mpy.zygote_check capi = 8 then 0 else 1)));
        snd (api.Api.wait ()))
  in
  Alcotest.(check int) "forked runtime valid" 0 status

(* --- Faas --- *)

let test_faas_counts () =
  let r =
    run_os ~cores:3 ~image:Image.micropython (fun _os api ->
        Faas.coordinator api ~max_workers:2
          ~window_cycles:(Units.cycles_of_s 0.05)
          ~program:(Mpy.float_operation ~n:200))
  in
  Alcotest.(check bool) "some functions ran" true (r.Faas.completed > 10);
  Alcotest.(check bool) "forks >= completions" true
    (r.Faas.forks >= r.Faas.completed);
  Alcotest.(check bool) "throughput consistent" true
    (Float.abs
       (r.Faas.throughput_per_s -. (float_of_int r.Faas.completed /. 0.05))
    < 1.0)

(* --- Httpd --- *)

let test_httpd_end_to_end () =
  let os = Os.boot ~cores:1 () in
  Httpd.populate_docroot (Kernel.vfs (Os.kernel os));
  let net = Httpd.Net.create (Os.engine os) in
  let window = Units.cycles_of_s 0.02 in
  let u =
    Os.start os ~image:Image.nginx (fun api ->
        Httpd.master api ~net ~listen_rfd:3 ~listen_wfd:4 ~workers:2
          ~window_cycles:window)
  in
  let p = Httpd.Net.listen_pipe net in
  let rfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p) in
  let wfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p) in
  Alcotest.(check (pair int int)) "fds" (3, 4) (rfd, wfd);
  Httpd.Net.spawn_clients net ~connections:4
    ~window_cycles:window;
  Os.run os;
  let stats = Httpd.Net.stats net in
  Alcotest.(check bool) "served requests" true (stats.Httpd.Net.completed > 50);
  Alcotest.(check bool) "completed <= sent" true
    (stats.Httpd.Net.completed <= stats.Httpd.Net.sent)

(* Worker-count scaling on one core is asserted in test_integration. *)

(* --- Unixbench --- *)

let test_spawn_runs () =
  let cycles =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.spawn api ~iterations:20)
  in
  Alcotest.(check bool) "time accumulated" true (cycles > 0L);
  (* ~20 forks at ~55us each. *)
  let ms = Units.ms_of_cycles cycles in
  Alcotest.(check bool) "plausible range" true (ms > 0.5 && ms < 10.)

let test_context1_correct () =
  let r =
    run_os ~image:Image.hello (fun _os api ->
        Unixbench.context1 api ~iterations:500)
  in
  Alcotest.(check int) "iterations" 500 r.Unixbench.iterations;
  Alcotest.(check bool) "per switch in 1-10us" true
    (r.Unixbench.per_switch_cycles > 2500.
    && r.Unixbench.per_switch_cycles < 25000.)

(* The blocking round trip's allocation: Context1's two μprocesses on a
   4-core μFork machine ping-pong a token through two pipes — four pipe
   syscalls, two parks and two wakes per round trip. Minor words are
   read inside the engine, by the parent's thread, around two runs that
   differ only in their round-trip count, so boot, fork and reap cancel.
   What stays per round trip is the app's token buffers and the
   syscall layer's per-call closures, copy events and continuations:
   84 words. *)
let context1_round_trip_budget = 88.

let context1_words ~iterations =
  run_os ~image:Image.hello (fun _os api ->
      let w0 = Gc.minor_words () in
      ignore (Unixbench.context1 api ~iterations);
      Gc.minor_words () -. w0)

let test_context1_round_trip_allocation () =
  let short = context1_words ~iterations:200
  and long = context1_words ~iterations:2200 in
  let per = (long -. short) /. 2000. in
  if per > context1_round_trip_budget then
    Alcotest.failf "a Context1 round trip allocates %.1f words (budget %.0f)"
      per context1_round_trip_budget

(* --- Hello --- *)

let test_hello_fork_once () =
  let s =
    run_os ~image:Image.hello (fun _os api ->
        let s = Hello.fork_once api in
        Hello.reap api;
        s)
  in
  Alcotest.(check bool) "latency > 0" true (s.Hello.latency_cycles > 0L);
  Alcotest.(check bool) "child pid" true (s.Hello.child_pid > 1)

let test_hello_main () =
  run_os ~image:Image.hello (fun _os api -> Hello.main api)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("kv set/get", `Quick, test_kv_set_get);
    ("kv overwrite", `Quick, test_kv_overwrite);
    ("kv delete", `Quick, test_kv_delete);
    ("kv collisions", `Quick, test_kv_collisions);
    ("kv iter", `Quick, test_kv_iter);
    ("kv empty value", `Quick, test_kv_empty_value);
    ("kv large value", `Quick, test_kv_large_value);
    ("kv rehash", `Quick, test_kv_rehash);
    ("kv rehash across fork", `Quick, test_kv_rehash_across_fork);
    ("rdb roundtrip", `Quick, test_rdb_roundtrip);
    ("rdb corruption", `Quick, test_rdb_detects_corruption);
    ("rdb bad magic", `Quick, test_rdb_bad_magic);
    ("rdb snapshot consistency", `Quick, test_rdb_bgsave_snapshot_consistency);
    ("rdb bgsave result", `Quick, test_rdb_bgsave_result);
    qt prop_save_matches_reference;
    ("rdb chunk edges", `Quick, test_rdb_chunk_edges);
    qt prop_checksum_matches_byte_loop;
    ("rdb checksum lane carry", `Quick, test_checksum_lane_carry);
    ("dump check rejects bad dumps", `Quick, test_dump_matches);
    ("pipe throughput", `Quick, test_pipe_throughput_positive);
    ("mpy float_operation value", `Quick, test_mpy_float_operation_value);
    ("mpy charges cycles", `Quick, test_mpy_charges_cycles);
    ("mpy stack underflow", `Quick, test_mpy_stack_underflow);
    ("mpy div zero", `Quick, test_mpy_div_zero);
    ("mpy bad local", `Quick, test_mpy_bad_local);
    ("mpy basic ops", `Quick, test_mpy_basic_ops);
    ("mpy matmul value", `Quick, test_mpy_matmul_value);
    ("mpy linpack value", `Quick, test_mpy_linpack_value);
    ("mpy indexed bounds", `Quick, test_mpy_store_idx_bounds);
    ("zygote roundtrip", `Quick, test_zygote_roundtrip);
    ("zygote fork check", `Quick, test_zygote_fork_check);
    ("faas counts", `Quick, test_faas_counts);
    ("httpd end to end", `Quick, test_httpd_end_to_end);
    ("spawn runs", `Quick, test_spawn_runs);
    ("context1 correct", `Quick, test_context1_correct);
    ("context1 round trip allocation budget", `Quick,
     test_context1_round_trip_allocation);
    ("hello fork once", `Quick, test_hello_fork_once);
    ("hello main", `Quick, test_hello_main);
    qt prop_kv_model;
  ]
