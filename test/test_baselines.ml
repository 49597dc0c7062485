(* Tests for the CheriBSD-like monolithic baseline and the Nephele-like
   VM-clone baseline. *)

module Capability = Ufork_cheri.Capability
module Meter = Ufork_sim.Meter
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Monolithic = Ufork_baselines.Monolithic
module Vmclone = Ufork_baselines.Vmclone

let run_mono ?(image = Image.hello) ?config f =
  let os = Monolithic.boot ~cores:4 ?config () in
  let result = ref None in
  let _ = Monolithic.start os ~image (fun api -> result := Some (f os api)) in
  Monolithic.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

let run_vm ?(image = Image.hello) f =
  let os = Vmclone.boot ~cores:4 () in
  let result = ref None in
  let _ = Vmclone.start os ~image (fun api -> result := Some (f os api)) in
  Vmclone.run os;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "process did not complete"

(* --- Monolithic --- *)

let test_mono_same_va () =
  let same =
    run_mono (fun _os api ->
        let c = api.Api.malloc 32 in
        api.Api.write_u64 c ~off:0 5L;
        let out = ref false in
        ignore
          (api.Api.fork (fun capi ->
               (* No relocation in a multi-AS fork: identity. *)
               let mine = capi.Api.reloc c in
               out :=
                 Capability.base mine = Capability.base c
                 && capi.Api.read_u64 mine ~off:0 = 5L;
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        !out)
  in
  Alcotest.(check bool) "same VA, reloc = identity" true same

let test_mono_cow_isolation () =
  let ok =
    run_mono (fun _os api ->
        let c = api.Api.malloc 64 in
        api.Api.write_bytes c ~off:0 (Bytes.of_string "original");
        ignore
          (api.Api.fork (fun capi ->
               let mine = capi.Api.reloc c in
               capi.Api.write_bytes mine ~off:0 (Bytes.of_string "CLOBBER!");
               let v = Bytes.to_string (capi.Api.read_bytes mine ~off:0 ~len:8) in
               capi.Api.exit (if v = "CLOBBER!" then 0 else 1)));
        let _, st = api.Api.wait () in
        st = 0
        && Bytes.to_string (api.Api.read_bytes c ~off:0 ~len:8) = "original")
  in
  Alcotest.(check bool) "classic CoW isolation" true ok

let test_mono_reads_never_copy () =
  let copies =
    run_mono (fun os api ->
        let c = api.Api.malloc (4 * 4096) in
        api.Api.write_bytes c ~off:0 (Bytes.make 64 'd');
        let m = Kernel.meter (Monolithic.kernel os) in
        let out = ref 0 in
        ignore
          (api.Api.fork (fun capi ->
               let before = Meter.get m "page_copy_cow" in
               let mine = capi.Api.reloc c in
               for i = 0 to 3 do
                 ignore (capi.Api.read_bytes mine ~off:(i * 4096) ~len:1)
               done;
               out := Meter.get m "page_copy_cow" - before;
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        !out)
  in
  Alcotest.(check int) "CoW reads copy nothing" 0 copies

let test_mono_soft_faults_on_first_touch () =
  let softs =
    run_mono (fun os api ->
        let c = api.Api.malloc (4 * 4096) in
        api.Api.write_bytes c ~off:0 (Bytes.make 64 'd');
        let m = Kernel.meter (Monolithic.kernel os) in
        let out = ref 0 in
        ignore
          (api.Api.fork (fun capi ->
               let before = Meter.get m "soft_fault" in
               let mine = capi.Api.reloc c in
               for i = 0 to 3 do
                 ignore (capi.Api.read_bytes mine ~off:(i * 4096) ~len:1);
                 (* second touch must not fault again *)
                 ignore (capi.Api.read_bytes mine ~off:(i * 4096) ~len:1)
               done;
               out := Meter.get m "soft_fault" - before;
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        !out)
  in
  Alcotest.(check int) "one soft fault per page" 4 softs

let big_heap = Image.make ~heap_bytes:(2 * 1024 * 1024) "bigheap"

let test_mono_arena_pretouch () =
  let pages =
    run_mono ~image:big_heap (fun os api ->
        let c = api.Api.malloc (64 * 4096) in
        (* Dirty the heap so there is something to re-dirty. *)
        for i = 0 to 63 do
          api.Api.write_bytes c ~off:(i * 4096) (Bytes.make 8 'x')
        done;
        let m = Kernel.meter (Monolithic.kernel os) in
        ignore
          (api.Api.fork (fun capi ->
               ignore (capi.Api.malloc 64);
               capi.Api.exit 0));
        ignore (api.Api.wait ());
        Meter.get m "arena_pretouch_pages")
  in
  (* cheribsd_default re-dirties 50% of the live heap. *)
  Alcotest.(check int) "half the arena re-dirtied" 32 pages

let test_mono_pretouch_once () =
  let ok =
    run_mono ~image:big_heap (fun os api ->
        let c = api.Api.malloc (16 * 4096) in
        for i = 0 to 15 do
          api.Api.write_bytes c ~off:(i * 4096) (Bytes.make 8 'x')
        done;
        let m = Kernel.meter (Monolithic.kernel os) in
        ignore
          (api.Api.fork (fun capi ->
               ignore (capi.Api.malloc 64);
               let after_first = Meter.get m "arena_pretouch_pages" in
               ignore (capi.Api.malloc 64);
               capi.Api.exit
                 (if Meter.get m "arena_pretouch_pages" = after_first then 0
                  else 1)));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "pretouch happens once" true ok

let test_mono_fork_latency_larger () =
  let mono =
    run_mono (fun os api ->
        ignore (api.Api.fork (fun capi -> capi.Api.exit 0));
        ignore (api.Api.wait ());
        Monolithic.last_fork_latency os)
  in
  Alcotest.(check bool) "monolithic fork > 100us" true
    (Ufork_util.Units.us_of_cycles mono > 100.)

let test_mono_nested_fork () =
  let ok =
    run_mono (fun _os api ->
        let c = api.Api.malloc 16 in
        api.Api.write_u64 c ~off:0 7L;
        ignore
          (api.Api.fork (fun capi ->
               ignore
                 (capi.Api.fork (fun gapi ->
                      let v = gapi.Api.read_u64 (gapi.Api.reloc c) ~off:0 in
                      gapi.Api.exit (if v = 7L then 0 else 1)));
               let _, st = capi.Api.wait () in
               capi.Api.exit st));
        snd (api.Api.wait ()) = 0)
  in
  Alcotest.(check bool) "grandchild CoW chain" true ok

(* --- Vmclone --- *)

let test_vm_image_includes_kernel () =
  let app = Image.hello in
  let vm = Vmclone.unikernel_image app in
  Alcotest.(check bool) "kernel text added" true
    (vm.Image.code_bytes > app.Image.code_bytes + 1_000_000)

let test_vm_fork_semantics () =
  let ok =
    run_vm (fun _os api ->
        let c = api.Api.malloc 64 in
        api.Api.write_bytes c ~off:0 (Bytes.of_string "vmstate!");
        ignore
          (api.Api.fork (fun capi ->
               let mine = capi.Api.reloc c in
               let v = Bytes.to_string (capi.Api.read_bytes mine ~off:0 ~len:8) in
               capi.Api.write_bytes mine ~off:0 (Bytes.of_string "CLOBBER!");
               capi.Api.exit (if v = "vmstate!" then 0 else 1)));
        let _, st = api.Api.wait () in
        st = 0
        && Bytes.to_string (api.Api.read_bytes c ~off:0 ~len:8) = "vmstate!")
  in
  Alcotest.(check bool) "clone duplicates state, isolates writes" true ok

let test_vm_fork_latency_dominated_by_domain () =
  let lat, domains =
    run_vm (fun os api ->
        ignore (api.Api.fork (fun capi -> capi.Api.exit 0));
        ignore (api.Api.wait ());
        ( Vmclone.last_fork_latency os,
          Meter.get (Kernel.meter (Vmclone.kernel os)) "domain_create" ))
  in
  Alcotest.(check int) "one domain" 1 domains;
  Alcotest.(check bool) "fork > 10 ms" true
    (Ufork_util.Units.ms_of_cycles lat > 10.)

let test_vm_child_memory_is_whole_image () =
  let mb =
    run_vm (fun os api ->
        let pid = api.Api.fork (fun capi -> capi.Api.exit 0) in
        ignore (api.Api.wait ());
        match Kernel.find_uproc (Vmclone.kernel os) pid with
        | Some u -> Ufork_util.Units.mb_of_bytes u.Uproc.private_bytes
        | None -> nan)
  in
  Alcotest.(check bool) "clone costs >1 MB" true (mb > 1.0 && mb < 3.0)

(* --- All three machines: boot cost --- *)

module Hb = Ufork_util.Hb
module Engine = Ufork_sim.Engine
module System = Ufork_core.System
module Os = Ufork_core.Os
module Hello = Ufork_apps.Hello

let flavours =
  [
    ("uFork", fun () -> Os.system (Os.boot ~cores:4 ()));
    ("CheriBSD", fun () -> Monolithic.system (Monolithic.boot ~cores:4 ()));
    ("Nephele", fun () -> Vmclone.system (Vmclone.boot ~cores:4 ()));
  ]

(* What the engine installs as the bus's tid provider. *)
let ask_tid () =
  match Engine.current_tid () with
  | tid -> tid
  | exception Effect.Unhandled _ -> -1

(* How often [f] asks the provider who is running; the plain provider
   is back afterwards, exception included. *)
let count_tid_asks f =
  let asks = ref 0 in
  Hb.set_tid_provider (fun () ->
      incr asks;
      ask_tid ());
  Fun.protect
    ~finally:(fun () -> Hb.set_tid_provider ask_tid)
    (fun () ->
      f ();
      !asks)

(* Boot, start hello, and fork + wait once. *)
let boot_hello_fork (label, boot) =
  let sys = boot () in
  let reaped = ref false in
  ignore
    (System.start sys ~image:Image.hello (fun api ->
         ignore (Hello.fork_once api);
         Hello.reap api;
         reaped := true));
  System.run sys;
  if not !reaped then Alcotest.failf "%s: hello never reaped" label

(* A machine's locks and frame pool read who is running from its engine:
   with the bus off, booting, starting hello and one fork + wait ask the
   effect provider nothing. *)
let test_identity_is_read () =
  Alcotest.(check bool) "bus off" false (Hb.on ());
  List.iter
    (fun ((label, _) as flavour) ->
      Alcotest.(check int) (label ^ ": tid asks") 0
        (count_tid_asks (fun () -> boot_hello_fork flavour)))
    flavours;
  (* The counter sees asks where they still happen: with the bus on, its
     publishers ask on the same run. *)
  let asks =
    count_tid_asks (fun () ->
        Hb.subscribe ignore;
        Fun.protect ~finally:Hb.unsubscribe (fun () ->
            boot_hello_fork (List.hd flavours)))
  in
  Alcotest.(check bool) "bus publishers ask" true (asks > 0);
  Alcotest.(check int) "provider restored" (-1) (Hb.tid ())

(* Minor words to boot each machine and start hello (threads that never
   run): about 3.5k for uFork and CheriBSD and 13.8k for Nephele, whose
   start maps the whole 368-page unikernel image. Each includes one
   256-slot page-table leaf. Before locks read identity from their
   engine and the registry and leaves were sized for the minor heap,
   the same boots took 5.4k and 21.7k, not counting their 512-slot
   leaves, which went straight to the major heap. *)
let boot_budgets = [ ("uFork", 4_000); ("CheriBSD", 4_000); ("Nephele", 15_500) ]

let test_boot_allocation () =
  List.iter
    (fun (label, boot) ->
      let boot_start () =
        ignore (System.start (boot ()) ~image:Image.hello (fun _ -> ()))
      in
      boot_start ();
      let rounds = 20 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        boot_start ()
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int rounds in
      let budget = List.assoc label boot_budgets in
      if words > float_of_int budget then
        Alcotest.failf "%s: boot + start hello allocates %.0f words (budget %d)"
          label words budget)
    flavours

let suite =
  [
    ("mono same VA", `Quick, test_mono_same_va);
    ("mono CoW isolation", `Quick, test_mono_cow_isolation);
    ("mono reads never copy", `Quick, test_mono_reads_never_copy);
    ("mono soft faults", `Quick, test_mono_soft_faults_on_first_touch);
    ("mono arena pretouch", `Quick, test_mono_arena_pretouch);
    ("mono pretouch once", `Quick, test_mono_pretouch_once);
    ("mono fork latency", `Quick, test_mono_fork_latency_larger);
    ("mono nested fork", `Quick, test_mono_nested_fork);
    ("vm image includes kernel", `Quick, test_vm_image_includes_kernel);
    ("vm fork semantics", `Quick, test_vm_fork_semantics);
    ("vm domain cost", `Quick, test_vm_fork_latency_dominated_by_domain);
    ("vm child memory", `Quick, test_vm_child_memory_is_whole_image);
    ("boot identity is read, not asked", `Quick, test_identity_is_read);
    ("boot allocation budget", `Quick, test_boot_allocation);
  ]
