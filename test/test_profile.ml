(* Phase-attribution profiler: histogram properties (qcheck), span
   self/total accounting against the audit identity, the virtual-time
   sampler, and the export surfaces (folded stacks, Prometheus, CSV,
   JSONL header). *)

module Engine = Ufork_sim.Engine
module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace
module Histogram = Ufork_sim.Histogram
module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Kernel = Ufork_sas.Kernel
module Strategy = Ufork_core.Strategy
module Os = Ufork_core.Os
module System = Ufork_core.System
module Monolithic = Ufork_baselines.Monolithic
module Vmclone = Ufork_baselines.Vmclone
module Hello = Ufork_apps.Hello

(* {1 Histogram properties} *)

let of_values vs =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.record h (Int64.of_int v)) vs;
  h

(* The reference quantile: identical rank rule over the sorted multiset. *)
let reference_quantile vs p =
  let sorted = List.sort compare vs in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  Int64.of_int (List.nth sorted (rank - 1))

let values_gen = QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 100_000))

let ps = [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ]

let prop_quantile_monotone =
  QCheck.Test.make ~name:"histogram: quantile monotone in p" ~count:200
    values_gen (fun vs ->
      QCheck.assume (vs <> []);
      let h = of_values vs in
      let qs = List.map (Histogram.quantile h) ps in
      List.for_all2
        (fun a b -> Int64.compare a b <= 0)
        (List.filteri (fun i _ -> i < List.length qs - 1) qs)
        (List.tl qs))

let prop_bucket_contains =
  QCheck.Test.make ~name:"histogram: bucket bounds contain every value"
    ~count:200 values_gen (fun vs ->
      List.for_all
        (fun v ->
          let v = Int64.of_int v in
          let lo, hi = Histogram.bucket_bounds v in
          Int64.compare lo v <= 0 && Int64.compare v hi <= 0)
        vs)

let prop_quantile_vs_reference =
  QCheck.Test.make
    ~name:"histogram: quantile lands in the reference quantile's bucket"
    ~count:200 values_gen (fun vs ->
      QCheck.assume (vs <> []);
      let h = of_values vs in
      List.for_all
        (fun p ->
          let q = Histogram.quantile h p in
          let r = reference_quantile vs p in
          Histogram.bucket_bounds q = Histogram.bucket_bounds r)
        ps)

let hist_eq a b =
  Histogram.count a = Histogram.count b
  && Histogram.sum a = Histogram.sum b
  && Histogram.min_value a = Histogram.min_value b
  && Histogram.max_value a = Histogram.max_value b
  && Histogram.to_buckets a = Histogram.to_buckets b

(* The span hot path records native ints through [record_int]; it must
   land every value in the bucket, and fold it into the totals, exactly
   as the int64 [record] does — across every bit length. *)
let prop_record_int_matches_record =
  QCheck.Test.make ~name:"histogram: record_int = record" ~count:200
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (map
           (fun (bits, x) -> x land ((1 lsl bits) - 1))
           (pair (int_range 0 62) (int_range 0 max_int))))
    (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.record_int h) vs;
      hist_eq h (of_values vs))

let prop_merge_commutative =
  QCheck.Test.make ~name:"histogram: merge commutative" ~count:200
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = of_values xs and b = of_values ys in
      hist_eq (Histogram.merge a b) (Histogram.merge b a))

let prop_merge_associative =
  QCheck.Test.make ~name:"histogram: merge associative" ~count:200
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = of_values xs and b = of_values ys and c = of_values zs in
      hist_eq
        (Histogram.merge a (Histogram.merge b c))
        (Histogram.merge (Histogram.merge a b) c))

let prop_merge_vs_reference =
  QCheck.Test.make
    ~name:"histogram: merged quantiles match the pooled reference" ~count:200
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] || ys <> []);
      let m = Histogram.merge (of_values xs) (of_values ys) in
      let pooled = xs @ ys in
      List.for_all
        (fun p ->
          Histogram.bucket_bounds (Histogram.quantile m p)
          = Histogram.bucket_bounds (reference_quantile pooled p))
        ps)

(* Merge edge cases the qcheck generators rarely land on: both sides
   empty, one side empty, and counts meeting in the top (2^63 .. max)
   bucket, where the bucket upper bound saturates at [Int64.max_int]. *)
let test_merge_edges () =
  let e1 = Histogram.create () and e2 = Histogram.create () in
  let m = Histogram.merge e1 e2 in
  Alcotest.(check bool) "empty+empty is empty" true (Histogram.is_empty m);
  Alcotest.(check int64) "empty+empty quantile" 0L (Histogram.quantile m 0.5);
  Alcotest.(check (list (triple int64 int64 int))) "empty+empty buckets" []
    (Histogram.to_buckets m);
  let h = of_values [ 3; 17; 4096 ] in
  Alcotest.(check bool) "empty is a left identity" true
    (hist_eq h (Histogram.merge (Histogram.create ()) h));
  Alcotest.(check bool) "empty is a right identity" true
    (hist_eq h (Histogram.merge h (Histogram.create ())));
  let below_top = Int64.add (Int64.shift_left 1L 61) 5L in
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a Int64.max_int;
  Histogram.record b below_top;
  Histogram.record b Int64.max_int;
  let m = Histogram.merge a b in
  Alcotest.(check int) "overflow-bucket count" 3 (Histogram.count m);
  Alcotest.(check int64) "overflow-bucket max" Int64.max_int
    (Histogram.max_value m);
  Alcotest.(check int64) "overflow-bucket min" below_top
    (Histogram.min_value m);
  Alcotest.(check int64) "overflow-bucket p100" Int64.max_int
    (Histogram.quantile m 1.);
  match List.rev (Histogram.to_buckets m) with
  | (lo, hi, n) :: _ ->
      (* The last reachable bucket: [2^62 .. max_int], its upper bound
         saturated rather than wrapped. *)
      Alcotest.(check int64) "top bucket lo" (Int64.shift_left 1L 62) lo;
      Alcotest.(check int64) "top bucket hi saturates" Int64.max_int hi;
      Alcotest.(check int) "top bucket holds both max values" 2 n
  | [] -> Alcotest.fail "no buckets after merge"

(* Betweenness: a pooled quantile can never leave the interval spanned
   by the two inputs' quantiles at the same p. Resolved at bucket
   granularity — that is the precision {!Histogram.quantile} promises
   (the raw value can read the shared bucket's upper bound, which may
   exceed one input's clamped answer). Empty inputs are fine: their
   quantile reads 0 and the merge equals the other side. *)
let prop_merge_quantile_between =
  QCheck.Test.make ~name:"histogram: merged quantile between the inputs'"
    ~count:200
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      let a = of_values xs and b = of_values ys in
      let m = Histogram.merge a b in
      let bucket q = fst (Histogram.bucket_bounds q) in
      List.for_all
        (fun p ->
          let qa = bucket (Histogram.quantile a p)
          and qb = bucket (Histogram.quantile b p)
          and qm = bucket (Histogram.quantile m p) in
          let lo = if Int64.compare qa qb <= 0 then qa else qb
          and hi = if Int64.compare qa qb <= 0 then qb else qa in
          Int64.compare lo qm <= 0 && Int64.compare qm hi <= 0)
        ps)

let test_histogram_exact () =
  let h = of_values [ 0; 1; 2; 3; 1000 ] in
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int64) "sum" 1006L (Histogram.sum h);
  Alcotest.(check int64) "min" 0L (Histogram.min_value h);
  Alcotest.(check int64) "max" 1000L (Histogram.max_value h);
  Alcotest.(check int64) "p0 = min" 0L (Histogram.quantile h 0.);
  Alcotest.(check int64) "p100 = max" 1000L (Histogram.quantile h 1.);
  let empty = Histogram.create () in
  Alcotest.(check bool) "empty" true (Histogram.is_empty empty);
  Alcotest.(check int64) "empty quantile" 0L (Histogram.quantile empty 0.5);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Histogram: negative value") (fun () ->
      Histogram.record h (-1L))

(* {1 Spans: attribution, nesting, the audit identity} *)

let span_self tr path =
  match
    List.find_opt
      (fun (st : Trace.span_total) -> st.Trace.span_path = path)
      (Trace.span_totals tr)
  with
  | Some st -> st.Trace.span_self
  | None -> Alcotest.failf "span %s missing" (String.concat ";" path)

(* Run [f] on a fresh single-thread engine so emissions are charged. *)
let on_engine costs f =
  let engine = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine ~costs () in
  ignore (Engine.spawn ~name:"t" engine (fun () -> f tr));
  Engine.run engine;
  (tr, Engine.advanced engine)

let test_span_attribution () =
  let costs = Costs.ufork in
  let tr, elapsed =
    on_engine costs (fun tr ->
        Trace.emit tr ~pid:(-1) (Event.Compute 10L);
        Trace.with_span tr ~name:"outer" (fun () ->
            Trace.emit tr ~pid:(-1) (Event.Compute 100L);
            Trace.with_span tr ~name:"inner" (fun () ->
                Trace.emit tr ~pid:(-1) (Event.Compute 7L));
            Trace.emit tr ~pid:(-1) (Event.Compute 30L)))
  in
  Alcotest.(check int64) "unattributed" 10L
    (span_self tr [ "(unattributed)" ]);
  Alcotest.(check int64) "outer self" 130L (span_self tr [ "outer" ]);
  Alcotest.(check int64) "inner self" 7L (span_self tr [ "outer"; "inner" ]);
  (* The audit's span clause: self cycles partition total_charged. *)
  Trace.audit tr ~costs ~elapsed;
  (match
     List.find_opt
       (fun (st : Trace.span_total) -> st.Trace.span_path = [ "outer" ])
       (Trace.span_totals tr)
   with
  | Some st ->
      Alcotest.(check int64) "outer total = self + inner" 137L
        st.Trace.span_cycles;
      Alcotest.(check int) "outer closed once" 1 st.Trace.span_count
  | None -> Alcotest.fail "outer span missing");
  (match Trace.span_histogram tr "inner" with
  | Some h ->
      Alcotest.(check int) "inner hist count" 1 (Histogram.count h);
      Alcotest.(check int64) "inner hist sum" 7L (Histogram.sum h)
  | None -> Alcotest.fail "inner histogram missing");
  (* Spans interleaved on 650 threads (every thread yields with spans
     open), a span open outside any thread (tid -1) for the whole run,
     and one span closed by an exception: each thread keeps its own
     stack, so nothing nests under "boot" or under another thread. *)
  let n = 650 in
  let engine = Engine.create ~cores:4 () in
  let tr = Trace.create ~engine ~costs () in
  Trace.with_span tr ~name:"boot" (fun () ->
      for i = 1 to n do
        ignore
          (Engine.spawn engine (fun () ->
               Trace.emit tr ~pid:(-1) (Event.Compute 1L);
               Trace.with_span tr ~name:"worker" (fun () ->
                   Trace.emit tr ~pid:(-1) (Event.Compute (Int64.of_int i));
                   Engine.yield ();
                   Trace.with_span tr ~name:"inner" (fun () ->
                       Trace.emit tr ~pid:(-1) (Event.Compute 1L);
                       Engine.yield ();
                       Trace.emit tr ~pid:(-1) (Event.Compute 2L));
                   Engine.yield ();
                   if i = n then (
                     try
                       Trace.with_span tr ~name:"raising" (fun () ->
                           Trace.emit tr ~pid:(-1) (Event.Compute 5L);
                           Engine.yield ();
                           failwith "boom")
                     with Failure _ -> ());
                   Trace.emit tr ~pid:(-1) (Event.Compute 3L))))
      done;
      Engine.run engine);
  let total path =
    match
      List.find_opt
        (fun (st : Trace.span_total) -> st.Trace.span_path = path)
        (Trace.span_totals tr)
    with
    | Some st -> (st.Trace.span_cycles, st.Trace.span_count)
    | None -> Alcotest.failf "span %s missing" (String.concat ";" path)
  in
  let sum_i = n * (n + 1) / 2 in
  Alcotest.(check int64) "threads: unattributed" (Int64.of_int n)
    (span_self tr [ "(unattributed)" ]);
  Alcotest.(check int64) "threads: worker self" (Int64.of_int (sum_i + (3 * n)))
    (span_self tr [ "worker" ]);
  Alcotest.(check int64) "threads: inner self" (Int64.of_int (3 * n))
    (span_self tr [ "worker"; "inner" ]);
  Alcotest.(check int64) "threads: raising self" 5L
    (span_self tr [ "worker"; "raising" ]);
  Alcotest.(check (pair int64 int)) "threads: worker total"
    (Int64.of_int (sum_i + (6 * n) + 5), n)
    (total [ "worker" ]);
  Alcotest.(check (pair int64 int)) "threads: inner total"
    (Int64.of_int (3 * n), n)
    (total [ "worker"; "inner" ]);
  Alcotest.(check (pair int64 int)) "threads: raising total" (5L, 1)
    (total [ "worker"; "raising" ]);
  Alcotest.(check (pair int64 int)) "boot charged nothing" (0L, 1)
    (total [ "boot" ]);
  Alcotest.(check bool) "nothing nested under boot" true
    (List.for_all
       (fun (st : Trace.span_total) ->
         match st.Trace.span_path with "boot" :: _ :: _ -> false | _ -> true)
       (Trace.span_totals tr));
  Trace.audit tr ~costs ~elapsed:(Engine.advanced engine)

let test_span_exception_safety () =
  let costs = Costs.ufork in
  let tr, elapsed =
    on_engine costs (fun tr ->
        (try
           Trace.with_span tr ~name:"raising" (fun () ->
               Trace.emit tr ~pid:(-1) (Event.Compute 5L);
               failwith "boom")
         with Failure _ -> ());
        Trace.emit tr ~pid:(-1) (Event.Compute 3L))
  in
  Alcotest.(check int64) "raising self" 5L (span_self tr [ "raising" ]);
  Alcotest.(check int64) "post-raise unattributed" 3L
    (span_self tr [ "(unattributed)" ]);
  Trace.audit tr ~costs ~elapsed

let test_folded_stacks () =
  let tr, _ =
    on_engine Costs.ufork (fun tr ->
        Trace.with_span tr ~name:"a" (fun () ->
            Trace.with_span tr ~name:"b" (fun () ->
                Trace.emit tr ~pid:(-1) (Event.Compute 42L))))
  in
  let folded = Trace.folded_stacks tr in
  Alcotest.(check bool) "a;b line present" true
    (String.length folded > 0
    && List.mem "a;b 42" (String.split_on_char '\n' folded));
  let prom = Trace.to_prometheus_string tr in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prometheus has span self" true
    (contains prom "ufork_span_self_cycles{span=\"a;b\"} 42")

let test_sampler () =
  let ticks = ref 0 in
  let tr, _ =
    on_engine Costs.ufork (fun tr ->
        Trace.set_sampler tr ~interval:100L (fun () ->
            incr ticks;
            [ ("g", !ticks) ]);
        for _ = 1 to 10 do
          Trace.emit tr ~pid:(-1) (Event.Compute 60L)
        done)
  in
  let samples = Trace.samples tr in
  (* 600 cycles of emission at a 100-cycle interval: at least 4 samples
     (exact count depends on emission alignment), strictly increasing
     timestamps, at most one sample per interval window. A sample fires
     at the first emit at-or-after its grid point, so two consecutive
     samples can be closer than [interval] in absolute cycles — the
     invariant is that they land in distinct windows. *)
  Alcotest.(check bool) "several samples" true (List.length samples >= 4);
  let rec distinct_windows = function
    | (t1, _) :: ((t2, _) :: _ as rest) ->
        Int64.compare t2 t1 > 0
        && Int64.compare (Int64.div t2 100L) (Int64.div t1 100L) > 0
        && distinct_windows rest
    | _ -> true
  in
  Alcotest.(check bool) "one sample per window" true
    (distinct_windows samples);
  let csv = Trace.samples_csv tr in
  (match String.split_on_char '\n' csv with
  | header :: _ -> Alcotest.(check string) "csv header" "cycles,g" header
  | [] -> Alcotest.fail "empty csv")

let test_jsonl_header () =
  let engine = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine ~costs:Costs.ufork ~ring_capacity:4 () in
  Trace.set_recording tr true;
  for _ = 1 to 10 do
    Trace.emit tr ~pid:(-1) Event.Malloc
  done;
  Alcotest.(check int) "dropped" 6 (Trace.dropped tr);
  match String.split_on_char '\n' (Trace.to_jsonl_string tr) with
  | header :: body ->
      Alcotest.(check string) "header line"
        "{\"header\":{\"records\":4,\"dropped\":6}}" header;
      (* The header's record count is the number of record lines that
         follow: line-counting consumers need no scan. *)
      Alcotest.(check int) "body matches header" 4
        (List.length (List.filter (fun l -> l <> "") body))
  | [] -> Alcotest.fail "no header"

let test_ring_drops_oldest () =
  (* Overflow evicts from the front: after 10 distinguishable emissions
     on a 4-record ring, the survivors are the 4 newest, oldest first. *)
  let engine = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine ~costs:Costs.ufork ~ring_capacity:4 () in
  Trace.set_recording tr true;
  for i = 1 to 10 do
    Trace.emit tr ~pid:(-1) (Event.Copy_bytes i)
  done;
  Alcotest.(check (list int)) "newest survive, in order" [ 7; 8; 9; 10 ]
    (List.map
       (fun (r : Trace.record) ->
         match r.Trace.event with Event.Copy_bytes n -> n | _ -> -1)
       (Trace.records tr))

(* {1 Whole-system: every flavour's run satisfies the span clause and
   feeds the fork histogram} *)

let boot_sys = function
  | "ufork-copa" ->
      Os.system (Os.boot ~cores:4 ~strategy:Strategy.Copa ())
  | "cheribsd" -> Monolithic.system (Monolithic.boot ~cores:4 ())
  | "nephele" -> Vmclone.system (Vmclone.boot ~cores:4 ())
  | s -> invalid_arg s

(* Strict exposition-format grammar over a real run's export: every
   line is # HELP, # TYPE, or a sample; each family announces HELP then
   TYPE (in that order, once) before any of its samples; histogram
   families own their _bucket/_sum/_count sample names; sample values
   parse as numbers. A scrape of the hello workload exercises all five
   families. *)
let test_prometheus_grammar () =
  let sys = boot_sys "ufork-copa" in
  ignore
    (System.start sys ~image:Image.hello (fun api ->
         ignore (Hello.fork_once api);
         Hello.reap api));
  System.run sys;
  let prom = Trace.to_prometheus_string (System.trace sys) in
  let lines = String.split_on_char '\n' prom in
  (match List.rev lines with
  | "" :: _ -> ()
  | _ -> Alcotest.fail "export must end in a newline");
  let lines = List.filter (fun l -> l <> "") lines in
  let helped = Hashtbl.create 8 and typed = Hashtbl.create 8 in
  let prefix p s =
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  in
  let words s = String.split_on_char ' ' s in
  (* A sample's family: its metric name, except that a histogram TYPE
     declaration also claims the name_bucket/_sum/_count series. *)
  let family_of_sample name =
    let strip suf =
      let ls = String.length suf and ln = String.length name in
      if ln > ls && String.sub name (ln - ls) ls = suf then
        Some (String.sub name 0 (ln - ls))
      else None
    in
    let histo f =
      match Hashtbl.find_opt typed f with Some "histogram" -> Some f | _ -> None
    in
    match List.find_map
            (fun suf -> Option.bind (strip suf) histo)
            [ "_bucket"; "_sum"; "_count" ]
    with
    | Some f -> f
    | None -> name
  in
  List.iter
    (fun line ->
      if prefix "# HELP " line then (
        match words line with
        | "#" :: "HELP" :: fam :: (_ :: _ as text) ->
            Alcotest.(check bool)
              (Printf.sprintf "HELP %s only once" fam)
              false (Hashtbl.mem helped fam);
            Alcotest.(check bool)
              (Printf.sprintf "HELP %s before TYPE" fam)
              false (Hashtbl.mem typed fam);
            Alcotest.(check bool) "HELP text non-empty" true
              (String.trim (String.concat " " text) <> "");
            Hashtbl.replace helped fam ()
        | _ -> Alcotest.failf "malformed HELP line %S" line)
      else if prefix "# TYPE " line then (
        match words line with
        | [ "#"; "TYPE"; fam; kind ] ->
            Alcotest.(check bool)
              (Printf.sprintf "TYPE %s only once" fam)
              false (Hashtbl.mem typed fam);
            Alcotest.(check bool)
              (Printf.sprintf "TYPE %s follows its HELP" fam)
              true (Hashtbl.mem helped fam);
            Alcotest.(check bool)
              (Printf.sprintf "TYPE %s kind %s" fam kind)
              true
              (List.mem kind [ "counter"; "gauge"; "histogram" ]);
            Hashtbl.replace typed fam kind
        | _ -> Alcotest.failf "malformed TYPE line %S" line)
      else if prefix "#" line then Alcotest.failf "stray comment %S" line
      else
        match words line with
        | [ metric; value ] ->
            let name =
              match String.index_opt metric '{' with
              | Some i ->
                  Alcotest.(check bool)
                    (Printf.sprintf "labels close on %S" metric)
                    true
                    (metric.[String.length metric - 1] = '}');
                  String.sub metric 0 i
              | None -> metric
            in
            let fam = family_of_sample name in
            Alcotest.(check bool)
              (Printf.sprintf "sample %s after its TYPE" name)
              true (Hashtbl.mem typed fam);
            Alcotest.(check bool)
              (Printf.sprintf "value %S parses" value)
              true
              (Option.is_some (float_of_string_opt value))
        | _ -> Alcotest.failf "malformed sample line %S" line)
    lines;
  List.iter
    (fun (fam, kind) ->
      Alcotest.(check (option string))
        (Printf.sprintf "family %s declared" fam)
        (Some kind) (Hashtbl.find_opt typed fam))
    [
      ("ufork_cycles_total", "counter");
      ("ufork_trace_dropped_records", "gauge");
      ("ufork_meter", "counter");
      ("ufork_span_self_cycles", "counter");
      ("ufork_span_cycles", "histogram");
    ];
  Alcotest.(check int) "exactly the five families" 5 (Hashtbl.length typed)

let test_system_profile label () =
  let sys = boot_sys label in
  ignore
    (System.start sys ~image:Image.hello (fun api ->
         ignore (Hello.fork_once api);
         Hello.reap api));
  System.run sys;
  let tr = System.trace sys in
  (* The audit (span clause included) must pass... *)
  Trace.audit tr
    ~costs:(Kernel.costs (System.kernel sys))
    ~elapsed:(Engine.advanced (System.engine sys));
  (* ...the flamegraph must attribute something... *)
  Alcotest.(check bool) "folded stacks non-empty" true
    (String.length (Trace.folded_stacks tr) > 0);
  (* ...and exactly one fork span must have closed, with its duration
     histogram agreeing with the fork-latency gauge. *)
  match Trace.span_histogram tr "fork" with
  | Some h ->
      Alcotest.(check int) "one fork" 1 (Histogram.count h);
      Alcotest.(check int64) "fork histogram = latency gauge"
        (Trace.last_fork_latency tr) (Histogram.sum h)
  | None -> Alcotest.fail "no fork histogram"

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    qt prop_quantile_monotone;
    qt prop_bucket_contains;
    qt prop_quantile_vs_reference;
    qt prop_record_int_matches_record;
    qt prop_merge_commutative;
    qt prop_merge_associative;
    qt prop_merge_vs_reference;
    qt prop_merge_quantile_between;
    Alcotest.test_case "histogram merge edge cases" `Quick test_merge_edges;
    Alcotest.test_case "histogram exact stats" `Quick test_histogram_exact;
    Alcotest.test_case "prometheus line grammar" `Quick
      test_prometheus_grammar;
    Alcotest.test_case "span attribution + audit" `Quick test_span_attribution;
    Alcotest.test_case "span exception safety" `Quick
      test_span_exception_safety;
    Alcotest.test_case "folded stacks + prometheus" `Quick test_folded_stacks;
    Alcotest.test_case "virtual-time sampler" `Quick test_sampler;
    Alcotest.test_case "jsonl header reflects drops" `Quick test_jsonl_header;
    Alcotest.test_case "ring overflow drops oldest" `Quick
      test_ring_drops_oldest;
    Alcotest.test_case "profile: hello on ufork-copa" `Quick
      (test_system_profile "ufork-copa");
    Alcotest.test_case "profile: hello on cheribsd" `Quick
      (test_system_profile "cheribsd");
    Alcotest.test_case "profile: hello on nephele" `Quick
      (test_system_profile "nephele");
  ]
