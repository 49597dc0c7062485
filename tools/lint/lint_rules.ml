(* The rule catalogue: stable ids, path scoping, and the qualified names
   each rule bans. The engine (Lint_engine) owns the AST mechanics; this
   module is the policy — what is banned where, and why.

   Paths are repo-relative with '/' separators. A rule [applies] to a
   file when the file is inside the rule's scanned roots and not in one
   of its exempt homes: the exemption is always "the module that owns
   the mechanism", never a blanket opt-out. *)

type t = {
  id : string;  (* stable short id: "D1".."D13", "E0" *)
  name : string;  (* kebab-case slug *)
  severity : string;  (* "critical" | "error" — mirrors Invariant.severity *)
  summary : string;  (* one line, shown next to findings *)
  applies : string -> bool;
}

let under prefix path = String.length path >= String.length prefix
  && String.sub path 0 (String.length prefix) = prefix

(* tools/ is scanned too: the linter self-hosts, so the lint and
   capflow code obeys its own D-rules. *)
let in_scanned path =
  under "lib/" path || under "bin/" path || under "bench/" path
  || under "tools/" path

(* {1 The catalogue} *)

let charging =
  {
    id = "D1";
    name = "charging-discipline";
    severity = "error";
    summary =
      "every cycle charge and counter bump flows through the typed event \
       bus (Trace.emit); direct Engine.advance / interned-id Meter \
       mutation outside lib/sim bypasses the zero-tolerance accounting \
       audit";
    applies = (fun p -> in_scanned p && not (under "lib/sim/" p));
  }

let page_copy =
  {
    id = "D2";
    name = "memops-discipline";
    severity = "error";
    summary =
      "raw Page byte/capability copies belong in lib/mem and Memops \
       (lib/core/memops.ml), the single home for page duplication — a \
       loop elsewhere forgets granule accounting or batched emission";
    applies =
      (fun p ->
        in_scanned p
        && (not (under "lib/mem/" p))
        && p <> "lib/core/memops.ml");
  }

let fork_dup =
  {
    id = "D3";
    name = "fork-spine-discipline";
    severity = "error";
    summary =
      "descriptor-table duplication is part of the shared fork spine \
       (Fork_spine.run); a second Fdtable.dup_all call site is a second \
       fork skeleton growing back";
    applies =
      (fun p ->
        in_scanned p
        && not
             (List.mem p
                [
                  "lib/sas/fdesc.ml"; "lib/sas/kernel.ml";
                  "lib/core/fork_spine.ml";
                ]));
  }

let gauge_key =
  {
    id = "D4";
    name = "gauge-key-constant";
    severity = "error";
    summary =
      "Trace.gauge with an ad-hoc string literal scatters the meter \
       namespace and a typo silently forks the key; declare the key as a \
       named constant in lib/sim or lib/core and reference it";
    applies =
      (fun p ->
        in_scanned p && (not (under "lib/sim/" p))
        && not (under "lib/core/" p));
  }

let wall_clock =
  {
    id = "D5";
    name = "no-wall-clock";
    severity = "error";
    summary =
      "simulation code must be deterministic: wall-clock reads and the \
       global self-seeding Random break golden replay — use Engine time \
       and the seeded Prng";
    applies = in_scanned;
  }

let hashtbl_order =
  {
    id = "D6";
    name = "hashtbl-order";
    severity = "error";
    summary =
      "Hashtbl.iter/fold order is unspecified; results that feed golden \
       traces or exports must be sorted (a List/Array sort in the same \
       top-level definition) or the site marked \
       [@ufork.order_independent]";
    applies = in_scanned;
  }

let poly_compare =
  {
    id = "D7";
    name = "no-poly-compare-identity";
    severity = "error";
    summary =
      "polymorphic compare/(=) on capability values or identity-bearing \
       mutable records (frames, page tables) compares structure, not \
       identity, and breaks when hidden fields change — use \
       Capability.equal, Phys.id, or (==)";
    applies = in_scanned;
  }

let obj_magic =
  {
    id = "D8";
    name = "no-obj";
    severity = "error";
    summary =
      "Obj.* defeats the type system the whole simulation leans on \
       (capability opacity, effect handlers); there is no sound use here";
    applies = in_scanned;
  }

let biglock =
  {
    id = "D9";
    name = "no-biglock";
    severity = "error";
    summary =
      "Kernel.with_biglock is the legacy big-kernel-lock shim, kept only \
       so the nephele baseline can model a BKL; a call site outside the \
       kernel's own syscall plumbing quietly reintroduces the global lock \
       the sharded per-resource locks replaced";
    applies = (fun p -> in_scanned p && p <> "lib/sas/kernel.ml");
  }

let lockdep =
  {
    id = "D10";
    name = "lock-order";
    severity = "critical";
    summary =
      "the interprocedural may-hold-while-acquiring graph over the named \
       kernel locks must match the declared hierarchy (kernel.big > \
       uproc_table > fd_tables > pt_shard > frame_pool > stats) and stay \
       cycle-free, with pt-shard pairs nested in ascending index order; \
       declare new orderings with [@ufork.lock_order \"lock.a < lock.b\"] \
       or discharge chaos code with [@ufork.lockdep_ignore]";
    applies = (fun p -> in_scanned p && not (under "lib/sim/" p));
  }

let string_keyed_emission =
  {
    id = "D11";
    name = "interned-emission";
    severity = "error";
    summary =
      "counter emission is id-keyed: the string-keyed Meter.incr/add/set \
       shim re-hashes its key on every call (and a string-literal \
       Trace.gauge key does the same), which is exactly the per-event \
       cost the interned hot path removed — intern the key once \
       (Meter.intern) at setup, or emit a typed event; reads (Meter.get) \
       stay string-keyed";
    applies = (fun p -> in_scanned p && not (under "lib/sim/" p));
  }

let hb_publish =
  {
    id = "D12";
    name = "hb-publish-discipline";
    severity = "error";
    summary =
      "Hb.emit publishes ordering facts (wake, contend, hand-off, span \
       boundaries) that the race detector, lockdep and the causal \
       analyzer all consume as ground truth; only the mechanism layers \
       (lib/sim, lib/util, lib/sas, lib/mem) may emit — a workload or \
       front-end emission fabricates causal history the analyzers will \
       faithfully mis-report";
    applies =
      (fun p ->
        in_scanned p
        && (not (under "lib/sim/" p))
        && (not (under "lib/util/" p))
        && (not (under "lib/sas/" p))
        && not (under "lib/mem/" p));
  }

let capflow =
  {
    id = "D13";
    name = "cap-escape";
    severity = "critical";
    summary =
      "tracked Capability.t values (Capability.root / mint and \
       Relocate.relocate_cap results, interprocedurally) must not escape \
       into OCaml-heap containers the §4.2 tag scan cannot walk, a \
       relocate_cap result must not be discarded, and root-derived \
       authority must stay below the app/baseline/workload layers; \
       discharge a deliberate escape with [@ufork.cap_escape_ok] — the \
       annotation is checked and must shield a real escape";
    applies = (fun p -> in_scanned p && not (under "lib/cheri/" p));
  }

let parse_error =
  {
    id = "E0";
    name = "parse-error";
    severity = "error";
    summary = "the file does not parse with the pinned compiler front end";
    applies = (fun _ -> true);
  }

let all =
  [
    charging; page_copy; fork_dup; gauge_key; wall_clock; hashtbl_order;
    poly_compare; obj_magic; biglock; lockdep; string_keyed_emission;
    hb_publish; capflow;
  ]

(* {1 Catalogue rendering}

   What [ufork_sim lint --list] prints; [--md] emits the table DESIGN.md
   checks in. *)

let print_catalogue ~md () =
  if md then begin
    print_string "| Rule | Name | Severity | What it enforces |\n";
    print_string "|------|------|----------|------------------|\n";
    List.iter
      (fun r ->
        Printf.printf "| %s | `%s` | %s | %s |\n" r.id r.name r.severity
          r.summary)
      all
  end
  else
    List.iter
      (fun r ->
        Printf.printf "%s %-28s [%s] %s\n" r.id r.name r.severity r.summary)
      all
