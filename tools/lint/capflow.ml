(* Rule D13: interprocedural capability-provenance escape analysis.

   μFork's §4.2 tag scan can rebase a capability only if it lives in a
   page: a Capability.t value that escapes into an OCaml-heap container
   (a ref, a Hashtbl, a mutable record field, an array) is a shadow
   copy the scan can never find, so any authority it carries silently
   survives fork. This pass tracks capability values from their sources
   — [Capability.root], [Capability.mint], [Relocate.relocate_cap] —
   through let-bindings, the cap->cap transformers ([with_cursor],
   [rebase], [stamp], ...), and whole-program function summaries
   (return-value taint, computed by the engine's fixpoint like
   lockdep's A(F)), and flags:

   (a) a tracked capability stored into an OCaml-heap container that is
       not a tag-carrying [Page.store_cap] (which is a plain call, not a
       heap store, and therefore never matches);
   (b) a [Relocate.relocate_cap] result discarded ([ignore], a sequence
       position, a [let _ =] binding): the rebased capability was
       computed and dropped, so the child keeps the stale one;
   (c) root-derived authority ([Capability.root], [Kernel.root_cap], or
       any function whose summary returns root taint) reaching
       app/baseline/workload/front-end code, where no μprocess may ever
       hold the kernel's unbounded capability.

   Deliberate escapes (chaos scaffolding) are discharged with
   [@ufork.cap_escape_ok] on the expression or its value binding — and
   the annotation is checked, not trusted: a discharge that shields no
   actual escape is itself a D13 finding, so stale annotations cannot
   accumulate.

   Soundness posture: deliberately under-approximating, like the rest
   of the linter. Taint flows through direct value paths only — not
   through function arguments into callees, not through record
   construction into aggregates, and not out of [Page.load_cap] (a cap
   read back from a page is the tag scan's own jurisdiction). The
   runtime invariant R4 covers everything this pass cannot see; the
   [--chaos-heap-smuggle] injection exists precisely to prove that. *)

open Parsetree

let escape_attr = "ufork.cap_escape_ok"

(* Root taint is the kernel's unbounded authority; Cap is any tracked
   bounded capability. Root survives the cursor/perms transformers but
   is laundered by [mint] (which narrows bounds) — minting from root is
   how legitimate user capabilities are born. *)
type taint = Cap | Root

let join a b =
  match (a, b) with
  | Some Root, _ | _, Some Root -> Some Root
  | Some Cap, _ | _, Some Cap -> Some Cap
  | None, None -> None

let root_sources = [ [ "Capability"; "root" ]; [ "Kernel"; "root_cap" ] ]
let cap_sources = [ [ "Capability"; "mint" ]; [ "Relocate"; "relocate_cap" ] ]

(* Capability transformers that preserve the argument's authority. The
   absent ones are deliberate: [mint] launders (narrows), [clear_tag]
   kills the taint with the tag. *)
let propagating =
  [
    "with_cursor"; "incr_cursor"; "rebase"; "set_bounds"; "restrict_perms";
    "stamp"; "seal"; "unseal";
  ]

(* OCaml-heap container mutators: a tracked cap in any argument is an
   escape. [r := v] and [ref v] and [a.(i) <- v] (sugar for Array.set)
   are handled structurally in the walk. *)
let sink_targets =
  [
    ([ "Hashtbl"; "add" ], "a Hashtbl");
    ([ "Hashtbl"; "replace" ], "a Hashtbl");
    ([ "Queue"; "add" ], "a Queue");
    ([ "Queue"; "push" ], "a Queue");
    ([ "Stack"; "push" ], "a Stack");
    ([ "Array"; "set" ], "an array");
    ([ "Array"; "unsafe_set" ], "an array");
    ([ "Array"; "fill" ], "an array");
  ]

(* Directories where root-derived authority is finding (c): everything
   above the kernel/mechanism layers. *)
let app_scope path =
  List.exists
    (fun p -> Lint_rules.under p path)
    [ "lib/apps/"; "lib/baselines/"; "lib/workload/"; "bin/"; "bench/" ]

(* {1 Analysis state} *)

type site = Lint_engine.site

(* A top-level value binding: what the summaries and the escape walk
   read. *)
type fn = {
  f_src : Lint_engine.source;
  f_key : Lint_engine.key option;  (* None: no name calls it *)
  f_bodies : expression list;
  f_discharged : bool;  (* [@@ufork.cap_escape_ok] on the binding *)
  f_site : site;
}

let fns_of prog =
  List.concat_map
    (fun (src : Lint_engine.source) ->
      List.map
        (fun vb ->
          {
            f_src = src;
            f_key =
              Option.map (fun name -> (src.path, name)) (Lint_engine.binder vb);
            f_bodies = Lint_engine.lambda_bodies vb.pvb_expr;
            f_discharged = Lint_engine.has_attr escape_attr vb.pvb_attributes;
            f_site = Lint_engine.site_of vb.pvb_loc src.path;
          })
        (Lint_engine.top_bindings src.str))
    prog.Lint_engine.sources

(* What evaluating one file's code consults: the program (for call
   resolution), the file, and the return-taint summaries so far. *)
type cx = {
  prog : Lint_engine.program;
  src : Lint_engine.source;
  summary : Lint_engine.key -> taint option;
}

let names cx resolved = Lint_engine.names cx.prog cx.src resolved

let summary_of cx resolved =
  match Lint_engine.callee cx.prog cx.src resolved with
  | Some key -> cx.summary key
  | None -> None

let is_relocate_call cx e =
  match Lint_engine.normalize_apply e with
  | Some (f, _) -> (
      match Lint_engine.ident_path f with
      | Some p ->
          names cx (Lint_engine.resolve cx.src.scope p)
            [ "Relocate"; "relocate_cap" ]
      | None -> false)
  | None -> false

(* {1 Taint evaluation}

   [taint_of] computes the taint of an expression's value under an
   environment of let-bound variables, consulting the whole-program
   summaries for calls and for references to module-level constants. *)

let rec taint_of cx env e =
  match Lint_engine.normalize_apply e with
  | Some (f, args) -> (
      match Lint_engine.ident_path f with
      | Some p -> (
          let resolved = Lint_engine.resolve cx.src.scope p in
          let is = names cx resolved in
          let first_arg () =
            match Lint_engine.positional args with
            | a :: _ -> taint_of cx env a
            | [] -> None
          in
          if List.exists is root_sources then Some Root
          else if List.exists is cap_sources then Some Cap
          else if is [ "Capability"; "clear_tag" ] then None
          else if
            List.exists (fun op -> is [ "Capability"; op ]) propagating
          then first_arg ()
          else if
            resolved = [ "ref" ] || resolved = [ "Stdlib"; "ref" ]
            || resolved = [ "!" ]
          then first_arg ()
          else summary_of cx resolved)
      | None -> None)
  | None -> (
      match e.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match Longident.flatten txt with
          | [ x ] when List.mem_assoc x env -> List.assoc x env
          | p -> summary_of cx (Lint_engine.resolve cx.src.scope p))
      | Pexp_field (_, { txt; _ }) -> (
          (* The kernel's own authority store: [t.root]. *)
          match List.rev (Longident.flatten txt) with
          | "root" :: _ -> Some Root
          | _ -> None)
      | Pexp_let (_, vbs, body) ->
          taint_of cx (List.fold_left (bind cx) env vbs) body
      | Pexp_sequence (_, b) -> taint_of cx env b
      | Pexp_ifthenelse (_, t, f) ->
          join (taint_of cx env t)
            (Option.fold ~none:None ~some:(taint_of cx env) f)
      | Pexp_match (_, cases) | Pexp_try (_, cases) ->
          List.fold_left
            (fun acc c -> join acc (taint_of cx env c.pc_rhs))
            None cases
      | Pexp_constraint (e, _) | Pexp_open (_, e) | Pexp_letmodule (_, _, e)
        ->
          taint_of cx env e
      | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
          taint_of cx env arg
      | Pexp_tuple es ->
          List.fold_left (fun acc e -> join acc (taint_of cx env e)) None es
      | _ -> None)

and bind cx env vb =
  match Lint_engine.binder vb with
  | Some x -> (x, taint_of cx env vb.pvb_expr) :: env
  | None -> env

(* {1 Whole-program summaries}

   Return-value taint per function: a function returning
   [Kernel.root_cap k] is itself a root source at every call site. A
   name bound twice in one file summarizes both definitions. *)

let summaries prog fns =
  let defs = Hashtbl.create 64 in
  let keys =
    List.fold_left
      (fun keys fn ->
        match fn.f_key with
        | Some k ->
            let fresh = not (Hashtbl.mem defs k) in
            Hashtbl.add defs k fn;
            if fresh then k :: keys else keys
        | None -> keys)
      [] fns
  in
  Lint_engine.fixpoint ~bottom:None ~equal:( = )
    ~step:(fun summary k ->
      List.fold_left
        (fun acc fn ->
          let cx = { prog; src = fn.f_src; summary } in
          List.fold_left (fun acc b -> join acc (taint_of cx [] b)) acc
            fn.f_bodies)
        None (Hashtbl.find_all defs k))
    (List.rev keys)

(* {1 The escape walk} *)

type report_sink = {
  mutable findings : Lint_engine.finding list;
  (* Discharge sites -> number of findings they shielded; a discharge
     shielding nothing is stale and is itself reported. *)
  discharges : (site, int ref) Hashtbl.t;
}

let report sink ~shields (site : site) message =
  if Lint_rules.capflow.Lint_rules.applies site.s_file then
    match shields with
    | shield :: _ -> incr (Hashtbl.find sink.discharges shield)
    | [] ->
        sink.findings <-
          Lint_engine.finding Lint_rules.capflow site message :: sink.findings

let register_discharge sink site =
  if not (Hashtbl.mem sink.discharges site) then
    Hashtbl.add sink.discharges site (ref 0)

let pp_taint = function Root -> "root-derived" | Cap -> "tracked"

let escape_msg taint where =
  Printf.sprintf
    "%s capability escapes into %s: the §4.2 tag scan only walks pages, \
     so this shadow copy can never be rebased or tag-cleared across fork \
     — store it through Page.store_cap, or discharge a deliberate \
     escape with [@%s]"
    (String.capitalize_ascii (pp_taint taint))
    where escape_attr

let discard_msg =
  "Relocate.relocate_cap result discarded: the rebased capability was \
   computed and dropped, so the stale parent-provenance capability is \
   what the child keeps — store the result back where the original came \
   from"

let root_msg what =
  Printf.sprintf
    "%s hands root-derived authority to application code: the kernel's \
     unbounded capability must stay inside lib/sas — mint a bounded \
     capability instead"
    what

let check prog =
  let fns = fns_of prog in
  let summary = summaries prog fns in
  let sink = { findings = []; discharges = Hashtbl.create 8 } in
  let check_fn fn =
    let cx = { prog; src = fn.f_src; summary } in
    let file = fn.f_src.path in
    let discharge loc shields =
      let s = Lint_engine.site_of loc file in
      register_discharge sink s;
      s :: shields
    in
    let rec walk env shields e =
      let shields =
        if Lint_engine.has_attr escape_attr e.pexp_attributes then
          discharge e.pexp_loc shields
        else shields
      in
      let esite = Lint_engine.site_of e.pexp_loc file in
      let check_store where v =
        match taint_of cx env v with
        | Some t -> report sink ~shields esite (escape_msg t where)
        | None -> ()
      in
      match Lint_engine.normalize_apply e with
      | Some (f, args) ->
          (match Lint_engine.ident_path f with
          | Some p ->
              let resolved = Lint_engine.resolve cx.src.scope p in
              let is = names cx resolved in
              let positional = Lint_engine.positional args in
              (* (a) heap-container escapes. *)
              if resolved = [ ":=" ] then
                match positional with
                | [ _; v ] -> check_store "a ref cell" v
                | _ -> ()
              else if resolved = [ "ref" ] || resolved = [ "Stdlib"; "ref" ]
              then List.iter (check_store "a ref cell") positional
              else begin
                List.iter
                  (fun (target, where) ->
                    if is target then
                      List.iter (check_store where) positional)
                  sink_targets;
                (* (b) discarded relocation. *)
                if
                  (resolved = [ "ignore" ] || resolved = [ "Stdlib"; "ignore" ])
                  && List.exists (is_relocate_call cx) positional
                then report sink ~shields esite discard_msg;
                (* (c) root authority above the kernel layers. *)
                if
                  app_scope file
                  && (List.exists is root_sources
                     || summary_of cx resolved = Some Root)
                then report sink ~shields esite (root_msg (String.concat "." p))
              end
          | None -> ());
          walk env shields f;
          List.iter (fun (_, a) -> walk env shields a) args
      | None -> (
          match e.pexp_desc with
          | Pexp_let (_, vbs, body) ->
              let env' =
                List.fold_left
                  (fun env' vb ->
                    let shields =
                      if Lint_engine.has_attr escape_attr vb.pvb_attributes
                      then discharge vb.pvb_loc shields
                      else shields
                    in
                    (if
                       vb.pvb_pat.ppat_desc = Ppat_any
                       && is_relocate_call cx vb.pvb_expr
                     then
                       report sink ~shields
                         (Lint_engine.site_of vb.pvb_expr.pexp_loc file)
                         discard_msg);
                    walk env shields vb.pvb_expr;
                    bind cx env' vb)
                  env vbs
              in
              walk env' shields body
          | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
              walk env shields body
          | Pexp_function cases ->
              List.iter (fun c -> walk env shields c.pc_rhs) cases
          | _ ->
              (match e.pexp_desc with
              | Pexp_setfield (_, _, v) ->
                  check_store "a mutable record field" v
              | Pexp_array es -> List.iter (check_store "an array") es
              | Pexp_sequence (a, _) when is_relocate_call cx a ->
                  report sink ~shields
                    (Lint_engine.site_of a.pexp_loc file)
                    discard_msg
              | _ -> ());
              List.iter (walk env shields) (Lint_engine.subexpressions e))
    in
    let shields =
      if fn.f_discharged then begin
        register_discharge sink fn.f_site;
        [ fn.f_site ]
      end
      else []
    in
    List.iter (walk [] shields) fn.f_bodies
  in
  List.iter check_fn fns;
  (* The annotations are checked, not trusted: a discharge that shielded
     nothing is dead weight that would silently excuse a future leak.
     Discharge sites are distinct positions, so the sort below fixes the
     order. *)
  (Hashtbl.iter
     (fun (site : site) count ->
       if !count = 0 && Lint_rules.capflow.Lint_rules.applies site.s_file then
         sink.findings <-
           Lint_engine.finding Lint_rules.capflow site
             (Printf.sprintf
                "[@%s] discharges nothing: no capability escape under this \
                 annotation — remove it so it cannot excuse a future leak"
                escape_attr)
           :: sink.findings)
     sink.discharges [@ufork.order_independent]);
  Lint_engine.sort_findings sink.findings
