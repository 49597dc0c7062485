(* The lint engine: one source front, the per-file rules, and the call
   resolution and summary fixpoint the whole-program analyses share.

   Every .ml/.mli file is read and parsed once per run with the pinned
   compiler's own front end (compiler-libs), so comments and doc
   strings are invisible by construction — the grep lint's false
   positives — and module aliases and opens are resolved, closing its
   false negatives: [module E = Engine; E.advance n] is a D1 finding,
   [(* Engine.advance *)] is not. Interfaces carry no expressions, so
   they are parsed only to report a file that does not parse (E0). The
   per-file rules (D1-D9, D11, D12) below, the lock-order analysis
   (Lockdep, D10) and the capability-escape analysis (Capflow, D13) all
   read the same parsed [source]s.

   Resolution model (deliberately syntactic — no typing pass):
   - module aliases are tracked file-globally and substituted at the
     head of every identifier path, transitively;
   - opens are tracked file-globally; a bare identifier matches a banned
     [M.f] when some open ends in [M];
   - banned names match by path suffix, so [Ufork_sim.Engine.advance]
     and [Engine.advance] are the same name;
   - a call to the program's own code resolves by file ([callee]): a
     bare name to the caller's own top-level binding, [M.f] to [f] in
     the file whose module is [M], preferring the caller's directory.
     A call that is still ambiguous stays unresolved.
   File-global tracking is conservative (a local open taints the whole
   file), which is the right polarity for a linter that must keep the
   tree clean. *)

open Parsetree

type finding = {
  rule : Lint_rules.t;
  file : string;
  line : int;
  col : int;
  message : string;
}

(* Where a finding, an acquisition or a discharge is. *)
type site = { s_file : string; s_line : int; s_col : int }

let site_of (loc : Location.t) file =
  {
    s_file = file;
    s_line = loc.Location.loc_start.Lexing.pos_lnum;
    s_col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol;
  }

let finding rule site message =
  { rule; file = site.s_file; line = site.s_line; col = site.s_col; message }

(* Stable: findings at one position keep the order they were made in. *)
let sort_findings findings =
  List.stable_sort
    (fun a b -> compare (a.file, a.line, a.col) (b.file, b.line, b.col))
    findings

(* {1 Path matching} *)

let ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls
  && (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      drop (lp - ls) path = suffix)

(* A file's module aliases and opens. *)
type scope = {
  aliases : (string * string list) list;  (* module alias -> path *)
  opens : string list list;  (* resolved opened module paths *)
}

let resolve scope path =
  match path with
  | head :: rest -> (
      match List.assoc_opt head scope.aliases with
      | Some target -> target @ rest
      | None -> path)
  | [] -> []

let matches scope path target =
  ends_with ~suffix:target path
  ||
  match (target, path) with
  | [ m; f ], [ f' ] when f = f' ->
      List.exists (fun o -> ends_with ~suffix:[ m ] o) scope.opens
  | _ -> false

(* [module N = P] *)
let alias_of (mb : module_binding) =
  match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
  | Some name, Pmod_ident { txt; _ } -> Some (name, Longident.flatten txt)
  | _ -> None

(* [open P] *)
let open_of (od : open_declaration) =
  match od.popen_expr.pmod_desc with
  | Pmod_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

(* Aliases and opens are collected file-globally, so a [module E =
   Engine] at the bottom still resolves uses above. *)
let scope_of (str : structure) =
  let aliases = ref [] and opens = ref [] in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun it mb ->
          Option.iter (fun a -> aliases := a :: !aliases) (alias_of mb);
          default_iterator.module_binding it mb);
      open_declaration =
        (fun it od ->
          Option.iter (fun o -> opens := o :: !opens) (open_of od);
          default_iterator.open_declaration it od);
    }
  in
  it.structure it str;
  (* Close alias chains (module A = B; module C = A.Sub). *)
  let aliases =
    List.map
      (fun (n, p) ->
        let rec close seen p =
          match p with
          | head :: rest when not (List.mem head seen) -> (
              match List.assoc_opt head !aliases with
              | Some target -> close (head :: seen) (target @ rest)
              | None -> p)
          | _ -> p
        in
        (n, close [ n ] p))
      !aliases
  in
  { aliases; opens = List.map (resolve { aliases; opens = [] }) !opens }

(* {1 Sources: every file read and parsed once} *)

module Names = Set.Make (String)

type source = {
  path : string;  (* repo-relative, '/' separators *)
  modname : string;  (* lib/sas/kernel.ml is Kernel *)
  scope : scope;
  str : structure;
  tops : Names.t;  (* the names its top-level value bindings define *)
}

type program = {
  files : string list;  (* every file linted, .ml and .mli *)
  sources : source list;  (* the .ml files that parse, in [files] order *)
  parse_errors : finding list;  (* E0, one per file that does not parse *)
  modules : (string, source list) Hashtbl.t;  (* module name -> files *)
}

let top_bindings str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with Pstr_value (_, vbs) -> vbs | _ -> [])
    str

(* The name a top-level value binding can be called by, if any. *)
let binder vb =
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt; _ }
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
      Some txt
  | _ -> None

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let source path str =
  {
    path;
    modname = module_of path;
    scope = scope_of str;
    str;
    tops = Names.of_list (List.filter_map binder (top_bindings str));
  }

let parse_error path exn =
  let message =
    match Location.error_of_exn exn with
    | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
    | _ -> Printexc.to_string exn
  in
  { rule = Lint_rules.parse_error; file = path; line = 1; col = 0; message }

(* [files] pairs each repo-relative path with its text. *)
let of_sources files =
  let parsed =
    List.map
      (fun (path, text) ->
        let lexbuf = Lexing.from_string text in
        Lexing.set_filename lexbuf path;
        match
          if Filename.check_suffix path ".mli" then (
            ignore (Parse.interface lexbuf);
            None)
          else Some (Parse.implementation lexbuf)
        with
        | str -> Ok (Option.map (source path) str)
        | exception exn -> Error (parse_error path exn))
      files
  in
  let sources =
    List.filter_map (function Ok s -> s | Error _ -> None) parsed
  in
  let modules = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace modules s.modname
        (s :: Option.value ~default:[] (Hashtbl.find_opt modules s.modname)))
    sources;
  {
    files = List.map fst files;
    sources;
    parse_errors =
      List.filter_map (function Error f -> Some f | Ok _ -> None) parsed;
    modules;
  }

let read_file fn =
  let ic = open_in_bin fn in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Every .ml/.mli under root/{lib,bin,bench,tools}, repo-relative,
   sorted — tools/ included so the linter self-hosts. *)
let tree_files root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.iter
        (fun entry -> walk (Filename.concat rel entry))
        (Sys.readdir abs)
    else if
      Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
    then acc := rel :: !acc
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    [ "lib"; "bin"; "bench"; "tools" ];
  List.sort compare !acc

let load root =
  of_sources
    (List.map
       (fun rel -> (rel, read_file (Filename.concat root rel)))
       (tree_files root))

(* {1 AST helpers shared by the analyses} *)

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let has_attr name attrs =
  List.exists (fun a -> a.attr_name.Location.txt = name) attrs

(* The unlabelled arguments of an application, in order. *)
let positional args =
  List.filter_map
    (fun (lbl, a) -> if lbl = Asttypes.Nolabel then Some a else None)
    args

(* Unroll [f @@ x] and [x |> f] into plain applications so calls match
   regardless of application style. *)
let rec normalize_apply e =
  match e.pexp_desc with
  | Pexp_apply (op, [ (Asttypes.Nolabel, f); (Asttypes.Nolabel, x) ])
    when ident_path op = Some [ "@@" ] -> (
      match normalize_apply f with
      | Some (fn, args) -> Some (fn, args @ [ (Asttypes.Nolabel, x) ])
      | None -> Some (f, [ (Asttypes.Nolabel, x) ]))
  | Pexp_apply (op, [ (Asttypes.Nolabel, x); (Asttypes.Nolabel, f) ])
    when ident_path op = Some [ "|>" ] -> (
      match normalize_apply f with
      | Some (fn, args) -> Some (fn, args @ [ (Asttypes.Nolabel, x) ])
      | None -> Some (f, [ (Asttypes.Nolabel, x) ]))
  | Pexp_apply (f, args) -> Some (f, args)
  | _ -> None

(* The innermost bodies of a lambda, parameters and cases stripped. *)
let rec lambda_bodies e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> lambda_bodies body
  | Pexp_newtype (_, body) -> lambda_bodies body
  | Pexp_function cases ->
      List.concat_map (fun c -> lambda_bodies c.pc_rhs) cases
  | _ -> [ e ]

(* The subexpressions both whole-program walks descend into alike, in
   evaluation order. Applications, lambdas and lets are each walk's own
   business, and the forms neither analyzes have none. *)
let subexpressions e =
  match e.pexp_desc with
  | Pexp_sequence (a, b) | Pexp_setfield (a, _, b) -> [ a; b ]
  | Pexp_ifthenelse (c, t, f) -> c :: t :: Option.to_list f
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      scrut :: List.map (fun c -> c.pc_rhs) cases
  | Pexp_constraint (e, _)
  | Pexp_open (_, e)
  | Pexp_letmodule (_, _, e)
  | Pexp_field (e, _)
  | Pexp_lazy e
  | Pexp_assert e ->
      [ e ]
  | Pexp_record (fields, base) -> List.map snd fields @ Option.to_list base
  | Pexp_tuple es | Pexp_array es -> es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.to_list arg
  | _ -> []

(* {1 Whole-program resolution and summaries} *)

(* A top-level binding of the program: its file and name. *)
type key = string * string

(* The one call resolution: the top-level binding a (resolved) call
   path names, by file. *)
let callee prog src resolved : key option =
  match List.rev resolved with
  | [ name ] -> if Names.mem name src.tops then Some (src.path, name) else None
  | name :: m :: _ when m <> "" && m.[0] >= 'A' && m.[0] <= 'Z' -> (
      let files =
        Option.value ~default:[] (Hashtbl.find_opt prog.modules m)
      in
      let here =
        List.filter
          (fun s -> Filename.dirname s.path = Filename.dirname src.path)
          files
      in
      match (here, files) with
      | [ s ], _ | [], [ s ] -> Some (s.path, name)
      | _ -> None)
  | _ -> None

(* Does the call path [resolved] name the function [target] ([M.f])? A
   call into the program names it when it resolves to [f] in a file
   whose module is [M] — so inside kernel.ml a bare [with_stats] is
   [Kernel.with_stats], elsewhere a local function of that name is not.
   A call outside the program matches [target] by name. Applied to the
   path alone, it resolves the call once for many targets. *)
let names prog src resolved =
  match callee prog src resolved with
  | Some (file, name) -> (
      fun target ->
        match List.rev target with
        | f :: m :: _ -> name = f && module_of file = m
        | _ -> false)
  | None -> matches src.scope resolved

(* The least summary per key: [step get k] recomputes [k]'s summary from
   the current summaries [get] of the bindings it calls, and rounds
   repeat until no summary changes. Steps are monotone from [bottom], so
   the result does not depend on the order of [keys]. *)
let fixpoint ~bottom ~equal ~step keys =
  let table = Hashtbl.create 64 in
  let get k = Option.value ~default:bottom (Hashtbl.find_opt table k) in
  let rec round () =
    let changed =
      List.fold_left
        (fun changed k ->
          let v = step get k in
          if equal v (get k) then changed
          else begin
            Hashtbl.replace table k v;
            true
          end)
        false keys
    in
    if changed then round ()
  in
  round ();
  get

(* {1 Banned-name tables} *)

(* [M.f] pairs each rule bans, matched against resolved paths. *)
let charging_targets =
  [
    [ "Engine"; "advance" ];
    [ "Engine"; "advance_direct" ];
    [ "Meter"; "incr_id" ];
    [ "Meter"; "add_id" ];
    [ "Meter"; "set_id" ];
  ]

(* The string-keyed meter mutators (D11): a registration-time shim, not
   an emission path — every call re-hashes its key. Reads (Meter.get)
   are deliberately absent. *)
let string_keyed_targets =
  [ [ "Meter"; "incr" ]; [ "Meter"; "add" ]; [ "Meter"; "set" ] ]

(* The causal-fact publisher (D12): one banned name, because every
   ordering fact flows through it. Subscribing/reading stays open —
   analyzers and front ends consume anywhere. *)
let hb_publish_targets = [ [ "Hb"; "emit" ] ]

(* Every Page entry point that moves page bytes in bulk: the whole-page
   copies and the byte-buffer transfers, including the copy-free
   fragment blits. *)
let page_copy_targets =
  [
    [ "Page"; "read_bytes" ];
    [ "Page"; "write_bytes" ];
    [ "Page"; "read_into" ];
    [ "Page"; "write_from" ];
    [ "Page"; "copy_into" ];
    [ "Page"; "copy" ];
  ]

let fork_dup_targets = [ [ "Fdtable"; "dup_all" ] ]
let biglock_targets = [ [ "Kernel"; "with_biglock" ] ]

let wall_clock_targets =
  [
    [ "Sys"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "localtime" ];
    [ "Random"; "self_init" ];
    [ "Random"; "int" ];
    [ "Random"; "full_int" ];
    [ "Random"; "bits" ];
    [ "Random"; "bool" ];
    [ "Random"; "float" ];
  ]

let hashtbl_iter_targets = [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]

let sort_targets =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

(* Capability operations that yield another capability: comparing their
   results polymorphically compares hidden structure. The scalar
   accessors (base, length, perms, ...) are fine to compare. *)
let cap_returning =
  [
    "root"; "mint"; "with_cursor"; "incr_cursor"; "restrict_perms";
    "set_bounds"; "clear_tag"; "seal"; "unseal"; "invoke"; "rebase";
  ]

(* Record fields that carry identity (mutable, aliased): equality on the
   record is identity confusion. *)
let identity_fields = [ "frame"; "pt" ]

let order_independent_attr = "ufork.order_independent"

(* {1 Per-file rules} *)

type ctx = {
  path : string;
  (* The file-global scope, refined by each alias or open the walk
     passes. *)
  mutable scope : scope;
  mutable findings : finding list;
  (* D6 discharge state: [has_sort] is recomputed per top-level item;
     [order_ok_depth] counts enclosing [@ufork.order_independent]
     markers. *)
  mutable has_sort : bool;
  mutable order_ok_depth : int;
}

let report ctx (rule : Lint_rules.t) loc message =
  if rule.Lint_rules.applies ctx.path then
    ctx.findings <- finding rule (site_of loc ctx.path) message :: ctx.findings

let pp_path ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ".")
    Format.pp_print_string ppf p

let name_of_target t = Format.asprintf "%a" pp_path t

(* The simple "this name is banned here" rules: D1, D2, D3, D5, D8.
   Checked on every identifier, so both calls and first-class uses
   (passing [Engine.advance] to a combinator) are caught. *)
let check_ident ctx loc path =
  let banned rule targets advice =
    List.iter
      (fun t ->
        if matches ctx.scope path t then
          report ctx rule loc
            (Printf.sprintf "%s is off-limits here: %s"
               (name_of_target t) advice))
      targets
  in
  banned Lint_rules.charging charging_targets
    "route the charge through the event bus (Trace.emit)";
  banned Lint_rules.string_keyed_emission string_keyed_targets
    "intern the key once (Meter.intern) and emit through the typed event \
     bus; the string-keyed mutators re-hash per call";
  banned Lint_rules.hb_publish hb_publish_targets
    "only the mechanism layers publish ordering facts; record what \
     happened through their APIs (Sync, Engine, Trace spans) instead of \
     emitting directly";
  banned Lint_rules.page_copy page_copy_targets
    "use Memops.copy_range / Memops.copy_all / Memops.duplicate_frame / \
     Memops.copy_page_contents";
  banned Lint_rules.fork_dup fork_dup_targets
    "fork-path duplication belongs in Fork_spine.run";
  banned Lint_rules.wall_clock wall_clock_targets
    "use Engine.current_time / the seeded Ufork_util.Prng";
  banned Lint_rules.biglock biglock_targets
    "take the sharded lock for the resource instead (Kernel.with_uproc_table \
     / with_fd_tables / with_pt_shard / with_frame_pool / with_stats)";
  if List.length path >= 2 && List.nth path (List.length path - 2) = "Obj" then
    report ctx Lint_rules.obj_magic loc
      (Printf.sprintf "%s: Obj is banned outright" (name_of_target path));
  (* D6: unordered hash iteration, unless discharged. *)
  List.iter
    (fun t ->
      if
        matches ctx.scope path t && (not ctx.has_sort)
        && ctx.order_ok_depth = 0
      then
        report ctx Lint_rules.hashtbl_order loc
          (Printf.sprintf
             "%s without a sort in the same definition: order is \
              unspecified — sort the result or mark the site \
              [@%s]"
             (name_of_target t) order_independent_attr))
    hashtbl_iter_targets

let is_string_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  | _ -> false

(* One operand of a polymorphic comparison that carries identity. *)
let rec identity_operand ctx e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) ->
      let path = Longident.flatten txt in
      if List.exists (fun f -> ends_with ~suffix:[ f ] path) identity_fields
      then Some (Format.asprintf "field .%a" pp_path path)
      else None
  | Pexp_ident { txt; _ } ->
      let path = resolve ctx.scope (Longident.flatten txt) in
      if ends_with ~suffix:[ "Capability"; "null" ] path then
        Some "Capability.null"
      else None
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some p -> (
          let p = resolve ctx.scope p in
          match List.rev p with
          | fn :: "Capability" :: _ when List.mem fn cap_returning ->
              Some (Printf.sprintf "Capability.%s ..." fn)
          | _ -> None)
      | None -> None)
  | Pexp_constraint (e, _) -> identity_operand ctx e
  | _ -> None

let poly_compare_name = function
  | [ "=" ] | [ "<>" ] | [ "compare" ]
  | [ "Stdlib"; "=" ] | [ "Stdlib"; "<>" ] | [ "Stdlib"; "compare" ] ->
      true
  | _ -> false

let check_apply ctx e f args =
  (* D4/D11: Trace.gauge with a literal key. One rule per site: D4
     (namespace discipline) where it applies; D11 (emission interning)
     covers the homes D4 exempts (lib/core declares the key constants
     but must not emit ad-hoc literals either). *)
  (match ident_path f with
  | Some p
    when matches ctx.scope (resolve ctx.scope p) [ "Trace"; "gauge" ]
         && List.exists (fun (_, a) -> is_string_literal a) args ->
      if Lint_rules.gauge_key.Lint_rules.applies ctx.path then
        report ctx Lint_rules.gauge_key e.pexp_loc
          "Trace.gauge with a string-literal key: declare the key as a \
           named constant (like Trace.last_fork_latency_key) and \
           reference it"
      else
        report ctx Lint_rules.string_keyed_emission e.pexp_loc
          "Trace.gauge with a string-literal key: reference a named key \
           constant so the key is interned once, not hashed per emission"
  | _ -> ());
  (* D7: polymorphic comparison with an identity-bearing operand. *)
  match ident_path f with
  | Some p when poly_compare_name (resolve ctx.scope p) -> (
      (* One finding per comparison, even when both operands carry
         identity. *)
      match List.find_map (fun (_, a) -> identity_operand ctx a) args with
      | Some what ->
          report ctx Lint_rules.poly_compare e.pexp_loc
            (Printf.sprintf
               "polymorphic %s on %s compares structure, not identity — \
                use Capability.equal / Phys.id / (==)"
               (String.concat "." p) what)
      | None -> ())
  | _ -> ()

let iterator ctx =
  let open Ast_iterator in
  let order_ok attrs = has_attr order_independent_attr attrs in
  {
    default_iterator with
    module_binding =
      (fun it mb ->
        Option.iter
          (fun (name, path) ->
            ctx.scope <-
              {
                ctx.scope with
                aliases = (name, resolve ctx.scope path) :: ctx.scope.aliases;
              })
          (alias_of mb);
        default_iterator.module_binding it mb);
    open_declaration =
      (fun it od ->
        Option.iter
          (fun path ->
            ctx.scope <-
              {
                ctx.scope with
                opens = resolve ctx.scope path :: ctx.scope.opens;
              })
          (open_of od);
        default_iterator.open_declaration it od);
    value_binding =
      (fun it vb ->
        if order_ok vb.pvb_attributes then begin
          ctx.order_ok_depth <- ctx.order_ok_depth + 1;
          default_iterator.value_binding it vb;
          ctx.order_ok_depth <- ctx.order_ok_depth - 1
        end
        else default_iterator.value_binding it vb);
    expr =
      (fun it e ->
        let shielded = order_ok e.pexp_attributes in
        if shielded then ctx.order_ok_depth <- ctx.order_ok_depth + 1;
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
            check_ident ctx e.pexp_loc
              (resolve ctx.scope (Longident.flatten txt))
        | Pexp_apply (f, args) -> check_apply ctx e f args
        | _ -> ());
        default_iterator.expr it e;
        if shielded then ctx.order_ok_depth <- ctx.order_ok_depth - 1);
  }

(* Does this top-level item sort anything? If so, its hash folds are
   presumed ordered by that sort (the standard collect-then-sort idiom)
   and D6 is discharged for the whole item. *)
let item_has_sort ctx (item : structure_item) =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let p = resolve ctx.scope (Longident.flatten txt) in
              if List.exists (fun t -> matches ctx.scope p t) sort_targets
              then found := true
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.structure_item it item;
  !found

(* One file's per-file findings, by position in the file. *)
let lint_source (src : source) =
  let ctx =
    {
      path = src.path;
      scope = src.scope;
      findings = [];
      has_sort = false;
      order_ok_depth = 0;
    }
  in
  let it = iterator ctx in
  List.iter
    (fun item ->
      ctx.has_sort <- item_has_sort ctx item;
      it.Ast_iterator.structure_item it item)
    src.str;
  List.sort
    (fun a b -> compare (a.line, a.col, a.rule.Lint_rules.id)
                  (b.line, b.col, b.rule.Lint_rules.id))
    ctx.findings

(* The per-file rules over the whole program, with E0 for every file
   that does not parse. *)
let check prog = prog.parse_errors @ List.concat_map lint_source prog.sources

(* {1 Rendering} *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s:%s] %s" f.file f.line f.col
    f.rule.Lint_rules.id f.rule.Lint_rules.name f.message

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json findings =
  let item f =
    Printf.sprintf
      "{\"id\":\"%s\",\"name\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      f.rule.Lint_rules.id f.rule.Lint_rules.name f.rule.Lint_rules.severity
      (json_escape f.file) f.line f.col (json_escape f.message)
  in
  "[" ^ String.concat "," (List.map item findings) ^ "]"
