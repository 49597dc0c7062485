(* Rule D14: unused exports.

   A top-level [val] of a lib/ interface is part of the program's
   surface only while something outside its own module calls it. This
   pass collects the value references of every linted file and of the
   reference sources (test/, perfbench/, examples/), resolved with the
   engine's one scope and by-file resolution, and reports each lib/
   export that
   (a) nothing outside its own module references, or
   (b) only test/ references, unless its interface entry carries
       [@@ufork.test_seam]: a value that exists so tests can observe
       state the program builds.
   The mark is checked, as D13's discharge is: a seam that a non-test
   file references, or that no test references, is itself a finding,
   so stale marks cannot accumulate.

   Resolution errs toward counting a reference: a qualified name that
   two modules could own counts for both, and a bare name counts for
   every module its file opens. Nested module signatures are out of
   scope: [Sync.Lock.create] is no reference to a top-level [val] of
   [Sync]. *)

open Parsetree

let seam_attr = "ufork.test_seam"

(* Who references one export from outside its module. *)
type use = { mutable in_tests : bool; mutable caller : string option }

let uses prog =
  let table : (Lint_engine.key, use) Hashtbl.t = Hashtbl.create 1024 in
  let candidates m =
    Option.value ~default:[] (Hashtbl.find_opt prog.Lint_engine.modules m)
  in
  let scan (src : Lint_engine.source) =
    let in_test = Lint_rules.under "test/" src.path in
    let add ((file, _) as key) =
      if file <> src.path then begin
        let u =
          match Hashtbl.find_opt table key with
          | Some u -> u
          | None ->
              let u = { in_tests = false; caller = None } in
              Hashtbl.add table key u;
              u
        in
        if in_test then u.in_tests <- true
        else if u.caller = None then u.caller <- Some src.path
      end
    in
    let add_all m name =
      List.iter
        (fun (s : Lint_engine.source) -> add (s.path, name))
        (candidates m)
    in
    let opened =
      List.filter_map
        (fun o -> match List.rev o with m :: _ -> Some m | [] -> None)
        src.scope.opens
    in
    let see path =
      let resolved = Lint_engine.resolve src.scope path in
      match List.rev resolved with
      | [ name ] -> List.iter (fun m -> add_all m name) opened
      | name :: m :: _ -> (
          match Lint_engine.callee prog src resolved with
          | Some key -> add key
          | None -> add_all m name)
      | [] -> ()
    in
    let open Ast_iterator in
    let it =
      {
        default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; _ } -> see (Longident.flatten txt)
            | _ -> ());
            default_iterator.expr it e);
      }
    in
    it.structure it src.str
  in
  List.iter scan prog.sources;
  List.iter scan prog.refs;
  table

let check prog =
  let table = uses prog in
  List.concat_map
    (fun (i : Lint_engine.interface) ->
      if not (Lint_rules.unused_export.Lint_rules.applies i.i_path) then []
      else
        let impl = Filename.remove_extension i.i_path ^ ".ml" in
        let modname = Lint_engine.module_of i.i_path in
        List.filter_map
          (fun vd ->
            let name = vd.pval_name.Location.txt in
            let u =
              Option.value
                ~default:{ in_tests = false; caller = None }
                (Hashtbl.find_opt table (impl, name))
            in
            let seam = Lint_engine.has_attr seam_attr vd.pval_attributes in
            let q = modname ^ "." ^ name in
            let message =
              match (seam, u) with
              | false, { in_tests = false; caller = None } ->
                  Some
                    (Printf.sprintf
                       "%s is exported, but nothing outside its module \
                        references it: drop it from the interface (warning \
                        32 then names a body that is dead)"
                       q)
              | false, { in_tests = true; caller = None } ->
                  Some
                    (Printf.sprintf
                       "%s is exported, but only test/ references it: mark \
                        it [@@%s] if tests need it to observe state the \
                        program builds, or delete it with the tests that \
                        exercise only it"
                       q seam_attr)
              | true, { caller = Some file; _ } ->
                  Some
                    (Printf.sprintf
                       "%s is marked [@@%s], but %s references it: drop the \
                        mark"
                       q seam_attr file)
              | true, { in_tests = false; caller = None } ->
                  Some
                    (Printf.sprintf
                       "%s is marked [@@%s], but no test references it: drop \
                        it from the interface"
                       q seam_attr)
              | _ -> None
            in
            Option.map
              (fun m ->
                Lint_engine.finding Lint_rules.unused_export
                  (Lint_engine.site_of vd.pval_loc i.i_path)
                  m)
              message)
          i.vals)
    prog.interfaces
