(* Rule D10: interprocedural static lock-order analysis.

   Reads every parsed .ml of the program (Lint_engine), resolves calls
   to the acquisition helpers (the [Kernel.with_*] family and
   [Sync.Rlock.with_lock] / [Sync.Lock.with_lock]) through the engine's
   alias/open scope and call resolution, and builds the
   may-hold-while-acquiring graph over named lock CLASSES: an edge
   a -> b means some code path may acquire b while holding a. The
   16 page-table shards collapse to the one class [lock.pt_shard] with
   an index side condition — a self-nesting of the class is legal only
   at constant indices in ascending order, or under a declared
   [@ufork.lock_order "lock.pt_shard < lock.pt_shard"] whose ascending
   discipline the runtime checker (R2) then enforces per index.

   Findings (all D10):
   - an edge inverting the built-in hierarchy
       kernel.big > uproc_table > fd_tables > pt_shard > frame_pool
       > stats  (outermost first);
   - a class self-edge with unknown indices and no declared self-order,
     or with constant indices that are not strictly ascending;
   - a cycle among inferred and declared edges (custom lock classes);
   - a declaration that itself contradicts the built-in hierarchy
     (the annotation is checked, not trusted).

   Soundness posture: deliberately under-approximating, like the rest of
   the linter. Lambdas passed to UNKNOWN callees are deferred closures
   (spawned threads, stored hooks) and are analyzed with an empty held
   set — attributing the enclosing context to them would manufacture
   false edges from every [Engine.spawn] under a lock. Bare
   [Rlock.acquire]/[release] pairs (the kernel's wait path) are
   likewise invisible. The runtime checker R2 covers both. Code marked
   [@ufork.lockdep_ignore] (chaos injections) contributes nothing. *)

open Parsetree

let order_attr = "ufork.lock_order"
let ignore_attr = "ufork.lockdep_ignore"

(* Outermost first. [rank] is position; acquiring a lower rank while
   holding a higher one is an inversion. *)
let hierarchy =
  [
    "lock.kernel.big"; "lock.uproc_table"; "lock.fd_tables"; "lock.pt_shard";
    "lock.frame_pool"; "lock.stats";
  ]

let rank cls =
  let rec go i = function
    | [] -> None
    | c :: rest -> if c = cls then Some i else go (i + 1) rest
  in
  go 0 hierarchy

(* A lock class plus the constant shard index, when one is syntactically
   visible ([s.pt_shards.(1)]). *)
type lock = { cls : string; index : int option }

let shard_prefix = "lock.pt_shard."

let canon name =
  let plen = String.length shard_prefix in
  if
    String.length name > plen
    && String.sub name 0 plen = shard_prefix
    && int_of_string_opt (String.sub name plen (String.length name - plen))
       <> None
  then
    {
      cls = "lock.pt_shard";
      index = int_of_string_opt (String.sub name plen (String.length name - plen));
    }
  else { cls = name; index = None }

(* Helper table: which functions acquire which lock around their last
   literal-lambda argument. [`Fixed] helpers carry the class in their
   name; [`From_arg] helpers ([with_lock]) name the lock in their first
   argument. The [Kernel.with_*] helpers also match unqualified — the
   kernel calls its own helpers bare. *)
let helpers =
  [
    ([ "Kernel"; "with_biglock" ], `Fixed "lock.kernel.big");
    ([ "Kernel"; "with_uproc_table" ], `Fixed "lock.uproc_table");
    ([ "Kernel"; "with_fd_tables" ], `Fixed "lock.fd_tables");
    ([ "Kernel"; "with_stats" ], `Fixed "lock.stats");
    ([ "Kernel"; "with_frame_pool" ], `Fixed "lock.frame_pool");
    ([ "Kernel"; "with_pt_shard" ], `Fixed "lock.pt_shard");
    ([ "Kernel"; "with_pt_shard_pair" ], `Fixed "lock.pt_shard");
    ([ "Rlock"; "with_lock" ], `From_arg);
    ([ "Lock"; "with_lock" ], `From_arg);
  ]

(* Field and variable names conventionally bound to the named kernel
   locks, for lock expressions the per-file create-registry cannot
   resolve (record fields assigned from function parameters). *)
let builtin_names =
  [
    ("big", "lock.kernel.big");
    ("frame_pool", "lock.frame_pool");
    ("frame_pool_lock", "lock.frame_pool");
    ("pool_lock", "lock.frame_pool");
    ("uproc_table", "lock.uproc_table");
    ("fd_tables", "lock.fd_tables");
    ("stats", "lock.stats");
    ("pt_shards", "lock.pt_shard");
    ("pt_shard", "lock.pt_shard");
  ]

(* {1 Analysis state} *)

type site = Lint_engine.site

type acq = { a_held : lock list; a_lock : lock; a_site : site }

type callrec = { callee : Lint_engine.key; c_held : lock list; c_site : site }

type fn_info = { mutable acqs : acq list; mutable calls : callrec list }

type decl = { d_from : string; d_to : string; d_site : site }

type state = {
  fns : (Lint_engine.key, fn_info) Hashtbl.t;
  mutable fn_order : Lint_engine.key list;  (* reverse definition order *)
  mutable decls : decl list;
  mutable anon : int;
}

let new_state () =
  { fns = Hashtbl.create 64; fn_order = []; decls = []; anon = 0 }

let fn_info st key =
  match Hashtbl.find_opt st.fns key with
  | Some i -> i
  | None ->
      let i = { acqs = []; calls = [] } in
      Hashtbl.add st.fns key i;
      st.fn_order <- key :: st.fn_order;
      i

(* {1 Attributes} *)

let payload_string = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* "lock.a < lock.b < lock.c" -> [(a,b); (b,c)] *)
let order_pairs s =
  let parts = String.split_on_char '<' s |> List.map String.trim in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  pairs parts

let record_decls st file attrs =
  List.iter
    (fun a ->
      if a.attr_name.Location.txt = order_attr then
        match payload_string a.attr_payload with
        | Some s ->
            List.iter
              (fun (d_from, d_to) ->
                st.decls <-
                  { d_from; d_to; d_site = Lint_engine.site_of a.attr_loc file }
                  :: st.decls)
              (order_pairs s)
        | None -> ())
    attrs

(* {1 Per-file pass} *)

let const_int e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | _ -> None

(* Collect [let x = Rlock.create ~name:"..." ()] and
   [{ field = Rlock.create ~name:"..." (); ... }] bindings so lock
   expressions resolve to their registered names. *)
let collect_lock_registry scope str =
  let registry : (string, lock) Hashtbl.t = Hashtbl.create 16 in
  let create_name e =
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match Lint_engine.ident_path f with
        | Some p
          when Lint_engine.ends_with ~suffix:[ "Rlock"; "create" ]
                 (Lint_engine.resolve scope p)
               || Lint_engine.ends_with ~suffix:[ "Lock"; "create" ]
                    (Lint_engine.resolve scope p) ->
            List.find_map
              (fun (lbl, a) ->
                match (lbl, a.pexp_desc) with
                | ( Asttypes.Labelled "name",
                    Pexp_constant (Pconst_string (s, _, _)) ) ->
                    Some s
                | _ -> None)
              args
        | _ -> None)
    | _ -> None
  in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      value_binding =
        (fun it vb ->
          (match (vb.pvb_pat.ppat_desc, create_name vb.pvb_expr) with
          | Ppat_var { txt; _ }, Some name ->
              Hashtbl.replace registry txt (canon name)
          | _ -> ());
          default_iterator.value_binding it vb);
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
              List.iter
                (fun ({ Location.txt; _ }, fe) ->
                  match (Longident.flatten txt, create_name fe) with
                  | path, Some name when path <> [] ->
                      Hashtbl.replace registry
                        (List.nth path (List.length path - 1))
                        (canon name)
                  | _ -> ())
                fields
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.structure it str;
  registry

(* The lock named by a [with_lock] first argument: a registered
   variable, a registered or conventionally named record field, or an
   [a.(i)] shard array subscript (constant index kept). *)
let rec resolve_lock_expr scope registry e =
  let by_name n =
    match Hashtbl.find_opt registry n with
    | Some l -> Some l
    | None ->
        Option.map (fun cls -> { cls; index = None })
          (List.assoc_opt n builtin_names)
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match List.rev (Longident.flatten txt) with
      | last :: _ -> by_name last
      | [] -> None)
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Longident.flatten txt) with
      | last :: _ -> by_name last
      | [] -> None)
  | Pexp_apply (f, args) -> (
      (* [arr.(i)] parses as [Array.get arr i]. *)
      match Lint_engine.ident_path f with
      | Some p
        when Lint_engine.ends_with ~suffix:[ "Array"; "get" ]
               (Lint_engine.resolve scope p) -> (
          match Lint_engine.positional args with
          | arr :: idx :: _ -> (
              match resolve_lock_expr scope registry arr with
              | Some { cls; _ } when cls = "lock.pt_shard" ->
                  Some { cls; index = const_int idx }
              | other -> other)
          | _ -> None)
      | _ -> None)
  | Pexp_constraint (e, _) -> resolve_lock_expr scope registry e
  | _ -> None

(* The helper a call path names, if any. Inside kernel.ml a bare
   [with_stats] is the kernel's own helper; elsewhere a function that
   merely shares a helper's name is an ordinary call. *)
let helper_of prog src resolved =
  let names = Lint_engine.names prog src resolved in
  List.find_map
    (fun (target, kind) -> if names target then Some kind else None)
    helpers

let is_lambda e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let analyze_file st prog (src : Lint_engine.source) =
  let file = src.path and scope = src.scope in
  (* Deferred closures get fresh unreachable keys: their acquisitions
     are still order-checked, but never attributed to the enclosing
     function's summary (that would manufacture edges from contexts
     that do not run them). *)
  let anon_key () =
    st.anon <- st.anon + 1;
    (file, Printf.sprintf "<closure-%d>" st.anon)
  in
  let registry = collect_lock_registry scope src.str in
  let rec walk info ~held ~ignored e =
    let ignored =
      ignored || Lint_engine.has_attr ignore_attr e.pexp_attributes
    in
    record_decls st file e.pexp_attributes;
    match Lint_engine.normalize_apply e with
    | Some (f, args) ->
        let site = Lint_engine.site_of e.pexp_loc file in
        let positional = Lint_engine.positional args in
        let lock =
          match Lint_engine.ident_path f with
          | None -> None
          | Some p -> (
              let resolved = Lint_engine.resolve scope p in
              match helper_of prog src resolved with
              | Some (`Fixed cls) -> Some { cls; index = None }
              | Some `From_arg ->
                  (* A with_lock whose lock expression we cannot name
                     records nothing; its lambda is analyzed like any
                     deferred closure. *)
                  Option.bind (List.nth_opt positional 0)
                    (resolve_lock_expr scope registry)
              | None ->
                  (match Lint_engine.callee prog src resolved with
                  | Some callee when not ignored ->
                      info.calls <-
                        { callee; c_held = held; c_site = site } :: info.calls
                  | _ -> ());
                  None)
        in
        Option.iter
          (fun lock ->
            if not ignored then
              info.acqs <-
                { a_held = held; a_lock = lock; a_site = site } :: info.acqs)
          lock;
        (* A helper runs its last positional lambda now, under the lock;
           every other argument is evaluated now, lambdas among them
           deferred. *)
        let body =
          match (lock, List.rev positional) with
          | Some lock, last :: _ when is_lambda last -> Some (lock, last)
          | _ -> None
        in
        List.iter
          (fun (_, a) ->
            match body with
            | Some (_, b) when b == a -> ()
            | _ -> walk info ~held ~ignored a)
          args;
        Option.iter
          (fun (lock, b) ->
            List.iter
              (walk info ~held:(lock :: held) ~ignored)
              (Lint_engine.lambda_bodies b))
          body;
        walk info ~held ~ignored f
    | None -> (
        match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
            (* A lambda no helper runs — an argument to an unknown
               callee, a stored hook, a record field — is a deferred
               closure, analyzed with an empty held set. *)
            let closure = fn_info st (anon_key ()) in
            List.iter
              (walk closure ~held:[] ~ignored)
              (Lint_engine.lambda_bodies e)
        | Pexp_let (_, vbs, body) ->
            List.iter
              (fun vb ->
                record_decls st file vb.pvb_attributes;
                let ignored' =
                  ignored || Lint_engine.has_attr ignore_attr vb.pvb_attributes
                in
                walk info ~held ~ignored:ignored' vb.pvb_expr)
              vbs;
            walk info ~held ~ignored body
        | _ ->
            List.iter (walk info ~held ~ignored) (Lint_engine.subexpressions e))
  in
  List.iter
    (fun vb ->
      record_decls st file vb.pvb_attributes;
      let ignored = Lint_engine.has_attr ignore_attr vb.pvb_attributes in
      let key =
        match Lint_engine.binder vb with
        | Some name -> (file, name)
        | None -> anon_key ()
      in
      List.iter
        (walk (fn_info st key) ~held:[] ~ignored)
        (Lint_engine.lambda_bodies vb.pvb_expr))
    (Lint_engine.top_bindings src.str)

(* {1 Whole-program summaries and checks} *)

module Classes = Set.Make (String)

(* Transitive acquisition classes per function: A(F) = direct classes
   plus A(G) for every known callee G. *)
let summaries st =
  Lint_engine.fixpoint ~bottom:Classes.empty ~equal:Classes.equal
    ~step:(fun get k ->
      let info = Hashtbl.find st.fns k in
      List.fold_left
        (fun a c -> Classes.union a (get c.callee))
        (Classes.of_list (List.map (fun acq -> acq.a_lock.cls) info.acqs))
        info.calls)
    (List.rev st.fn_order)

type edge = {
  e_src : lock;
  e_dst : lock;
  e_site : site;
  e_via : string option;  (* callee name, for summary-propagated edges *)
}

let edges_of st =
  let get = summaries st in
  List.concat_map
    (fun k ->
      let info = Hashtbl.find st.fns k in
      List.concat_map
        (fun acq ->
          List.map
            (fun h ->
              { e_src = h; e_dst = acq.a_lock; e_site = acq.a_site;
                e_via = None })
            acq.a_held)
        (List.rev info.acqs)
      @ List.concat_map
          (fun c ->
            List.concat_map
              (fun cls ->
                List.map
                  (fun h ->
                    {
                      e_src = h;
                      e_dst = { cls; index = None };
                      e_site = c.c_site;
                      e_via = Some (snd c.callee);
                    })
                  c.c_held)
              (Classes.elements (get c.callee)))
          (List.rev info.calls))
    (List.rev st.fn_order)

let analyze_state st =
  let edges = edges_of st in
  let declared_pairs = List.map (fun d -> (d.d_from, d.d_to)) st.decls in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let report_once key (site : site) message =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      if Lint_rules.lockdep.Lint_rules.applies site.s_file then
        findings :=
          Lint_engine.finding Lint_rules.lockdep site message :: !findings
    end
  in
  (* Declared orders are checked against the hierarchy, not trusted. *)
  List.iter
    (fun d ->
      match (rank d.d_from, rank d.d_to) with
      | Some ra, Some rb when ra > rb ->
          report_once ("decl", d.d_from, d.d_to) d.d_site
            (Printf.sprintf
               "[@%s \"%s < %s\"] contradicts the lock hierarchy (%s is \
                outside %s)"
               order_attr d.d_from d.d_to d.d_to d.d_from)
      | _ -> ())
    st.decls;
  (* Direct edge checks: hierarchy inversions and shard self-nesting. *)
  List.iter
    (fun e ->
      let src = e.e_src.cls and dst = e.e_dst.cls in
      let via =
        match e.e_via with
        | Some f -> Printf.sprintf " (via %s)" f
        | None -> ""
      in
      if src = dst then begin
        match (e.e_src.index, e.e_dst.index) with
        | Some i, Some j when j > i -> ()
        | Some i, Some j ->
            report_once ("shard", string_of_int i, string_of_int j) e.e_site
              (Printf.sprintf
                 "pt-shard %d acquired while holding pt-shard %d%s: shard \
                  pairs nest in ascending index order"
                 j i via)
        | _ ->
            if not (List.mem (src, dst) declared_pairs) then
              report_once ("self", src, dst) e.e_site
                (Printf.sprintf
                   "%s nests inside itself%s with no declared self-order: \
                    declare the index discipline with [@%s \"%s < %s\"]"
                   src via order_attr src dst)
      end
      else
        match (rank src, rank dst) with
        | Some ra, Some rb when ra > rb ->
            report_once ("inv", src, dst) e.e_site
              (Printf.sprintf
                 "%s acquired while holding %s%s: inverts the lock \
                  hierarchy (%s is outside %s)"
                 dst src via dst src)
        | _ -> ())
    edges;
  (* Cycle detection over inferred + declared class edges (self-edges
     handled above; hierarchy inversions already reported pairwise). *)
  let adj : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let add_adj (a, b) =
    if a <> b then begin
      let l =
        match Hashtbl.find_opt adj a with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add adj a l;
            l
      in
      if not (List.mem b !l) then l := b :: !l
    end
  in
  List.iter (fun e -> add_adj (e.e_src.cls, e.e_dst.cls)) edges;
  List.iter add_adj declared_pairs;
  let reaches src dst =
    let visited = Hashtbl.create 16 in
    let rec dfs n =
      n = dst
      || (not (Hashtbl.mem visited n))
         && begin
              Hashtbl.add visited n ();
              match Hashtbl.find_opt adj n with
              | Some l -> List.exists dfs !l
              | None -> false
            end
    in
    dfs src
  in
  List.iter
    (fun e ->
      let src = e.e_src.cls and dst = e.e_dst.cls in
      (* Skip pairs already reported as hierarchy inversions: the cycle
         is the same bug seen from the other side. *)
      let already =
        Hashtbl.mem seen ("inv", src, dst) || Hashtbl.mem seen ("inv", dst, src)
      in
      if src <> dst && (not already) && reaches dst src then
        report_once ("cycle", min src dst, max src dst) e.e_site
          (Printf.sprintf
             "acquisition cycle: %s -> %s but %s already reaches %s — two \
              nestings take these locks in opposite orders"
             src dst dst src))
    edges;
  (Lint_engine.sort_findings !findings, edges, declared_pairs)

(* {1 Graph export} *)

type graph = {
  nodes : string list;
  g_edges : (string * string * string) list;  (* src, dst, kind *)
}

let graph_of st =
  let _, edges, declared = analyze_state st in
  let hier =
    let rec chain = function
      | a :: (b :: _ as rest) -> (a, b, "hierarchy") :: chain rest
      | _ -> []
    in
    chain hierarchy
  in
  let inferred =
    List.map (fun e -> (e.e_src.cls, e.e_dst.cls, "inferred")) edges
  in
  let declared = List.map (fun (a, b) -> (a, b, "declared")) declared in
  let g_edges =
    List.sort_uniq compare (hier @ inferred @ declared)
  in
  let nodes =
    List.sort_uniq String.compare
      (hierarchy
      @ List.concat_map (fun (a, b, _) -> [ a; b ]) g_edges)
  in
  { nodes; g_edges }

let to_dot g =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph lock_order {\n  rankdir=TB;\n";
  List.iter
    (fun n -> Buffer.add_string b (Printf.sprintf "  %S;\n" n))
    g.nodes;
  List.iter
    (fun (src, dst, kind) ->
      let style =
        match kind with
        | "hierarchy" -> " [style=dashed, color=gray, label=\"hierarchy\"]"
        | "declared" -> " [style=dotted, label=\"declared\"]"
        | _ -> ""
      in
      Buffer.add_string b (Printf.sprintf "  %S -> %S%s;\n" src dst style))
    g.g_edges;
  Buffer.add_string b "}\n";
  Buffer.contents b

let to_json g =
  let node n = Printf.sprintf "%S" n in
  let edge (src, dst, kind) =
    Printf.sprintf "{\"src\":%S,\"dst\":%S,\"kind\":%S}" src dst kind
  in
  Printf.sprintf "{\"nodes\":[%s],\"edges\":[%s]}"
    (String.concat "," (List.map node g.nodes))
    (String.concat "," (List.map edge g.g_edges))

(* {1 Entry points} *)

let state_of prog =
  let st = new_state () in
  List.iter (analyze_file st prog) prog.Lint_engine.sources;
  st

let check prog =
  let findings, _, _ = analyze_state (state_of prog) in
  findings

let graph prog = graph_of (state_of prog)
