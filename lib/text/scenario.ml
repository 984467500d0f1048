open Ric_relational
open Ric_query
open Ric_constraints

type t = {
  db_schema : Schema.t;
  master_schema : Schema.t;
  db : Database.t;
  master : Database.t;
  queries : (string * Lang.t) list;
  ccs : (string * Containment.t) list;
  ctables : Ric_incomplete.Ctable.t list;
  checker : Checker.t Lazy.t;
}

exception Parse_error of string * int * int

let compile ~master ccs = lazy (Checker.create ~master (List.map snd ccs))

let checker t = Lazy.force t.checker

(* ------------------------------------------------------------------ *)
(* Parser state: a pull-based token cursor with a two-token lookahead
   window, fed either by the streaming lexer (the loader never holds
   the file or the token list in memory) or by a slurped token list
   (the legacy baseline kept for the ingest differential). *)

type state = {
  next_tok : unit -> Lexer.positioned;
  mutable la0 : Lexer.positioned option;
  mutable la1 : Lexer.positioned option;
}

let peek st =
  match st.la0 with
  | Some t -> t
  | None ->
    let t = st.next_tok () in
    st.la0 <- Some t;
    t

(* the token after {!peek} — [body_literal] disambiguates an atom from
   a bare term by it *)
let peek2 st =
  ignore (peek st);
  match st.la1 with
  | Some t -> t
  | None ->
    let t = st.next_tok () in
    st.la1 <- Some t;
    t

let advance st =
  match peek st with
  | { Lexer.tok = Lexer.EOF; _ } -> () (* EOF is sticky *)
  | _ ->
    st.la0 <- st.la1;
    st.la1 <- None

let fail_at (p : Lexer.positioned) msg = raise (Parse_error (msg, p.Lexer.line, p.Lexer.col))

let expect st tok =
  let p = peek st in
  if p.Lexer.tok = tok then advance st
  else fail_at p (Printf.sprintf "expected %s, found %s" (Lexer.describe tok) (Lexer.describe p.Lexer.tok))

let ident st =
  let p = peek st in
  match p.Lexer.tok with
  | Lexer.IDENT s ->
    advance st;
    s
  | other -> fail_at p (Printf.sprintf "expected an identifier, found %s" (Lexer.describe other))

let int_lit st =
  let p = peek st in
  match p.Lexer.tok with
  | Lexer.INT n ->
    advance st;
    n
  | other -> fail_at p (Printf.sprintf "expected an integer, found %s" (Lexer.describe other))

let comma_separated st parse_one =
  let first = parse_one st in
  let rec more acc =
    match (peek st).Lexer.tok with
    | Lexer.COMMA ->
      advance st;
      more (parse_one st :: acc)
    | _ -> List.rev acc
  in
  more [ first ]

(* ------------------------------------------------------------------ *)
(* Grammar pieces. *)

(* a value in a rows block: bare word → string, number → int *)
let row_value st =
  let p = peek st in
  match p.Lexer.tok with
  | Lexer.IDENT s ->
    advance st;
    Value.Str s
  | Lexer.STRING s ->
    advance st;
    Value.Str s
  | Lexer.INT n ->
    advance st;
    Value.Int n
  | other -> fail_at p (Printf.sprintf "expected a value, found %s" (Lexer.describe other))

(* a c-table cell: a value, or [?name] for a labelled null *)
let crow_cell st =
  match (peek st).Lexer.tok with
  | Lexer.QMARK ->
    advance st;
    Ric_incomplete.Ctable.Null (ident st)
  | _ -> Ric_incomplete.Ctable.Const (row_value st)

(* a term in a query body: identifier → variable, literal → constant *)
let term st =
  let p = peek st in
  match p.Lexer.tok with
  | Lexer.IDENT s ->
    advance st;
    Term.Var s
  | Lexer.STRING s ->
    advance st;
    Term.str s
  | Lexer.INT n ->
    advance st;
    Term.int n
  | other -> fail_at p (Printf.sprintf "expected a term, found %s" (Lexer.describe other))

let attribute st =
  let name = ident st in
  match (peek st).Lexer.tok with
  | Lexer.IDENT "in" ->
    advance st;
    expect st Lexer.LBRACE;
    let vs = comma_separated st row_value in
    expect st Lexer.RBRACE;
    let p = peek st in
    (try Schema.attribute ~dom:(Domain.finite vs) name
     with Invalid_argument m -> fail_at p m)
  | _ -> Schema.attribute name

let relation_sig st =
  let p = peek st in
  let name = ident st in
  expect st Lexer.LPAREN;
  let attrs = comma_separated st attribute in
  expect st Lexer.RPAREN;
  try Schema.relation name attrs with Invalid_argument m -> fail_at p m

type body_literal =
  | BAtom of Atom.t
  | BEq of Term.t * Term.t
  | BNeq of Term.t * Term.t

let body_literal st =
  let p = peek st in
  match p.Lexer.tok with
  | Lexer.IDENT name when (peek2 st).Lexer.tok = Lexer.LPAREN ->
    advance st;
    expect st Lexer.LPAREN;
    let args = comma_separated st term in
    expect st Lexer.RPAREN;
    BAtom (Atom.make name args)
  | _ ->
    let lhs = term st in
    let q = peek st in
    (match q.Lexer.tok with
     | Lexer.EQ ->
       advance st;
       BEq (lhs, term st)
     | Lexer.NEQ ->
       advance st;
       BNeq (lhs, term st)
     | other ->
       fail_at q (Printf.sprintf "expected '=' or '!=' after a term, found %s" (Lexer.describe other)))

let body st =
  let lits = comma_separated st body_literal in
  let atoms = List.filter_map (function BAtom a -> Some a | _ -> None) lits in
  let eqs = List.filter_map (function BEq (a, b) -> Some (a, b) | _ -> None) lits in
  let neqs = List.filter_map (function BNeq (a, b) -> Some (a, b) | _ -> None) lits in
  (atoms, eqs, neqs)

(* ------------------------------------------------------------------ *)
(* Items and the accumulating scenario. *)

(* How a [rows] block travels from the parser to [build].  The fast
   path interns every cell while parsing and packs the block into a
   columnar relation on the spot — no [Value.t list] per row, no
   per-tuple sort at build time.  The slurp path keeps the historical
   value-list representation as the ingest baseline, and installs each
   block with one bulk [Database.add_tuples]. *)
type row_block =
  | Row_vals of Value.t list list
  | Row_packed of Relation.t

type rows_mode =
  | Fast of Lexer.source
      (* the underlying byte source, so the rows fast path can hand
         the whole block to the fused scanner in {!Lexer.scan_cells} *)
  | Slurp

type acc = {
  mutable db_rels : Schema.relation_schema list;
  mutable m_rels : Schema.relation_schema list;
  mutable rows : (string * row_block * Lexer.positioned) list;
  mutable crows : (string * Ric_incomplete.Ctable.cell list list * Lexer.positioned) list;
  mutable queries : (string * Lang.t) list;
  mutable raw_ccs : (string * Cq.t * [ `Empty | `Proj of string * int list ] * Lexer.positioned) list;
  mutable fds : (string * string * string list * string list * Lexer.positioned) list;
}

let check_atom_against acc (p : Lexer.positioned) (a : Atom.t) =
  match List.find_opt (fun (r : Schema.relation_schema) -> r.Schema.rel_name = a.Atom.rel) acc.db_rels with
  | Some r ->
    if Schema.arity r <> Atom.arity a then
      fail_at p
        (Printf.sprintf "relation %S has arity %d but the atom has %d arguments" a.Atom.rel
           (Schema.arity r) (Atom.arity a))
  | None -> fail_at p (Printf.sprintf "unknown database relation %S (declare it with 'schema' first)" a.Atom.rel)

let parse_items mode st acc =
  let rec loop () =
    let p = peek st in
    match p.Lexer.tok with
    | Lexer.EOF -> ()
    | Lexer.IDENT "schema" ->
      advance st;
      acc.db_rels <- acc.db_rels @ [ relation_sig st ];
      expect st Lexer.DOT;
      loop ()
    | Lexer.IDENT "master" ->
      advance st;
      acc.m_rels <- acc.m_rels @ [ relation_sig st ];
      expect st Lexer.DOT;
      loop ()
    | Lexer.IDENT "rows" ->
      advance st;
      let where = peek st in
      let name = ident st in
      expect st Lexer.LBRACE;
      let block =
        match mode with
        | Slurp ->
          let rows = ref [] in
          let rec read_rows () =
            match (peek st).Lexer.tok with
            | Lexer.LPAREN ->
              advance st;
              let vs = comma_separated st row_value in
              expect st Lexer.RPAREN;
              rows := vs :: !rows;
              read_rows ()
            | _ -> ()
          in
          read_rows ();
          Row_vals (List.rev !rows)
        | Fast src ->
          (* cells go straight from the input buffer into the columnar
             builder as interned ids; nothing per-token or per-row is
             boxed.  The fused scanner requires an empty lookahead
             window (its tokens are still in the byte buffer) — after
             [expect LBRACE] both slots are clear, but fall back to
             the token-at-a-time loop if that ever changes. *)
          let b = Relation.Builder.create () in
          (match (st.la0, st.la1) with
          | None, None ->
            (try
               Lexer.scan_cells src
                 ~fail:(fun msg line col -> Parse_error (msg, line, col))
                 ~cell:(Relation.Builder.add_cell b)
                 ~end_row:(fun () -> Relation.Builder.end_row b)
             with Invalid_argument m -> fail_at where m)
          | _ ->
            let rec read_cells () =
              Relation.Builder.add_cell b (Intern.id (row_value st));
              match (peek st).Lexer.tok with
              | Lexer.COMMA ->
                advance st;
                read_cells ()
              | _ -> ()
            in
            let rec read_rows () =
              match (peek st).Lexer.tok with
              | Lexer.LPAREN ->
                advance st;
                read_cells ();
                expect st Lexer.RPAREN;
                (try Relation.Builder.end_row b
                 with Invalid_argument m -> fail_at where m);
                read_rows ()
              | _ -> ()
            in
            read_rows ());
          Row_packed (Relation.Builder.finish b)
      in
      expect st Lexer.RBRACE;
      expect st Lexer.DOT;
      acc.rows <- acc.rows @ [ (name, block, where) ];
      loop ()
    | Lexer.IDENT "crows" ->
      advance st;
      let where = peek st in
      let name = ident st in
      expect st Lexer.LBRACE;
      let rows = ref [] in
      let rec read_rows () =
        match (peek st).Lexer.tok with
        | Lexer.LPAREN ->
          advance st;
          let cells = comma_separated st crow_cell in
          expect st Lexer.RPAREN;
          rows := cells :: !rows;
          read_rows ()
        | _ -> ()
      in
      read_rows ();
      expect st Lexer.RBRACE;
      expect st Lexer.DOT;
      acc.crows <- acc.crows @ [ (name, List.rev !rows, where) ];
      loop ()
    | Lexer.IDENT "query" ->
      advance st;
      let qp = peek st in
      let name = ident st in
      expect st Lexer.LPAREN;
      let head =
        match (peek st).Lexer.tok with
        | Lexer.RPAREN -> []
        | _ -> comma_separated st term
      in
      expect st Lexer.RPAREN;
      expect st Lexer.TURNSTILE;
      let disjuncts = ref [] in
      let rec read_bodies () =
        let atoms, eqs, neqs = body st in
        List.iter (check_atom_against acc qp) atoms;
        disjuncts := Cq.make ~eqs ~neqs ~head atoms :: !disjuncts;
        match (peek st).Lexer.tok with
        | Lexer.PIPE ->
          advance st;
          read_bodies ()
        | _ -> ()
      in
      read_bodies ();
      expect st Lexer.DOT;
      let q =
        match List.rev !disjuncts with
        | [ one ] -> Lang.Q_cq one
        | many ->
          (try Lang.Q_ucq (Ucq.make many)
           with Invalid_argument m -> fail_at qp m)
      in
      acc.queries <- acc.queries @ [ (name, q) ];
      loop ()
    | Lexer.IDENT "constraint" ->
      advance st;
      let cp = peek st in
      let name = ident st in
      expect st Lexer.LPAREN;
      let head =
        match (peek st).Lexer.tok with
        | Lexer.RPAREN -> []
        | _ -> comma_separated st term
      in
      expect st Lexer.RPAREN;
      expect st Lexer.TURNSTILE;
      let atoms, eqs, neqs = body st in
      expect st Lexer.ARROW;
      let target =
        let tp = peek st in
        match tp.Lexer.tok with
        | Lexer.IDENT "empty" ->
          advance st;
          `Empty
        | Lexer.IDENT mrel ->
          advance st;
          expect st Lexer.LBRACKET;
          let cols = comma_separated st int_lit in
          expect st Lexer.RBRACKET;
          `Proj (mrel, cols)
        | other -> fail_at tp (Printf.sprintf "expected 'empty' or a master relation, found %s" (Lexer.describe other))
      in
      expect st Lexer.DOT;
      List.iter (check_atom_against acc cp) atoms;
      acc.raw_ccs <- acc.raw_ccs @ [ (name, Cq.make ~eqs ~neqs ~head atoms, target, cp) ];
      loop ()
    | Lexer.IDENT "fd" ->
      advance st;
      let fp = peek st in
      let name = ident st in
      let rel = ident st in
      expect st Lexer.COLON;
      let lhs = comma_separated st ident in
      expect st Lexer.FDARROW;
      let rhs = comma_separated st ident in
      expect st Lexer.DOT;
      acc.fds <- acc.fds @ [ (name, rel, lhs, rhs, fp) ];
      loop ()
    | other -> fail_at p (Printf.sprintf "expected a declaration keyword, found %s" (Lexer.describe other))
  in
  loop ()

let build acc =
  let db_schema =
    try Schema.make acc.db_rels
    with Invalid_argument m -> raise (Parse_error (m, 0, 0))
  in
  let master_schema =
    try Schema.make acc.m_rels
    with Invalid_argument m -> raise (Parse_error (m, 0, 0))
  in
  let db = ref (Database.empty db_schema) in
  let master = ref (Database.empty master_schema) in
  List.iter
    (fun (name, block, p) ->
      let target =
        if Schema.mem db_schema name then `Db
        else if Schema.mem master_schema name then `Master
        else fail_at p (Printf.sprintf "rows for undeclared relation %S" name)
      in
      match block with
      | Row_vals rows -> (
        (* validated tuple by tuple, in order, then merged once: the
           first bad row fails the block as a per-tuple fold would *)
        let pairs = List.map (fun vs -> (name, Tuple.make vs)) rows in
        try
          match target with
          | `Db -> db := Database.add_tuples !db pairs
          | `Master -> master := Database.add_tuples !master pairs
        with Invalid_argument m -> fail_at p m)
      | Row_packed rel ->
        (* install the whole block at once: [Database.empty]
           pre-populates every declared relation as [Relation.empty],
           so the union below is the block itself unless an earlier
           block already filled this relation.  Conformance is checked
           by [set_relation] — one pass. *)
        let into dbref =
          let merged =
            try Relation.union (Database.relation !dbref name) rel
            with Invalid_argument m -> fail_at p m
          in
          try dbref := Database.set_relation !dbref name merged
          with Invalid_argument m -> fail_at p m
        in
        (match target with
         | `Db -> into db
         | `Master -> into master))
    acc.rows;
  let ccs =
    List.map
      (fun (name, q, target, p) ->
        let projection =
          match target with
          | `Empty -> Projection.Empty
          | `Proj (mrel, cols) ->
            if not (Schema.mem master_schema mrel) then
              fail_at p (Printf.sprintf "unknown master relation %S" mrel);
            let arity = Schema.arity (Schema.find master_schema mrel) in
            List.iter
              (fun c ->
                if c < 0 || c >= arity then
                  fail_at p (Printf.sprintf "column %d out of range for %S" c mrel))
              cols;
            Projection.proj mrel cols
        in
        try (name, Containment.make ~name (Lang.Q_cq q) projection)
        with Invalid_argument m -> fail_at p m)
      acc.raw_ccs
  in
  let fd_ccs =
    List.concat_map
      (fun (name, rel, lhs, rhs, p) ->
        if not (Schema.mem db_schema rel) then
          fail_at p (Printf.sprintf "unknown database relation %S" rel);
        let rs = Schema.find db_schema rel in
        let col a =
          try Schema.attr_index rs a
          with Not_found -> fail_at p (Printf.sprintf "relation %S has no attribute %S" rel a)
        in
        let fd = Fd.make ~name ~rel ~lhs:(List.map col lhs) ~rhs:(List.map col rhs) () in
        (* '-' keeps the derived name a single lexer identifier, so a
           printed scenario re-parses ('#' would start a comment) *)
        List.mapi
          (fun i cc -> (Printf.sprintf "%s-%d" name i, cc))
          (Translate.of_fd db_schema fd))
      acc.fds
  in
  let ctables =
    List.map
      (fun (name, rows, p) ->
        if not (Schema.mem db_schema name) then
          fail_at p (Printf.sprintf "crows for undeclared database relation %S" name);
        let arity = Schema.arity (Schema.find db_schema name) in
        let crows = List.map (fun cells -> Ric_incomplete.Ctable.row cells) rows in
        (* fold ground rows of the same relation into the c-table so
           the world semantics sees the whole relation *)
        let ground =
          match Database.relation !db name with
          | rel ->
            List.map Ric_incomplete.Ctable.ground (Relation.elements rel)
          | exception Not_found -> []
        in
        try Ric_incomplete.Ctable.make ~rel:name ~arity (ground @ crows)
        with Invalid_argument m -> fail_at p m)
      acc.crows
  in
  let ccs = ccs @ fd_ccs in
  {
    db_schema;
    master_schema;
    db = !db;
    master = !master;
    queries = acc.queries;
    ccs;
    ctables;
    checker = compile ~master:!master ccs;
  }

let parse_tokens mode next_tok =
  let st = { next_tok; la0 = None; la1 = None } in
  let acc =
    { db_rels = []; m_rels = []; rows = []; crows = []; queries = []; raw_ccs = []; fds = [] }
  in
  (try parse_items mode st acc
   with Lexer.Lex_error (m, l, c) -> raise (Parse_error (m, l, c)));
  build acc

let parse ?chunk src =
  let s = Lexer.of_string ?chunk src in
  parse_tokens (Fast s) (fun () -> Lexer.next s)

(* The pre-streaming loader, verbatim in behaviour: whole-input token
   list, value-list rows, each block validated tuple by tuple and
   merged in bulk.  Kept as the baseline the ingest bench and the
   loader differential compare the fast path against. *)
let parse_slurp src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Lex_error (m, l, c) -> raise (Parse_error (m, l, c))
  in
  let cursor = ref toks in
  let next_tok () =
    match !cursor with
    | [ last ] -> last (* the final EOF, held forever *)
    | t :: rest ->
      cursor := rest;
      t
    | [] -> assert false (* tokenize always ends with EOF *)
  in
  parse_tokens Slurp next_tok

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let s = Lexer.of_channel ic in
      parse_tokens (Fast s) (fun () -> Lexer.next s))

let all_ccs (t : t) = List.map snd t.ccs

let find_query (t : t) name = List.assoc_opt name t.queries

let as_cdatabase (t : t) =
  let covered = List.map (fun (c : Ric_incomplete.Ctable.t) -> c.Ric_incomplete.Ctable.rel) t.ctables in
  let ground_tables =
    Database.fold
      (fun name rel acc ->
        if List.mem name covered || Relation.is_empty rel then acc
        else
          Ric_incomplete.Ctable.make ~rel:name
            ~arity:(Schema.arity (Schema.find t.db_schema name))
            (List.map Ric_incomplete.Ctable.ground (Relation.elements rel))
          :: acc)
      t.db []
  in
  Ric_incomplete.Cdatabase.make t.db_schema (t.ctables @ ground_tables)

(* ------------------------------------------------------------------ *)
(* Printing back. *)

(* only strings that lex back as a single identifier may print bare;
   anything else ("01", "b c", ...) needs quotes to survive a reprint *)
let bare_ident s =
  s <> ""
  && Lexer.is_ident_start s.[0]
  && String.for_all Lexer.is_ident_char s

let pp_value ppf = function
  | Value.Int n -> Format.fprintf ppf "%d" n
  | Value.Str s when bare_ident s -> Format.fprintf ppf "%s" s
  | Value.Str s -> Format.fprintf ppf "\"%s\"" s

let pp_attr ppf (a : Schema.attribute) =
  match Domain.values a.Schema.attr_dom with
  | None -> Format.fprintf ppf "%s" a.Schema.attr_name
  | Some vs ->
    Format.fprintf ppf "%s in {%a}" a.Schema.attr_name
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_value)
      vs

let pp_sig keyword ppf (r : Schema.relation_schema) =
  Format.fprintf ppf "%s %s(%a).@." keyword r.Schema.rel_name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_attr)
    r.Schema.attrs

let pp_rows ppf name rel =
  if not (Relation.is_empty rel) then begin
    Format.fprintf ppf "rows %s {" name;
    Relation.iter
      (fun t ->
        Format.fprintf ppf " (%a)"
          (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_value)
          (Tuple.values t))
      rel;
    Format.fprintf ppf " }.@."
  end

let pp_term ppf = function
  | Term.Var x -> Format.fprintf ppf "%s" x
  | Term.Const (Value.Int n) -> Format.fprintf ppf "%d" n
  | Term.Const (Value.Str s) -> Format.fprintf ppf "%S" s

let pp_body ppf (q : Cq.t) =
  let items =
    List.map (fun (a : Atom.t) ppf ->
        Format.fprintf ppf "%s(%a)" a.Atom.rel
          (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
          a.Atom.args)
      q.Cq.atoms
    @ List.map (fun (a, b) ppf -> Format.fprintf ppf "%a = %a" pp_term a pp_term b) q.Cq.eqs
    @ List.map (fun (a, b) ppf -> Format.fprintf ppf "%a != %a" pp_term a pp_term b) q.Cq.neqs
  in
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    (fun ppf f -> f ppf)
    ppf items

let pp_head ppf (q : Cq.t) =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term ppf q.Cq.head

let pp_named_constraint ppf (name, cc) =
  match cc.Containment.lhs with
  | Lang.Q_cq q ->
    let target ppf =
      match cc.Containment.rhs with
      | Projection.Empty -> Format.fprintf ppf "empty"
      | Projection.Proj { mrel; cols } ->
        Format.fprintf ppf "%s[%a]" mrel
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
             Format.pp_print_int)
          cols
    in
    Format.fprintf ppf "constraint %s(%a) :- %a => %t.@." name pp_head q
      pp_body q target
  | _ -> ()

let with_ccs t ccs = { t with ccs; checker = compile ~master:t.master ccs }

let pp ppf (t : t) =
  List.iter (pp_sig "schema" ppf) (Schema.relations t.db_schema);
  List.iter (pp_sig "master" ppf) (Schema.relations t.master_schema);
  Database.fold (fun name rel () -> pp_rows ppf name rel) t.db ();
  Database.fold (fun name rel () -> pp_rows ppf name rel) t.master ();
  List.iter
    (fun (c : Ric_incomplete.Ctable.t) ->
      let has_null (r : Ric_incomplete.Ctable.row) =
        List.exists
          (function
            | Ric_incomplete.Ctable.Null _ -> true
            | Ric_incomplete.Ctable.Const _ -> false)
          r.Ric_incomplete.Ctable.cells
      in
      let null_rows = List.filter has_null c.Ric_incomplete.Ctable.rows in
      if null_rows <> [] then begin
        Format.fprintf ppf "crows %s {" c.Ric_incomplete.Ctable.rel;
        List.iter
          (fun (r : Ric_incomplete.Ctable.row) ->
            Format.fprintf ppf " (%a)"
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                 (fun ppf -> function
                   | Ric_incomplete.Ctable.Const v -> pp_value ppf v
                   | Ric_incomplete.Ctable.Null n -> Format.fprintf ppf "?%s" n))
              r.Ric_incomplete.Ctable.cells)
          null_rows;
        Format.fprintf ppf " }.@."
      end)
    t.ctables;
  List.iter
    (fun (name, q) ->
      match q with
      | Lang.Q_cq cq ->
        Format.fprintf ppf "query %s(%a) :- %a.@." name pp_head cq pp_body cq
      | Lang.Q_ucq (first :: _ as disjuncts) ->
        Format.fprintf ppf "query %s(%a) :- %a.@." name pp_head first
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
             pp_body)
          disjuncts
      | _ -> ())
    t.queries;
  List.iter (pp_named_constraint ppf) t.ccs

(* [pp] already streams — it never materialises the scenario as one
   string — so writing to a channel-backed formatter keeps memory
   bounded by one rows line regardless of cardinality. *)
let output oc t =
  let ppf = Format.formatter_of_out_channel oc in
  pp ppf t;
  Format.pp_print_flush ppf ()
