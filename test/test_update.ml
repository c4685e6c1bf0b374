(* Structural updates over the pre/size/level encoding.

   The oracle is the tree level: every mutation is replayed as a plain
   splice on the Scj_xml.Tree the document was encoded from, re-encoded
   from scratch, and compared column by column against the incremental
   Update.apply renumbering.  The same fuzz drives the incremental
   maintenance paths — document statistics, the SQL-plan B-tree index,
   the planner session — each checked for equality with a from-scratch
   rebuild over the mutated document. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree
module Doc_stats = Scj_stats.Doc_stats
module Sql_plan = Scj_engine.Sql_plan
module Eval = Scj_xpath.Eval
module Fragmented = Scj_frag.Fragmented
module Err = Scj_error.Error
module Fuzz = Test_support.Fuzz

(* ------------------------------------------------------------------ *)
(* column-level document equality                                      *)
(* ------------------------------------------------------------------ *)

let doc_eq a b =
  Doc.n_nodes a = Doc.n_nodes b
  && Doc.post_array a = Doc.post_array b
  && Doc.size_array a = Doc.size_array b
  && Doc.level_array a = Doc.level_array b
  && Doc.kind_array a = Doc.kind_array b
  && Doc.attr_prefix_array a = Doc.attr_prefix_array b
  &&
  let n = Doc.n_nodes a in
  let rec rows pre =
    pre >= n
    || Doc.tag_name a pre = Doc.tag_name b pre
       && Doc.content a pre = Doc.content b pre
       && rows (pre + 1)
  in
  rows 0

let check_doc_eq what a b =
  if not (doc_eq a b) then Alcotest.failf "%s: renumbered document differs from oracle" what

(* ------------------------------------------------------------------ *)
(* the tree-level oracle                                                *)
(* ------------------------------------------------------------------ *)

(* Pre ranks in the encoding: a node takes one rank; an element's
   attributes take the next |attrs| ranks; its children follow. *)
let rec tree_size t =
  match t with
  | Tree.Element e ->
    1 + List.length e.attributes + List.fold_left (fun a c -> a + tree_size c) 0 e.children
  | _ -> 1

(* Remove the subtree (or single attribute) rooted at pre rank [target]. *)
let oracle_delete tree target =
  let rec go t pre =
    if pre = target then []
    else
      match t with
      | Tree.Element e ->
        let n_attrs = List.length e.attributes in
        let attributes =
          if target > pre && target <= pre + n_attrs then
            List.filteri (fun i _ -> pre + 1 + i <> target) e.attributes
          else e.attributes
        in
        let children, _ =
          List.fold_left
            (fun (acc, p) c -> (acc @ go c p, p + tree_size c))
            ([], pre + 1 + n_attrs) e.children
        in
        [ Tree.Element { e with attributes; children } ]
      | other -> [ other ]
  in
  match go tree 0 with [ t ] -> t | _ -> Alcotest.fail "oracle: root deleted"

(* Rename the element / attribute / PI at pre rank [target]. *)
let oracle_rename tree target name =
  let rec go t pre =
    match t with
    | Tree.Element e ->
      let n_attrs = List.length e.attributes in
      let attributes =
        if target > pre && target <= pre + n_attrs then
          List.mapi (fun i (k, v) -> if pre + 1 + i = target then (name, v) else (k, v)) e.attributes
        else e.attributes
      in
      let children, _ =
        List.fold_left
          (fun (acc, p) c -> (acc @ [ go c p ], p + tree_size c))
          ([], pre + 1 + n_attrs) e.children
      in
      let e = { e with attributes; children } in
      if pre = target then Tree.Element { e with Tree.name } else Tree.Element e
    | Tree.Pi p when pre = target -> Tree.Pi { p with target = name }
    | other -> other
  in
  go tree 0

(* Insert [fragment] as a child of the element at pre rank [parent],
   before the child at pre rank [before] (append when [None]). *)
let oracle_insert tree parent before fragment =
  let rec go t pre =
    match t with
    | Tree.Element e ->
      let n_attrs = List.length e.attributes in
      let child_pres, _ =
        List.fold_left
          (fun (acc, p) c -> (acc @ [ (c, p) ], p + tree_size c))
          ([], pre + 1 + n_attrs) e.children
      in
      let children = List.map (fun (c, p) -> go c p) child_pres in
      let children =
        if pre <> parent then children
        else
          match before with
          | None -> children @ [ fragment ]
          | Some b ->
            List.concat_map
              (fun ((_, p), c) -> if p = b then [ fragment; c ] else [ c ])
              (List.combine child_pres children)
      in
      Tree.Element { e with children }
    | other -> other
  in
  go tree 0

let oracle_apply tree op =
  match op with
  | Update.Delete { pre } -> oracle_delete tree pre
  | Update.Rename { pre; name } -> oracle_rename tree pre name
  | Update.Insert { parent; before; fragment } -> oracle_insert tree parent before fragment

(* ------------------------------------------------------------------ *)
(* incremental-maintenance equality                                    *)
(* ------------------------------------------------------------------ *)

let stats_canonical (s : Doc_stats.t) =
  let tags =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.Doc_stats.tags []
    |> List.sort compare
    |> List.filter (fun ((_ : string), t) -> t <> Doc_stats.zero_tag)
  in
  ( s.Doc_stats.n_nodes, s.Doc_stats.n_elements, s.Doc_stats.n_attributes, s.Doc_stats.n_texts,
    s.Doc_stats.n_comments, s.Doc_stats.n_pis, s.Doc_stats.height, s.Doc_stats.root_size,
    s.Doc_stats.element_subtree_sum, s.Doc_stats.element_level_sum, tags )

let check_maintenance what ~old_doc ~stats ~index (applied : Update.applied) =
  let doc = applied.Update.doc in
  (* statistics: incremental patch = fresh scan *)
  let patched =
    Doc_stats.update stats ~old_doc ~doc ~splice:applied.Update.splice ~delta:applied.Update.delta
  in
  if stats_canonical patched <> stats_canonical (Doc_stats.build doc) then
    Alcotest.failf "%s: incremental Doc_stats diverge from a fresh build" what;
  (* B-tree index: incremental maintain = fresh bulk load, binding for
     binding (this also pins dictionary-symbol stability across the
     mutation: values are interned tag symbols) *)
  Sql_plan.maintain index ~old_doc ~doc ~splice:applied.Update.splice ~delta:applied.Update.delta;
  if Sql_plan.index_bindings index <> Sql_plan.index_bindings (Sql_plan.build_index doc) then
    Alcotest.failf "%s: maintained B-tree index diverges from a fresh bulk load" what;
  patched

(* Rows the splice did not touch keep their tag symbol ids, shifted by
   [delta] past the splice point: Sql_plan.maintain keeps the index
   entries of those rows as they are. *)
let check_tag_ids what ~old_doc applied =
  let { Update.doc; splice; delta } = applied in
  (* first old row past the replaced range: a delete drops [-delta]
     rows, a rename changes one *)
  let shifted_from = splice + if delta < 0 then -delta else if delta = 0 then 1 else 0 in
  for pre = 0 to Doc.n_nodes old_doc - 1 do
    let moved =
      if pre < splice then Some pre else if pre >= shifted_from then Some (pre + delta) else None
    in
    match moved with
    | Some pre' when Doc.tag doc pre' <> Doc.tag old_doc pre ->
      Alcotest.failf "%s: row %d (now %d) changed its tag symbol %d -> %d" what pre pre'
        (Doc.tag old_doc pre) (Doc.tag doc pre')
    | Some _ | None -> ()
  done

let queries =
  [
    "/descendant::a";
    "/descendant::item";
    "//item/ancestor::b";
    "//a/descendant::x";
    "//b/following::y";
    "//x/preceding::a";
  ]

let check_session_parity what session doc =
  let fresh = Eval.session doc in
  List.iter
    (fun q ->
      let got = Result.map Nodeseq.to_list (Eval.run session q) in
      let want = Result.map Nodeseq.to_list (Eval.run fresh q) in
      if got <> want then Alcotest.failf "%s: evolved session diverges on %s" what q)
    queries

(* ------------------------------------------------------------------ *)
(* random histories                                                    *)
(* ------------------------------------------------------------------ *)

let pres_of_kind doc k =
  let acc = ref [] in
  Array.iteri (fun pre k' -> if k = k' then acc := pre :: !acc) (Doc.kind_array doc);
  Array.of_list (List.rev !acc)

let pick st arr = arr.(Random.State.int st (Array.length arr))

let small_fragment st =
  match Random.State.int st 3 with
  | 0 -> Tree.elem "item" [ Tree.text "ins" ]
  | 1 -> Tree.elem ~attributes:[ ("k0", "9") ] "a" [ Tree.elem "y" [] ]
  | _ -> Tree.text "spliced"

let random_op st doc =
  let elements = pres_of_kind doc Doc.Element in
  match Random.State.int st 4 with
  | 0 | 1 -> Update.Insert { parent = pick st elements; before = None; fragment = small_fragment st }
  | 2 when Doc.n_nodes doc > 3 ->
    (* any non-root node: subtree deletes, attribute deletes, leaf
       ("empty-subtree") deletes all fall out of the draw *)
    Update.Delete { pre = 1 + Random.State.int st (Doc.n_nodes doc - 1) }
  | _ -> Update.Rename { pre = pick st elements; name = Fuzz.pick_name st }

let fuzz_history ~checks shape seed =
  let tree = Fuzz.tree shape seed in
  let st = Random.State.make [| 0xdd5; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  let rec steps i tree doc stats index session =
    if i >= 6 then ()
    else
      let op = random_op st doc in
      let what =
        Printf.sprintf "shape=%s seed=%d step=%d op=%s" (Fuzz.shape_to_string shape) seed i
          (Update.op_to_string op)
      in
      match Update.apply doc op with
      | Error (Err.Validation msg)
        when String.starts_with ~prefix:"mutation broke the encoding" msg ->
        Alcotest.failf "%s: %s" what msg
      | Error _ ->
        (* an invalid draw (e.g. delete pre landed outside a deletable
           row): redrawing forever cannot happen because inserts and
           renames always validate *)
        steps i tree doc stats index session
      | Ok applied ->
        incr checks;
        let next = applied.Update.doc in
        (match Doc.validate next with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: Equation (1) broken: %s" what e);
        (* the WAL payload roundtrips *)
        (match Update.decode (Update.encode op) with
        | Ok op' when op' = op -> ()
        | Ok _ -> Alcotest.failf "%s: encode/decode changed the op" what
        | Error e -> Alcotest.failf "%s: decode failed: %s" what e);
        (* tree-level oracle *)
        let tree = oracle_apply tree op in
        let oracle = Doc.of_tree tree in
        check_doc_eq what next oracle;
        (* the splice keeps the oracle's text layout: slots dense and in
           pre order, so checkpoint images stay byte-identical *)
        if Doc.content_array next <> Doc.content_array oracle then
          Alcotest.failf "%s: text slots differ from the oracle's layout" what;
        check_tag_ids what ~old_doc:doc applied;
        (* incremental maintenance = from-scratch rebuild *)
        let stats = check_maintenance what ~old_doc:doc ~stats ~index applied in
        let session = Eval.evolve session applied in
        check_session_parity what session next;
        steps (i + 1) tree next stats index session
  in
  let doc = Doc.of_tree tree in
  steps 0 tree doc (Doc_stats.build doc) (Sql_plan.build_index doc) (Eval.session doc)

let test_fuzz () =
  let checks = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_history ~checks shape seed) [ 0; 1; 2 ])
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "enough mutation checks (%d)" !checks)
    true (!checks >= 100)

(* ------------------------------------------------------------------ *)
(* edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let doc_of_string s = match Doc.of_string s with Ok d -> d | Error e -> Alcotest.fail e

let apply_exn doc op =
  match Update.apply doc op with
  | Ok a -> a
  | Error e -> Alcotest.failf "apply %s: %s" (Update.op_to_string op) (Err.to_string e)

let base = {|<r><a k="1"><b/></a><c>text</c><empty/></r>|}

let test_insert_at_root () =
  let doc = doc_of_string base in
  let fragment = Tree.elem "new" [ Tree.text "n" ] in
  (* append as the root's last child *)
  let appended = apply_exn doc (Update.Insert { parent = 0; before = None; fragment }) in
  Alcotest.(check int) "append delta" 2 appended.Update.delta;
  Alcotest.(check (option string)) "appended is the last child" (Some "new")
    (Doc.tag_name appended.Update.doc (Doc.n_nodes appended.Update.doc - 2));
  (* prepend: before the root's first non-attribute child *)
  let first_child = 1 in
  let prepended = apply_exn doc (Update.Insert { parent = 0; before = Some first_child; fragment }) in
  Alcotest.(check int) "prepend splice = first child" first_child prepended.Update.splice;
  Alcotest.(check (option string)) "fragment took the first-child rank" (Some "new")
    (Doc.tag_name prepended.Update.doc first_child);
  (* the old first child survived, shifted by the fragment size *)
  Alcotest.(check (option string)) "old first child shifted" (Some "a")
    (Doc.tag_name prepended.Update.doc (first_child + 2));
  (* inserting into a childless element *)
  let empty = Doc.n_nodes doc - 1 in
  Alcotest.(check (option string)) "target is <empty/>" (Some "empty") (Doc.tag_name doc empty);
  let filled = apply_exn doc (Update.Insert { parent = empty; before = None; fragment }) in
  Alcotest.(check int) "child of the empty element" (Doc.level filled.Update.doc empty + 1)
    (Doc.level filled.Update.doc (empty + 1));
  List.iter
    (fun (a : Update.applied) ->
      match Doc.validate a.Update.doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "Equation (1) broken: %s" e)
    [ appended; prepended; filled ]

let test_delete_at_root () =
  let doc = doc_of_string base in
  (match Update.apply doc (Update.Delete { pre = 0 }) with
  | Error (Err.Validation _) -> ()
  | Error e -> Alcotest.failf "expected a validation error, got %s" (Err.to_string e)
  | Ok _ -> Alcotest.fail "deleting the document root was accepted");
  (* deleting every child one by one leaves the bare root *)
  let rec strip doc =
    if Doc.n_nodes doc = 1 then doc
    else strip (apply_exn doc (Update.Delete { pre = 1 })).Update.doc
  in
  let bare = strip doc in
  Alcotest.(check int) "bare root" 1 (Doc.n_nodes bare);
  Alcotest.(check int) "root size 0" 0 (Doc.size bare 0);
  (* and the bare root still accepts an insert *)
  let refilled =
    apply_exn bare (Update.Insert { parent = 0; before = None; fragment = Tree.elem "x" [] })
  in
  Alcotest.(check int) "refilled" 2 (Doc.n_nodes refilled.Update.doc)

let test_delete_empty_subtree () =
  let doc = doc_of_string base in
  (* <b/> is a leaf: its subtree is empty (size 0) *)
  let b =
    match Doc.tag_positions doc "b" with [| pre |] -> pre | _ -> Alcotest.fail "no <b/>"
  in
  Alcotest.(check int) "b is a leaf" 0 (Doc.size doc b);
  let deleted = apply_exn doc (Update.Delete { pre = b }) in
  Alcotest.(check int) "one node gone" (Doc.n_nodes doc - 1) (Doc.n_nodes deleted.Update.doc);
  Alcotest.(check int) "delta" (-1) deleted.Update.delta;
  check_doc_eq "leaf delete" deleted.Update.doc
    (doc_of_string {|<r><a k="1"></a><c>text</c><empty/></r>|});
  match Doc.validate deleted.Update.doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Equation (1) broken: %s" e

let test_invalid_targets () =
  let doc = doc_of_string base in
  let expect_invalid what op =
    match Update.apply doc op with
    | Error (Err.Validation _) -> ()
    | Error e -> Alcotest.failf "%s: expected a validation error, got %s" what (Err.to_string e)
    | Ok _ -> Alcotest.failf "%s was accepted" what
  in
  let text =
    let rec find pre = if Doc.kind doc pre = Doc.Text then pre else find (pre + 1) in
    find 0
  in
  expect_invalid "insert under a text node"
    (Update.Insert { parent = text; before = None; fragment = Tree.elem "x" [] });
  expect_invalid "insert before a non-child"
    (Update.Insert { parent = 0; before = Some text; fragment = Tree.elem "x" [] });
  expect_invalid "rename a text node" (Update.Rename { pre = text; name = "nope" });
  expect_invalid "delete out of range" (Update.Delete { pre = Doc.n_nodes doc });
  expect_invalid "insert under an attribute"
    (Update.Insert { parent = 2; before = None; fragment = Tree.elem "x" [] })

(* Renaming a node of a tag that forms a fragmentation partition: the
   partition map, the tag views and the planner all follow. *)
let test_rename_partition_tag () =
  let doc = doc_of_string {|<r><a><b/></a><a><b/></a><a><b/></a></r>|} in
  let session = Eval.session doc in
  let frag = Fragmented.build doc in
  Alcotest.(check bool) "a is a partition tag" true
    (List.mem_assoc "a" (Fragmented.tags frag));
  let target =
    match Doc.tag_positions doc "a" with [||] -> Alcotest.fail "no <a>" | ps -> ps.(1)
  in
  let applied = apply_exn doc (Update.Rename { pre = target; name = "z" }) in
  let doc' = applied.Update.doc in
  Alcotest.(check int) "rename keeps the node count" (Doc.n_nodes doc) (Doc.n_nodes doc');
  Alcotest.(check int) "a lost one member" 2 (Array.length (Doc.tag_positions doc' "a"));
  Alcotest.(check (array int)) "z holds the renamed pre" [| target |]
    (Doc.tag_positions doc' "z");
  (* the rebuilt partition map reflects the new tag *)
  let frag' = Fragmented.build doc' in
  Alcotest.(check (option int)) "partition count of a" (Some 2)
    (List.assoc_opt "a" (Fragmented.tags frag'));
  Alcotest.(check (option int)) "partition count of z" (Some 1)
    (List.assoc_opt "z" (Fragmented.tags frag'));
  (* the evolved session answers tag queries under the new name *)
  let session = Eval.evolve session applied in
  (match Eval.run session "/descendant::z" with
  | Ok r -> Alcotest.(check (list int)) "evolved //z" [ target ] (Nodeseq.to_list r)
  | Error e -> Alcotest.failf "evolved //z: %s" (Err.to_string e));
  match Eval.run session "/descendant::a" with
  | Ok r -> Alcotest.(check int) "evolved //a" 2 (Nodeseq.length r)
  | Error e -> Alcotest.failf "evolved //a: %s" (Err.to_string e)

let () =
  Alcotest.run "update"
    [
      ( "update",
        [
          Alcotest.test_case "insert at root" `Quick test_insert_at_root;
          Alcotest.test_case "delete at root" `Quick test_delete_at_root;
          Alcotest.test_case "empty-subtree delete" `Quick test_delete_empty_subtree;
          Alcotest.test_case "invalid targets" `Quick test_invalid_targets;
          Alcotest.test_case "rename on a partition tag" `Quick test_rename_partition_tag;
          Alcotest.test_case "history fuzz vs tree oracle" `Slow test_fuzz;
        ] );
    ]
