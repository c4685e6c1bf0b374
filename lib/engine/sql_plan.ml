module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Btree = Scj_btree.Btree
module Packed = Scj_btree.Btree.Packed

module Exec = Scj_trace.Exec

let ensure_exec = function None -> Exec.make () | Some e -> e

type index = { tree : int Btree.Int.t; mutable height : int }

let build_index ?(order = 64) doc =
  let n = Doc.n_nodes doc in
  let pairs =
    Array.init n (fun pre ->
        (Packed.make ~pre ~post:(Doc.post doc pre), Doc.tag doc pre))
  in
  (* packed keys are strictly increasing in pre, hence sorted *)
  { tree = Btree.Int.of_sorted_array ~order pairs; height = Doc.height doc }

let index_pages idx = Btree.Int.node_counts idx.tree
let index_bindings idx = Btree.Int.to_list idx.tree

(* The (pre, post) keys a splice invalidates are exactly the rows at and
   after the splice point (rank shift moves pre) plus the O(height)
   ancestors of the splice (size change moves post, pre stays).  Rows
   before the splice keep both ranks, and their tag values stay valid
   because renditions share dictionary numbering (the column splice
   interns into a copy of the old dictionary).  Cost is O((n - splice + height) log n) against O(n)
   for a rebuild — O(height log n) for the append-at-end case. *)
let maintain idx ~old_doc ~doc ~splice ~delta =
  let n_old = Doc.n_nodes old_doc and n_new = Doc.n_nodes doc in
  let chain_doc = if delta < 0 then old_doc else doc in
  let rec ancestors acc v =
    if v < 0 then acc else ancestors (v :: acc) (Doc.parent chain_doc v)
  in
  let chain =
    if delta = 0 || splice >= Doc.n_nodes chain_doc then []
    else ancestors [] (Doc.parent chain_doc splice)
  in
  for pre = splice to n_old - 1 do
    ignore (Btree.Int.delete idx.tree (Packed.make ~pre ~post:(Doc.post old_doc pre)))
  done;
  List.iter
    (fun a -> ignore (Btree.Int.delete idx.tree (Packed.make ~pre:a ~post:(Doc.post old_doc a))))
    chain;
  for pre = splice to n_new - 1 do
    Btree.Int.insert idx.tree (Packed.make ~pre ~post:(Doc.post doc pre)) (Doc.tag doc pre)
  done;
  List.iter
    (fun a -> Btree.Int.insert idx.tree (Packed.make ~pre:a ~post:(Doc.post doc a)) (Doc.tag doc a))
    chain;
  idx.height <- Doc.height doc

type options = { delimiter : bool; early_nametest : string option }

let default_options = { delimiter = true; early_nametest = None }

let step ?exec ?(options = default_options) idx doc context axis =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  let n = Doc.n_nodes doc in
  let nametest_sym =
    match options.early_nametest with
    | None -> None
    | Some name -> (
      match Doc.tag_symbol doc name with
      | Some sym -> Some sym
      | None -> Some (-2) (* name absent from the document: match nothing *))
  in
  let keep tag = match nametest_sym with None -> true | Some sym -> tag = sym in
  let kinds = Doc.kind_array doc in
  let hits = Int_col.create ~capacity:64 () in
  let scan_one c =
    let post_c = Doc.post doc c in
    match axis with
    | `Descendant ->
      (* index range scan: pre in (c, end]; with the Equation-(1)
         delimiter the scan stops at pre = post(c) + height *)
      let hi_pre = if options.delimiter then min (n - 1) (post_c + idx.height) else n - 1 in
      if hi_pre > c then
        Btree.Int.iter_range ~exec ~lo:(Packed.lo ~pre:(c + 1)) ~hi:(Packed.hi ~pre:hi_pre)
          idx.tree (fun key tag ->
            stats.Stats.scanned <- stats.Stats.scanned + 1;
            let pre = Packed.pre key and post = Packed.post key in
            if post < post_c && keep tag && kinds.(pre) <> Doc.Attribute then begin
              Int_col.append_unit hits pre;
              stats.Stats.appended <- stats.Stats.appended + 1
            end)
    | `Ancestor ->
      (* the RDBMS can only delimit on pre: scan the whole prefix *)
      if c > 0 then
        Btree.Int.iter_range ~exec ~lo:(Packed.lo ~pre:0) ~hi:(Packed.hi ~pre:(c - 1)) idx.tree
          (fun key tag ->
            stats.Stats.scanned <- stats.Stats.scanned + 1;
            let pre = Packed.pre key and post = Packed.post key in
            if post > post_c && keep tag then begin
              Int_col.append_unit hits pre;
              stats.Stats.appended <- stats.Stats.appended + 1
            end)
  in
  Nodeseq.iter scan_one context;
  Operators.sort_unique ~exec hits
