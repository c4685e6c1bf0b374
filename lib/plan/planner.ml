module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec
module Doc_stats = Scj_stats.Doc_stats
module Sj = Scj_core.Staircase
module Axis = Scj_encoding.Axis
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Morsel_join = Scj_frag.Morsel
module Paged_doc = Scj_pager.Paged_doc
module Naive_join = Scj_engine.Naive
module Sql_plan = Scj_engine.Sql_plan
module Mpmgjn_join = Scj_engine.Mpmgjn
module Structjoin_join = Scj_engine.Structjoin
module Guide = Scj_guide.Guide
open Plan

(* ------------------------------------------------------------------ *)
(* catalog                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  cat_doc : Doc.t;
  paged : Paged_doc.t option;
  domains : int;
  views : (string, Sj.View.t) Hashtbl.t;
  guide_views : (string, Sj.View.t) Hashtbl.t;
  mutable elements : Sj.View.t option;
  mutable dstats : Doc_stats.t option;
  mutable cat_guide : Guide.t option;
  mutable index : Sql_plan.index option;
}

let catalog ?paged ?domains ?guide doc =
  let domains = match domains with Some d -> max 1 d | None -> Exec.default_domains () in
  {
    cat_doc = doc;
    paged;
    domains;
    views = Hashtbl.create 16;
    guide_views = Hashtbl.create 16;
    elements = None;
    dstats = None;
    cat_guide = guide;
    index = None;
  }

let doc t = t.cat_doc

(* Carry a catalog across a mutation (see Update.applied): statistics are
   patched in place of a rescan, the B+-tree index is spliced key-by-key
   instead of rebuilt, and the tag/element views — cheap single-scan
   structures — are dropped for lazy rebuild.  Ownership of the mutable
   index transfers to the new catalog: the old one must not serve
   queries afterwards (the server retires a rendition's session before
   evolving it). *)
let evolve ?paged t ~doc ~splice ~delta =
  let dstats =
    match t.dstats with
    | None -> None
    | Some s -> Some (Doc_stats.update s ~old_doc:t.cat_doc ~doc ~splice ~delta)
  in
  let cat_guide =
    match t.cat_guide with
    | None -> None
    | Some g -> Some (Guide.update g ~old_doc:t.cat_doc ~doc ~splice ~delta)
  in
  let index =
    match t.index with
    | None -> None
    | Some idx ->
      Sql_plan.maintain idx ~old_doc:t.cat_doc ~doc ~splice ~delta;
      Some idx
  in
  {
    cat_doc = doc;
    paged;
    domains = t.domains;
    views = Hashtbl.create 16;
    guide_views = Hashtbl.create 16;
    elements = None;
    dstats;
    cat_guide;
    index;
  }

let doc_stats t =
  match t.dstats with
  | Some s -> s
  | None ->
    let s = Doc_stats.build t.cat_doc in
    t.dstats <- Some s;
    s

(* Element-only view of a tag name (the principal node kind of name tests
   on non-attribute axes), built by appending the element positions into
   one column — no intermediate Seq materialization. *)
let tag_view t name =
  match Hashtbl.find_opt t.views name with
  | Some v -> v
  | None ->
    let doc = t.cat_doc in
    let positions = Doc.tag_positions doc name in
    let kinds = Doc.kind_array doc in
    let col = Int_col.create ~capacity:(max 1 (Array.length positions)) () in
    Array.iter (fun p -> if kinds.(p) = Doc.Element then Int_col.append_unit col p) positions;
    let view = Sj.View.of_nodeseq doc (Nodeseq.of_sorted_array (Int_col.to_array col)) in
    Hashtbl.add t.views name view;
    view

(* All elements, as one view — the wildcard-pushdown fragment. *)
let element_view t =
  match t.elements with
  | Some v -> v
  | None ->
    let doc = t.cat_doc in
    let kinds = Doc.kind_array doc in
    let n = Doc.n_nodes doc in
    let col = Int_col.create ~capacity:(max 1 n) () in
    for v = 0 to n - 1 do
      if kinds.(v) = Doc.Element then Int_col.append_unit col v
    done;
    let view = Sj.View.of_nodeseq doc (Nodeseq.of_sorted_array (Int_col.to_array col)) in
    t.elements <- Some view;
    view

let guide t =
  match t.cat_guide with
  | Some g -> g
  | None ->
    let g = Guide.build t.cat_doc in
    t.cat_guide <- Some g;
    g

(* The path partition as a staircase-join fragment view, memoized under
   the cursor's canonical key — [Sj.desc_view]/[anc_view] then scan only
   the partition's pre extents instead of the whole document table. *)
let guide_partition_view t cur key =
  match Hashtbl.find_opt t.guide_views key with
  | Some v -> v
  | None ->
    let v = Sj.View.of_nodeseq t.cat_doc (Guide.members (guide t) cur) in
    Hashtbl.add t.guide_views key v;
    v

let sql_index t =
  match t.index with
  | Some idx -> idx
  | None ->
    let idx = Sql_plan.build_index t.cat_doc in
    t.index <- Some idx;
    idx

(* ------------------------------------------------------------------ *)
(* policy                                                               *)
(* ------------------------------------------------------------------ *)

type choice = Auto | Force of Plan.backend

type pushdown = [ `Never | `Always | `Cost_based ]

type policy = { choice : choice; pushdown : pushdown; guide : bool }

let default_policy = { choice = Auto; pushdown = `Cost_based; guide = true }

(* The guide participates only where it cannot destabilize a forced
   choice: cost-based planning (when the policy enables it) and the
   explicitly forced guide-partition backend. *)
let guide_active p =
  match p.choice with
  | Auto -> p.guide
  | Force Guide_partition -> true
  | Force _ -> false

let policy_to_string p =
  let alg =
    match p.choice with
    | Auto -> if p.guide then "auto" else "auto-flat"
    | Force Guide_partition -> "guide"
    | Force (Serial mode) -> "staircase/" ^ Exec.skip_mode_to_string mode
    | Force (Morsel mode) -> "morsel/" ^ Exec.skip_mode_to_string mode
    | Force Paged -> "paged"
    | Force (Btree { delimiter }) -> if delimiter then "sql+delimiter" else "sql"
    | Force Mpmgjn -> "mpmgjn"
    | Force Structjoin -> "structjoin"
    | Force Naive -> "naive"
  in
  let pd =
    match p.pushdown with `Never -> "never" | `Always -> "always" | `Cost_based -> "cost"
  in
  Printf.sprintf "%s(pushdown=%s)" alg pd

(* ------------------------------------------------------------------ *)
(* logical rewrites                                                     *)
(* ------------------------------------------------------------------ *)

let rec unchain = function
  | L_step (input, s) ->
    let base, steps = unchain input in
    (base, steps @ [ s ])
  | (L_source _ | L_union _) as base -> (base, [])

let rechain base steps = List.fold_left (fun acc s -> L_step (acc, s)) base steps

(* the '//' abbreviation inserts this bridge step *)
let is_bridge s = s.axis = Axis.Descendant_or_self && s.test = Any_node && s.predicates = []

let is_self_noop s = s.axis = Axis.Self && s.test = Any_node && s.predicates = []

let positional_step s = List.exists (fun p -> p.positional) s.predicates

(* Step fusion and prune hoisting over one step chain.  Both rules need
   the step after the bridge to be position-free: proximity positions in
   the original are relative to each expanded context node, in the fused
   form to the whole descendant set. *)
let rec fuse steps =
  match steps with
  | [] -> []
  | s :: rest when is_self_noop s -> fuse rest
  | b :: rest when is_bridge b -> (
    match fuse rest with
    | next :: tail when next.axis = Axis.Child && not (positional_step next) ->
      (* descendant-or-self::node()/child::T = descendant::T *)
      { next with axis = Axis.Descendant } :: tail
    | next :: tail
      when (next.axis = Axis.Descendant || next.axis = Axis.Descendant_or_self)
           && not (positional_step next) ->
      (* Algorithm-1 pruning of the expanded context recovers the original
         staircase: desc(ctx ∪ desc ctx) = desc ctx — drop the bridge *)
      next :: tail
    | fused -> b :: fused)
  | s :: rest -> s :: fuse rest

(* Cheapest predicate first; sound only when no predicate is positional
   (positions are recomputed after each positional filter). *)
let reorder_predicates s =
  match s.predicates with
  | [] | [ _ ] -> s
  | preds when List.exists (fun p -> p.positional) preds -> s
  | preds -> { s with predicates = List.stable_sort (fun a b -> compare a.rank b.rank) preds }

let rewrite l =
  let rec go l =
    match l with
    | L_source _ -> l
    | L_union ls -> L_union (List.map go ls)
    | L_step _ -> (
      let base, steps = unchain l in
      let base = match base with L_union ls -> L_union (List.map go ls) | b -> b in
      let steps = List.map reorder_predicates (fuse steps) in
      match (base, steps) with
      | L_source Document, bridge :: next :: rest when is_bridge bridge && next.axis = Axis.Child
        ->
        (* absolute '//x' with positional predicates (the position-free form
           fused above): the root element is a child of the document node,
           so it joins the result via an explicit union branch *)
        let via_children = L_step (L_step (base, bridge), next) in
        let via_root = L_step (L_source Root, { next with axis = Axis.Self }) in
        rechain (L_union [ via_children; via_root ]) rest
      | _ -> rechain base steps)
  in
  go l

(* ------------------------------------------------------------------ *)
(* cost model                                                           *)
(* ------------------------------------------------------------------ *)

(* What the planner knows about a context sequence before running it.
   [gcur] is the dataguide cursor covering the context (every context
   node's root path is a cursor path — a superset invariant the steps
   preserve); [gexact] additionally promises the context is {e exactly}
   the cursor's member set, which makes downstream downward-step
   cardinalities exact.  [gcur = None] means the guide is off or the
   chain passed through a step it cannot match. *)
type summary = {
  card : int;
  tag : string option;
  at_root : bool;
  gcur : Guide.cursor option;
  gexact : bool;
}

let scaled total part whole =
  if whole <= 0 then 0 else if part >= whole then total else total * part / whole

(* Estimated nodes the un-pushed join touches — the Equation-(1) sum the
   old dynamic estimator computed by actually pruning the context, here
   derived from the per-tag fragment statistics instead. *)
let est_touches (st : Doc_stats.t) sum dir =
  match dir with
  | Desc -> (
    if sum.at_root then st.root_size
    else
      match sum.tag with
      | Some t ->
        let ts = Doc_stats.tag st t in
        scaled ts.subtree_sum sum.card ts.count
      | None ->
        let per = if st.n_elements = 0 then 0 else st.element_subtree_sum / st.n_elements in
        min st.n_nodes (sum.card * max 1 per))
  | Anc -> (
    if sum.at_root then 0
    else
      match sum.tag with
      | Some t ->
        let ts = Doc_stats.tag st t in
        scaled ts.level_sum sum.card ts.count
      | None ->
        let per =
          if st.n_elements = 0 then max 1 st.height
          else max 1 (st.element_level_sum / st.n_elements)
        in
        min st.n_nodes (sum.card * per))
  | Following | Preceding -> st.root_size

(* How many document nodes can possibly satisfy the node test. *)
let test_cap (st : Doc_stats.t) axis test =
  match test with
  | Name n -> if axis = Axis.Attribute then st.n_attributes else (Doc_stats.tag st n).count
  | Wildcard -> if axis = Axis.Attribute then st.n_attributes else st.n_elements
  | Any_node -> st.n_nodes
  | Text_node -> st.n_texts
  | Comment_node -> st.n_comments
  | Pi_node _ -> st.n_pis

let out_tag sum (s : step) =
  match s.test with
  | Name n when s.axis <> Axis.Attribute -> Some n
  | Any_node when s.axis = Axis.Self -> sum.tag
  | Name _ | Wildcard | Any_node | Text_node | Comment_node | Pi_node _ -> None

(* Per-join overhead charged to a forced morsel join: one pool batch
   (submit/claim traffic, per-morsel counters, the result merge) on top
   of the serial work.  Costs are total work, never divided by a core
   count, so a plan does not depend on the host. *)
let batch_cost = 1024.

let log2 x = log (max 2. x) /. log 2.

(* ------------------------------------------------------------------ *)
(* physical planning                                                    *)
(* ------------------------------------------------------------------ *)

let empty_step sum s ~per_node =
  {
    step = s;
    impl = Empty_result;
    est = { card_in = sum.card; touches = 0; card_out = 0; cost = 0. };
    alternatives = [];
    push_note = None;
    guide_note = None;
    per_node;
  }

let plan_join cat policy sum (s : step) ~dir ~or_self ~per_node ~cap ~with_preds ~gpart =
  let st = doc_stats cat in
  match dir with
  | Following | Preceding ->
    (* the context prunes to a single region query (§3.1); the §4.4
       baselines are descendant/ancestor algorithms, so only the naive
       per-context-node scan is a meaningful alternative *)
    let touches = st.root_size in
    let backend = match policy.choice with Force Naive -> Naive | Force _ | Auto -> Serial Exec.Estimation in
    let cost =
      match backend with
      | Naive -> float_of_int sum.card *. float_of_int st.n_nodes
      | Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin
      | Guide_partition ->
        float_of_int touches
    in
    let out = with_preds (min cap touches) in
    ( {
        step = s;
        impl = Join { dir; or_self; backend; push = No_push };
        est = { card_in = sum.card; touches; card_out = out; cost };
        alternatives = [];
        push_note = None;
        guide_note = None;
        per_node;
      },
      out )
  | Desc | Anc ->
    let touches = est_touches st sum dir in
    let n = float_of_int st.n_nodes in
    let kf = float_of_int sum.card in
    let tf = float_of_int touches in
    let tail = kf *. float_of_int (max 1 st.height) in
    let serial_scan mode = match mode with Exec.No_skipping -> n | _ -> tf in
    (* guide path partition: the step's matched paths name exactly the
       pre extents worth scanning — a fragment view like tag pushdown,
       but qualified by the whole path, not just the last tag *)
    let gpart_info =
      match gpart with
      | Some cur when not (Guide.is_empty cur) ->
        let g = guide cat in
        Some (cur, Guide.cursor_key g cur, Guide.card g cur)
      | Some _ | None -> None
    in
    let guide_cost size = float_of_int size +. tail in
    let guide_push_note size =
      Printf.sprintf "yes (guide path partition) -- %d node(s) vs. estimated scan of %d node(s)"
        size touches
    in
    (* name-test / wildcard pushdown: a fragment view cheaper than the
       estimated scan replaces the post-join filter *)
    let candidate =
      match s.test with
      | Name tag ->
        let v = (Doc_stats.tag st tag).count in
        Some
          ( Push_tag tag,
            v,
            Printf.sprintf "tag fragment '%s': %d node(s) vs. estimated scan of %d node(s)" tag
              v touches )
      | Wildcard ->
        let v = st.n_elements in
        Some
          ( Push_elements,
            v,
            Printf.sprintf "element view '*': %d node(s) vs. estimated scan of %d node(s)" v
              touches )
      | Any_node | Text_node | Comment_node | Pi_node _ -> None
    in
    let push, push_note =
      match candidate with
      | None -> (No_push, None)
      | Some (p, v, cmp) -> (
        match policy.pushdown with
        | `Never -> (No_push, Some "no (disabled)")
        | `Always -> (p, Some ("yes (join over the fragment) -- " ^ cmp))
        | `Cost_based ->
          if v < touches then (p, Some ("yes (join over the fragment) -- " ^ cmp))
          else (No_push, Some ("no (filter after the join) -- " ^ cmp)))
    in
    let serial_cost mode =
      let scan =
        match push with
        | Push_tag tag -> float_of_int (Doc_stats.tag st tag).count
        | Push_elements -> float_of_int st.n_elements
        | Push_guide _ | No_push -> serial_scan mode
      in
      scan +. tail
    in
    let morsel_cost mode = serial_scan mode +. tail +. batch_cost in
    let btree_cost = (kf *. log2 n) +. (2. *. tf) +. (tf *. log2 tf) in
    let merge_cost = n +. tf in
    let naive_cost = kf *. n in
    let backend, cost, alternatives, push, push_note =
      match policy.choice with
      | Force Guide_partition -> (
        match gpart_info with
        | Some (cur, key, size) ->
          ignore (guide_partition_view cat cur key);
          (Guide_partition, guide_cost size, [], Push_guide key, Some (guide_push_note size))
        | None ->
          (* no (or an empty) partition for this step — the serial
             staircase is the graceful degradation *)
          (Serial Exec.Estimation, serial_cost Exec.Estimation, [], push, push_note))
      | Force b ->
        let cost =
          match b with
          | Serial mode -> serial_cost mode
          | Morsel mode -> morsel_cost mode
          | Paged -> 4. *. serial_cost Exec.Estimation
          | Btree _ -> btree_cost
          | Mpmgjn | Structjoin -> merge_cost
          | Naive -> naive_cost
          | Guide_partition -> serial_cost Exec.Estimation
        in
        let push, push_note =
          match b with Serial _ -> (push, push_note) | _ -> (No_push, None)
        in
        (b, cost, [], push, push_note)
      | Auto ->
        let candidates =
          [
            ("staircase(serial/estimation)", Serial Exec.Estimation, serial_cost Exec.Estimation);
            ("sql-btree", Btree { delimiter = true }, btree_cost);
            ("mpmgjn", Mpmgjn, merge_cost);
            ("structjoin", Structjoin, merge_cost);
            ("naive", Naive, naive_cost);
          ]
          (* appended last: on a cost tie the earlier candidate wins, so
             the partition only displaces a backend it strictly beats *)
          @
          match gpart_info with
          | Some (_, _, size) when policy.pushdown <> `Never ->
            [ ("staircase(guide-partition)", Guide_partition, guide_cost size) ]
          | Some _ | None -> []
        in
        let (wname, wbackend, wcost) =
          List.fold_left
            (fun (an, ab, ac) (bn, bb, bc) -> if bc < ac then (bn, bb, bc) else (an, ab, ac))
            (List.hd candidates) (List.tl candidates)
        in
        let alternatives =
          List.filter_map
            (fun (nm, _, c) -> if nm = wname then None else Some (nm, c))
            candidates
        in
        let push, push_note =
          match wbackend with
          | Serial _ -> (push, push_note)
          | Guide_partition -> (
            match gpart_info with
            | Some (cur, key, size) ->
              ignore (guide_partition_view cat cur key);
              (Push_guide key, Some (guide_push_note size))
            | None -> (No_push, None))
          | _ -> (No_push, None)
        in
        (wbackend, wcost, alternatives, push, push_note)
    in
    let out =
      let join_out = min cap touches in
      let self_out = if or_self then min sum.card cap else 0 in
      with_preds (min cap (join_out + self_out))
    in
    ( {
        step = s;
        impl = Join { dir; or_self; backend; push };
        est = { card_in = sum.card; touches; card_out = out; cost };
        alternatives;
        push_note;
        guide_note = None;
        per_node;
      },
      out )

let plan_structural (st : Doc_stats.t) sum (s : step) ~per_node ~cap ~with_preds =
  let fanout =
    if st.n_elements = 0 then 1 else max 1 ((st.n_nodes - st.n_attributes) / st.n_elements)
  in
  let touches, out_bound =
    match s.axis with
    | Axis.Child | Axis.Following_sibling | Axis.Preceding_sibling ->
      (sum.card * fanout, sum.card * fanout)
    | Axis.Attribute ->
      let per = if st.n_elements = 0 then 0 else max 1 (st.n_attributes / st.n_elements) in
      (sum.card * (per + 1), sum.card * per)
    | Axis.Parent -> (sum.card, min sum.card (st.n_elements + 1))
    | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Descendant | Axis.Descendant_or_self
    | Axis.Following | Axis.Namespace | Axis.Preceding | Axis.Self ->
      (sum.card, sum.card)
  in
  let touches = min st.n_nodes touches in
  let out = with_preds (min cap (min st.n_nodes out_bound)) in
  ( {
      step = s;
      impl = Structural;
      est = { card_in = sum.card; touches; card_out = out; cost = float_of_int touches };
      alternatives = [];
      push_note = None;
      guide_note = None;
      per_node;
    },
    out )

(* Advance the dataguide cursor through one step.  [None] = the step is
   outside the guide's vocabulary (wildcards, node-kind residue, the
   sibling/following axes) — the chain falls back to flat statistics
   from here on. *)
let guide_advance g cur (s : step) =
  match (s.axis, s.test) with
  | Axis.Self, Any_node -> Some cur
  | Axis.Self, Name n -> Some (Guide.self_step g cur ~kind:Doc.Element ~name:n)
  | Axis.Child, Name n -> Some (Guide.child_step g cur ~kind:Doc.Element ~name:n)
  | Axis.Child, Text_node -> Some (Guide.child_step g cur ~kind:Doc.Text ~name:"")
  | Axis.Attribute, Name n -> Some (Guide.child_step g cur ~kind:Doc.Attribute ~name:n)
  | (Axis.Descendant | Axis.Descendant_or_self), Name n ->
    Some (Guide.descendant_step g ~or_self:(s.axis = Axis.Descendant_or_self) cur ~name:n)
  | (Axis.Ancestor | Axis.Ancestor_or_self), Name n ->
    Some (Guide.ancestor_step g ~or_self:(s.axis = Axis.Ancestor_or_self) cur ~name:n)
  | _ -> None

(* Steps whose guide image is the exact result path set (given an exact
   context): the downward axes.  Ancestor steps only bound from above —
   a prefix-path node need not have a descendant on the full path. *)
let guide_step_exact (s : step) =
  match s.axis with
  | Axis.Self | Axis.Child | Axis.Attribute | Axis.Descendant | Axis.Descendant_or_self -> true
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following | Axis.Following_sibling
  | Axis.Namespace | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
    false

let plan_step cat policy sum (s : step) ~forced_empty =
  let st = doc_stats cat in
  let per_node = List.exists (fun p -> p.positional) s.predicates in
  let cap = test_cap st s.axis s.test in
  let with_preds n =
    if s.predicates = [] then n else if n <= 1 then n else max 1 (n / 2)
  in
  (* dataguide: advance the cursor, derive the cardinality bound *)
  let gnext =
    match sum.gcur with
    | None -> None
    | Some cur -> guide_advance (guide cat) cur s
  in
  let gexact_out = sum.gexact && guide_step_exact s && s.predicates = [] in
  let gcard = match gnext with Some cur -> Some (Guide.card (guide cat) cur) | None -> None in
  let cap = match gcard with Some c -> min cap c | None -> cap in
  let statically_empty =
    match gnext with Some cur -> Guide.is_empty cur | None -> false
  in
  let guide_note =
    if forced_empty || s.axis = Axis.Namespace then None
    else
      match (sum.gcur, gnext) with
      | None, _ -> None
      | Some _, None -> Some "fallback to flat statistics (step outside the path summary)"
      | Some _, Some cur when Guide.is_empty cur ->
        Some "statically empty -- no document path matches"
      | Some _, Some cur ->
        let g = guide cat in
        let c = Guide.card g cur in
        let np = Guide.cursor_size cur in
        if gexact_out then Some (Printf.sprintf "exact card=%d over %d path(s)" c np)
        else Some (Printf.sprintf "upper bound card<=%d over %d path(s)" c np)
  in
  let ps, out =
    if forced_empty || s.axis = Axis.Namespace || statically_empty then
      (empty_step sum s ~per_node, 0)
    else
      match s.axis with
      | Axis.Self ->
        let out = with_preds (min sum.card cap) in
        ( {
            step = s;
            impl = Select_self;
            est =
              {
                card_in = sum.card;
                touches = sum.card;
                card_out = out;
                cost = float_of_int sum.card;
              };
            alternatives = [];
            push_note = None;
            guide_note = None;
            per_node;
          },
          out )
      | Axis.Child | Axis.Attribute | Axis.Parent | Axis.Following_sibling
      | Axis.Preceding_sibling ->
        plan_structural st sum s ~per_node ~cap ~with_preds
      | Axis.Descendant ->
        plan_join cat policy sum s ~dir:Desc ~or_self:false ~per_node ~cap ~with_preds
          ~gpart:gnext
      | Axis.Descendant_or_self ->
        plan_join cat policy sum s ~dir:Desc ~or_self:true ~per_node ~cap ~with_preds
          ~gpart:gnext
      | Axis.Ancestor ->
        plan_join cat policy sum s ~dir:Anc ~or_self:false ~per_node ~cap ~with_preds
          ~gpart:gnext
      | Axis.Ancestor_or_self ->
        plan_join cat policy sum s ~dir:Anc ~or_self:true ~per_node ~cap ~with_preds
          ~gpart:gnext
      | Axis.Following ->
        plan_join cat policy sum s ~dir:Following ~or_self:false ~per_node ~cap ~with_preds
          ~gpart:None
      | Axis.Preceding ->
        plan_join cat policy sum s ~dir:Preceding ~or_self:false ~per_node ~cap ~with_preds
          ~gpart:None
      | Axis.Namespace -> assert false
  in
  (* an exact cursor pins the output cardinality to the member count *)
  let ps, out =
    match (ps.impl, gcard) with
    | Empty_result, _ | _, None -> (ps, out)
    | (Join _ | Structural | Select_self), Some c when gexact_out ->
      ({ ps with est = { ps.est with card_out = c } }, c)
    | (Join _ | Structural | Select_self), Some _ -> (ps, out)
  in
  let ps = { ps with guide_note } in
  let at_root = sum.at_root && s.axis = Axis.Self && s.test = Any_node in
  (ps, { card = out; tag = out_tag sum s; at_root; gcur = gnext; gexact = gexact_out })

(* An absolute path starts at the (virtual) document node, which the
   encoding does not materialize; the first step off it is remapped onto
   the root element at plan time (child::T of the document node selects
   the root element itself, descendant(-or-self)::T its or-self closure;
   the remaining axes are statically empty there). *)
let document_remap (s : step) =
  match s.axis with
  | Axis.Child | Axis.Self -> ({ s with axis = Axis.Self }, false)
  | Axis.Descendant | Axis.Descendant_or_self -> ({ s with axis = Axis.Descendant_or_self }, false)
  | Axis.Ancestor_or_self -> ({ s with axis = Axis.Self }, false)
  | Axis.Ancestor | Axis.Attribute | Axis.Following | Axis.Following_sibling | Axis.Namespace
  | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
    (s, true)

let plan cat policy ?(context_card = 1) l =
  let policy =
    match (policy.choice, cat.paged) with
    | Force Paged, None -> { policy with choice = Force (Serial Exec.Estimation) }
    | _ -> policy
  in
  let groot =
    lazy (if guide_active policy then Some (Guide.root_cursor (guide cat)) else None)
  in
  let rec go l =
    match l with
    | L_source Root ->
      ( P_source (Root, 1),
        { card = 1; tag = None; at_root = true; gcur = Lazy.force groot; gexact = true } )
    | L_source Document ->
      ( P_source (Document, 1),
        { card = 1; tag = None; at_root = true; gcur = Lazy.force groot; gexact = true } )
    | L_source Context ->
      ( P_source (Context, context_card),
        { card = max 0 context_card; tag = None; at_root = false; gcur = None; gexact = false }
      )
    | L_step (input, s) ->
      let p_in, sum = go input in
      let s, forced_empty =
        match input with L_source Document -> document_remap s | _ -> (s, false)
      in
      let ps, sum' = plan_step cat policy sum s ~forced_empty in
      (P_step (p_in, ps), sum')
    | L_union branches ->
      let planned = List.map go branches in
      let st = doc_stats cat in
      let card =
        min st.n_nodes (List.fold_left (fun acc (_, s) -> acc + s.card) 0 planned)
      in
      let tag =
        match planned with
        | (_, s0) :: rest when List.for_all (fun (_, s) -> s.tag = s0.tag) rest -> s0.tag
        | _ -> None
      in
      (* member sets of distinct summary nodes are disjoint, so the
         cursor union is exact when every branch is *)
      let gcur =
        match planned with
        | [] -> None
        | (_, s0) :: rest ->
          List.fold_left
            (fun acc (_, si) ->
              match (acc, si.gcur) with
              | Some a, Some b -> Some (Guide.cursor_union a b)
              | (None | Some _), _ -> None)
            s0.gcur rest
      in
      let gexact = gcur <> None && List.for_all (fun (_, s) -> s.gexact) planned in
      (P_union (List.map fst planned), { card; tag; at_root = false; gcur; gexact })
  in
  fst (go l)

(* ------------------------------------------------------------------ *)
(* execution                                                            *)
(* ------------------------------------------------------------------ *)

let apply_node_test doc axis test nodes =
  let principal = if axis = Axis.Attribute then Doc.Attribute else Doc.Element in
  let kinds = Doc.kind_array doc in
  match test with
  | Any_node -> nodes
  | Wildcard -> Nodeseq.filter (fun v -> kinds.(v) = principal) nodes
  | Name name -> (
    match Doc.tag_symbol doc name with
    | None -> Nodeseq.empty
    | Some sym -> Nodeseq.filter (fun v -> kinds.(v) = principal && Doc.tag doc v = sym) nodes)
  | Text_node -> Nodeseq.filter (fun v -> kinds.(v) = Doc.Text) nodes
  | Comment_node -> Nodeseq.filter (fun v -> kinds.(v) = Doc.Comment) nodes
  | Pi_node target ->
    Nodeseq.filter
      (fun v ->
        kinds.(v) = Doc.Pi
        &&
        match target with
        | None -> true
        | Some t -> (
          match Doc.tag_name doc v with Some name -> String.equal name t | None -> false))
      nodes

let reverse_axis = function
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Preceding | Axis.Preceding_sibling | Axis.Parent
    ->
    true
  | Axis.Attribute | Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Following
  | Axis.Following_sibling | Axis.Namespace | Axis.Self ->
    false

(* Walk the element children of [c] (attributes skipped) using subtree
   sizes: first child of c sits at c+1, siblings hop by size+1. *)
let iter_children doc stats c f =
  let sizes = Doc.size_array doc in
  let kinds = Doc.kind_array doc in
  let stop = c + sizes.(c) in
  let i = ref (c + 1) in
  while !i <= stop do
    stats.Stats.scanned <- stats.Stats.scanned + 1;
    if kinds.(!i) <> Doc.Attribute then f !i;
    i := !i + sizes.(!i) + 1
  done

let structural_axis cat exec context axis =
  let doc = cat.cat_doc in
  let stats = exec.Exec.stats in
  let sizes = Doc.size_array doc in
  let kinds = Doc.kind_array doc in
  let parents = Doc.parent_array doc in
  let hits = Int_col.create ~capacity:32 () in
  let collect c =
    match axis with
    | Axis.Child -> iter_children doc stats c (Int_col.append_unit hits)
    | Axis.Attribute ->
      let i = ref (c + 1) in
      while !i < Doc.n_nodes doc && kinds.(!i) = Doc.Attribute && parents.(!i) = c do
        stats.Stats.scanned <- stats.Stats.scanned + 1;
        Int_col.append_unit hits !i;
        incr i
      done
    | Axis.Parent -> if parents.(c) >= 0 then Int_col.append_unit hits parents.(c)
    | Axis.Following_sibling ->
      let p = parents.(c) in
      if p >= 0 then begin
        let stop = p + sizes.(p) in
        let i = ref (c + sizes.(c) + 1) in
        while !i <= stop do
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          if kinds.(!i) <> Doc.Attribute then Int_col.append_unit hits !i;
          i := !i + sizes.(!i) + 1
        done
      end
    | Axis.Preceding_sibling ->
      let p = parents.(c) in
      if p >= 0 then iter_children doc stats p (fun v -> if v < c then Int_col.append_unit hits v)
    | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Descendant | Axis.Descendant_or_self
    | Axis.Following | Axis.Namespace | Axis.Preceding | Axis.Self ->
      assert false
  in
  Nodeseq.iter collect context;
  (* sibling/child sets of distinct context nodes are disjoint, but they
     interleave when context nodes are nested — sort once *)
  Nodeseq.of_unsorted (Int_col.to_list hits)

(* Run one join; returns the node sequence plus a flag telling the caller
   that the node test was already applied (pushdown). *)
let run_join cat exec ~dir ~backend ~push context =
  let doc = cat.cat_doc in
  match dir with
  | Following -> (
    match backend with
    | Naive -> (Naive_join.step ~exec doc context Axis.Following, false)
    | Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin
    | Guide_partition ->
      (Sj.following ~exec doc context, false))
  | Preceding -> (
    match backend with
    | Naive -> (Naive_join.step ~exec doc context Axis.Preceding, false)
    | Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin
    | Guide_partition ->
      (Sj.preceding ~exec doc context, false))
  | (Desc | Anc) as dir -> (
    let descending = dir = Desc in
    match backend with
    | Serial mode -> (
      let exec = Exec.with_mode exec mode in
      match push with
      | No_push | Push_guide _ ->
        ((if descending then Sj.desc else Sj.anc) ~exec doc context, false)
      | Push_tag tag ->
        ( (if descending then Sj.desc_view else Sj.anc_view) ~exec doc (tag_view cat tag) context,
          true )
      | Push_elements ->
        ( (if descending then Sj.desc_view else Sj.anc_view) ~exec doc (element_view cat) context,
          true ))
    | Guide_partition -> (
      let exec = Exec.with_mode exec Exec.Estimation in
      match push with
      | Push_guide key -> (
        match Hashtbl.find_opt cat.guide_views key with
        | Some view ->
          (* partition members all satisfy the step's node test by
             construction — the scan is pre-filtered *)
          ((if descending then Sj.desc_view else Sj.anc_view) ~exec doc view context, true)
        | None -> ((if descending then Sj.desc else Sj.anc) ~exec doc context, false))
      | No_push | Push_tag _ | Push_elements ->
        ((if descending then Sj.desc else Sj.anc) ~exec doc context, false))
    | Morsel mode ->
      (* the catalog's domain budget is the batch width *)
      let exec = { (Exec.with_mode exec mode) with Exec.domains = cat.domains } in
      ((if descending then Morsel_join.desc else Morsel_join.anc) ~exec doc context, false)
    | Paged -> (
      match cat.paged with
      | Some p -> ((if descending then Paged_doc.desc else Paged_doc.anc) ~exec p context, false)
      | None -> ((if descending then Sj.desc else Sj.anc) ~exec doc context, false))
    | Btree { delimiter } ->
      let options = { Sql_plan.delimiter; early_nametest = None } in
      ( Sql_plan.step ~exec ~options (sql_index cat) doc context
          (if descending then `Descendant else `Ancestor),
        false )
    | Mpmgjn -> ((if descending then Mpmgjn_join.desc else Mpmgjn_join.anc) ~exec doc context, false)
    | Structjoin ->
      ((if descending then Structjoin_join.desc else Structjoin_join.anc) ~exec doc context, false)
    | Naive ->
      ( Naive_join.step ~exec doc context (if descending then Axis.Descendant else Axis.Ancestor),
        false ))

let run_impl cat exec (ps : phys_step) context =
  match ps.impl with
  | Select_self -> (context, false)
  | Empty_result -> (Nodeseq.empty, true)
  | Structural -> (structural_axis cat exec context ps.step.axis, false)
  | Join { dir; or_self; backend; push } ->
    let joined, tested = run_join cat exec ~dir ~backend ~push context in
    if not or_self then (joined, tested)
    else
      (* axis-or-self = axis::T ∪ self::T; the join part may have the test
         pushed, the self part always filters the context *)
      let self =
        if tested then apply_node_test cat.cat_doc ps.step.axis ps.step.test context else context
      in
      (Nodeseq.union joined self, tested)

let exec_step cat exec context (ps : phys_step) =
  let doc = cat.cat_doc in
  let run () =
    if not ps.per_node then begin
      (* set-at-a-time: evaluate the axis for the whole context, filter *)
      let nodes, tested = run_impl cat exec ps context in
      let nodes = if tested then nodes else apply_node_test doc ps.step.axis ps.step.test nodes in
      match ps.step.predicates with
      | [] -> nodes
      | predicates ->
        (* non-positional predicates are per-node boolean filters, applied
           cheapest-first (the rewrite ordered them) *)
        Nodeseq.filter
          (fun node ->
            List.for_all (fun (p : predicate) -> p.eval exec ~node ~pos:1 ~last:1) predicates)
          nodes
    end
    else begin
      (* positional predicates: XPath proximity positions are relative to
         each context node's own axis result, so evaluate per context node *)
      let results =
        Nodeseq.fold_left
          (fun acc c ->
            let single = Nodeseq.singleton c in
            let nodes, tested = run_impl cat exec ps single in
            let nodes =
              if tested then nodes else apply_node_test doc ps.step.axis ps.step.test nodes
            in
            let ordered =
              let l = Nodeseq.to_list nodes in
              if reverse_axis ps.step.axis then List.rev l else l
            in
            let kept =
              List.fold_left
                (fun candidates (p : predicate) ->
                  let last = List.length candidates in
                  List.filteri
                    (fun i node -> p.eval exec ~node ~pos:(i + 1) ~last)
                    candidates)
                ordered ps.step.predicates
            in
            Nodeseq.of_unsorted kept :: acc)
          [] context
      in
      List.fold_left Nodeseq.union Nodeseq.empty results
    end
  in
  Exec.checkpoint exec;
  if not (Exec.tracing exec) then run ()
  else
    Exec.span exec (step_to_string ps.step) (fun () ->
        Exec.annot exec "in" (string_of_int (Nodeseq.length context));
        (match ps.impl with
        | Join { dir = Following | Preceding; backend = Naive; _ } ->
          Exec.annot exec "algorithm" "naive"
        | Join { dir = Following | Preceding; _ } ->
          Exec.annot exec "algorithm" "pruned single region query (§3.1)"
        | Join { backend; _ } -> Exec.annot exec "algorithm" (backend_to_string backend)
        | Structural -> Exec.annot exec "algorithm" "structural size/parent arithmetic"
        | Select_self -> Exec.annot exec "algorithm" "context filter (self)"
        | Empty_result -> Exec.annot exec "algorithm" "statically empty");
        (match ps.impl with
        | Join
            {
              dir = (Desc | Anc) as dir;
              backend = Serial _ | Morsel _ | Paged | Guide_partition;
              _;
            } ->
          let partitions =
            match dir with
            | Desc -> Sj.desc_partitions doc context
            | Anc | Following | Preceding -> Sj.anc_partitions doc context
          in
          Exec.annot exec "partitions" (string_of_int (List.length partitions))
        | Join _ | Structural | Select_self | Empty_result -> ());
        (match ps.push_note with
        | Some note -> Exec.annot exec "pushdown" note
        | None -> ());
        (match ps.guide_note with
        | Some note -> Exec.annot exec "guide" note
        | None -> ());
        if ps.step.predicates <> [] then
          Exec.annot exec "predicates"
            (Printf.sprintf "%d (%s)"
               (List.length ps.step.predicates)
               (if ps.per_node then "positional, per-context-node" else "set-at-a-time filter"));
        Exec.annot exec "est"
          (Printf.sprintf "in=%d touches=%d out=%d cost=%.0f" ps.est.card_in ps.est.touches
             ps.est.card_out ps.est.cost);
        let result = run () in
        let actual = Nodeseq.length result in
        Exec.annot exec "out" (string_of_int actual);
        (* Q-error of the cardinality estimate: max(est/act, act/est),
           1-floored — the drift metric [scj analyze] aggregates *)
        let e = float_of_int (max 1 ps.est.card_out) in
        let a = float_of_int (max 1 actual) in
        Exec.annot exec "q_error" (Printf.sprintf "%.2f" (Float.max (e /. a) (a /. e)));
        result)

let rec execute cat exec ~context p =
  match p with
  | P_source (Context, _) -> context
  | P_source ((Root | Document), _) -> Nodeseq.singleton (Doc.root cat.cat_doc)
  | P_step (input, ps) ->
    let ctx = execute cat exec ~context input in
    exec_step cat exec ctx ps
  | P_union branches ->
    let run () =
      List.fold_left
        (fun acc b -> Nodeseq.union acc (execute cat exec ~context b))
        Nodeseq.empty branches
    in
    if not (Exec.tracing exec) then run ()
    else
      Exec.span exec "union (doc-order merge)" (fun () ->
          let result = run () in
          Exec.annot exec "out" (string_of_int (Nodeseq.length result));
          result)
