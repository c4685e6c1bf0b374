(* The repository benchmark: three seeded workloads driven through the
   engine's public API, every answer checked outside the timed region.

     main.exe --workload query_warm|open_cold|serve_rw --seed N
              --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "values"}: every value the run
   measured, by metric name.  run.py turns it into the result line, with
   the end-to-end metrics of BENCHMARK.json for --trace 0 and the
   per-layer ones for --trace 1.  README.md defines every workload and
   metric. *)

module Db = Scj_db.Db
module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Codec = Scj_encoding.Codec
module Eval = Scj_xpath.Eval
module Parse = Scj_xpath.Parse
module Xq_compile = Scj_xquery.Xq_compile
module Xq_eval = Scj_xquery.Xq_eval
module Flwor = Scj_plan.Flwor
module Plan = Scj_plan.Plan
module Planner = Scj_plan.Planner
module Store = Scj_store.Store
module Server = Scj_server.Server
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Guide = Scj_guide.Guide
module Doc_stats = Scj_stats.Doc_stats
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Staircase = Scj_core.Staircase
module Tree = Scj_xml.Tree

let mix_names = [ "q1"; "q2"; "q3"; "q4"; "q5"; "q6"; "q7"; "q8"; "q9" ]

(* measured values by name.  BENCHMARK.json is the catalogue: run.py
   picks the metrics of a run from these values and adds their units. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, ms_since t0)

let span = Spans.with_

(* linear-interpolation quantile, [q] in [0, 1] *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then failwith "quantile of no samples";
  Array.sort Float.compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The mean over query kinds of each kind's median.  Pooled, the kinds'
   latencies differ by orders of magnitude, so a pooled median of a few
   samples per kind jumps between kinds from run to run. *)
let mean_of_medians per_kind =
  Array.fold_left (fun acc xs -> acc +. median xs) 0.0 per_kind /. float_of_int (Array.length per_kind)

let samples per_kind = Array.fold_left (fun acc xs -> acc + List.length xs) 0 per_kind
let host_cores = Domain.recommended_domain_count ()

(* peak resident set of this process, from /proc (VmHWM, kB) *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM not found in /proc/self/status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let file_size path = (Unix.stat path).Unix.st_size

(* Fisher-Yates over 0..n-1 *)
let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Queries and answers                                                  *)
(* ------------------------------------------------------------------ *)

let mix_paths =
  [|
    "/descendant::profile/descendant::education";
    "/descendant::increase/ancestor::bidder";
    "/site/closed_auctions/closed_auction/descendant::keyword";
    "//keyword";
    "/site/regions/europe/descendant::item";
    "/site/closed_auctions/closed_auction[last()]/preceding::item";
    "//open_auction[bidder]/initial";
    "//person[profile/education]/name";
  |]

let join_src =
  "for $p in //person for $a in //closed_auction where $a/buyer/@person = $p/@id return $p/name"

let n_mix = Array.length mix_paths + 1

(* First executions on a fresh handle run in mix order, so the catalog
   build always lands on q1 and the median of the first executions stays
   inside one query's latency class. *)
let mix_order = Array.init n_mix Fun.id
let qname i = List.nth mix_names i

(* the tags the mix's name tests touch, for the fresh-catalog probe *)
let mix_tags =
  [ "profile"; "education"; "increase"; "bidder"; "keyword"; "item"; "open_auction"; "initial"; "person"; "name" ]

type answer = Seq of Nodeseq.t | Items of Flwor.value

let mix_hash h x = ((h * 1000003) lxor x) land max_int

let digest_seq s = Nodeseq.fold_left mix_hash (Nodeseq.length s) s

let digest_items v =
  List.fold_left
    (fun h -> function
      | Flwor.Node i -> mix_hash h i
      | Flwor.Atom a -> mix_hash h (Hashtbl.hash (Xq_eval.atom_to_string a))
      | Flwor.Tree t -> mix_hash h (Hashtbl.hash (Scj_xml.Printer.to_string t)))
    (List.length v) v

let digest = function Seq s -> digest_seq s | Items v -> digest_items v
let answer_size = function Seq s -> Nodeseq.length s | Items v -> List.length v

(* The value join as a hash join over the XPath oracle's answers: an
   independent implementation of the same semantics (string equality of
   the atomized attributes, existential over several values, output in
   $p-major then $a document order). *)
let join_oracle session doc =
  let eval ?context src = Eval.eval_path ?context session (Parse.path_exn src) in
  let strings ctx rel =
    List.map (Doc.string_value doc) (Nodeseq.to_list (eval ~context:(Nodeseq.singleton ctx) rel))
  in
  let by_value = Hashtbl.create 4096 in
  List.iteri
    (fun j a -> List.iter (fun v -> Hashtbl.add by_value v j) (strings a "buyer/@person"))
    (Nodeseq.to_list (eval "//closed_auction"));
  List.concat_map
    (fun p ->
      let matches =
        List.sort_uniq Int.compare (List.concat_map (Hashtbl.find_all by_value) (strings p "@id"))
      in
      let names = List.map (fun n -> Flwor.Node n) (Nodeseq.to_list (eval ~context:(Nodeseq.singleton p) "name")) in
      List.concat_map (fun _ -> names) matches)
    (Nodeseq.to_list (eval "//person"))

let oracle_session doc =
  let strategy = Option.get (Eval.strategy_of_string "staircase-estimate") in
  Eval.session ~strategy ~domains:1 doc

(* expected digests of the nine mix queries (XPath forced through the
   estimation-skipping staircase join, the join through [join_oracle]) *)
let expected_mix doc =
  let s = oracle_session doc in
  Array.init n_mix (fun i ->
      if i < Array.length mix_paths then digest_seq (Eval.eval_path s (Parse.path_exn mix_paths.(i)))
      else digest_items (join_oracle s doc))

(* A mix query prepared on one session: the path parsed, the FLWOR
   compiled (its embedded paths planned). *)
type prepared = P of Scj_xpath.Ast.path | F of Xq_compile.compiled

let prepare session i =
  if i < Array.length mix_paths then P (span "xpath.parse" (fun () -> Parse.path_exn mix_paths.(i)))
  else
    match span "xquery.compile" (fun () -> Xq_compile.compile_string session join_src) with
    | Ok c -> F c
    | Error e -> failwith ("join does not compile: " ^ e)

let run ?exec session = function
  | P p -> Seq (Eval.eval_path ?exec session p)
  | F c -> Items (Xq_compile.execute ?exec c)

(* First execution of mix query [i] on [session]: parse, cold plan,
   execute. *)
let run_first session i =
  span (Printf.sprintf "exec.%s_first" (qname i)) (fun () ->
      match prepare session i with
      | P p as q ->
        ignore (span "plan.plan_cold" (fun () -> Eval.path_plan session p) : Plan.physical);
        run session q
      | F _ as q -> run session q)

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                   *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let check_failures = ref 0
let failure_notes = ref []

let note what = if List.length !failure_notes < 10 then failure_notes := what :: !failure_notes

let fail_op what =
  incr failed;
  note what

(* a checked operation: counted attempted, failed on a wrong answer *)
let check_op what ok =
  incr attempted;
  if not ok then fail_op what

(* a check that is not an operation (oracle cross-checks) *)
let check_extra what ok =
  if not ok then begin
    incr check_failures;
    note what
  end

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

type config = { workload : string; seed : int; seconds : float; trace : bool; work : string }

(* the generated XMark document, as XML text *)
let xml_file cfg = Filename.concat cfg.work "input.xml"

let parse_ok = function Ok t -> t | Error e -> failwith (Scj_xml.Parser.error_to_string e)

(* [make_input cfg ~scale ~expect] writes the XMark document of the run's
   seed to [xml_file cfg] and returns [expect doc], the expected answers
   computed on it.  Both happen in a child process, so the generator's
   tree, the XML text and the oracles' sessions never count toward this
   process's peak resident set.  Nothing here is timed. *)
let make_input cfg ~scale ~expect =
  let out = Filename.concat cfg.work "expect.bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        let config = Scj_xmlgen.Xmark.config ~seed:(Int64.of_int cfg.seed) ~scale () in
        let xml = Scj_xml.Printer.to_string (Scj_xmlgen.Xmark.generate config) in
        Out_channel.with_open_bin (xml_file cfg) (fun oc -> Out_channel.output_string oc xml);
        let e = expect (Doc.of_tree (parse_ok (Scj_xml.Parser.parse_string xml))) in
        Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc e []);
        0
      with e ->
        prerr_endline ("perfbench: preparing the input failed: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    (match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith "preparing the input failed");
    Printf.printf "# host cores=%d workload=%s scale=%g seed=%d xml_bytes=%d\n%!" host_cores cfg.workload scale
      cfg.seed (file_size (xml_file cfg));
    In_channel.with_open_bin out Marshal.from_channel

(* XML text to encoded document: the load layer *)
let load cfg =
  let tree, parse_ms =
    timed (fun () -> span "xml.parse" (fun () -> parse_ok (Scj_xml.Parser.parse_file (xml_file cfg))))
  in
  let doc, encode_ms = timed (fun () -> span "encoding.encode" (fun () -> Doc.of_tree tree)) in
  (doc, parse_ms, encode_ms)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Scj_error.Error.to_string e)

let fragment = Tree.elem "hotspot" [ Tree.elem "hotentry" [] ]

(* the k-th write of the insert/rename/delete cycle; [pre] is the node
   the last insert spliced in *)
let write_op ~root k pre =
  match k mod 3 with
  | 0 -> Update.Insert { parent = root; before = None; fragment }
  | 1 -> Update.Rename { pre; name = "hotspot2" }
  | _ -> Update.Delete { pre }

(* what each write of the cycle must leave behind *)
let write_checks ~n0 k (a : Update.applied) =
  match k mod 3 with
  | 0 -> Doc.tag_name a.Update.doc a.Update.splice = Some "hotspot"
  | 1 -> Doc.tag_name a.Update.doc a.Update.splice = Some "hotspot2"
  | _ -> Doc.n_nodes a.Update.doc = n0

(* A single writer on one handle: each [write_triple] commits the next
   insert/rename/delete triple through [Db.apply] — in memory or WAL
   logged, whichever the handle is — and keeps the latencies. *)
type writer = { wdb : Db.t; n0 : int; mutable pre : int; mutable k : int; mutable lat : float list }

let writer wdb = { wdb; n0 = Doc.n_nodes (Db.doc wdb); pre = 0; k = 0; lat = [] }

let write_triple w =
  for _ = 1 to 3 do
    let op = write_op ~root:(Doc.root (Db.doc w.wdb)) w.k w.pre in
    let r, ms = timed (fun () -> span "db.apply" (fun () -> Db.apply w.wdb op)) in
    (match r with
    | Ok a ->
      if w.k mod 3 = 0 then w.pre <- a.Update.splice;
      check_op "write" (write_checks ~n0:w.n0 w.k a)
    | Error e -> check_op ("write: " ^ Scj_error.Error.to_string e) false);
    w.lat <- ms :: w.lat;
    w.k <- w.k + 1
  done

(* ------------------------------------------------------------------ *)
(* Per-layer probes shared by the traced runs                           *)
(* ------------------------------------------------------------------ *)

(* mean wall time of one call, in microseconds, over enough calls to be
   above the clock's resolution *)
let per_call_us f =
  let n = 1000 in
  let _, ms = timed (fun () -> span "bench.repeat" (fun () -> for _ = 1 to n do f () done)) in
  ms *. 1000.0 /. float_of_int n

(* Catalog structures built on a fresh catalog, and the planner on a
   fresh session whose catalog is already built. *)
let catalog_probe ~domains doc =
  let stats_ms = ref [] and views_ms = ref [] and guide_ms = ref [] and session_ms = ref [] in
  let parse_us = ref [] and cold_ms = ref [] and cached_us = ref [] and compile_ms = ref [] in
  let morsel_steps = ref 0 in
  for _ = 1 to 3 do
    let cat = Planner.catalog ~domains doc in
    stats_ms := snd (timed (fun () -> span "stats.doc_stats" (fun () -> ignore (Planner.doc_stats cat)))) :: !stats_ms;
    views_ms :=
      snd (timed (fun () -> span "plan.tag_view" (fun () -> List.iter (fun t -> ignore (Planner.tag_view cat t)) mix_tags)))
      :: !views_ms;
    guide_ms := snd (timed (fun () -> span "guide.build" (fun () -> ignore (Guide.build doc : Guide.t)))) :: !guide_ms;
    let db = Db.of_doc ~domains doc in
    let session, ms = timed (fun () -> span "db.session" (fun () -> Db.session db)) in
    session_ms := ms :: !session_ms;
    (* build the catalog the plans read, so planning is timed alone *)
    let cat = Eval.catalog_of_session session in
    ignore (Planner.doc_stats cat, Planner.guide cat);
    List.iter (fun t -> ignore (Planner.tag_view cat t)) mix_tags;
    morsel_steps := 0;
    Array.iter
      (fun src ->
        let p = span "xpath.parse" (fun () -> Parse.path_exn src) in
        parse_us := per_call_us (fun () -> ignore (Parse.path_exn src : Scj_xpath.Ast.path)) :: !parse_us;
        let plan, ms = timed (fun () -> span "plan.plan_cold" (fun () -> Eval.path_plan session p)) in
        cold_ms := ms :: !cold_ms;
        cached_us := per_call_us (fun () -> ignore (Eval.path_plan session p : Plan.physical)) :: !cached_us;
        let rec count = function
          | Plan.P_source _ -> 0
          | Plan.P_union ps -> List.fold_left (fun a p -> a + count p) 0 ps
          | Plan.P_step (input, st) ->
            count input
            + (match st.Plan.impl with Plan.Join { backend = Plan.Morsel _; _ } -> 1 | _ -> 0)
        in
        morsel_steps := !morsel_steps + count plan)
      mix_paths;
    compile_ms :=
      snd (timed (fun () -> span "xquery.compile" (fun () -> Xq_compile.compile_string session join_src)))
      :: !compile_ms
  done;
  set "stats.doc_stats_ms" (median !stats_ms);
  set "plan.tag_view_ms" (median !views_ms);
  set "guide.build_ms" (median !guide_ms);
  set "db.session_ms" (median !session_ms);
  set "xpath.parse_us" (median !parse_us);
  set "plan.plan_cold_ms" (median !cold_ms);
  set "plan.plan_cached_us" (median !cached_us);
  set "xquery.compile_ms" (median !compile_ms);
  set "plan.morsel_steps" (float_of_int !morsel_steps)

(* One mix round under a fresh counter set: the deterministic work
   counters of the execution layer. *)
let core_probe ~domains session prepared =
  let exec = Exec.make ~domains () in
  let results =
    Array.fold_left (fun acc q -> acc + answer_size (span "core.round" (fun () -> run ~exec session q))) 0 prepared
  in
  let s = exec.Exec.stats in
  set "core.scanned" (float_of_int s.Stats.scanned);
  set "core.copied" (float_of_int s.Stats.copied);
  set "core.skipped" (float_of_int s.Stats.skipped);
  set "core.appended" (float_of_int s.Stats.appended);
  set "core.compared" (float_of_int s.Stats.compared);
  set "core.sorted" (float_of_int s.Stats.sorted);
  set "core.index_nodes" (float_of_int s.Stats.index_nodes);
  set "core.touched_per_result" (float_of_int (Stats.touched s) /. float_of_int (max 1 results))

(* The layers a write maintains, one call each on a mirror of the
   document whose session has planned the mix: the same ops the
   workload's writes issue. *)
let maintenance_probe ~domains doc =
  let session = ref (Eval.session ~domains doc) in
  Array.iter (fun i -> ignore (run_first !session i : answer)) mix_order;
  let doc = ref doc and stats = ref (Doc_stats.build doc) and guide = ref (Guide.build doc) in
  let pre = ref 0 in
  let upd = ref [] and st = ref [] and gd = ref [] and ev = ref [] in
  for k = 0 to 8 do
    let op = write_op ~root:(Doc.root !doc) k !pre in
    let a, ms = timed (fun () -> span "encoding.update" (fun () -> ok_or_fail "update" (Update.apply !doc op))) in
    upd := ms :: !upd;
    let splice = a.Update.splice and delta = a.Update.delta in
    if k mod 3 = 0 then pre := splice;
    let s', ms =
      timed (fun () ->
          span "stats.doc_stats_update" (fun () -> Doc_stats.update !stats ~old_doc:!doc ~doc:a.Update.doc ~splice ~delta))
    in
    st := ms :: !st;
    let g', ms =
      timed (fun () ->
          span "guide.update" (fun () -> Guide.update !guide ~old_doc:!doc ~doc:a.Update.doc ~splice ~delta))
    in
    gd := ms :: !gd;
    let e', ms = timed (fun () -> span "plan.evolve" (fun () -> Eval.evolve !session a)) in
    ev := ms :: !ev;
    doc := a.Update.doc;
    stats := s';
    guide := g';
    session := e'
  done;
  set "encoding.update_ms" (median !upd);
  set "stats.doc_stats_update_ms" (median !st);
  set "guide.update_ms" (median !gd);
  set "plan.evolve_ms" (median !ev)

(* ------------------------------------------------------------------ *)
(* Run context                                                          *)
(* ------------------------------------------------------------------ *)

(* [traced_slice t0] — in a traced run the measured window alternates
   one-second traced and untraced slices, so tracing overhead is the
   difference between the two halves of the same window. *)
let traced_slice cfg t0 = cfg.trace && int_of_float (now () -. t0) mod 2 = 1

(* Run [f] with span recording switched [on] or off; time spent
   untraced is excluded from the unattributed residual. *)
let untraced_ms = ref 0.0

let with_tracing on f =
  let saved = !Spans.enabled in
  Spans.enabled := on;
  let t0 = now () in
  Fun.protect
    ~finally:(fun () ->
      if saved && not on then untraced_ms := !untraced_ms +. ms_since t0;
      Spans.enabled := saved)
    f

let overhead_pct ~traced ~untraced =
  match (traced, untraced) with
  | [], _ | _, [] -> 0.0
  | _ -> ((median traced /. median untraced) -. 1.0) *. 100.0

let setup_reps = 3

(* Secondary measurements (fresh handles, reopens, writes) interleave
   with the primary loop every [side_period] seconds instead of running
   in a burst, so their samples span the same stretch of machine time as
   the window's. *)
let side_period = 2.0

(* warm passes over the mix per open_cold iteration *)
let warm_passes = 4

(* ------------------------------------------------------------------ *)
(* query_warm                                                           *)
(* ------------------------------------------------------------------ *)

let query_warm cfg scale =
  let expected = span "bench.input" (fun () -> make_input cfg ~scale ~expect:expected_mix) in
  let domains = host_cores in
  let rng = Random.State.make [| cfg.seed; 1 |] in
  let setups = ref [] and parses = ref [] and encodes = ref [] in
  let last = ref None in
  for _ = 1 to setup_reps do
    last := None;
    span "bench.gc" Gc.full_major;
    let t0 = now () in
    let doc, parse_ms, encode_ms = load cfg in
    let db = span "db.of_doc" (fun () -> Db.of_doc ~domains doc) in
    setups := ms_since t0 :: !setups;
    parses := parse_ms :: !parses;
    encodes := encode_ms :: !encodes;
    last := Some (doc, db)
  done;
  let doc, db = Option.get !last in
  set "setup_s" (median !setups /. 1000.0);
  set "xml.parse_ms" (median !parses);
  set "encoding.encode_ms" (median !encodes);
  set "doc.nodes" (float_of_int (Doc.n_nodes doc));
  (* the in-memory path's persisted form is the codec file *)
  let codec = Filename.concat cfg.work "doc.scj" in
  span "encoding.codec_write" (fun () -> Codec.write_file codec doc);
  set "store_bytes_per_xml_byte" (float_of_int (file_size codec) /. float_of_int (file_size (xml_file cfg)));
  (* the warm session: every plan cached before the window *)
  let session = Db.session db in
  let prepared =
    span "bench.warmup" (fun () ->
        let prepared = Array.init n_mix (prepare session) in
        Array.iter (fun q -> ignore (run session q : answer)) prepared;
        prepared)
  in
  (* writes go to a second in-memory handle whose session has planned
     the mix, so the warm session stays warm *)
  let w =
    span "bench.warmup" (fun () ->
        let wdb = Db.of_doc ~domains doc in
        let s = Db.session wdb in
        Array.iter (fun i -> ignore (run_first s i : answer)) mix_order;
        writer wdb)
  in
  if cfg.trace then begin
    catalog_probe ~domains doc;
    core_probe ~domains session prepared;
    maintenance_probe ~domains doc
  end;
  span "bench.gc" Gc.full_major;
  let lat = ref [] and rounds = ref [] and per_q = Array.make n_mix [] in
  let firsts = Array.make n_mix [] and opens = ref [] in
  let traced = ref [] and untraced = ref [] in
  let t0 = now () in
  let next_side = ref (t0 +. side_period) in
  let rid = ref 0 in
  while now () -. t0 < cfg.seconds do
    let round = ref 0.0 in
    Array.iter
      (fun i ->
        let tr = traced_slice cfg t0 in
        incr rid;
        let a, ms =
          with_tracing tr (fun () ->
              Spans.in_request !rid (fun () ->
                  timed (fun () -> span ("exec." ^ qname i) (fun () -> run session prepared.(i)))))
        in
        lat := ms :: !lat;
        round := !round +. ms;
        per_q.(i) <- ms :: per_q.(i);
        if tr then traced := ms :: !traced else untraced := ms :: !untraced;
        check_op ("warm " ^ qname i) (span "bench.check" (fun () -> digest a = expected.(i))))
      (permutation rng n_mix);
    rounds := !round :: !rounds;
    if now () >= !next_side then begin
      with_tracing (traced_slice cfg t0) (fun () ->
          (* a fresh handle over the same document: every mix query's
             first execution, the session (catalog) build included *)
          let fresh = span "db.of_doc" (fun () -> Db.of_doc ~domains doc) in
          let session = ref None in
          Array.iter
            (fun i ->
              let a, ms =
                timed (fun () ->
                    let s =
                      match !session with
                      | Some s -> s
                      | None ->
                        let s = span "db.session" (fun () -> Db.session fresh) in
                        session := Some s;
                        s
                    in
                    run_first s i)
              in
              firsts.(i) <- ms :: firsts.(i);
              check_op ("first " ^ qname i) (digest a = expected.(i)))
            mix_order;
          let d, ms = timed (fun () -> span "db.open" (fun () -> ok_or_fail "open" (Db.open_ ~domains codec))) in
          opens := ms :: !opens;
          check_op "codec reopen" (Doc.n_nodes (Db.doc d) = Doc.n_nodes doc);
          write_triple w);
      (* the side task's garbage is collected here, not in the warm
         reads that follow *)
      span "bench.gc" Gc.full_major;
      next_side := now () +. side_period
    end
  done;
  Sys.remove codec;
  (* a round runs each mix query once: the median round is robust to the
     odd stall that a total would absorb *)
  set "read_qps" (float_of_int n_mix *. 1000.0 /. median !rounds);
  set "read_p50_ms" (median !lat);
  set "tail.read_p99_ms" (quantile 0.99 !lat);
  set "first_query_ms" (mean_of_medians firsts);
  set "open_ms" (median !opens);
  set "write_p50_ms" (median w.lat);
  set "tail.write_p90_ms" (quantile 0.9 w.lat);
  Array.iteri (fun i xs -> set (Printf.sprintf "exec.%s_ms" (qname i)) (median xs)) per_q;
  if cfg.trace then set "trace.overhead_pct" (overhead_pct ~traced:!traced ~untraced:!untraced);
  Printf.printf "# query_warm samples: %d reads, %d first queries, %d opens, %d writes\n" (List.length !lat)
    (samples firsts) (List.length !opens) (List.length w.lat)

(* ------------------------------------------------------------------ *)
(* open_cold                                                            *)
(* ------------------------------------------------------------------ *)

(* [setup_reps] store builds from the XML text; rep [i] writes
   [dirs.(i mod n)], so every directory ends up holding the store *)
let create_store cfg ~dirs =
  let setups = ref [] and parses = ref [] and encodes = ref [] and creates = ref [] in
  let kept = ref None in
  for rep = 0 to setup_reps - 1 do
    let dir = dirs.(rep mod Array.length dirs) in
    kept := None;
    rm_rf dir;
    span "bench.gc" Gc.full_major;
    let t0 = now () in
    let doc, parse_ms, encode_ms = load cfg in
    let st, create_ms = timed (fun () -> span "store.create" (fun () -> Store.create ~io:Io_count.io ~path:dir doc)) in
    setups := ms_since t0 :: !setups;
    parses := parse_ms :: !parses;
    encodes := encode_ms :: !encodes;
    creates := create_ms :: !creates;
    span "store.close" (fun () -> Store.close st);
    kept := Some doc
  done;
  set "setup_s" (median !setups /. 1000.0);
  set "xml.parse_ms" (median !parses);
  set "encoding.encode_ms" (median !encodes);
  set "store.create_ms" (median !creates);
  let doc = Option.get !kept in
  set "doc.nodes" (float_of_int (Doc.n_nodes doc));
  set "store_bytes_per_xml_byte"
    (float_of_int (file_size (Filename.concat dirs.(0) Store.pages_file)) /. float_of_int (file_size (xml_file cfg)));
  doc

let open_store ~domains dir =
  let st, open_ms = timed (fun () -> span "store.open" (fun () -> ok_or_fail "open" (Store.open_ ~io:Io_count.io dir))) in
  let _, doc_ms = timed (fun () -> span "store.doc" (fun () -> ignore (Store.doc st : Doc.t))) in
  let db, of_store_ms = timed (fun () -> span "db.of_store" (fun () -> ok_or_fail "of_store" (Db.of_store ~domains st))) in
  (st, db, open_ms, doc_ms, open_ms +. doc_ms +. of_store_ms)

(* the write counters of the WAL between two snapshots *)
let wal_writes ~before ~after =
  let fs, _, fs_ms = Io_count.delta ~before ~after Io_count.Fsync Io_count.Wal in
  let _, bytes, _ = Io_count.delta ~before ~after Io_count.Pwrite Io_count.Wal in
  (fs, fs_ms, bytes)

let set_wal_metrics ~n_writes (fs, fs_ms, bytes) =
  let n = float_of_int (max 1 n_writes) in
  set "io.fsyncs_per_write" (float_of_int fs /. n);
  set "io.fsync_ms" (fs_ms /. float_of_int (max 1 fs));
  set "io.wal_bytes_per_write" (float_of_int bytes /. n)

let open_cold cfg scale =
  let expected, step_ctx, step_expected =
    span "bench.input" (fun () ->
        make_input cfg ~scale ~expect:(fun doc ->
            let step_ctx = Eval.run_exn (oracle_session doc) "/descendant::open_auction" in
            (expected_mix doc, step_ctx, digest_seq (Staircase.desc doc step_ctx))))
  in
  let domains = host_cores in
  let rng = Random.State.make [| cfg.seed; 2 |] in
  let dir = Filename.concat cfg.work "store" and wdir = Filename.concat cfg.work "store-w" in
  let doc = create_store cfg ~dirs:[| dir; wdir |] in
  (* durable writes go to a second store, held open with a session that
     has planned the mix: the reopened store's WAL stays empty *)
  let w =
    span "bench.warmup" (fun () ->
        let _, wdb, _, _, _ = open_store ~domains wdir in
        let s = Db.session wdb in
        Array.iter (fun i -> ignore (run_first s i : answer)) mix_order;
        writer wdb)
  in
  if cfg.trace then begin
    catalog_probe ~domains doc;
    let session = Eval.session ~domains doc in
    core_probe ~domains session (Array.init n_mix (prepare session));
    maintenance_probe ~domains doc
  end;
  let pages = (file_size (Filename.concat dir Store.pages_file) / ((1024 * 8) + 8)) + 8 in
  let opens = ref [] and firsts = Array.make n_mix [] and warms = ref [] and iterations = ref [] in
  let store_open = ref [] and store_doc = ref [] and guide_load = ref [] and steps = ref [] in
  let per_q = Array.make n_mix [] in
  let faults = ref [] and hits = ref [] and evictions = ref [] and bytes = ref [] in
  let preads = ref [] and pread_ms = ref [] in
  let wal = ref (0, 0.0, 0) in
  let traced = ref [] and untraced = ref [] in
  let t0 = now () in
  let iter = ref 0 in
  while now () -. t0 < cfg.seconds do
    incr iter;
    let tr = cfg.trace && !iter mod 2 = 0 in
    span "bench.gc" Gc.full_major;
    let io0 = Io_count.snapshot () in
    let it_ms = ref 0.0 in
    with_tracing tr (fun () ->
        Spans.in_request !iter (fun () ->
            let t_it = now () in
            let st, db, open_ms, doc_ms, ready_ms = open_store ~domains dir in
            store_open := open_ms :: !store_open;
            store_doc := doc_ms :: !store_doc;
            opens := ready_ms :: !opens;
            (* every mix query once on the fresh handle, then warm *)
            let first = Array.make n_mix (Seq Nodeseq.empty) in
            let session = ref None in
            Array.iter
              (fun i ->
                let a, ms =
                  timed (fun () ->
                      let s =
                        match !session with
                        | Some s -> s
                        | None ->
                          let _, g = timed (fun () -> span "store.guide_load" (fun () -> ignore (Store.guide st))) in
                          guide_load := g :: !guide_load;
                          let s = span "db.session" (fun () -> Db.session db) in
                          session := Some s;
                          s
                      in
                      run_first s i)
                in
                firsts.(i) <- ms :: firsts.(i);
                first.(i) <- a)
              mix_order;
            let s = Option.get !session in
            let prepared = Array.init n_mix (prepare s) in
            let warm = Array.make n_mix (Seq Nodeseq.empty) in
            for _ = 1 to warm_passes do
              Array.iter
                (fun i ->
                  let a, ms = timed (fun () -> span ("exec." ^ qname i) (fun () -> run s prepared.(i))) in
                  warms := ms :: !warms;
                  per_q.(i) <- ms :: per_q.(i);
                  warm.(i) <- a)
                (permutation rng n_mix)
            done;
            (* one paged step, the pool holding the whole page file *)
            let pd = span "pager.attach" (fun () -> Db.paged ~capacity:pages db) in
            let r, ms = timed (fun () -> span "pager.step" (fun () -> Paged_doc.desc pd step_ctx)) in
            steps := ms :: !steps;
            let h, f, e = Buffer_pool.stats (Paged_doc.pool pd) in
            hits := float_of_int h :: !hits;
            faults := float_of_int f :: !faults;
            evictions := float_of_int e :: !evictions;
            bytes := float_of_int (Store.bytes_read st) :: !bytes;
            span "db.close" (fun () -> Db.close db);
            it_ms := ms_since t_it;
            iterations := !it_ms :: !iterations;
            span "bench.check" (fun () ->
                Array.iteri
                  (fun i a ->
                    let d = digest a in
                    check_op ("cold first " ^ qname i) (d = expected.(i));
                    check_op ("cold warm " ^ qname i) (d = digest warm.(i)))
                  first;
                check_op "paged step" (digest_seq r = step_expected))));
    let io1 = Io_count.snapshot () in
    let n, _, ms = Io_count.delta ~before:io0 ~after:io1 Io_count.Pread Io_count.Pages in
    preads := float_of_int n :: !preads;
    pread_ms := ms :: !pread_ms;
    if tr then traced := !it_ms :: !traced else untraced := !it_ms :: !untraced;
    (* one durable write triple per iteration, on the second store *)
    with_tracing tr (fun () -> write_triple w);
    let fs, fs_ms, b = wal_writes ~before:io1 ~after:(Io_count.snapshot ()) in
    let f0, t0', b0 = !wal in
    wal := (f0 + fs, t0' +. fs_ms, b0 + b)
  done;
  span "db.close" (fun () -> Db.close w.wdb);
  set "open_ms" (median !opens);
  set "first_query_ms" (mean_of_medians firsts);
  set "read_qps" (float_of_int (n_mix * (1 + warm_passes)) *. 1000.0 /. median !iterations);
  set "read_p50_ms" (median !warms);
  set "tail.read_p99_ms" (quantile 0.99 !warms);
  set "write_p50_ms" (median w.lat);
  set "tail.write_p90_ms" (quantile 0.9 w.lat);
  set_wal_metrics ~n_writes:(List.length w.lat) !wal;
  Array.iteri (fun i xs -> set (Printf.sprintf "exec.%s_ms" (qname i)) (median xs)) per_q;
  set "store.open_ms" (median !store_open);
  set "store.doc_ms" (median !store_doc);
  set "store.guide_load_ms" (median !guide_load);
  set "store.bytes_read" (median !bytes);
  set "pager.step_ms" (median !steps);
  set "pager.hits" (median !hits);
  set "pager.faults" (median !faults);
  set "pager.evictions" (median !evictions);
  set "pager.hit_rate" (median !hits /. (median !hits +. median !faults));
  set "io.preads" (median !preads);
  set "io.pread_ms" (median !pread_ms);
  if cfg.trace then set "trace.overhead_pct" (overhead_pct ~traced:!traced ~untraced:!untraced);
  Printf.printf "# open_cold samples: %d iterations, %d first queries, %d warm reads, %d writes\n" !iter
    (samples firsts) (List.length !warms) (List.length w.lat)

(* ------------------------------------------------------------------ *)
(* serve_rw                                                             *)
(* ------------------------------------------------------------------ *)

let read_rate = 25.0

(* a fixed number of writes per window, spread evenly over it: enough
   samples for the p90, and a deterministic commit count *)
let served_writes = 102

(* store opens and server starts before the window, each followed by
   one first execution of every read kind *)
let server_starts = 9

(* the snapshot-isolation probe: how many hotspot/hotentry nodes the
   rendition at epoch [e] holds (insert, rename, delete cycle) *)
let probe_src = "/descendant::hotspot | /descendant::hotentry"
let probe_expect e = match e mod 3 with 1 -> 2 | 2 -> 1 | _ -> 0

type pending = { kind : int; scheduled : float; handle : Server.handle; rid : int }

(* the expected answers of serve_rw's read kinds and its step contexts *)
let serve_expect doc =
  let oracle = oracle_session doc in
  let desc_ctx = Eval.run_exn oracle "/descendant::open_auction" in
  let anc_ctx = Eval.run_exn oracle "/descendant::increase" in
  let join = join_oracle oracle doc in
  (* the tuple-at-a-time interpreter agrees with the hash-join oracle *)
  let interpreter_agrees =
    match Result.bind (Scj_xquery.Xq_parse.parse join_src) (Xq_eval.interpret oracle) with
    | Ok v -> digest_items v = digest_items join
    | Error _ -> false
  in
  let node_seq v = Nodeseq.of_unsorted (List.filter_map (function Flwor.Node n -> Some n | _ -> None) v) in
  let digests =
    Array.append
      (Array.map (fun src -> digest_seq (Eval.run_exn oracle src)) mix_paths)
      [|
        digest_seq (node_seq join);
        digest_seq (Staircase.desc doc desc_ctx);
        digest_seq (Staircase.anc doc anc_ctx);
      |]
  in
  (digests, desc_ctx, anc_ctx, interpreter_agrees)

let serve_rw cfg scale =
  let digests, desc_ctx, anc_ctx, interpreter_agrees =
    span "bench.input" (fun () -> make_input cfg ~scale ~expect:serve_expect)
  in
  check_extra "join oracle vs interpreter" interpreter_agrees;
  let rng = Random.State.make [| cfg.seed; 3 |] in
  let dir = Filename.concat cfg.work "store" in
  let doc = create_store cfg ~dirs:[| dir |] in
  (* read kinds: the eight XPath queries, the join and two paged steps —
     an odd number of equal weights; the epoch probe runs beside them *)
  let kinds =
    Array.map2
      (fun q d -> (q, d))
      (Array.append
         (Array.map (fun src -> Server.Path src) mix_paths)
         [| Server.Xquery join_src; Server.Step (`Desc, desc_ctx); Server.Step (`Anc, anc_ctx) |])
      digests
  in
  let n_kinds = Array.length kinds in
  let probe_kind = n_kinds in
  let is_step k = k = n_kinds - 1 || k = n_kinds - 2 in
  let query k = if k = probe_kind then Server.Path probe_src else fst kinds.(k) in
  let answer_ok k (r : Server.reply) =
    if k = probe_kind then Nodeseq.length r.Server.result = probe_expect r.Server.epoch
    else digest_seq r.Server.result = snd kinds.(k)
  in
  if cfg.trace then begin
    catalog_probe ~domains:1 doc;
    let session = Eval.session ~domains:1 doc in
    core_probe ~domains:1 session (Array.init n_mix (prepare session));
    maintenance_probe ~domains:1 doc
  end;
  (* the writes' insert parent; the document itself is not kept *)
  let root = Doc.root doc in
  (* open the store and start a server on it, then run every read kind
     once on the fresh server; repeated, the last server serves the
     window *)
  let opens = ref [] and store_open = ref [] and store_doc = ref [] and firsts = Array.make n_kinds [] in
  let workers = max 1 (min 2 host_cores) in
  let started = ref None in
  for _ = 1 to server_starts do
    Option.iter
      (fun (server, db) ->
        span "server.shutdown" (fun () -> Server.shutdown server);
        Db.close db)
      !started;
    span "bench.gc" Gc.full_major;
    let _, db, open_ms, doc_ms, ready_ms = open_store ~domains:1 dir in
    opens := ready_ms :: !opens;
    store_open := open_ms :: !store_open;
    store_doc := doc_ms :: !store_doc;
    let server = span "server.create" (fun () -> Server.create ~workers ~queue_bound:1024 db) in
    Array.iter
      (fun k ->
        let o, ms = timed (fun () -> span "server.run" (fun () -> Server.run server (query k))) in
        firsts.(k) <- ms :: firsts.(k);
        match o with
        | Server.Done r -> check_op "first read" (answer_ok k r)
        | _ -> check_op "first read" false)
      (Array.init n_kinds Fun.id);
    started := Some (server, db)
  done;
  let server, db = Option.get !started in
  set "open_ms" (median !opens);
  set "store.open_ms" (median !store_open);
  set "store.doc_ms" (median !store_doc);
  set "first_query_ms" (mean_of_medians firsts);
  span "bench.gc" Gc.full_major;
  let io0 = Io_count.snapshot () in
  (* the reaper: a thread of the main domain awaiting reads in submission
     order (a domain of its own would add one more participant to every
     stop-the-world collection on a host with as few cores as workers) *)
  let queue = Queue.create () and m = Mutex.create () and cv = Condition.create () in
  let closed = ref false in
  let per_kind = Array.make n_kinds [] and lat_kind = Array.make n_kinds [] in
  let reaper_lat = ref [] and service = ref [] and qwait = ref [] and step_ms = ref [] in
  let tally_hits = ref 0 and tally_misses = ref 0 and reads_done = ref 0 in
  let read_fail = Atomic.make 0 and read_bad = Atomic.make 0 in
  let t0 = now () +. 0.01 in
  let reaper =
    Thread.create
      (fun () ->
        let rec next () =
          Mutex.lock m;
          while Queue.is_empty queue && not !closed do
            Condition.wait cv m
          done;
          let item = Queue.take_opt queue in
          Mutex.unlock m;
          match item with
          | None -> ()
          | Some p ->
            let o = Server.await p.handle in
            let done_at = now () in
            (match o with
            | Server.Done r when p.kind = probe_kind ->
              if not (answer_ok p.kind r) then Atomic.incr read_bad
            | Server.Done r ->
              let lat = (done_at -. p.scheduled) *. 1000.0 in
              if cfg.trace then begin
                (* the client view of the request, with the service time
                   the server reports as its child *)
                let id = Spans.record ~parent:(-1) ~req:p.rid "server.request" ~start:p.scheduled ~stop:done_at in
                ignore
                  (Spans.record ~parent:id ~req:p.rid "server.service"
                     ~start:(done_at -. (r.Server.latency_ms /. 1000.0))
                     ~stop:done_at
                    : int)
              end;
              reaper_lat := lat :: !reaper_lat;
              lat_kind.(p.kind) <- lat :: lat_kind.(p.kind);
              service := r.Server.latency_ms :: !service;
              per_kind.(p.kind) <- r.Server.latency_ms :: per_kind.(p.kind);
              qwait := (lat -. r.Server.latency_ms) :: !qwait;
              if is_step p.kind then step_ms := r.Server.latency_ms :: !step_ms;
              tally_hits := !tally_hits + r.Server.pool_hits;
              tally_misses := !tally_misses + r.Server.pool_misses;
              incr reads_done;
              if not (answer_ok p.kind r) then Atomic.incr read_bad
            | Server.Timed_out | Server.Failed _ | Server.Dropped -> Atomic.incr read_fail);
            next ()
        in
        next ())
      ()
  in
  (* the submitter: paced reads, and the single writer stream polled on
     the server's epoch (a commit advances it by one) *)
  let n_reads = int_of_float (cfg.seconds *. read_rate) in
  let n_writes = served_writes in
  let write_interval = cfg.seconds /. float_of_int n_writes in
  let read_at i = t0 +. (float_of_int i /. read_rate) in
  let slot_at k = t0 +. (float_of_int k *. write_interval) in
  let probe_at j = slot_at j +. (write_interval /. 2.0) in
  let order = ref (permutation rng n_kinds) in
  let next_read = ref 0 and next_write = ref 0 and next_probe = ref 0 and inflight = ref None in
  let pre = ref 0 and lag = ref [] and writes = ref [] and wservice = ref [] in
  let rejected = ref 0 in
  let finish_write (k, h, slot) done_at =
    match Server.await h with
    | Server.Done r ->
      writes := ((done_at -. slot) *. 1000.0) :: !writes;
      wservice := r.Server.latency_ms :: !wservice;
      let ok =
        match k mod 3 with
        | 0 ->
          let ok = Nodeseq.length r.Server.result = 1 in
          if ok then pre := Nodeseq.get r.Server.result 0;
          ok
        | 1 -> Nodeseq.length r.Server.result = 1
        | _ -> Nodeseq.is_empty r.Server.result
      in
      check_op "served write" ok
    | _ -> check_op "served write" false
  in
  let commits = ref 0 in
  let submit_read kind scheduled rid =
    match span "server.submit" (fun () -> Server.submit server (query kind)) with
    | Server.Accepted handle ->
      Mutex.lock m;
      Queue.push { kind; scheduled; handle; rid } queue;
      Condition.signal cv;
      Mutex.unlock m
    | Server.Overloaded | Server.Stopped -> incr rejected
  in
  while !next_read < n_reads || !next_write < n_writes || !next_probe < n_writes || !inflight <> None do
    let t = now () in
    (match !inflight with
    | Some ((_, _, slot) as w) when Server.epoch server > !commits || t -. slot > 30.0 ->
      incr commits;
      span "loadgen.write_done" (fun () -> finish_write w t);
      inflight := None
    | _ -> ());
    if !inflight = None && !next_write < n_writes && slot_at !next_write <= t then begin
      let k = !next_write in
      let op = write_op ~root k !pre in
      (match span "server.submit" (fun () -> Server.submit server (Server.Write { op; expect = None })) with
      | Server.Accepted h -> inflight := Some (k, h, slot_at k)
      | Server.Overloaded | Server.Stopped ->
        incr rejected;
        check_op "served write" false);
      incr next_write
    end;
    while !next_read < n_reads && read_at !next_read <= now () do
      let i = !next_read in
      if i mod n_kinds = 0 && i > 0 then order := permutation rng n_kinds;
      let kind = !order.(i mod n_kinds) in
      let scheduled = read_at i in
      lag := ((now () -. scheduled) *. 1000.0) :: !lag;
      submit_read kind scheduled (i + 1);
      incr next_read
    done;
    if !next_probe < n_writes && probe_at !next_probe <= now () then begin
      submit_read probe_kind (probe_at !next_probe) (-1 - !next_probe);
      incr next_probe
    end;
    let t = now () in
    let next =
      List.fold_left min (t +. 0.05)
        ((if !next_read < n_reads then [ read_at !next_read ] else [])
        @ (if !next_probe < n_writes then [ probe_at !next_probe ] else [])
        @ (if !inflight <> None then [ t +. 0.0005 ] else [])
        @ if !inflight = None && !next_write < n_writes then [ slot_at !next_write ] else [])
    in
    if next > t then span "loadgen.idle" (fun () -> Unix.sleepf (next -. t))
  done;
  Mutex.lock m;
  closed := true;
  Condition.signal cv;
  Mutex.unlock m;
  Thread.join reaper;
  let io1 = Io_count.snapshot () in
  Option.iter (fun st -> set "store.bytes_read" (float_of_int (Store.bytes_read st))) (Db.store db);
  let stats = Server.stats server in
  let _, _, pool_evictions = Server.pool_stats server in
  span "server.shutdown" (fun () -> Server.shutdown server);
  Db.close db;
  (* every read and probe is one attempted operation; a wrong answer
     fails it *)
  attempted := !attempted + n_reads + n_writes;
  for _ = 1 to Atomic.get read_fail + Atomic.get read_bad + !rejected do
    fail_op "served read"
  done;
  (* reads arrive at a fixed rate, so completed reads per second of
     window would only restate it: this is reads per second of worker
     service time, what one saturated worker would complete *)
  set "read_qps" (float_of_int !reads_done *. 1000.0 /. List.fold_left ( +. ) 0.0 !service);
  (* The read kinds' medians form two groups, six kinds at 0.6-4 ms and
     five at 7-15 ms, with none between.  The pooled median lands in that
     gap, where few samples lie, and moved 1.7x between runs.  The mean of
     the kinds' medians does not jump. *)
  set "read_p50_ms" (mean_of_medians lat_kind);
  set "tail.read_p99_ms" (quantile 0.99 !reaper_lat);
  set "write_p50_ms" (median !writes);
  set "tail.write_p90_ms" (quantile 0.9 !writes);
  List.iteri (fun i q -> set (Printf.sprintf "exec.%s_ms" q) (median per_kind.(i))) mix_names;
  set "server.queue_wait_ms_p50" (median !qwait);
  set "server.queue_wait_ms_p99" (quantile 0.99 !qwait);
  set "server.read_service_ms_p50" (median !service);
  set "server.read_service_ms_p99" (quantile 0.99 !service);
  set "server.write_service_ms_p50" (median !wservice);
  set "server.completed" (float_of_int stats.Server.completed);
  set "server.rejected" (float_of_int stats.Server.rejected);
  set "server.timed_out" (float_of_int stats.Server.timed_out);
  set "server.failed" (float_of_int stats.Server.failed);
  set "server.commits" (float_of_int stats.Server.commits);
  set "loadgen.lag_ms_p99" (quantile 0.99 !lag);
  set "pager.hits" (float_of_int !tally_hits);
  set "pager.faults" (float_of_int !tally_misses);
  set "pager.evictions" (float_of_int pool_evictions);
  set "pager.hit_rate" (float_of_int !tally_hits /. float_of_int (max 1 (!tally_hits + !tally_misses)));
  set "pager.step_ms" (median !step_ms);
  set_wal_metrics ~n_writes:(List.length !writes) (wal_writes ~before:io0 ~after:io1);
  let pr, _, pr_ms = Io_count.delta ~before:io0 ~after:io1 Io_count.Pread Io_count.Pages in
  set "io.preads" (float_of_int pr /. float_of_int (max 1 !reads_done));
  set "io.pread_ms" (pr_ms /. float_of_int (max 1 pr));
  Printf.printf "# serve_rw samples: %d reads (%d done), %d writes, %d commits, %d opens, %d first reads\n" n_reads
    !reads_done (List.length !writes) stats.Server.commits (List.length !opens) (samples firsts)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let workloads = [ ("query_warm", (0.25, query_warm)); ("open_cold", (0.25, open_cold)); ("serve_rw", (0.05, serve_rw)) ]

let json_values () =
  String.concat ", "
    (Hashtbl.fold
       (fun name v acc ->
         if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
         Printf.sprintf "%S: %.17g" name v :: acc)
       values [])

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "query_warm, open_cold or serve_rw");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured window");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let scale, body =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let work = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf work;
  (try Sys.mkdir (Filename.dirname work) 0o755 with Sys_error _ -> ());
  Sys.mkdir work 0o755;
  let cfg = { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; work } in
  set "host.cores" (float_of_int host_cores);
  Spans.enabled := cfg.trace;
  let main_dom = (Domain.self () :> int) in
  let t0 = now () in
  Fun.protect ~finally:(fun () -> rm_rf work) (fun () -> body cfg scale);
  let region_ms = ms_since t0 in
  Spans.enabled := false;
  set "peak_rss_mb" (peak_rss_mb ());
  if cfg.trace then begin
    let spans = Spans.all () in
    List.iter (fun (l, ms) -> set (Printf.sprintf "layer.%s.self_ms" l) ms) (Spans.self_ms spans);
    let unattributed = region_ms -. !untraced_ms -. Spans.root_ms ~dom:main_dom spans in
    set "trace.spans" (float_of_int (List.length spans));
    set "trace.unattributed_ms" unattributed;
    set "trace.unattributed_pct" (100.0 *. unattributed /. (region_ms -. !untraced_ms));
    let out = Filename.concat (Filename.dirname work) (Printf.sprintf "spans-%s-seed%d.jsonl" cfg.workload cfg.seed) in
    Spans.write_jsonl out spans;
    Printf.printf "# %d spans written to %s\n" (List.length spans) out
  end;
  List.iter (fun n -> Printf.printf "# failure: %s\n" n) (List.rev !failure_notes);
  let correct = !failed = 0 && !check_failures = 0 in
  (* run.py turns the values into the result line of BENCHMARK.json's
     metrics *)
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"values\": {%s}}\n%!" correct
    (max 1 !attempted) !failed (json_values ())
