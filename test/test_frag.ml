(* Tests for tag-name fragmentation and the morsel-driven staircase
   join (lib/frag). *)

module Doc = Scj_encoding.Doc
module Exec = Scj_trace.Exec
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Sj = Scj_core.Staircase
module Fragmented = Scj_frag.Fragmented
module Morsel = Scj_frag.Morsel

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let doc () = Lazy.force Test_support.paper_doc

let pre name = Test_support.pre_of_name (doc ()) name

let seq names = Nodeseq.of_unsorted (List.map pre names)

let xmark = lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ())))

(* ------------------------------------------------------------------ *)
(* fragmentation                                                       *)
(* ------------------------------------------------------------------ *)

let test_build_paper () =
  let f = Fragmented.build (doc ()) in
  (* ten distinct single-letter tags *)
  check_int "ten fragments" 10 (Fragmented.n_fragments f);
  check_int "size of a" 1 (Fragmented.fragment_size f "a");
  check_int "missing tag" 0 (Fragmented.fragment_size f "zz");
  check_bool "fragment lookup" true (Fragmented.fragment f "f" <> None)

let test_fragment_sizes_cover_elements () =
  let d = Lazy.force xmark in
  let f = Fragmented.build d in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 (Fragmented.tags f) in
  let elements = ref 0 in
  let kinds = Doc.kind_array d in
  Array.iter (fun k -> if k = Doc.Element then incr elements) kinds;
  check_int "fragments partition the elements" !elements total

let test_desc_step_paper () =
  let f = Fragmented.build (doc ()) in
  Alcotest.check nodeseq "descendant::f from root" (seq [ "f" ])
    (Fragmented.desc_step f (seq [ "a" ]) ~tag:"f");
  Alcotest.check nodeseq "descendant::g from e" (seq [ "g" ])
    (Fragmented.desc_step f (seq [ "e" ]) ~tag:"g");
  Alcotest.check nodeseq "no match" Nodeseq.empty (Fragmented.desc_step f (seq [ "b" ]) ~tag:"g")

let test_anc_step_paper () =
  let f = Fragmented.build (doc ()) in
  Alcotest.check nodeseq "ancestor::e of g,j" (seq [ "e" ])
    (Fragmented.anc_step f (seq [ "g"; "j" ]) ~tag:"e");
  Alcotest.check nodeseq "ancestor::a" (seq [ "a" ]) (Fragmented.anc_step f (seq [ "g" ]) ~tag:"a")

(* The future-work experiment: fragmented evaluation matches the plain
   staircase join followed by a name test, while touching only fragment
   nodes. *)
let test_fragment_matches_full_join_on_xmark () =
  let d = Lazy.force xmark in
  let f = Fragmented.build d in
  let root = Nodeseq.singleton (Doc.root d) in
  let stats_frag = Stats.create () in
  let profiles = Fragmented.desc_step ~exec:(Exec.make ~stats:stats_frag ()) f root ~tag:"profile" in
  let educations = Fragmented.desc_step f profiles ~tag:"education" in
  (* reference: full staircase join + name filter *)
  let filter_tag seq tag =
    match Doc.tag_symbol d tag with
    | None -> Nodeseq.empty
    | Some sym ->
      Nodeseq.filter (fun v -> Doc.kind d v = Doc.Element && Doc.tag d v = sym) seq
  in
  let stats_full = Stats.create () in
  let profiles' = filter_tag (Sj.desc ~exec:(Exec.make ~stats:stats_full ()) d root) "profile" in
  let educations' = filter_tag (Sj.desc d profiles') "education" in
  Alcotest.check nodeseq "same profiles" profiles' profiles;
  Alcotest.check nodeseq "same educations" educations' educations;
  check_bool
    (Printf.sprintf "fragment touches far fewer nodes (%d vs %d)" (Stats.touched stats_frag)
       (Stats.touched stats_full))
    true
    (Stats.touched stats_frag * 10 < Stats.touched stats_full)

let prop_fragment_steps_agree =
  QCheck.Test.make ~count:200 ~name:"fragmented steps = filtered staircase joins"
    (QCheck.make
       ~print:(fun ((d, c), tag) ->
         Printf.sprintf "%s ctx=%s tag=%s" (Test_support.doc_print d)
           (Format.asprintf "%a" Nodeseq.pp c)
           tag)
       (QCheck.Gen.pair
          (Test_support.doc_with_context_gen ())
          (QCheck.Gen.oneofl [ "a"; "b"; "item"; "x"; "root" ])))
    (fun ((d, ctx), tag) ->
      let f = Fragmented.build d in
      let filter_tag seq =
        match Doc.tag_symbol d tag with
        | None -> Nodeseq.empty
        | Some sym ->
          Nodeseq.filter (fun v -> Doc.kind d v = Doc.Element && Doc.tag d v = sym) seq
      in
      Nodeseq.equal (Fragmented.desc_step f ctx ~tag) (filter_tag (Sj.desc d ctx))
      && Nodeseq.equal (Fragmented.anc_step f ctx ~tag) (filter_tag (Sj.anc d ctx)))

let all_modes = [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

(* ------------------------------------------------------------------ *)
(* morsel                                                              *)
(* ------------------------------------------------------------------ *)

let test_morsel_paper () =
  let d = doc () in
  List.iter
    (fun domains ->
      List.iter
        (fun mode ->
          Alcotest.check nodeseq
            (Printf.sprintf "desc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.desc d (seq [ "b"; "e" ]))
            (Morsel.desc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "b"; "e" ]));
          Alcotest.check nodeseq
            (Printf.sprintf "anc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.anc d (seq [ "g"; "j" ]))
            (Morsel.anc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "g"; "j" ])))
        all_modes)
    [ 1; 2; 4 ]

let test_morsel_empty_context () =
  let d = doc () in
  Alcotest.check nodeseq "empty" Nodeseq.empty
    (Morsel.desc ~exec:(Exec.make ~domains:4 ()) d Nodeseq.empty)

let test_morsel_xmark () =
  let d = Lazy.force xmark in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions d "increase") in
  Alcotest.check nodeseq "morsel anc on xmark" (Sj.anc d increases)
    (Morsel.anc ~exec:(Exec.make ~domains:4 ()) d increases);
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  Alcotest.check nodeseq "morsel desc on xmark" (Sj.desc d profiles)
    (Morsel.desc ~exec:(Exec.make ~domains:4 ()) d profiles)

(* Worker exceptions surface at the submitter: a batch whose task raises
   must cancel the remainder and re-raise the first failure — this is
   the abort-path contract every pool batch relies on. *)
let test_pool_propagates_exceptions () =
  let pool = Morsel.Pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  (try
     Morsel.Pool.submit pool ~width:4 ~n:64 (fun i ->
         if i = 3 then failwith "boom" else Atomic.incr hits);
     Alcotest.fail "expected the worker exception to re-raise"
   with Failure msg -> Alcotest.(check string) "first worker exception" "boom" msg);
  check_bool "remainder cancelled" true (Atomic.get hits < 64);
  (* the pool survives a failed batch *)
  let ran = Atomic.make 0 in
  Morsel.Pool.submit pool ~width:4 ~n:8 (fun _ -> Atomic.incr ran);
  check_int "pool alive after failure" 8 (Atomic.get ran);
  Morsel.Pool.shutdown pool

(* Deadline cancellation polls Exec.check at morsel boundaries. *)
let test_morsel_deadline () =
  let d = Lazy.force xmark in
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  let exception Deadline in
  let polls = Atomic.make 0 in
  let check () = if Atomic.fetch_and_add polls 1 > 0 then raise Deadline in
  (match Morsel.desc ~morsel_size:64 ~exec:(Exec.make ~domains:2 ~check ()) d profiles with
  | _ -> Alcotest.fail "expected the deadline to abort the join"
  | exception Deadline -> ());
  check_bool "polled at morsel boundaries" true (Atomic.get polls > 1)

(* Morsels of one node: every chunk boundary falls between two nodes, so
   each copy and no-skip scan is cut at every possible position. *)
let test_morsel_one_node_morsels () =
  let d = doc () in
  List.iter
    (fun domains ->
      List.iter
        (fun mode ->
          let exec = Exec.make ~domains ~mode () in
          Alcotest.check nodeseq
            (Printf.sprintf "desc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.desc d (seq [ "b"; "e" ]))
            (Morsel.desc ~morsel_size:1 ~exec d (seq [ "b"; "e" ]));
          Alcotest.check nodeseq
            (Printf.sprintf "anc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.anc d (seq [ "g"; "j" ]))
            (Morsel.anc ~morsel_size:1 ~exec d (seq [ "g"; "j" ])))
        all_modes)
    [ 1; 2; 4 ]

(* The root's descendants are every node below it; it has no
   ancestors.  A leaf has no descendants and the full root path above. *)
let test_morsel_root_and_leaf () =
  let d = doc () in
  let exec = Exec.make ~domains:2 () in
  List.iter
    (fun ctx ->
      Alcotest.check nodeseq "desc" (Sj.desc d ctx) (Morsel.desc ~morsel_size:2 ~exec d ctx);
      Alcotest.check nodeseq "anc" (Sj.anc d ctx) (Morsel.anc ~morsel_size:2 ~exec d ctx))
    [ seq [ "a" ]; seq [ "j" ]; seq [ "a"; "j" ] ];
  check_int "every node below the root" (Doc.size d (Doc.root d))
    (Nodeseq.length (Morsel.desc ~exec d (seq [ "a" ])));
  Alcotest.check nodeseq "root has no ancestors" Nodeseq.empty (Morsel.anc ~exec d (seq [ "a" ]))

(* The submitter helps run its own batch, so a join completes on a pool
   with no worker domains at all. *)
let test_morsel_zero_worker_pool () =
  let d = Lazy.force xmark in
  let pool = Morsel.Pool.create () in
  let exec = Exec.make ~domains:4 () in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions d "increase") in
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  Alcotest.check nodeseq "anc" (Sj.anc d increases)
    (Morsel.anc ~pool ~morsel_size:64 ~exec d increases);
  Alcotest.check nodeseq "desc" (Sj.desc d profiles)
    (Morsel.desc ~pool ~morsel_size:64 ~exec d profiles);
  check_int "no worker was spawned" 0 (Morsel.Pool.size pool);
  Morsel.Pool.shutdown pool

let test_pool_grows_never_shrinks () =
  let pool = Morsel.Pool.create ~workers:1 () in
  check_int "created" 1 (Morsel.Pool.size pool);
  Morsel.Pool.ensure pool 3;
  check_int "grown" 3 (Morsel.Pool.size pool);
  Morsel.Pool.ensure pool 2;
  check_int "not shrunk" 3 (Morsel.Pool.size pool);
  Morsel.Pool.shutdown pool;
  check_int "stopped" 0 (Morsel.Pool.size pool)

(* A batch runs at most [width] tasks at once however many workers the
   pool has: that is how [exec.domains] bounds a query. *)
let test_pool_width_caps_concurrency () =
  let pool = Morsel.Pool.create ~workers:3 () in
  List.iter
    (fun width ->
      let live = Atomic.make 0 and peak = Atomic.make 0 in
      Morsel.Pool.submit pool ~width ~n:32 (fun _ ->
          let now = Atomic.fetch_and_add live 1 + 1 in
          let rec raise_peak () =
            let p = Atomic.get peak in
            if now > p && not (Atomic.compare_and_set peak p now) then raise_peak ()
          in
          raise_peak ();
          for _ = 1 to 1000 do
            Domain.cpu_relax ()
          done;
          Atomic.decr live);
      check_bool (Printf.sprintf "at most %d wide" width) true (Atomic.get peak <= width))
    [ 1; 2 ];
  Morsel.Pool.shutdown pool

(* A task that submits a batch of its own helps run it, so nesting on a
   busy pool cannot deadlock. *)
let test_pool_nested_submit () =
  let pool = Morsel.Pool.create ~workers:2 () in
  let ran = Atomic.make 0 in
  Morsel.Pool.submit pool ~width:3 ~n:4 (fun _ ->
      Morsel.Pool.submit pool ~width:3 ~n:8 (fun _ -> Atomic.incr ran));
  check_int "every inner task ran" 32 (Atomic.get ran);
  Morsel.Pool.shutdown pool

(* Shutdown finishes claimable work before the workers exit. *)
let test_pool_shutdown_finishes_async () =
  let pool = Morsel.Pool.create () in
  let ran = Atomic.make false in
  Morsel.Pool.async pool (fun () -> Atomic.set ran true);
  check_bool "async grew the pool" true (Morsel.Pool.size pool >= 1);
  Morsel.Pool.shutdown pool;
  check_bool "async task ran before shutdown returned" true (Atomic.get ran)

let prop_morsel_agrees =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:100
        ~name:(Printf.sprintf "morsel = sequential (%s)" (Sj.skip_mode_to_string mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          Nodeseq.equal
            (Morsel.desc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx)
            (Sj.desc ~exec:(Exec.make ~mode ()) d ctx)
          && Nodeseq.equal
               (Morsel.anc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx)
               (Sj.anc ~exec:(Exec.make ~mode ()) d ctx)))
    all_modes

(* The same agreement on a private pool with no worker domains: the
   submitter runs every morsel itself. *)
let prop_morsel_zero_worker_pool =
  let pool = lazy (Morsel.Pool.create ()) in
  List.map
    (fun mode ->
      QCheck.Test.make ~count:100
        ~name:(Printf.sprintf "morsel on a zero-worker pool = sequential (%s)" (Sj.skip_mode_to_string mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          let pool = Lazy.force pool in
          let exec = Exec.make ~domains:2 ~mode () in
          Nodeseq.equal (Morsel.desc ~pool ~morsel_size:4 ~exec d ctx) (Sj.desc ~exec:(Exec.make ~mode ()) d ctx)
          && Nodeseq.equal (Morsel.anc ~pool ~morsel_size:4 ~exec d ctx) (Sj.anc ~exec:(Exec.make ~mode ()) d ctx)))
    all_modes

(* Σ-tallies parity: morsel counters must merge to the per-node
   reference bit for bit, across modes, widths and morsel sizes — a
   tiny morsel size forces partition chunking on every doc. *)
let prop_morsel_counter_parity =
  List.concat_map
    (fun mode ->
      List.map
        (fun (domains, morsel_size) ->
          QCheck.Test.make ~count:100
            ~name:
              (Printf.sprintf "morsel counters = per-node reference (%s, %d domains, %d-node morsels)"
                 (Sj.skip_mode_to_string mode) domains morsel_size)
            (Test_support.doc_with_context_arbitrary ())
            (fun (d, ctx) ->
              let s_m = Stats.create () and s_ref = Stats.create () in
              let r_m = Morsel.desc ~morsel_size ~exec:(Exec.make ~mode ~domains ~stats:s_m ()) d ctx in
              let r_ref = Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              let a_m = Morsel.anc ~morsel_size ~exec:(Exec.make ~mode ~domains ~stats:s_m ()) d ctx in
              let a_ref = Sj.Reference.anc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              if not (Nodeseq.equal r_m r_ref && Nodeseq.equal a_m a_ref) then
                QCheck.Test.fail_reportf "results differ"
              else if Stats.all_assoc s_m <> Stats.all_assoc s_ref then
                QCheck.Test.fail_reportf "counters differ:@.morsel %s@.ref %s" (Stats.to_json s_m)
                  (Stats.to_json s_ref)
              else true))
        [ (1, 4); (2, 8); (4, 4); (4, 32768) ])
    all_modes

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    ((prop_fragment_steps_agree :: prop_morsel_agrees)
    @ prop_morsel_zero_worker_pool @ prop_morsel_counter_parity)

let () =
  Alcotest.run "scj_frag"
    [
      ( "fragmentation",
        [
          Alcotest.test_case "build on paper doc" `Quick test_build_paper;
          Alcotest.test_case "fragments partition elements" `Quick test_fragment_sizes_cover_elements;
          Alcotest.test_case "descendant steps" `Quick test_desc_step_paper;
          Alcotest.test_case "ancestor steps" `Quick test_anc_step_paper;
          Alcotest.test_case "xmark Q1 equivalence + savings" `Quick
            test_fragment_matches_full_join_on_xmark;
        ] );
      ( "morsel",
        [
          Alcotest.test_case "paper doc, all modes/domains" `Quick test_morsel_paper;
          Alcotest.test_case "empty context" `Quick test_morsel_empty_context;
          Alcotest.test_case "xmark steps" `Quick test_morsel_xmark;
          Alcotest.test_case "pool re-raises worker exceptions" `Quick
            test_pool_propagates_exceptions;
          Alcotest.test_case "deadline at morsel boundaries" `Quick test_morsel_deadline;
          Alcotest.test_case "one-node morsels" `Quick test_morsel_one_node_morsels;
          Alcotest.test_case "root and leaf contexts" `Quick test_morsel_root_and_leaf;
          Alcotest.test_case "zero-worker pool" `Quick test_morsel_zero_worker_pool;
        ] );
      ( "pool",
        [
          Alcotest.test_case "grows, never shrinks" `Quick test_pool_grows_never_shrinks;
          Alcotest.test_case "width caps concurrency" `Quick test_pool_width_caps_concurrency;
          Alcotest.test_case "nested submit" `Quick test_pool_nested_submit;
          Alcotest.test_case "shutdown finishes async work" `Quick test_pool_shutdown_finishes_async;
        ] );
      ("properties", qsuite);
    ]
