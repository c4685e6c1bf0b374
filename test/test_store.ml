(* The durable document store: on-disk roundtrip, real-pread pool
   traffic, checksum verification, torn-tail WAL recovery, checkpoint
   truncation — and the recovery fuzz: for every injected crash point
   across (shape, seed, crash-schedule) runs, reopening either recovers
   a store whose desc/anc/following/preceding results and work counters
   are bit-identical to the in-memory oracle, or fails cleanly with a
   diagnosis.  Never a wrong answer, never an unhandled crash. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Store = Scj_store.Store
module Wal = Scj_store.Wal
module Crc32 = Scj_store.Crc32
module Codec = Scj_encoding.Codec
module Err = Scj_error.Error

let error_t = Alcotest.testable Err.pp ( = )
module Fuzz = Test_support.Fuzz
module Faultfs = Test_support.Faultfs

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "scj_store_test_%d_%d" (Unix.getpid ()) !dir_counter)

let wipe dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> wipe dir) (fun () -> f dir)

let wal_size dir = (Unix.stat (Filename.concat dir "wal.scj")).Unix.st_size

(* flip one byte of a store file in place *)
let flip_byte dir file pos =
  let fd = Unix.openfile (Filename.concat dir file) [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_counted f =
  let stats = Stats.create () in
  let r = f stats in
  (Nodeseq.to_list r, Stats.all_assoc stats)

(* Axis parity of an opened store against the in-memory oracle document:
   raw columns, paged desc/anc vs the estimation-mode staircase (results
   and counters bit-identical), and following/preceding on the
   materialized recovered document vs the oracle. *)
let check_parity ~what oracle store =
  let recovered = Store.doc store in
  if Doc.post_array recovered <> Doc.post_array oracle then
    Alcotest.failf "%s: recovered post column differs" what;
  if Doc.size_array recovered <> Doc.size_array oracle then
    Alcotest.failf "%s: recovered size column differs" what;
  if Doc.attr_prefix_array recovered <> Doc.attr_prefix_array oracle then
    Alcotest.failf "%s: recovered attr-prefix column differs" what;
  let paged = Store.paged store in
  let contexts =
    [
      ("root", Nodeseq.singleton (Doc.root oracle));
      ("fuzz", Fuzz.context oracle 7);
    ]
  in
  List.iter
    (fun (cname, ctx) ->
      let estimation stats = Exec.make ~mode:Sj.Estimation ~stats () in
      let pairs =
        [
          ( "desc",
            run_counted (fun s -> Sj.desc ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Paged_doc.desc ~exec:(Exec.make ~stats:s ()) paged ctx) );
          ( "anc",
            run_counted (fun s -> Sj.anc ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Paged_doc.anc ~exec:(Exec.make ~stats:s ()) paged ctx) );
          ( "following",
            run_counted (fun s -> Sj.following ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Sj.following ~exec:(estimation s) recovered ctx) );
          ( "preceding",
            run_counted (fun s -> Sj.preceding ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Sj.preceding ~exec:(estimation s) recovered ctx) );
        ]
      in
      List.iter
        (fun (axis, (exp_r, exp_c), (got_r, got_c)) ->
          if exp_r <> got_r then
            Alcotest.failf "%s: %s/%s results diverge from oracle" what axis cname;
          if exp_c <> got_c then
            Alcotest.failf "%s: %s/%s work counters diverge from oracle" what axis cname)
        pairs)
    contexts

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* the oracle: the textbook CRC-32, one byte (and its eight bits) at a
   time *)
let crc32_bytewise ?(crc = 0) b ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_known_answer () =
  let check_digest what expected s =
    Alcotest.(check int) what expected
      (Crc32.digest (Bytes.of_string s) ~pos:0 ~len:(String.length s))
  in
  check_digest "check value" 0xCBF43926 "123456789";
  check_digest "empty" 0 "";
  check_digest "pangram" 0x414FA339 "The quick brown fox jumps over the lazy dog";
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.digest (Bytes.create 8) ~pos:4 ~len:5))

(* one default page's data bytes: the size every page checksum covers *)
let full_page = 1024 * 8

(* Random buffers at every start offset mod 8, every length 0-64 and one
   full page: the slicing-by-8 digest equals the bytewise oracle, and a
   digest split anywhere composes ([update (digest a) b = digest (a ^ b)],
   the WAL's header-then-payload checksum). *)
let prop_crc32_matches_bytewise =
  QCheck.Test.make ~count:40 ~name:"crc32 = bytewise oracle, composes" QCheck.int (fun seed ->
      let st = Random.State.make [| 0xc5c; seed |] in
      let buf = Bytes.init (8 + full_page) (fun _ -> Char.chr (Random.State.int st 256)) in
      let lens = List.init 65 Fun.id @ [ full_page ] in
      List.for_all
        (fun pos ->
          List.for_all
            (fun len ->
              let whole = Crc32.digest buf ~pos ~len in
              let split = Random.State.int st (len + 1) in
              whole = crc32_bytewise buf ~pos ~len
              && Crc32.update (Crc32.digest buf ~pos ~len:split) buf ~pos:(pos + split)
                   ~len:(len - split)
                 = whole)
            lens)
        (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* format golden                                                       *)
(* ------------------------------------------------------------------ *)

(* The bytes of a store's page file and of a document file for one
   fixed fuzz document, pinned by length and CRC-32: the encoders and
   checksums write exactly the store v3 / SCJDOC1 formats. *)
let test_golden_bytes () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Attr_heavy 5 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      let scj = Filename.concat dir "doc.scj" in
      Codec.write_file scj doc;
      let fingerprint path =
        let b = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        (Bytes.length b, crc32_bytewise b ~pos:0 ~len:(Bytes.length b))
      in
      Alcotest.(check (pair int int)) "pages.scj" (11152, 0xc29d11e8)
        (fingerprint (Filename.concat dir "pages.scj"));
      Alcotest.(check (pair int int)) "doc.scj" (5613, 0x22d80d7a) (fingerprint scj))

(* ------------------------------------------------------------------ *)
(* roundtrip                                                           *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_dir (fun dir ->
      let doc = Lazy.force Test_support.paper_doc in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Alcotest.(check (result unit error_t)) "verify" (Ok ()) (Store.verify store);
      check_parity ~what:"fresh store" doc store;
      Alcotest.(check int) "WAL checkpointed after create" 8 (wal_size dir);
      Store.close store;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen failed: %s" (Err.to_string e)
      | Ok store2 ->
        Alcotest.(check bool) "clean reopen has no recovery work" true
          (Store.last_recovery store2 = Wal.clean_recovery);
        check_parity ~what:"reopened store" doc store2;
        Store.close store2)

(* Pool faults over a store are real preads: counted in the pool stats,
   attributable per query through tallies, and visible as bytes read. *)
let test_real_preads () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 3 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen failed: %s" (Err.to_string e)
      | Ok store ->
        let paged = Store.paged ~capacity:24 store in
        let pool = Paged_doc.pool paged in
        let before = Store.bytes_read store in
        let tally = Buffer_pool.Tally.create () in
        let ctx = Nodeseq.singleton (Doc.root doc) in
        ignore (Paged_doc.desc (Paged_doc.with_tally paged tally) ctx);
        let hits, faults, _ = Buffer_pool.stats pool in
        Alcotest.(check bool) "faults happened" true (faults > 0);
        Alcotest.(check int) "tally = pool counters" (hits + faults)
          (Buffer_pool.Tally.total tally);
        Alcotest.(check bool) "faults were real page-file reads" true
          (Store.bytes_read store > before);
        Store.close store)

(* ------------------------------------------------------------------ *)
(* corruption                                                          *)
(* ------------------------------------------------------------------ *)

let test_checksum_corruption () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 1 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      (* a flipped byte inside the first post page: open still succeeds
         (the superblock is fine) but verification and any query touching
         the page report Corrupt *)
      let stride = (16 * 8) + 8 in
      flip_byte dir "pages.scj" (stride + 4);
      (match Store.open_ dir with
      | Error e -> Alcotest.failf "open after data corruption should succeed, got: %s" (Err.to_string e)
      | Ok store ->
        (match Store.verify store with
        | Ok () -> Alcotest.fail "verify missed a flipped byte"
        | Error e ->
          Alcotest.(check bool) "diagnosis names the checksum" true
            (contains_sub (Err.to_string e) "checksum"));
        (match Store.doc store with
        | exception Store.Corrupt msg ->
          Alcotest.(check bool) "materialization names the checksum" true
            (contains_sub msg "checksum")
        | _ -> Alcotest.fail "materialized a document over a corrupt post page");
        let paged = Store.paged store in
        (match Paged_doc.desc paged (Nodeseq.singleton 0) with
        | exception Store.Corrupt _ -> ()
        | _ -> Alcotest.fail "query over a corrupt page returned an answer");
        Store.close store);
      (* a flipped byte inside the superblock refuses the whole store *)
      flip_byte dir "pages.scj" 100;
      match Store.open_ dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "open accepted a corrupt superblock")

(* ------------------------------------------------------------------ *)
(* materialization corruption                                          *)
(* ------------------------------------------------------------------ *)

let read_pages dir =
  Bytes.of_string (In_channel.with_open_bin (Filename.concat dir "pages.scj") In_channel.input_all)

let write_pages dir b =
  Out_channel.with_open_bin (Filename.concat dir "pages.scj") (fun oc -> Out_channel.output_bytes oc b)

let get_int b off = Int64.to_int (Bytes.get_int64_le b off)

let set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

(* superblock ints: 2 page_ints, 3 n_nodes, 5-7 column extent pages,
   8 meta pages, 9 meta bytes *)
let superblock b i = get_int b (8 * i)

let meta_base b = 1 + superblock b 5 + superblock b 6 + superblock b 7

(* Rewrite the meta extent in place and reseal every page touched (and
   the superblock) with a freshly computed CRC, so the damage gets past
   the checksums: [edit ~n blob] patches the blob, [meta_bytes] replaces
   its recorded length. *)
let reseal_meta dir ?meta_bytes edit =
  let b = read_pages dir in
  let data = 8 * superblock b 2 in
  let st = data + 8 in
  let base = meta_base b and pages = superblock b 8 in
  let blob = Bytes.create (pages * data) in
  for p = 0 to pages - 1 do
    Bytes.blit b ((base + p) * st) blob (p * data) data
  done;
  edit ~n:(superblock b 3) blob;
  let seal fpage = set_int b ((fpage * st) + data) (crc32_bytewise b ~pos:(fpage * st) ~len:data) in
  for p = 0 to pages - 1 do
    Bytes.blit blob (p * data) b ((base + p) * st) data;
    seal (base + p)
  done;
  Option.iter
    (fun m ->
      set_int b (8 * 9) m;
      seal 0)
    meta_bytes;
  write_pages dir b

(* open must succeed and every page must verify; materializing must then
   raise Corrupt mentioning [mentions] — no other exception, no answer *)
let expect_corrupt_doc ~what ~mentions dir =
  match Store.open_ dir with
  | Error e -> Alcotest.failf "%s: open refused the store: %s" what (Err.to_string e)
  | Ok store ->
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () ->
        match Store.doc store with
        | _ -> Alcotest.failf "%s: materialized a document" what
        | exception Store.Corrupt msg ->
          if not (contains_sub msg mentions) then
            Alcotest.failf "%s: diagnosis %S does not mention %S" what msg mentions
        | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))

let test_meta_checksum () =
  with_dir (fun dir ->
      let store = Store.create ~page_ints:16 ~path:dir (Fuzz.doc Fuzz.Uniform 2) in
      Store.close store;
      (* the extent's last page: every page of a one-read extent is verified *)
      let b = read_pages dir in
      let last = meta_base b + superblock b 8 - 1 in
      flip_byte dir "pages.scj" ((last * ((16 * 8) + 8)) + 5);
      expect_corrupt_doc ~what:"flipped meta byte" ~mentions:"checksum" dir;
      expect_corrupt_doc ~what:"flipped meta byte" ~mentions:(Printf.sprintf "file page %d" last) dir)

let test_meta_rows_corrupt () =
  let doc = Fuzz.doc Fuzz.Attr_heavy 3 in
  let fresh f =
    with_dir (fun dir ->
        let store = Store.create ~page_ints:16 ~path:dir doc in
        Store.close store;
        f dir)
  in
  fresh (fun dir ->
      reseal_meta dir (fun ~n blob -> set_int blob ((16 * n) + 24) 7);
      (match Store.open_ dir with
      | Ok store ->
        Alcotest.(check (result unit error_t)) "resealed pages verify" (Ok ()) (Store.verify store);
        Store.close store
      | Error e -> Alcotest.failf "open: %s" (Err.to_string e));
      expect_corrupt_doc ~what:"bad kind code" ~mentions:"kind code" dir);
  (* the root's tag row: presence flag at [24n], string length next *)
  List.iter
    (fun (what, len_of) ->
      fresh (fun dir ->
          let meta_bytes = superblock (read_pages dir) 9 in
          reseal_meta dir (fun ~n blob -> set_int blob ((24 * n) + 8) (len_of meta_bytes));
          expect_corrupt_doc ~what ~mentions:"string length" dir))
    [
      ("string length past meta_bytes", fun m -> m);
      ("string length into the page padding", fun m -> m - (24 * Doc.n_nodes doc) - 16 + 1);
      ("negative string length", fun _ -> -1);
    ];
  (* a shorter or longer recorded length within the same page count:
     the rows end early, or bytes trail them *)
  fresh (fun dir ->
      let b = read_pages dir in
      let m = superblock b 9 and data = 8 * superblock b 2 in
      let first_of_last = (superblock b 8 - 1) * data in
      Alcotest.(check bool) "last meta page holds two bytes or more" true (m - first_of_last >= 2);
      Alcotest.(check bool) "last meta page has padding" true (m < first_of_last + data);
      List.iter
        (fun m' ->
          reseal_meta dir ~meta_bytes:m' (fun ~n:_ _ -> ());
          expect_corrupt_doc ~what:(Printf.sprintf "row section cut to %d of %d bytes" m' m)
            ~mentions:"meta extent" dir)
        [ m - 1; first_of_last + 1 ];
      reseal_meta dir ~meta_bytes:(m + 1) (fun ~n:_ _ -> ());
      expect_corrupt_doc ~what:"one trailing byte" ~mentions:"trailing" dir)

(* a version-1 superblock (the format before logical mutation records;
   same pages) opens and materializes like the version-2 store it was
   patched from *)
let test_v1_store_opens () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Deep 1 in
      Store.close (Store.create ~guide:false ~page_ints:16 ~path:dir doc);
      let b = read_pages dir in
      Alcotest.(check int) "written as version 2" 2 (superblock b 1);
      set_int b 8 1;
      set_int b (16 * 8) (crc32_bytewise b ~pos:0 ~len:(16 * 8));
      write_pages dir b;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "version-1 store refused: %s" (Err.to_string e)
      | Ok store ->
        check_parity ~what:"version-1 store" doc store;
        Store.close store)

let test_torn_wal_tail () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Attr_heavy 2 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      (* garbage appended past the checkpointed header: recovery must
         diagnose and discard it, leaving the store intact *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "wal.scj")
      in
      output_string oc (String.make 23 '\xab');
      close_out oc;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "torn WAL tail should not refuse the store: %s" (Err.to_string e)
      | Ok store ->
        (match (Store.last_recovery store).Wal.discarded with
        | Some _ -> ()
        | None -> Alcotest.fail "recovery silently swallowed a torn tail");
        Alcotest.(check int) "WAL truncated back to its header" 8 (wal_size dir);
        check_parity ~what:"store after torn-tail recovery" doc store;
        Store.close store)

let test_checkpoint () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Wide 4 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.checkpoint store;
      Alcotest.(check int) "checkpoint truncates the WAL" 8 (wal_size dir);
      Alcotest.(check (result unit error_t)) "store intact" (Ok ()) (Store.verify store);
      Store.close store)

(* ------------------------------------------------------------------ *)
(* recovery fuzz                                                       *)
(* ------------------------------------------------------------------ *)

(* every fsync barrier plus a deterministic sample of other I/O events *)
let crash_points ~total ~fsyncs seed =
  let st = Random.State.make [| 0xc4a5; seed |] in
  let extra = List.init 8 (fun _ -> 1 + Random.State.int st (max total 1)) in
  List.sort_uniq compare (fsyncs @ extra)

let fuzz_one ~runs shape seed =
  let oracle = Fuzz.doc shape seed in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> wipe dir)
    (fun () ->
      (* dry run: learn the workload's event schedule *)
      let f = Faultfs.create ~seed () in
      let store = Store.create ~io:(Faultfs.io f) ~page_ints:16 ~path:dir oracle in
      check_parity ~what:"dry run" oracle store;
      Store.close store;
      let total = Faultfs.events f in
      let fsyncs = Faultfs.fsync_events f in
      List.iter
        (fun k ->
          incr runs;
          wipe dir;
          let f = Faultfs.create ~seed:((seed * 1000) + k) ~crash_at:k () in
          (match Store.create ~io:(Faultfs.io f) ~page_ints:16 ~path:dir oracle with
          | exception Faultfs.Crash -> ()
          | store ->
            (* the crash point fell after the last event of this run *)
            Store.close store);
          match Store.open_ dir with
          | Ok store ->
            (* recovery claims success: results must be bit-identical *)
            check_parity
              ~what:
                (Printf.sprintf "shape=%s seed=%d crash@%d/%d"
                   (Fuzz.shape_to_string shape) seed k total)
              oracle store;
            Store.close store
          | Error err ->
            let msg = Err.to_string err in
            if String.length msg = 0 then
              Alcotest.failf "shape=%s seed=%d crash@%d: empty diagnosis"
                (Fuzz.shape_to_string shape) seed k;
            (* a clean refusal: re-running the load must succeed *)
            let store = Store.create ~page_ints:16 ~path:dir oracle in
            check_parity
              ~what:
                (Printf.sprintf "shape=%s seed=%d crash@%d retry" (Fuzz.shape_to_string shape)
                   seed k)
              oracle store;
            Store.close store)
        (crash_points ~total ~fsyncs seed))

let test_recovery_fuzz () =
  let runs = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_one ~runs shape seed) [ 0; 1 ])
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "enough crash-schedule runs (%d)" !runs)
    true (!runs >= 100)

(* ------------------------------------------------------------------ *)
(* interleaved update/query recovery fuzz                              *)
(* ------------------------------------------------------------------ *)

(* Histories of WAL-logged mutations with queries interleaved, crashed
   at every fsync barrier (and a sample of other I/O events).  Each
   committed mutation is one WAL transaction whose commit record is an
   fsync barrier, so recovery must materialize the base document plus
   exactly a prefix of the history: the prefix acknowledged before the
   crash, or one more when the crash landed between an op's commit
   fsync and its acknowledgement.  A mid-history checkpoint exercises
   the rebase rule (a committed superblock image clears the collected
   mutations) without changing the logical document. *)

module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree

type hist_item = Op of Update.op | Checkpoint_here

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

(* a query between mutations: the store must answer from exactly the
   committed prefix, never a partially renumbered rendition *)
let query_parity what store expected =
  let d = Store.doc store in
  if not (doc_eq d expected) then
    Alcotest.failf "%s: interleaved read saw a document != committed prefix" what;
  let ctx = Nodeseq.singleton (Doc.root expected) in
  let estimation = Exec.make ~mode:Sj.Estimation () in
  let want = Nodeseq.to_list (Sj.desc ~exec:estimation expected ctx) in
  let got = Nodeseq.to_list (Paged_doc.desc (Store.paged store) ctx) in
  if want <> got then Alcotest.failf "%s: interleaved desc diverges from oracle" what

let gen_history shape seed base =
  let st = Random.State.make [| 0xeb7; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  let elements doc =
    let acc = ref [] in
    Array.iteri
      (fun pre k -> if k = Doc.Element then acc := pre :: !acc)
      (Doc.kind_array doc);
    Array.of_list (List.rev !acc)
  in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let fragment () =
    if Random.State.int st 2 = 0 then Tree.elem "ins" [ Tree.text "i" ]
    else Tree.elem ~attributes:[ ("k0", "7") ] "item" []
  in
  let rec draw doc =
    let op =
      match Random.State.int st 4 with
      | 0 | 1 ->
        Update.Insert { parent = pick (elements doc); before = None; fragment = fragment () }
      | 2 when Doc.n_nodes doc > 3 ->
        Update.Delete { pre = 1 + Random.State.int st (Doc.n_nodes doc - 1) }
      | _ -> Update.Rename { pre = pick (elements doc); name = Fuzz.pick_name st }
    in
    match Update.apply doc op with Ok a -> (op, a.Update.doc) | Error _ -> draw doc
  in
  let rec go doc acc i =
    if i = 5 then List.rev acc
    else
      let op, doc = draw doc in
      go doc ((op, doc) :: acc) (i + 1)
  in
  let ops = go base [] 0 in
  let prefixes = Array.of_list (base :: List.map snd ops) in
  let items =
    List.concat (List.mapi (fun i (op, _) -> if i = 2 then [ Checkpoint_here; Op op ] else [ Op op ]) ops)
  in
  (items, prefixes)

(* replay the history on an open store; [committed] counts acknowledged
   ops; queries run between ops in [check] mode *)
let run_history ?(check = false) ~committed ~what store items prefixes =
  List.iter
    (fun item ->
      match item with
      | Checkpoint_here -> Store.checkpoint store
      | Op op -> (
        match Store.apply store op with
        | Ok _ ->
          incr committed;
          if check then query_parity what store prefixes.(!committed)
        | Error e ->
          Alcotest.failf "%s: apply refused mid-history: %s" what (Err.to_string e)))
    items

let fuzz_mutations ~runs shape seed =
  let base = Fuzz.doc shape seed in
  let items, prefixes = gen_history shape seed base in
  let n_ops = Array.length prefixes - 1 in
  let dir = fresh_dir () in
  let fresh_base () =
    wipe dir;
    Store.close (Store.create ~page_ints:16 ~path:dir base)
  in
  Fun.protect
    ~finally:(fun () -> wipe dir)
    (fun () ->
      (* dry run: full history with interleaved query checks, and the
         I/O event schedule of the mutation phase *)
      fresh_base ();
      let f = Faultfs.create ~seed () in
      (match Store.open_ ~io:(Faultfs.io f) dir with
      | Error e -> Alcotest.failf "dry reopen failed: %s" (Err.to_string e)
      | Ok store ->
        let committed = ref 0 in
        run_history ~check:true ~committed ~what:"dry run" store items prefixes;
        Alcotest.(check int) "dry run committed the whole history" n_ops !committed;
        Store.close store);
      (* reopening must replay the logged mutations *)
      (match Store.open_ dir with
      | Error e -> Alcotest.failf "replay reopen failed: %s" (Err.to_string e)
      | Ok store ->
        if not (doc_eq (Store.doc store) prefixes.(n_ops)) then
          Alcotest.fail "replayed store differs from the full history";
        Store.close store);
      let total = Faultfs.events f in
      let fsyncs = Faultfs.fsync_events f in
      List.iter
        (fun k ->
          incr runs;
          let what =
            Printf.sprintf "mutations shape=%s seed=%d crash@%d/%d"
              (Fuzz.shape_to_string shape) seed k total
          in
          fresh_base ();
          let f = Faultfs.create ~seed:((seed * 7919) + k) ~crash_at:k () in
          let committed = ref 0 in
          (match Store.open_ ~io:(Faultfs.io f) dir with
          | exception Faultfs.Crash -> ()
          | Error e -> Alcotest.failf "%s: reopen failed without a crash: %s" what (Err.to_string e)
          | Ok store -> (
            match run_history ~committed ~what store items prefixes with
            | () -> ( match Store.close store with () -> () | exception Faultfs.Crash -> ())
            | exception Faultfs.Crash -> ()));
          match Store.open_ dir with
          | Error err ->
            if String.length (Err.to_string err) = 0 then
              Alcotest.failf "%s: empty diagnosis" what
          | Ok store ->
            let recovered = Store.doc store in
            (* the commit fsync is the durability point: the in-flight op
               may or may not have reached it when the crash hit *)
            let candidates =
              if !committed < n_ops then [ !committed; !committed + 1 ] else [ n_ops ]
            in
            if not (List.exists (fun j -> doc_eq recovered prefixes.(j)) candidates) then
              Alcotest.failf "%s: recovered document is not a committed prefix (acked %d/%d)"
                what !committed n_ops;
            (match Store.verify store with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: recovered store fails verify: %s" what (Err.to_string e));
            (* and it answers queries like the matching oracle prefix *)
            let j = List.find (fun j -> doc_eq recovered prefixes.(j)) candidates in
            query_parity what store prefixes.(j);
            Store.close store)
        (crash_points ~total ~fsyncs seed))

let test_mutation_recovery_fuzz () =
  let runs = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_mutations ~runs shape seed) [ 0; 1 ])
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "enough interleaved update/query crash runs (%d)" !runs)
    true (!runs >= 100)

let () =
  Alcotest.run "store"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick test_crc32_known_answer;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bytewise;
        ] );
      ( "store",
        [
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "real preads" `Quick test_real_preads;
          Alcotest.test_case "checksum corruption" `Quick test_checksum_corruption;
          Alcotest.test_case "meta page checksum" `Quick test_meta_checksum;
          Alcotest.test_case "corrupt meta rows" `Quick test_meta_rows_corrupt;
          Alcotest.test_case "version-1 store opens" `Quick test_v1_store_opens;
          Alcotest.test_case "torn WAL tail" `Quick test_torn_wal_tail;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint;
          Alcotest.test_case "recovery fuzz" `Slow test_recovery_fuzz;
          Alcotest.test_case "interleaved mutation recovery fuzz" `Slow
            test_mutation_recovery_fuzz;
        ] );
    ]
