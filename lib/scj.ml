(** Umbrella module: the stable public surface of the staircase-join
    engine under one name.

    Applications depend on the [scj] library and write [Scj.Doc],
    [Scj.Eval], [Scj.Exec] … instead of tracking the internal component
    libraries ([scj_encoding], [scj_xpath], …), whose layout may change
    between releases.  The component libraries remain installable for
    tools that want a narrower dependency (the CLI binary links them
    directly — its executable module is also called [Scj], so it cannot
    link the umbrella).

    The aliases are grouped as in DESIGN.md: encoding, execution
    context & observability, join algorithms, query languages,
    fragmentation/parallelism, storage. *)

(** {1 Errors} *)

module Error = Scj_error.Error

(** {1 Document encoding} *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Codec = Scj_encoding.Codec
module Update = Scj_encoding.Update

(** {1 Execution context & observability} *)

module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace
module Stats = Scj_stats.Stats

(** {1 Axis-step algorithms} *)

module Staircase = Scj_core.Staircase
module Naive = Scj_engine.Naive
module Mpmgjn = Scj_engine.Mpmgjn
module Structjoin = Scj_engine.Structjoin
module Sql_plan = Scj_engine.Sql_plan
module Sqlgen = Scj_engine.Sqlgen

(** {1 Planning} *)

module Plan = Scj_plan.Plan
module Planner = Scj_plan.Planner
module Flwor = Scj_plan.Flwor
module Doc_stats = Scj_stats.Doc_stats
module Guide = Scj_guide.Guide

(** {1 Query languages} *)

module Ast = Scj_xpath.Ast
module Parse = Scj_xpath.Parse
module Eval = Scj_xpath.Eval
module Xq_ast = Scj_xquery.Xq_ast
module Xq_parse = Scj_xquery.Xq_parse
module Xq_eval = Scj_xquery.Xq_eval
module Xq_compile = Scj_xquery.Xq_compile

(** {1 Fragmentation & parallelism} *)

module Fragmented = Scj_frag.Fragmented
module Morsel = Scj_frag.Morsel

(** {1 XML input/output & generators} *)

module Tree = Scj_xml.Tree
module Xml_parser = Scj_xml.Parser
module Xml_printer = Scj_xml.Printer
module Xmark = Scj_xmlgen.Xmark

(** {1 Storage} *)

module Btree = Scj_btree.Btree
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Store = Scj_store.Store
module Store_io = Scj_store.Io
module Wal = Scj_store.Wal

(** {1 Unified handle & query service} *)

module Db = Scj_db.Db
module Catalog = Scj_db.Catalog
module Server = Scj_server.Server
module Shard = Scj_server.Shard
module Histogram = Scj_stats.Histogram
