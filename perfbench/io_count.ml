(* A counting wrapper around the store's real I/O layer.

   Passed to [Store.create] and [Store.open_], it counts every pread,
   pwrite and fsync — calls, bytes and wall time — split by file: the
   page file and the write-ahead log.  Counters are atomic because the
   query service's worker domains fault pages concurrently. *)

module Io = Scj_store.Io

type cell = { calls : int Atomic.t; bytes : int Atomic.t; ns : int Atomic.t }

type file = Pages | Wal

let cell () = { calls = Atomic.make 0; bytes = Atomic.make 0; ns = Atomic.make 0 }

(* indexed by [op * 2 + file] *)
let cells = Array.init 6 (fun _ -> cell ())

type op = Pread | Pwrite | Fsync

let index op file =
  (match op with Pread -> 0 | Pwrite -> 2 | Fsync -> 4) + match file with Pages -> 0 | Wal -> 1

let bump op file ~bytes t0 =
  let c = cells.(index op file) in
  Atomic.incr c.calls;
  ignore (Atomic.fetch_and_add c.bytes bytes);
  ignore (Atomic.fetch_and_add c.ns (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)))

let wrap kind (f : Io.file) : Io.file =
  {
    f with
    pread =
      (fun ~pos buf off len ->
        let t0 = Unix.gettimeofday () in
        let n = f.pread ~pos buf off len in
        bump Pread kind ~bytes:n t0;
        n);
    pwrite =
      (fun ~pos buf off len ->
        let t0 = Unix.gettimeofday () in
        f.pwrite ~pos buf off len;
        bump Pwrite kind ~bytes:len t0);
    fsync =
      (fun () ->
        let t0 = Unix.gettimeofday () in
        f.fsync ();
        bump Fsync kind ~bytes:0 t0);
  }

let io : Io.t =
  {
    Io.real with
    openf =
      (fun ~path ~rw ~create ->
        let kind = if Filename.basename path = "wal.scj" then Wal else Pages in
        wrap kind (Io.real.openf ~path ~rw ~create));
  }

(* A snapshot of all counters: (calls, bytes, ms) per (op, file). *)
type snapshot = (int * int * float) array

let snapshot () : snapshot =
  Array.map
    (fun c -> (Atomic.get c.calls, Atomic.get c.bytes, float_of_int (Atomic.get c.ns) /. 1e6))
    cells

let get (s : snapshot) op file = s.(index op file)

(* [delta ~before ~after op file] — counters accrued between snapshots. *)
let delta ~(before : snapshot) ~(after : snapshot) op file =
  let c0, b0, t0 = get before op file and c1, b1, t1 = get after op file in
  (c1 - c0, b1 - b0, t1 -. t0)
