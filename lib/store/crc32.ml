(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8.
   zlib-compatible: [update 0 b ~pos ~len] over a whole buffer equals the
   standard crc32, and updates compose incrementally.

   [table] holds eight 256-entry tables back to back: slice 0 is the
   classic bytewise table, and slice k advances slice k-1's entry by one
   more zero byte.  The main loop folds 8 input bytes per step, read as
   two little-endian 32-bit words, with one lookup per byte in its own
   slice; the remaining 0-7 bytes go through slice 0 one at a time. *)

let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external swap32 : int32 -> int32 = "%bswap_int32"

(* unchecked little-endian 32-bit load as a non-negative int; callers
   bound [i + 4 <= Bytes.length b] *)
let word b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFFFFFF

let update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Crc32.update";
  let t = table in
  (* masked: a 32-bit [c] keeps every table index below 256 *)
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !c lxor word b !i and hi = word b (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (lo land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (hi land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let digest b ~pos ~len = update 0 b ~pos ~len
