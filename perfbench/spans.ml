(* In-memory span recorder for the traced run.

   Every span is one call into a layer's public function, made by the
   benchmark itself: the engine is measured from outside and carries no
   instrumentation of its own.  A span records its name, wall-clock start
   and end, the enclosing span on the same domain, the request it belongs
   to and the recording domain.  Recording is off unless [enabled] is set,
   and then costs one branch per call. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request id, 0 outside any request *)
  dom : int;  (** recording domain, -1 for a span timed elsewhere *)
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = Atomic.make 0

(* per-domain stack of open span ids, and the current request id *)
let stack = Domain.DLS.new_key (fun () -> ref [])
let request = Domain.DLS.new_key (fun () -> ref 0)

let push s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

(* [record ~parent ~req name ~start ~stop] adds a span timed off the
   recording thread's own timeline — a request's client latency, the
   service time its reply reports.  Its domain reads -1. *)
let record ~parent ~req name ~start ~stop =
  let id = Atomic.fetch_and_add next_id 1 in
  push { id; name; start; stop; parent; req; dom = -1 };
  id

(* [with_ name f] runs [f] inside a span named [name] (when enabled). *)
let with_ name f =
  if not !enabled then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> -1 in
    let id = Atomic.fetch_and_add next_id 1 in
    st := id :: !st;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      st := List.tl !st;
      push
        {
          id;
          name;
          start;
          stop;
          parent;
          req = !(Domain.DLS.get request);
          dom = (Domain.self () :> int);
        }
    in
    Fun.protect ~finally:finish f
  end

(* [in_request id f] tags every span [f] records with request [id]. *)
let in_request id f =
  let r = Domain.DLS.get request in
  let saved = !r in
  r := id;
  Fun.protect ~finally:(fun () -> r := saved) f

let all () = List.rev !recorded

(* The layer a span belongs to: the repository module its name starts
   with (the planner's tag views are catalog structures).  [bench] and
   [loadgen] spans are the benchmark's own work. *)
let layer_of name =
  let prefix = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  match prefix with
  | _ when name = "plan.tag_view" -> "catalog"
  | "xml" | "encoding" -> "load"
  | "store" -> "durability"
  | "pager" -> "page_cache"
  | "guide" | "stats" -> "catalog"
  | "plan" | "xpath" | "xquery" -> "planning"
  | "exec" | "core" -> "execution"
  | "db" -> "handle"
  | "server" -> "service"
  | _ -> "harness"

let layers =
  [ "load"; "durability"; "page_cache"; "catalog"; "planning"; "execution"; "handle"; "service"; "harness" ]

(* Self time per layer in ms: each span's duration minus its direct
   children's. *)
let self_ms spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt children s.parent) ~default:0.0 in
        Hashtbl.replace children s.parent (prev +. (s.stop -. s.start)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.stop -. s.start -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0 in
      let l = layer_of s.name in
      let prev = Option.value (Hashtbl.find_opt acc l) ~default:0.0 in
      Hashtbl.replace acc l (prev +. (own *. 1000.0)))
    spans;
  List.map (fun l -> (l, Option.value (Hashtbl.find_opt acc l) ~default:0.0)) layers

(* Wall time (ms) covered by the root spans recorded on domain [dom]. *)
let root_ms ~dom spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 && s.dom = dom then acc +. ((s.stop -. s.start) *. 1000.0) else acc)
    0.0 spans

let write_jsonl path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"layer\":%S,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"req\":%d,\"domain\":%d}\n"
            s.id s.name (layer_of s.name) s.start s.stop s.parent s.req s.dom)
        spans)
