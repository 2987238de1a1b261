(* The traced mode: the workload's request lines replayed inside this
   process against a registry and handler dependencies of its own, with a
   span around every call into a layer's public functions.

   [Handlers.handle] is one opaque call, so the traced replay runs a
   mirror of it: the same sequence of public calls each wire operation
   makes (registry, parser, engine, protocol), each under its own span.
   [Engine.question] is recomposed from what [Whynot.make] does
   ([Cq.eval], [Schema.satisfies], the membership checks) so that those
   two layers get spans of their own. Rounds of the mirror alternate
   with rounds of the real [Handlers.handle], timed as a whole; the gap
   between the two is the tracing overhead, mirror included. *)

open Whynot_relational
module Protocol = Whynot_server.Protocol
module Registry = Whynot_server.Registry
module Handlers = Whynot_server.Handlers
module Engine = Whynot.Engine
module W = Whynot_core.Whynot
module Parser = Whynot_text.Parser
module Json = Whynot.Json

(* --- spans --- *)

type span = { id : int; name : string; parent : int; op : int; t0 : int; t1 : int }

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let t0 = Ops.now_ns () in
  let finish () =
    let t1 = Ops.now_ns () in
    stack := List.tl !stack;
    spans := { id; name; parent; op = !current_op; t0; t1 } :: !spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

(* --- the mirror of [Handlers.handle] --- *)

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

let of_error = function
  | Ok v -> Ok v
  | Error e -> Error (Whynot_error.code e, Whynot_error.message e)

let err code m = Error (code, m)

let deadline_ms = Whynot_server.Server.default_config.default_deadline_ms

let deps () =
  {
    Handlers.registry = Registry.create ~max_sessions:64;
    domains_default = 1;
    domains_max = 16;
    default_deadline_ms = deadline_ms;
    max_deadline_ms = Whynot_server.Server.default_config.max_deadline_ms;
    debug_ops = false;
    started_at_s = Unix.gettimeofday ();
  }

let render schema e =
  Json.List (List.map (fun c -> Json.String (Whynot_proptest.Surface.concept schema c)) e)

let create (deps : Handlers.deps) req =
  match (req.Protocol.session, Protocol.str_param req "document") with
  | Some name, Some text ->
    let* doc = of_error (span "parser.parse" (fun () -> Parser.parse text)) in
    let* schema = of_error (span "parser.schema_of" (fun () -> Parser.schema_of doc)) in
    let instance = span "parser.instance_of" (fun () -> Parser.instance_of doc) in
    let* engine =
      of_error (span "engine.create" (fun () -> Engine.create ~schema ~domains:1 ~instance ()))
    in
    let now = Unix.gettimeofday () in
    let session =
      {
        Registry.name;
        doc;
        schema;
        engine;
        query = Option.map snd doc.Parser.query;
        default_missing = doc.Parser.whynot_tuple;
        source = Registry.Inline;
        created_at_s = now;
        lock = Mutex.create ();
        last_used_s = now;
      }
    in
    (match span "registry" (fun () -> Registry.add deps.registry session) with
     | Ok () ->
       Ok
         (Json.Obj
            [
              ("session", Json.String name);
              ("domains", Json.Int 1);
              ("relations", Json.Int (List.length (Schema.relations schema)));
              ("has_query", Json.Bool (session.query <> None));
            ])
     | Error _ ->
       ignore (Engine.close engine);
       err "session-exists" name)
  | _ -> Handlers.handle deps req

let with_session (deps : Handlers.deps) req k =
  match req.Protocol.session with
  | None -> err "missing-input" "no session"
  | Some name -> (
    match span "registry" (fun () -> Registry.find deps.registry name) with
    | None -> err "unknown-session" name
    | Some s ->
      Mutex.protect s.Registry.lock (fun () ->
          let e = s.Registry.engine in
          Engine.set_deadline e (Some (Unix.gettimeofday () +. (float_of_int deadline_ms /. 1000.)));
          Fun.protect ~finally:(fun () -> Engine.set_deadline e None) (fun () -> k s)))

(* The question [Engine.question] builds, one span per layer. *)
let question (s : Registry.session) req =
  let* missing =
    match Option.map Protocol.values_of_json (Protocol.list_param req "missing") with
    | Some (Ok vs) -> Ok vs
    | Some (Error m) -> err "missing-input" m
    | None -> err "missing-input" "no missing tuple"
  in
  let* query = match s.Registry.query with Some q -> Ok q | None -> err "missing-input" "no query" in
  let instance = Engine.instance s.Registry.engine in
  span "engine.question" (fun () ->
      let answers = span "cq.answers" (fun () -> Cq.eval query instance) in
      let* () =
        match span "schema.satisfies" (fun () -> Schema.satisfies s.Registry.schema instance) with
        | Ok () -> Ok ()
        | Error m -> err "schema-violation" m
      in
      of_error (W.make ~answers ~instance ~query ~missing ()))

(* The last question built, for the constant-pool probe. *)
let last_question : W.t option ref = ref None

let mirror deps req =
  match req.Protocol.op with
  | "create" -> create deps req
  | "one_mge" ->
    with_session deps req (fun s ->
        let* wn = question s req in
        last_question := Some wn;
        let* mge = of_error (span "engine.one_mge" (fun () -> Engine.one_mge s.Registry.engine wn)) in
        Ok
          (Json.Obj
             [
               ("missing", Json.List (List.map Protocol.json_of_value (W.missing_values wn)));
               ("mge", render s.Registry.schema mge);
             ]))
  | "check_mge" ->
    with_session deps req (fun s ->
        let* wn = question s req in
        let texts =
          match Protocol.list_param req "explanation" with
          | Some js -> List.filter_map Json.to_string_opt js
          | None -> []
        in
        let* explanation =
          List.fold_right
            (fun text acc ->
               let* acc = acc in
               let* c =
                 of_error
                   (span "parser.concept" (fun () -> Parser.concept_of_string s.Registry.doc text))
               in
               Ok (c :: acc))
            texts (Ok [])
        in
        let* ok =
          of_error
            (span "engine.check_mge" (fun () -> Engine.check_mge s.Registry.engine wn explanation))
        in
        Ok (Json.Obj [ ("is_mge", Json.Bool ok) ]))
  | "all_mges" ->
    with_session deps req (fun s ->
        let* wn = question s req in
        let values = span "whynot.constant_pool" (fun () -> W.constant_pool wn) in
        let* mges =
          of_error (span "engine.all_mges" (fun () -> Engine.all_mges ~values s.Registry.engine wn))
        in
        Ok
          (Json.Obj
             [
               ("count", Json.Int (List.length mges));
               ("mges", Json.List (List.map (render s.Registry.schema) mges));
             ]))
  | "close" -> (
    match req.Protocol.session with
    | None -> err "missing-input" "no session"
    | Some name -> (
      match span "registry" (fun () -> Registry.remove deps.registry name) with
      | None -> err "unknown-session" name
      | Some s ->
        span "engine.close" (fun () -> Handlers.close_session ~swept:false s);
        Ok (Json.Obj [ ("closed", Json.Bool true) ])))
  | _ -> Handlers.handle deps req

let encode req = function
  | Ok j -> Protocol.ok_line req j
  | Error (code, message) -> Protocol.error_line ~request:req ~code ~message ()

let decode_error m = Protocol.error_line ~code:"parse" ~message:m ()

(* One request through decode, the mirror and encode, each in a span. *)
let traced deps line =
  match span "protocol.decode" (fun () -> Protocol.parse_request line) with
  | Error m -> decode_error m
  | Ok req ->
    let r = span "handlers.handle" (fun () -> mirror deps req) in
    span "protocol.encode" (fun () -> encode req r)

(* One request through the real handler; its time adds to [handle_ns]. *)
let plain deps handle_ns line =
  match Protocol.parse_request line with
  | Error m -> decode_error m
  | Ok req ->
    let t0 = Ops.now_ns () in
    let r = Handlers.handle deps req in
    handle_ns := !handle_ns + (Ops.now_ns () - t0);
    encode req r

(* --- replay --- *)

type result = {
  spans : span list;
  traced_ops : int;
  plain_handle_ns : float list;  (* real handler time per operation *)
  outcomes : Ops.outcome list;
}

(* Replay whole rounds of the request list: one untraced warm-up round,
   then pairs of a plain and a traced round until [seconds] have
   passed. *)
let replay (w : Inputs.t) ~seconds =
  (* Start from empty process-wide registries, as a fresh server does:
     the checker self-test has used them. *)
  Whynot_concept.Subsume_memo.clear ();
  Eval_index.clear ();
  let deps = deps () in
  let outcomes = ref [] and plain_ns = ref [] in
  List.iter (fun l -> ignore (plain deps (ref 0) l)) w.setup;
  let round k f =
    for i = 0 to w.round - 1 do
      f (w.op ((k * w.round) + i))
    done
  in
  round 0 (fun op -> outcomes := Ops.run (plain deps (ref 0)) op :: !outcomes);
  let stop = Ops.now_ns () + int_of_float (seconds *. 1e9) in
  let k = ref 1 and traced_ops = ref 0 in
  while !k < 3 || Ops.now_ns () < stop do
    round !k (fun op ->
        let ns = ref 0 in
        outcomes := Ops.run (plain deps ns) op :: !outcomes;
        plain_ns := float_of_int !ns :: !plain_ns);
    round (!k + 1) (fun op ->
        incr current_op;
        incr traced_ops;
        let o = span "op" (fun () -> Ops.run (traced deps) op) in
        outcomes := o :: !outcomes;
        (* Algorithm 2's handlers rescan the active domain inside the
           search; this probe, outside the handler, measures that scan. *)
        match (op, !last_question) with
        | Inputs.Explain _, Some wn ->
          ignore (span "whynot.constant_pool" (fun () -> W.constant_pool wn))
        | _ -> ());
    k := !k + 2
  done;
  List.iter (fun s -> ignore (Handlers.close_session ~swept:false s)) (Registry.drain deps.registry);
  { spans = !spans; traced_ops = !traced_ops; plain_handle_ns = !plain_ns; outcomes = !outcomes }

(* --- per-layer figures --- *)

(* The [q]-quantile by linear interpolation; 0 for no samples. *)
let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 < n then a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i))) else a.(i)

let median = quantile 0.5

(* Self time per span: its duration minus its children's (children of
   one span never overlap: the replay is single-threaded). [per_op r
   name] lists, per traced operation, the summed self times of the spans
   called [name]; [name ^ "+"] gives their summed durations instead. *)
let per_op (r : result) =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child_ns s.parent
           ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    r.spans;
  let table = Hashtbl.create 4096 in
  let add op key ns =
    Hashtbl.replace table (op, key) (ns + Option.value ~default:0 (Hashtbl.find_opt table (op, key)))
  in
  List.iter
    (fun s ->
       let dur = s.t1 - s.t0 in
       add s.op s.name (dur - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id));
       add s.op (s.name ^ "+") dur)
    r.spans;
  fun name ->
    List.init r.traced_ops (fun i ->
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt table (i + 1, name))))



let write_json path ~workload ~seed (r : result) extra =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\":%S,\"seed\":%d,\"traced_ops\":%d,%s,\"spans\":[" workload seed
    r.traced_ops extra;
  List.iteri
    (fun i s ->
       Printf.fprintf oc "%s\n{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}"
         (if i = 0 then "" else ",") s.id s.name s.parent s.op s.t0 s.t1)
    (List.rev r.spans);
  output_string oc "]}\n";
  close_out oc
