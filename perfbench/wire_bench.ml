(* Wire-level benchmark of the why-not server.

   wire_bench --workload NAME --seed N --seconds S --trace 0|1

   Starts the shipped whynot_serverd with its default configuration,
   drives it over loopback TCP as a closed loop from one connection (the
   next request goes out only after the reply arrived), checks every reply
   apart from the server, and prints one JSON object as the last line of
   standard output. With --trace 1 it also replays the same requests in
   this process with per-layer spans and prints the per-layer metrics
   instead. See README.md. *)

module Json = Whynot.Json

let fail fmt = Printf.ksprintf failwith fmt
let now_ns = Ops.now_ns

(* --- the closed loop --- *)

type drive = { outcomes : Ops.outcome list; latencies_ns : int list }

(* Operations [first], [first + 1], ... one after the other on one
   connection, stopping at the first round boundary at which [until ()]
   holds, so a run always attempts whole rounds. *)
let drive (w : Inputs.t) ~port conn ~first ~until =
  let n = ref first and outs = ref [] and lats = ref [] and go = ref true in
  while !go do
    let op = w.op !n in
    conn := Wire.refresh port !conn;
    let t0 = now_ns () in
    let o = Ops.run (Wire.request !conn) op in
    lats := (now_ns () - t0) :: !lats;
    outs := o :: !outs;
    incr n;
    if (!n - first) mod w.round = 0 && until () then go := false
  done;
  { outcomes = !outs; latencies_ns = !lats }

(* From spawning the server to the first timed operation: boot, the
   setup requests, and one warm-up round. *)
let set_up (w : Inputs.t) ~exe ~log_path =
  let t0 = now_ns () in
  let server = Wire.spawn ~exe ~log_path in
  let conn = ref (Wire.connect server.port) in
  List.iter
    (fun line ->
       match Wire.result (Wire.request !conn line) with
       | Ok _ -> ()
       | Error m -> fail "setup request failed: %s" m)
    w.setup;
  let warm = drive w ~port:server.port conn ~first:0 ~until:(fun () -> true) in
  (server, conn, float_of_int (now_ns () - t0) /. 1e9, warm)

let tear_down server conn =
  Wire.disconnect !conn;
  Wire.stop server

type wire = {
  setup_s : float list;
  timed : drive;
  timed_s : float;
  counters : (string * int) list;  (* server counter deltas over the timed phase *)
  rss_mb : float;
  gc : Wire.gc;
  checked : Ops.outcome list;      (* every operation of every set-up and the timed phase *)
}

(* Set-ups per run; [setup_s] is their median. *)
let setups = 3

let wire_phase (w : Inputs.t) ~exe ~out_dir ~seconds =
  let log_path = Filename.concat out_dir (w.name ^ ".server.log") in
  (* Earlier set-ups are timed and discarded; the last one serves the
     timed phase. *)
  let earlier =
    List.init (setups - 1) (fun _ ->
        let server, conn, s, warm = set_up w ~exe ~log_path in
        ignore (tear_down server conn);
        (s, warm.outcomes))
  in
  let server, conn, s, warm = set_up w ~exe ~log_path in
  let stats () = Wire.counters_of_stats (Wire.request !conn Inputs.stats) in
  let before = stats () in
  let t0 = now_ns () in
  let stop = t0 + int_of_float (seconds *. 1e9) in
  let timed = drive w ~port:server.port conn ~first:w.round ~until:(fun () -> now_ns () >= stop) in
  let timed_s = float_of_int (now_ns () - t0) /. 1e9 in
  let after = stats () in
  let rss_mb = Wire.peak_rss_mb server in
  let gc = tear_down server conn in
  let counters =
    List.map (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before))) after
  in
  {
    setup_s = List.map fst earlier @ [ s ];
    timed;
    timed_s;
    counters;
    rss_mb;
    gc;
    checked = List.concat_map snd earlier @ warm.outcomes @ timed.outcomes;
  }

(* --- output --- *)

let metric (name, value, unit) =
  (name, Printf.sprintf "{\"value\": %.17g, \"unit\": %S}" value unit)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map (fun m -> let n, v = metric m in Printf.sprintf "%S: %s" n v) metrics))

(* Timed latencies in ms, one list per round, oldest first; the timed
   phase is whole rounds. *)
let rounds_ms (w : Inputs.t) (r : wire) =
  let lat = Array.of_list (List.rev_map (fun ns -> float_of_int ns /. 1e6) r.timed.latencies_ns) in
  List.init (Array.length lat / w.round) (fun i -> Array.to_list (Array.sub lat (i * w.round) w.round))

(* The median over the rounds of each round's 90th percentile. The host
   runs faster or slower for seconds at a time; a slow spell over a tenth
   of a run lifts the pooled p90 into that spell, while it takes half of
   the rounds to move this one. Every round holds the same operations, so
   on a steady host the two agree. *)
let p90_ms w r = Trace.median (List.map (Trace.quantile 0.9) (rounds_ms w r))

let end_to_end w (r : wire) =
  let ops = float_of_int (List.length r.timed.outcomes) in
  let lat_ms = List.map (fun ns -> float_of_int ns /. 1e6) r.timed.latencies_ns in
  let words = r.gc.minor_words +. r.gc.major_words -. r.gc.promoted_words in
  [
    ("setup_s", Trace.median r.setup_s, "s");
    ("throughput_ops", ops /. r.timed_s, "1/s");
    ("latency_p50_ms", Trace.median lat_ms, "ms");
    ("latency_p90_ms", p90_ms w r, "ms");
    ("server_peak_rss_mb", r.rss_mb, "MB");
    ("server_alloc_mb_per_op", words *. 8. /. 1048576. /. ops, "MB");
  ]

let per_layer (r : wire) (t : Trace.result) =
  let ops = float_of_int (List.length r.timed.outcomes) in
  let count k = float_of_int (Option.value ~default:0 (List.assoc_opt k r.counters)) in
  let per_op k = count k /. ops in
  let ratio num den = if den = 0. then 0. else num /. den in
  (* Per traced operation, the summed self times of the named spans
     ("name+" sums their whole durations). *)
  let sum names =
    match List.map (Trace.per_op t) names with
    | [] -> []
    | first :: rest -> List.fold_left (List.map2 ( +. )) first rest
  in
  let us names = Trace.median (sum names) /. 1e3 in
  let handle = sum [ "handlers.handle+" ] in
  let covered =
    Trace.median (List.map2 (fun h self -> ratio (h -. self) h) handle (sum [ "handlers.handle" ]))
  in
  let total = List.fold_left ( +. ) 0. in
  let lat_us = Trace.median (List.map (fun ns -> float_of_int ns /. 1e3) r.timed.latencies_ns) in
  [
    ( "server.transport_us",
      lat_us -. us [ "protocol.decode+"; "handlers.handle+"; "protocol.encode+" ],
      "us" );
    ("protocol.decode_us", us [ "protocol.decode" ], "us");
    ("protocol.encode_us", us [ "protocol.encode" ], "us");
    ("registry.us", us [ "registry" ], "us");
    ("handlers.handle_us", us [ "handlers.handle+" ], "us");
    ("handlers.self_us", us [ "handlers.handle" ], "us");
    ("handlers.children_share", covered, "ratio");
    (* as many traced as plain operations, over the same requests *)
    ("trace.overhead_ratio", ratio (total handle) (total t.plain_handle_ns) -. 1., "ratio");
    ("parser.document_us", us [ "parser.parse"; "parser.schema_of"; "parser.instance_of" ], "us");
    ("parser.concept_us", us [ "parser.concept" ], "us");
    ("engine.create_us", us [ "engine.create" ], "us");
    ("engine.close_us", us [ "engine.close" ], "us");
    ("engine.question_us", us [ "engine.question" ], "us");
    ("schema.satisfies_us", us [ "schema.satisfies" ], "us");
    ("cq.answers_us", us [ "cq.answers" ], "us");
    ("whynot.constant_pool_us", us [ "whynot.constant_pool" ], "us");
    ("engine.one_mge_us", us [ "engine.one_mge" ], "us");
    ("engine.check_mge_us", us [ "engine.check_mge" ], "us");
    ("engine.all_mges_us", us [ "engine.all_mges" ], "us");
    ("memo.ext.calls_per_op", per_op "memo.ext.calls", "count");
    ("memo.ext.hit_ratio", ratio (count "memo.ext.hits") (count "memo.ext.calls"), "ratio");
    ("memo.lub.hit_ratio", ratio (count "memo.lub.hits") (count "memo.lub.calls"), "ratio");
    ("subsume.inst.hit_ratio", ratio (count "subsume.inst.hits") (count "subsume.inst.calls"), "ratio");
    ("memo.flushes_per_op", per_op "memo.flushes", "count");
    ("memo.handles.instance_per_op", per_op "memo.handles.instance", "count");
    ("eval.index.handles_per_op", per_op "eval.index.handles", "count");
    ("eval.index.builds_per_op", per_op "eval.index.builds", "count");
    ("eval.index.flushes_per_op", per_op "eval.index.flushes", "count");
    ("eval.plans.built_per_op", per_op "eval.plans.built", "count");
    ( "eval.plan_hit_ratio",
      ratio (count "eval.plans.cached") (count "eval.plans.built" +. count "eval.plans.cached"),
      "ratio" );
    ("eval.tuples.scanned_per_op", per_op "eval.tuples.scanned", "count");
    ("mge.incremental.absorb_attempts_per_op", per_op "mge.incremental.absorb_attempts", "count");
    ("parallel.pool.runs_per_op", per_op "parallel.pool.runs", "count");
    (* The engine runs Algorithm 1 through Par_exhaustive at every domain
       count; Exhaustive's own mge.exhaustive.* counters stay at 0. *)
    ("parallel.exhaustive.plan_items_per_op", per_op "parallel.exhaustive.plan_items", "count");
    ("parallel.exhaustive.tuples_per_op", per_op "parallel.exhaustive.tuples", "count");
    ("gc.minor_collections_per_op", r.gc.minor_collections /. ops, "count");
    ("gc.major_collections_per_op", r.gc.major_collections /. ops, "count");
  ]

(* The handler's child spans must cover at least this share of its
   time (README, Traced mode). *)
let reconcile_tolerance = 0.95

(* --- main --- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let exe = ref "_build/default/bin/whynot_serverd.exe" and out_dir = ref "perfbench/_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Inputs.names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--server", Arg.Set_string exe, "PATH the whynot_serverd binary");
      ("--out", Arg.Set_string out_dir, "DIR server logs and traces (default perfbench/_out)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wire_bench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Inputs.make !workload ~seed:!seed with
    | Some w -> w
    | None -> fail "unknown workload %S (expected %s)" !workload (String.concat ", " Inputs.names)
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then fail "--seconds must be > 0, --trace 0 or 1";
  if not (Sys.file_exists !exe) then fail "no server binary at %s" !exe;
  (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
  let self_test = Check.self_test () in
  (match self_test with
   | Ok n -> Printf.eprintf "checker self-test passed (%d MGE class on the paper's question)\n%!" n
   | Error m -> Printf.eprintf "%s\n%!" m);
  let r = wire_phase w ~exe:!exe ~out_dir:!out_dir ~seconds:!seconds in
  let replay =
    if !trace = 1 then Some (Trace.replay w ~seconds:(!seconds /. 2.)) else None
  in
  let outcomes =
    r.checked @ (match replay with Some t -> t.Trace.outcomes | None -> [])
  in
  let failures = List.filter_map (fun o -> Result.fold ~ok:(fun () -> None) ~error:Option.some (Ops.check o)) outcomes in
  let wrong = List.exists (function `Wrong _ -> true | `Failed _ -> false) failures in
  List.iteri
    (fun i (`Wrong m | `Failed m) -> if i < 5 then Printf.eprintf "failed: %s\n%!" m)
    failures;
  let samples = List.length r.timed.latencies_ns in
  let p90 = p90_ms w r in
  let above = List.length (List.filter (fun ns -> float_of_int ns /. 1e6 > p90) r.timed.latencies_ns) in
  let longest_line =
    List.fold_left max 0
      (List.map String.length w.setup
       @ List.init w.round (fun n ->
           match w.op n with Inputs.Churn { create; _ } -> String.length create | _ -> 0))
  in
  Printf.printf "workload=%s seed=%d samples=%d rounds=%d above_p90=%d setups=%s longest_line_bytes=%d\n"
    w.name !seed samples (List.length (rounds_ms w r)) above
    (String.concat "," (List.map (Printf.sprintf "%.3f") r.setup_s))
    longest_line;
  if above < 10 then Printf.eprintf "warning: only %d samples above p90\n%!" above;
  let metrics =
    match replay with
    | None -> end_to_end w r
    | Some t ->
      let layers = per_layer r t in
      let counters =
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) r.counters)
      in
      let path = Filename.concat !out_dir (Printf.sprintf "trace-%s-%d.json" w.name !seed) in
      Trace.write_json path ~workload:w.name ~seed:!seed t
        (Printf.sprintf "\"timed_ops\":%d,\"counter_deltas\":{%s},\"layers\":{%s}"
           (List.length r.timed.outcomes) counters
           (String.concat ","
              (List.map (fun m -> let n, v = metric m in Printf.sprintf "%S:%s" n v) layers)));
      Printf.eprintf "trace written to %s\n%!" path;
      let share = List.find_map (fun (n, v, _) -> if n = "handlers.children_share" then Some v else None) layers in
      let share = Option.value share ~default:0. in
      Printf.printf "reconciled=%s (child spans cover %.4f of handlers.handle_us; tolerance %.2f)\n"
        (if share >= reconcile_tolerance then "yes" else "no") share reconcile_tolerance;
      layers
  in
  print_result
    ~correct:(Result.is_ok self_test && not wrong)
    ~attempted:(List.length outcomes) ~failed:(List.length failures) metrics
