(* The seeded inputs of the three workloads. Every document, missing pair
   and request line is generated here from the run's seed through
   [Whynot_workload.Generate]; the server only ever sees the rendered
   wire lines. The checker side keeps what it needs to verify replies
   without the server: the generated instance, the parsed document (for
   attribute names when reading concepts back) and the answers computed
   by the naive oracle evaluator. *)

open Whynot_relational
module Json = Whynot.Json
module Protocol = Whynot_server.Protocol
module Parser = Whynot_text.Parser
module Oracle = Whynot_proptest.Oracle
module Generate = Whynot_workload.Generate
module Cities = Whynot_workload.Cities

type doc = {
  text : string;               (* the document sent inline ("" for workloads) *)
  parsed : Parser.document;    (* attribute context for [concept_of_string] *)
  instance : Instance.t;       (* as generated, views materialised *)
  answers : Relation.t;        (* [Oracle.naive_eval query instance] *)
  exts : (string, Whynot_concept.Semantics.ext) Hashtbl.t;
      (* oracle extensions of concept texts seen in replies *)
  mges : (Value.t list, Whynot_concept.Semantics.ext list list) Hashtbl.t;
      (* brute-force MGE classes per missing tuple *)
}

type op =
  | Explain of { session : string; doc : doc; missing : Value.t list }
      (** [one_mge], then [check_mge] on the returned explanation *)
  | All_mges of { session : string; doc : doc; missing : Value.t list }
  | Churn of { session : string; doc : doc; create : string; missing : Value.t list }
      (** [create] (the given line), [one_mge], [close] *)

type t = {
  name : string;
  setup : string list;  (* request lines sent once, before the warm-up *)
  round : int;          (* operations in one pass over the request list *)
  op : int -> op;       (* the [n]th operation *)
}

let two_hop = Cities.two_hop_query

let line fields = Json.to_string (Json.Obj fields)
let values vs = Json.List (List.map Protocol.json_of_value vs)

let create_document ~session text =
  line [ ("op", Json.String "create"); ("session", Json.String session);
         ("document", Json.String text) ]

let create_workload ~session w =
  line [ ("op", Json.String "create"); ("session", Json.String session);
         ("workload", Json.String w) ]

let one_mge ~session missing =
  line [ ("op", Json.String "one_mge"); ("session", Json.String session);
         ("missing", values missing) ]

let check_mge ~session missing concepts =
  line [ ("op", Json.String "check_mge"); ("session", Json.String session);
         ("missing", values missing);
         ("explanation", Json.List (List.map (fun c -> Json.String c) concepts)) ]

let all_mges ~session missing =
  line [ ("op", Json.String "all_mges"); ("session", Json.String session);
         ("missing", values missing) ]

let close ~session =
  line [ ("op", Json.String "close"); ("session", Json.String session) ]

let stats = line [ ("op", Json.String "stats") ]

(* A document for a generated cities instance: the schema and data facts
   rendered by [Surface.document], plus the two-hop query. The server
   re-materialises the views from the facts. *)
let doc_of schema instance =
  let text =
    Whynot_proptest.Surface.document schema instance
    ^ Printf.sprintf "query q(x, y) := %s\n"
        (Whynot_proptest.Surface.cq_body two_hop)
  in
  match Parser.parse text with
  | Error e -> failwith ("generated document does not parse: " ^ Whynot_error.message e)
  | Ok parsed ->
    {
      text;
      parsed;
      instance;
      answers = Oracle.naive_eval two_hop instance;
      exts = Hashtbl.create 64;
      mges = Hashtbl.create 16;
    }

(* [n] distinct pairs that are not answers, drawn from [firsts] and
   [seconds] ([pool] for both by default). *)
let missing_pairs st doc ?seconds pool n =
  let firsts = Array.of_list pool in
  let seconds = Array.of_list (Option.value seconds ~default:pool) in
  let rec draw acc k =
    if k = n then List.rev acc
    else
      let a = firsts.(Random.State.int st (Array.length firsts))
      and b = seconds.(Random.State.int st (Array.length seconds)) in
      let pair = [ a; b ] in
      if Relation.mem (Tuple.of_list pair) doc.answers || List.mem pair acc
      then draw acc k
      else draw (pair :: acc) (k + 1)
  in
  draw [] 0

let cities_of instance =
  match Instance.relation instance "Cities" with
  | None -> []
  | Some r -> List.map (fun t -> List.hd (Tuple.to_list t)) (Relation.to_list r)

(* Missing pairs for the Algorithm 2 workloads: the second city of every
   pair is one that no two-hop route reaches (the second component of no
   answer). At 320 cities such a question costs 20-35 ms on the
   reference host, while one whose two cities both occur in answers
   costs 90-500 ms: a list mixing the two kinds puts a run's median in
   one mode or the other depending on the seed. *)
let unreached_pairs st doc n =
  let cities = cities_of doc.instance in
  let reached = Relation.column 2 doc.answers in
  let unreached = List.filter (fun c -> not (Value_set.mem c reached)) cities in
  missing_pairs st doc ~seconds:unreached cities n

(* explain-large: one 320-city session, the warm Algorithm 2 path. *)
let explain_large ~seed =
  let st = Random.State.make [| seed; 1 |] in
  let schema, instance =
    Generate.cities_like ~seed:(Random.State.bits st) ~n_cities:320
      ~n_countries:64 ~n_connections:640 ()
  in
  let doc = doc_of schema instance in
  let pairs = Array.of_list (unreached_pairs st doc 32) in
  let session = "large" in
  {
    name = "explain-large";
    setup = [ create_document ~session doc.text ];
    round = Array.length pairs;
    op = (fun n -> Explain { session; doc; missing = pairs.(n mod Array.length pairs) });
  }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Missing pairs in which every value of [pool] is the first component
   of exactly one pair and the second component of exactly one pair (a
   seeded permutation with no answer among its pairs), in seeded order.
   On the Figure 2 instance an [all_mges] request costs 70-510 ms
   in-process depending on its pair, mostly on its first component; a
   freely drawn list left it to the seed which values a round asked
   about, and how often. Balanced pairs give every seed the same first
   and second components. *)
let balanced_pairs st doc pool =
  let values = Array.of_list pool in
  let n = Array.length values in
  let second = Array.init n Fun.id in
  let answer i = Relation.mem (Tuple.of_list [ values.(i); values.(second.(i)) ]) doc.answers in
  let rec draw () =
    shuffle st second;
    if List.exists answer (List.init n Fun.id) then draw ()
  in
  draw ();
  let order = Array.init n Fun.id in
  shuffle st order;
  Array.map (fun i -> [ values.(i); values.(second.(i)) ]) order

(* exhaustive: the paper's Figure 2 instance, Algorithm 1 over O_I[K]. *)
let exhaustive ~seed =
  let st = Random.State.make [| seed; 2 |] in
  let doc =
    let d = doc_of Cities.schema Cities.instance in
    { d with text = "" }
  in
  let adom = Value_set.elements (Instance.adom Cities.instance) in
  let pairs = balanced_pairs st doc adom in
  let session = "paper" in
  {
    name = "exhaustive";
    setup = [ create_workload ~session "cities" ];
    round = Array.length pairs;
    op = (fun n -> All_mges { session; doc; missing = pairs.(n mod Array.length pairs) });
  }

(* session-churn: 16 small documents, each cycle a whole session
   lifetime under a session name of its own. A round is every document
   with every one of its pairs, so each round does the same work. *)
let churn_docs = 16
let churn_pairs = 4

let session_churn ~seed =
  let st = Random.State.make [| seed; 3 |] in
  let docs =
    Array.init churn_docs (fun _ ->
        let schema, instance =
          Generate.cities_like ~seed:(Random.State.bits st) ~n_cities:80
            ~n_countries:16 ~n_connections:160 ()
        in
        let doc = doc_of schema instance in
        (doc, Array.of_list (unreached_pairs st doc churn_pairs)))
  in
  {
    name = "session-churn";
    setup = [];
    round = churn_docs * churn_pairs;
    op =
      (fun n ->
         let doc, pairs = docs.(n mod churn_docs) in
         let session = Printf.sprintf "churn-%d" n in
         Churn
           {
             session;
             doc;
             create = create_document ~session doc.text;
             missing = pairs.((n / churn_docs) mod churn_pairs);
           });
  }

let names = [ "explain-large"; "exhaustive"; "session-churn" ]

let make name ~seed =
  match name with
  | "explain-large" -> Some (explain_large ~seed)
  | "exhaustive" -> Some (exhaustive ~seed)
  | "session-churn" -> Some (session_churn ~seed)
  | _ -> None
