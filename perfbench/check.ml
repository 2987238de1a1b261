(* Reply checks, computed apart from the server. An explanation is checked
   against its definition (Def. 3.3): each concept's extension, computed
   by the oracle's full-scan [Oracle.scan_extension] over the generated
   instance, holds its missing constant, and no answer of the naive
   oracle evaluation lies in the product of the extensions. A set of
   MGEs is checked against a brute-force search over the selection-free
   candidates. Nothing is compared with stored server output. *)

open Whynot_relational
module Semantics = Whynot_concept.Semantics
module Oracle = Whynot_proptest.Oracle
module Parser = Whynot_text.Parser

type exts = Semantics.ext list

(* Extensions are memoised per document: replies repeat the same
   concepts round after round. *)
let extension (doc : Inputs.doc) text =
  match Hashtbl.find_opt doc.exts text with
  | Some e -> Ok e
  | None -> (
    match Parser.concept_of_string doc.parsed text with
    | Error e -> Error (Printf.sprintf "concept %S does not parse: %s" text (Whynot_error.message e))
    | Ok c ->
      let e = Oracle.scan_extension c doc.instance in
      Hashtbl.add doc.exts text e;
      Ok e)

let extensions doc texts =
  List.fold_right
    (fun text acc ->
       match (acc, extension doc text) with
       | Ok es, Ok e -> Ok (e :: es)
       | (Error _ as err), _ | _, (Error _ as err) -> err)
    texts (Ok [])

let is_explanation (doc : Inputs.doc) missing (exts : exts) =
  List.length exts = List.length missing
  && List.for_all2 Semantics.ext_mem missing exts
  && not
       (Relation.exists
          (fun t -> List.for_all2 Semantics.ext_mem (Tuple.to_list t) exts)
          doc.answers)

let explanation doc missing texts =
  match extensions doc texts with
  | Error _ as e -> e
  | Ok exts ->
    if is_explanation doc missing exts then Ok exts
    else
      Error
        (Printf.sprintf "(%s) is not an explanation of the missing tuple"
           (String.concat "; " texts))

(* [leq e f]: [e] is at most as general as [f], position by position. *)
let leq (e : exts) (f : exts) = List.for_all2 Semantics.ext_subset e f
let equiv e f = leq e f && leq f e

(* The MGE classes w.r.t. O_I[K] by brute force: per position, every
   selection-free concept over the instance with nominals from
   K = adom(I) ∪ {a} that contains the position's constant, reduced to
   distinct oracle extensions; then every product tuple that explains,
   keeping the maximal ones. *)
let brute_force_mges (doc : Inputs.doc) missing =
  let pool = List.fold_left (fun s v -> Value_set.add v s) (Instance.adom doc.instance) missing in
  let candidates a =
    Oracle.selection_free_upper_bounds doc.instance ~nominals:pool (Value_set.singleton a)
    |> List.map (fun c -> Oracle.scan_extension c doc.instance)
    |> List.filter (Semantics.ext_mem a)
    |> List.fold_left
         (fun acc e -> if List.exists (Semantics.ext_equal e) acc then acc else e :: acc)
         []
  in
  let tuples =
    List.fold_right
      (fun a acc ->
         let cs = candidates a in
         List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) cs)
      missing [ [] ]
  in
  let expl = List.filter (is_explanation doc missing) tuples in
  List.filter (fun e -> not (List.exists (fun f -> leq e f && not (leq f e)) expl)) expl

let mge_classes (doc : Inputs.doc) missing =
  match Hashtbl.find_opt doc.mges missing with
  | Some m -> m
  | None ->
    let m = brute_force_mges doc missing in
    Hashtbl.add doc.mges missing m;
    m

(* A set of explanations (as extension tuples) is the MGE set when each
   member explains, no member is comparable with another, and the members
   match the brute-force classes one for one. *)
let mge_set doc missing (set : exts list) =
  let expected = mge_classes doc missing in
  let rec pairwise = function
    | [] -> true
    | e :: rest -> List.for_all (fun f -> not (leq e f || leq f e)) rest && pairwise rest
  in
  if not (List.for_all (is_explanation doc missing) set) then
    Error "a member of the MGE set is not an explanation"
  else if not (pairwise set) then Error "two members of the MGE set are comparable"
  else if
    List.length set <> List.length expected
    || not (List.for_all (fun e -> List.exists (equiv e) expected) set)
  then
    Error
      (Printf.sprintf "the MGE set has %d classes, the brute-force search finds %d other ones"
         (List.length set) (List.length expected))
  else Ok ()

(* The checkers must reject what they exist to reject. Run on the
   paper's question (Figure 2, why is (Amsterdam, New York) missing?). *)
let self_test () =
  let doc = { (Inputs.doc_of Whynot_workload.Cities.schema Whynot_workload.Cities.instance) with text = "" } in
  let missing = Whynot_workload.Cities.missing_tuple in
  let fails what = Error ("checker self-test: " ^ what) in
  let nominals = List.map (fun v -> Printf.sprintf "{%s}" (Value.to_string v)) missing in
  match explanation doc missing nominals with
  | Error m -> fails ("the nominal tuple is rejected: " ^ m)
  | Ok nominal_exts ->
    if Relation.is_empty doc.answers then fails "the paper's question has no answers"
    else if Result.is_ok (explanation doc missing [ "top"; "top" ]) then
      fails "the all-top tuple is accepted as an explanation"
    else
      let mges = mge_classes doc missing in
      if Result.is_error (mge_set doc missing mges) then
        fails "the brute-force MGE set is rejected"
      else if not (List.exists (fun m -> leq nominal_exts m && not (leq m nominal_exts)) mges)
      then fails "the nominal tuple is not below an MGE"
      else if Result.is_ok (mge_set doc missing (nominal_exts :: mges)) then
        fails "a set holding a strictly less general explanation is accepted"
      else Ok (List.length mges)
