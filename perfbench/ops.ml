(* One operation as a conversation: the request lines it sends, in order,
   through whatever [send] is (a socket, or an in-process replay), and
   the check of its replies once it is over. *)

module Json = Whynot.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type outcome = { op : Inputs.op; replies : string list }

(* [Some] of every [f x] when none is [None]. *)
let all f l =
  List.fold_right
    (fun x acc -> match (f x, acc) with Some y, Some ys -> Some (y :: ys) | _ -> None)
    l (Some [])

let strings = function
  | Json.List js -> all (function Json.String s -> Some s | _ -> None) js
  | _ -> None

let mge_texts result = Option.bind (Json.member "mge" result) strings

(* Replies are collected as sent; a request whose predecessor failed is
   not sent, and the outcome's check reports the first failure. *)
let run send (op : Inputs.op) =
  let replies =
    match op with
    | Explain { session; missing; _ } -> (
      let r1 = send (Inputs.one_mge ~session missing) in
      match Option.bind (Result.to_option (Wire.result r1)) mge_texts with
      | None -> [ r1 ]
      | Some texts -> [ r1; send (Inputs.check_mge ~session missing texts) ])
    | All_mges { session; missing; _ } -> [ send (Inputs.all_mges ~session missing) ]
    | Churn { session; create; missing; _ } ->
      let r1 = send create in
      if Result.is_error (Wire.result r1) then [ r1 ]
      else
        let r2 = send (Inputs.one_mge ~session missing) in
        [ r1; r2; send (Inputs.close ~session) ]
  in
  { op; replies }

let ( let* ) = Result.bind

let expect what = function Some v -> Ok v | None -> Error what

let explained doc missing reply =
  let* r = Wire.result reply in
  let* texts = expect "one_mge reply without an mge list" (mge_texts r) in
  Result.map ignore (Check.explanation doc missing texts)

let check_replies { op; replies } =
  match (op, replies) with
  | Explain { doc; missing; _ }, [ r1; r2 ] ->
    let* () = explained doc missing r1 in
    let* r = Wire.result r2 in
    if Json.member "is_mge" r = Some (Json.Bool true) then Ok ()
    else Error "check_mge did not confirm the returned explanation"
  | All_mges { doc; missing; _ }, [ r1 ] ->
    let* r = Wire.result r1 in
    let* mges =
      expect "all_mges reply without an mges list"
        (match Json.member "mges" r with Some (Json.List l) -> all strings l | _ -> None)
    in
    if Json.member "count" r <> Some (Json.Int (List.length mges)) then
      Error "all_mges count disagrees with its list"
    else
      let* exts =
        List.fold_right
          (fun texts acc ->
             let* acc = acc in
             let* e = Check.extensions doc texts in
             Ok (e :: acc))
          mges (Ok [])
      in
      Check.mge_set doc missing exts
  | Churn { session; doc; missing; _ }, [ r1; r2; r3 ] ->
    let* r = Wire.result r1 in
    if Json.member "session" r <> Some (Json.String session) then
      Error "create named another session"
    else
      let* () = explained doc missing r2 in
      let* r = Wire.result r3 in
      if Json.member "closed" r = Some (Json.Bool true) then Ok () else Error "close failed"
  | _, replies ->
    (* A conversation cut short: report the reply that stopped it. *)
    let last = List.nth replies (List.length replies - 1) in
    let* _ = Wire.result last in
    Error ("unexpected reply: " ^ last)

(* [`Failed]: the server answered an error (or nothing usable);
   [`Wrong]: every reply was a result, and one is wrong. *)
let check o =
  match check_replies o with
  | Ok () -> Ok ()
  | Error m ->
    if List.exists (fun r -> Result.is_error (Wire.result r)) o.replies then Error (`Failed m)
    else Error (`Wrong m)
