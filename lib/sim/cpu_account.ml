type category = Usr | Sys | Soft | Guest | Irq

let category_index = function Usr -> 0 | Sys -> 1 | Soft -> 2 | Guest -> 3 | Irq -> 4
let all_categories = [ Usr; Sys; Soft; Guest; Irq ]

let category_to_string = function
  | Usr -> "usr"
  | Sys -> "sys"
  | Soft -> "soft"
  | Guest -> "guest"
  | Irq -> "irq"

type t = (string, int array) Hashtbl.t

let create () : t = Hashtbl.create 32

let row t ~entity =
  match Hashtbl.find_opt t entity with
  | Some r -> r
  | None ->
    let r = Array.make 5 0 in
    Hashtbl.add t entity r;
    r

let charge t ~entity cat ns =
  let r = row t ~entity in
  let i = category_index cat in
  r.(i) <- r.(i) + ns

let get t ~entity cat =
  match Hashtbl.find_opt t entity with
  | None -> 0
  | Some r -> r.(category_index cat)

let entity_total t ~entity =
  match Hashtbl.find_opt t entity with
  | None -> 0
  | Some r -> Array.fold_left ( + ) 0 r

let entities t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort_uniq compare

(* In place: {!Exec} contexts hold on to their rows across a reset, so
   dropping the table would leave them counting into orphaned arrays. *)
let reset t = Hashtbl.iter (fun _ r -> Array.fill r 0 (Array.length r) 0) t

let snapshot t =
  entities t
  |> List.map (fun e ->
         (e, List.map (fun c -> (c, get t ~entity:e c)) all_categories))

let cores t ~entity cat ~window =
  if window <= 0 then 0.0
  else float_of_int (get t ~entity cat) /. float_of_int window

