type t = {
  exec_name : string;
  engine : Engine.t;
  account : (Cpu_account.t * string * Cpu_account.category) option;
  also : (Cpu_account.t * string * Cpu_account.category) list;
  slots : Time.ns array;
  cpus : Cpu_set.t option;
  mutable busy_ns : Time.ns;
  (* Accounting rows of [account] and [also], resolved on the first
     submission (not at [create]: a context that never runs must not
     list its entities) so each charge is an array add, not a hash of
     the entity name.  [rows_ready] guards the other three fields;
     [acct_row] stays empty without [account]. *)
  mutable rows_ready : bool;
  mutable acct_row : int array;
  mutable acct_cat : int;
  mutable also_rows : (int array * int) array;  (* (row, category index) *)
  (* Cached trace-name id for [exec_name], valid while the engine's
     trace epoch matches — every submission is labeled with the exec
     name, so interning it per event would dominate tracing cost. *)
  mutable lbl : int;
  mutable lbl_epoch : int;
}

let create ?account ?(also = []) ?(width = 1) ?cpus engine ~name =
  if width <= 0 then invalid_arg "Exec.create: width must be > 0";
  { exec_name = name; engine; account; also; slots = Array.make width 0;
    cpus; busy_ns = 0; rows_ready = false; acct_row = [||]; acct_cat = 0;
    also_rows = [||]; lbl = -1; lbl_epoch = -1 }

let resolve_rows t =
  (match t.account with
  | None -> ()
  | Some (acct, entity, cat) ->
    t.acct_row <- Cpu_account.row acct ~entity;
    t.acct_cat <- Cpu_account.category_index cat);
  t.also_rows <-
    Array.of_list
      (List.map
         (fun (acct, entity, cat) ->
           (Cpu_account.row acct ~entity, Cpu_account.category_index cat))
         t.also);
  t.rows_ready <- true

let name t = t.exec_name

let min_slot t =
  let slots = t.slots in
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  !best

(* Core submission path.  Returns the completion time so callers that
   need timing (latency provenance) can recover [start = finish - cost]
   without any allocation on the common path. *)
let submit_timed ?charge_as t ~cost k =
  let cost = Int.max 0 cost in
  let now = Engine.now t.engine in
  let slot = min_slot t in
  let slot_free = Int.max now t.slots.(slot) in
  let finish =
    match t.cpus with
    | None -> slot_free + cost
    | Some set ->
      let core = Cpu_set.book set ~ready:slot_free in
      let finish = Cpu_set.start_at set core ~ready:slot_free + cost in
      Cpu_set.commit set core ~finish;
      finish
  in
  t.slots.(slot) <- finish;
  t.busy_ns <- t.busy_ns + cost;
  if not t.rows_ready then resolve_rows t;
  let row = t.acct_row in
  if Array.length row > 0 then begin
    let i =
      match charge_as with
      | None -> t.acct_cat
      | Some cat -> Cpu_account.category_index cat
    in
    row.(i) <- row.(i) + cost
  end;
  let also_rows = t.also_rows in
  for j = 0 to Array.length also_rows - 1 do
    let row, i = also_rows.(j) in
    row.(i) <- row.(i) + cost
  done;
  let ep = Engine.trace_epoch t.engine in
  if t.lbl_epoch <> ep then begin
    t.lbl <- Engine.intern_label t.engine t.exec_name;
    t.lbl_epoch <- ep
  end;
  Engine.schedule_at_interned t.engine ~label:t.exec_name ~lbl:t.lbl ~at:finish
    k;
  finish

let submit ?charge_as t ~cost k =
  ignore (submit_timed ?charge_as t ~cost k : Time.ns)

let engine t = t.engine

let busy_until t = t.slots.(min_slot t)
let busy_ns t = t.busy_ns

