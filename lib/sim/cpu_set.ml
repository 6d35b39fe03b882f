type t = { busy : Time.ns array }

let create ~cores =
  if cores <= 0 then invalid_arg "Cpu_set.create: cores must be > 0";
  { busy = Array.make cores 0 }

let cores t = Array.length t.busy

let book t ~ready =
  (* Best fit among already-free cores (the latest-freed, first index on
     ties); earliest-available otherwise (first index on ties).  One pass
     with the running best values in locals: this runs on every CPU-bound
     submission. *)
  let busy = t.busy in
  let best_free = ref (-1) and best_free_v = ref min_int in
  let earliest = ref 0 and earliest_v = ref busy.(0) in
  for i = 0 to Array.length busy - 1 do
    let v = busy.(i) in
    if v <= ready then begin
      if v > !best_free_v then begin
        best_free := i;
        best_free_v := v
      end
    end
    else if v < !earliest_v then begin
      earliest := i;
      earliest_v := v
    end
  done;
  if !best_free >= 0 then !best_free else !earliest

let start_at t core ~ready = Int.max ready t.busy.(core)

let commit t core ~finish = t.busy.(core) <- finish

