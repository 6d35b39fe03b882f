type t = { mutable state : int64 }

let create seed = { state = seed }

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  Passes BigCrush when used as a stream. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = create (next_int64 t)

let float t =
  (* 53 high bits -> uniform in [0,1) *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be > 0";
  (* Rejection-free modulo is fine here: bounds are tiny vs 2^62.  The
     [land max_int] guards against Int64.to_int keeping bit 62 set and
     producing a negative OCaml int. *)
  let v = Int64.to_int (next_int64 t) land max_int in
  v mod bound

let range_float t lo hi = lo +. ((hi -. lo) *. float t)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
