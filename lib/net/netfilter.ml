type hook = Prerouting | Input | Forward | Output | Postrouting

type ctx = { in_dev : string option; out_dev : string option }

type verdict = Accept | Drop | Mangle of Packet.t

type rule = {
  rule_name : string;
  matches : ctx -> Packet.t -> bool;
  action : ctx -> Packet.t -> verdict;
}

(* Chains indexed by [hook_index]; [total] is the rule count over all
   hooks, maintained by [append]/[remove] because the stack reads it on
   every transmit (the NAT surcharge). *)
type t = {
  chains : rule list array;
  mutable total : int;
}

let hook_index = function
  | Prerouting -> 0
  | Input -> 1
  | Forward -> 2
  | Output -> 3
  | Postrouting -> 4

let create () = { chains = Array.make 5 []; total = 0 }

let chain t hook = t.chains.(hook_index hook)

let append t hook rule =
  let i = hook_index hook in
  t.chains.(i) <- t.chains.(i) @ [ rule ];
  t.total <- t.total + 1

let remove t hook name =
  let i = hook_index hook in
  let before = t.chains.(i) in
  let after = List.filter (fun r -> r.rule_name <> name) before in
  t.chains.(i) <- after;
  t.total <- t.total - (List.length before - List.length after)

let run t hook ctx pkt =
  let rec go pkt = function
    | [] -> Some pkt
    | r :: rest ->
      if r.matches ctx pkt then
        match r.action ctx pkt with
        | Accept -> go pkt rest
        | Drop -> None
        | Mangle pkt' -> go pkt' rest
      else go pkt rest
  in
  go pkt (chain t hook)

let rule_count t hook = List.length (chain t hook)
let total_rules t = t.total
let no_ctx = { in_dev = None; out_dev = None }
